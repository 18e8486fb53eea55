import json
import math
from dataclasses import dataclass, fields

import numpy as np
import pytest

import gaplab as G
from gaplab import cli
from gaplab.errors import ValidationError


def run_cli(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    code = cli.main(args + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def test_capacity_csv(tmp_path):
    code, data = run_cli(
        ["--command", "capacity", "--set", '{"alpha": -2, "beta": 2, "gaps": []}'],
        tmp_path,
    )
    assert code == 0
    lines = data.decode().strip().split("\n")
    assert lines[0] == "quantity,value"
    row = dict(l.split(",") for l in lines[1:])
    assert abs(float(row["capacity"]) - 1.0) <= 1e-10
    assert abs(float(row["pw_sum"])) <= 1e-12


def test_deterministic_reruns(tmp_path):
    args = ["--command", "cantor", "--n", "3"]
    _, first = run_cli(args, tmp_path, "a.csv")
    _, second = run_cli(args, tmp_path, "b.csv")
    assert first == second and first


def test_cantor_schema(tmp_path):
    code, data = run_cli(["--command", "cantor", "--n", "4"], tmp_path)
    assert code == 0
    lines = data.decode().strip().split("\n")
    assert lines[0] == "level,gap_count,measure,capacity,pw_sum"
    rows = [l.split(",") for l in lines[1:]]
    assert [int(r[0]) for r in rows] == [1, 2, 3, 4]
    for n, r in enumerate(rows, start=1):
        assert float(r[2]) == 1 - 0.5 * (1 - 2.0 ** (-n))
    pw = [float(r[4]) for r in rows]
    assert all(b > a for a, b in zip(pw, pw[1:]))


def test_green_points_and_plot(tmp_path):
    plot = tmp_path / "plot.dat"
    code, data = run_cli(
        ["--command", "green", "--set", '{"alpha": -2, "beta": 2, "gaps": []}',
         "--points", "2.0,3.0", "--plot", str(plot)],
        tmp_path,
    )
    assert code == 0
    rows = data.decode().strip().split("\n")[1:]
    assert float(rows[0].split(",")[1]) == 0.0
    assert abs(float(rows[1].split(",")[1]) - math.log((3 + math.sqrt(5)) / 2)) <= 1e-8
    blocks = plot.read_text().strip().split("\n")
    assert blocks[0] == "# green"
    assert blocks[1].split()[0] == "0"


def test_green_far_point(tmp_path):
    code, data = run_cli(
        ["--command", "green", "--set", '{"alpha": -2, "beta": 2}', "--points", "1e300"], tmp_path
    )
    assert code == 0
    _, g = data.decode().split("\n")[1].split(",")
    assert abs(float(g) / math.log(1e300) - 1.0) <= 1e-15


@pytest.mark.parametrize("config", [
    {"command": "capacity"},
    {"command": "capacity", "set": "{}"},
    {"command": "green", "set": {"alpha": -2}, "points": "3"},
], ids=["no_set", "empty_set", "no_beta"])
def test_missing_set_keys_are_validation_errors(config):
    with pytest.raises(ValidationError, match="set spec"):
        cli.run(config)


def test_green_gap_profile_concave(tmp_path):
    code, data = run_cli(
        ["--command", "green", "--set", '{"alpha": -2, "beta": 2, "gaps": [[-1, 1]]}',
         "--gap-index", "0", "--n", "21"],
        tmp_path,
    )
    assert code == 0
    vals = [float(r.split(",")[1]) for r in data.decode().strip().split("\n")[1:]]
    peak = max(range(21), key=lambda i: vals[i])
    assert 0 < peak < 20
    assert all(v > 0 for v in vals)
    second_diff = [vals[i + 1] - 2 * vals[i] + vals[i - 1] for i in range(1, 20)]
    assert all(d < 0 for d in second_diff)  # strictly concave across the gap


def test_coeffs_command(tmp_path):
    code, data = run_cli(
        ["--command", "coeffs", "--set", '{"alpha": -2, "beta": 2, "gaps": []}',
         "--measure", "equilibrium", "--n", "5"],
        tmp_path,
    )
    assert code == 0
    lines = data.decode().strip().split("\n")
    assert lines[0] == "n,a_n,b_n"
    first = lines[1].split(",")
    assert abs(float(first[1]) - math.sqrt(2)) <= 1e-10


def test_coeffs_near_support_size(tmp_path):
    # 399 pairs of mu_E on a 200-node-per-band rule: Lanczos runs at twice
    # the pairs, so the tail matches an order-3200 reference to rounding
    spec = '{"alpha": -2, "beta": 2, "gaps": [[-1, 1]]}'
    code, data = run_cli(
        ["--command", "coeffs", "--set", spec, "--measure", "equilibrium", "--n", "399",
         "--format", "json"],
        tmp_path,
    )
    assert code == 0
    rows = np.array(json.loads(data)["rows"])
    mu = G.make_measure(G.solve_green(G.make_gapset(-2, 2, [(-1, 1)])))
    ref = G.coefficients_from_measure(mu, 399, quad_order=3200)
    assert np.max(np.abs(rows[:, 1] - ref.a)) <= 1e-13
    assert np.max(np.abs(rows[:, 2] - ref.b)) <= 1e-13


def test_sumrule_command(tmp_path):
    code, data = run_cli(
        ["--command", "sumrule", "--set", '{"alpha": -2, "beta": 2, "gaps": []}',
         "--measure", "equilibrium", "--n", "1"],
        tmp_path,
    )
    assert code == 0
    header, row = data.decode().strip().split("\n")
    fields = dict(zip(header.split(","), row.split(",")))
    assert abs(float(fields["residual"])) <= 1e-6
    assert fields["status"] == "ok"


def test_theorem_command_json(tmp_path):
    code, data = run_cli(
        ["--command", "theorem", "--set", '{"alpha": -2, "beta": 2, "gaps": []}',
         "--measure", "equilibrium", "--n", "24", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    obj = json.loads(data)
    assert obj["command"] == "theorem"
    assert obj["meta"]["version"]
    row = dict(zip(obj["columns"], obj["rows"][0]))
    assert row["satisfied"] == 1


def test_homogeneity_command(tmp_path):
    code, data = run_cli(
        ["--command", "homogeneity", "--set", "fat_cantor:3", "--n", "6",
         "--deltas", "0.5,0.1,0.02"],
        tmp_path,
    )
    assert code == 0
    lines = data.decode().strip().split("\n")
    assert lines[0] == "delta,margin"
    assert lines[-1].startswith("overall,")
    assert float(lines[-1].split(",")[1]) >= 0.25


def test_homogeneity_default_deltas(tmp_path):
    code, data = run_cli(["--command", "homogeneity", "--set", "fat_cantor:2"], tmp_path)
    assert code == 0
    lines = data.decode().strip().split("\n")
    assert len(lines) == 10  # header, eight default deltas, overall row


def test_config_file_with_inline_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "capacity", "set": '{"alpha": 0, "beta": 1, "gaps": []}',
        "format": "json",
    }))
    out = tmp_path / "o.json"
    code = cli.main(["--config", str(cfg), "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    row = dict(zip([r[0] for r in obj["rows"]], [r[1] for r in obj["rows"]]))
    assert abs(row["capacity"] - 0.25) <= 1e-10


def test_validation_exit_code(tmp_path, capsys):
    code = cli.main(["--command", "capacity", "--set", '{"alpha": 1, "beta": 0}'])
    assert code == 1
    assert "validation error" in capsys.readouterr().err
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"command": "bogus", "set": "fat_cantor:1"}))
    assert cli.main(["--config", str(cfg)]) == 1


def test_numerical_failure_exit_code(monkeypatch, capsys):
    # a period gate no solve can pass: exit 2 with the message, no traceback
    monkeypatch.setitem(G.potential.TOLERANCES, "period_residual", 0.0)
    code = cli.main(["--command", "capacity", "--set",
                     '{"alpha": -2, "beta": 2, "gaps": [[-0.5, 1]]}'])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("gaplab: numerical failure:") and "Traceback" not in err


@pytest.mark.parametrize("alpha, beta, code", [
    (0, 1e308, 2), (-1e308, 1e308, 2), (8e307, 1e308, 2),
    (0, 1e307, 0), (5e307, 1e308, 0), (-1e308, 0, 0),
])
def test_sets_near_the_float_range(alpha, beta, code, capsys):
    # a solve that overflows exits 2, with no warning (warnings are errors
    # here); sets just inside the range still solve to cap = diameter/4,
    # [-1e308, 0] too, though its Robin probe's x0 - t passes 1e308
    spec = json.dumps({"alpha": alpha, "beta": beta})
    assert cli.main(["--command", "capacity", "--set", spec]) == code
    out, err = capsys.readouterr()
    if code:
        assert err.startswith("gaplab: numerical failure:")
    else:
        cap = float(out.splitlines()[1].split(",")[1])
        assert cap == pytest.approx((beta - alpha) / 4, rel=1e-14)


TWO_BAND = '{"alpha": -2, "beta": 2, "gaps": [[-1, 1]]}'


@pytest.mark.parametrize("args", [
    ["sumrule", "--set", TWO_BAND, "--measure", '{"masses": [[1e200, 0.1]]}', "--n", "4"],
    ["theorem", "--set", '{"alpha": -1e200, "beta": 1e200}', "--n", "10"],
    ["coeffs", "--set", '{"alpha": -1e300, "beta": 1e300, "gaps": [[-1e299, 1e299]]}',
     "--measure", "lebesgue", "--n", "10"],
    ["coeffs", "--set", '{"alpha": -1e200, "beta": 1e200}', "--n", "10"],
], ids=["point_mass_1e200", "theorem_1e200", "lebesgue_1e300", "coeffs_1e200"])
def test_lanczos_overflow_exit_code(args, capsys):
    # a Lanczos run that leaves the float range exits 2, with no warning
    # (warnings are errors here); it exited 1, "coefficients must be finite"
    assert cli.main(["--command", *args]) == 2
    assert capsys.readouterr().err.startswith("gaplab: numerical failure: Lanczos")


def _plot_block(path, name):
    head, *lines = path.read_text().splitlines()
    assert head == f"# {name}"
    index, values = zip(*((int(i), float(v)) for i, v in (line.split() for line in lines)))
    assert list(index) == list(range(len(lines)))
    return list(values)


def test_cantor_plot_is_the_pw_sum_column(tmp_path):
    plot = tmp_path / "plot.dat"
    code, data = run_cli(["--command", "cantor", "--n", "2", "--format", "json",
                          "--plot", str(plot)], tmp_path)
    assert code == 0
    obj = json.loads(data)
    want = [row[obj["columns"].index("pw_sum")] for row in obj["rows"]]
    assert _plot_block(plot, "pw_sum") == pytest.approx(want, rel=1e-15)


def test_theorem_plot_is_the_szego_product(tmp_path):
    # mu_E of [-2,-1] u [1,2] pulls back the arcsine measure, whose u_n is
    # sqrt(2): every even u_n is sqrt(2); the window is the last quarter
    plot = tmp_path / "plot.dat"
    code, data = run_cli(["--command", "theorem", "--set", TWO_BAND, "--n", "12",
                          "--format", "json", "--plot", str(plot)], tmp_path)
    assert code == 0
    u = _plot_block(plot, "szego_product")
    obj = json.loads(data)
    row = dict(zip(obj["columns"], obj["rows"][0]))
    assert len(u) == 12 and u[1::2] == pytest.approx([math.sqrt(2)] * 6, abs=1e-10)
    assert max(u[-3:]) == pytest.approx(row["window_max"], rel=1e-15)
    assert min(u[-3:]) == pytest.approx(row["window_min"], rel=1e-15)


def test_lebesgue_measure_spec(tmp_path):
    # normalized Lebesgue measure on [-2,-1] u [1,2], absolute mode: S = log(pi/4)
    code, data = run_cli(["--command", "sumrule", "--set", TWO_BAND, "--measure", "lebesgue",
                          "--n", "1", "--format", "json"], tmp_path)
    assert code == 0
    obj = json.loads(data)
    row = dict(zip(obj["columns"], obj["rows"][0]))
    assert row["status"] == "ok"
    assert row["entropy_mu"] == pytest.approx(math.log(math.pi / 4), abs=1e-12)
    assert obj["meta"]["measure"] == "lebesgue"


@pytest.mark.parametrize("args", [
    ["--command", "capacity", "--set", "fat_cantor:x"],
    ["--command", "capacity", "--set", "[1,2]"],
    ["--command", "capacity", "--set", "{alpha"],
    ["--command", "green", "--set", '{"alpha": -2, "beta": 2}', "--points", "0.5,abc"],
    ["--command", "green", "--set", '{"alpha": -2, "beta": 2, "gaps": [[-1, 1]]}'],
    ["--command", "green", "--set", '{"alpha": -2, "beta": 2, "gaps": [[-1, 1]]}',
     "--gap-index", "1"],
    *[
        ["--command", "coeffs", "--set", '{"alpha": -2, "beta": 2}', "--n", "3", "--measure", m]
        for m in (
            '{"factor": "x"}', '{"factor": 5}', '{"masses": [[3.0]]}',
            '{"masses": [["a", 0.1]]}', '{"masses": 3}',
            '{"factor": {"form": "poly", "coef": "abc"}}',
            '{"factor": {"form": "poly", "coef": []}}',
            '{"factor": {"form": "const", "value": "x"}}',
            '{"factor": {"form": "indicator", "support": [1, 2]}}',
        )
    ],
], ids=["cantor_level", "set_not_object", "set_not_json", "points_not_numbers",
        "green_no_points", "gap_index_out_of_range", "factor_string",
        "factor_number", "mass_one_entry", "mass_not_number", "masses_number",
        "poly_coef_string", "poly_coef_empty", "const_value_string", "indicator_flat"])
def test_malformed_inputs_are_validation_errors(args, capsys):
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("gaplab: validation error:") and "Traceback" not in err


@pytest.mark.parametrize("key,spec", [
    ("set", {"alpha": 0, "beta": 1, "gaps": []}),
    ("measure", {"mode": "relative", "factor": {"form": "const", "value": 2.0}}),
], ids=["set_object", "measure_object"])
def test_config_file_json_objects(key, spec, tmp_path):
    cfg = {"command": "coeffs", "set": '{"alpha": 0, "beta": 1, "gaps": []}', "n": 3,
           "format": "json", key: spec}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o.json"
    assert cli.main(["--config", str(path), "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["meta"][key] == spec
    # the arcsine measure of [0, 1]: a_1 = sqrt(2)/4, b_n = 1/2
    assert obj["rows"][0][1] == pytest.approx(math.sqrt(2) / 4, abs=1e-10)
    assert obj["rows"][0][2] == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("key,spec", [
    ("set", 5), ("set", [0, 1]), ("set", None), ("measure", 3), ("measure", [1]),
    ("measure", "[1]"),
    ("n", "abc"), ("n", None), ("quad_order", "x"), ("quad_order", 40.7), ("gap_index", "a"),
    ("length", "q"), ("deltas", ["a"]), (None, [1, 2]), ("deltas", ["nan"]),
    ("n", 0),
    (None, {"command": "green", "set": '{"alpha": -2, "beta": 2, "gaps": [[-1, 1]]}',
            "gap_index": 0, "n": -2}),
    (None, {"command": "cantor", "n": 0}),
    (None, {"command": "homogeneity", "set": "fat_cantor:2", "n": -1}),
    ("quad-order", 400), ("format", "xml"),
])
def test_config_file_bad_specs_are_validation_errors(key, spec, tmp_path, capsys):
    # key None: spec is the whole file; the integer fields take JSON integers
    # only, and a key the CLI does not read (a typo) must not run silently
    cfg = {"command": "homogeneity" if key == "deltas" else "coeffs",
           "set": '{"alpha": 0, "beta": 1}', "n": 3, key: spec} if key else spec
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gaplab: validation error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["coeffs", "sumrule", "theorem"])
def test_lanczos_diagnostics_in_json_meta(command, tmp_path):
    code, data = run_cli(
        ["--command", command, "--set", '{"alpha": -2, "beta": 2, "gaps": []}',
         "--measure", "equilibrium", "--n", "4", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    meta = json.loads(data)["meta"]
    assert meta["reorth_steps"] == 0
    assert meta["breakdown_margin"] > 1e12


@pytest.mark.parametrize("command,compute", [
    ("sumrule", "n_step_sum_rule"), ("theorem", "theorem_upper_bound"),
])
def test_report_columns_are_its_scalar_fields(command, compute, tmp_path, monkeypatch):
    # the CLI renders whatever the report declares: a field added to the
    # report shows up in the output, a bool as 0/1, the dict of glued sums not
    real = getattr(cli, compute)

    def extended(*args):
        report = real(*args)

        @dataclass
        class Extended(type(report)):
            extra: bool = True

        return Extended(**{f.name: getattr(report, f.name) for f in fields(report)})

    monkeypatch.setattr(cli, compute, extended)
    code, data = run_cli(
        ["--command", command, "--set", '{"alpha": -2, "beta": 2, "gaps": []}',
         "--measure", "equilibrium", "--n", "4", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    obj = json.loads(data)
    report_cls = G.SumRuleReport if command == "sumrule" else G.TheoremReport
    scalars = [f.name for f in fields(report_cls) if f.name != "glued_sums"]
    assert obj["columns"] == scalars + ["extra"]
    row = dict(zip(obj["columns"], obj["rows"][0]))
    assert row["extra"] == 1 and row.get("satisfied", 1) == 1


def test_theorem_meta_carries_glued_sums(tmp_path):
    # JSON meta shows every sampled head's glued Green sum; CSV stays one row
    args = ["--command", "theorem", "--set", '{"alpha": -2, "beta": 2, "gaps": [[-1, 1]]}',
            "--measure", '{"factor": {"form": "poly", "coef": [1, 0, 0.3]}}', "--n", "100"]
    code, data = run_cli(args + ["--format", "json"], tmp_path)
    assert code == 0
    s = G.make_gapset(-2, 2, [(-1, 1)])
    mu = cli.parse_measure_spec('{"factor": {"form": "poly", "coef": [1, 0, 0.3]}}',
                                G.solve_green(s))
    report = G.theorem_upper_bound(G.coefficients_from_measure(mu, 100), mu, 100)
    glued = json.loads(data)["meta"]["glued_sums"]
    assert glued == {str(n): v for n, v in report.glued_sums.items()}
    assert sorted(glued) == ["100", "12", "25", "50"]
    code, csv = run_cli(args, tmp_path, "out.csv")
    assert code == 0 and len(csv.decode().strip().split("\n")) == 2


def test_solve_diagnostics_in_json_meta(tmp_path):
    # the gates' own readings ride in meta: one entry per level for cantor,
    # the model's values for a command on one set; CSV output is unchanged
    code, data = run_cli(["--command", "cantor", "--n", "3", "--format", "json"], tmp_path)
    assert code == 0
    meta = json.loads(data)["meta"]
    models = [G.solve_green(G.fat_cantor(level)) for level in (1, 2, 3)]
    for key in ("solve_passes", "root_move", "period_residual", "mass_error"):
        assert meta[key] == [getattr(m, key) for m in models]
    assert max(meta["period_residual"]) <= cli.TOLERANCES["period_residual"]
    spec = '{"alpha": -2, "beta": 2, "gaps": [[-1, 1]]}'
    code, data = run_cli(["--command", "capacity", "--set", spec, "--format", "json"], tmp_path)
    model = G.solve_green(G.make_gapset(-2, 2, [(-1, 1)]))
    meta = json.loads(data)["meta"]
    assert (meta["solve_passes"], meta["root_move"]) == (model.solve_passes, model.root_move)
    assert (meta["period_residual"], meta["mass_error"]) == (model.period_residual, model.mass_error)
    _, csv = run_cli(["--command", "capacity", "--set", spec], tmp_path, "out.csv")
    assert b"residual" not in csv
