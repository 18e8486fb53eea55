"""Batch command-line front end.

One invocation runs one experiment described either by a JSON config file
or by inline flags; results go to stdout or to --out as CSV or JSON.
Outputs are deterministic: no clocks, no RNG, floats rendered with repr.
Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from . import __version__
from .errors import NumericalError, ValidationError
from .realset import GapSet, fat_cantor, homogeneity_margin, lebesgue_measure, make_gapset
from .potential import TOLERANCES, green_value, pw_sum, solve_green
from .jacobi import WeightSpec, coefficients_from_measure, make_measure
from .sumrule import n_step_sum_rule, szego_product, theorem_upper_bound

COMMANDS = ("capacity", "green", "cantor", "coeffs", "sumrule", "theorem", "homogeneity")
CONFIG_KEYS = (
    "command", "set", "measure", "n", "quad_order", "points", "gap_index", "deltas", "plot",
    "out", "format",
)


def _fmt(v) -> str:
    # np.float64 subclasses float but reprs differently; coerce first
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def parse_floats(text: str, what: str) -> list[float]:
    """Comma-separated floats; anything else is a ValidationError."""
    try:
        return [float(v) for v in str(text).split(",")]
    except ValueError as exc:
        raise ValidationError(f"{what} must be comma-separated numbers: {exc}") from exc


def _decode_spec(spec, what: str):
    """A JSON object from a config file as is, or a string decoded as JSON."""
    if isinstance(spec, dict):
        return spec
    if not isinstance(spec, str):
        raise ValidationError(f"{what} spec must be a string or a JSON object, got {spec!r}")
    try:
        return json.loads(spec)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} spec is not JSON: {exc}") from exc


def parse_set_spec(spec) -> GapSet:
    if isinstance(spec, str) and spec.startswith("fat_cantor:"):
        try:
            level = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"fat_cantor level must be an integer: {exc}") from exc
        return fat_cantor(level)
    obj = _decode_spec(spec, "set")
    if not isinstance(obj, dict) or not {"alpha", "beta"} <= obj.keys():
        raise ValidationError(f"set spec must be a JSON object with alpha and beta, got {obj!r}")
    return make_gapset(obj["alpha"], obj["beta"], obj.get("gaps", []))


def parse_measure_spec(spec, model, quad_order: int | None):
    """A measure on model, its band rule of order quad_order (None: make_measure's default)."""
    named = {"equilibrium": {}, "lebesgue": {"mode": "absolute"}}  # a unit factor each
    obj = named[spec] if isinstance(spec, str) and spec in named else _decode_spec(spec, "measure")
    if not isinstance(obj, dict):
        raise ValidationError(f"measure spec must be a JSON object, got {obj!r}")
    try:
        factor = WeightSpec.from_dict(obj.get("factor", {"form": "const", "value": 1.0}))
        return make_measure(
            model,
            factor,
            mode=obj.get("mode", "relative"),
            point_masses=[tuple(pm) for pm in obj.get("masses", [])],
            quad_order=quad_order,
        )
    except ValidationError:
        raise
    except (IndexError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed measure spec {spec!r}: {exc!r}") from exc


def emit_plotdata(name: str, values, path: str) -> None:
    """Write a gnuplot-style block: '# name' then 'index value' lines."""
    rows = "\n".join(f"{i} {_fmt(float(v))}" for i, v in enumerate(values))
    with open(path, "w") as fh:
        fh.write(f"# {name}\n{rows}\n")


def _table(command: str, columns: list[str], rows: list[list], meta: dict, fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"
    payload = {
        "command": command,
        "columns": columns,
        "rows": [[float(v) if isinstance(v, float) else v for v in row] for row in rows],
        "meta": dict(meta, version=__version__),
    }
    return json.dumps(payload, sort_keys=True) + "\n"


def _report_table(command: str, report, meta: dict, fmt: str) -> str:
    """One row of the report's scalar fields in declaration order, a bool as 0/1."""
    row = {
        f.name: int(v) if isinstance(v, bool) else v
        for f in fields(report)
        if isinstance(v := getattr(report, f.name), (int, float, str))
    }
    return _table(command, list(row), [list(row.values())], meta, fmt)


SOLVE_DIAGNOSTICS = ("solve_passes", "root_move", "period_residual")


def _coefficients(mu, pairs: int, meta: dict):
    """Lanczos pairs of mu; its diagnostics go to meta."""
    J = coefficients_from_measure(mu, pairs)
    meta.update(reorth_steps=J.reorth_steps, breakdown_margin=J.breakdown_margin)
    return J


def run(config: dict) -> str:
    command = config.get("command")
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}; choose from {COMMANDS}")
    fmt = config.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ValidationError(f"format must be csv or json, got {fmt!r}")
    unknown = sorted(set(config) - set(CONFIG_KEYS))
    if unknown:
        raise ValidationError(f"unknown config keys {unknown}; choose from {CONFIG_KEYS}")
    for key in ("n", "quad_order", "gap_index"):
        if key in config and (isinstance(config[key], bool) or not isinstance(config[key], int)):
            raise ValidationError(f"{key} must be an integer, got {config[key]!r}")
    if command != "capacity" and config.get("n", 1) < 1:
        raise ValidationError(f"n must be at least 1, got {config['n']}")
    quad_order = config.get("quad_order")
    meta = {
        "quad_order": quad_order,
        "set": config.get("set"),
        "measure": config.get("measure"),
        "tolerances": TOLERANCES,
    }

    if command == "cantor":
        n = config.get("n", 6)
        rows = []
        for level in range(1, n + 1):
            s = fat_cantor(level)
            model = solve_green(s, quad_order)
            rows.append([level, len(s.gaps), lebesgue_measure(s), model.capacity, pw_sum(model)])
            for key in SOLVE_DIAGNOSTICS:  # one entry per level
                meta.setdefault(key, []).append(getattr(model, key))
        if config.get("plot"):
            emit_plotdata("pw_sum", [r[4] for r in rows], config["plot"])
        return _table(command, ["level", "gap_count", "measure", "capacity", "pw_sum"], rows, meta, fmt)

    s = parse_set_spec(config.get("set"))

    if command == "homogeneity":
        t_samples = config.get("n", 8)
        deltas = config.get("deltas") or [0.8 * s.diameter * 2.0 ** (-k) for k in range(8)]
        try:
            deltas = [float(d) for d in deltas]
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"deltas must be numbers: {exc}") from exc
        rows = [[d, homogeneity_margin(s, t_samples, [d])] for d in deltas]
        rows.append(["overall", min(m for _, m in rows)])  # each entry is elementwise
        return _table(command, ["delta", "margin"], rows, meta, fmt)

    model = solve_green(s, quad_order)
    meta.update((key, getattr(model, key)) for key in SOLVE_DIAGNOSTICS)

    if command == "capacity":
        rows = [
            ["capacity", model.capacity],
            ["robin", model.robin],
            ["pw_sum", pw_sum(model)],
        ]
        return _table(command, ["quantity", "value"], rows, meta, fmt)

    if command == "green":
        if config.get("points"):
            pts = parse_floats(config["points"], "--points")
        elif config.get("gap_index") is not None:
            j = config["gap_index"]
            if not 0 <= j < len(s.gaps):
                raise ValidationError(f"gap index {j} out of range")
            lo, hi = s.gaps[j]
            k = config.get("n", 51)
            pts = [lo + (hi - lo) * (i + 1) / (k + 1) for i in range(k)]
        else:
            raise ValidationError("green needs --points or --gap-index")
        rows = [[x, g] for x, g in zip(pts, green_value(model, pts).tolist())]
        if config.get("plot"):
            emit_plotdata("green", [r[1] for r in rows], config["plot"])
        return _table(command, ["x", "green"], rows, meta, fmt)

    mu = parse_measure_spec(config.get("measure", "equilibrium"), model, quad_order)
    meta["mass_error"] = abs(float(mu.quad.all_weights.sum()) - 1.0)  # what the measure's mass gate read

    if command == "coeffs":
        n = config.get("n", 20)
        J = _coefficients(mu, n, meta)
        rows = [[i + 1, float(J.a[i]), float(J.b[i])] for i in range(n)]
        return _table(command, ["n", "a_n", "b_n"], rows, meta, fmt)

    if command == "sumrule":
        n = config.get("n", 1)
        J = _coefficients(mu, max(4 * n, 120) + 2 * 60, meta)
        return _report_table(command, n_step_sum_rule(J, mu, n), meta, fmt)

    if command == "theorem":
        n_max = config.get("n", 50)
        J = _coefficients(mu, n_max, meta)
        report = theorem_upper_bound(J, mu, n_max)
        meta["glued_sums"] = report.glued_sums  # JSON keys are the head sizes as strings
        if config.get("plot"):
            emit_plotdata("szego_product", szego_product(J, model.capacity, n_max), config["plot"])
        return _report_table(command, report, meta, fmt)

    raise AssertionError("unreachable")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gaplab", description=__doc__)
    p.add_argument("--config", help="JSON config file (one object per run)")
    p.add_argument("--command", choices=COMMANDS)
    p.add_argument("--set", help='inline GapSet JSON or "fat_cantor:n"')
    p.add_argument("--measure", help='measure spec JSON, "equilibrium" or "lebesgue"')
    p.add_argument("--n", type=int, help="command-specific size parameter")
    p.add_argument("--quad-order", type=int, dest="quad_order")
    p.add_argument("--points", help="comma-separated evaluation points (green)")
    p.add_argument("--gap-index", type=int, dest="gap_index")
    p.add_argument("--deltas", help="comma-separated delta grid (homogeneity)")
    p.add_argument("--plot", help="also write plot-ready data blocks to this path")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config: dict = {}
    try:
        if args.config:
            with open(args.config) as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ValidationError(f"config file must hold a JSON object, got {config!r}")
        for key in CONFIG_KEYS:
            val = getattr(args, key)
            if val is not None:
                config[key] = parse_floats(val, "--deltas") if key == "deltas" else val
        config.setdefault("format", "csv")
        text = run(config)
    except (ValidationError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"gaplab: validation error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"gaplab: numerical failure: {exc}", file=sys.stderr)
        return 2
    out = config.get("out")
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
