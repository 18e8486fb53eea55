import json
import math
import random
from dataclasses import fields

import numpy as np
import pytest

import gaplab as G
from gaplab import cli, sumrule
from gaplab.errors import ValidationError


def test_szego_integral_arcsine(mu_arcsine, model_m22):
    assert G.szego_integral(mu_arcsine) == pytest.approx(-math.log(math.pi), abs=1e-8)
    # a measure at another order follows the same path
    mu = G.make_measure(model_m22, None, mode="relative", quad_order=300)
    assert G.szego_integral(mu) == pytest.approx(-math.log(math.pi), abs=1e-8)
    assert G.relative_entropy(mu) == pytest.approx(0.0, abs=1e-10)


def test_szego_integral_semicircle(mu_semicircle):
    assert G.szego_integral(mu_semicircle) == pytest.approx(
        -math.log(2) - math.log(math.pi), abs=1e-8
    )


def test_szego_integral_zero_band_sentinel(model_pm12):
    # weight supported on the right band only: log f diverges on the left one
    w = G.WeightSpec("indicator", {"support": [[1.0, 2.0]]})
    mu = G.make_measure(model_pm12, w, mode="relative")
    assert G.szego_integral(mu) == float("-inf")


def test_szego_integral_edge_essential_zero_sentinel(model_m22):
    w = G.WeightSpec("exp_inv_abs", {"center": 2.0, "strength": 1.0})
    mu = G.make_measure(model_m22, w, mode="relative", quad_order=800)
    assert G.szego_integral(mu) == float("-inf")


def test_relative_entropy_cases(model_m22, mu_arcsine, mu_semicircle):
    assert G.relative_entropy(mu_arcsine) == pytest.approx(0.0, abs=1e-12)
    assert G.relative_entropy(mu_semicircle) == pytest.approx(-math.log(2), abs=1e-8)


def test_relative_entropy_mass_rescaling(model_m22, mu_semicircle):
    # masses leave the integrand alone but rescale the a.c. density, so the
    # entropy shifts by exactly log(1 - total mass)
    w = G.WeightSpec("poly", {"coef": [2.0, 0.0, -0.5]})
    with_mass = G.make_measure(model_m22, w, point_masses=[(2.5, 0.125), (-3.0, 0.075)])
    base = G.relative_entropy(mu_semicircle)
    assert G.relative_entropy(with_mass) == pytest.approx(base + math.log(0.8), abs=1e-8)


def test_relative_entropy_absolute_mode(model_m22, model_pm12):
    # normalized Lebesgue weight on [-2, 2]: S = log(pi) - log(4)
    mu = G.make_measure(model_m22, G.WeightSpec("const", {"value": 1.0}), mode="absolute")
    assert G.relative_entropy(mu) == pytest.approx(math.log(math.pi / 4), abs=1e-8)
    # on [-2,-1] u [1,2] the density is 1/2 and int log f_E dmu_E = log(2/pi)
    mu = G.make_measure(model_pm12, G.WeightSpec("const", {"value": 1.0}), mode="absolute")
    assert abs(G.relative_entropy(mu) - math.log(math.pi / 4)) <= 1e-15


def test_entropy_sign_battery(model_m22, model_pm12):
    weights = [
        G.WeightSpec("poly", {"coef": [1.0, 0.2]}),
        G.WeightSpec("poly", {"coef": [0.5, 0.0, 0.3]}),
        G.WeightSpec("exprat", {"num": [0.0, 1.0], "den": [4.0]}),
    ]
    for model in (model_m22, model_pm12):
        for w in weights:
            s = G.relative_entropy(G.make_measure(model, w))
            assert s <= 1e-10
            assert s < -1e-6  # strictly negative away from the equilibrium weight


def test_szego_entropy_offset(model_m22, mu_semicircle, mu_arcsine):
    # the two functionals differ by the equilibrium self-integral, -log(pi) here
    lhs = G.szego_integral(mu_semicircle) - G.relative_entropy(mu_semicircle)
    assert lhs == pytest.approx(-math.log(math.pi), abs=1e-8)
    assert lhs == pytest.approx(G.szego_integral(mu_arcsine), abs=1e-8)


# int log f_E dmu_E: -log pi on [-2, 2], log(sqrt(3)) - log(pi sqrt(3)/2) on
# [-2,-1] u [1,2], the Szego value's offset from the entropy
LOG_F_E_M22 = -math.log(math.pi)
LOG_F_E_PM12 = 0.5 * math.log(3) - math.log(math.pi * math.sqrt(3) / 2)
# S of 1 + 0.3x^2 on [-2,-1] u [1,2], pulled back from the arcsine measure
# (bench/workloads.py POLY_ENTROPY); of 1 + 0.2x there; of x/4 + 1 against
# arcsine, whose S is -log I_0(1/2)
POLY_PM12 = math.log(0.225) + math.acosh(1.75 / 0.45) - math.log(1.75)
LINEAR_PM12 = 0.5 * math.acosh(15) + math.log(math.sqrt(3) / 2) + math.log(0.2)
EXPRAT = -math.log(np.i0(0.5))

# (relative_entropy, szego_integral, bound): closed forms, each bound no
# wider than the old record's lock allowed, |record - closed form| + 1e-15.
# fat3 keeps its record: its Szego value is the Parreau-Widom identity's,
# which the node integral of log f_E matched only to 8 robin roundings
ENTROPY_RECORD = {
    "arcsine": (0.0, LOG_F_E_M22, 1.2e-15),
    "semicircle": (-math.log(2), -math.log(2 * math.pi), 4.6e-15),
    "massed": (math.log(0.4), math.log(0.4 / math.pi), 4.5e-15),
    "lebesgue": (math.log(math.pi / 4), math.log(0.25), 1e-15),
    "lebesgue_pm12": (math.log(math.pi / 4), math.log(0.5), 1e-15),
    "poly_pm12": (POLY_PM12, POLY_PM12 + LOG_F_E_PM12, 1.1e-15),
    "linear_pm12": (LINEAR_PM12, LINEAR_PM12 + LOG_F_E_PM12, 1e-15),
    "exprat": (EXPRAT, EXPRAT + LOG_F_E_M22, 1e-15),
    "fat3": (0.0, 0.8318319501573141, 1e-15),
}


def _entropy_battery(model_m22, model_pm12, model_fat3):
    W = G.WeightSpec
    semicircle = W("poly", {"coef": [2.0, 0.0, -0.5]})
    lebesgue = W("const", {"value": 1.0})
    return {
        "arcsine": G.make_measure(model_m22),
        "semicircle": G.make_measure(model_m22, semicircle),
        "massed": G.make_measure(
            model_m22, semicircle, point_masses=[(2.5, 0.125), (-3.0, 0.075)]
        ),
        "lebesgue": G.make_measure(model_m22, lebesgue, mode="absolute"),
        "lebesgue_pm12": G.make_measure(model_pm12, lebesgue, mode="absolute"),
        "poly_pm12": G.make_measure(model_pm12, W("poly", {"coef": [1, 0, 0.3]})),
        "linear_pm12": G.make_measure(model_pm12, W("poly", {"coef": [1.0, 0.2]})),
        "exprat": G.make_measure(model_m22, W("exprat", {"num": [0.0, 1.0], "den": [4.0]})),
        "fat3": G.make_measure(model_fat3),
    }


def test_entropy_values_match_record(model_m22, model_pm12, model_fat3):
    for name, mu in _entropy_battery(model_m22, model_pm12, model_fat3).items():
        s, szego, bound = ENTROPY_RECORD[name]
        assert abs(G.relative_entropy(mu) - s) <= bound, name
        assert abs(G.szego_integral(mu) - szego) <= bound, name


def test_relative_mode_entropy_never_evaluates_f_e(
    model_m22, model_pm12, model_fat3, monkeypatch
):
    # f = norm * w * f_E in relative mode, so log(f/f_E) is log(norm * w);
    # absolute mode and the Szego integral subtract or add f_E's integral
    # from the Parreau-Widom sum.  A weight callable may return a scalar
    measures = _entropy_battery(model_m22, model_pm12, model_fat3)
    measures["scalar"] = G.make_measure(model_m22, lambda t: 2.0)

    def no_f_e(model, t):
        raise AssertionError("an entropy integral evaluated f_E")

    assert not hasattr(sumrule, "_log_f_e")
    for mod in (G.potential, G.jacobi):
        monkeypatch.setattr(mod, "_log_f_e", no_f_e)
    for name, mu in measures.items():
        s, szego, bound = ENTROPY_RECORD["arcsine" if name == "scalar" else name]
        assert abs(G.relative_entropy(mu) - s) <= bound, name
        assert abs(G.szego_integral(mu) - szego) <= bound, name


def test_log_integral_product_matches_per_edge_loop(model_fat4):
    # szego_integral's own term on fat_cantor(4): one log|t - e| @ p product
    # per band against the loop over every fitted edge inside every band
    model = model_fat4
    quad, edges = model.quad, model.edges
    logs = [G.potential._log_f_e(model, t) for t in quad.nodes]
    exps = {}
    for k, (t, l) in enumerate(zip(quad.nodes, logs)):
        lo, hi = model.set.bands[k]
        exps[2 * k + 1] = sumrule._fit_edge_exponent(hi - t[0], hi - t[1], l[0], l[1])
        exps[2 * k] = sumrule._fit_edge_exponent(t[-1] - lo, t[-2] - lo, l[-1], l[-2])
    assert set(exps.values()) == {-0.5}  # the inverse square root at every edge
    total, terms = 0.0, []
    for t, w, l in zip(quad.nodes, quad.weights, logs):
        sub = l
        for e, p in exps.items():
            sub = sub - p * np.log(np.abs(t - edges[e]))
        terms.append(w * sub)
        total += float(np.sum(terms[-1]))
    total -= model.robin * sum(exps.values())
    lowest = np.partition(np.concatenate(terms), sumrule.CLASS_TRIM)[: sumrule.CLASS_TRIM]
    got, got_trimmed = sumrule._log_integral(model, quad, logs)
    assert abs(got - total) <= 1e-14
    assert abs(got_trimmed - (total - float(np.sum(lowest)))) <= 1e-14


def _cubic_preimage(shift=0.3, c=1.5):
    """E = T^{-1}([-c, c]) for T(x) = x^3 - 3x + shift: three bands, cap = (c/2)^(1/3)."""
    lower = np.sort(np.roots([1.0, 0.0, -3.0, shift + c]).real)
    upper = np.sort(np.roots([1.0, 0.0, -3.0, shift - c]).real)
    edges = np.sort(np.concatenate([lower, upper]))
    return G.make_gapset(edges[0], edges[5], [(edges[1], edges[2]), (edges[3], edges[4])])


# (set, capacity, pw_sum) in closed form: the interval, the pull-back of
# [-2, 2] by (4x^2 - 10)/3 and the cubic preimage, where g = acosh(|T|/c)/3
LOG_F_E_FAMILIES = {
    "interval": (G.make_gapset(-2, 2), 1.0, 0.0),
    "two_band": (G.make_gapset(-2, 2, [(-1, 1)]), math.sqrt(3) / 2, 0.5 * math.log(3)),
    "cubic": (_cubic_preimage(), 0.75 ** (1 / 3), (math.acosh(2.3 / 1.5) + math.acosh(1.7 / 1.5)) / 3),
}


@pytest.mark.parametrize("name", sorted(LOG_F_E_FAMILIES))
def test_log_f_e_integral_matches_closed_forms(name):
    # int log f_E dmu_E = sum_j g(c_j) - log(pi cap): what szego_integral adds
    # to relative_entropy, at every scale the Robin probe has to follow
    s, cap, pw = LOG_F_E_FAMILIES[name]
    for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8):
        for shift in (0.0, 0.37 * scale):
            mu = G.make_measure(G.solve_green(G.scale_shift(s, scale, shift)))
            got = G.szego_integral(mu) - G.relative_entropy(mu)
            assert abs(got - (pw - math.log(math.pi * cap * scale))) <= 1e-14, (scale, shift)


@pytest.mark.parametrize("level", range(1, 8))
def test_log_f_e_integral_matches_node_integral(level):
    # the identity against the edge-fitted integral of log f_E at the band
    # rule's nodes, which it replaced
    model = G.solve_green(G.fat_cantor(level))
    mu = G.make_measure(model)
    logs = [G.potential._log_f_e(model, t) for t in model.quad.nodes]
    nodes = sumrule._log_integral(model, model.quad, logs)[0]
    assert abs(G.szego_integral(mu) - G.relative_entropy(mu) - nodes) <= 2e-13


def test_step_sum_rule_chebyshev(j_chebyshev, mu_arcsine):
    rep = G.step_sum_rule(j_chebyshev, mu_arcsine)
    assert rep.status == "ok"
    assert rep.lhs == pytest.approx(0.5 * math.log(2), abs=1e-12)
    assert rep.rhs == pytest.approx(0.5 * math.log(2), abs=1e-6)
    assert abs(rep.residual) <= 1e-6
    assert rep.green_sum_J == 0.0 and rep.green_sum_strip == 0.0
    assert rep.entropy_strip == pytest.approx(-math.log(2), abs=1e-8)


def test_step_sum_rule_free_invariance(j_free, mu_semicircle):
    rep = G.step_sum_rule(j_free, mu_semicircle)
    assert rep.lhs == pytest.approx(0.0, abs=1e-10)
    assert abs(rep.residual) <= 1e-8


def test_step_sum_rule_perturbed(model_m22, j_perturbed):
    def w_pert(t):
        t = np.asarray(t, dtype=float)
        msc = (-t + 1j * np.sqrt(4 - t * t)) / 2
        mm = 1.0 / (2.5 - t - msc)
        return (mm.imag / np.pi) * (np.pi * np.sqrt(4 - t * t))

    mu = G.make_measure(model_m22, w_pert, point_masses=[(2.9, 0.84)])
    rep = G.step_sum_rule(j_perturbed, mu)
    assert rep.green_sum_J == pytest.approx(math.log(2.5), abs=1e-6)
    assert rep.green_sum_strip == 0.0
    assert abs(rep.residual) <= 1e-4


def test_n_step_sum_rule_chebyshev(j_chebyshev, mu_arcsine):
    for n in (5, 20):
        rep = G.n_step_sum_rule(j_chebyshev, mu_arcsine, n)
        assert rep.lhs == pytest.approx(0.5 * math.log(2), abs=1e-10)
        assert abs(rep.residual) <= 1e-5


def test_n_step_matches_step_composition(j_chebyshev, mu_arcsine, mu_semicircle):
    # strips of the arcsine matrix are free with semicircle measure, so the
    # n-step report must equal the telescoped single steps
    n = 4
    rep_n = G.n_step_sum_rule(j_chebyshev, mu_arcsine, n)
    step1 = G.step_sum_rule(j_chebyshev, mu_arcsine)
    j_free_tail = G.strip(j_chebyshev, 1)
    total_lhs = step1.lhs
    total_rhs = step1.rhs
    for _ in range(n - 1):
        rep = G.step_sum_rule(j_free_tail, mu_semicircle)
        total_lhs += rep.lhs
        total_rhs += rep.rhs
        j_free_tail = G.strip(j_free_tail, 1)
    assert rep_n.lhs == pytest.approx(total_lhs, abs=1e-10)
    assert rep_n.rhs == pytest.approx(total_rhs, abs=1e-6)
    assert rep_n.residual == pytest.approx(step1.residual, abs=1e-6)


def test_n_step_two_interval_self_consistency(je_pm12, mu_eq_pm12):
    rep = G.n_step_sum_rule(je_pm12, mu_eq_pm12, 8)
    assert rep.status == "ok"
    assert abs(rep.residual) <= 1e-3


def test_n_step_three_band_asymmetric():
    # asymmetric cubic-preimage set: full pipeline across two gaps.  At
    # n = 8 one strip eigenvalue sits ~3e-4 off a band edge (g ~ 8e-3) and
    # converges too slowly for certification, so the residual reflects the
    # section-size resolution floor rather than quadrature error.
    model = G.solve_green(_cubic_preimage(), quad_order=300)
    mu = G.make_measure(model, None, mode="relative", quad_order=700)
    J = G.coefficients_from_measure(mu, 400)
    for n in (1, 4):
        rep = G.n_step_sum_rule(J, mu, n)
        assert abs(rep.residual) <= 1e-8
    rep8 = G.n_step_sum_rule(J, mu, 8)
    assert abs(rep8.residual) <= 2e-2


NON_SZEGO_WEIGHTS = {
    "indicator": {"form": "indicator", "support": [[-2, -1], [1, 1.5]]},
    "edge_essential_zero": {"form": "exp_inv_abs", "center": 2.0},
    "interior_essential_zero": {"form": "exp_inv_abs", "center": 1.5},
    "interior_essential_zero_weak": {"form": "exp_inv_abs", "center": 1.5, "strength": 0.1},
}


@pytest.mark.parametrize("name", sorted(NON_SZEGO_WEIGHTS))
def test_non_szego_sum_rule_is_inapplicable(name, model_pm12, tmp_path):
    # S(mu) = -inf: the report says so before any boundary value is stripped
    factor = NON_SZEGO_WEIGHTS[name]
    mu = G.make_measure(model_pm12, G.WeightSpec.from_dict(factor), mode="relative")
    J = G.coefficients_from_measure(mu, 240, quad_order=480)
    rep = G.n_step_sum_rule(J, mu, 2)
    assert rep.status == "inapplicable"
    assert rep.entropy_mu == rep.entropy_strip == float("-inf")
    assert math.isnan(rep.rhs) and math.isnan(rep.residual)
    out = tmp_path / "o.json"
    code = cli.main([
        "--command", "sumrule", "--set", '{"alpha": -2, "beta": 2, "gaps": [[-1, 1]]}',
        "--measure", json.dumps({"mode": "relative", "factor": factor}), "--n", "2",
        "--format", "json", "--out", str(out),
    ])
    assert code == 0
    obj = json.loads(out.read_text())
    row = dict(zip(obj["columns"], obj["rows"][0]))
    assert row["status"] == "inapplicable"
    assert row["entropy_mu"] == row["entropy_strip"] == float("-inf")
    assert math.isnan(row["rhs"]) and math.isnan(row["residual"])


@pytest.mark.parametrize("name", ["interior_essential_zero", "interior_essential_zero_weak"])
def test_non_szego_theorem_is_a_validation_error(name, tmp_path, capsys):
    # an interior essential zero has no finite entropy for the bound to use,
    # however mild its node values look at one order
    measure = json.dumps({"mode": "relative", "factor": NON_SZEGO_WEIGHTS[name]})
    code = cli.main([
        "--command", "theorem", "--set", '{"alpha": -2, "beta": 2, "gaps": [[-1, 1]]}',
        "--measure", measure, "--n", "100", "--out", str(tmp_path / "o.csv"),
    ])
    assert code == 1
    assert "requires a finite entropy" in capsys.readouterr().err


def _szego_class_battery(set_, seeds):
    """(factor, Szego class) cases on set_, each seed drawing its own centres.

    Essential zeros at three strengths sit in the middle 96% of a random
    band; a double zero at the same centre, an essential zero 10-90% across
    a random gap and one off the set leave the measure in the Szego class.
    """
    diam = set_.beta - set_.alpha
    for seed in seeds:
        rng = random.Random(seed)
        lo, hi = set_.bands[rng.randrange(len(set_.bands))]
        c = lo + (hi - lo) * rng.uniform(0.02, 0.98)
        for k in (1.0, 0.1, 0.01):
            yield {"form": "exp_inv_abs", "center": c, "strength": k * (hi - lo)}, False
        yield {"form": "poly", "coef": [c * c, -2.0 * c, 1.0]}, True
        gl, gr = set_.gaps[rng.randrange(len(set_.gaps))]
        yield {"form": "exp_inv_abs", "center": gl + (gr - gl) * rng.uniform(0.1, 0.9)}, True
        yield {"form": "exp_inv_abs", "center": set_.alpha - 0.05 * diam}, True


def test_szego_class_battery(model_pm12, model_fat3):
    for model in (model_pm12, model_fat3):
        for factor, szego in _szego_class_battery(model.set, range(5)):
            mu = G.make_measure(model, G.WeightSpec.from_dict(factor), mode="relative")
            for value in (G.relative_entropy(mu), G.szego_integral(mu)):
                assert math.isfinite(value) == szego, (model.set.gaps, factor, value)


def test_interior_double_zero_entropy_oracle():
    # w = (t - 3/2)^2 relative to mu_E on [-2,-1] u [1,2]: S = log(cap^2 / int w dmu_E),
    # cap = sqrt(3)/2 and int t^2 dmu_E = 5/2 from the pull-back T(x) = (4x^2 - 10)/3
    model = G.solve_green(G.make_gapset(-2, 2, [(-1, 1)]))
    exact = 2.0 * math.log(math.sqrt(3) / 2) - math.log(4.75)
    w = G.WeightSpec("poly", {"coef": [2.25, -3.0, 1.0]})
    mu = G.make_measure(model, w)
    s = G.relative_entropy(mu)
    # orders n and 2n disagree, so the class is read at 4n as well
    s_2n = G.relative_entropy(G.make_measure(model, w, quad_order=2 * mu.quad.order))
    assert abs(s - s_2n) > 1e-9 * abs(s)
    assert math.isfinite(s) and abs(s - exact) <= 4e-3
    s_fine = G.relative_entropy(G.make_measure(model, w, quad_order=1600))
    assert abs(s_fine - exact) <= 5e-4


def test_sum_rule_entropy_is_relative_entropy(model_pm12):
    # one entropy path: S(mu) in the report is relative_entropy(mu) itself
    measures = [
        G.make_measure(model_pm12, G.WeightSpec("poly", {"coef": [1, 0, 0.3]})),
        G.make_measure(model_pm12, G.WeightSpec("const", {"value": 1.0}), mode="absolute"),
    ]
    for mu in measures:
        J = G.coefficients_from_measure(mu, 240, quad_order=480)
        rep = G.n_step_sum_rule(J, mu, 4)
        assert rep.status == "ok"
        assert rep.entropy_mu == G.relative_entropy(mu)


def _massed_measure(model):
    w = G.WeightSpec("poly", {"coef": [1, 0.5, 0.3]})
    return G.make_measure(model, w, point_masses=[(0.0, 0.1), (2.5, 0.05)])


def test_sum_rule_green_sum_is_point_mass_sum(model_pm12):
    # mu's Jacobi matrix has mu's point masses as its off-set spectrum
    mu = _massed_measure(model_pm12)
    J = G.coefficients_from_measure(mu, 240, quad_order=480)
    rep = G.n_step_sum_rule(J, mu, 4)
    assert rep.status == "ok"
    assert rep.green_sum_J == G.eigenvalue_green_sum([0.0, 2.5], model_pm12)


def test_theorem_reads_only_n_max_pairs(model_pm12):
    # the glued family reads J's first n_max rows and couplings, so J needs
    # no pairs beyond the Szego products it supplies
    mu = _massed_measure(model_pm12)
    J = G.coefficients_from_measure(mu, 100, quad_order=max(200, mu.quad.order))
    rep = G.theorem_upper_bound(J, mu, 100)
    mass_sum = G.eigenvalue_green_sum([0.0, 2.5], model_pm12)
    assert rep.bound_C >= 2.0 * mass_sum + G.pw_sum(model_pm12)
    assert rep.satisfied


def test_sum_rule_affine_invariance(j_chebyshev, mu_arcsine, model_m22):
    # push everything through t -> (t + 5) / 2 and compare residuals
    scale, shift = 0.5, 2.5
    mapped_set = G.scale_shift(model_m22.set, scale, shift)
    mapped_model = G.solve_green(mapped_set)
    mapped_mu = G.make_measure(mapped_model, None, mode="relative")
    mapped_J = G.JacobiCoeffs(scale * j_chebyshev.a, scale * j_chebyshev.b + shift)
    for n in (1, 3):
        rep = G.n_step_sum_rule(j_chebyshev, mu_arcsine, n)
        rep_m = G.n_step_sum_rule(mapped_J, mapped_mu, n)
        assert rep_m.lhs == pytest.approx(rep.lhs, abs=1e-8)
        assert rep_m.residual == pytest.approx(rep.residual, abs=1e-6)


BENCH_THEOREM = {
    "command": "theorem", "set": '{"alpha": -2, "beta": 2, "gaps": [[-1, 1]]}',
    "measure": '{"factor": {"form": "poly", "coef": [1, 0, 0.3]}}', "n": 100,
}


def test_theorem_builds_no_second_measure(monkeypatch):
    # the glued family reads m_E = -g' in closed form: J's own Lanczos run
    # is the only one, and no matrix is certified by truncation
    calls = {"coefficients_from_measure": [], "equilibrium_coefficients": [],
             "stable_gap_eigenvalues": []}
    for name, record in calls.items():
        real = getattr(G, name)

        def spy(*args, _real=real, _record=record, **kwargs):
            _record.append(args[1])
            return _real(*args, **kwargs)

        for mod in (cli, sumrule, G.jacobi):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, spy)
    cli.run(BENCH_THEOREM)
    assert calls == {"coefficients_from_measure": [100], "equilibrium_coefficients": [],
                     "stable_gap_eigenvalues": []}


def test_theorem_glued_count_sweeps(monkeypatch):
    # m_E is evaluated once per end limit and once per multisection sweep:
    # the 15 glued brackets go 5 levels deep per sweep (45 levels, one per
    # sweep, before multisection)
    sizes = []
    real = G.jacobi._m_e

    def spy(model, x):
        sizes.append(len(x))
        return real(model, x)

    monkeypatch.setattr(G.jacobi, "_m_e", spy)
    cli.run(BENCH_THEOREM)
    assert sizes[:2] == [1, 1] and len(sizes) <= 12
    assert set(sizes[2:]) == {15 * 31}


def test_theorem_heads_start_at_one_pair(model_pm12):
    # n_max < 4 samples n_max // 4 = 0; every head has at least one pair.  The
    # one-pair head has the largest glued sum, so bound_C is the same for all
    model = G.solve_green(model_pm12.set)  # the CLI's default order
    mu = G.make_measure(model, G.WeightSpec("poly", {"coef": [1, 0, 0.3]}))
    J = G.coefficients_from_measure(mu, 100)
    for n_max in range(1, 5):
        rep = G.theorem_upper_bound(J, mu, n_max)
        assert min(rep.glued_sums) == 1
        assert rep.bound_C == pytest.approx(2.4467381033708886, abs=1e-12)


def test_sum_rule_argument_validation(j_chebyshev, mu_arcsine, model_m22):
    for n in (0, len(j_chebyshev) + 1):
        with pytest.raises(ValidationError, match="out of range"):
            G.n_step_sum_rule(j_chebyshev, mu_arcsine, n)
    with pytest.raises(ValidationError, match="positive"):
        G.eigenvalue_bound_check(j_chebyshev, model_m22, [0])


def test_equilibrium_coefficients_arcsine(model_m22):
    # mu_E of [-2, 2] is the arcsine measure: a = sqrt(2), 1, 1, ... and b = 0
    J = G.equilibrium_coefficients(model_m22, 12)
    assert np.max(np.abs(J.a - np.r_[math.sqrt(2), np.ones(11)])) <= 1e-12
    assert np.max(np.abs(J.b)) <= 1e-12


def test_report_serialization():
    config = {"command": "sumrule", "set": '{"alpha": -2, "beta": 2}', "format": "json"}
    out = json.loads(cli.run(config))
    obj = dict(zip(out["columns"], out["rows"][0]))
    assert list(obj) == [f.name for f in fields(G.SumRuleReport)]
    assert obj["n"] == 1 and obj["status"] == "ok"
    assert obj["set_hash"] and obj["measure_hash"]


def test_szego_product_constant_cases(j_chebyshev, j_free, model_m22):
    u = G.szego_product(j_chebyshev, model_m22.capacity, 30)
    assert np.max(np.abs(u - math.sqrt(2))) <= 1e-10
    u0 = G.szego_product(j_free, model_m22.capacity, 30)
    assert np.max(np.abs(u0 - 1)) <= 1e-12
    with pytest.raises(ValidationError):
        G.szego_product(j_free, 1.0, 1000)


def test_szego_product_nonszego_trend(model_m22):
    # interior essential zero: u_n drifts to 0 but with a persistent
    # quasi-periodic wiggle, so the decrease is secular rather than per-step
    w = G.WeightSpec("exp_inv_abs", {"center": 0.5, "strength": 1.0})
    mu = G.make_measure(model_m22, w, mode="relative", quad_order=1600)
    J = G.coefficients_from_measure(mu, 200)
    u = G.szego_product(J, model_m22.capacity, 200)
    lu = np.log(u)
    assert lu[199] < lu[99] < lu[49]
    window_means = [np.mean(lu[i : i + 25]) for i in range(100, 176, 25)]
    assert all(b < a for a, b in zip(window_means, window_means[1:]))


def test_trailing_window():
    u = np.arange(1, 101, dtype=float)
    w = G.trailing_window(u)
    assert len(w) == 25 and w[0] == 76.0


def test_eigenvalue_bound_check_two_interval(je_pm12, model_pm12):
    rep = G.eigenvalue_bound_check(je_pm12, model_pm12, [25, 50, 100])
    assert rep.all_ok
    assert rep.base_green_sum == pytest.approx(0.0, abs=1e-10)
    assert rep.critical_sum == pytest.approx(0.5 * math.log(3), abs=1e-8)
    families = {e.family for e in rep.entries}
    assert families == {"strip", "corner", "glued"}


def test_eigenvalue_bound_check_free(j_free, model_m22):
    rep = G.eigenvalue_bound_check(j_free, model_m22, [25, 50, 100])
    assert rep.all_ok
    assert all(e.green_sum == 0.0 for e in rep.entries)
    # the glued junction is one sqrt(2) bond of the free matrix: two bound
    # states E = +-(z + 1/z) outside [-2, 2], each with g = -log z.  The
    # head's free end n sites away puts q = z^2 at the root of
    # 1 - 2q + q^(n+2) = 0 near 1/2, so the pair's sum -log q is log 2 up
    # to 2^-(n+2) (7.5e-9 at n = 25)
    exact = []
    for n in (25, 50, 100):
        q = 0.5
        for _ in range(20):
            q = (1.0 + q ** (n + 2)) / 2.0
        exact.append(-math.log(q))
    glued = [e.outside_sum for e in rep.entries if e.family == "glued"]
    assert glued == pytest.approx(exact, abs=1e-12)
    assert exact[0] == pytest.approx(math.log(2) - 2.0 ** -27, abs=1e-14)


def test_eigenvalue_bound_check_perturbed(j_perturbed, model_m22):
    rep = G.eigenvalue_bound_check(j_perturbed, model_m22, [25, 50])
    assert rep.all_ok
    assert rep.base_green_sum == pytest.approx(math.log(2.5), abs=1e-6)
    strips = [e for e in rep.entries if e.family == "strip"]
    assert all(e.green_sum == 0.0 for e in strips)


def test_theorem_upper_bound_chebyshev(j_chebyshev, mu_arcsine):
    rep = G.theorem_upper_bound(j_chebyshev, mu_arcsine, 50)
    assert rep.satisfied
    assert rep.window_max == pytest.approx(math.sqrt(2), abs=1e-10)
    assert rep.bound_Cprime >= math.sqrt(2)
    assert rep.entropy == pytest.approx(0.0, abs=1e-10)


def test_theorem_upper_bound_free(j_free, mu_semicircle):
    rep = G.theorem_upper_bound(j_free, mu_semicircle, 50)
    assert rep.satisfied
    assert rep.window_max == pytest.approx(1.0, abs=1e-12)
    assert rep.bound_Cprime >= 1.0


def test_theorem_upper_bound_perturbed(j_perturbed, model_m22):
    def w_pert(t):
        t = np.asarray(t, dtype=float)
        msc = (-t + 1j * np.sqrt(4 - t * t)) / 2
        mm = 1.0 / (2.5 - t - msc)
        return (mm.imag / np.pi) * (np.pi * np.sqrt(4 - t * t))

    mu = G.make_measure(model_m22, w_pert, point_masses=[(2.9, 0.84)])
    rep = G.theorem_upper_bound(j_perturbed, mu, 40)
    assert rep.satisfied
    assert rep.window_max == pytest.approx(1.0, abs=1e-10)  # a stays at 1
    assert rep.bound_C >= 2 * math.log(2.5)  # formula part alone


def _eval_size_reference(length, used):
    """The three-line policy each caller used to spell out, with its clamp."""
    eval_size = max(40, min((length - used) // 2, 200))
    if used + 2 * eval_size > length:
        eval_size = (length - used) // 2
    return eval_size


def test_eval_size_matches_clamped_policy():
    from gaplab.sumrule import _eval_size

    for used in (1, 20, 100):
        for length in range(used, used + 601):
            J = G.JacobiCoeffs(np.ones(length), np.zeros(length))
            want = _eval_size_reference(length, used)
            if want < 2:
                with pytest.raises(ValidationError):
                    _eval_size(J, used)
            else:
                assert _eval_size(J, used) == want, (length, used)
    short = G.JacobiCoeffs(np.ones(24), np.zeros(24))
    for used in (21, 23, 24, 30):
        with pytest.raises(ValidationError, match="too short"):
            _eval_size(short, used)
    assert _eval_size(short, 20) == 2
