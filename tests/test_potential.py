import math
import warnings

import numpy as np
import pytest

import gaplab as G
from gaplab.cli import TOLERANCES
from gaplab import potential
from gaplab.errors import NumericalError, ValidationError
from gaplab.potential import (
    _cosine_nodes,
    _g_prime,
    _deflated_numerator,
    _gap_tables,
    _period_correction,
    _period_roots,
)


# closed forms used as oracles:
#   cap([a,b]) = (b-a)/4 and g_{[-2,2]}(x) = log|(x + sqrt(x^2-4))/2|
#   for E = -[a,b] u [a,b]:  g_E(x) = g_{[a^2,b^2]}(x^2) / 2 via y = x^2
def g_interval(a, b, x):
    u = abs(2 * x - a - b) / (b - a)
    return math.log(u + math.sqrt(u * u - 1))


def g_pm(a, b, x):
    return 0.5 * g_interval(a * a, b * b, x * x)


def test_capacity_intervals():
    assert G.solve_green(G.make_gapset(-2, 2)).capacity == pytest.approx(1.0, abs=1e-10)
    assert G.solve_green(G.make_gapset(0, 1)).capacity == pytest.approx(0.25, abs=1e-10)


def test_capacity_two_intervals(model_pm12):
    assert model_pm12.capacity == pytest.approx(math.sqrt(3) / 2, abs=1e-8)


def test_green_values_interval(model_m22):
    assert G.green_value(model_m22, 2.0) == 0.0
    assert G.green_value(model_m22, 3.0) == pytest.approx(math.log((3 + math.sqrt(5)) / 2), abs=1e-8)
    assert G.green_value(model_m22, -3.0) == pytest.approx(math.log((3 + math.sqrt(5)) / 2), abs=1e-8)


def test_green_values_two_intervals(model_pm12):
    assert G.green_value(model_pm12, 0.0) == pytest.approx(0.5 * math.log(3), abs=1e-8)
    for x in (0.3, 1.7, 2.4, -2.2):
        want = g_pm(1, 2, x) if abs(x) < 1 or abs(x) > 2 else 0.0
        assert G.green_value(model_pm12, x) == pytest.approx(want, abs=1e-8)


def test_green_zero_on_all_edges(model_fat4):
    for e in model_fat4.edges:
        assert abs(G.green_value(model_fat4, e)) <= 1e-9


def test_critical_points(model_m22, model_pm12):
    assert len(G.critical_points(model_m22)) == 0
    assert G.critical_points(model_pm12) == pytest.approx([0.0], abs=1e-12)
    m1 = G.solve_green(G.fat_cantor(1))
    assert G.critical_points(m1) == pytest.approx([0.5], abs=1e-12)


def test_critical_points_inside_gaps(model_fat4):
    for c, (lo, hi) in zip(model_fat4.critical_points, model_fat4.set.gaps):
        assert lo < c < hi


def test_period_conditions(model_fat4):
    assert np.max(np.abs(G.period_residuals(model_fat4))) <= 1e-10


def test_deep_cantor_level_solves():
    # level 8 stresses everything at once: 255 clustered gaps, numerator
    # values near 1e-160, and gap edges that coincide exactly with other
    # gaps' dyadic midpoints
    m7 = G.solve_green(G.fat_cantor(7))
    m8 = G.solve_green(G.fat_cantor(8))
    assert np.max(np.abs(G.period_residuals(m8))) <= 1e-10
    assert 0 < m8.capacity < m7.capacity
    assert G.pw_sum(m8) > G.pw_sum(m7)
    for c, (lo, hi) in zip(m8.critical_points, m8.set.gaps):
        assert lo < c < hi


def test_fat_cantor_level_9_solves():
    # 1022 edges: the gap weights 1/sqrt|R| leave double range, so they stay
    # logs and meet log|P| only inside one exponent
    m8 = G.solve_green(G.fat_cantor(8))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        m9 = G.solve_green(G.fat_cantor(9))
        assert np.max(np.abs(G.period_residuals(m9))) <= 1e-10
        assert 0 < m9.capacity < m8.capacity
        assert G.pw_sum(m9) > G.pw_sum(m8)
    for c, (lo, hi) in zip(m9.critical_points, m9.set.gaps):
        assert lo < c < hi


def test_pw_sums(model_m22, model_pm12):
    assert G.pw_sum(model_m22) == 0.0
    assert G.pw_sum(model_pm12) == pytest.approx(0.5 * math.log(3), abs=1e-8)
    assert G.pw_sum(G.solve_green(G.fat_cantor(1))) == pytest.approx(0.5 * math.log(5 / 3), abs=1e-8)


def test_gap_area_identity(model_pm12):
    c = model_pm12.critical_points[0]
    assert G.gap_derivative_l1(model_pm12, 0) == pytest.approx(
        2 * G.green_value(model_pm12, c), abs=1e-10
    )


def test_equilibrium_density_interval(model_m22):
    assert G.equilibrium_density(model_m22, 0.0) == pytest.approx(1 / (2 * math.pi), abs=1e-12)
    assert G.equilibrium_density(model_m22, 1.0) == pytest.approx(1 / (math.pi * math.sqrt(3)), abs=1e-12)


def test_equilibrium_density_symmetry(model_pm12):
    for t in (1.2, 1.5, 1.9):
        assert G.equilibrium_density(model_pm12, t) == pytest.approx(
            G.equilibrium_density(model_pm12, -t), rel=1e-12
        )


def test_equilibrium_density_two_interval_closed_form(model_pm12):
    # pushforward through y = t^2: f_E(t) = |t| / (pi sqrt((t^2-1)(4-t^2)))
    mu = G.make_measure(model_pm12)
    for t in (1.2, 1.5, 1.9, -1.35):
        want = abs(t) / (math.pi * math.sqrt((t * t - 1) * (4 - t * t)))
        assert G.equilibrium_density(model_pm12, t) == pytest.approx(want, abs=1e-10)
        mb = G.measure_m_boundary(mu, t)
        assert mb.imag == pytest.approx(math.pi * want, abs=1e-9)


def test_equilibrium_density_domain_errors(model_pm12):
    with pytest.raises(ValidationError):
        G.equilibrium_density(model_pm12, 0.0)  # gap point
    with pytest.raises(ValidationError):
        G.equilibrium_density(model_pm12, 2.0)  # edge


def test_equilibrium_quadrature_moments(model_m22, model_pm12, model_fat3):
    for model in (model_m22, model_pm12, model_fat3):
        quad = G.equilibrium_quadrature(model, 200)
        assert np.sum(quad.all_weights) == pytest.approx(1.0, abs=1e-10)
        assert G.equilibrium_quadrature(model, model.quad_order) is model.quad
    q22 = G.equilibrium_quadrature(model_m22, 200)
    assert q22.integrate(lambda t: t * t) == pytest.approx(2.0, abs=1e-8)
    qpm = G.equilibrium_quadrature(model_pm12, 200)
    assert qpm.integrate(lambda t: t) == pytest.approx(0.0, abs=1e-10)


def test_equilibrium_m_boundary_interval(model_m22):
    mu = G.make_measure(model_m22)
    for t, want in ((0.0, 0.5j), (1.0, 1j / math.sqrt(3))):
        got = G.measure_m_boundary(mu, t)
        assert abs(got.real) <= 1e-6
        assert got.imag == pytest.approx(want.imag, abs=1e-10)


def test_reflectionless_on_bands(model_pm12, model_fat3):
    for model in (model_pm12, model_fat3):
        mu = G.make_measure(model)
        for lo, hi in model.set.bands:
            for i in range(10):
                t = lo + (hi - lo) * (i + 0.5) / 10
                mb = G.measure_m_boundary(mu, t)
                assert abs(mb.real) / mb.imag <= 1e-4
                assert mb.imag == pytest.approx(math.pi * G.equilibrium_density(model, t), abs=1e-8)


def test_gap_stieltjes_matches_green_derivative(model_pm12):
    # in a gap, m_E(x) = -g'(x); for the symmetric two-interval set the
    # square-map pushforward gives the closed form m_E(x) = x * m_[1,4](x^2)
    h = 1e-6
    for x in (0.35, -0.6, 0.85):
        dg = (G.green_value(model_pm12, x + h) - G.green_value(model_pm12, x - h)) / (2 * h)
        want = (x * G.interval_stieltjes(1, 4, x * x)).real
        assert -dg == pytest.approx(want, abs=1e-6)


def test_interval_stieltjes_branches():
    m3 = G.interval_stieltjes(-2, 2, 3.0)
    assert m3.real == pytest.approx(-1 / math.sqrt(5), abs=1e-14)
    mi = G.interval_stieltjes(-2, 2, 1j)
    assert mi.imag > 0
    mneg = G.interval_stieltjes(-2, 2, -3.0)
    assert mneg.real == pytest.approx(1 / math.sqrt(5), abs=1e-14)


def cubic_preimage_set(shift=0.3, c=1.5):
    """E = T^{-1}([-c, c]) for T(x) = x^3 - 3x + shift: an asymmetric
    three-band set with closed-form potential theory (cap = (c/2)^(1/3),
    g_E = g_[-c,c] o T / 3, critical points at T' = 0)."""
    lower = np.sort(np.roots([1.0, 0.0, -3.0, shift + c]).real)
    upper = np.sort(np.roots([1.0, 0.0, -3.0, shift - c]).real)
    edges = np.sort(np.concatenate([lower, upper]))
    gaps = [(edges[1], edges[2]), (edges[3], edges[4])]
    return G.make_gapset(edges[0], edges[5], gaps)


def test_cubic_preimage_oracles():
    shift, c = 0.3, 1.5
    T = lambda x: x**3 - 3 * x + shift
    s = cubic_preimage_set(shift, c)
    model = G.solve_green(s, quad_order=240)
    assert model.capacity == pytest.approx((c / 2) ** (1 / 3), abs=1e-8)
    # Green's function transported through T
    for x in (3.0, -2.4, 0.5 * (s.gaps[0][0] + s.gaps[0][1]), 0.987 * s.gaps[1][0] + 0.013 * s.gaps[1][1]):
        want = g_interval(-c, c, T(x)) / 3 if abs(T(x)) > c else 0.0
        assert G.green_value(model, x) == pytest.approx(want, abs=1e-8)
    # critical points of g sit at the critical points of T (x = +/-1)
    assert np.sort(model.critical_points) == pytest.approx([-1.0, 1.0], abs=1e-9)
    assert G.pw_sum(model) == pytest.approx(
        (g_interval(-c, c, T(-1.0)) + g_interval(-c, c, T(1.0))) / 3, abs=1e-8
    )
    # exact pushforward moments: sums of preimage roots give 0 and 6 at
    # every base point, so the first two equilibrium moments are 0 and 2
    quad = G.equilibrium_quadrature(model, 240)
    assert quad.integrate(lambda t: t) == pytest.approx(0.0, abs=1e-9)
    assert quad.integrate(lambda t: t * t) == pytest.approx(2.0, abs=1e-8)


def test_capacity_narrow_bands():
    # [0, 0.01] u [0.99, 1] centered: +/-[0.49, 0.5], cap = sqrt(0.5^2 - 0.49^2)/2
    s = G.make_gapset(0.0, 1.0, [(0.01, 0.99)])
    model = G.solve_green(s, quad_order=240)
    assert model.capacity == pytest.approx(math.sqrt(0.5**2 - 0.49**2) / 2, abs=1e-9)



@pytest.mark.parametrize("eps, bound", [(1e-6, 1e-10), (1e-7, 1e-9), (1e-8, 1e-8)])
def test_capacity_tiny_outer_bands(eps, bound):
    # [0, eps] u [1 - eps, 1]: the Robin probe's ray from beta meets the branch
    # point of the edge at beta - eps, so its rule is sized by eps, not by the
    # band order, which left 2e-3 at eps = 1e-8
    model = G.solve_green(G.make_gapset(0.0, 1.0, [(eps, 1.0 - eps)]))
    want = math.sqrt(eps - eps * eps) / 2
    assert abs(model.capacity - want) <= bound * want

def test_affine_covariance(model_pm12):
    scale, shift = 0.5, 3.0
    mapped = G.solve_green(G.scale_shift(model_pm12.set, scale, shift), quad_order=240)
    assert mapped.capacity == pytest.approx(scale * model_pm12.capacity, abs=1e-8)
    for x in (0.4, 2.6, -2.3):
        assert G.green_value(mapped, scale * x + shift) == pytest.approx(
            G.green_value(model_pm12, x), abs=1e-8
        )


def test_green_monotone_under_set_inclusion():
    # smaller set (higher level) has the larger Green's function
    m3, m5 = G.solve_green(G.fat_cantor(3)), G.solve_green(G.fat_cantor(5))
    for x in (-0.5, 1.25, 2.0):
        assert G.green_value(m5, x) >= G.green_value(m3, x) - 1e-8


@pytest.fixture(scope="module")
def model_fat3_explicit():
    return G.solve_green(G.fat_cantor(3), quad_order=64)


@pytest.mark.parametrize("name", ["model_pm12", "model_fat4", "model_fat3_explicit"],
                         ids=["pm12", "fat4_default", "fat3_explicit"])
def test_model_json_round_trip(name, request):
    model = request.getfixturevalue(name)
    rebuilt = G.model_from_json(G.model_to_json(model))
    assert rebuilt.capacity == pytest.approx(model.capacity, abs=1e-12)
    for x in (0.2, 2.5, -3.0):
        assert G.green_value(rebuilt, x) == pytest.approx(G.green_value(model, x), abs=1e-12)
    # the same gap rules, roots and solve diagnostics, hence the same residuals
    assert rebuilt.gap_orders == model.gap_orders
    assert (rebuilt.solve_passes, rebuilt.root_move) == (model.solve_passes, model.root_move)
    assert np.array_equal(rebuilt.critical_points, model.critical_points)
    assert np.array_equal(G.period_residuals(rebuilt), G.period_residuals(model))


def test_gap_orders_default_and_explicit(model_pm12, model_fat4, model_fat3_explicit):
    # an explicit quad_order sets every gap and band; the default sizes each
    # gap from the Bernstein ellipse through its nearest foreign edge
    for model, order in ((model_pm12, 240), (model_fat3_explicit, 64)):
        assert model.quad_order == order
        assert model.gap_orders == (order,) * len(model.set.gaps)
        assert {len(t) for t in model._gap_nodes} == {order}
    m8 = G.solve_green(G.fat_cantor(8))
    for model in (model_fat4, m8):
        bands = model.set.bands
        want = []
        for j, (lo, hi) in enumerate(model.set.gaps):
            r = (hi - lo) / 2
            a = 1 + min(bands[j][1] - bands[j][0], bands[j + 1][1] - bands[j + 1][0]) / r
            n = math.ceil(math.log(1e15) / (2 * math.log(a + math.sqrt(a * a - 1))))
            want.append(min(max(n, 32), 1024))
        assert model.gap_orders == tuple(want)
        assert [len(t) for t in model._gap_nodes] == want
    # the level-1 gap of level 8 sits next to bands ~2e-3 long and needs
    # more than the band order; the level-8 gaps need only the floor
    assert m8.gap_orders[127] > m8.quad_order == 80
    assert min(m8.gap_orders) == 32
    assert 2 <= m8.solve_passes < 6 and m8.root_move <= 1e-14 * m8.set.diameter


def test_solver_validation():
    with pytest.raises(ValidationError):
        G.solve_green(G.make_gapset(-2, 2), quad_order=16)


SCALE_SWEEP_SETS = {
    "interval": G.make_gapset(-2, 2),
    "two_band": G.make_gapset(-2, 2, [(-1, 1)]),
    "fat_cantor2": G.fat_cantor(2),
}


@pytest.mark.parametrize("name", sorted(SCALE_SWEEP_SETS))
def test_scale_sweep_covariance(name):
    # capacity scales linearly and g (hence pw_sum) is invariant under
    # x -> scale*x + shift, at every scale the Robin probe has to follow
    s = SCALE_SWEEP_SETS[name]
    base = G.solve_green(s)
    base_pw = G.pw_sum(base)
    for k in (-12, -8, -4, 0, 4, 8, 12):
        scale = 10.0**k
        for shift in (0.0, 0.37 * scale):
            mapped = G.solve_green(G.scale_shift(s, scale, shift))
            assert abs(mapped.capacity / (scale * base.capacity) - 1.0) <= 1e-12, (k, shift)
            assert G.pw_sum(mapped) == pytest.approx(base_pw, abs=1e-12), (k, shift)


def _explicit_parts(x, anchors):
    """B = prod_k (x - m_k) and every B_i = prod_{k != i}(x - m_k), as direct products."""
    d = x[:, None] - anchors[None, :]
    bi = np.stack([np.prod(np.delete(d, i, axis=1), axis=1) for i in range(len(anchors))], axis=1)
    return np.prod(d, axis=1), bi


def test_numerator_sign_matches_explicit_form(model_fat4):
    # the root step's deflated f_j = P/B_j times B_j against the explicit
    # P = B + sum_i delta_i B_i, on a grid holding every anchor and every
    # gap edge, for every gap j whose B_j has no zero at the grid point
    s = model_fat4.set
    anchors = np.array([(lo + hi) / 2 for lo, hi in s.gaps])
    delta = _period_correction(anchors, model_fat4._gap_nodes, model_fat4._gap_log_weights)
    assert np.any(delta != 0.0)
    x = np.unique(np.concatenate([anchors, s.edges, np.linspace(s.alpha, s.beta, 1001)]))
    bfull, bi = _explicit_parts(x, anchors)
    explicit = bfull + bi @ delta
    live = explicit != 0.0
    assert np.all(np.isin(anchors, x[live]))
    for j, (lo, hi) in enumerate(s.gaps):
        ok = live & ~np.isin(x, np.delete(anchors, j))
        f, _ = _deflated_numerator(x[ok], np.full(int(ok.sum()), j), anchors, delta)
        assert np.array_equal(np.sign(f) * np.sign(bi[ok, j]), np.sign(explicit[ok]))
        # on the gap's closure, where the root step uses it, the values agree too
        on_gap = (x[ok] >= lo) & (x[ok] <= hi)
        assert np.any(on_gap)
        assert f[on_gap] * bi[ok, j][on_gap] == pytest.approx(explicit[ok][on_gap], rel=1e-12)
    # the deflated rows solve the explicit period conditions of both passes
    for anchors, delta in _root_step_inputs(s):
        for t, log_w in zip(model_fat4._gap_nodes, model_fat4._gap_log_weights):
            bfull, bi = _explicit_parts(t, anchors)
            terms = np.exp(log_w)[:, None] * np.column_stack([bfull, bi * delta])
            assert abs(np.sum(terms)) <= 1e-12 * np.sum(np.abs(terms))


@pytest.mark.parametrize("level", range(1, 9))
def test_ladder_period_residual_and_gap_roots(level):
    model = G.solve_green(G.fat_cantor(level))
    assert np.max(np.abs(G.period_residuals(model))) <= TOLERANCES["period_residual"]
    for c, (lo, hi) in zip(model.critical_points, model.set.gaps):
        assert lo < c < hi


ASYMMETRIC = G.make_gapset(0, 1, [(0.1, 0.35), (0.6, 0.65)])


def test_period_residual_gate(monkeypatch):
    model = G.solve_green(ASYMMETRIC)
    assert np.max(np.abs(G.period_residuals(model))) > 0.0
    monkeypatch.setitem(potential.TOLERANCES, "period_residual", 0.0)
    with pytest.raises(NumericalError, match="period residual"):
        G.solve_green(ASYMMETRIC)


def test_quadrature_mass_gate(monkeypatch):
    model = G.solve_green(ASYMMETRIC)
    assert np.sum(model.quad.all_weights) != 1.0
    monkeypatch.setitem(potential.TOLERANCES, "quadrature_mass", 0.0)
    with pytest.raises(NumericalError, match="equilibrium weights sum"):
        G.solve_green(ASYMMETRIC)


def _two_factor_g_prime(t, roots, edges, skip):
    """P and 1/sqrt|R| formed as two separate exps, then multiplied."""
    keep = np.ones(len(edges), dtype=bool)
    keep[list(skip)] = False
    d = t[:, None] - roots[None, :]
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        p = np.prod(np.sign(d), axis=1) * np.exp(np.sum(np.log(np.abs(d)), axis=1))
        logr = np.sum(np.log(np.abs(t[:, None] - edges[keep][None, :])), axis=1)
        return p * np.exp(-0.5 * logr)


@pytest.mark.parametrize("level", [6, 9])
def test_g_prime_single_exp_at_band_nodes(level):
    # the band-rule values with roots at the gap midpoints: at level 9 the
    # two factors over- and underflow at most nodes, their quotient does not
    s = G.fat_cantor(level)
    roots = np.array([(lo + hi) / 2 for lo, hi in s.gaps])
    failed = total = 0
    for k, (lo, hi) in enumerate(s.bands):
        skip = (2 * k, 2 * k + 1)
        t = _cosine_nodes(lo, hi, 80)
        got = _g_prime(t, roots, s.edges, skip)
        assert np.all(np.isfinite(got)) and np.all(got != 0.0)
        old = _two_factor_g_prime(t, roots, s.edges, skip)
        ok = np.isfinite(old) & (old != 0.0)
        failed += int(np.sum(~ok))
        total += len(t)
        if level == 6:
            assert np.all(ok)
            assert np.max(np.abs(got / old - 1.0)) <= 1e-13
    if level == 9:
        assert failed > total // 2


def test_g_prime_edge_collision_and_roots():
    edges = np.array([0.0, 1.0])
    with pytest.raises(NumericalError, match="collided"):
        _g_prime(np.array([0.5, 1.0]), [0.5], edges)
    assert _g_prime(np.array([0.5]), [0.5], edges)[0] == 0.0
    assert _g_prime(np.array([2.0]), [], ())[0] == 1.0


def _bisection_roots(gaps, anchors, delta):
    """The former root step: 60 halvings per gap on the sign of
    P = B (1 + sum_i delta_i/(x - m_i)); at x = m_i only delta_i B_i survives."""

    def sign(x):
        d = x[:, None] - anchors[None, :]
        zero = d == 0.0
        sign_b = np.prod(np.where(zero, 1.0, np.sign(d)), axis=1)
        corr = 1.0 + np.sum(delta / np.where(zero, np.inf, d), axis=1)
        hit = np.sum(np.where(zero, delta, 0.0), axis=1)
        return sign_b * np.where(zero.any(axis=1), np.sign(hit), np.sign(corr))

    x1, x2 = np.array(gaps, dtype=float).T
    sa = sign(x1) > 0
    for _ in range(60):
        mid = 0.5 * (x1 + x2)
        fm = sign(mid)
        left = (fm == 0.0) | ((fm > 0) != sa)
        x2 = np.where(left, mid, x2)
        x1 = np.where(left, x1, mid)
    return 0.5 * (x1 + x2)


def _root_step_inputs(s):
    """Anchors and corrections of both solve passes: gap midpoints, then their roots."""
    gap_nodes, gap_log_weights = _gap_tables(s, potential._gap_orders(s))
    anchors = np.array([(lo + hi) / 2 for lo, hi in s.gaps])
    delta = _period_correction(anchors, gap_nodes, gap_log_weights)
    yield anchors, delta
    anchors = _period_roots(s.gaps, anchors, delta)
    yield anchors, _period_correction(anchors, gap_nodes, gap_log_weights)


@pytest.mark.parametrize("s", [G.fat_cantor(level) for level in range(1, 9)] + [ASYMMETRIC],
                         ids=[f"fat_cantor{level}" for level in range(1, 9)] + ["asymmetric"])
def test_period_roots_match_bisection(s, monkeypatch):
    calls = []
    deflated = potential._deflated_numerator

    def counted(*args):
        calls.append(1)
        return deflated(*args)

    monkeypatch.setattr(potential, "_deflated_numerator", counted)
    for anchors, delta in _root_step_inputs(s):
        want = _bisection_roots(s.gaps, anchors, delta)
        calls.clear()
        got = _period_roots(s.gaps, anchors, delta)
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
        # both bracket ends, then a few Newton sweeps (1-3 measured)
        assert len(calls) <= 2 + 5


@pytest.mark.parametrize("s", [G.fat_cantor(4), ASYMMETRIC], ids=["fat_cantor4", "asymmetric"])
def test_period_roots_bisect_when_newton_leaves_bracket(s, monkeypatch):
    # a derivative 1e20 too small sends every Newton step out of its bracket,
    # so each sweep falls back to the midpoint
    inputs = list(_root_step_inputs(s))
    want = [_period_roots(s.gaps, a, d) for a, d in inputs]
    calls = []
    deflated = potential._deflated_numerator

    def too_far(*args):
        calls.append(1)
        f, fp = deflated(*args)
        return f, fp * 1e-20

    monkeypatch.setattr(potential, "_deflated_numerator", too_far)
    for (anchors, delta), ref in zip(inputs, want):
        calls.clear()
        got = _period_roots(s.gaps, anchors, delta)
        assert len(calls) > 30  # halvings, not Newton's few sweeps
        for c, (lo, hi) in zip(got, s.gaps):
            assert lo < c < hi
        assert np.all(np.abs(got - ref) <= 4 * np.spacing(np.abs(ref)))


def test_period_roots_unconverged_is_an_error(monkeypatch):
    monkeypatch.setattr(potential, "_ROOT_SWEEPS", 1)
    with pytest.raises(NumericalError, match="did not converge"):
        G.solve_green(ASYMMETRIC)


@pytest.mark.parametrize("level", range(1, 9))
def test_gap_orders_match_order_240(level):
    s = G.fat_cantor(level)
    ref = G.solve_green(s, quad_order=240)
    model = G.solve_green(s)
    assert model.capacity == pytest.approx(ref.capacity, rel=1e-14, abs=0)
    assert G.pw_sum(model) == pytest.approx(G.pw_sum(ref), rel=1e-14, abs=0)
    assert np.max(np.abs(model.critical_points - ref.critical_points)) <= 1e-15


def _chebyshev_preimage(rng, d):
    """A random T of degree d with |T| > 2 at every critical point, and
    E = T^{-1}([-2, 2]): d bands whose gaps hold the zeros of T'."""
    while True:
        zeros = np.sort(rng.uniform(-1.0, 1.0, d))
        if np.min(np.diff(zeros)) > 0.05:
            break
    monic = np.poly(zeros)
    crit = np.sort(np.roots(np.polyder(monic)).real)
    lead = rng.uniform(1.05, 4.0) * 2.0 / np.min(np.abs(np.polyval(monic, crit)))
    T = lead * monic
    edges = []
    for level in (-2.0, 2.0):
        shifted = T.copy()
        shifted[-1] -= level
        x = np.sort(np.roots(shifted).real)
        for _ in range(3):  # Newton polish to the last bits
            x = x - np.polyval(shifted, x) / np.polyval(np.polyder(shifted), x)
        edges.extend(x)
    edges = np.sort(edges)
    s = G.make_gapset(edges[0], edges[-1], list(zip(edges[1:-1:2], edges[2:-1:2])))
    return T, s, crit


@pytest.mark.parametrize("d", range(2, 7))
def test_polynomial_preimage_battery(d):
    # E = T^{-1}([-2, 2]): cap = |lead T|^(-1/d), the critical points of g are
    # the zeros of T', and g(x) = acosh(|T(x)|/2)/d in the gaps
    rng = np.random.default_rng(1000 + d)
    for _ in range(4):
        T, s, crit = _chebyshev_preimage(rng, d)
        model = G.solve_green(s)
        assert model.capacity == pytest.approx(abs(T[0]) ** (-1.0 / d), rel=1e-12, abs=0)
        assert np.max(np.abs(model.critical_points - crit)) <= 1e-12
        green = lambda x: math.acosh(abs(np.polyval(T, x)) / 2) / d
        assert G.pw_sum(model) == pytest.approx(sum(map(green, crit)), rel=1e-12, abs=0)
        for lo, hi in s.gaps:
            for x in (lo + 0.01 * (hi - lo), 0.5 * (lo + hi), hi - 0.3 * (hi - lo)):
                assert G.green_value(model, x) == pytest.approx(green(x), rel=1e-11, abs=1e-14)
