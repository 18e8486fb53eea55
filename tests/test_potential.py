import dataclasses
import functools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import gaplab as G
from gaplab.cli import TOLERANCES
from gaplab import cli, potential
from gaplab.errors import NumericalError, ValidationError
from gaplab.realset import edge_slots
from gaplab.potential import (
    _cos_points,
    _g_prime,
    _deflated_numerator,
    _log_sums,
    _m_e,
    _pass_samples,
    _pass_weights,
    _period_correction,
    _period_roots,
)


def _cosine_nodes(lo, hi, order):
    """t = c + r cos(theta_i) over [lo, hi], theta_i = (i + 1/2) pi/order: the kernel's nodes."""
    return (lo + hi) / 2 + (hi - lo) / 2 * _cos_points(order)


def _direct_log_sum(x, roots, edges):
    """sum_k coef_k log|x - s_k| over the roots (coef 1) and edges (coef -1/2) at each x,
    summed here in the order given, and the sum of the terms' magnitudes: the oracle
    the kernels are read against."""
    src = np.concatenate([np.asarray(roots, dtype=float), np.asarray(edges, dtype=float)])
    coef = np.r_[np.ones(len(roots)), np.full(len(edges), -0.5)]
    with np.errstate(divide="ignore"):
        terms = coef * np.log(np.abs(x[:, None] - src))
    return terms.sum(axis=1), np.abs(terms).sum(axis=1)


# closed forms used as oracles:
#   cap([a,b]) = (b-a)/4 and g_{[-2,2]}(x) = log|(x + sqrt(x^2-4))/2|
#   for E = -[a,b] u [a,b]:  g_E(x) = g_{[a^2,b^2]}(x^2) / 2 via y = x^2
def interval_stieltjes(alpha, beta, x):
    """Stieltjes transform of the arcsine measure of [alpha, beta]:
    -1/sqrt((x - alpha)(x - beta)), Herglotz off the axis, negative right of beta."""
    return -1.0 / (np.sqrt(complex(x - alpha)) * np.sqrt(complex(x - beta)))


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
    assert len(model_m22.critical_points) == 0
    assert model_pm12.critical_points == pytest.approx([0.0], abs=1e-12)
    m1 = G.solve_green(G.fat_cantor(1))
    assert m1.critical_points == pytest.approx([0.5], abs=1e-12)


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


LD_PI = 4 * np.arctan(np.longdouble(1))


def _series_reference(model, j):
    """g on gap j from a test-local long-double series: the integrand
    +-|g'| r sin(theta) at exact angles and twice the model's series order,
    its cosine coefficients by direct sums, and their termwise integral
    from the edge on x's side of c_j."""
    ld = np.longdouble
    lo, hi = model.set.gaps[j]
    n = 2 * int(model._gap_series[0][j])
    c, r = (ld(lo) + ld(hi)) / 2, (ld(hi) - ld(lo)) / 2
    m, theta = np.arange(n, dtype=ld), (np.arange(n, dtype=ld) + ld(0.5)) * LD_PI / n
    t = c + r * np.cos(theta)
    roots, edges = model.critical_points.astype(ld), np.delete(model.edges, [2 * j + 1, 2 * j + 2]).astype(ld)
    log_f = np.log(np.abs(t[:, None] - roots)).sum(axis=1) - np.log(np.abs(t[:, None] - edges)).sum(axis=1) / 2
    a = 2 / ld(n) * (np.cos(np.outer(m, theta)) @ (np.where(t > roots[j], ld(1), ld(-1)) * np.exp(log_f)))
    a[0] /= 2

    def g(x):
        th = np.arccos(np.clip((ld(x) - c) / r, -1, 1))
        at = a[0] * th + np.sum(a[1:] / m[1:] * np.sin(m[1:] * th))
        return abs(at) if x >= model.critical_points[j] else abs(at - a[0] * LD_PI)

    return g


def _ray_reference(model, side):
    """g within one diameter of alpha (side 0) or beta (side 1) from a
    test-local long-double series: the ray integrand 2|g'|s under
    t = e -/+ s^2, s = sqrt(diam) sin^2(theta/2), at exact angles and twice
    the model's series order, its cosine coefficients by direct sums, and
    their termwise integral against ds from the edge."""
    ld, s = np.longdouble, model.set
    own = len(model.critical_points) + (len(model.edges) - 1 if side else 0)
    n = 2 * len(potential._ray_series(s, model.critical_points, side))
    e, diam = ld((s.alpha, s.beta)[side]), ld(s.diameter)
    m, theta = np.arange(n, dtype=ld), (np.arange(n, dtype=ld) + ld(0.5)) * LD_PI / n
    src = np.delete(np.concatenate([model.critical_points, model.edges]), own).astype(ld)
    coef = np.where(np.arange(len(src)) < len(model.critical_points), ld(1), ld(-0.5))
    log_f = (np.log(np.abs(e - src) + diam * np.sin(theta[:, None] / 2) ** 4) * coef).sum(axis=1)
    a = np.append(2 / ld(n) * (np.cos(np.outer(m, theta)) @ (2 * np.exp(log_f))), [ld(0), ld(0)])
    c = np.sqrt(diam) * (a[:-2] - a[2:]) / (2 * (m + 1))

    def g(x):
        half = np.arcsin(np.sqrt(np.sqrt(abs(ld(x) - e) / diam)))
        return np.sum(c * np.sin((m + 1) * half) ** 2)

    return g


def _green_reference(model, x, series, rays):
    """g at one point: robin plus the band rule's log potential one diameter
    or more outside [alpha, beta], rays[side](x) nearer, else series[j](x) in
    gap j, else zero."""
    s = model.set
    if max(s.alpha - x, x - s.beta) >= s.diameter:
        quad = G.make_measure(model).quad
        t, w = np.concatenate(quad.nodes), quad.all_weights
        return float(model.robin + np.sum(w * np.log(np.abs(x - t))) / np.sum(w))
    if x < s.alpha or x > s.beta:
        return rays[x > s.beta](x)
    j = _gap_of(model, x)
    return 0.0 if j is None else series[j](x)


def _gap_of(model, x):
    return next((j for j, (lo, hi) in enumerate(model.set.gaps) if lo < x < hi), None)


# relative error of g in a gap against the long-double series
ARC_REL_ERROR = 2.5e-14


@pytest.mark.parametrize("name", ["model_pm12", "model_fat3", "model_fat8"])
def test_green_value_array_matches_per_point(name, request):
    # unsorted points in gaps and bands, on edges, repeated, and on both
    # sides of [alpha, beta] out to 1e300 diameters (several far-field chunks),
    # in one call, bit for bit against each point alone, and exactly zero on
    # the set; in the gaps and on the rays within ARC_REL_ERROR of the
    # long-double series, and one diameter or more out of the band rule's
    # log potential plus robin
    model = request.getfixturevalue(name)
    s = model.set
    rng = np.random.default_rng(14)
    pts = np.concatenate([
        rng.uniform(s.alpha - 1.0, s.beta + 1.0, 300),
        [lo + (hi - lo) * f for lo, hi in s.gaps for f in (0.01, 0.5, 0.99)],
        model.critical_points, s.edges, s.edges[:3], [s.beta + 2.0, s.beta + 2.0],
        s.alpha - s.diameter * np.geomspace(1.0, 1e300, 100),
        s.beta + s.diameter * np.geomspace(1.0, 1e300, 100),
    ])
    rng.shuffle(pts)
    got = G.green_value(model, pts)
    assert got.tobytes() == np.array([G.green_value(model, x) for x in pts.tolist()]).tobytes()
    series = [_series_reference(model, j) for j in range(len(s.gaps))]
    rays = [_ray_reference(model, side) for side in (0, 1)]
    for x, g in zip(pts.tolist(), got.tolist()):
        want = _green_reference(model, x, series, rays)
        if _gap_of(model, x) is None and s.alpha <= x <= s.beta:
            assert g == want == 0.0, x
        else:
            assert abs(g - want) <= ARC_REL_ERROR * want, x
    assert np.count_nonzero(got) > 100
    for i in (0, 1, 2):
        assert G.green_value(model, pts[i : i + 1].reshape(())) == got[i]
    assert G.green_value(model, np.array([])).shape == (0,)


@pytest.mark.parametrize("name", ["model_fat8", "model_julia_4_8"])
def test_rays_match_long_double_on_255_gaps(name, request):
    # both rays' double samples, one log of one ratio per gap, against the
    # long-double series from 1e-12 to 0.999 diameters out, within
    # ARC_REL_ERROR (worst 2.3e-15 on fat_cantor(8), 2.0e-15 on Julia)
    model = request.getfixturevalue(name)
    s = model.set
    dist = s.diameter * np.geomspace(1e-12, 0.999, 200)
    for side, xs in enumerate((s.alpha - dist, s.beta + dist)):
        ref = _ray_reference(model, side)
        for x, g in zip(xs.tolist(), G.green_value(model, xs).tolist()):
            assert abs(g - ref(x)) <= ARC_REL_ERROR * ref(x), x


def _acosh1p(u):
    """acosh(1 + u) in long double, accurate for small u > 0."""
    return np.log1p(u + np.sqrt(u * (u + 2)))


@pytest.mark.parametrize("name", ["model_m22", "model_pm12"])
def test_green_value_ray_closed_forms(name, request):
    # one ray series per side, against acosh(|x|/2) and
    # acosh(|4x^2 - 10|/6)/2 in long double, from 1e-12 to 0.999 diameters
    # out; the sin^2 form keeps the relative accuracy next to the edge
    model = request.getfixturevalue(name)
    dist = model.set.diameter * np.geomspace(1e-12, 0.999, 400)
    xs = np.concatenate([model.set.alpha - dist, model.set.beta + dist])
    d = np.abs(xs.astype(np.longdouble)) - 2  # both edges at +-2
    want = _acosh1p(d / 2) if name == "model_m22" else _acosh1p(2 * d * (d + 4) / 3) / 2
    err = np.abs(G.green_value(model, xs) / want - 1)
    assert float(np.max(err)) <= 1e-15, xs[np.argmax(err)]


@pytest.mark.parametrize("name", ["model_m22", "model_pm12"])
def test_green_value_far_field_closed_forms(name, request):
    # from one diameter out (x = +-6) to +-1e300, against acosh, or log|x| +
    # log(2/sqrt(3)) where 4x^2 overflows; an edge ray that long loses digits
    model = request.getfixturevalue(name)
    xs = np.array([6.0 * 10.0**k for k in range(0, 301, 4)] + [1e300])
    xs = np.concatenate([xs, -xs])
    for x, g in zip(xs.tolist(), G.green_value(model, xs).tolist()):
        if name == "model_m22":
            want = math.acosh(abs(x) / 2)
        elif abs(x) < 1e150:
            want = 0.5 * math.acosh(abs(4 * x * x - 10) / 6)
        else:
            want = math.log(abs(x)) + 0.5 * math.log(4 / 3)
        assert abs(g - want) <= 2e-15 * want, x


@pytest.mark.parametrize("alpha, beta, xs", [
    (-1e308, 0.0, [1e308, 1.5e308]), (-1e308, -5e307, [0.0, 1.7e308]),
    (-1e-300, 1e-300, [1e10, -1e300, 1.7e308]),
])
def test_green_value_near_the_float_range(alpha, beta, xs):
    # far points on intervals whose distances to x reach 1e308, or whose
    # |x - e|/diam passes it, read acosh of the affine image, formed from
    # halves, with no warning; the band-rule potential read inf with an
    # overflow warning at the three points past 1e308 on the first two
    # sets, and 6.0e-14 off at 0
    model = G.solve_green(G.make_gapset(alpha, beta, []))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = G.green_value(model, np.array(xs))
    for x, g in zip(xs, got.tolist()):
        num, den = abs(0.5 * x - 0.25 * (alpha + beta)), 0.25 * (beta - alpha)
        want = math.acosh(num / den) if num / den < 1e300 else math.log(num) - math.log(den / 2)
        assert abs(g - want) <= 1e-14 * want, x


def test_green_value_shape_follows_input(model_fat3):
    pts = np.linspace(-0.5, 1.5, 12)
    flat = G.green_value(model_fat3, pts)
    assert flat.shape == (12,)
    assert G.green_value(model_fat3, pts.reshape(3, 4)).tobytes() == flat.tobytes()
    assert G.green_value(model_fat3, pts.reshape(3, 4)).shape == (3, 4)
    assert G.green_value(model_fat3, pts.tolist()).tobytes() == flat.tobytes()
    for x in (pts[3], float(pts[3]), np.array(pts[3])):
        value = G.green_value(model_fat3, x)
        assert type(value) is float and value == flat[3]
    assert G.green_value(model_fat3, []).shape == (0,)
    assert G.green_value(model_fat3, np.empty((2, 0))).shape == (2, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_green_value_non_finite_is_validation_error(model_fat3, bad):
    for x in (bad, [0.5, bad, 0.2], np.array([[0.1, 0.2], [bad, 2.0]])):
        with pytest.raises(ValidationError, match="non-finite"):
            G.green_value(model_fat3, x)


def test_pw_sum_is_the_per_gap_sum(model_fat8):
    # pw_sum adds g(c_j) left to right, and each term is within
    # ARC_REL_ERROR of the long-double series
    models = [G.solve_green(G.fat_cantor(level)) for level in range(1, 8)] + [model_fat8]
    for model in models:
        got, want = G.green_value(model, model.critical_points).tolist(), 0.0
        for j, c in enumerate(model.critical_points):
            ref = _series_reference(model, j)(c)
            assert abs(got[j] - ref) <= ARC_REL_ERROR * ref
            want += got[j]
        assert G.pw_sum(model) == want


@pytest.mark.parametrize("level", [6, 7, 8])
def test_gap_series_against_long_double(level, model_fat8):
    # g(c_j) on every gap against the long-double series: worst 8.3e-15 and
    # mean 2.2e-15 relative at level 8
    model = model_fat8 if level == 8 else G.solve_green(G.fat_cantor(level))
    got = G.green_value(model, model.critical_points).tolist()
    errors = [float(abs(g - ref) / ref) for g, ref in
              ((got[j], _series_reference(model, j)(c)) for j, c in enumerate(model.critical_points))]
    assert max(errors) <= ARC_REL_ERROR
    assert sum(errors) / len(errors) <= 4e-15


@pytest.mark.parametrize("level", [5, 8])
def test_green_value_near_gap_edges_against_long_double(level, model_fat8):
    # g at 0.05% and 0.1% of each gap's width from both its edges, on every
    # gap: the big gaps' samples are direct sums over the sorted roots and
    # edges, worst 5.3e-15 relative at level 5 and 1.1e-14 at level 8 (2.4e-14
    # and 5.8e-14 with the roots and edges summed apart)
    model = model_fat8 if level == 8 else G.solve_green(G.fat_cantor(level))
    for j, (lo, hi) in enumerate(model.set.gaps):
        ref = _series_reference(model, j)
        x = [lo + (hi - lo) * f for f in (5e-4, 1e-3, 1 - 1e-3, 1 - 5e-4)]
        for xi, g in zip(x, G.green_value(model, np.array(x)).tolist()):
            assert abs(g - ref(xi)) <= ARC_REL_ERROR * ref(xi), (j, xi)


@pytest.mark.parametrize("level", range(4, 9))
def test_gap_area_identity_on_every_gap(level, model_fat8):
    # int |g'| across gap j is 2 g(c_j): both halves of the gap's series
    # against one, which differ by its period residual
    model = model_fat8 if level == 8 else G.solve_green(G.fat_cantor(level))
    g = G.green_value(model, model.critical_points)
    for j in range(len(model.set.gaps)):
        assert abs(G.gap_derivative_l1(model, j) - 2 * g[j]) <= 1e-14


def test_green_value_bits_ignore_the_batch(model_fat8):
    # all 255 critical points in one call read the bits of 255 lone calls:
    # batches share (order, p, near width), so no near window is padded
    c = model_fat8.critical_points
    assert G.green_value(model_fat8, c).tobytes() == np.array([G.green_value(model_fat8, x) for x in c]).tobytes()


def test_green_value_chunks_match_small_calls(model_fat8, monkeypatch):
    # 5,000 points on one level-8 gap: every series-evaluation piece stays
    # within _ARC_BLOCK entries, and the bits are those of 100-point calls
    lo, hi = model_fat8.set.gaps[100]
    x = np.linspace(lo, hi, 5002)[1:-1]
    G.green_value(model_fat8, x[:1])  # the series is built
    pieces, blocks = [], potential._blocks

    def count_pieces(rows, cols, width):
        for b, e in blocks(rows, cols, width):
            pieces.append(len(range(rows)[b]) * len(range(cols)[e]) * width)
            yield b, e

    monkeypatch.setattr(potential, "_blocks", count_pieces)
    whole = G.green_value(model_fat8, x)
    assert len(pieces) > 1 and potential._ARC_BLOCK / 2 < max(pieces) <= potential._ARC_BLOCK
    parts = [G.green_value(model_fat8, x[i : i + 100]) for i in range(0, len(x), 100)]
    assert whole.tobytes() == np.concatenate(parts).tobytes()


def test_one_kernel_call_for_all_gaps(monkeypatch):
    # a deterministic guard against per-gap and per-point loops: the solve
    # takes every gap series' samples, so a model's first g evaluation, a
    # profile on one gap, pw_sum, points in every gap and gap_derivative_l1
    # make no _log_sums call
    s = G.make_gapset(-2, 2, [(-1, 1)])
    model, fat3 = G.solve_green(s), G.solve_green(G.fat_cantor(3))
    monkeypatch.setattr(cli, "solve_green", lambda s, quad_order=None: model)
    calls, log_sums = [], potential._log_sums

    def count_rows(lo, hi, orders, *rest):
        calls.append(len(orders))
        return log_sums(lo, hi, orders, *rest)

    monkeypatch.setattr(potential, "_log_sums", count_rows)
    profile = {"command": "green", "set": s.to_json(), "gap_index": 0, "n": 101}
    cli.run(profile)
    G.pw_sum(fat3)
    assert calls == []
    mid = [(lo + hi) / 2 for lo, hi in fat3.set.gaps]
    G.green_value(fat3, np.concatenate([mid, fat3.critical_points, [-1.0, 0.0, 2.0]]))
    G.gap_derivative_l1(fat3, 3)
    G.pw_sum(fat3)
    cli.run(profile)
    assert calls == []


def test_one_ray_series_per_side(model_fat3, monkeypatch):
    # the solve samples the right-hand ray for the Robin constant and keeps
    # its series; outer points on one side, in any number and at any
    # distance, sample that side once
    calls, build = [], potential._ray_samples

    def count_sides(s, roots, side):
        calls.append(side)
        return build(s, roots, side)

    monkeypatch.setattr(potential, "_ray_samples", count_sides)
    s = model_fat3.set
    dist = s.diameter * np.geomspace(1e-12, 1e10, 1000)
    model = G.solve_green(s)
    assert calls == [1]
    G.green_value(model, s.beta + dist)
    assert calls == [1]
    for x in (s.alpha - dist[:1], s.alpha - dist, s.alpha - dist[::-7]):
        G.green_value(model, x)
    assert calls == [1, 0]
    fresh = dataclasses.replace(model_fat3)
    for side in (s.beta + dist, s.beta + dist[:3], s.alpha - dist):
        G.green_value(fresh, side)
    assert calls == [1, 0, 1, 0]


def test_no_gauss_legendre_rule(model_pm12, monkeypatch):
    # the solve, g, pw_sum and measures of both modes, with their Lanczos,
    # boundary values and sum rules, build every rule on cosine points
    def no_rule(n):
        raise AssertionError("a Gauss-Legendre rule was built")

    assert not hasattr(potential, "_leggauss") and not hasattr(G.jacobi, "_leggauss")
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_rule)
    for s in (G.make_gapset(-2, 2), G.make_gapset(0.0, 1.0, [(1e-8, 1 - 1e-8)]), G.fat_cantor(4)):
        model = G.solve_green(s)
        x = np.linspace(s.alpha - 2 * s.diameter, s.beta + 2 * s.diameter, 101)
        G.green_value(model, x)
        G.pw_sum(model)
        G.make_measure(model, G.WeightSpec("poly", {"coef": [1.0, 0.2]}))
    mu = G.make_measure(model_pm12, G.WeightSpec("poly", {"coef": [1.0, 0.2]}), mode="absolute")
    J = G.coefficients_from_measure(mu, 8)
    G.measure_m_boundary(mu, np.linspace(1.1, 1.9, 9))
    G.n_step_sum_rule(J, mu, 2)


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


def _moment(quad, k):
    """int t^k dmu_E on the rule quad."""
    return float(quad.all_weights @ np.concatenate(quad.nodes) ** k)


def test_equilibrium_quadrature_moments(model_m22, model_pm12, model_fat3):
    for model in (model_m22, model_pm12, model_fat3):
        quad = G.equilibrium_quadrature(model, 200)
        assert np.sum(quad.all_weights) == pytest.approx(1.0, abs=1e-10)
        assert G.equilibrium_quadrature(model, 200) is quad  # built once per model and order
    q22 = G.equilibrium_quadrature(model_m22, 200)
    assert _moment(q22, 2) == pytest.approx(2.0, abs=1e-8)
    qpm = G.equilibrium_quadrature(model_pm12, 200)
    assert _moment(qpm, 1) == pytest.approx(0.0, abs=1e-10)


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
        want = (x * interval_stieltjes(1, 4, x * x)).real
        assert -dg == pytest.approx(want, abs=1e-6)


def test_interval_stieltjes_branches():
    m3 = interval_stieltjes(-2, 2, 3.0)
    assert m3.real == pytest.approx(-1 / math.sqrt(5), abs=1e-14)
    mi = interval_stieltjes(-2, 2, 1j)
    assert mi.imag > 0
    mneg = interval_stieltjes(-2, 2, -3.0)
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
    assert _moment(quad, 1) == pytest.approx(0.0, abs=1e-9)
    assert _moment(quad, 2) == pytest.approx(2.0, abs=1e-8)


def test_capacity_narrow_bands():
    # [0, 0.01] u [0.99, 1] centered: +/-[0.49, 0.5], cap = sqrt(0.5^2 - 0.49^2)/2
    s = G.make_gapset(0.0, 1.0, [(0.01, 0.99)])
    model = G.solve_green(s, quad_order=240)
    assert model.capacity == pytest.approx(math.sqrt(0.5**2 - 0.49**2) / 2, abs=1e-9)



@pytest.mark.parametrize("eps, bound", [(1e-6, 1e-10), (1e-7, 1e-9), (1e-8, 1e-8)])
def test_capacity_tiny_outer_bands(eps, bound):
    # [0, eps] u [1 - eps, 1]: the Robin probe's ray from beta meets the branch
    # point of the edge at beta - eps, so its series is sized by eps, not by
    # the band order, which left 2e-3 at eps = 1e-8
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


@pytest.mark.parametrize("name", ["model_m22", "model_pm12", "model_fat4", "model_fat3_explicit"],
                         ids=["m22", "pm12", "fat4_default", "fat3_explicit"])
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


def _per_gap(s, roots, orders):
    """Gap j's cosine nodes from the flat _pass_samples."""
    return np.split(_pass_samples(s, roots, orders)[0], np.cumsum(orders)[:-1])


@pytest.mark.parametrize("name", ["model_pm12", "model_fat4", "model_fat3_explicit"])
def test_model_json_keeps_solve_diagnostics(name, request):
    # the gate readings round-trip: the load reruns the period gate on the
    # same tables and builds the same band rules, so the JSON stores neither
    # the residual nor a mass
    model = request.getfixturevalue(name)
    text = G.model_to_json(model)
    assert "period_residual" not in json.loads(text) and "mass_error" not in json.loads(text)
    rebuilt = G.model_from_json(text)
    assert rebuilt.period_residual == model.period_residual
    for order in (64, 200):
        rules = [G.equilibrium_quadrature(m, order).all_weights.tobytes() for m in (rebuilt, model)]
        assert rules[0] == rules[1]


def _without(key):
    return lambda obj: json.dumps({k: v for k, v in obj.items() if k != key})


def _roots(roots):
    return lambda obj: json.dumps(dict(obj, numerator={"form": "monic-roots", "roots": roots}))


@pytest.mark.parametrize("edit", [
    lambda obj: "{}", lambda obj: "[]", lambda obj: "not json",
    _without("numerator"), _without("gap_orders"),
    _without("solve_passes"), _without("root_move"),
    _roots([float("nan")]), _roots([float("inf")]), _roots([1e300]), _roots([]),
    _roots([0.1, 0.2]),
    lambda obj: json.dumps(dict(obj, gap_orders=[])),
    lambda obj: json.dumps(dict(obj, gap_orders=[1])),
], ids=["empty_object", "list", "not_json", "no_numerator", "no_gap_orders",
        "no_solve_passes", "no_root_move",
        "nan_root", "inf_root", "root_outside_gap", "no_root", "two_roots", "no_gap_order",
        "gap_order_1"])
def test_model_json_malformed_is_validation_error(model_pm12, edit):
    text = edit(json.loads(G.model_to_json(model_pm12)))
    with pytest.raises(ValidationError, match="malformed GreenModel JSON"):
        G.model_from_json(text)


def test_model_json_below_the_series_orders_is_validation_error(model_fat4):
    # JSON that stores the period tables' older orders, sized for a rule's
    # rho^(-2n), would build every gap series at about half its order: a load
    # refuses it, and any one order below its gap's series order
    obj = json.loads(G.model_to_json(model_fat4))
    bands, old = model_fat4.set.bands, []
    for j, (lo, hi) in enumerate(model_fat4.set.gaps):
        a = 1 + min(bands[j][1] - bands[j][0], bands[j + 1][1] - bands[j + 1][0]) / ((hi - lo) / 2)
        old.append(max(math.ceil(math.log(1e15) / (2 * math.log(a + math.sqrt(a * a - 1)))), 32))
    one_short = list(obj["gap_orders"])
    one_short[7] -= 1
    assert old != obj["gap_orders"] and one_short[7] >= 32
    for orders in (old, one_short):
        with pytest.raises(ValidationError, match="orders at least the gap series'"):
            G.model_from_json(json.dumps(dict(obj, gap_orders=orders)))


@pytest.mark.parametrize("root", [0.5, 0.999])
def test_model_json_root_off_its_period_condition_is_numerical_error(model_pm12, root):
    # a load reruns the period gate on tables rebuilt from gap_orders, so an
    # edited root fails it (residuals 0.843 and 1.684) instead of loading
    # with a wrong capacity
    with pytest.raises(NumericalError, match="period residual"):
        G.model_from_json(_roots([root])(json.loads(G.model_to_json(model_pm12))))


def test_gap_orders_default_and_explicit(model_pm12, model_fat4, model_fat3_explicit):
    # the default sizes each gap from the Bernstein ellipse through its
    # nearest foreign edge; an explicit quad_order is a floor on every
    # gap's, here above each ellipse order
    for model, order in ((model_pm12, 240), (model_fat3_explicit, 64)):
        assert model.gap_orders == (order,) * len(model.set.gaps)
        assert {len(t) for t in _per_gap(model.set, model.critical_points, model.gap_orders)} == {order}
    # a tiny band needs more than these quad_orders: they lower no gap order,
    # where replacing the orders read capacity 2.4e-2 .. 4.5e-9 off at a
    # period residual below 1e-15
    s = G.make_gapset(-2, 2, [(-1, 1), (1.0002, 1.5)])
    ref = G.solve_green(s)
    assert ref.gap_orders == (1727, 864)
    for order in (32, 80, 200, 400):
        model = G.solve_green(s, order)
        assert model.gap_orders == ref.gap_orders
        assert abs(model.capacity / ref.capacity - 1) <= 2e-15
        assert G.pw_sum(model) == G.pw_sum(ref)
    assert G.solve_green(s, 1000).gap_orders == (1727, 1000)
    m8 = G.solve_green(G.fat_cantor(8))
    for model in (model_fat4, m8):
        bands = model.set.bands
        want = []
        for j, (lo, hi) in enumerate(model.set.gaps):
            r = (hi - lo) / 2
            a = 1 + min(bands[j][1] - bands[j][0], bands[j + 1][1] - bands[j + 1][0]) / r
            n = math.ceil(math.log(1e15) / math.log(a + math.sqrt(a * a - 1)))
            want.append(min(max(n, 32), 2048))
        assert model.gap_orders == tuple(want)
        assert [len(t) for t in _per_gap(model.set, model.critical_points, model.gap_orders)] == want
    # the level-1 gap of level 8 sits next to bands ~2e-3 long and needs
    # more than a default measure's band order; the level-8 gaps need only the floor
    assert m8.gap_orders[127] > G.make_measure(m8).quad.order == 80
    assert min(m8.gap_orders) == 32
    assert 2 <= m8.solve_passes < 6 and m8.root_move <= 1e-14 * m8.set.diameter


def test_solver_validation(model_m22, model_pm12):
    with pytest.raises(ValidationError):
        G.solve_green(G.make_gapset(-2, 2), quad_order=16)
    with pytest.raises(ValidationError, match="at least 32"):
        G.equilibrium_quadrature(model_m22, 8)
    for j in (-1, 1):
        with pytest.raises(ValidationError, match="out of range"):
            G.gap_derivative_l1(model_pm12, j)
    # a gapless set has no period conditions
    assert G.period_residuals(model_m22).shape == (0,)


SCALE_SWEEP_SETS = {
    "interval": G.make_gapset(-2, 2),
    "two_band": G.make_gapset(-2, 2, [(-1, 1)]),
    "fat_cantor2": G.fat_cantor(2),
}


@pytest.mark.parametrize("name", sorted(SCALE_SWEEP_SETS))
def test_scale_sweep_covariance(name):
    # capacity scales linearly and g (hence pw_sum) is invariant under
    # x -> scale*x + shift, at every scale the Robin constant has to follow
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
    anchors, delta = next(_root_step_inputs(s))
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
    # the deflated rows solve the explicit period conditions of two linearized passes,
    # with the period weights 1/sqrt|R| (gap j's own edges cancelled) summed directly
    for anchors, delta in _root_step_inputs(s):
        for j, t in enumerate(_per_gap(s, anchors, model_fat4.gap_orders)):
            log_w = _direct_log_sum(t, (), np.delete(s.edges, (2 * j + 1, 2 * j + 2)))[0]
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
    # the gate rides with the band rule, which the solve does not build:
    # at tolerance 0 the solve succeeds, and a band rule whose mass is not
    # exactly 1 and a measure on it raise (order 80 sums to 1 - 1.1e-16;
    # orders 32, 64 and 200 sum to 1.0 exactly)
    model = G.solve_green(ASYMMETRIC)
    assert np.sum(G.equilibrium_quadrature(model, 80).all_weights) != 1.0
    monkeypatch.setitem(potential.TOLERANCES, "quadrature_mass", 0.0)
    model = G.solve_green(ASYMMETRIC)
    with pytest.raises(NumericalError, match="equilibrium weights sum"):
        G.equilibrium_quadrature(model, 80)
    with pytest.raises(NumericalError, match="equilibrium weights sum"):
        G.make_measure(model, quad_order=80)


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
        got = _g_prime(t, roots, np.delete(s.edges, skip))
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
    """Anchors and corrections of two linearized passes: gap midpoints, then their roots."""
    orders = potential._gap_orders(s)
    anchors = np.array([(lo + hi) / 2 for lo, hi in s.gaps])
    delta = _period_correction(s, anchors, orders, *_weighted_samples(s, anchors, orders))
    yield anchors, delta
    anchors = _period_roots(s.gaps, anchors, delta)
    yield anchors, _period_correction(s, anchors, orders, *_weighted_samples(s, anchors, orders))


def _weighted_samples(s, anchors, orders):
    """A pass's nodes t and node weights v, vu: _period_correction's inputs after the orders."""
    t, log_b = _pass_samples(s, anchors, orders)
    return (t, *_pass_weights(anchors, orders, t, log_b)[:2])


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


def _julia_preimages(c, levels):
    """beta and E_L = T^-L([-beta, beta]) for T(x) = x^2 - c, L = 1..levels:
    2^L bands, whose edges are nested square roots sqrt(c +- ...)."""
    beta = (1 + math.sqrt(1 + 4 * c)) / 2  # T(beta) = beta
    bands = [(-beta, beta)]
    for _ in range(levels):
        half = [(math.sqrt(c + a), math.sqrt(c + b)) for a, b in bands]
        bands = [(-b, -a) for a, b in reversed(half)] + half
        yield beta, G.make_gapset(bands[0][0], bands[-1][1], [(b0[1], b1[0]) for b0, b1 in zip(bands, bands[1:])])


@pytest.mark.parametrize("c", [2.5, 3.0, 4.0])
def test_julia_preimage_oracles(c):
    # E_L = T^-L([-beta, beta]): cap = (beta/2)^(2^-L), and g = g_[-beta,beta](T^L)/2^L
    # peaks where T^k = 0 (k < L), so pw_sum = sum_{j <= L} acosh(|T^j(0)|/beta)/2^j;
    # the worst reads 2.8e-13 (c = 4, L = 8), where gap series of at most
    # 1,024 terms read 7.8e-10 off
    orbit = pw = 0.0
    for level, (beta, s) in enumerate(_julia_preimages(c, 8), start=1):
        orbit = orbit * orbit - c
        pw += math.acosh(abs(orbit) / beta) / 2**level
        model = G.solve_green(s)
        assert abs(model.capacity / (beta / 2) ** (2.0**-level) - 1) <= 5e-13, level
        assert abs(G.pw_sum(model) - pw) <= 5e-13, level


@functools.lru_cache(maxsize=None)
def _julia_errors(c, level):
    """E_L's capacity error, relative, and pw_sum error, absolute, against
    test_julia_preimage_oracles's exact values: one solve per (c, L)."""
    orbit = pw = 0.0
    for k, (beta, s) in enumerate(_julia_preimages(c, level), start=1):
        orbit = orbit * orbit - c
        pw += math.acosh(abs(orbit) / beta) / 2**k
    model = G.solve_green(s)
    return {"capacity": abs(model.capacity / (beta / 2) ** (2.0**-level) - 1), "pw_sum": abs(G.pw_sum(model) - pw)}


# rows whose smallest gaps need more than _GAP_ORDER_CAP nodes: 2.5e-9, 7.7e-10 and 3.2e-6
# off in pw_sum at c = 4, L = 9 and c = 3 and 4, L = 10, 1.4e-9 in capacity at c = 4, L = 10
JULIA_CAPPED = {(4.0, 9, "pw_sum"), (3.0, 10, "pw_sum"), (4.0, 10, "pw_sum"), (4.0, 10, "capacity")}


@pytest.mark.parametrize("c, level, what", [
    pytest.param(c, level, what, marks=[pytest.mark.xfail(reason="gap orders capped at 2,048 nodes")]
                 if (c, level, what) in JULIA_CAPPED else [])
    for c in (2.5, 3.0, 4.0) for level in (9, 10) for what in ("capacity", "pw_sum")
])
def test_julia_preimage_oracles_at_levels_9_and_10(c, level, what):
    # the same oracles and bounds at 511 and 1,023 gaps; the capped rows fail
    # the suite once they pass, so they cannot stay marked
    assert _julia_errors(c, level)[what] <= 5e-13


@pytest.mark.parametrize("name", ["model_pm12", "model_fat3"])
def test_m_e_is_the_band_rule_stieltjes_transform(name, request):
    # m_E = -g' off E: the band rule's sum w/(t - x) at points 1% of the
    # diameter or more from E, and increasing on every component
    model = request.getfixturevalue(name)
    s = model.set
    x = np.linspace(s.alpha - s.diameter, s.beta + s.diameter, 3001)
    off = x[(edge_slots(s, x) % 2 == 0)
            & (np.min(np.abs(x[:, None] - s.edges), axis=1) >= 0.01 * s.diameter)]
    quad = G.make_measure(model).quad
    t, w = np.concatenate(quad.nodes), quad.all_weights
    assert np.max(np.abs(_m_e(model, off) - (w / (t - off[:, None])).sum(axis=1))) <= 1e-12
    for lo, hi in zip(np.r_[s.alpha - s.diameter, s.edges[1::2]], np.r_[s.edges[::2], np.inf]):
        hi = min(hi, s.beta + s.diameter)
        inner = np.linspace(lo, hi, 403)[1:-1]
        assert np.all(np.diff(_m_e(model, inner)) > 0), (lo, hi)


def test_m_e_matches_interval_stieltjes(model_m22):
    x = np.r_[-np.geomspace(2.0 + 1e-9, 1e6, 60), np.geomspace(2.0 + 1e-9, 1e6, 60)]
    want = [interval_stieltjes(-2.0, 2.0, v).real for v in x]
    assert _m_e(model_m22, x) == pytest.approx(want, rel=1e-14)


# ---------------------------------------------------------------------------
# _log_sums: the near field summed, the far field from moments

SMALL_FAMILIES = [
    G.scale_shift(base, scale, 0.37 * scale)
    for base in (G.make_gapset(-2, 2), G.make_gapset(-2, 2, [(-1, 1)]), cubic_preimage_set())
    for scale in (1e-12, 1.0, 1e12)
]


def _kernel_calls(s, roots):
    """The intervals, orders and log-sums of the _log_sums callers on s: the
    band rule, here with every gap at its order beside the bands, own edges
    left out, and a period pass, and for interval i the roots and skipped
    edges of the direct sum it stands for."""
    e, n_bands, n = s.edges, len(s.edges) // 2, len(roots)
    lo, hi = np.r_[e[0::2], e[1:-1:2]], np.r_[e[1::2], e[2:-1:2]]
    orders = np.r_[np.full(n_bands, 80), potential._gap_orders(s)].astype(int)
    skip = n + np.r_[np.arange(2 * n_bands), np.arange(1, 2 * n + 1)].reshape(-1, 2)
    yield lo, hi, orders, lambda: _log_sums(lo, hi, orders, roots, e, skip), lambda i: (roots, skip[i] - n)
    if n:
        orders = np.array(potential._gap_orders(s))
        yield e[1:-1:2], e[2:-1:2], orders, lambda: _pass_samples(s, roots, orders), \
            lambda i: (np.delete(roots, i), (2 * i + 1, 2 * i + 2))


JULIA_4_8 = list(_julia_preimages(4.0, 8))[-1][1]  # 255 gaps in clusters, orders up to 2,048


@pytest.fixture(scope="module")
def model_julia_4_8():
    return G.solve_green(JULIA_4_8)


@pytest.mark.parametrize(
    "s", [G.fat_cantor(level) for level in range(1, 10)] + SMALL_FAMILIES + [JULIA_4_8],
    ids=[f"fat_cantor{level}" for level in range(1, 10)]
    + [f"{name}_{scale}" for name in ("interval", "two_band", "cubic") for scale in ("1e-12", "1", "1e12")]
    + ["julia_4_8"],
)
def test_log_sums_match_direct_sums(s):
    # on every band and gap, for the band rule with the gap series' samples
    # and for a period pass: within 4x the direct sum's own rounding bound,
    # eps times the sum of its terms' magnitudes, at the same nodes, and the
    # gate's signs too; the roots are the first pass's anchors, the gap
    # midpoints, so nodes of odd orders meet them
    eps, edges = np.finfo(float).eps, s.edges
    roots = np.array([(lo + hi) / 2 for lo, hi in s.gaps])
    for lo, hi, orders, sample, direct in _kernel_calls(s, roots):
        t, got = sample()
        first = np.cumsum(orders) - orders
        for i in range(len(lo)):
            x, part = _cosine_nodes(lo[i], hi[i], orders[i]), slice(first[i], first[i] + orders[i])
            assert np.array_equal(t[part], x)
            kept, skipped = direct(i)
            want, terms = _direct_log_sum(x, kept, np.delete(edges, skipped))
            finite = np.isfinite(want)
            assert np.array_equal(np.isfinite(got[part]), finite)
            assert np.all(np.abs(got[part][finite] - want[finite]) <= 4 * eps * terms[finite])
    # the gate's sums of w P with P's sign from a pass's samples, against
    # per-gap direct sums of log|P| and the log weights log((pi/n) / sqrt|R|)
    if len(s.gaps):
        orders = potential._gap_orders(s)
        got = potential._residuals_and_samples(roots, orders, *_pass_samples(s, roots, orders))[0]
        for j, x in enumerate(_per_gap(s, roots, orders)):
            sign, log_p = np.prod(np.sign(x[:, None] - roots), axis=1), _direct_log_sum(x, roots, ())[0]
            log_w = math.log(math.pi / orders[j]) + _direct_log_sum(x, (), np.delete(edges, (2 * j + 1, 2 * j + 2)))[0]
            terms = sign * np.exp(log_p + log_w)
            assert abs(got[j] - terms.sum()) <= 1e-12 * np.abs(terms).sum()


@pytest.mark.parametrize("s", [G.fat_cantor(level) for level in range(3, 10)] + [ASYMMETRIC, JULIA_4_8],
                         ids=[f"fat_cantor{level}" for level in range(3, 10)] + ["asymmetric", "julia_4_8"])
def test_period_correction_matches_dense_direct_sums(s, monkeypatch):
    # two linearized passes' systems, at the gap midpoints and then at the
    # roots their delta gives, against the same rows summed densely: v from the same
    # pass samples, every Cauchy column sum_t v u/(t - m_i) term by term in long
    # double (a double sum down a 2,048-node column rounds by up to 28 eps
    # sum_t |v u/(t - m_i)| itself, in order, on Julia).  Each
    # column is within 32 eps sum_t |v u/(t - m_i)| (reads <= 14.8, Julia,
    # whose gaps take up to 2,048 terms; <= 5.8 on fat_cantor), and delta
    # within 1e-14 diam, the solve's stopping tolerance (reads <= 1.1e-15)
    eps, solved = np.finfo(float).eps, []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda A, b: (solved.append(A.copy()), solve(A, b))[1])
    lo, hi, orders = s.edges[1:-1:2], s.edges[2:-1:2], potential._gap_orders(s)
    anchors, first = (lo + hi) / 2, np.cumsum(orders) - orders
    for _ in range(2):
        t, log_b = _pass_samples(s, anchors, orders)
        got = _period_correction(s, anchors, orders, t, *_pass_weights(anchors, orders, t, log_b)[:2])
        A, rhs, size = np.empty((len(lo), len(lo))), np.empty(len(lo)), np.empty((len(lo), len(lo)))
        for j, part in enumerate(slice(a, a + n) for a, n in zip(first, orders)):
            v = np.exp(log_b[part] - np.max(log_b[part]))
            d = t[part, None] - anchors
            d[:, j] = np.inf
            terms = (v * (t[part] - anchors[j]))[:, None] / d
            A[j], size[j] = terms.astype(np.longdouble).sum(axis=0), np.abs(terms).sum(axis=0)
            A[j, j], rhs[j] = v.sum(), -np.sum(v * (t[part] - anchors[j]))
        off = ~np.eye(len(lo), dtype=bool)
        assert np.all(np.abs(solved.pop() - A)[off] <= 32 * eps * size[off])
        want = solve(A, rhs)
        assert np.max(np.abs(got - want)) <= 1e-14 * s.diameter
        anchors = _period_roots(s.gaps, anchors, want)


@pytest.mark.parametrize(
    "s", [G.fat_cantor(level) for level in range(1, 10)] + [JULIA_4_8, G.make_gapset(0.0, 1.0, [(1e-8, 1 - 1e-8)])],
    ids=[f"fat_cantor{level}" for level in range(1, 10)] + ["julia_4_8", "tiny_outer_bands"],
)
def test_period_gate_is_the_confirming_pass(s, monkeypatch):
    # the roots are the anchors of the solve's last pass, whose diagonal
    # step confirmed them with no period system built, and the gate read
    # that pass's samples: period_residuals samples the roots again and
    # reads the same residual, bit for bit
    anchors, sample = [], potential._pass_samples

    def spy(s, roots, orders):
        anchors.append(np.array(roots))
        return sample(s, roots, orders)

    monkeypatch.setattr(potential, "_pass_samples", spy)
    model = G.solve_green(s)
    assert len(anchors) == model.solve_passes and model.root_move <= 1e-14 * s.diameter
    assert np.array_equal(model.critical_points, anchors[-1])
    assert model.period_residual == np.max(np.abs(G.period_residuals(model)))


def _count_calls(monkeypatch, *names):
    """Per name, the calls solve_green's pipeline makes to that potential function."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def spy(*args):
            calls[name] += 1
            return fn(*args)
        return spy

    for name in names:
        monkeypatch.setattr(potential, name, counted(name, getattr(potential, name)))
    return calls


@pytest.mark.parametrize(
    "s, passes, corrections",
    [(G.fat_cantor(8), 2, 1), (G.make_gapset(-2, 2, [(-1, 1)]), 1, 0), (cubic_preimage_set(), 2, 1)],
    ids=["fat_cantor8", "two_band", "cubic"],
)
def test_one_correction_per_solve(s, passes, corrections, monkeypatch):
    # the period conditions are linear in P, so one correction from the gap
    # midpoints lands the roots; the second pass samples them for the gate
    # and the gap series, and its diagonal step ends the solve with no
    # period system built.  The symmetric two-band set's midpoint is its
    # root, so its first pass ends it.  The kernel runs once a pass: every
    # pass samples each gap at its series' order
    calls = _count_calls(monkeypatch, "_pass_samples", "_period_correction", "_log_sums")
    model = G.solve_green(s)
    assert model.solve_passes == passes and model.root_move <= 1e-14 * s.diameter
    assert (calls["_pass_samples"], calls["_period_correction"], calls["_log_sums"]) == (passes, corrections, passes)


@pytest.mark.parametrize("s", [G.fat_cantor(level) for level in range(2, 10)] + [JULIA_4_8, cubic_preimage_set()],
                         ids=[f"fat_cantor{level}" for level in range(2, 10)] + ["julia_4_8", "cubic"])
def test_diagonal_step_tracks_the_first_move(s):
    # gap j's diagonal step sum vu/sum v is its move under a correction
    # that drops the other gaps' columns; from the gap midpoints its largest
    # is within 10% of the full correction's largest root move (reads 0.7%
    # on fat_cantor, 7% on Julia, 0.9% on the cubic preimage)
    orders = potential._gap_orders(s)
    anchors = (s.edges[1:-1:2] + s.edges[2:-1:2]) / 2
    t, log_b = _pass_samples(s, anchors, orders)
    v, vu, diagonal = _pass_weights(anchors, orders, t, log_b)
    roots = _period_roots(s.gaps, anchors, _period_correction(s, anchors, orders, t, v, vu))
    assert abs(np.max(np.abs(diagonal)) / np.max(np.abs(roots - anchors)) - 1) <= 0.1


@pytest.mark.parametrize("factor", [1 + 1e-6, 0.5], ids=["off_1e-6", "halved"])
@pytest.mark.parametrize("s", [G.fat_cantor(4), G.fat_cantor(8), cubic_preimage_set(), JULIA_4_8],
                         ids=["fat_cantor4", "fat_cantor8", "cubic", "julia_4_8"])
def test_an_inexact_first_correction_takes_a_third_pass(s, factor, monkeypatch):
    # a first delta off by a factor 1 + 1e-6 leaves a diagonal step far above
    # 1e-14 diam, and a halved one half the first step, which the floor
    # guard lets through at pass 2: a third pass corrects again, and the
    # roots land on the unperturbed solve's with the gate passing
    want, correction, first = G.solve_green(s), potential._period_correction, []

    def perturbed(*args):
        delta = correction(*args)
        return delta if first else (first.append(1), delta * factor)[1]

    monkeypatch.setattr(potential, "_period_correction", perturbed)
    calls = _count_calls(monkeypatch, "_pass_samples", "_period_correction")
    model = G.solve_green(s)
    assert model.solve_passes == calls["_pass_samples"] == 3 and calls["_period_correction"] == 2
    assert np.max(np.abs(model.critical_points - want.critical_points)) <= 1e-14 * s.diameter
    assert model.root_move <= 1e-14 * s.diameter
    assert model.period_residual <= TOLERANCES["period_residual"]


def test_floor_guard_stops_a_stalled_solve(monkeypatch):
    # corrections that only halve the step never fall tenfold: the guard lets
    # pass 2 correct, stops the solve at pass 3, and the gate rejects roots
    # that far from final
    correction = potential._period_correction
    monkeypatch.setattr(potential, "_period_correction", lambda *args: 0.5 * correction(*args))
    calls = _count_calls(monkeypatch, "_pass_samples", "_period_correction")
    with pytest.raises(NumericalError, match="period residual"):
        G.solve_green(cubic_preimage_set())
    assert (calls["_pass_samples"], calls["_period_correction"]) == (3, 2)


def test_near_window_past_the_float_range():
    # a gap's 32 half-lengths reach past -1e308: its window of near sources
    # is unbounded, not an overflow, and the capacity is covariant.  So it
    # is on fat_cantor(3) spread over [-0.85e308, 0.85e308], whose edges are
    # finite but whose intervals' reaches pass the float range, and pw_sum
    # is scale-free (read 1.7e-15 and 4.7e-15).  Spread over [0, 1e308] its
    # gap midpoints overflow, and the solve says so
    unit = G.make_gapset(-1.0, 0.0, [(-0.6, -0.5)])
    huge = G.solve_green(G.scale_shift(unit, 1e308, 0.0))
    assert huge.capacity == pytest.approx(1e308 * G.solve_green(unit).capacity, rel=1e-14)
    unit = G.solve_green(G.fat_cantor(3))
    huge = G.solve_green(G.scale_shift(G.fat_cantor(3), 1.7e308, -0.85e308))
    assert huge.capacity == pytest.approx(1.7e308 * unit.capacity, rel=1e-14)
    assert abs(G.pw_sum(huge) - G.pw_sum(unit)) <= 5e-14
    with pytest.raises(NumericalError, match="float range"):
        G.solve_green(G.scale_shift(G.fat_cantor(3), 1e308))


def test_solve_log_sum_work_and_pieces(monkeypatch):
    # solve_green(fat_cantor(8)) and its pw_sum, whose gap series' samples
    # the solve takes, build no band rule and make 2 _log_sums calls, the
    # two period passes.  They take their logs in _near_sums (near windows
    # at the nodes) and _far_sums (far sources at c): 1.29M in all; the far
    # sources' moments take 3.66M multiplies, each row to its own K; and
    # every _blocks piece holds at most _ARC_BLOCK entries
    entries, pieces, powers, kernel, rules = [], [], [], [], []
    near, far, blocks, log_sums = potential._near_sums, potential._far_sums, potential._blocks, potential._log_sums

    def count_near(x, src, coef, start, stop, own):
        entries.append(x.size * int(np.max(stop - start)))
        return near(x, src, coef, start, stop, own)

    def count_far(c, r, terms, src, coef, start, stop):
        entries.append(len(c) * len(src))
        powers.append(len(src) * int(np.sum(terms)))
        return far(c, r, terms, src, coef, start, stop)

    def count_pieces(rows, cols, width):
        for b, e in blocks(rows, cols, width):
            pieces.append(len(range(rows)[b]) * len(range(cols)[e]) * width)
            yield b, e

    def count_kernel(*args):
        kernel.append(1)
        return log_sums(*args)

    def count_rules(*args):
        rules.append(1)
        return band_rule(*args)

    band_rule = potential._band_rule
    for name, spy in (("_near_sums", count_near), ("_far_sums", count_far), ("_blocks", count_pieces),
                      ("_log_sums", count_kernel), ("_band_rule", count_rules)):
        monkeypatch.setattr(potential, name, spy)
    G.pw_sum(G.solve_green(G.fat_cantor(8)))
    assert len(kernel) == 2 and rules == []
    assert sum(entries) <= 1.35e6 and sum(powers) <= 3.75e6
    assert max(pieces) <= potential._ARC_BLOCK


def test_density_runs_in_bounded_pieces():
    # the density on 60,000 points of a level-8 band takes _near_sums's
    # _ARC_BLOCK pieces (peak 2.9 MB traced), not one points x (roots +
    # edges) table (737 MB), and each point's bits ignore its batch
    mu = G.make_measure(G.solve_green(G.fat_cantor(8)))
    lo, hi = mu.set.bands[0]
    t = np.linspace(lo, hi, 60_002)[1:-1]
    tracemalloc.start()
    try:
        got = mu.density(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
    assert np.array_equal(got, np.concatenate([mu.density(t[a:a + 1000]) for a in range(0, len(t), 1000)]))


@pytest.mark.parametrize("n", [1, 2, 7, 32, 200, 2048])
def test_idct_inverts_dct_and_gives_the_sine_sum(n):
    # the real part inverts _dct; the imaginary part for m a_m is the series' theta-derivative
    f = np.random.default_rng(n).standard_normal((3, n))
    assert np.max(np.abs(potential._idct(potential._dct(f)).real - f)) <= 1e-14
    m, z = np.arange(n), np.exp(1j * (np.arange(n) + 0.5) * np.pi / n) / 2
    # d/dtheta sum_{m<n} 2^-m cos(m theta) = -Im sum_{m<n} m z^m, z = e^(i theta)/2
    want = -(z * (1 - n * z ** (n - 1) + (n - 1) * z**n) / (1 - z) ** 2).imag
    assert np.max(np.abs(potential._idct(m * 0.5**m).imag - want)) <= 1e-14


# pw_sum of fat_cantor(1..9) from per-interval direct sums, before the proxies
DIRECT_PW_SUMS = (0.25541281188299525, 0.43675130185679234, 0.5487329482119186,
                  0.6130029616832344, 0.6484614550314673, 0.6675578583831008,
                  0.677669680738432, 0.6829558559745891, 0.6856919285985245)


@pytest.mark.parametrize("level", range(1, 10))
def test_ladder_matches_order_320_and_direct_sums(level):
    # level 9's band rule at order 80 has mass 1 + 4.6e-12; the Robin
    # constant is read off the ray, not the rule, so its capacity holds to
    # order 320's too
    model = G.solve_green(G.fat_cantor(level))
    ref = G.solve_green(G.fat_cantor(level), quad_order=320)
    assert abs(model.capacity / ref.capacity - 1.0) <= 5e-14
    assert abs(G.pw_sum(model) - DIRECT_PW_SUMS[level - 1]) <= 1e-14
    assert model.period_residual <= TOLERANCES["period_residual"]
    assert abs(float(np.sum(G.make_measure(model).quad.all_weights)) - 1.0) <= TOLERANCES["quadrature_mass"]


def test_level_10_solves_past_its_band_rule():
    # the potential reads no band rule, so level 10 solves at the default
    # order and matches order 320; its order-80 band rule has mass 1 +
    # 9.9e-10, which the mass gate still rejects where a measure needs it
    model = G.solve_green(G.fat_cantor(10))
    ref = G.solve_green(G.fat_cantor(10), quad_order=320)
    assert abs(model.capacity / ref.capacity - 1.0) <= 1e-14
    assert abs(G.pw_sum(model) - G.pw_sum(ref)) <= 1e-14
    for argv in (["--command", "capacity", "--set", "fat_cantor:10"], ["--command", "cantor", "--n", "10"]):
        assert cli.main(argv) == 0
    with pytest.raises(NumericalError, match="equilibrium weights sum"):
        G.make_measure(model)


# Periodic Jacobi parameters a_1..a_p > 0, b_1..b_p have the discriminant
# Delta = tr(A_p ... A_1), A_n = [[x - b_n, -1], [a_n^2, 0]]/a_n, a degree-p
# polynomial with leading coefficient 1/(a_1...a_p), and E = Delta^-1([-2, 2])
# has p bands, edged by the roots of Delta -/+ 2.  Exactly: cap = (a_1...a_p)^(1/p),
# g = arccosh(|Delta|/2)/p off E, the critical points are the zeros of Delta' in
# the gaps, and f_E = |Delta'|/(p pi sqrt(4 - Delta^2)) (Simon, Szego's Theorem
# and Its Descendants, ch. 5).  The bounds are within 10x of the battery's worst
# reads, recorded in CHANGES.md.
PERIODIC_SEEDS = 20  # sets per period p


def _discriminant(a, b, x):
    """Delta(x) and Delta'(x) from the transfer matrices, vectorized over x."""
    x = np.asarray(x, dtype=float)
    m, dm = np.broadcast_to(np.eye(2), x.shape + (2, 2)).copy(), np.zeros(x.shape + (2, 2))
    for an, bn in zip(a, b):
        step, d_step = np.zeros_like(m), np.zeros_like(m)
        step[..., 0, 0], step[..., 0, 1], step[..., 1, 0] = (x - bn) / an, -1.0 / an, an
        d_step[..., 0, 0] = 1.0 / an
        m, dm = step @ m, step @ dm + d_step @ m
    return np.trace(m, axis1=-2, axis2=-1), np.trace(dm, axis1=-2, axis2=-1)


def _periodic_set(p, seed):
    """(a, b, E, critical points) for seeded a_n in [0.5, 1.5], b_n in [-1, 1]: the edges are
    numpy's roots of Delta -/+ 2, Newton-polished on the transfer matrices, and each critical
    point is bisected on the sign of Delta' across its gap."""
    rng = np.random.default_rng([p, seed])
    a, b = rng.uniform(0.5, 1.5, p), rng.uniform(-1.0, 1.0, p)
    x = np.polynomial.Polynomial([0.0, 1.0])
    m = [[x**0, 0 * x], [0 * x, x**0]]
    for an, bn in zip(a, b):
        m = [[((x - bn) * m[0][j] - m[1][j]) / an for j in range(2)], [an * m[0][j] for j in range(2)]]
    delta = m[0][0] + m[1][1]
    edges = []
    for level in (2.0, -2.0):
        r = np.sort((delta - level).roots().real)
        for _ in range(4):
            d, dd = _discriminant(a, b, r)
            r = r - (d - level) / dd
        edges.append(r)
    e = np.sort(np.concatenate(edges))
    lo, hi = e[1:-1:2], e[2:-1:2]
    side = np.sign(_discriminant(a, b, lo)[1])
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        left = np.sign(_discriminant(a, b, mid)[1]) == side
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return a, b, G.make_gapset(e[0], e[-1], list(zip(e[1:-1:2], e[2:-1:2]))), 0.5 * (lo + hi)


@pytest.mark.parametrize("p", range(2, 9))
def test_periodic_set_oracles(p):
    # capacity, pw_sum, g in the gaps and on the rays, the critical points and
    # f_E at five points of every band, at the default settings
    for seed in range(PERIODIC_SEEDS):
        a, b, s, crit = _periodic_set(p, seed)
        model = G.solve_green(s)
        assert len(s.gaps) == p - 1
        assert abs(model.capacity / float(np.prod(a)) ** (1 / p) - 1) <= 5e-14, seed
        pw = float(np.sum(np.arccosh(np.abs(_discriminant(a, b, crit)[0]) / 2))) / p
        assert abs(G.pw_sum(model) - pw) <= 5e-14, seed
        x = np.r_[(s.edges[1:-1:2] + s.edges[2:-1:2]) / 2, s.alpha - s.diameter / 2, s.beta + 2 * s.diameter]
        g = np.arccosh(np.abs(_discriminant(a, b, x)[0]) / 2) / p
        assert np.max(np.abs(G.green_value(model, x) - g)) <= 5e-14, seed
        assert np.max(np.abs(model.critical_points - crit), initial=0.0) <= 5e-15 * s.diameter, seed
        t = np.concatenate([lo + (hi - lo) * np.array([0.05, 0.3, 0.5, 0.7, 0.95]) for lo, hi in s.bands])
        d, dd = _discriminant(a, b, t)
        f_e = np.abs(dd) / (p * math.pi * np.sqrt((2 - d) * (2 + d)))
        got = np.array([G.equilibrium_density(model, x) for x in t.tolist()])
        assert np.max(np.abs(got / f_e - 1)) <= 5e-12, seed
