"""Green's function with pole at infinity for the complement of a GapSet.

The solver parametrizes the Green's function through its derivative

    g'(x) = P(x) / sqrt(R(x)),   R(t) = prod_k (t - e_k),

where e_0..e_{2N+1} are the band edges and P is the monic degree-N
polynomial fixed by the N period conditions

    integral over gap_j of P(t)/sqrt(|R(t)|) dt = 0.

P has exactly one root per gap (the critical points of g), so it is
represented by those roots and evaluated as a signed product in log
space; coefficient bases degrade catastrophically once tiny Cantor gaps
cluster.  The conditions are linear in a Lagrange-type correction basis
anchored at the current root guesses, which keeps the linear systems
near-diagonal; two solve passes (midpoints, then the found roots) reach
machine-level period residuals.  Each pass locates the new roots by one
array bisection over all gaps that reads only the sign of the corrected
numerator, so no product magnitude is formed; 60 halvings reach the last
ulp of every gap and no Newton polish follows.

Every weight, density and Green integral is g' itself with the edge
factors its substitution cancels left out, from one primitive
_log_g_prime: the root and edge log-sums meet in a single exp, so the
quotient stays in range where either product alone over- or underflows.
The period weights, which have no root factors, stay logs until they
meet log|P|.  Singular integrals
are tamed by the cosine substitution t = c + r*cos(theta) (gap and band
versions), which cancels the inverse-square-root edge behaviour exactly,
and on the unbounded components by t = e +/- s^2.  The own-band Chebyshev
fits of the density, read only by equilibrium_m_boundary, are built on
first use.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as C

from .errors import NumericalError, ValidationError
from .realset import GapSet, locate, make_gapset

DEFAULT_ORDER_SMALL = 200  # nodes per band/gap for up to 15 gaps
DEFAULT_ORDER_LARGE = 80  # above that, keep 255-gap levels affordable
_GAP_COUNT_SWITCH = 15

# numeric gates enforced across the package, echoed into CLI JSON metadata
TOLERANCES = {
    "period_residual": 1e-10,  # max |period residual| after solve_green
    "quadrature_mass": 1e-10,  # |total equilibrium weight - 1|
    "eigenvalue_abs": 1e-12,  # bisection brackets close to a tenth of this * max(1, |x|)
    "eigenvalue_stability": 1e-8,  # matching across truncation sizes
}


@lru_cache(maxsize=64)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _default_order(n_gaps: int) -> int:
    return DEFAULT_ORDER_SMALL if n_gaps <= _GAP_COUNT_SWITCH else DEFAULT_ORDER_LARGE


def _log_g_prime(t: np.ndarray, roots, edges, skip: tuple[int, ...] = ()):
    """sign and log|g'(t)| with the edge factors in skip left out.

    log|g'| = sum_j log|t - c_j| - 1/2 sum_{k not in skip} log|t - e_k|,
    vectorized over t; -inf at a root.  With no edges this is P.
    """
    t = np.asarray(t, dtype=float)
    d = t[:, None] - np.asarray(roots, dtype=float)[None, :]
    with np.errstate(divide="ignore"):
        logmag = np.sum(np.log(np.abs(d)), axis=1)
    if len(edges):
        keep = np.ones(len(edges), dtype=bool)
        keep[list(skip)] = False
        diffs = np.abs(t[:, None] - edges[keep][None, :])
        if np.any(diffs == 0.0):
            raise NumericalError("quadrature node collided with a band edge")
        logmag = logmag - 0.5 * np.sum(np.log(diffs), axis=1)
    return np.prod(np.sign(d), axis=1), logmag


def _g_prime(t: np.ndarray, roots, edges, skip: tuple[int, ...] = ()) -> np.ndarray:
    """g'(t) = P(t)/sqrt|R(t)| from one exp of _log_g_prime; exactly zero at a root."""
    sign, logmag = _log_g_prime(t, roots, edges, skip)
    return sign * np.exp(logmag)


def _cosine_nodes(lo: float, hi: float, order: int) -> np.ndarray:
    """t = c + r cos(theta_i) over [lo, hi], theta_i = (i + 1/2) pi/order."""
    return (lo + hi) / 2 + (hi - lo) / 2 * np.cos((np.arange(order) + 0.5) * np.pi / order)


def _cosine_rule(lo: float, hi: float, order: int, roots, edges, skip):
    """Cosine nodes over [lo, hi] and g' there.

    skip names the interval's own edges, whose factors the substitution
    cancels; (pi/order) * g' then integrates against dt over [lo, hi].
    """
    t = _cosine_nodes(lo, hi, order)
    return t, _g_prime(t, roots, edges, skip)


def _theta(lo: float, hi: float, x: float) -> float:
    """Angle of x under t = c + r cos(theta) over [lo, hi]."""
    return math.acos(min(1.0, max(-1.0, (x - (lo + hi) / 2) / ((hi - lo) / 2))))


def _edge_ray(roots, edges, k: int, length: float, order: int) -> float:
    """Integral of g' from the outer edge e_k (k = 0 or the last) outward by length.

    Under t = e_k -/+ s^2, dt = 2s ds cancels the edge's own factor
    sqrt|t - e_k| = s, leaving a smooth integrand in s.
    """
    xg, wg = _leggauss(order)
    smax = math.sqrt(length)
    sq = 0.5 * smax * (xg + 1.0)
    t = edges[k] + (-1.0 if k == 0 else 1.0) * (sq * sq)
    return float(np.sum(0.5 * smax * wg * 2.0 * _g_prime(t, roots, edges, (k,))))


@dataclass(frozen=True)
class EquilibriumQuadrature:
    """Per-band nodes and weights integrating against the equilibrium measure."""

    nodes: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]
    order: int

    @property
    def all_nodes(self) -> np.ndarray:
        return np.concatenate(self.nodes)

    @property
    def all_weights(self) -> np.ndarray:
        return np.concatenate(self.weights)

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        return float(sum(np.sum(w * f(t)) for t, w in zip(self.nodes, self.weights)))


@dataclass(frozen=True)
class GreenModel:
    """Solved potential data for one GapSet.

    The numerator polynomial is monic with one root per gap; those roots
    are the critical points, so critical_points doubles as the polynomial
    representation.  All quadrature tables are precomputed so that
    evaluation operations are pure reads, apart from the own-band density
    fits, which only equilibrium_m_boundary reads and which are built on
    its first call.
    """

    set: GapSet
    edges: np.ndarray
    critical_points: np.ndarray
    robin: float
    capacity: float
    quad_order: int
    quad: EquilibriumQuadrature  # the band rule at quad_order
    # per-gap period-integral tables; treated as private
    _gap_nodes: tuple[np.ndarray, ...]
    _gap_log_weights: tuple[np.ndarray, ...]

    @cached_property
    def _band_density_cheb(self) -> tuple[np.ndarray, ...]:
        return tuple(_band_cheb(self, k, self.quad_order) for k in range(len(self.set.bands)))


def solve_green(s: GapSet, quad_order: int | None = None) -> GreenModel:
    """Solve the period conditions and assemble all derived quantities."""
    n_gaps = len(s.gaps)
    order = _default_order(n_gaps) if quad_order is None else int(quad_order)
    if order < 32:
        raise ValidationError("quad_order must be at least 32")
    gap_nodes, gap_log_weights = _gap_tables(s, order)

    # relinearize until the roots settle; small gap counts stop after two
    roots = np.array([(lo + hi) / 2 for lo, hi in s.gaps])
    for _ in range(6 if n_gaps else 0):
        delta = _period_correction(roots, gap_nodes, gap_log_weights)
        new_roots = _period_roots(s.gaps, roots, delta)
        moved = float(np.max(np.abs(new_roots - roots))) if n_gaps else 0.0
        roots = new_roots
        if moved <= 1e-14 * (s.beta - s.alpha):
            break
    model = _assemble(s, roots, order, gap_nodes, gap_log_weights)
    worst = float(np.max(np.abs(period_residuals(model)))) if n_gaps else 0.0
    if worst > TOLERANCES["period_residual"]:
        raise NumericalError(
            f"period residual {worst!r} exceeds {TOLERANCES['period_residual']!r}"
        )
    return model


def _gap_tables(s: GapSet, order: int):
    """Per-gap cosine-substitution nodes and log weights for the period integrals.

    The weights (pi/order)/sqrt|R| with the gap's own edges cancelled stay
    logs, log(pi/order) - 1/2 sum_{k not own} log|t - e_k|: past ~500 edges
    they leave double range, and only their sum with log|P| is formed.
    """
    gap_nodes, gap_log_weights = [], []
    for j, (lo, hi) in enumerate(s.gaps):
        t = _cosine_nodes(lo, hi, order)
        _, log_w = _log_g_prime(t, (), s.edges, (2 * j + 1, 2 * j + 2))
        gap_nodes.append(t)
        gap_log_weights.append(math.log(np.pi / order) + log_w)
    return gap_nodes, gap_log_weights


def _lagrange_parts(x: np.ndarray, anchors: np.ndarray, log_weight):
    """w(x) B(x), B = prod_k (x - m_k), and all deflated w B_i = w B/(x - m_i).

    Everything runs through log magnitudes, log w included, so no product
    over/underflows; a point landing exactly on an anchor is handled
    exactly (B vanishes, only the colliding B_i survives).
    """
    d = x[:, None] - anchors[None, :]
    zero = d == 0.0
    logd = np.log(np.where(zero, 1.0, np.abs(d)))
    signd = np.where(zero, 1.0, np.sign(d))
    logmag = np.sum(logd, axis=1) + log_weight
    sign = np.prod(signd, axis=1)
    collided = zero.any(axis=1)
    bfull = np.where(collided, 0.0, sign * np.exp(logmag))
    bi = sign[:, None] * signd * np.exp(logmag[:, None] - logd)
    for l in np.where(collided)[0]:
        cols = np.where(zero[l])[0]
        row = np.zeros(len(anchors))
        if len(cols) == 1:
            row[cols[0]] = sign[l] * np.exp(logmag[l])
        bi[l] = row
    return bfull, bi


def _period_correction(anchors, gap_nodes, gap_log_weights) -> np.ndarray:
    """Solve the linearized period conditions for the correction weights.

    P is written as prod(t - m_k) plus per-gap Lagrange corrections
    delta_i * B_i with B_i = prod_{k != i}(t - m_k); since B_i is large only
    on gap i, the system is near-diagonal regardless of how the gaps
    cluster.  Rows are built gap by gap: stacking all gap nodes into one
    call would make every temporary (gaps * order) x gaps.
    """
    n = len(anchors)
    A = np.empty((n, n))
    rhs = np.empty(n)
    for j in range(n):
        bfull, bi = _lagrange_parts(gap_nodes[j], anchors, gap_log_weights[j])
        rhs[j] = -np.sum(bfull)
        A[j] = np.sum(bi, axis=0)
    scale = np.max(np.abs(A), axis=1)
    scale[scale == 0.0] = 1.0
    try:
        return np.linalg.solve(A / scale[:, None], rhs / scale)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular period-condition system: {exc}") from exc


def _numerator_sign(x: np.ndarray, anchors: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """sign of P(x) = B(x) * (1 + sum_i delta_i / (x - m_i)), vectorized over x.

    Only signs are formed, so nothing over/underflows and no exp is taken.
    At an exact anchor collision x = m_i only delta_i * B_i(x) survives.
    """
    d = x[:, None] - anchors[None, :]
    zero = d == 0.0
    # sign of B, or of the deflated B_i at a collision
    sign_b = np.prod(np.where(zero, 1.0, np.sign(d)), axis=1)
    corr = 1.0 + np.sum(delta / np.where(zero, np.inf, d), axis=1)
    hit = np.sum(np.where(zero, delta, 0.0), axis=1)
    return sign_b * np.where(zero.any(axis=1), np.sign(hit), np.sign(corr))


def _period_roots(gaps, anchors, delta) -> np.ndarray:
    """Root of the corrected P in every gap by one array bisection.

    P changes sign across each gap, and 60 halvings of the gap reach its
    last ulp, so the bisection needs only the sign of P.
    """
    lo, hi = np.array(gaps, dtype=float).T
    sign = partial(_numerator_sign, anchors=anchors, delta=delta)
    fa, fb = sign(lo), sign(hi)
    # a gap edge can coincide exactly with another gap's anchor (dyadic
    # Cantor geometry); step inside for a well-defined sign
    step = 1e-9 * (hi - lo)
    fa = np.where(fa == 0.0, sign(lo + step), fa)
    fb = np.where(fb == 0.0, sign(hi - step), fb)
    # compare signs, never products: P itself sits near 1e-160 on large
    # Cantor sets, where a product of two values underflows to 0
    bad = np.flatnonzero((fa == 0.0) | ((fa > 0) == (fb > 0)))
    if len(bad):
        glo, ghi = gaps[bad[0]]
        raise NumericalError(
            f"numerator does not change sign over gap ({glo}, {ghi}); "
            "period solve is inconsistent"
        )
    sa = fa > 0
    x1, x2 = lo, hi
    for _ in range(60):
        mid = 0.5 * (x1 + x2)
        fm = sign(mid)
        left = (fm == 0.0) | ((fm > 0) != sa)
        x2 = np.where(left, mid, x2)
        x1 = np.where(left, x1, mid)
    return 0.5 * (x1 + x2)


def _band_rule(s: GapSet, roots, order: int) -> EquilibriumQuadrature:
    """dmu_E = |g'|/pi dt per band, its own edge factors cancelled; unit mass."""
    nodes, weights = [], []
    for k, (lo, hi) in enumerate(s.bands):
        t, v = _cosine_rule(lo, hi, order, roots, s.edges, (2 * k, 2 * k + 1))
        nodes.append(t)
        weights.append(np.abs(v) / order)
    quad = EquilibriumQuadrature(tuple(nodes), tuple(weights), order)
    total = float(np.sum(quad.all_weights))
    if abs(total - 1.0) > TOLERANCES["quadrature_mass"]:
        raise NumericalError(
            f"equilibrium weights sum to {total!r}, expected 1; raise quad_order"
        )
    return quad


def _assemble(s, roots, order, gap_nodes, gap_log_weights) -> GreenModel:
    quad = _band_rule(s, roots, order)
    # Robin constant via the potential identity at the probe x0 = beta + diam,
    # one diameter out so the identity is scale-covariant: g(x0) by edge
    # integration, the potential from the equilibrium rule.  Logs are taken
    # in units of h = diam/2, so capacity = h exp(pot - g0) never passes
    # through robin, whose own rounding grows with |log h|.
    h = 0.5 * s.diameter
    x0 = s.beta + s.diameter
    g0 = _edge_ray(roots, s.edges, len(s.edges) - 1, s.diameter, order)
    pot = quad.integrate(lambda t: np.log((x0 - t) / h))
    return GreenModel(
        set=s,
        edges=s.edges,
        critical_points=np.asarray(roots, dtype=float),
        robin=g0 - pot - math.log(h),
        capacity=h * math.exp(pot - g0),
        quad_order=order,
        quad=quad,
        _gap_nodes=tuple(gap_nodes),
        _gap_log_weights=tuple(gap_log_weights),
    )


def period_residuals(model: GreenModel) -> np.ndarray:
    """Per-gap residual of the defining conditions (zero for a solved model)."""
    out = []
    for t, log_w in zip(model._gap_nodes, model._gap_log_weights):
        sign, log_p = _log_g_prime(t, model.critical_points, ())
        out.append(float(np.sum(sign * np.exp(log_p + log_w))))
    return np.asarray(out)


def _gap_arc(model: GreenModel, j: int, th0: float, th1: float) -> float:
    """|integral of g'| over the gap-j arc theta in [th0, th1] of t = c + r cos(theta)."""
    lo, hi = model.set.gaps[j]
    xg, wg = _leggauss(model.quad_order)
    th = 0.5 * (th1 - th0) * (xg + 1.0) + th0
    t = (lo + hi) / 2 + (hi - lo) / 2 * np.cos(th)
    g = _g_prime(t, model.critical_points, model.edges, (2 * j + 1, 2 * j + 2))
    return abs(float(np.sum(0.5 * (th1 - th0) * wg * g)))


def green_value(model: GreenModel, x: float) -> float:
    """g(x): zero on the set, else |integral of g'| from the nearest edge."""
    s = model.set
    loc = locate(s, x)
    if loc.kind == "band":
        return 0.0
    if loc.kind == "gap":
        j = loc.index
        theta_x = _theta(*s.gaps[j], x)
        # integrate over [0, theta_x] from the right edge or [theta_x, pi]
        # from the left edge, whichever side of the maximum x falls on
        if x >= model.critical_points[j]:
            return _gap_arc(model, j, 0.0, theta_x)
        return _gap_arc(model, j, theta_x, np.pi)
    if loc.kind == "right":
        k, length = len(model.edges) - 1, x - s.beta
    else:
        k, length = 0, s.alpha - x
    return abs(_edge_ray(model.critical_points, model.edges, k, length, model.quad_order))


def critical_points(model: GreenModel) -> np.ndarray:
    """One maximum of g per gap; the numerator vanishes exactly there."""
    return model.critical_points.copy()


def pw_sum(model: GreenModel) -> float:
    """Sum of g over the critical points (zero for a gapless set)."""
    return float(sum(green_value(model, c) for c in model.critical_points))


def gap_derivative_l1(model: GreenModel, j: int) -> float:
    """Integral of |g'| across gap j (equals 2 g(c_j) analytically).

    |g'| has a kink at the critical point, so the integral is split there
    and each single-signed half is integrated by Gauss-Legendre in the
    cosine variable.
    """
    if not 0 <= j < len(model.set.gaps):
        raise ValidationError(f"gap index {j} out of range")
    theta_c = _theta(*model.set.gaps[j], model.critical_points[j])
    return _gap_arc(model, j, 0.0, theta_c) + _gap_arc(model, j, theta_c, np.pi)


def equilibrium_density(model: GreenModel, t: float) -> float:
    """Density of the equilibrium measure at an interior band point."""
    loc = locate(model.set, t)
    if loc.kind != "band":
        raise ValidationError(f"density is defined on bands only, got {loc.kind}")
    if t in (model.set.bands[loc.index][0], model.set.bands[loc.index][1]):
        raise ValidationError("density is unbounded at band edges")
    return float(_f_e(model, np.array([t]))[0])


def _f_e(model: GreenModel, t: np.ndarray) -> np.ndarray:
    """Equilibrium density f_E = |g'|/pi at band points, vectorized over t."""
    return np.abs(_g_prime(t, model.critical_points, model.edges)) / np.pi


def equilibrium_quadrature(model: GreenModel, order: int) -> EquilibriumQuadrature:
    """Per-band quadrature for dmu_E at the given order (the model's own at quad_order)."""
    if order < 16:
        raise ValidationError("quadrature order must be at least 16")
    if order == model.quad_order:
        return model.quad
    return _band_rule(model.set, model.critical_points, order)


def _band_cheb(model: GreenModel, k: int, order: int, weight=None) -> np.ndarray:
    """Chebyshev fit in x = (t - c)/r of w * f_E * r sin(theta) on band k.

    Leaving the band's own edge factors out of f_E makes the fitted
    function smooth; it feeds the Glauert principal value.
    """
    lo, hi = model.set.bands[k]
    c, r = (lo + hi) / 2, (hi - lo) / 2

    def phi(x):
        t = c + r * np.asarray(x, dtype=float)
        v = np.abs(_g_prime(t, model.critical_points, model.edges, (2 * k, 2 * k + 1))) / np.pi
        return v if weight is None else np.asarray(weight(t), dtype=float) * v

    return C.chebinterpolate(phi, min(order, 400))


def _band_theta(model: GreenModel, t: float, k: int):
    lo, hi = model.set.bands[k]
    return _theta(lo, hi, t), (hi - lo) / 2


def _glauert_pv(coefs: np.ndarray, theta_t: float, r: float) -> float:
    """PV integral of a cosine series against 1/(cos th - cos th_t).

    Uses the classical identity
        PV int_0^pi cos(m th) / (cos th - cos a) dth = pi sin(m a) / sin(a),
    so a principal value over one band costs one sine series evaluation.
    """
    m = np.arange(len(coefs))
    st = math.sin(theta_t)
    if st == 0.0:
        raise ValidationError("principal value undefined at a band edge")
    return float(np.pi / r * np.sum(coefs * np.sin(m * theta_t)) / st)


def equilibrium_m_boundary(model: GreenModel, t: float) -> complex:
    """Boundary value m_E(t + i0) at an interior band point.

    Real part: principal value of the equilibrium density against 1/(s-t),
    own band via the Glauert identity on its Chebyshev expansion, other
    bands by equilibrium quadrature.  Imaginary part: pi * density.
    """
    loc = locate(model.set, t)
    if loc.kind != "band":
        raise ValidationError(f"boundary values are taken on bands, got {loc.kind}")
    k = loc.index
    theta_t, r = _band_theta(model, t, k)
    re = _glauert_pv(model._band_density_cheb[k], theta_t, r)
    for kk in range(len(model.set.bands)):
        if kk == k:
            continue
        re += float(np.sum(model.quad.weights[kk] / (model.quad.nodes[kk] - t)))
    return complex(re, math.pi * equilibrium_density(model, t))


def interval_stieltjes(alpha: float, beta: float, x: complex) -> complex:
    """Stieltjes transform of the equilibrium (arcsine) measure of [alpha, beta].

    m(x) = -1 / sqrt((x - alpha)(x - beta)) with the branch that is
    Herglotz off the real axis and negative to the right of beta.
    """
    w = np.sqrt(complex(x - alpha)) * np.sqrt(complex(x - beta))
    return complex(-1.0 / w)


def model_to_json(model: GreenModel) -> str:
    """Summary sufficient to re-evaluate g after a table rebuild (no re-solve)."""
    return json.dumps(
        {
            "set": {"alpha": model.set.alpha, "beta": model.set.beta,
                    "gaps": [list(g) for g in model.set.gaps]},
            "numerator": {"form": "monic-roots",
                          "roots": list(map(float, model.critical_points))},
            "critical_points": list(map(float, model.critical_points)),
            "robin": model.robin,
            "capacity": model.capacity,
            "quad_order": model.quad_order,
        },
        sort_keys=True,
    )


def model_from_json(text: str) -> GreenModel:
    obj = json.loads(text)
    s = make_gapset(obj["set"]["alpha"], obj["set"]["beta"], obj["set"]["gaps"])
    order = int(obj["quad_order"])
    roots = np.asarray(obj["numerator"]["roots"], dtype=float)
    return _assemble(s, roots, order, *_gap_tables(s, order))
