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

Singular integrals are tamed by the cosine substitution t = c + r*cos(theta)
(gap and band versions), which cancels the inverse-square-root edge
behaviour exactly.  Edge products are accumulated in log space so that
Cantor-type sets with ~100 edges stay inside double-precision range.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as C

from .errors import NumericalError, ValidationError
from .realset import GapSet, locate, make_gapset

DEFAULT_ORDER_SMALL = 200  # nodes per band/gap for up to 15 gaps
DEFAULT_ORDER_LARGE = 80  # above that, keep 255-gap levels affordable
_GAP_COUNT_SWITCH = 15


@lru_cache(maxsize=64)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _default_order(n_gaps: int) -> int:
    return DEFAULT_ORDER_SMALL if n_gaps <= _GAP_COUNT_SWITCH else DEFAULT_ORDER_LARGE


def _log_edge_product(t: np.ndarray, edges: np.ndarray, skip: tuple[int, ...]) -> np.ndarray:
    """sum_k log|t - e_k| over all edges not in skip, vectorized over t."""
    keep = np.ones(len(edges), dtype=bool)
    for k in skip:
        keep[k] = False
    diffs = np.abs(t[:, None] - edges[None, :][:, keep])
    if np.any(diffs == 0.0):
        raise NumericalError("quadrature node collided with a band edge")
    return np.sum(np.log(diffs), axis=1)


def _signed_root_product(t: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """prod_j (t - c_j) evaluated stably through logs; exact zero at roots."""
    if len(roots) == 0:
        return np.ones_like(t)
    d = t[:, None] - roots[None, :]
    sign = np.prod(np.sign(d), axis=1)
    with np.errstate(divide="ignore"):
        mag = np.sum(np.log(np.abs(d)), axis=1)
    return sign * np.exp(mag)


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
    evaluation operations are pure reads.
    """

    set: GapSet
    edges: np.ndarray
    critical_points: np.ndarray
    robin: float
    capacity: float
    quad_order: int
    # internal tables (band index -> arrays); treated as private
    _band_nodes: tuple[np.ndarray, ...]
    _band_weights: tuple[np.ndarray, ...]
    _band_ds_nodes: tuple[np.ndarray, ...]
    _band_ds_weights: tuple[np.ndarray, ...]
    _band_density_cheb: tuple[np.ndarray, ...]
    _gap_nodes: tuple[np.ndarray, ...]
    _gap_weights: tuple[np.ndarray, ...]

    def numerator(self, t) -> np.ndarray:
        """Evaluate the monic numerator polynomial P at t."""
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = _signed_root_product(arr, self.critical_points)
        return out if np.ndim(t) else float(out[0])


def solve_green(s: GapSet, quad_order: int | None = None) -> GreenModel:
    """Solve the period conditions and assemble all derived quantities."""
    n_gaps = len(s.gaps)
    order = _default_order(n_gaps) if quad_order is None else int(quad_order)
    if order < 32:
        raise ValidationError("quad_order must be at least 32")
    edges = s.edges
    gap_nodes, gap_weights = _gap_tables(s, order)

    # relinearize until the roots settle; small gap counts stop after two
    roots = np.array([(lo + hi) / 2 for lo, hi in s.gaps])
    for _ in range(6 if n_gaps else 0):
        delta = _period_correction(roots, gap_nodes, gap_weights)
        new_roots = _period_roots(s.gaps, roots, delta)
        moved = float(np.max(np.abs(new_roots - roots))) if n_gaps else 0.0
        roots = new_roots
        if moved <= 1e-14 * (s.beta - s.alpha):
            break
    return _assemble(s, edges, roots, order, gap_nodes, gap_weights)


def _gap_tables(s: GapSet, order: int):
    """Per-gap cosine-substitution nodes and weights for the period integrals."""
    cos_t = np.cos((np.arange(order) + 0.5) * np.pi / order)
    gap_nodes, gap_weights = [], []
    for j, (lo, hi) in enumerate(s.gaps):
        t = (lo + hi) / 2 + (hi - lo) / 2 * cos_t
        logp = _log_edge_product(t, s.edges, (2 * j + 1, 2 * j + 2))
        gap_nodes.append(t)
        gap_weights.append((np.pi / order) * np.exp(-0.5 * logp))
    return gap_nodes, gap_weights


def _lagrange_parts(x: np.ndarray, anchors: np.ndarray):
    """B(x) = prod_k (x - m_k) and all deflated products B_i = B/(x - m_i).

    Everything runs through log magnitudes so no product over/underflows;
    a point landing exactly on an anchor is handled exactly (B vanishes,
    only the colliding B_i survives).
    """
    d = x[:, None] - anchors[None, :]
    zero = d == 0.0
    logd = np.log(np.where(zero, 1.0, np.abs(d)))
    signd = np.where(zero, 1.0, np.sign(d))
    logmag = np.sum(logd, axis=1)
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


def _period_correction(anchors, gap_nodes, gap_weights) -> np.ndarray:
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
        t, wt = gap_nodes[j], gap_weights[j]
        bfull, bi = _lagrange_parts(t, anchors)
        rhs[j] = -np.sum(wt * bfull)
        A[j] = wt @ bi
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


def _assemble(s, edges, roots, order, gap_nodes, gap_weights) -> GreenModel:
    b0 = s.beta
    bands = s.bands
    n_gaps = len(s.gaps)

    def pval(t):
        return _signed_root_product(np.asarray(t, dtype=float), roots)

    # per-band equilibrium weights: dmu_E = |P|/(pi sqrt|R|) dt with the
    # band's own edge factors cancelled by the cosine substitution
    theta = (np.arange(order) + 0.5) * np.pi / order
    cos_t = np.cos(theta)
    band_nodes, band_weights, ds_nodes, ds_weights, dens_cheb = [], [], [], [], []
    xg, wg = _leggauss(order)
    for k, (lo, hi) in enumerate(bands):
        c, r = (lo + hi) / 2, (hi - lo) / 2
        t = c + r * cos_t
        logp = _log_edge_product(t, edges, (2 * k, 2 * k + 1))
        band_nodes.append(t)
        band_weights.append(np.abs(pval(t)) * np.exp(-0.5 * logp) / order)
        ds_nodes.append(c + r * xg)
        ds_weights.append(r * wg)

        def phi(x, c=c, r=r, k=k):
            tt = c + r * np.asarray(x, dtype=float)
            lp = _log_edge_product(tt, edges, (2 * k, 2 * k + 1))
            return np.abs(pval(tt)) * np.exp(-0.5 * lp) / np.pi

        dens_cheb.append(C.chebinterpolate(phi, min(order, 400)))

    total = float(sum(np.sum(w) for w in band_weights))
    if abs(total - 1.0) > 1e-10:
        raise NumericalError(
            f"equilibrium weights sum to {total!r}, expected 1; raise quad_order"
        )

    # Robin constant via the potential identity at the probe x0 = beta + diam,
    # one diameter out so the identity is scale-covariant: g(x0) by edge
    # integration in t = beta + s^2, the potential from the equilibrium rule
    smax = math.sqrt(s.diameter)
    x0 = b0 + s.diameter
    sq = 0.5 * smax * (xg + 1.0)
    tq = b0 + sq * sq
    logp = _log_edge_product(tq, edges, (2 * n_gaps + 1,))
    g0 = float(np.sum(0.5 * smax * wg * 2.0 * pval(tq) * np.exp(-0.5 * logp)))
    pot = float(sum(np.sum(w * np.log(x0 - t)) for t, w in zip(band_nodes, band_weights)))
    robin = g0 - pot
    capacity = math.exp(-robin)

    return GreenModel(
        set=s,
        edges=edges,
        critical_points=np.asarray(roots, dtype=float),
        robin=robin,
        capacity=capacity,
        quad_order=order,
        _band_nodes=tuple(band_nodes),
        _band_weights=tuple(band_weights),
        _band_ds_nodes=tuple(ds_nodes),
        _band_ds_weights=tuple(ds_weights),
        _band_density_cheb=tuple(dens_cheb),
        _gap_nodes=tuple(gap_nodes),
        _gap_weights=tuple(gap_weights),
    )


def period_residuals(model: GreenModel) -> np.ndarray:
    """Per-gap residual of the defining conditions (zero for a solved model)."""
    out = []
    for t, w in zip(model._gap_nodes, model._gap_weights):
        out.append(float(np.sum(w * model.numerator(t))))
    return np.asarray(out)


def green_value(model: GreenModel, x: float) -> float:
    """g(x): zero on the set, else |integral of g'| from the nearest edge."""
    s = model.set
    loc = locate(s, x)
    if loc.kind == "band":
        return 0.0
    xg, wg = _leggauss(model.quad_order)
    edges = model.edges
    if loc.kind == "gap":
        j = loc.index
        lo, hi = s.gaps[j]
        c, r = (lo + hi) / 2, (hi - lo) / 2
        cj = model.critical_points[j]
        theta_x = math.acos(min(1.0, max(-1.0, (x - c) / r)))
        # integrate over [0, theta_x] from the right edge or [theta_x, pi]
        # from the left edge, whichever side of the maximum x falls on
        if x >= cj:
            t0, t1 = 0.0, theta_x
        else:
            t0, t1 = theta_x, np.pi
        th = 0.5 * (t1 - t0) * (xg + 1.0) + t0
        t = c + r * np.cos(th)
        logp = _log_edge_product(t, edges, (2 * j + 1, 2 * j + 2))
        val = np.sum(0.5 * (t1 - t0) * wg * model.numerator(t) * np.exp(-0.5 * logp))
        return abs(float(val))
    # unbounded components: t = edge +/- s^2 kills the single edge factor
    if loc.kind == "right":
        smax = math.sqrt(x - s.beta)
        sq = 0.5 * smax * (xg + 1.0)
        t = s.beta + sq * sq
        logp = _log_edge_product(t, edges, (len(edges) - 1,))
    else:
        smax = math.sqrt(s.alpha - x)
        sq = 0.5 * smax * (xg + 1.0)
        t = s.alpha - sq * sq
        logp = _log_edge_product(t, edges, (0,))
    val = np.sum(0.5 * smax * wg * 2.0 * model.numerator(t) * np.exp(-0.5 * logp))
    return abs(float(val))


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
    lo, hi = model.set.gaps[j]
    c, r = (lo + hi) / 2, (hi - lo) / 2
    cj = model.critical_points[j]
    theta_c = math.acos(min(1.0, max(-1.0, (cj - c) / r)))
    xg, wg = _leggauss(model.quad_order)
    total = 0.0
    for t0, t1 in ((0.0, theta_c), (theta_c, np.pi)):
        th = 0.5 * (t1 - t0) * (xg + 1.0) + t0
        t = c + r * np.cos(th)
        logp = _log_edge_product(t, model.edges, (2 * j + 1, 2 * j + 2))
        total += abs(float(np.sum(0.5 * (t1 - t0) * wg * model.numerator(t) * np.exp(-0.5 * logp))))
    return total


def equilibrium_density(model: GreenModel, t: float) -> float:
    """Density of the equilibrium measure at an interior band point."""
    loc = locate(model.set, t)
    if loc.kind != "band":
        raise ValidationError(f"density is defined on bands only, got {loc.kind}")
    if t in (model.set.bands[loc.index][0], model.set.bands[loc.index][1]):
        raise ValidationError("density is unbounded at band edges")
    logp = _log_edge_product(np.array([t]), model.edges, ())
    return float(abs(model.numerator(t)) * math.exp(-0.5 * logp[0]) / math.pi)


def equilibrium_quadrature(model: GreenModel, order: int) -> EquilibriumQuadrature:
    """Fresh per-band quadrature for dmu_E at the given order."""
    if order < 16:
        raise ValidationError("quadrature order must be at least 16")
    theta = (np.arange(order) + 0.5) * np.pi / order
    cos_t = np.cos(theta)
    nodes, weights = [], []
    for k, (lo, hi) in enumerate(model.set.bands):
        c, r = (lo + hi) / 2, (hi - lo) / 2
        t = c + r * cos_t
        logp = _log_edge_product(t, model.edges, (2 * k, 2 * k + 1))
        nodes.append(t)
        weights.append(np.abs(model.numerator(t)) * np.exp(-0.5 * logp) / order)
    quad = EquilibriumQuadrature(tuple(nodes), tuple(weights), order)
    total = float(np.sum(quad.all_weights))
    if abs(total - 1.0) > 1e-10:
        raise NumericalError(f"equilibrium weights sum to {total!r}, expected 1")
    return quad


def _band_theta(model: GreenModel, t: float, k: int):
    lo, hi = model.set.bands[k]
    c, r = (lo + hi) / 2, (hi - lo) / 2
    xt = (t - c) / r
    return math.acos(min(1.0, max(-1.0, xt))), r


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
        re += float(np.sum(model._band_weights[kk] / (model._band_nodes[kk] - t)))
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
    return _assemble(s, s.edges, roots, order, *_gap_tables(s, order))
