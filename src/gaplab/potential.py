"""Green's function with pole at infinity for the complement of a GapSet.

The solver parametrizes the Green's function through its derivative

    g'(x) = P(x) / sqrt(R(x)),   R(t) = prod_k (t - e_k),

where e_0..e_{2N+1} are the band edges and P is the monic degree-N
polynomial fixed by the N period conditions

    integral over gap_j of P(t)/sqrt(|R(t)|) dt = 0.

P has exactly one root per gap (the critical points of g), so it is
represented by those roots; coefficient bases degrade catastrophically
once tiny Cantor gaps cluster.  A solve pass anchors P = B + sum_i
delta_i B_i at the current root guesses m_k, B = prod_k (t - m_k) and
B_i = B/(t - m_i), and uses one deflated numerator per gap,

    f_j = P/B_j = (t - m_j)(1 + sum_{i != j} delta_i/(t - m_i)) + delta_j,

B_j being free of zeros on gap j.  Gap j's period condition is a row
linear in delta with node weights w |B_j|, and the new root in gap j is
a bracketed Newton step on f_j (a step that leaves the bracket becomes
its midpoint); f_j is formed from sums, never from a product.  Two passes
(midpoints, then the found roots) reach machine-level period residuals.

Every weight, density and Green integral is g' itself with the edge
factors its substitution cancels left out, from log-sums: the root and
edge log-sums meet in a single exp, so the quotient stays in range where
either product alone over- or underflows.  The period weights, which have
no root factors, stay logs until they meet log|P| or log|B_j|.  At
arbitrary points (rays, gap arcs, densities, m_E) the sums are
_log_g_prime's, one direct sum over every root and edge.  At the cosine
nodes of whole interval families (the band rule, the period tables and
rows, the residual gate) they are _log_sums's: the sources within _FAR
half-lengths of an interval are summed directly, the rest at p <= 9
Chebyshev proxy points sized by the Bernstein ellipse through the
nearest of them and interpolated, and intervals sharing (order, p) go
as one batch of _ARC_BLOCK-entry pieces (a one-level fast-multipole
split, Greengard and Rokhlin, J. Comput. Phys. 73, 1987).  An interval
with no far source is _log_g_prime's sum, bit for bit.  Singular integrals
are tamed by the cosine substitution t = c + r*cos(theta) (gap and band
versions), which cancels the inverse-square-root edge behaviour exactly,
and on the unbounded components by t = e +/- s^2.  After the substitution
a gap integrand is analytic out to the nearest foreign edge, so each gap
gets the order that edge's Bernstein ellipse needs for 1e-15 (at least
32); an explicit quad_order sets every order.  An outer ray is sized from
the edge one outer band inside, never below the band order.
"""

from __future__ import annotations

import bisect
import cmath
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NumericalError, ValidationError
from .realset import GapSet, edge_slots, locate, make_gapset

DEFAULT_ORDER_SMALL = 200  # nodes per band/gap for up to 15 gaps
DEFAULT_ORDER_LARGE = 80  # above that, keep 255-gap levels affordable
_GAP_COUNT_SWITCH = 15
GAP_ORDER_FLOOR = 32  # smallest per-gap order; also the smallest quad_order
_GAP_ORDER_CAP = 1024  # largest default per-gap order, to bound a table's size
_GAP_RULE_TARGET = 1e-15  # error the per-gap orders are sized for
_SOLVE_PASSES = 6  # cap on linearized period-solve passes
_ROOT_SWEEPS = 100  # cap on Newton/bisection sweeps per pass
_ARC_BLOCK = 80 * 765  # entries per log-sum chunk: one level-8 band-rule block
_FAR = 32.0  # sources within _FAR half-lengths of an interval are summed directly

# numeric gates enforced across the package, echoed into CLI JSON metadata
TOLERANCES = {
    "period_residual": 1e-10,  # max |period residual| after solve_green
    "quadrature_mass": 1e-10,  # |total equilibrium weight - 1|
    "eigenvalue_abs": 1e-12,  # certified brackets close to a tenth of this * max(1, |x|)
    "eigenvalue_stability": 1e-8,  # matching across truncation sizes
}


@lru_cache(maxsize=64)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _default_order(n_gaps: int) -> int:
    return DEFAULT_ORDER_SMALL if n_gaps <= _GAP_COUNT_SWITCH else DEFAULT_ORDER_LARGE


def _gap_orders(s: GapSet) -> tuple[int, ...]:
    """Cosine-rule order per gap for the period tables and the gap arcs.

    Under t = c + r cos(theta) the gap's own edges cancel and P is a
    polynomial, so the integrand is analytic inside the Bernstein ellipse
    through the nearest foreign edge, at distance D (the shorter adjacent
    band): rho = a + sqrt(a^2 - 1), a = 1 + D/r, and the error falls like
    rho^(-2n).  n = ceil(ln(1/target) / (2 ln rho)), within
    [GAP_ORDER_FLOOR, _GAP_ORDER_CAP].  The band order is no bound: a wide
    gap beside a band ~1e-4 its size needs ~600 nodes, where 200 leave a
    period residual of 2e-6 that no gate sees.
    """
    if not s.gaps:
        return ()
    lengths = np.diff(s.edges)
    r = 0.5 * lengths[1::2]
    u = np.minimum(lengths[0:-1:2], lengths[2::2]) / r  # a - 1
    return tuple(int(k) for k in _ellipse_orders(np.log1p(u + np.sqrt(u * (u + 2.0)))))


def _ellipse_orders(log_rho):
    """Rule orders for _GAP_RULE_TARGET inside Bernstein ellipses of radius exp(log_rho)."""
    n = np.ceil(-math.log(_GAP_RULE_TARGET) / (2.0 * log_rho))
    return np.minimum(np.maximum(n, GAP_ORDER_FLOOR), _GAP_ORDER_CAP).astype(int)


def _log_g_prime(t: np.ndarray, roots, edges, skip: tuple[int, ...] = ()):
    """sign and log|g'(t)| with the edge factors in skip left out.

    log|g'| = sum_j log|t - c_j| - 1/2 sum_{k not in skip} log|t - e_k|,
    vectorized over t; -inf at a root.  With no edges this is P.
    """
    t = np.asarray(t, dtype=float)
    d = t[:, None] - np.asarray(roots, dtype=float)
    with np.errstate(divide="ignore"):
        logmag = np.log(np.abs(d)).sum(axis=1)
    if len(edges):
        if len(skip):
            keep = np.ones(len(edges), dtype=bool)
            keep[list(skip)] = False
            edges = edges[keep]
        diffs = np.abs(t[:, None] - edges)
        if (diffs == 0.0).any():
            raise NumericalError("quadrature node collided with a band edge")
        logmag = logmag - 0.5 * np.log(diffs).sum(axis=1)
    return np.sign(d).prod(axis=1), logmag


def _near_sums(x: np.ndarray, src: np.ndarray, coef: np.ndarray, start, stop, own) -> np.ndarray:
    """sum_k coef_k log|x[i] - src_k| over src[start[i]:stop[i]] but src[own[i]].

    A left-out source reads log 1 = 0, so a node on it does no harm; a node
    on a kept root reads -inf.  Temporaries are _ARC_BLOCK entries a piece.
    """
    width = int(np.max(stop - start))
    out = np.empty(x.shape)
    for b, e in _blocks(*x.shape, width):
        win = start[b, None] + np.arange(width)
        keep = (win < stop[b, None]) & np.all(win[:, :, None] != own[b, None, :], axis=2)
        np.minimum(win, len(src) - 1, out=win)
        a = x[b, e, None] - src[win][:, None, :]
        np.abs(a, out=a)
        np.copyto(a, 1.0, where=~keep[:, None, :])
        np.log(a, out=a)
        np.multiply(a, coef[win][:, None, :], out=a)  # by 1 or -1/2, exact
        out[b, e] = np.sum(a, axis=-1)
        del a  # before the next piece is allocated
    return out


def _far_sums(c: np.ndarray, offsets: np.ndarray, src: np.ndarray, coef: np.ndarray, start, stop):
    """Sums of coef log|c + offset - s| over the sources s outside
    src[start[i]:stop[i]]: one sum of log|c - s| per row and one of
    log1p(offset/(c - s)) per offset.

    Every such source is beyond _FAR r of the interval, so each log1p
    term is below 1/_FAR and its rounding error far below that of
    log|x - s|, and the large part, log|c - s|, is one sum per row.  A
    block of rows holds its (rows, offsets, sources) temporary and two
    (rows, sources) ones within _ARC_BLOCK entries.
    """
    k = np.arange(len(src))
    base, var = np.empty((len(c), 1)), np.empty(offsets.shape)
    for b, _ in _blocks(len(c), 1, (offsets.shape[1] + 2) * len(src)):
        near = (k >= start[b, None]) & (k < stop[b, None])
        d = c[b, None] - src
        np.copyto(d, 1.0, where=near)
        inv = np.reciprocal(d)
        np.copyto(inv, 0.0, where=near)
        np.abs(d, out=d)
        np.log(d, out=d)
        base[b, 0] = np.sum(np.multiply(d, coef, out=d), axis=1)
        y = offsets[b, :, None] * inv[:, None, :]
        var[b] = np.log1p(y, out=y) @ coef
        del d, inv, y  # before the next piece is allocated
    return base, var


def _blocks(rows: int, cols: int, width: int):
    """Row and column slices of a (rows, cols, width) temporary, _ARC_BLOCK entries a piece."""
    step_r = max(1, _ARC_BLOCK // max(1, cols * width))
    step_c = max(1, min(cols, _ARC_BLOCK // max(1, width)))
    for a in range(0, rows, step_r):
        for b in range(0, cols, step_c):
            yield slice(a, a + step_r), slice(b, b + step_c)


@lru_cache(maxsize=64)
def _cheb_interp(p: int, n: int):
    """(n x p) barycentric matrices from p to n first-kind Chebyshev points:
    the interpolant's values and its derivatives at the nodes.

    Both point sets are cos((i + 1/2) pi/count) on [-1, 1], so the matrices
    depend on (p, n) alone.  A node on a proxy point, where (2i + 1) p =
    (2k + 1) n, gets that point's unit row and the derivative row of the
    Lagrange basis there.
    """
    i, k = np.arange(n)[:, None], np.arange(p)[None, :]
    hit = (2 * i + 1) * p == (2 * k + 1) * n
    d = _cos_points(n)[:, None] - _cos_points(p)
    d[hit] = 1.0
    w = (-1.0) ** k * np.sin((k + 0.5) * np.pi / p)
    c = w / d
    total = np.sum(c, axis=1, keepdims=True)
    values = c / total
    slopes = values * (np.sum(c / d, axis=1, keepdims=True) / total - 1.0 / d)
    rows = np.any(hit, axis=1)
    values[rows] = hit[rows]
    own = np.where(hit[rows], 0.0, c[rows] / np.sum(w * hit[rows], axis=1, keepdims=True))
    slopes[rows] = np.where(hit[rows], -np.sum(own, axis=1, keepdims=True), own)
    values.flags.writeable = slopes.flags.writeable = False  # shared through the cache
    return values, slopes


def _log_sums(lo, hi, orders, roots, edges, skip):
    """_log_g_prime at the cosine nodes of many intervals at once: the near
    field summed, the far field interpolated from proxy points.

    Interval i is (lo[i], hi[i]) with orders[i] nodes c + r cos(theta); the
    factors skip[i] (indices into roots ++ edges: its own edges, or its own
    root) are left out.  Returns the nodes and the log-sums, each flat,
    interval after interval.

    A source within _FAR r of the interval is near.  An interval with
    every source near is _log_g_prime itself, bit for bit; that is every
    interval of a set of a few comparable bands.  For the others the sources are
    sorted once, the near ones are a contiguous range found by
    searchsorted and summed at the nodes, and the far ones, analytic inside
    the Bernstein ellipse through the nearest of them (rho > 2 _FAR), are
    summed at p first-kind Chebyshev proxy points, rho^-p <=
    _GAP_RULE_TARGET, and carried to the nodes by _cheb_interp, with one
    step along its derivative for the nodes' own rounding.  Intervals
    sharing (order, p) are one batch.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    orders, skip = np.asarray(orders, dtype=int), np.asarray(skip, dtype=int)
    roots = np.asarray(roots, dtype=float)
    src = np.concatenate([roots, edges])
    sizes = orders.tolist()
    t, logsum = np.empty(sum(sizes)), np.empty(sum(sizes))
    if not sizes:
        return t, logsum
    lowest, highest, n_roots = src.min(), src.max(), len(roots)
    step = max(1, _ARC_BLOCK // len(src))  # nodes per _log_g_prime call
    batch, end = [], 0
    for i, (a, b, n, own) in enumerate(zip(lo.tolist(), hi.tolist(), sizes, skip.tolist())):
        reach, end = _FAR * ((b - a) / 2), end + n
        if a - reach > lowest or b + reach < highest:
            batch.append(i)
            continue
        # every source is near: _log_g_prime itself, in pieces of at most _ARC_BLOCK entries
        kept = roots[np.arange(n_roots) != own[0]] if own and own[0] < n_roots else roots  # own root
        skipped = [j - n_roots for j in own if j >= n_roots]
        t[end - n:end] = _cosine_nodes(a, b, n)
        for e in range(end - n, end, step):
            piece = slice(e, min(e + step, end))
            logsum[piece] = _log_g_prime(t[piece], kept, edges, skipped)[1]
    if batch:
        batch, first = np.array(batch), np.cumsum(orders) - orders
        c, r = (lo + hi) / 2, (hi - lo) / 2
        perm = np.argsort(src, kind="stable")
        rank = np.empty_like(perm)
        rank[perm] = np.arange(len(src))
        own, src, coef = rank[skip], src[perm], np.where(perm < len(roots), 1.0, -0.5)
        start = np.searchsorted(src, lo - _FAR * r, side="left")
        stop = np.searchsorted(src, hi + _FAR * r, side="right")
        padded = np.concatenate([[-np.inf], src, [np.inf]])
        u = np.minimum(lo - padded[start], padded[stop + 1] - hi) / r  # a - 1 at the nearest far source
        p = np.ceil(-math.log(_GAP_RULE_TARGET) / np.log1p(u + np.sqrt(u * (u + 2.0)))).astype(int)
        for n, q in sorted(set(zip(orders[batch].tolist(), p[batch].tolist()))):
            idx = batch[(orders[batch] == n) & (p[batch] == q)]
            nodes = _cosine_nodes(lo[idx, None], hi[idx, None], n)
            with np.errstate(divide="ignore"):
                total = _near_sums(nodes, src, coef, start[idx], stop[idx], own[idx])
            base, var = _far_sums(c[idx], r[idx, None] * _cos_points(q), src, coef, start[idx], stop[idx])
            values, slopes = _cheb_interp(q, n)
            # the nodes sit off c + r cos(theta) by their rounding: one derivative step
            shift = (nodes - c[idx, None]) / r[idx, None] - _cos_points(n)
            shift *= var @ slopes.T
            total += base
            total += var @ values.T
            total += shift
            out = (first[idx, None] + np.arange(n)).ravel()
            t[out], logsum[out] = nodes.ravel(), total.ravel()
    return t, logsum


def _g_prime(t: np.ndarray, roots, edges, skip: tuple[int, ...] = ()) -> np.ndarray:
    """g'(t) = P(t)/sqrt|R(t)| from one exp of _log_g_prime; exactly zero at a root."""
    sign, logmag = _log_g_prime(t, roots, edges, skip)
    return sign * np.exp(logmag)


def _cosine_nodes(lo, hi, order: int) -> np.ndarray:
    """t = c + r cos(theta_i) over [lo, hi], theta_i = (i + 1/2) pi/order.

    Columns lo, hi give one row of nodes per interval.
    """
    return (lo + hi) / 2 + (hi - lo) / 2 * _cos_points(order)


@lru_cache(maxsize=256)
def _cos_points(n: int) -> np.ndarray:
    """cos((i + 1/2) pi/n), i < n: the first-kind Chebyshev points, read-only."""
    x = np.cos((np.arange(n) + 0.5) * np.pi / n)
    x.flags.writeable = False
    return x


def _theta(lo: float, hi: float, x: float) -> float:
    """Angle of x under t = c + r cos(theta) over [lo, hi]."""
    return math.acos(min(1.0, max(-1.0, (x - (lo + hi) / 2) / ((hi - lo) / 2))))


def _edge_ray(roots, edges, k: int, length: float, order: int) -> float:
    """Integral of g' from the outer edge e_k (k = 0 or the last) outward by length.

    Under t = e_k -/+ s^2, dt = 2s ds cancels the edge's own factor
    sqrt|t - e_k| = s, leaving a smooth integrand in s.  The edge one outer
    band (length eps) inside puts branch points at s = +/- i sqrt(eps), at
    z = -1 + 2i sqrt(eps/length) in the rule's variable; the rule takes the
    larger of order and the order of their Bernstein ellipse.  g' is
    evaluated in calls of at most _ARC_BLOCK entries.
    """
    eps = abs(edges[k] - edges[1 if k == 0 else k - 1])
    z = complex(-1.0, 2.0 * math.sqrt(eps / length))
    w = cmath.sqrt(z * z - 1.0)
    xg, wg = _leggauss(max(order, int(_ellipse_orders(math.log(max(abs(z + w), abs(z - w)))))))
    smax = math.sqrt(length)
    sq = 0.5 * smax * (xg + 1.0)
    t = edges[k] + (-1.0 if k == 0 else 1.0) * (sq * sq)
    step = max(1, _ARC_BLOCK // (len(roots) + len(edges)))  # nodes per _g_prime call
    g = np.concatenate([_g_prime(t[i:i + step], roots, edges, (k,)) for i in range(0, len(t), step)])
    return float(np.sum(0.5 * smax * wg * 2.0 * g))


@dataclass(frozen=True)
class EquilibriumQuadrature:
    """Per-band nodes and weights integrating against the equilibrium measure."""

    nodes: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]
    order: int

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
    representation.  The band rule is precomputed; the period tables are
    rebuilt from gap_orders by period_residuals, their only later reader.
    """

    set: GapSet
    edges: np.ndarray
    critical_points: np.ndarray
    robin: float
    capacity: float
    quad_order: int
    quad: EquilibriumQuadrature  # the band rule at quad_order
    gap_orders: tuple[int, ...]  # per-gap order of the period tables and gap arcs
    solve_passes: int  # linearized period-solve passes run (0: roots given)
    root_move: float  # largest root change in the last pass; above 1e-14 * diam the cap was hit
    period_residual: float  # largest |period residual|, what the solve's gate read
    mass_error: float  # |band-rule mass - 1|, what the mass gate read


def solve_green(s: GapSet, quad_order: int | None = None) -> GreenModel:
    """Solve the period conditions and assemble all derived quantities."""
    n_gaps = len(s.gaps)
    if quad_order is None:
        order = _default_order(n_gaps)
        gap_orders = _gap_orders(s)
    else:
        order = int(quad_order)
        if order < GAP_ORDER_FLOOR:
            raise ValidationError(f"quad_order must be at least {GAP_ORDER_FLOOR}")
        gap_orders = (order,) * n_gaps
    # relinearize until the roots settle; small gap counts stop after two
    roots = np.array([(lo + hi) / 2 for lo, hi in s.gaps])
    passes, moved, worst = 0, 0.0, 0.0
    if n_gaps:
        tables = _gap_tables(s, gap_orders)
        while passes < _SOLVE_PASSES:
            delta = _period_correction(roots, *tables)
            new_roots = _period_roots(s.gaps, roots, delta)
            moved = float(np.max(np.abs(new_roots - roots)))
            roots = new_roots
            passes += 1
            if moved <= 1e-14 * (s.beta - s.alpha):
                break
        worst = float(np.max(np.abs(_period_residuals(roots, *tables))))
        if worst > TOLERANCES["period_residual"]:
            raise NumericalError(
                f"period residual {worst!r} exceeds {TOLERANCES['period_residual']!r}"
            )
    return _assemble(s, roots, order, gap_orders, passes, moved, worst)


def _gap_tables(s: GapSet, gap_orders):
    """Gap ends, orders and cosine-substitution log weights for the period integrals.

    Gap j gets gap_orders[j] nodes.  The weights (pi/order)/sqrt|R| with the
    gap's own edges cancelled stay logs, log(pi/order) - 1/2 sum_{k not own}
    log|t - e_k|, flat gap after gap: past ~500 edges they leave double
    range, and only their sum with log|P| is formed.
    """
    lo, hi, orders = s.edges[1:-1:2], s.edges[2:-1:2], np.asarray(gap_orders, dtype=int)
    own = np.arange(1, len(s.edges) - 1).reshape(-1, 2)
    _, log_w = _log_sums(lo, hi, orders, (), s.edges, own)
    return lo, hi, orders, np.repeat(np.log(np.pi / orders), orders) + log_w


def _period_correction(anchors, lo, hi, orders, log_w) -> np.ndarray:
    """Solve the linearized period conditions for the correction weights.

    P = B + sum_i delta_i B_i with B = prod_k (t - m_k) and B_i = B/(t - m_i),
    so gap j's condition sum_t w P = 0 is sum_t w B_j f_j = 0 with the
    deflated f_j = P/B_j of _deflated_numerator, linear in delta.  B_j has
    no zero on gap j, so its sign is the same at every node and is dropped,
    flipping the row and its right-hand side together.  The node weights
    v = w |B_j| (log|B_j| from _log_sums, the own anchor skipped) are
    shifted by their gap's largest log, which makes the diagonal sum
    v >= 1.  A node on m_j only zeroes its factor t - m_j, and no node meets
    another anchor.  The Cauchy columns sum_t v u/(t - m_i) are one matrix
    product per chunk of whole gaps of at most _ARC_BLOCK entries (a chunk
    holds at least one gap).
    """
    n = len(anchors)
    t, log_b = _log_sums(lo, hi, orders, anchors, (), np.arange(n)[:, None])
    gap, ends = np.repeat(np.arange(n), orders), np.cumsum(orders)
    starts = ends - orders
    log_v = log_w + log_b  # log w|B_j|
    v = np.exp(log_v - np.maximum.reduceat(log_v, starts)[gap])
    vu = v * (t - anchors[gap])
    A, j, ends, starts = np.empty((n, n)), 0, ends.tolist(), starts.tolist()
    while j < n:  # whole gaps, _ARC_BLOCK entries a chunk where they fit
        k = max(j + 1, bisect.bisect_right(ends, starts[j] + _ARC_BLOCK // n))
        rows = slice(starts[j], ends[k - 1])
        inv = _deflated_terms(t[rows], gap[rows], anchors)[1]
        block = np.zeros((k - j, rows.stop - rows.start))  # gap j + i's row of vu
        block[gap[rows] - j, np.arange(rows.stop - rows.start)] = vu[rows]
        A[j:k] = block @ inv
        del inv  # before the next chunk is allocated
        j = k
    A.flat[::n + 1] = np.add.reduceat(v, starts)
    rhs = -np.add.reduceat(vu, starts)
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular period-condition system: {exc}") from exc


def _deflated_terms(x: np.ndarray, idx, anchors: np.ndarray):
    """x - m_j and 1/(x - m_i) with the own column i = j zero, for gap j = idx[r] at x[r]."""
    d = x[:, None] - anchors[None, :]
    d[np.arange(len(x)), idx] = np.inf  # leave out i = j
    return x - anchors[idx], np.reciprocal(d, out=d)


def _deflated_numerator(x: np.ndarray, idx: np.ndarray, anchors: np.ndarray, delta: np.ndarray):
    """f_j(x) = P(x)/B_j(x) and f_j'(x) for gap j = idx[r] at x[r], vectorized.

    With B_j = prod_{k != j}(x - m_k) and P = B + sum_i delta_i B_i,

        f_j(x) = (x - m_j)(1 + sum_{i != j} delta_i/(x - m_i)) + delta_j.

    Every other anchor lies in its own gap and gap closures are disjoint, so
    B_j has no zero on gap j and f_j has exactly P's root there; no product
    is formed, so nothing over- or underflows.
    """
    u, inv = _deflated_terms(x, idx, anchors)
    s = 1.0 + inv @ delta
    return u * s + delta[idx], s - u * ((inv * inv) @ delta)


def _period_roots(gaps, anchors, delta) -> np.ndarray:
    """Root of the corrected P in every gap by a bracketed Newton step on f_j.

    Each gap keeps a sign-change bracket of f_j, starting from its edges;
    Newton starts at the anchor, and a step that leaves the bracket becomes
    the bracket's midpoint.  A gap is done once its step or its bracket is
    within 2 ulps; one still open after _ROOT_SWEEPS sweeps is an error.
    """
    lo, hi = np.array(gaps, dtype=float).T
    active = np.arange(len(lo))
    f_lo = _deflated_numerator(lo, active, anchors, delta)[0]
    f_hi = _deflated_numerator(hi, active, anchors, delta)[0]
    bad = np.flatnonzero(np.sign(f_lo) * np.sign(f_hi) >= 0.0)
    if len(bad):
        glo, ghi = gaps[bad[0]]
        raise NumericalError(
            f"numerator does not change sign over gap ({glo}, {ghi}); "
            "period solve is inconsistent"
        )
    side_hi = np.sign(f_hi)
    x = np.array(anchors, dtype=float)
    for _ in range(_ROOT_SWEEPS):
        xa = x[active]
        f, fp = _deflated_numerator(xa, active, anchors, delta)
        left = np.sign(f) == side_hi[active]  # the root lies left of xa
        lo[active] = np.where(left, lo[active], xa)
        hi[active] = np.where(left, xa, hi[active])
        a, b = lo[active], hi[active]
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = xa - f / fp
        tol = 2.0 * np.spacing(np.maximum(np.abs(a), np.abs(b)))
        # a step this short may round onto xa, a bracket end: it converged
        small = np.abs(newton - xa) <= tol
        new = np.where((newton > a) & (newton < b), newton, 0.5 * (a + b))
        new = np.where(small, np.clip(newton, a, b), new)
        root = f == 0.0
        x[active] = np.where(root, xa, new)
        active = active[~(root | small | (b - a <= tol))]
        if not len(active):
            return x
    glo, ghi = gaps[active[0]]
    raise NumericalError(
        f"root step did not converge in gap ({glo}, {ghi}) after {_ROOT_SWEEPS} sweeps"
    )


def _band_rule(s: GapSet, roots, order: int) -> EquilibriumQuadrature:
    """dmu_E = |g'|/pi dt per band, its own edge factors cancelled; unit mass.

    The band's own edges are skipped in g', because the cosine substitution
    cancels their factors; (pi/order) * g' then integrates against dt.
    """
    bands = len(s.edges) // 2
    own = len(roots) + np.arange(2 * bands).reshape(-1, 2)
    t, log_g = _log_sums(s.edges[0::2], s.edges[1::2], np.full(bands, order), roots, s.edges, own)
    w = np.exp(log_g)
    w /= order
    quad = EquilibriumQuadrature(tuple(t.reshape(bands, order)), tuple(w.reshape(bands, order)), order)
    total = float(w.sum())
    if abs(total - 1.0) > TOLERANCES["quadrature_mass"]:
        raise NumericalError(
            f"equilibrium weights sum to {total!r}, expected 1; raise quad_order"
        )
    return quad


def _assemble(s, roots, order, gap_orders, passes, moved, residual) -> GreenModel:
    quad = _band_rule(s, roots, order)
    # Robin constant via the potential identity at the probe x0 = beta + diam,
    # one diameter out so the identity is scale-covariant: g(x0) by edge
    # integration, the potential from the equilibrium rule divided by its
    # mass, so the rule's mass error does not enter.  Logs are taken in
    # units of h = diam/2, so capacity = h exp(pot - g0) never passes
    # through robin, whose own rounding grows with |log h|.
    h = 0.5 * s.diameter
    x0 = s.beta + s.diameter
    g0 = _edge_ray(roots, s.edges, len(s.edges) - 1, s.diameter, order)
    mass = float(np.sum(quad.all_weights))
    pot = quad.integrate(lambda t: np.log((x0 - t) / h)) / mass
    return GreenModel(
        set=s,
        edges=s.edges,
        critical_points=np.asarray(roots, dtype=float),
        robin=g0 - pot - math.log(h),
        capacity=h * math.exp(pot - g0),
        quad_order=order,
        quad=quad,
        gap_orders=tuple(gap_orders),
        solve_passes=passes,
        root_move=moved,
        period_residual=residual,
        mass_error=abs(mass - 1.0),
    )


def period_residuals(model: GreenModel) -> np.ndarray:
    """Per-gap residual of the defining conditions (zero for a solved model)."""
    return _period_residuals(model.critical_points, *_gap_tables(model.set, model.gap_orders))


def _period_residuals(roots, lo, hi, orders, log_w) -> np.ndarray:
    """sum of w P over each gap's nodes; P's sign is (-1)^(roots right of t)."""
    t, log_p = _log_sums(lo, hi, orders, roots, (), np.empty((len(lo), 0), dtype=int))
    right = len(roots) - np.searchsorted(roots, t, side="right")
    terms = np.where(right % 2, -1.0, 1.0) * np.exp(log_p + log_w)
    return np.add.reduceat(terms, np.cumsum(orders) - orders)


def _gap_arc(model: GreenModel, j: int, th0: np.ndarray, th1: np.ndarray) -> np.ndarray:
    """|integral of g'| over each gap-j arc theta in [th0[i], th1[i]] of t = c + r cos(theta).

    Each arc is one row of gap_orders[j] Gauss-Legendre nodes; the rows go
    through _g_prime with the gap's own edges skipped, in chunks of rows
    whose (nodes x factors) temporaries stay within _ARC_BLOCK entries (a
    chunk holds at least one row).
    """
    lo, hi = model.set.gaps[j]
    c, r = (lo + hi) / 2, (hi - lo) / 2
    xg, wg = _leggauss(model.gap_orders[j])
    half = 0.5 * (th1 - th0)
    rows = max(1, _ARC_BLOCK // (len(xg) * (len(model.edges) + len(model.critical_points))))
    out = np.empty(len(half))
    for i in range(0, len(half), rows):
        h, a = half[i:i + rows, None], th0[i:i + rows, None]
        t = c + r * np.cos(h * (xg + 1.0) + a)
        g = _g_prime(t.ravel(), model.critical_points, model.edges, (2 * j + 1, 2 * j + 2))
        out[i:i + rows] = np.abs((h * wg * g.reshape(t.shape)).sum(axis=1))
    return out


def green_value(model: GreenModel, x):
    """g(x): a float for a float, else an array of x's shape; zero on the set.

    The points of gap j, found by edge_slots, go to one _gap_arc call, each
    on the arc from x to the edge on its side of the maximum c_j.  A point
    outside [alpha, beta] by less than the diameter takes its own edge ray,
    sized from its length.  The points farther out read the Robin probe's
    identity g(x) = robin + int log|x - t| dmu_E on the band rule over its
    mass, in one batch: a ray that long needs more nodes than any rule
    order allows.
    """
    s, edges, roots = model.set, model.edges, model.critical_points
    xs = np.asarray(x, dtype=float).ravel()
    slots = edge_slots(s, xs)
    slots[np.maximum(s.alpha - xs, xs - s.beta) >= s.diameter] = -1  # far field
    groups = {}  # point indices by slot, in input order
    for i, slot in enumerate(slots.tolist()):
        groups.setdefault(slot, []).append(i)
    out = np.zeros(len(xs))
    for slot, idx in groups.items():
        if slot == -1:  # row sums in ~_ARC_BLOCK chunks: a point's bits ignore its batch
            t, w = np.concatenate(model.quad.nodes), model.quad.all_weights
            mass = np.sum(w)  # as in the Robin probe
            chunks = min(len(idx), math.ceil(len(idx) * len(t) / _ARC_BLOCK))
            for rows in np.array_split(idx, chunks):
                out[rows] = model.robin + np.sum(w * np.log(np.abs(xs[rows, None] - t)), axis=1) / mass
        elif slot in (0, len(edges)):
            k = 0 if slot == 0 else len(edges) - 1
            for i in idx:
                out[i] = abs(_edge_ray(roots, edges, k, abs(xs[i] - edges[k]), model.quad_order))
        elif slot % 2 == 0:
            j, (lo, hi) = slot // 2 - 1, s.gaps[slot // 2 - 1]
            c = float(roots[j])  # arc [0, theta] from the right edge, else [theta, pi]
            arcs = [(0.0, _theta(lo, hi, v)) if v >= c else (_theta(lo, hi, v), np.pi)
                    for v in xs[idx].tolist()]
            out[idx] = _gap_arc(model, j, *np.array(arcs).T)
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


def critical_points(model: GreenModel) -> np.ndarray:
    """One maximum of g per gap; the numerator vanishes exactly there."""
    return model.critical_points.copy()


def pw_sum(model: GreenModel) -> float:
    """Sum of g over the critical points, left to right (zero for a gapless set)."""
    return float(sum(green_value(model, model.critical_points).tolist()))


def gap_derivative_l1(model: GreenModel, j: int) -> float:
    """Integral of |g'| across gap j (equals 2 g(c_j) analytically).

    |g'| has a kink at the critical point, so the integral is split there
    and each single-signed half is integrated by Gauss-Legendre in the
    cosine variable.
    """
    if not 0 <= j < len(model.set.gaps):
        raise ValidationError(f"gap index {j} out of range")
    theta_c = _theta(*model.set.gaps[j], model.critical_points[j])
    return float(sum(_gap_arc(model, j, np.array([0.0, theta_c]), np.array([theta_c, np.pi]))))


def equilibrium_density(model: GreenModel, t: float) -> float:
    """Density of the equilibrium measure at an interior band point."""
    loc = locate(model.set, t)
    if loc.kind != "band":
        raise ValidationError(f"density is defined on bands only, got {loc.kind}")
    if t in (model.set.bands[loc.index][0], model.set.bands[loc.index][1]):
        raise ValidationError("density is unbounded at band edges")
    return math.exp(_log_f_e(model, np.array([t]))[0])


def _log_f_e(model: GreenModel, t: np.ndarray) -> np.ndarray:
    """log f_E = log|g'| - log pi at band points, vectorized over t."""
    return _log_g_prime(t, model.critical_points, model.edges)[1] - math.log(math.pi)


def _m_e(model: GreenModel, x: np.ndarray) -> np.ndarray:
    """m_E = -g' off the set: P's sign from _g_prime times (-1)^(k+1), k bands ending right of x."""
    k = len(model.set.bands) - np.searchsorted(model.edges[1::2], x, side="right")
    return np.where(k % 2, 1.0, -1.0) * _g_prime(x, model.critical_points, model.edges)


def equilibrium_quadrature(model: GreenModel, order: int) -> EquilibriumQuadrature:
    """Per-band quadrature for dmu_E at the given order (the model's own at quad_order)."""
    if order < 16:
        raise ValidationError("quadrature order must be at least 16")
    if order == model.quad_order:
        return model.quad
    return _band_rule(model.set, model.critical_points, order)


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
            "gap_orders": list(model.gap_orders),
            "solve_passes": model.solve_passes,
            "root_move": model.root_move,
            "period_residual": model.period_residual,
            "mass_error": model.mass_error,
        },
        sort_keys=True,
    )


def model_from_json(text: str) -> GreenModel:
    obj = json.loads(text)
    s = make_gapset(obj["set"]["alpha"], obj["set"]["beta"], obj["set"]["gaps"])
    order = int(obj["quad_order"])
    # JSON from before per-gap orders used the band order on every gap
    gap_orders = tuple(int(n) for n in obj.get("gap_orders", [order] * len(s.gaps)))
    roots = np.asarray(obj["numerator"]["roots"], dtype=float)
    if "period_residual" in obj:
        residual = float(obj["period_residual"])
    else:  # JSON from before the solve diagnostics
        residuals = _period_residuals(roots, *_gap_tables(s, gap_orders))
        residual = float(np.max(np.abs(residuals), initial=0.0))
    return _assemble(s, roots, order, gap_orders, int(obj.get("solve_passes", 0)),
                     float(obj.get("root_move", 0.0)), residual)
