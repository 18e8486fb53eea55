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
no root factors, stay logs until they meet log|P| or log|B_j|.  At the
nodes of interval families (the band rule, the period tables and rows,
the residual gate, the gap arcs) the sums are _log_sums's, a one-level
fast-multipole split (Greengard and Rokhlin, J. Comput. Phys. 73, 1987):
sources within _FAR half-lengths summed directly, the rest at p <= 9
Chebyshev proxy points and interpolated.  Elsewhere (rays, densities,
m_E) they are _log_g_prime's direct sums.  Singular integrals
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
from itertools import accumulate
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


def _log_g_prime(t: np.ndarray, roots, edges, skip: tuple[int, ...] = (), signed: bool = True):
    """sign (None unless signed) and log|g'(t)| with the edge factors in skip left out.

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
    return (np.sign(d).prod(axis=1) if signed else None), logmag


def _near_sums(x: np.ndarray, src: np.ndarray, coef: np.ndarray, start, stop, own) -> np.ndarray:
    """sum_k coef_k log|x[i] - src_k| over src[start[i]:stop[i]] but src[own[i]].

    All windows have one width.  A left-out source reads log 1 = 0, so a
    node on it does no harm; a node on a kept root reads -inf.
    Temporaries are _ARC_BLOCK entries a piece.
    """
    width = int(np.max(stop - start))
    out = np.empty(x.shape)
    for b, e in _blocks(*x.shape, width):
        win = start[b, None] + np.arange(width)
        keep = np.all(win[:, :, None] != own[b, None, :], axis=2)
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


def _barycentric(p: int, x: np.ndarray, hit=None, slopes: bool = False):
    """Barycentric rows (with slopes, derivative rows too) from the p
    first-kind Chebyshev points to the points x; a point on a proxy point
    (hit, else an exact match) gets that point's unit row."""
    k = np.arange(p)
    d = x[..., None] - _cos_points(p)
    hit = d == 0.0 if hit is None else hit
    d[hit] = 1.0
    w = (-1.0) ** k * np.sin((k + 0.5) * np.pi / p)
    c = w / d
    total = np.sum(c, axis=-1, keepdims=True)
    values = c / total
    rows = np.any(hit, axis=-1)
    values[rows] = hit[rows]
    if not slopes:
        return values
    slope = values * (np.sum(c / d, axis=-1, keepdims=True) / total - 1.0 / d)
    own = np.where(hit[rows], 0.0, c[rows] / np.sum(w * hit[rows], axis=-1, keepdims=True))
    slope[rows] = np.where(hit[rows], -np.sum(own, axis=-1, keepdims=True), own)
    return values, slope


@lru_cache(maxsize=64)
def _cheb_interp(p: int, n: int):
    """_barycentric's values and slopes at the n first-kind Chebyshev
    points, node i meeting proxy point k where (2i + 1) p = (2k + 1) n."""
    i, k = np.arange(n)[:, None], np.arange(p)[None, :]
    values, slopes = _barycentric(p, _cos_points(n), (2 * i + 1) * p == (2 * k + 1) * n, True)
    values.flags.writeable = slopes.flags.writeable = False  # shared through the cache
    return values, slopes


def _log_sums(lo, hi, orders, roots, edges, skip, rows=None, u=None):
    """_log_g_prime at rows of nodes on intervals (lo[i], hi[i]) = c -/+ r,
    factors skip[i] (indices into roots ++ edges) left out; the flat nodes
    and log-sums.  Row k has orders[k] nodes: row i on interval i at the
    cosine points, or, given rows and u, on interval rows[k] at c + r u.

    An interval with every source within _FAR r is _log_g_prime, bit for
    bit, tested before any sort.  Otherwise near sources are summed at the
    nodes, far ones once per interval at p Chebyshev proxies (rho^-p <=
    _GAP_RULE_TARGET on the ellipse through the nearest) and interpolated
    by _cheb_interp with a derivative step for the nodes' rounding, or by
    _barycentric rows at each node's (t - c)/r.  Rows sharing (order, p,
    near width) are one unpadded batch: a row's bits ignore its batch.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    orders, skip = np.asarray(orders, dtype=int), np.asarray(skip, dtype=int)
    roots = np.asarray(roots, dtype=float)
    src = np.concatenate([roots, edges])
    sizes = orders.tolist()
    t, logsum = np.empty(sum(sizes)), np.empty(sum(sizes))
    if not sizes:
        return t, logsum
    cosine = u is None
    heads = range(len(sizes)) if cosine else np.asarray(rows).tolist()
    cuts = [k for k in range(1, len(sizes)) if heads[k] != heads[k - 1]]
    lowest, highest, n_roots = src.min(), src.max(), len(roots)
    lows, highs, skips, ends = lo.tolist(), hi.tolist(), skip.tolist(), list(accumulate(sizes))
    batch, runs = [], []
    for a, b in zip([0, *cuts], [*cuts, len(sizes)]):  # rows a..b-1 lie on interval i
        i = heads[a]
        reach = _FAR * ((highs[i] - lows[i]) / 2)
        if lows[i] - reach > lowest or highs[i] + reach < highest:
            batch.extend(range(a, b))
        else:
            runs.append((i, ends[a] - sizes[a], ends[b - 1]))
    step = max(1, _ARC_BLOCK // len(src))  # nodes per _log_g_prime call
    for i, begin, end in runs:
        own = skips[i]
        kept = roots[np.arange(n_roots) != own[0]] if own and own[0] < n_roots else roots  # own root
        skipped = [j - n_roots for j in own if j >= n_roots]
        a, b = lows[i], highs[i]
        t[begin:end] = (a + b) / 2 + (b - a) / 2 * (_cos_points(end - begin) if cosine else u[begin:end])
        for e in range(begin, end, step):
            piece = slice(e, min(e + step, end))
            logsum[piece] = _log_g_prime(t[piece], kept, edges, skipped, False)[1]
    if not batch:
        return t, logsum
    batch, owner = np.array(batch), np.asarray(heads)
    first, c, r = np.cumsum(orders) - orders, (lo + hi) / 2, (hi - lo) / 2
    perm = np.argsort(src, kind="stable")
    rank = np.empty_like(perm)
    rank[perm] = np.arange(len(src))
    own, src, coef = rank[skip], src[perm], np.where(perm < len(roots), 1.0, -0.5)
    start = np.searchsorted(src, lo - _FAR * r, side="left")
    stop = np.searchsorted(src, hi + _FAR * r, side="right")
    padded = np.concatenate([[-np.inf], src, [np.inf]])
    a1 = np.minimum(lo - padded[start], padded[stop + 1] - hi) / r  # a - 1 at the nearest far source
    p = np.ceil(-math.log(_GAP_RULE_TARGET) / np.log1p(a1 + np.sqrt(a1 * (a1 + 2.0)))).astype(int)
    used, pos, far = np.flatnonzero(np.bincount(owner[batch], minlength=len(lo))), np.empty_like(p), {}
    for q in sorted(set(p[used].tolist())):
        ids = used[p[used] == q]
        pos[ids] = np.arange(len(ids))
        far[q] = _far_sums(c[ids], r[ids, None] * _cos_points(q), src, coef, start[ids], stop[ids])
    key = orders[batch], p[owner[batch]], (stop - start)[owner[batch]]
    for n, q, w in sorted(set(zip(*(part.tolist() for part in key)))):
        idx = batch[(key[0] == n) & (key[1] == q) & (key[2] == w)]
        cols, ii = first[idx, None] + np.arange(n), owner[idx]
        nodes = c[ii, None] + r[ii, None] * (_cos_points(n) if cosine else u[cols])
        with np.errstate(divide="ignore"):
            total = _near_sums(nodes, src, coef, start[ii], stop[ii], own[ii])
        base, var = far[q][0][pos[ii]], far[q][1][pos[ii]]
        total += base
        at = (nodes - c[ii, None]) / r[ii, None]  # the nodes' own u
        if cosine:
            values, slopes = _cheb_interp(q, n)
            at -= _cos_points(n)  # their rounding: one step along the derivative
            at *= var @ slopes.T
            total += var @ values.T
            total += at
        else:
            for b, e in _blocks(len(idx), n, 4 * q):  # _barycentric's four (rows, n, q) temporaries
                total[b, e] += np.sum(_barycentric(q, at[b, e]) * var[b, None, :], axis=-1)
        t[cols], logsum[cols] = nodes, total
    return t, logsum


def _g_prime(t: np.ndarray, roots, edges, skip: tuple[int, ...] = ()) -> np.ndarray:
    """g'(t) = P(t)/sqrt|R(t)| from one exp of _log_g_prime; exactly zero at a root."""
    sign, logmag = _log_g_prime(t, roots, edges, skip)
    return sign * np.exp(logmag)


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


def _gap_arcs(model: GreenModel, gap: np.ndarray, th0: np.ndarray, th1: np.ndarray) -> np.ndarray:
    """|integral of g'| over each arc theta in [th0[i], th1[i]] of gap gap[i]
    (t = c + r cos(theta)), by gap_orders[gap[i]] Gauss-Legendre nodes.

    The arcs, by order and gap (callers pass a gap's arcs together), go to
    one _log_sums call per _ARC_BLOCK nodes.  g' keeps one sign on an arc,
    which c_j ends or misses, so |g'| = exp(log|g'|).
    """
    roots, edges = model.critical_points, model.edges
    orders, perm = np.asarray(model.gap_orders)[gap], slice(None)
    if orders.min() < orders.max():
        perm = np.argsort(orders * len(roots) + gap, kind="stable")
    gap, orders, th0, half = gap[perm], orders[perm], th0[perm], 0.5 * (th1 - th0)[perm]
    own = np.arange(len(roots) + 1, 3 * len(roots) + 1).reshape(-1, 2)
    sizes, out, a = orders.tolist(), np.empty(len(gap)), 0
    ends = list(accumulate(sizes))
    while a < len(sizes):  # whole arcs, _ARC_BLOCK nodes a call where they fit
        b = max(a + 1, bisect.bisect_right(ends, ends[a] - sizes[a] + _ARC_BLOCK))
        cuts = [k for k in range(a + 1, b) if sizes[k] != sizes[k - 1]]
        runs = [(k, m, sizes[k]) for k, m in zip([a, *cuts], [*cuts, b])]  # arcs of one order
        u = [np.cos(half[k:m, None] * (_leggauss(n)[0] + 1.0) + th0[k:m, None]) for k, m, n in runs]
        g = np.exp(_log_sums(edges[1:-1:2], edges[2:-1:2], orders[a:b], roots, edges, own, gap[a:b],
                             np.concatenate([x.ravel() for x in u]))[1])
        for k, m, n in runs:
            rows, g = g[:(m - k) * n].reshape(m - k, n), g[(m - k) * n:]
            out[k:m] = (half[k:m, None] * _leggauss(n)[1] * rows).sum(axis=1)
        a = b
    out[perm] = out.copy()
    return out


def green_value(model: GreenModel, x):
    """g(x): a float for a float, else an array of x's shape; zero on the set.

    The points in gaps, found by edge_slots, go to one _gap_arcs call, each
    on the arc from x to the edge on its side of its gap's maximum c_j.  A
    point outside [alpha, beta] by less than the diameter takes its own
    edge ray, sized from its length.  The points farther out read the Robin
    probe's identity g(x) = robin + int log|x - t| dmu_E on the band rule
    over its mass, in one batch: a ray that long needs more nodes than any
    rule order allows.  A point's bits ignore its batch.
    """
    s, edges, roots = model.set, model.edges, model.critical_points
    xs = np.asarray(x, dtype=float).ravel()
    slots = edge_slots(s, xs)
    slots[np.maximum(s.alpha - xs, xs - s.beta) >= s.diameter] = -1  # far field
    groups = {}  # point indices by slot, in input order
    for i, slot in enumerate(slots.tolist()):
        groups.setdefault(slot, []).append(i)
    out, arcs = np.zeros(len(xs)), []
    for slot, idx in groups.items():
        if slot == -1:  # row sums in ~_ARC_BLOCK chunks
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
            arcs += [(i, j, 0.0, _theta(lo, hi, v)) if v >= c else (i, j, _theta(lo, hi, v), np.pi)
                     for i, v in zip(idx, xs[idx].tolist())]
    if arcs:
        idx, gap, th0, th1 = (np.array(col) for col in zip(*arcs))
        out[idx] = _gap_arcs(model, gap, th0, th1)
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
    arcs = _gap_arcs(model, np.array([j, j]), np.array([0.0, theta_c]), np.array([theta_c, np.pi]))
    return float(sum(arcs.tolist()))


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
    return _log_g_prime(t, model.critical_points, model.edges, (), False)[1] - math.log(math.pi)


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
