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
the residual gate, the gap series) the sums are _log_sums's, a one-level
fast-multipole split (Greengard and Rokhlin, J. Comput. Phys. 73, 1987):
sources within _FAR half-lengths summed directly, the rest at p <= 9
Chebyshev proxy points and interpolated; the densities and m_E take
_log_g_prime's direct sums, the outer rays long-double ones.  Singular
integrals are tamed by the cosine substitution t = c + r*cos(theta), which
cancels the inverse-square-root edge factors exactly, and on the unbounded
components by t = e +/- s^2.  A gap integrand is then analytic out to the
nearest foreign edge, so each gap's period table gets the order that
edge's Bernstein ellipse needs for 1e-15 (at least 32; an explicit
quad_order raises the orders below it and lowers none).  g on each
component of R minus E within one diameter of the set is the termwise
integral of one cosine series (a gap, or an outer ray sized by the edge
one outer band inside) at its interpolant's rho^(-n) order.
"""

from __future__ import annotations

import bisect
import cmath
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from .errors import NumericalError, ValidationError
from .realset import GapSet, edge_slots, locate, make_gapset

DEFAULT_ORDER_SMALL = 200  # nodes per band/gap for up to 15 gaps
DEFAULT_ORDER_LARGE = 80  # above that, keep 255-gap levels affordable
_GAP_COUNT_SWITCH = 15
GAP_ORDER_FLOOR = 32  # smallest per-gap order; also the smallest quad_order
_GAP_ORDER_CAP = 1024  # largest default per-gap table order; a gap series may take twice it
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


def _default_order(n_gaps: int) -> int:
    return DEFAULT_ORDER_SMALL if n_gaps <= _GAP_COUNT_SWITCH else DEFAULT_ORDER_LARGE


def _gap_orders(s: GapSet, power: int = 2) -> tuple[int, ...]:
    """Cosine-point count per gap: for the period tables' integrals
    (power 2) or the gap series' interpolants (power 1).

    Under t = c + r cos(theta) the gap's own edges cancel and P is a
    polynomial, so the integrand is analytic inside the Bernstein ellipse
    through the nearest foreign edge, at distance D (the shorter adjacent
    band): rho = a + sqrt(a^2 - 1), a = 1 + D/r.  A rule's error falls like
    rho^(-2n) and an interpolant's like rho^(-n), so n = ceil(ln(1/target) /
    (power ln rho)), within [GAP_ORDER_FLOOR, 2 _GAP_ORDER_CAP / power].
    The band order is no bound: a wide gap beside a band ~1e-4 its size
    needs ~600 nodes, where 200 leave a period residual of 2e-6 that no
    gate sees.
    """
    lengths = np.diff(s.edges)
    r = 0.5 * lengths[1::2]
    u = np.minimum(lengths[0:-1:2], lengths[2::2]) / r  # a - 1
    return tuple(int(k) for k in _ellipse_orders(np.log1p(u + np.sqrt(u * (u + 2.0))), power))


def _ellipse_orders(log_rho, power: int = 2):
    """Orders n with rho^(-power n) <= _GAP_RULE_TARGET inside Bernstein
    ellipses of radius exp(log_rho), within [GAP_ORDER_FLOOR, 2 _GAP_ORDER_CAP / power]."""
    n = np.ceil(-math.log(_GAP_RULE_TARGET) / (power * log_rho))
    return np.minimum(np.maximum(n, GAP_ORDER_FLOOR), 2 * _GAP_ORDER_CAP // power).astype(int)


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
        keep = np.ones(len(edges), dtype=bool)
        keep[list(skip)] = False
        diffs = np.abs(t[:, None] - edges[keep])
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


@lru_cache(maxsize=64)
def _cheb_interp(p: int, n: int):
    """Barycentric rows and their derivative rows from the p first-kind
    Chebyshev points to the n ones; node i meets proxy point k where
    (2i + 1) p = (2k + 1) n, and reads that point's unit row."""
    k = np.arange(p)
    d = _cos_points(n)[:, None] - _cos_points(p)
    hit = (2 * np.arange(n)[:, None] + 1) * p == (2 * k + 1) * n
    d[hit] = 1.0
    w = (-1.0) ** k * np.sin((k + 0.5) * np.pi / p)
    c = w / d
    total = np.sum(c, axis=-1, keepdims=True)
    values = c / total
    rows = np.any(hit, axis=-1)
    values[rows] = hit[rows]
    slopes = values * (np.sum(c / d, axis=-1, keepdims=True) / total - 1.0 / d)
    own = np.where(hit[rows], 0.0, c[rows] / np.sum(w * hit[rows], axis=-1, keepdims=True))
    slopes[rows] = np.where(hit[rows], -np.sum(own, axis=-1, keepdims=True), own)
    values.flags.writeable = slopes.flags.writeable = False  # shared through the cache
    return values, slopes


def _log_sums(lo, hi, orders, roots, edges, skip):
    """_log_g_prime at orders[i] cosine points on each interval (lo[i], hi[i])
    = c -/+ r, factors skip[i] (indices into roots ++ edges) left out; the
    flat nodes and log-sums.

    An interval with every source within _FAR r is _log_g_prime, bit for
    bit, tested before any sort.  Otherwise near sources are summed at the
    nodes, far ones once per interval at p Chebyshev proxies (rho^-p <=
    _GAP_RULE_TARGET on the ellipse through the nearest) and interpolated
    by _cheb_interp with a derivative step for the nodes' rounding.
    Intervals sharing (order, p, near width) are one unpadded batch: an
    interval's bits ignore its batch.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    orders, skip = np.asarray(orders, dtype=int), np.asarray(skip, dtype=int)
    roots = np.asarray(roots, dtype=float)
    src = np.concatenate([roots, edges])
    sizes, n_roots = orders.tolist(), len(roots)
    ends = list(accumulate(sizes))
    t, logsum = np.empty(sum(sizes)), np.empty(sum(sizes))
    if not sizes:
        return t, logsum
    lowest, highest, lows, highs = src.min(), src.max(), lo.tolist(), hi.tolist()
    reach = [_FAR * ((b - a) / 2) for a, b in zip(lows, highs)]  # floats: an overflow is inf, no error
    direct = [a - x <= lowest and b + x >= highest for a, b, x in zip(lows, highs, reach)]
    step = max(1, _ARC_BLOCK // len(src))  # nodes per _log_g_prime call
    for i in (i for i, near in enumerate(direct) if near):
        own = skip[i].tolist()
        kept = roots[np.arange(n_roots) != own[0]] if own and own[0] < n_roots else roots  # own root
        skipped = [j - n_roots for j in own if j >= n_roots]
        a, b, end = lows[i], highs[i], ends[i]
        begin = end - sizes[i]
        t[begin:end] = (a + b) / 2 + (b - a) / 2 * _cos_points(sizes[i])
        for e in range(begin, end, step):
            piece = slice(e, min(e + step, end))
            logsum[piece] = _log_g_prime(t[piece], kept, edges, skipped, False)[1]
    batch = np.flatnonzero(np.logical_not(direct))
    if not len(batch):
        return t, logsum
    first, c, r = np.cumsum(orders) - orders, (lo + hi) / 2, (hi - lo) / 2
    perm = np.argsort(src, kind="stable")
    rank = np.empty_like(perm)
    rank[perm] = np.arange(len(src))
    own, src, coef = rank[skip], src[perm], np.where(perm < n_roots, 1.0, -0.5)
    start = np.searchsorted(src, lo - _FAR * r, side="left")
    stop = np.searchsorted(src, hi + _FAR * r, side="right")
    padded = np.concatenate([[-np.inf], src, [np.inf]])
    a1 = np.minimum(lo - padded[start], padded[stop + 1] - hi) / r  # a - 1 at the nearest far source
    p = np.ceil(-math.log(_GAP_RULE_TARGET) / np.log1p(a1 + np.sqrt(a1 * (a1 + 2.0)))).astype(int)
    pos, far = np.empty_like(p), {}
    for q in sorted(set(p[batch].tolist())):
        ids = batch[p[batch] == q]
        pos[ids] = np.arange(len(ids))
        far[q] = _far_sums(c[ids], r[ids, None] * _cos_points(q), src, coef, start[ids], stop[ids])
    key = orders[batch], p[batch], (stop - start)[batch]
    for n, q, w in sorted(set(zip(*(part.tolist() for part in key)))):
        ii = batch[(key[0] == n) & (key[1] == q) & (key[2] == w)]
        nodes = c[ii, None] + r[ii, None] * _cos_points(n)
        with np.errstate(divide="ignore"):
            total = _near_sums(nodes, src, coef, start[ii], stop[ii], own[ii])
        base, var = far[q][0][pos[ii]], far[q][1][pos[ii]]
        total += base
        values, slopes = _cheb_interp(q, n)
        at = (nodes - c[ii, None]) / r[ii, None]  # the nodes' own u
        at -= _cos_points(n)  # their rounding: one step along the derivative
        at *= var @ slopes.T
        total += var @ values.T
        total += at
        cols = first[ii, None] + np.arange(n)
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


def _dct(f: np.ndarray) -> np.ndarray:
    """Cosine coefficients a_m = (2/n) sum_i f_i cos(m theta_i), m < n (a_0 not halved), of
    samples at the angles theta_i = (i + 1/2) pi/n of _cos_points(n), along f's last axis."""
    n = f.shape[-1]
    twiddle = np.exp(-0.5j * np.pi * np.arange(n) / n)  # e^(-i m theta_0)
    return (np.fft.rfft(f, 2 * n)[..., :n] * twiddle).real * (2.0 / n)


def _ray_series(s: GapSet, roots, side: int) -> np.ndarray:
    """c_1..c_n of g(x) = sum_m c_m sin^2(m theta_x/2), theta_x = 2 arcsin((|x - e|/diam)^(1/4)),
    on the ray from e = alpha (side 0) or beta (side 1) out one diameter.

    Under t = e -/+ s^2, s = sqrt(diam) sin^2(theta/2), F = 2|g'|s has e's own
    factor cancelled; its interpolant sum_k a_k cos(k theta) takes the order of
    the ellipse through the branch points cos(theta) = 1 -/+ 2i sqrt(eps/diam)
    of the edge one outer band (eps) inside.  cos(k theta) sin(theta)
    integrates to sin^2((k+1) theta/2)/(k+1) - sin^2((k-1) theta/2)/(k-1), so
    every term vanishes at e (g keeps its relative accuracy there) and theta =
    pi sums the odd m.  |t - source| = |e - source| + s^2 for every source; the
    log-sums run in long double, as ~3N double logs carry ~1e-14 rounding.
    """
    k = len(s.edges) - 1 if side else 0
    z = complex(1.0, 2.0 * math.sqrt(abs(s.edges[k] - s.edges[k - 1 if side else 1]) / s.diameter))
    n = int(_ellipse_orders(math.log(abs(z + cmath.sqrt(z * z - 1.0))), 1))  # |z + w| >= |z - w| here
    s2 = s.diameter * np.sin((np.arange(n) + 0.5) * (0.5 * np.pi / n)) ** 4
    src = np.concatenate([roots, s.edges[:k], s.edges[k + 1:]]).astype(np.longdouble)
    dist, coef = np.abs(s.edges[k] - src), np.where(np.arange(len(src)) < len(roots), 1.0, -0.5)
    # two long-double temporaries a piece, together the bytes of one _ARC_BLOCK piece
    log_f = np.concatenate([np.log(dist + s2[b, None]) @ coef for b, _ in _blocks(n, 1, 4 * len(src))])
    a = np.concatenate([_dct(2.0 * np.exp(log_f).astype(float)), [0.0, 0.0]])
    return math.sqrt(s.diameter) * (a[:-2] - a[2:]) / (2.0 * np.arange(1, n + 1))


@dataclass(frozen=True)
class EquilibriumQuadrature:
    """Per-band nodes and weights integrating against the equilibrium measure."""

    nodes: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]
    order: int

    @property
    def all_weights(self) -> np.ndarray:
        return np.concatenate(self.weights)


@dataclass(frozen=True)
class GreenModel:
    """Solved potential data for one GapSet.

    The numerator polynomial is monic with one root per gap; those roots
    are the critical points, so critical_points doubles as the polynomial
    representation.  The band rule is precomputed; the period tables are
    rebuilt from gap_orders by period_residuals, and the gap and ray
    series on first use.
    """

    set: GapSet
    edges: np.ndarray
    critical_points: np.ndarray
    robin: float
    capacity: float
    quad: EquilibriumQuadrature  # the band rule at the model's order, quad.order
    gap_orders: tuple[int, ...]  # per-gap order of the period tables, a floor on the series'
    solve_passes: int  # linearized period-solve passes run (0: roots given)
    root_move: float  # largest root change in the last pass; above 1e-14 * diam the cap was hit
    period_residual: float  # largest |period residual|, what the period gate read
    mass_error: float  # |band-rule mass - 1|, what the mass gate read
    # _ray_series by side, built on first use; _assemble leaves side 1, the Robin probe's
    _rays: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def _gap_series(self):
        """Per gap, the order n of its series and its row in coefs[n]:
        a_0, a_1/1, ..., a_(n-1)/(n-1), the coefficients of

            A(theta) = a_0 theta + sum_{m >= 1} a_m sin(m theta)/m,

        the integral from 0 to theta of sum_m a_m cos(m theta), a_0 halved,
        which interpolates f = +-|g'| r sin(theta) (+ right of c_j) at the
        cosine points of t = c + r cos(theta).  f is analytic, so n is the
        interpolant's ellipse order, _gap_orders(s, 1), and at least
        gap_orders[j].  The samples are one _log_sums call over all gaps;
        the coefficients are a DCT-II by FFT.  The nodes are rounded, up to
        ~1e-11 off their angles in a level-9 gap, so one step along the
        series' own derivative moves the samples onto the angles before
        the transform is redone.
        """
        roots, edges = self.critical_points, self.edges
        lo, hi = edges[1:-1:2], edges[2:-1:2]
        c, r = (lo + hi) / 2, (hi - lo) / 2
        orders = np.maximum(self.gap_orders, _gap_orders(self.set, 1))
        own = len(roots) + np.arange(1, len(edges) - 1).reshape(-1, 2)
        t, log_f = _log_sums(lo, hi, orders, roots, edges, own)
        f = np.where(t > np.repeat(roots, orders), 1.0, -1.0) * np.exp(log_f)
        first, rows, coefs = np.cumsum(orders) - orders, np.empty_like(orders), {}
        for n in sorted(set(orders.tolist())):
            ids, m = np.flatnonzero(orders == n), np.arange(n)
            rows[ids], cols, theta = np.arange(len(ids)), first[ids, None] + m, (m + 0.5) * np.pi / n
            twiddle = np.exp(-0.5j * np.pi * m / n)  # e^(-i m theta_0)
            a = _dct(f[cols])  # a_0 not yet halved
            shift = ((t[cols] - c[ids, None]) / r[ids, None] - np.cos(theta)) / np.sin(theta)
            moved = f[cols] + shift * np.fft.fft(m * a * twiddle, 2 * n)[:, :n].imag  # f at the angles
            a = _dct(moved)
            coefs[n] = a / np.where(m, m, 2)  # a_0 halved, a_m/m
        return orders, rows, coefs


def solve_green(s: GapSet, quad_order: int | None = None) -> GreenModel:
    """Solve the period conditions and assemble all derived quantities.

    A float overflow or invalid operation in the solve, as on sets that
    span most of the float range, is a NumericalError, never an inf or nan.
    """
    order = _default_order(len(s.gaps)) if quad_order is None else int(quad_order)
    if order < GAP_ORDER_FLOOR:
        raise ValidationError(f"quad_order must be at least {GAP_ORDER_FLOOR}")
    # an explicit quad_order is a floor: it never lowers a gap below its ellipse order
    floor = 0 if quad_order is None else order
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _solve(s, order, floor)
    except FloatingPointError as exc:
        raise NumericalError(f"solve left the float range: {exc}") from exc


def _solve(s: GapSet, order: int, floor: int) -> GreenModel:
    gap_orders = tuple(max(n, floor) for n in _gap_orders(s))
    tables = _gap_tables(s, gap_orders) if s.gaps else ()
    # relinearize until the roots settle; small gap counts stop after two
    roots = np.array([(lo + hi) / 2 for lo, hi in s.gaps])
    passes, moved = 0, 0.0
    while s.gaps and passes < _SOLVE_PASSES:
        delta = _period_correction(roots, *tables)
        new_roots = _period_roots(s.gaps, roots, delta)
        moved = float(np.max(np.abs(new_roots - roots)))
        roots = new_roots
        passes += 1
        if moved <= 1e-14 * (s.beta - s.alpha):
            break
    return _assemble(s, roots, order, gap_orders, passes, moved, tables)


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
    w = np.exp(log_g) / order
    quad = EquilibriumQuadrature(tuple(t.reshape(bands, order)), tuple(w.reshape(bands, order)), order)
    total = float(w.sum())
    if not abs(total - 1.0) <= TOLERANCES["quadrature_mass"]:  # NaN fails too
        raise NumericalError(
            f"equilibrium weights sum to {total!r}, expected 1; raise quad_order"
        )
    return quad


def _assemble(s, roots, order, gap_orders, passes, moved, tables) -> GreenModel:
    """The gated model: the period gate on the period tables (the solve's,
    or for a load rebuilt from gap_orders), then the band rule and Robin probe."""
    residual = 0.0
    if len(roots):
        residual = float(np.max(np.abs(_period_residuals(roots, *tables))))
        if not residual <= TOLERANCES["period_residual"]:  # NaN fails too
            raise NumericalError(
                f"period residual {residual!r} exceeds {TOLERANCES['period_residual']!r}"
            )
    quad = _band_rule(s, roots, order)
    # Robin constant via the potential identity at the probe x0 = beta + diam,
    # one diameter out so the identity is scale-covariant: g(x0) is the
    # right-hand ray series' whole integral (sin^2(m pi/2) is 1 for odd m,
    # else 0), the potential from the equilibrium rule divided by its
    # mass, so the rule's mass error does not enter, its differences (x0 - t
    # passes 1e308 on [-1e308, 0]), logs and sums in long double.  Logs are taken in units of
    # h = diam/2, so capacity = h exp(pot - g0) never passes through robin,
    # whose own rounding grows with |log h|.
    h, x0 = 0.5 * s.diameter, s.beta + s.diameter
    if not math.isfinite(x0):
        raise NumericalError(f"the Robin probe beta + diam = {x0!r} leaves the float range")
    ray = _ray_series(s, roots, 1)
    g0 = float(np.sum(ray[0::2]))
    mass, ld = float(np.sum(quad.all_weights)), np.longdouble
    logs = (np.log((ld(x0) - t.astype(ld)) / ld(h)) for t in quad.nodes)
    pot = float(sum(map(np.dot, quad.weights, logs)) / np.sum(quad.all_weights.astype(ld)))
    model = GreenModel(
        set=s,
        edges=s.edges,
        critical_points=np.asarray(roots, dtype=float),
        robin=g0 - pot - math.log(h),
        capacity=h * math.exp(pot - g0),
        quad=quad,
        gap_orders=tuple(gap_orders),
        solve_passes=passes,
        root_move=moved,
        period_residual=residual,
        mass_error=abs(mass - 1.0),
    )
    model._rays[1] = ray
    return model


def period_residuals(model: GreenModel) -> np.ndarray:
    """Per-gap residual of the defining conditions (zero for a solved model)."""
    return _period_residuals(model.critical_points, *_gap_tables(model.set, model.gap_orders))


def _period_residuals(roots, lo, hi, orders, log_w) -> np.ndarray:
    """sum of w P over each gap's nodes; P's sign is (-1)^(roots right of t)."""
    t, log_p = _log_sums(lo, hi, orders, roots, (), np.empty((len(lo), 0), dtype=int))
    right = len(roots) - np.searchsorted(roots, t, side="right")
    terms = np.where(right % 2, -1.0, 1.0) * np.exp(log_p + log_w)
    return np.add.reduceat(terms, np.cumsum(orders) - orders)


def _gap_integrals(model: GreenModel, gap: np.ndarray, x: np.ndarray):
    """A(theta_x) of gap gap[i]'s series at x[i] (GreenModel._gap_series),
    and A(pi) = a_0 pi: g(x) from the right edge, and the edge-to-edge
    integral, zero by the period condition.  Row sums in _blocks pieces,
    so a point's bits ignore its batch.
    """
    orders, rows, coefs = model._gap_series
    lo, hi = model.edges[1:-1:2][gap], model.edges[2:-1:2][gap]
    theta = np.arccos(np.clip((x - (lo + hi) / 2) / ((hi - lo) / 2), -1.0, 1.0))
    at, whole = np.empty(len(x)), np.empty(len(x))
    for n in sorted(set(orders[gap].tolist())):
        sel = np.flatnonzero(orders[gap] == n)
        for b, _ in _blocks(len(sel), 1, n):
            i = sel[b]
            a, terms = coefs[n][rows[gap[i]]], np.sin(np.multiply.outer(theta[i], np.arange(1, n)))
            terms *= a[:, 1:]
            at[i], whole[i] = a[:, 0] * theta[i] + np.sum(terms, axis=1), a[:, 0] * np.pi
    return at, whole


def green_value(model: GreenModel, x):
    """g(x): a float for a float, else an array of x's shape; zero on the set.

    The points in gaps, found by edge_slots, read their gap's series:
    |A(theta_x)| right of c_j and |A(theta_x) - a_0 pi| left of it, the
    integral from the edge on x's side.  The points outside [alpha, beta]
    by less than the diameter read their side's ray series, one batch a
    side.  The points farther out read the Robin probe's identity g(x) =
    robin + int log|x - t| dmu_E on the band rule over its mass, in one
    batch: a series that long would need more terms than any order allows.
    A point's bits ignore its batch.
    """
    s, edges, roots = model.set, model.edges, model.critical_points
    xs = np.asarray(x, dtype=float).ravel()
    slots = edge_slots(s, xs)
    far = np.maximum(s.alpha - xs, xs - s.beta) >= s.diameter
    out, idx = np.zeros(len(xs)), np.flatnonzero(far)
    if len(idx):  # row sums in _blocks pieces, over the mass as in the Robin probe
        t, w = np.concatenate(model.quad.nodes), model.quad.all_weights
        for b, _ in _blocks(len(idx), 1, len(t)):
            out[idx[b]] = model.robin + np.sum(w * np.log(np.abs(xs[idx[b], None] - t)), axis=1) / np.sum(w)
    for side, slot in enumerate((0, len(edges))):
        idx = np.flatnonzero((slots == slot) & ~far)
        if len(idx) and side not in model._rays:
            model._rays[side] = _ray_series(s, roots, side)
        c = model._rays.get(side, ())
        half = np.arcsin(np.sqrt(np.sqrt(np.abs(xs[idx] - (s.alpha, s.beta)[side]) / s.diameter)))
        for b, _ in _blocks(len(idx), 1, len(c)):  # row sums: a point's bits ignore its batch
            terms = np.sin(np.multiply.outer(half[b], np.arange(1, len(c) + 1)))
            out[idx[b]] = np.sum(terms * terms * c, axis=1)
    idx = np.flatnonzero((slots % 2 == 0) & (slots > 0) & (slots < len(edges)))
    if len(idx):
        gap = slots[idx] // 2 - 1
        at, whole = _gap_integrals(model, gap, xs[idx])
        out[idx] = np.abs(np.where(xs[idx] >= roots[gap], at, at - whole))
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


def pw_sum(model: GreenModel) -> float:
    """Sum of g over the critical points, left to right (zero for a gapless set)."""
    return float(sum(green_value(model, model.critical_points).tolist()))


def gap_derivative_l1(model: GreenModel, j: int) -> float:
    """Integral of |g'| across gap j (equals 2 g(c_j) analytically).

    From the gap's series: A(theta_c) from the right edge to c_j plus
    |A(theta_c) - a_0 pi| from c_j to the left edge, so it differs from
    2 g(c_j) by the period residual at the series' order.
    """
    if not 0 <= j < len(model.set.gaps):
        raise ValidationError(f"gap index {j} out of range")
    at, whole = _gap_integrals(model, np.array([j]), model.critical_points[j:j + 1])
    return float(at[0] + abs(at[0] - whole[0]))


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
    """Per-band quadrature for dmu_E at the given order (the model's own at quad.order)."""
    if order < GAP_ORDER_FLOOR:
        raise ValidationError(f"quadrature order must be at least {GAP_ORDER_FLOOR}")
    return model.quad if order == model.quad.order else _band_rule(model.set, model.critical_points, order)


def model_to_json(model: GreenModel) -> str:
    """Summary sufficient to re-evaluate g after a table rebuild (no re-solve)."""
    return json.dumps(
        {
            "set": {"alpha": model.set.alpha, "beta": model.set.beta,
                    "gaps": [list(g) for g in model.set.gaps]},
            "numerator": {"form": "monic-roots",
                          "roots": list(map(float, model.critical_points))},
            "robin": model.robin,
            "capacity": model.capacity,
            "quad_order": model.quad.order,
            "gap_orders": list(model.gap_orders),
            "solve_passes": model.solve_passes,
            "root_move": model.root_move,
        },
        sort_keys=True,
    )


def model_from_json(text: str) -> GreenModel:
    try:
        obj = json.loads(text)
        s = make_gapset(obj["set"]["alpha"], obj["set"]["beta"], obj["set"]["gaps"])
        order = int(obj["quad_order"])
        gap_orders = tuple(int(n) for n in obj["gap_orders"])
        roots = np.asarray(obj["numerator"]["roots"], dtype=float)
        passes, moved = int(obj["solve_passes"]), float(obj["root_move"])
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ValidationError(f"malformed GreenModel JSON: {exc!r}") from exc
    # what solve_green writes: one root in each gap (a NaN fails) and orders >= the floor
    lo, hi = np.reshape(s.gaps, (-1, 2)).T
    shaped = roots.shape == lo.shape and len(gap_orders) == len(lo)
    if not (shaped and np.all((lo <= roots) & (roots <= hi))
            and min((order, *gap_orders)) >= GAP_ORDER_FLOOR):
        raise ValidationError("malformed GreenModel JSON: need one root in and one order per gap, "
                              f"orders at least {GAP_ORDER_FLOOR}")
    return _assemble(s, roots, order, gap_orders, passes, moved, _gap_tables(s, gap_orders))
