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
its midpoint); f_j is formed from sums, never from a product.  The
conditions are linear in P: one correction from the midpoints lands the
roots, and the next pass's diagonal step (_pass_weights), at most 1e-14
diam, confirms its anchors as the roots with no period system built, so
its samples, with log|t - m_j| added, are g' there for the gate and series.

Every weight, density and Green integral is g' itself with the edge
factors its substitution cancels left out, from log-sums: the root and
edge log-sums meet in a single exp, so the quotient stays in range where
either product alone over- or underflows.  The period weights are never
summed alone: a pass sums the edges with the anchors, and _near_sums,
the one direct sum, adds its sources in sorted order.  At the nodes of
interval families (the period passes and the band rule) the sums are
_log_sums's, a one-level fast-multipole split (Greengard and Rokhlin, J.
Comput. Phys. 73, 1987): sources within _FAR half-lengths summed
directly, the rest as a power series in (t - c)/r from their scaled
moments, whose period-row twin gives the far Cauchy columns; the
densities and m_E take _near_sums over one window of every source
(_log_g_prime), and the outer rays one log1p per gap.
Singular integrals are tamed by the cosine substitution t = c +
r*cos(theta), which cancels the inverse-square-root edge factors exactly,
and on the unbounded components by t = e +/- diam s^2/(1 - s^2), s =
sin^2(theta/2), out to infinity.  A gap integrand is then analytic out
to the nearest foreign edge, so each gap gets the order its interpolant
needs for 1e-15 in that edge's Bernstein ellipse, rho^(-n) (32 to 2,048;
an explicit quad_order raises the orders below it and lowers none), and
every period pass samples it there.  g on each component of R minus E is
the termwise integral of one cosine series (a gap, from the confirming
pass's samples, or an outer ray sized by the edge one outer band inside);
the right-hand ray's whole integral is the Robin constant, so no solve
builds a band rule: equilibrium_quadrature builds one per order a
measure asks for, gated, and keeps it.
"""

from __future__ import annotations

import bisect
import cmath
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import NumericalError, ValidationError
from .realset import GapSet, _integer, edge_slots, locate, make_gapset

GAP_ORDER_FLOOR = 32  # smallest per-gap order; also the smallest quad_order and band rule
_GAP_ORDER_CAP = 2048  # largest default order of a gap's tables and series, and of a ray series
_GAP_RULE_TARGET = 1e-15  # error the per-gap orders are sized for
_SOLVE_PASSES = 6  # cap on period-solve sampling passes
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


def _gap_orders(s: GapSet) -> tuple[int, ...]:
    """Cosine-point count per gap, for its period tables and its series alike.

    Under t = c + r cos(theta) the gap's own edges cancel and P is a
    polynomial, so the integrand is analytic inside the Bernstein ellipse
    through the nearest foreign edge, at distance D (the shorter adjacent
    band): rho = a + sqrt(a^2 - 1), a = 1 + D/r.  The series' interpolant
    errs like rho^(-n) and the tables' rule like rho^(-2n), so n =
    ceil(ln(1/target)/ln rho), within [GAP_ORDER_FLOOR, _GAP_ORDER_CAP].
    The band order is no bound: a wide gap beside a band ~1e-4 its size
    needs ~1,700 nodes, where 200 leave a period residual of 2e-6 that no
    gate sees.
    """
    lengths = np.diff(s.edges)
    r = 0.5 * lengths[1::2]
    u = np.minimum(lengths[0:-1:2], lengths[2::2]) / r  # a - 1
    return tuple(int(k) for k in _ellipse_orders(np.log1p(u + np.sqrt(u * (u + 2.0)))))


def _ellipse_orders(log_rho):
    """Orders n with rho^(-n) <= _GAP_RULE_TARGET inside Bernstein ellipses
    of radius exp(log_rho), within [GAP_ORDER_FLOOR, _GAP_ORDER_CAP]."""
    n = np.ceil(-math.log(_GAP_RULE_TARGET) / log_rho)
    return np.minimum(np.maximum(n, GAP_ORDER_FLOOR), _GAP_ORDER_CAP).astype(int)


def _log_g_prime(t: np.ndarray, roots, edges):
    """P's sign and log|g'(t)| = sum_j log|t - c_j| - 1/2 sum_k log|t - e_k|, vectorized over t.

    _near_sums over one window that holds every root and edge, sorted
    together, so each root's log meets its gap's edges' first.  -inf at a
    root; an edge on a node sums to +inf, as no root lies on an edge, and
    is an error.  With no edges this is P.
    """
    t, roots = np.asarray(t, dtype=float), np.asarray(roots, dtype=float)
    src = np.concatenate([roots, edges])
    perm = np.argsort(src, kind="stable")
    logmag = _near_sums(t[None, :], src[perm], np.where(perm < len(roots), 1.0, -0.5),
                        np.zeros(1, dtype=int), np.full(1, len(src)), np.empty((1, 0), dtype=int))[0]
    if np.isposinf(logmag).any():
        raise NumericalError("quadrature node collided with a band edge")
    right = len(roots) - np.searchsorted(np.sort(roots), t, side="right")  # roots right of t
    return np.where(right % 2, -1.0, 1.0), logmag


def _near_sums(x: np.ndarray, src: np.ndarray, coef: np.ndarray, start, stop, own) -> np.ndarray:
    """sum_k coef_k log|x[i, j] - src_k| over src[start[i]:stop[i]] but src[own[i]].

    The one direct log-sum: sources in sorted order, by 1 or -1/2.  All
    windows have one width.  A left-out source reads log 1 = 0, so a node
    on it does no harm; a node on a kept root reads -inf.  Temporaries are
    _ARC_BLOCK entries a piece, and a sum's bits ignore its batch.
    """
    width = int(np.max(stop - start))
    out = np.empty(x.shape)
    for b, e in _blocks(*x.shape, width):
        win = start[b, None] + np.arange(width)
        left_out = np.any(win[:, :, None] == own[b, None, :], axis=2)
        a = x[b, e, None] - src[win][:, None, :]
        np.abs(a, out=a)
        np.copyto(a, 1.0, where=left_out[:, None, :])
        with np.errstate(divide="ignore"):
            np.log(a, out=a)
        np.multiply(a, coef[win][:, None, :], out=a)  # by 1 or -1/2, exact
        out[b, e] = np.sum(a, axis=-1)
        del a  # before the next piece is allocated
    return out


def _far_sums(c: np.ndarray, r: np.ndarray, terms, src: np.ndarray, coef: np.ndarray, start, stop):
    """Far field of the intervals (c - r, c + r) from the sources s outside
    src[start[i]:stop[i]], all beyond _FAR r: per row, the pairwise sum of
    coef log|c - s|, and b_1..b_K, zero past terms[i], of sum_k b_k u^k =
    sum coef log|1 + u w| at u = (t - c)/r, w = r/(c - s): b_k = (-1)^(k+1)
    mu_k/k from the scaled moments mu_k = sum coef w^k.  Rows run in order
    of falling terms, so each power step takes only the leading rows that
    still need it, and mu stays 0 past a row's terms; a block of rows holds
    two (rows, sources) temporaries within _ARC_BLOCK entries.
    """
    k, width, by_terms = np.arange(len(src)), int(np.max(terms)), np.argsort(-terms, kind="stable")
    base, mu = np.empty(len(c)), np.zeros((len(c), width))
    for b, _ in _blocks(len(c), 1, 2 * len(src)):
        rows = by_terms[b]
        need = terms[rows]  # falling
        near = (k >= start[rows, None]) & (k < stop[rows, None])
        d = c[rows, None] - src
        np.copyto(d, 1.0, where=near)
        w = np.divide(r[rows, None], d)
        np.copyto(w, 0.0, where=near)
        np.abs(d, out=d)
        np.log(d, out=d)
        base[rows] = np.sum(np.multiply(d, coef, out=d), axis=1)
        d[...] = w  # w^(m + 1) from here on
        for m in range(need[0]):
            live = np.count_nonzero(need > m)
            mu[rows[:live], m] = d[:live] @ coef
            d[:live] *= w[:live]
        del d, w  # before the next piece is allocated
    k = np.arange(1, width + 1)
    return base, np.where(k % 2, 1.0, -1.0) / k * mu


def _far_terms(lo, hi, src: np.ndarray, start, stop) -> np.ndarray:
    """Series terms K with (1 + a1)^-K <= 1e-17 for each interval (lo, hi), a1 r its
    distance to the nearest source outside sorted src[start:stop]; 0 with none."""
    padded = np.concatenate([[-np.inf], src, [np.inf]])
    a1 = np.minimum(lo - padded[start], padded[stop + 1] - hi) / ((hi - lo) / 2)
    return np.ceil(math.log(1e17) / np.log1p(a1)).astype(int)


def _blocks(rows: int, cols: int, width: int):
    """Row and column slices of a (rows, cols, width) temporary, _ARC_BLOCK entries a piece."""
    step_r = max(1, _ARC_BLOCK // max(1, cols * width))
    step_c = max(1, min(cols, _ARC_BLOCK // max(1, width)))
    for a in range(0, rows, step_r):
        for b in range(0, cols, step_c):
            yield slice(a, a + step_r), slice(b, b + step_c)


def _log_sums(lo, hi, orders, roots, edges, skip):
    """log|g'|'s sums, roots by 1 and edges by -1/2, factors skip[i] (indices
    into roots ++ edges) left out, at orders[i] cosine points on each
    interval (lo[i], hi[i]) = c -/+ r; the flat nodes and log-sums.

    The sources within _FAR r of an interval, a window of the sorted roots
    and edges (unbounded where _FAR r overflows), are _near_sums's at its
    nodes; the rest are _far_sums's series with terms for 1e-17 at the
    nearest, by Horner at each node's own u = (t - c)/r, and a call with
    no far pair skips them.  Intervals sharing (order, near width) are one
    unpadded batch: an interval's near sums ignore its batch.  Its far
    moments are matrix-vector products over a block of rows, whose last
    bit may depend on the rows beside it.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    orders, skip = np.asarray(orders, dtype=int), np.asarray(skip, dtype=int)
    src = np.concatenate([roots, edges])
    first, c, r = np.cumsum(orders) - orders, (lo + hi) / 2, (hi - lo) / 2
    perm = np.argsort(src, kind="stable")
    own, src, coef = np.argsort(perm)[skip], src[perm], np.where(perm < len(roots), 1.0, -0.5)
    with np.errstate(over="ignore"):  # a reach past the float range is an unbounded window
        start = np.searchsorted(src, lo - _FAR * r, side="left")
        stop = np.searchsorted(src, hi + _FAR * r, side="right")
    width = stop - start
    sizes, widths = orders.tolist(), width.tolist()
    t, logsum = np.empty(sum(sizes)), np.empty(sum(sizes))
    for n, w in sorted(set(zip(sizes, widths))):
        ii = np.flatnonzero((orders == n) & (width == w))
        nodes = c[ii, None] + r[ii, None] * _cos_points(n)
        cols = first[ii, None] + np.arange(n)
        t[cols], logsum[cols] = nodes, _near_sums(nodes, src, coef, start[ii], stop[ii], own[ii])
    if widths and min(widths) < len(src):  # a far pair
        base, series = _far_sums(c, r, _far_terms(lo, hi, src, start, stop), src, coef, start, stop)
        iv = np.repeat(np.arange(len(lo)), orders)  # the nodes' intervals
        u, far = (t - c[iv]) / r[iv], np.zeros(len(t))  # the nodes' own u
        for k in range(series.shape[1] - 1, -1, -1):  # Horner; zeros past a row's terms are exact
            far += series[iv, k]
            far *= u
        logsum += base[iv]
        logsum += far
    return t, logsum


def _g_prime(t: np.ndarray, roots, edges) -> np.ndarray:
    """g'(t) = P(t)/sqrt|R(t)| from one exp of _log_g_prime; exactly zero at a root."""
    sign, logmag = _log_g_prime(t, roots, edges)
    return sign * np.exp(logmag)


@lru_cache(maxsize=256)
def _cos_points(n: int) -> np.ndarray:
    """cos((i + 1/2) pi/n), i < n: the first-kind Chebyshev points, read-only."""
    x = np.cos((np.arange(n) + 0.5) * np.pi / n)
    x.flags.writeable = False
    return x


def _dct(f: np.ndarray) -> np.ndarray:
    """Coefficients a_m, m < n, of the interpolant sum_m a_m cos(m theta) of samples f at the
    angles theta_i = (i + 1/2) pi/n of _cos_points(n), along f's last axis: a DCT-II by FFT,
    a_m = (2/n) sum_i f_i cos(m theta_i), a_0 halved."""
    n = f.shape[-1]
    m = np.arange(n)
    a = np.fft.rfft(f, 2 * n)[..., :n] * np.exp(-0.5j * np.pi * m / n)  # e^(-i m theta_0)
    return a.real * np.where(m, 2.0 / n, 1.0 / n)


def _idct(a: np.ndarray) -> np.ndarray:
    """sum_m a_m e^(-i m theta_i) at the n = len(a) angles of _dct, along a's last axis, by
    one FFT: the real part is _dct's inverse, the imaginary part minus the sine sum."""
    n = a.shape[-1]
    return np.fft.fft(a * np.exp(-0.5j * np.pi * np.arange(n) / n), 2 * n)[..., :n]


def _sine_sums(theta: np.ndarray, table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_{m >= 1} table[rows[i], m] sin(m theta[i]) per point, as row sums in _blocks
    pieces: a point's bits ignore its batch."""
    n, out = table.shape[1], np.empty(len(theta))
    for b, _ in _blocks(len(theta), 1, n):
        terms = np.sin(np.multiply.outer(theta[b], np.arange(1, n)))
        out[b] = np.sum(terms * table[rows[b], 1:], axis=1)
    return out


@lru_cache(maxsize=64)
def _fejer(n: int) -> np.ndarray:
    """Fejér's first-rule weights on [-1, 1] at _cos_points(n), read-only, exact to degree
    n - 1: w_i = sum_m c_m cos(m theta_i), c_m = (2/n) int T_m = 4/(n (1 - m^2)) for even
    m > 0, c_0 = 2/n; one _idct (Waldvogel, BIT 46, 2006)."""
    c = np.zeros(n)
    c[::2] = 4.0 / (n * (1.0 - np.arange(0, n, 2) ** 2))
    c[0] = 2.0 / n
    w = _idct(c).real
    w.flags.writeable = False
    return w


def _ray_samples(s: GapSet, roots, side: int) -> np.ndarray:
    """Phi at the n cosine points of the ray from e = alpha (side 0) or beta (side 1) to
    infinity, t = e -/+ diam s^2/(1 - s^2), s = sin^2(theta/2): the integrand of
    g' - 1/(|t - e| + diam) in theta over sin(theta), finite at both ends.

    In units of diam, g' dt/dtheta = sin(theta) exp(M)/(1 - s^2): gap j enters M as
    -1/2 log1p(u (p - q) - u^2 p q), u = 1/|t - c_j|, p and q c_j's distances to the gap's
    far and near edge, a factor that keeps its relative accuracy as it tends to 1 at
    infinity, and the outer edges cancel.  So Phi = expm1(M)/(1 - s^2) + 1/(1 + s), 1 - s =
    cos^2(theta/2).  Phi is analytic in cos(theta) inside the ellipse through the branch
    points 1 -/+ 2i sqrt(eps/diam) of the edge one outer band (eps) inside, which sizes n.
    """
    k = len(s.edges) - 1 if side else 0
    z = complex(1.0, 2.0 * math.sqrt(abs(s.edges[k] - s.edges[k - 1 if side else 1]) / s.diameter))
    n = int(_ellipse_orders(math.log(abs(z + cmath.sqrt(z * z - 1.0)))))  # |z + w| >= |z - w| here
    half = (np.arange(n) + 0.5) * (0.5 * np.pi / n)
    s1 = np.sin(half) ** 2
    one_minus = np.cos(half) ** 2 * (1.0 + s1)  # 1 - s^2
    lo, hi = s.edges[1:-1:2], s.edges[2:-1:2]
    d_c, p, q = (np.abs(x - roots) / s.diameter for x in (s.edges[k], *((lo, hi) if side else (hi, lo))))
    p_q, pq, m = p - q, p * q, np.zeros(n)
    for b, _ in _blocks(n, 1, 3 * len(roots)):  # three (samples, gaps) temporaries a piece
        u = np.reciprocal(d_c + (s1[b] * s1[b] / one_minus[b])[:, None])  # |t - e| = s^2/(1 - s^2)
        m[b] = -0.5 * np.sum(np.log1p(u * (p_q - u * pq)), axis=1)
    return np.expm1(m) / one_minus + 1.0 / (1.0 + s1)


def _ray_series(s: GapSet, roots, side: int, phi=None) -> np.ndarray:
    """c_1..c_n of g(x) = log1p(y) + sum_m c_m sin^2(m theta_x/2), y = |x - e|/diam and
    sin^2(theta_x/2) = sqrt(y/(1 + y)), from _ray_samples's phi (taken when None): cos(k
    theta) sin(theta) integrates to sin^2((k+1) theta/2)/(k+1) - sin^2((k-1) theta/2)/(k-1),
    twice the first for k = 0, so every term vanishes at e, where g keeps its relative accuracy."""
    a = np.concatenate([_dct(_ray_samples(s, roots, side) if phi is None else phi), [0.0, 0.0]])
    a[0] *= 2.0
    return (a[:-2] - a[2:]) / np.arange(1, len(a) - 1)


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
    representation.  Each gap has one order, its series', at which every
    period pass samples it, so the gap series keep the confirming pass's
    samples at the roots.  period_residuals samples the roots again; the
    gap and ray series, and the mass-gated band rule of each order a
    measure asks for, are built on first use.
    """

    set: GapSet
    edges: np.ndarray
    critical_points: np.ndarray
    robin: float
    capacity: float
    gap_orders: tuple[int, ...]  # per-gap order of the period tables and the gap series
    solve_passes: int  # period-solve sampling passes run (0: roots given)
    root_move: float  # the last pass's largest diagonal step; above 1e-14 * diam the cap or floor hit
    period_residual: float  # largest |period residual|, what the period gate read
    # f = +-|g'| r sin(theta) per gap at its series' cosine points, flat, for _gap_series
    gap_samples: np.ndarray = field(repr=False, compare=False)
    # _ray_series by side, built on first use; _assemble leaves side 1, whose samples give robin
    _rays: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # band rules by order, built on first use by equilibrium_quadrature
    _rules: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def _gap_series(self):
        """Per gap, the order n of its series and its row in coefs[n]:
        a_0, a_1/1, ..., a_(n-1)/(n-1), the coefficients of

            A(theta) = a_0 theta + sum_{m >= 1} a_m sin(m theta)/m,

        the integral from 0 to theta of _dct's interpolant sum_m a_m cos(m theta)
        of f = +-|g'| r sin(theta) (+ right of c_j) at the cosine points of
        t = c + r cos(theta).  f is analytic, so n = gap_orders[j], at least
        the interpolant's ellipse order; the samples are gap_samples, taken in
        the solve.  The nodes are rounded, up to ~1e-11 off their angles in a
        level-9 gap, so one step along the series' own derivative, _idct of
        m a_m, moves the samples onto the angles before _dct is redone.
        """
        lo, hi, f = self.edges[1:-1:2], self.edges[2:-1:2], self.gap_samples
        c, r = (lo + hi) / 2, (hi - lo) / 2
        orders = np.asarray(self.gap_orders)
        first, rows, coefs = np.cumsum(orders) - orders, np.empty_like(orders), {}
        for n in sorted(set(orders.tolist())):
            ids, m = np.flatnonzero(orders == n), np.arange(n)
            rows[ids], cols, theta = np.arange(len(ids)), first[ids, None] + m, (m + 0.5) * np.pi / n
            t = c[ids, None] + r[ids, None] * _cos_points(n)  # the nodes, rounded as _log_sums rounds them
            shift = ((t - c[ids, None]) / r[ids, None] - np.cos(theta)) / np.sin(theta)
            moved = f[cols] + shift * _idct(m * _dct(f[cols])).imag  # f at the angles
            coefs[n] = _dct(moved) / np.where(m, m, 1)  # a_0, a_m/m
        return orders, rows, coefs


def solve_green(s: GapSet, quad_order: int | None = None) -> GreenModel:
    """Solve the period conditions and assemble all derived quantities.

    An explicit quad_order is a floor on the gap orders, the only way past
    _GAP_ORDER_CAP.  A float overflow or invalid operation in the solve,
    as on sets that span most of the float range, is a NumericalError, never
    an inf or nan.
    """
    floor = 0 if quad_order is None else _integer(quad_order, "quad_order")
    if quad_order is not None and floor < GAP_ORDER_FLOOR:
        raise ValidationError(f"quad_order must be at least {GAP_ORDER_FLOOR}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _solve(s, floor)
    except FloatingPointError as exc:
        raise NumericalError(f"solve left the float range: {exc}") from exc


def _solve(s: GapSet, floor: int) -> GreenModel:
    """Correct the gap midpoints until the largest diagonal step (_pass_weights)
    is at most 1e-14 diam, or from the third pass on falls less than tenfold, the
    rounding floor; the roots stay that pass's anchors, where its samples were taken."""
    gap_orders = tuple(max(n, floor) for n in _gap_orders(s))
    roots, passes, step, samples = np.array([(lo + hi) / 2 for lo, hi in s.gaps]), 0, 0.0, None
    while s.gaps:
        samples = _pass_samples(s, roots, gap_orders)
        (v, vu, diagonal), last, passes = _pass_weights(roots, gap_orders, *samples), step, passes + 1
        step = float(np.max(np.abs(diagonal)))
        if step <= 1e-14 * (s.beta - s.alpha) or passes == _SOLVE_PASSES or (passes > 2 and step > last / 10):
            break
        delta, v, vu = _period_correction(s, roots, gap_orders, samples[0], v, vu), None, None
        roots = _period_roots(s.gaps, roots, delta)  # its sweeps' tables peak with no weights held
    return _assemble(s, roots, gap_orders, passes, step, samples)


def _pass_samples(s: GapSet, anchors, gap_orders):
    """A period pass's samples: the flat nodes t, gap_orders[j] cosine points
    on each gap j, and log(|B_j|/sqrt|R_j|) there, B_j = prod_{k != j}(t - m_k)
    and R_j the product over the edges but gap j's own.

    One _log_sums call over the anchors and the edges together: every other
    gap enters as its anchor and two edges, a triple whose logs nearly
    cancel away from gap j, where an edges-only and an anchors-only sum
    would each run to ~800 in magnitude at level 9 and meet in a difference.
    With the own anchor's log|t - m_j| added these are g' at the anchors,
    gap j's own edge factors cancelled (_residuals_and_samples).
    """
    n = len(anchors)
    own = np.column_stack([np.arange(n), n + 1 + 2 * np.arange(n), n + 2 + 2 * np.arange(n)])
    return _log_sums(s.edges[1:-1:2], s.edges[2:-1:2], gap_orders, anchors, s.edges, own)


def _pass_weights(anchors, gap_orders, t, log_b):
    """Node weights v = w |B_j| (_period_correction) shifted by their gap's largest log, vu = v (t - m_j),
    and gap j's diagonal step sum vu/sum v: its root move under a correction without the others' columns."""
    starts, gap = np.cumsum(gap_orders) - gap_orders, np.repeat(np.arange(len(anchors)), gap_orders)
    v = np.exp(log_b - np.maximum.reduceat(log_b, starts)[gap])
    vu = v * (t - anchors[gap])
    return v, vu, np.add.reduceat(vu, starts) / np.add.reduceat(v, starts)


def _period_correction(s: GapSet, anchors, gap_orders, t, v, vu) -> np.ndarray:
    """Solve the linearized period conditions for the correction weights.

    P = B + sum_i delta_i B_i with B = prod_k (t - m_k) and B_i = B/(t - m_i),
    so gap j's condition sum_t w P = 0, w = (pi/n_j)/sqrt|R| with gap j's
    own edges cancelled, is sum_t w B_j f_j = 0 with the deflated f_j = P/B_j
    of _deflated_numerator, linear in delta.  B_j has no zero on gap j, so
    its sign is the same at every node and is dropped, flipping the row and
    its right-hand side together.  The node weights v = w |B_j| and vu =
    v (t - m_j) are _pass_weights', v shifted by its gap's largest log: the
    diagonal sum v >= 1, and pi/n_j drops out.  A node on m_j only zeroes its
    factor t - m_j, and no node meets another anchor.  The Cauchy columns
    sum_t v u/(t - m_i) of the anchors within _FAR r_j of gap j, a window of
    the sorted anchors, are one matrix product per run of whole gaps with
    one window, _ARC_BLOCK entries a chunk where they fit.  The far columns
    are -sum_k M_k q^(k+1)/r from the gap's moments M_k = sum_t v u x^k,
    x = (t - c)/r, q = r/(m_i - c), with terms for 1e-17 at the nearest; a
    set with no far pair skips them.
    """
    n, lo, hi, orders = len(anchors), s.edges[1:-1:2], s.edges[2:-1:2], np.asarray(gap_orders)
    gap, ends = np.repeat(np.arange(n), orders), np.cumsum(orders)
    starts = ends - orders
    A, ms, ends, starts, j = np.zeros((n, n)), anchors.tolist(), ends.tolist(), starts.tolist(), 0
    near = [(bisect.bisect_left(ms, x - _FAR * h), bisect.bisect_right(ms, y + _FAR * h))
            for x, y, h in zip(lo.tolist(), hi.tolist(), ((hi - lo) / 2).tolist())]  # overflows are inf
    if min(b - a for a, b in near) < n:  # a far pair: every column from the moments, near windows below
        (first, last), c, r = np.array(near).T, (lo + hi) / 2, (hi - lo) / 2
        terms = int(np.max(_far_terms(lo, hi, anchors, first, last)))
        x, power, moments = (t - c[gap]) / r[gap], vu / -r[gap], np.empty((n, terms))
        for m in range(terms):  # -sum_t vu x^m/r, x = (t - c)/r
            moments[:, m] = np.add.reduceat(power, starts)
            power *= x
        del x, power
        for rows, _ in _blocks(n, 1, 2 * n):  # q within half an _ARC_BLOCK piece, A in place
            q, far = anchors - c[rows, None], A[rows]
            np.fill_diagonal(q[:, rows], np.inf)  # m_j may be c_j
            np.divide(r[rows, None], q, out=q)  # 1/(t - m_i) = -sum_k (x q)^k q/r, q = r/(m_i - c)
            for m in range(terms - 1, -1, -1):  # Horner in q
                far += moments[rows, m, None]
                far *= q
            del q  # before the next piece is allocated
    while j < n:  # runs of gaps with one window, _ARC_BLOCK entries a chunk where they fit
        (a, b), k = near[j], j + 1
        while k < n and near[k] == (a, b) and ends[k] - starts[j] <= _ARC_BLOCK // (b - a):
            k += 1
        if b - a > 1:  # the own anchor alone is no column
            rows, cols = slice(starts[j], ends[k - 1]), slice(a, b)
            d = t[rows, None] - anchors[cols]
            d[np.arange(rows.stop - rows.start), gap[rows] - a] = np.inf  # leave out i = j
            block = np.zeros((k - j, rows.stop - rows.start))  # gap j + i's row of vu
            block[gap[rows] - j, np.arange(rows.stop - rows.start)] = vu[rows]
            A[j:k, cols] = block @ np.reciprocal(d, out=d)
            del d  # before the next chunk is allocated
        j = k
    A.flat[::n + 1] = np.add.reduceat(v, starts)
    rhs = -np.add.reduceat(vu, starts)
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular period-condition system: {exc}") from exc


def _deflated_numerator(x: np.ndarray, idx: np.ndarray, anchors: np.ndarray, delta: np.ndarray):
    """f_j(x) = P(x)/B_j(x) and f_j'(x) for gap j = idx[r] at x[r], vectorized.

    With B_j = prod_{k != j}(x - m_k) and P = B + sum_i delta_i B_i,

        f_j(x) = (x - m_j)(1 + sum_{i != j} delta_i/(x - m_i)) + delta_j.

    Every other anchor lies in its own gap and gap closures are disjoint, so
    B_j has no zero on gap j and f_j has exactly P's root there; no product
    is formed, so nothing over- or underflows.
    """
    d = x[:, None] - anchors[None, :]
    d[np.arange(len(x)), idx] = np.inf  # leave out i = j
    u, inv = x - anchors[idx], np.reciprocal(d, out=d)
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
    total = float(w.sum())
    if not abs(total - 1.0) <= TOLERANCES["quadrature_mass"]:  # NaN fails too
        raise NumericalError(
            f"equilibrium weights sum to {total!r}, expected 1; raise quad_order"
        )
    return EquilibriumQuadrature(tuple(t.reshape(bands, order)), tuple(w.reshape(bands, order)), order)


def _assemble(s, roots, gap_orders, passes, moved, samples) -> GreenModel:
    """The gated model: the period gate on a pass's samples at the roots (the
    solve's confirming pass, or for a load a pass at the given roots), which
    the gap series keep, and the right-hand ray, whose int Phi is robin's."""
    residual, f = 0.0, np.empty(0)
    if len(roots):
        residuals, f = _residuals_and_samples(roots, gap_orders, *samples)
        residual = float(np.max(np.abs(residuals)))
        if not residual <= TOLERANCES["period_residual"]:  # NaN fails too
            raise NumericalError(
                f"period residual {residual!r} exceeds {TOLERANCES['period_residual']!r}"
            )
    phi = _ray_samples(s, roots, 1)
    whole = float(_fejer(len(phi)) @ phi)  # g(x) - log1p(y) at infinity
    model = GreenModel(
        set=s,
        edges=s.edges,
        critical_points=np.asarray(roots, dtype=float),
        robin=whole - math.log(s.diameter),
        capacity=s.diameter * math.exp(-whole),
        gap_orders=tuple(gap_orders),
        solve_passes=passes,
        root_move=moved,
        period_residual=residual,
        gap_samples=f,
    )
    model._rays[1] = _ray_series(s, roots, 1, phi)
    return model


def period_residuals(model: GreenModel) -> np.ndarray:
    """Per-gap residual of the defining conditions (zero for a solved model)."""
    roots, orders = model.critical_points, model.gap_orders
    return _residuals_and_samples(roots, orders, *_pass_samples(model.set, roots, orders))[0]


def _residuals_and_samples(roots, gap_orders, t, log_b):
    """The period residuals (pi/n_j) sum f with P's sign, (-1)^(roots right
    of t), and f = +-|g'| r sin(theta), + right of c_j: a pass's samples at
    the roots, one log|t - c_j| more per node."""
    orders = np.asarray(gap_orders, dtype=int)
    d = t - np.repeat(roots, orders)
    with np.errstate(divide="ignore"):  # a node on c_j reads f = 0
        f = np.sign(d) * np.exp(log_b + np.log(np.abs(d)))
    sign = np.where((len(roots) - np.arange(len(roots))) % 2, 1.0, -1.0)  # P's sign right of c_j
    return sign * np.pi / orders * np.add.reduceat(f, np.cumsum(orders) - orders), f


def _gap_integrals(model: GreenModel, gap: np.ndarray, x: np.ndarray):
    """A(theta_x) of gap gap[i]'s series (GreenModel._gap_series) at x[i], by _sine_sums,
    and A(pi) = a_0 pi: g(x) from the right edge, and the edge-to-edge integral, zero by
    the period condition."""
    orders, rows, coefs = model._gap_series
    lo, hi = model.edges[1:-1:2][gap], model.edges[2:-1:2][gap]
    theta = np.arccos(np.clip((x - (lo + hi) / 2) / ((hi - lo) / 2), -1.0, 1.0))
    at, whole = np.empty(len(x)), np.empty(len(x))
    for n in sorted(set(orders[gap].tolist())):
        i = np.flatnonzero(orders[gap] == n)
        a0 = coefs[n][rows[gap[i]], 0]
        at[i], whole[i] = a0 * theta[i] + _sine_sums(theta[i], coefs[n], rows[gap[i]]), a0 * np.pi
    return at, whole


def green_value(model: GreenModel, x):
    """g(x): a float for a float, else an array of x's shape; zero on the set.

    The points in gaps, found by edge_slots, read their gap's series:
    |A(theta_x)| right of c_j and |A(theta_x) - a_0 pi| left of it, the
    integral from the edge on x's side.  The points outside [alpha, beta]
    read their side's ray series, one batch a side, at any distance:
    |x - e| is formed from halves, so no difference leaves the float range,
    and y = |x - e|/diam, which passes it only far beyond a tiny set, then
    reads log1p(y) as a difference of logs.  A point's bits ignore its batch.
    """
    s, edges, roots = model.set, model.edges, model.critical_points
    xs = np.asarray(x, dtype=float).ravel()
    slots = edge_slots(s, xs)
    out = np.zeros(len(xs))
    for side, slot in enumerate((0, len(edges))):
        idx = np.flatnonzero(slots == slot)
        if len(idx) and side not in model._rays:
            model._rays[side] = _ray_series(s, roots, side)
        c, h = model._rays.get(side, ()), 0.5 * s.diameter
        a = np.abs(0.5 * xs[idx] - 0.5 * (s.alpha, s.beta)[side])  # |x - e|/2
        with np.errstate(over="ignore"):
            y = a / h
        log1p_y = np.where(np.isinf(y), np.log(a) - math.log(h), np.log1p(y))
        half = np.arcsin(np.sqrt(np.sqrt(a / (a + h))))
        for b, _ in _blocks(len(idx), 1, len(c)):  # row sums: a point's bits ignore its batch
            terms = np.sin(np.multiply.outer(half[b], np.arange(1, len(c) + 1)))
            out[idx[b]] = log1p_y[b] + np.sum(terms * terms * c, axis=1)
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
    if not 0 <= (j := _integer(j, "gap index")) < len(model.set.gaps):
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
    return _log_g_prime(t, model.critical_points, model.edges)[1] - math.log(math.pi)


def _m_e(model: GreenModel, x: np.ndarray) -> np.ndarray:
    """m_E = -g' off the set: P's sign from _g_prime times (-1)^(k+1), k bands ending right of x."""
    k = len(model.set.bands) - np.searchsorted(model.edges[1::2], x, side="right")
    return np.where(k % 2, 1.0, -1.0) * _g_prime(x, model.critical_points, model.edges)


def equilibrium_quadrature(model: GreenModel, order: int) -> EquilibriumQuadrature:
    """Per-band rule for dmu_E at the given order, mass-gated; built once per model and order."""
    if (order := _integer(order, "quadrature order")) < GAP_ORDER_FLOOR:
        raise ValidationError(f"quadrature order must be at least {GAP_ORDER_FLOOR}")
    if order not in model._rules:
        model._rules[order] = _band_rule(model.set, model.critical_points, order)
    return model._rules[order]


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
        gap_orders = tuple(int(n) for n in obj["gap_orders"])
        roots = np.asarray(obj["numerator"]["roots"], dtype=float)
        passes, moved = int(obj["solve_passes"]), float(obj["root_move"])
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ValidationError(f"malformed GreenModel JSON: {exc!r}") from exc
    # what solve_green writes: one root in each gap (a NaN fails) and the series' orders or more
    lo, hi = np.reshape(s.gaps, (-1, 2)).T
    shaped = roots.shape == lo.shape and len(gap_orders) == len(lo)
    if not (shaped and np.all((lo <= roots) & (roots <= hi))
            and all(n >= m for n, m in zip(gap_orders, _gap_orders(s)))):
        raise ValidationError("malformed GreenModel JSON: need one root in and one order per gap, "
                              "orders at least the gap series'")
    return _assemble(s, roots, gap_orders, passes, moved, _pass_samples(s, roots, gap_orders))
