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
factors its substitution cancels left out, from one primitive
_log_g_prime: the root and edge log-sums meet in a single exp, so the
quotient stays in range where either product alone over- or underflows.
The period weights, which have no root factors, stay logs until they
meet log|P| or log|B_j|.  Singular integrals
are tamed by the cosine substitution t = c + r*cos(theta) (gap and band
versions), which cancels the inverse-square-root edge behaviour exactly,
and on the unbounded components by t = e +/- s^2.  After the substitution
a gap integrand is analytic out to the nearest foreign edge, so each gap
gets the order that edge's Bernstein ellipse needs for 1e-15 (at least
32); an explicit quad_order sets every order.  An outer ray is sized from
the edge one outer band inside, never below the band order.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NumericalError, ValidationError
from .realset import GapSet, locate, make_gapset

DEFAULT_ORDER_SMALL = 200  # nodes per band/gap for up to 15 gaps
DEFAULT_ORDER_LARGE = 80  # above that, keep 255-gap levels affordable
_GAP_COUNT_SWITCH = 15
GAP_ORDER_FLOOR = 32  # smallest per-gap order; also the smallest quad_order
_GAP_ORDER_CAP = 1024  # largest default per-gap order, to bound a table's size
_GAP_RULE_TARGET = 1e-15  # error the per-gap orders are sized for
_SOLVE_PASSES = 6  # cap on linearized period-solve passes
_ROOT_SWEEPS = 100  # cap on Newton/bisection sweeps per pass

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
    return np.clip(n, GAP_ORDER_FLOOR, _GAP_ORDER_CAP).astype(int)


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


def _theta(lo: float, hi: float, x: float) -> float:
    """Angle of x under t = c + r cos(theta) over [lo, hi]."""
    return math.acos(min(1.0, max(-1.0, (x - (lo + hi) / 2) / ((hi - lo) / 2))))


def _edge_ray(roots, edges, k: int, length: float, order: int) -> float:
    """Integral of g' from the outer edge e_k (k = 0 or the last) outward by length.

    Under t = e_k -/+ s^2, dt = 2s ds cancels the edge's own factor
    sqrt|t - e_k| = s, leaving a smooth integrand in s.  The edge one outer
    band (length eps) inside puts branch points at s = +/- i sqrt(eps), at
    z = -1 + 2i sqrt(eps/length) in the rule's variable; the rule takes the
    larger of order and the order of their Bernstein ellipse.
    """
    eps = abs(edges[k] - edges[1 if k == 0 else k - 1])
    z = complex(-1.0, 2.0 * math.sqrt(eps / length))
    w = cmath.sqrt(z * z - 1.0)
    xg, wg = _leggauss(max(order, int(_ellipse_orders(math.log(max(abs(z + w), abs(z - w)))))))
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
    quad: EquilibriumQuadrature  # the band rule at quad_order
    gap_orders: tuple[int, ...]  # per-gap order of the period tables and gap arcs
    solve_passes: int  # linearized period-solve passes run (0: roots given)
    root_move: float  # largest root change in the last pass; above 1e-14 * diam the cap was hit
    # per-gap period-integral tables; treated as private
    _gap_nodes: tuple[np.ndarray, ...]
    _gap_log_weights: tuple[np.ndarray, ...]


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
    gap_nodes, gap_log_weights = _gap_tables(s, gap_orders)

    # relinearize until the roots settle; small gap counts stop after two
    roots = np.array([(lo + hi) / 2 for lo, hi in s.gaps])
    passes, moved = 0, 0.0
    while n_gaps and passes < _SOLVE_PASSES:
        delta = _period_correction(roots, gap_nodes, gap_log_weights)
        new_roots = _period_roots(s.gaps, roots, delta)
        moved = float(np.max(np.abs(new_roots - roots)))
        roots = new_roots
        passes += 1
        if moved <= 1e-14 * (s.beta - s.alpha):
            break
    model = _assemble(s, roots, order, gap_orders, passes, moved, gap_nodes, gap_log_weights)
    worst = float(np.max(np.abs(period_residuals(model)))) if n_gaps else 0.0
    if worst > TOLERANCES["period_residual"]:
        raise NumericalError(
            f"period residual {worst!r} exceeds {TOLERANCES['period_residual']!r}"
        )
    return model


def _gap_tables(s: GapSet, gap_orders):
    """Per-gap cosine-substitution nodes and log weights for the period integrals.

    Gap j gets gap_orders[j] nodes.  The weights (pi/order)/sqrt|R| with the
    gap's own edges cancelled stay logs, log(pi/order) - 1/2 sum_{k not own}
    log|t - e_k|: past ~500 edges they leave double range, and only their
    sum with log|P| is formed.
    """
    gap_nodes, gap_log_weights = [], []
    for j, ((lo, hi), order) in enumerate(zip(s.gaps, gap_orders)):
        t = _cosine_nodes(lo, hi, order)
        _, log_w = _log_g_prime(t, (), s.edges, (2 * j + 1, 2 * j + 2))
        gap_nodes.append(t)
        gap_log_weights.append(math.log(np.pi / order) + log_w)
    return gap_nodes, gap_log_weights


def _period_correction(anchors, gap_nodes, gap_log_weights) -> np.ndarray:
    """Solve the linearized period conditions for the correction weights.

    P = B + sum_i delta_i B_i with B = prod_k (t - m_k) and B_i = B/(t - m_i),
    so gap j's condition sum_t w P = 0 is sum_t w B_j f_j = 0 with the
    deflated f_j = P/B_j of _deflated_numerator, linear in delta.  B_j has
    no zero on gap j, so its sign is the same at every node and is dropped,
    flipping the row and its right-hand side together.  The node weights
    v = w |B_j| are shifted by their largest log, which makes the diagonal
    sum v >= 1.  A node on m_j only zeroes its factor t - m_j, and no node
    meets another anchor.  Rows are built gap by gap: stacking all gap
    nodes into one call would make every temporary (gaps * order) x gaps.
    """
    n = len(anchors)
    A = np.empty((n, n))
    rhs = np.empty(n)
    for j, (t, log_w) in enumerate(zip(gap_nodes, gap_log_weights)):
        u, inv = _deflated_terms(t, j, anchors)
        log_v = log_w - np.sum(np.log(np.abs(np.delete(inv, j, axis=1))), axis=1)  # log w|B_j|
        v = np.exp(log_v - np.max(log_v))
        A[j] = (v * u) @ inv
        A[j, j] = np.sum(v)
        rhs[j] = -np.sum(v * u)
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular period-condition system: {exc}") from exc


def _deflated_terms(x: np.ndarray, idx, anchors: np.ndarray):
    """x - m_j and 1/(x - m_i) with the own column i = j zero, for gap j = idx[r] at x[r]."""
    d = x[:, None] - anchors[None, :]
    d[np.arange(len(x)), idx] = np.inf  # leave out i = j
    return x - anchors[idx], 1.0 / d


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
    nodes, weights = [], []
    for k, (lo, hi) in enumerate(s.bands):
        t = _cosine_nodes(lo, hi, order)
        nodes.append(t)
        weights.append(np.abs(_g_prime(t, roots, s.edges, (2 * k, 2 * k + 1))) / order)
    quad = EquilibriumQuadrature(tuple(nodes), tuple(weights), order)
    total = float(np.sum(quad.all_weights))
    if abs(total - 1.0) > TOLERANCES["quadrature_mass"]:
        raise NumericalError(
            f"equilibrium weights sum to {total!r}, expected 1; raise quad_order"
        )
    return quad


def _assemble(s, roots, order, gap_orders, passes, moved, gap_nodes, gap_log_weights) -> GreenModel:
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
        gap_orders=tuple(gap_orders),
        solve_passes=passes,
        root_move=moved,
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
    xg, wg = _leggauss(model.gap_orders[j])
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
    """Sum of g over the critical points (zero for a gapless set).

    g(c_j) is the gap-j arc from the right edge to c_j, as green_value
    takes it, with no search for the gap.
    """
    return float(sum(
        _gap_arc(model, j, 0.0, _theta(lo, hi, c))
        for j, ((lo, hi), c) in enumerate(zip(model.set.gaps, model.critical_points))
    ))


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
    return _assemble(s, roots, order, gap_orders, int(obj.get("solve_passes", 0)),
                     float(obj.get("root_move", 0.0)), *_gap_tables(s, gap_orders))
