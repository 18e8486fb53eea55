"""Szego integrals, relative entropies and step-by-step sum rules.

The central identity compared here is

    log(a_1...a_n / cap^n)
        = sum_k (g(x_k) - g(x_{n,k})) + (S(mu) - S(mu_n)) / 2,

with g the Green's function, x_k / x_{n,k} the eigenvalues of the matrix
and its n-fold strip off the set, and S the relative entropy against the
equilibrium measure.  The matrix is mu's, so the x_k are its point masses;
the left side comes from Lanczos coefficients, the right side from the
strip's certified gap eigenvalues and the stripping factors a_k^2 |m_{k-1}|^2
at t + i0, so the residual cross-validates independent numerical paths.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .jacobi import (
    JacobiCoeffs,
    MeasureModel,
    coefficients_from_measure,
    eigenvalue_green_sum,
    gap_eigenvalues,
    glued_eigenvalues,
    make_measure,
    measure_m_boundary,
    measure_to_json,
    stable_gap_eigenvalues,
    strip,
)
from .potential import EquilibriumQuadrature, GreenModel, equilibrium_quadrature, pw_sum
from .realset import _integer

NEG_INF = float("-inf")

# A quadrature cannot prove divergence, so the Szego class is read from how
# the edge-fitted integral moves between orders n, 2n and 4n.  A
# non-integrable zero puts an O(1) term on its nearest nodes whose size
# depends on their offsets from the zero, so it jumps in either direction
# from one order to the next; with the CLASS_TRIM most negative node terms
# dropped, a log divergence loses about the same amount per doubling (ratio
# 0.93-1.07) while the error of a double zero halves (ratio 0.54-0.57).
CLASS_TRIM = 4
CLASS_RATIO = 0.75
# relative slack on theorem_upper_bound's comparison of the window with C' e^(S/2)
BOUND_SLACK = 1e-6


def _short_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass
class SumRuleReport:
    n: int
    lhs: float
    green_sum_J: float
    green_sum_strip: float
    entropy_mu: float
    entropy_strip: float
    rhs: float
    residual: float
    bound_C: float
    bound_Cprime: float
    status: str = "ok"
    set_hash: str = ""
    measure_hash: str = ""
    quad_order: int = 0


def _provenance(mu: MeasureModel):
    set_hash = _short_hash(mu.set.to_json())
    try:
        measure_hash = _short_hash(measure_to_json(mu))
    except ValidationError:
        measure_hash = "callable"
    return set_hash, measure_hash


# ---------------------------------------------------------------------------
# entropy-type integrals


def _fit_edge_exponent(d1: float, d2: float, l1: float, l2: float) -> float:
    """Power of |t - e| in h from log h at the two nodes nearest the edge.

    The exponents occurring here are half-integers (inverse-square-root
    equilibrium factors, polynomial weight zeros, stripping flips between
    hard and soft edges), so the noisy fit is snapped to the nearest k/2
    when it is unambiguous.
    """
    p = float(l1 - l2) / math.log(d1 / d2)
    if not math.isfinite(p) or abs(p) > 4.0:
        # essential singularities masquerade as huge exponents; leave the
        # integrand alone and let the Szego-class decision judge the value
        return 0.0
    p_half = round(2.0 * p) / 2.0
    return p_half if abs(p - p_half) <= 0.1 else p


def _log_integral(model: GreenModel, quad: EquilibriumQuadrature, band_logs):
    """integral of log h dmu_E from per-band node values of log h (all finite).

    log h carries logarithmic singularities wherever h has a power-law
    band-edge factor, and plain quadrature converges only like 1/order.
    The fitted edge exponents p are therefore removed node-wise, one
    product log|t - e| @ p per band, and added back exactly through
    int log|t - e| dmu_E = g(e) - robin = -robin.  Returns the integral and
    the same sum without its CLASS_TRIM most negative node terms.
    """
    p = np.zeros(len(model.edges))
    for k, (t, logs) in enumerate(zip(quad.nodes, band_logs)):
        lo, hi = model.set.bands[k]
        # theta-ordered nodes descend from the upper edge to the lower one
        p[2 * k + 1] = _fit_edge_exponent(hi - t[0], hi - t[1], logs[0], logs[1])
        p[2 * k] = _fit_edge_exponent(t[-1] - lo, t[-2] - lo, logs[-1], logs[-2])
    fitted = np.flatnonzero(p)
    terms = [w * (logs - np.log(np.abs(t[:, None] - model.edges[fitted])) @ p[fitted])
             for t, w, logs in zip(quad.nodes, quad.weights, band_logs)]
    total = sum(float(np.sum(x)) for x in terms) - model.robin * float(np.sum(p))
    lowest = np.partition(np.concatenate(terms), CLASS_TRIM)[:CLASS_TRIM]
    return total, total - float(np.sum(lowest))


def _log_f_e_integral(model: GreenModel) -> float:
    """integral of log f_E dmu_E = sum_j g(c_j) + robin - log pi, finite iff the PW sum is.

    f_E = |prod_j (t - c_j)| / (pi sqrt|prod_k (t - e_k)|) and int log|t - x| dmu_E
    = g(x) - robin: the N c_j give pw - N robin, the 2N + 2 edges (N + 1) robin.
    """
    return pw_sum(model) + model.robin - math.log(math.pi)


def _log_ratio(mu: MeasureModel, quad: EquilibriumQuadrature):
    """Per-band node values of log(norm * w), log(f/f_E) or log f by mode; None at a zero."""
    logs = []
    for t in quad.nodes:
        h = np.broadcast_to(mu.normalization * mu.weight_value(t), t.shape)  # w may be a scalar
        if np.any(h < 0):
            raise ValidationError("density is negative at a quadrature node")
        if np.any(h == 0):
            return None
        logs.append(np.log(h))
    return logs


def relative_entropy(mu: MeasureModel) -> float:
    """S(mu_E | mu) = -integral of log(f_E / f) dmu_E; nonpositive, -inf allowed.

    The value is the edge-fitted integral of log(norm * w) at mu.quad's order
    n, less _log_f_e_integral in absolute mode.  It is -inf when the density
    vanishes at a node of order n, 2n or 4n, or when, unsettled at 2n and 4n,
    the trimmed sums drop by a steady amount per doubling (CLASS_TRIM).  Point
    masses only rescale the a.c. density through the unit-mass normalization.
    """
    values, trimmed = [], []
    for k in range(3):
        quad = equilibrium_quadrature(mu.model, mu.quad.order << k)
        logs = _log_ratio(mu, quad)
        if logs is None:
            return NEG_INF
        v, v_trim = _log_integral(mu.model, quad, logs)
        if values and abs(v - values[-1]) <= 1e-9 * max(1.0, abs(v)):
            break
        values.append(v)
        trimmed.append(v_trim)
    else:
        drop = trimmed[0] - trimmed[1]
        if drop > 0 and trimmed[1] - trimmed[2] >= CLASS_RATIO * drop:
            return NEG_INF
    s = values[0] if mu.mode == "relative" else values[0] - _log_f_e_integral(mu.model)
    if s > 1e-6:
        raise NumericalError(f"relative entropy came out positive ({s}); check weights")
    return s


def szego_integral(mu: MeasureModel) -> float:
    """integral of log f dmu_E = relative_entropy(mu) + _log_f_e_integral; -inf when divergent."""
    return relative_entropy(mu) + _log_f_e_integral(mu.model)


# ---------------------------------------------------------------------------
# step-by-step and n-step sum rules


def _eval_size(J: JacobiCoeffs, used: int) -> int:
    """Certification size N for stable_gap_eigenvalues after `used` pairs.

    Certifying at N reads 2N pairs, so N is at most (len(J) - used) // 2,
    and at most 200.
    """
    size = min(200, (len(J) - used) // 2)
    if size < 2:
        raise ValidationError(
            f"coefficient sequence of length {len(J)} too short for certified "
            f"eigenvalues beyond {used} pairs"
        )
    return size


def _stripped_densities(mu: MeasureModel, J: JacobiCoeffs, n: int):
    """Node values of log(f_n/f) = -sum_{k<n} log(a_{k+1}^2 |m_k(t+i0)|^2), one array per band.

    Each step's Im m_{k+1} = Im(-1/m_k) / a_{k+1}^2 = Im m_k / (a_{k+1}^2 |m_k|^2); one
    that leaves Im m <= 0 anywhere is a numerical failure.  A finite S(mu) makes f > 0.
    """
    logs = []
    for t in mu.quad.nodes:
        m, log_ratio = measure_m_boundary(mu, t), 0.0
        for k in range(n):
            log_ratio -= np.log(J.a[k] ** 2 * (m.real ** 2 + m.imag ** 2))
            m = (J.b[k] - t - 1.0 / m) / (J.a[k] ** 2)
            if np.any(m.imag <= 0):
                raise NumericalError(
                    f"stripping step {k + 1} produced a non-Herglotz boundary value"
                )
        logs.append(log_ratio)
    return logs


def n_step_sum_rule(J: JacobiCoeffs, mu: MeasureModel, n: int) -> SumRuleReport:
    """Residual of the n-step sum rule for mu and its Jacobi matrix J."""
    if not 1 <= _integer(n, "step count") <= len(J):
        raise ValidationError(f"step count {n} out of range for length {len(J)}")
    model, quad = mu.model, mu.quad
    lhs = float(np.sum(np.log(J.a[:n]))) - n * math.log(model.capacity)

    eig_n = stable_gap_eigenvalues(strip(J, n), model, _eval_size(J, n))
    gsum_J = eigenvalue_green_sum([x for x, _ in mu.point_masses], model)
    gsum_n = eigenvalue_green_sum([v for v, _ in eig_n], model)

    s_mu = relative_entropy(mu)
    set_hash, measure_hash = _provenance(mu)
    c_formula = 2.0 * gsum_J + pw_sum(model)
    common = dict(
        n=n, lhs=lhs, green_sum_J=gsum_J, green_sum_strip=gsum_n, bound_C=c_formula,
        bound_Cprime=math.exp(c_formula), set_hash=set_hash, measure_hash=measure_hash,
        quad_order=quad.order,
    )
    if s_mu == NEG_INF:
        return SumRuleReport(
            entropy_mu=NEG_INF, entropy_strip=NEG_INF, rhs=float("nan"),
            residual=float("nan"), status="inapplicable", **common,
        )
    s_mun = s_mu + _log_integral(model, quad, _stripped_densities(mu, J, n))[0]
    rhs = (gsum_J - gsum_n) + 0.5 * (s_mu - s_mun)
    return SumRuleReport(
        entropy_mu=s_mu, entropy_strip=s_mun, rhs=rhs, residual=lhs - rhs, **common
    )


def step_sum_rule(J: JacobiCoeffs, mu: MeasureModel) -> SumRuleReport:
    """Single coefficient-stripping step of the sum rule (n = 1); J is mu's matrix."""
    return n_step_sum_rule(J, mu, 1)


# ---------------------------------------------------------------------------
# Szego products and theorem-level checks


def szego_product(J: JacobiCoeffs, capacity: float, n_max: int) -> np.ndarray:
    """u_n = a_1...a_n / cap^n for n = 1..n_max, accumulated in log space."""
    if not 1 <= _integer(n_max, "n_max") <= len(J):
        raise ValidationError(f"n_max {n_max} out of range for length {len(J)}")
    if not 0.0 < capacity < math.inf:  # NaN fails too
        raise ValidationError(f"capacity must be positive and finite, got {capacity!r}")
    logs = np.cumsum(np.log(J.a[:n_max])) - np.arange(1, n_max + 1) * math.log(capacity)
    return np.exp(logs)


def trailing_window(values: np.ndarray) -> np.ndarray:
    """Last quarter of a sequence; the liminf/limsup surrogate window."""
    n = len(values)
    k = max(1, int(math.ceil(n * 0.25)))
    return values[n - k:]


@dataclass
class BoundCheckEntry:
    family: str
    size: int
    green_sum: float
    bound: float
    count: int
    outside_sum: float = 0.0

    @property
    def ok(self) -> bool:
        return self.green_sum <= self.bound + 1e-8


@dataclass
class BoundCheckReport:
    entries: list[BoundCheckEntry]
    base_green_sum: float
    critical_sum: float

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)


def eigenvalue_bound_check(
    J: JacobiCoeffs, model: GreenModel, sizes: list[int]
) -> BoundCheckReport:
    """Check the uniform eigenvalue-sum bounds over corners, strips and glues.

    With {x_k} the certified gap eigenvalues of J itself, corners and strips
    are checked against C = 2 sum g(x_k) + sum_j g(c_j); both families are
    compressions of J, so their spectra stay inside the hull of sigma(J)
    and the constant covers every component.  The glued family is not a
    compression: the junction can push genuine eigenvalues beyond
    [alpha, beta], which the rank-two interlacing constant never controls.
    Its gap components are therefore checked against C + 2 sum_j g(c_j)
    while the outside part is reported separately in outside_sum (see
    README for a concrete strong-junction example).
    """
    sizes = sorted(_integer(x, "size") for x in sizes)
    if not sizes or sizes[0] < 1:
        raise ValidationError("sizes must be positive integers")
    eval_size = _eval_size(J, sizes[-1])
    base = stable_gap_eigenvalues(J, model, eval_size)
    base_sum = eigenvalue_green_sum([v for v, _ in base], model)
    crit = pw_sum(model)
    c_bound = 2.0 * base_sum + crit
    entries: list[BoundCheckEntry] = []
    for family, spectrum in (("strip", lambda n: stable_gap_eigenvalues(strip(J, n), model, eval_size)),
                             ("corner", lambda n: gap_eigenvalues(J, model, n))):
        for n in sizes:
            xs = [v for v, _ in spectrum(n)]
            entries.append(BoundCheckEntry(family, n, eigenvalue_green_sum(xs, model), c_bound, len(xs)))
    for n, eigs in glued_eigenvalues(J, model, sizes).items():
        in_gap = [v for v, loc in eigs if loc.kind == "gap"]
        outside = [v for v, loc in eigs if loc.kind != "gap"]
        entries.append(BoundCheckEntry("glued", n, eigenvalue_green_sum(in_gap, model),
                                       c_bound + 2.0 * crit, len(eigs),
                                       outside_sum=eigenvalue_green_sum(outside, model)))
    return BoundCheckReport(entries=entries, base_green_sum=base_sum, critical_sum=crit)


def equilibrium_coefficients(model: GreenModel, n: int) -> JacobiCoeffs:
    """First n Jacobi pairs of the equilibrium measure, at coefficients_from_measure's order."""
    return coefficients_from_measure(make_measure(model), n)


@dataclass
class TheoremReport:
    n_max: int
    window_max: float
    window_min: float
    entropy: float
    bound_C: float
    bound_Cprime: float
    satisfied: bool
    glued_sums: dict


def theorem_upper_bound(J: JacobiCoeffs, mu: MeasureModel, n_max: int) -> TheoremReport:
    """Check max u_n over the trailing window against C' exp(S/2), C' = exp(C).

    J must be mu's Jacobi matrix with at least n_max pairs, so its off-set
    eigenvalues x_k are mu's point masses.  C is 2 sum g(x_k) + sum g(c_j) plus
    the largest glued Green sum over the heads max(1, n_max // k), k = 8, 4, 2, 1.
    """
    model = mu.model
    S = relative_entropy(mu)
    if S == NEG_INF:
        raise ValidationError("upper-bound check requires a finite entropy")
    u = szego_product(J, model.capacity, n_max)
    window = trailing_window(u)
    base_sum = eigenvalue_green_sum([x for x, _ in mu.point_masses], model)
    glued = glued_eigenvalues(J, model, {max(1, n_max // k) for k in (8, 4, 2, 1)})
    glued_sums = {n: eigenvalue_green_sum([v for v, _ in eigs], model) for n, eigs in glued.items()}
    bound_C = 2.0 * base_sum + pw_sum(model) + max(0.0, *glued_sums.values())
    bound_Cprime = math.exp(bound_C)
    limit = bound_Cprime * math.exp(0.5 * S) * (1.0 + BOUND_SLACK)
    return TheoremReport(
        n_max=n_max,
        window_max=float(np.max(window)),
        window_min=float(np.min(window)),
        entropy=S,
        bound_C=bound_C,
        bound_Cprime=bound_Cprime,
        satisfied=bool(np.max(window) <= limit),
        glued_sums=glued_sums,
    )
