"""Jacobi recurrence coefficients, eigenvalues and m-functions.

Coefficients come out of a discretized-Stieltjes procedure: the measure is
replaced by M atoms per band at the band rule's cosine points (weights:
the equilibrium rule's, or in absolute mode Fejér's first rule's, times w)
plus any point masses, and the Lanczos recurrence is run on the resulting
diagonal operator.  Moment determinants lose every digit by n ~ 20.
The measure keeps the a.c. rule make_measure builds; Lanczos, boundary
values and the Glauert fit (a cosine transform of its weights) read it.
Lanczos keeps a semiorthogonal basis by partial reorthogonalization
(Simon, Math. Comp. 42, 1984): an O(k) recurrence per step estimates the
lost orthogonality, and two full passes run only on the step where the
estimate passes sqrt(eps) and on the one after.  Without point masses no
pass fires and the cost is O(M n); a point mass off the set draws a Ritz
value to it, and then the estimate passes the bound every 10-20 steps.
Either way the coefficients match full reorthogonalization to rounding,
stable to several hundred coefficients in double precision.

Truncation spectra are seeded from the dense symmetric eigensolver (the
N x N truncation, O(N^2) memory) and certified by Sturm-sequence sign
counts, which give exact eigenvalue counts per interval: one sweep checks
a bracket narrower than 1e-13 * max(1, |x|) around every seed, and
multisection from the component bracket takes over where a seed fails.  The
zeros of the truncated m-function are the eigenvalues of a rank-one shift
of b_1, so the same certification finds poles and zeros; m_function is the
only continued fraction, evaluated on J as given (its N x N corner is J's
first N pairs).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .potential import (
    EquilibriumQuadrature,
    GreenModel,
    TOLERANCES,
    _dct,
    _log_f_e,
    _m_e,
    equilibrium_quadrature,
    green_value,
)
from .realset import GapSet, Location, edge_slots, locate

_SWEEP_POINTS = 512  # midpoints per multisection count sweep, all brackets together
_INTERLACING_EPS = 1e-6  # interlacing_profile's zeros are the roots of m + this


@lru_cache(maxsize=64)
def _fejer(n: int) -> np.ndarray:
    """Fejér's first-rule weights on [-1, 1] at potential._cos_points(n), read-only, exact to
    degree n - 1: w_i = sum_m c_m cos(m theta_i), c_m = (2/n) int T_m = 4/(n (1 - m^2)) for
    even m > 0, c_0 = 2/n; one inverse DCT by FFT (Waldvogel, BIT 46, 2006)."""
    c = np.zeros(n)
    c[::2] = 4.0 / (n * (1.0 - np.arange(0, n, 2) ** 2))
    c[0] = 2.0 / n
    w = np.fft.fft(c * np.exp(-0.5j * np.pi * np.arange(n) / n), 2 * n)[:n].real  # e^(-i m theta_0)
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class JacobiCoeffs:
    """Finite Jacobi matrix (a_n > 0, b_n), read as given: no tail beyond b_n."""

    a: np.ndarray
    b: np.ndarray
    # Lanczos diagnostics, set only by coefficients_from_measure
    reorth_steps: int | None = field(default=None, compare=False)
    breakdown_margin: float | None = field(default=None, compare=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 1 or b.ndim != 1 or len(a) not in (len(b), len(b) - 1):
            # a may be one entry shorter: an n x n corner needs n-1 couplings
            raise ValidationError("need len(a) == len(b) or len(b) - 1, both 1-d")
        if len(a) and np.min(a) <= 0:
            raise ValidationError(f"off-diagonal entries must be positive, min={np.min(a)}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValidationError("coefficients must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __len__(self):
        return len(self.b)


# ---------------------------------------------------------------------------
# measure models


# numeric parameters per weight form: what each must be, and its shape test
_NUMBER = ("a number", lambda a: a.ndim == 0)
_COEFS = ("a non-empty list of numbers", lambda a: a.ndim == 1 and a.size > 0)
_PAIRS = ("a non-empty list of [lo, hi] pairs",
          lambda a: a.ndim == 2 and a.shape[0] > 0 and a.shape[1] == 2)
_WEIGHT_PARAMS = {
    "const": {"value": _NUMBER},
    "poly": {"coef": _COEFS},
    "exprat": {"num": _COEFS, "den": _COEFS},
    "exp_inv_abs": {"center": _NUMBER, "strength": _NUMBER},
    "indicator": {"support": _PAIRS},
}
_OPTIONAL_WEIGHT_PARAMS = {"strength"}


@dataclass(frozen=True)
class WeightSpec:
    """Serializable weight factor; form in {const, poly, exprat, exp_inv_abs,
    indicator}.  poly: params["coef"] in increasing degree.  exprat:
    exp(p(t)/q(t)).  exp_inv_abs: exp(-strength/|t - center|), the standard
    non-integrable-log test factor.  indicator: 1 on params["support"]."""

    form: str
    params: dict

    def __post_init__(self):
        # checked here, so a malformed factor is a ValidationError when it is
        # built, not a raw IndexError or ValueError inside a quadrature
        if self.form not in _WEIGHT_PARAMS:
            raise ValidationError(f"unknown weight form {self.form!r}")
        if not isinstance(self.params, dict):
            raise ValidationError(f"weight params must be a dict, got {self.params!r}")
        for name, (what, shape_ok) in _WEIGHT_PARAMS[self.form].items():
            if name not in self.params:
                if name in _OPTIONAL_WEIGHT_PARAMS:
                    continue
                raise ValidationError(f"{self.form} weight needs {name!r}")
            value = self.params[name]
            try:
                arr = np.asarray(value, dtype=float)
            except (TypeError, ValueError):
                arr = None
            if arr is None or not shape_ok(arr) or not np.all(np.isfinite(arr)):
                raise ValidationError(
                    f"{self.form} weight {name!r} must be {what}, finite; got {value!r}"
                )

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.form == "const":
            return np.full_like(t, float(self.params["value"]))
        if self.form == "poly":
            return np.polynomial.polynomial.polyval(t, self.params["coef"])
        if self.form == "exprat":
            num = np.polynomial.polynomial.polyval(t, self.params["num"])
            den = np.polynomial.polynomial.polyval(t, self.params["den"])
            return np.exp(num / den)
        if self.form == "exp_inv_abs":
            c = float(self.params["center"])
            s = float(self.params.get("strength", 1.0))
            with np.errstate(divide="ignore"):
                return np.exp(-s / np.abs(t - c))
        if self.form == "indicator":
            out = np.zeros_like(t)
            for lo, hi in self.params["support"]:
                out = np.where((t >= lo) & (t <= hi), 1.0, out)
            return out
        raise ValidationError(f"unknown weight form {self.form!r}")

    def to_dict(self) -> dict:
        return {"form": self.form, **self.params}

    @staticmethod
    def from_dict(obj: dict) -> "WeightSpec":
        obj = dict(obj)
        return WeightSpec(obj.pop("form", None), obj)


@dataclass(frozen=True)
class MeasureModel:
    """Probability measure: a.c. weight on the bands plus point masses off E.

    mode "relative" means density w(t) * f_E(t); "absolute" means w(t)
    directly.  The stored normalization scales the a.c. part so that total
    mass (including masses) is one.  The GreenModel is kept because both
    the relative density and all quadratures live on it.  ac_weights are
    the per-band a.c. rule at quad.nodes, unnormalized; Lanczos, the
    boundary values and the Glauert fit all read it.
    """

    model: GreenModel
    weight: Callable
    mode: str
    point_masses: tuple[tuple[float, float], ...]
    normalization: float
    quad: EquilibriumQuadrature
    ac_weights: tuple[np.ndarray, ...] = field(compare=False)

    @property
    def set(self) -> GapSet:
        return self.model.set

    def weight_value(self, t):
        return np.asarray(self.weight(np.asarray(t, dtype=float)), dtype=float)

    def density(self, t):
        """Normalized a.c. density at band points."""
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        w = np.asarray(self.weight(arr), dtype=float)
        if self.mode == "relative":
            out = self.normalization * w * np.exp(_log_f_e(self.model, arr))
        else:
            out = self.normalization * w
        return out if np.ndim(t) else float(out[0])


def make_measure(
    model: GreenModel,
    weight: Callable | WeightSpec | None = None,
    mode: str = "relative",
    point_masses: Sequence[tuple[float, float]] = (),
    quad_order: int | None = None,
) -> MeasureModel:
    """Build and normalize a measure model over the given potential model."""
    if mode not in ("relative", "absolute"):
        raise ValidationError(f"mode must be relative or absolute, got {mode!r}")
    if weight is None:
        weight = WeightSpec("const", {"value": 1.0})
    masses = tuple((float(x), float(m)) for x, m in point_masses)
    seen = set()
    for x, m in masses:
        if m <= 0:
            raise ValidationError(f"point mass at {x} must be positive, got {m}")
        if locate(model.set, x).kind == "band":
            raise ValidationError(f"point mass location {x} lies inside the set")
        if x in seen:
            raise ValidationError(f"duplicate point mass location {x}")
        seen.add(x)
    quad = equilibrium_quadrature(model, model.quad.order if quad_order is None else int(quad_order))
    ac_weights = _ac_rule(model, weight, mode, quad)
    if not all(np.all(w >= 0) and np.all(np.isfinite(w)) for w in ac_weights):
        raise ValidationError("weight factor must be finite and nonnegative on bands")
    ac_mass = float(sum(np.sum(w) for w in ac_weights))
    mass_sum = sum(m for _, m in masses)
    if ac_mass <= 0 and not masses:
        raise ValidationError("measure has neither a.c. mass nor point masses")
    norm = (1.0 - mass_sum) / ac_mass if ac_mass > 0 else 0.0
    if norm < 0:
        raise ValidationError("point masses alone exceed total mass 1")
    return MeasureModel(model, weight, mode, masses, norm, quad, ac_weights)


def _ac_rule(model: GreenModel, weight: Callable, mode: str, quad: EquilibriumQuadrature):
    """Per-band weights of the unnormalized a.c. part at the nodes of quad.

    Relative mode weighs the equilibrium rule by w (wq * w), absolute mode
    Fejér's first rule on the same cosine points (r * fejer * w), as
    accurate as Gauss for analytic w (Trefethen, SIAM Rev. 50, 2008).
    """
    base = quad.weights
    if mode == "absolute":
        base = [(hi - lo) / 2 * _fejer(quad.order) for lo, hi in model.set.bands]
    return tuple(b * np.asarray(weight(t), dtype=float) for t, b in zip(quad.nodes, base))


def measure_to_json(mu: MeasureModel) -> str:
    if not isinstance(mu.weight, WeightSpec):
        raise ValidationError("only WeightSpec-backed measures are serializable")
    return json.dumps(
        {
            "set": {"alpha": mu.set.alpha, "beta": mu.set.beta,
                    "gaps": [list(g) for g in mu.set.gaps]},
            "mode": mu.mode,
            "factor": mu.weight.to_dict(),
            "masses": [list(pm) for pm in mu.point_masses],
            "normalization": mu.normalization,
        },
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# discretized Stieltjes / Lanczos


def _discretize(mu: MeasureModel, quad_order: int):
    quad = mu.quad if quad_order == mu.quad.order else equilibrium_quadrature(mu.model, quad_order)
    ac_weights = mu.ac_weights if quad is mu.quad else _ac_rule(mu.model, mu.weight, mu.mode, quad)
    x, m = np.reshape(mu.point_masses, (-1, 2)).T
    t = np.concatenate([*quad.nodes, x])
    w = np.concatenate([mu.normalization * np.concatenate(ac_weights), m])
    keep = w > 0
    return t[keep], w[keep]


def coefficients_from_measure(
    mu: MeasureModel, n: int, quad_order: int | None = None
) -> JacobiCoeffs:
    """First n recurrence pairs via Lanczos on the discretized measure.

    The rule's order is max(2n + 1, mu.quad.order) unless quad_order is
    given: pair n needs degree 2n, which Fejér reaches at 2n + 1 points, and
    at mu's order alone pairs near the support size come out far off (399
    pairs of mu_E on [-2,-1] u [1,2] at 200 nodes per band, 0.49).
    The result records reorth_steps, the number of steps that
    reorthogonalized, and breakdown_margin, min a_k over the breakdown
    threshold 1e-14 * max|t|.  A float overflow or invalid operation in the
    loop, as on sets spanning 1e200, is a NumericalError.
    """
    if n < 1:
        raise ValidationError("n must be at least 1")
    order = max(2 * n + 1, mu.quad.order) if quad_order is None else int(quad_order)
    t, w = _discretize(mu, order)
    if len(t) < n + 1:
        raise ValidationError(
            f"measure discretization has {len(t)} support points, "
            f"too few for {n} coefficient pairs"
        )
    eps = np.finfo(float).eps
    norm = float(np.max(np.abs(t)))
    tiny = 1e-14 * norm
    a = np.empty(n)
    b = np.empty(n)
    Q = None  # the basis, kept from the first reorthogonalizing step on
    q = q0 = np.sqrt(w / np.sum(w))
    beta = 0.0
    qm = np.zeros_like(q)
    # omega[i] estimates q_k . q_i and omega_old[i] estimates q_{k-1} . q_i
    omega = np.zeros(n + 1)
    omega_old = np.zeros(n + 1)
    omega[0] = 1.0
    second = False
    reorth_steps = 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            for k in range(n):
                u = t * q
                alpha = float(q @ u)
                r = u - alpha * q - beta * qm
                beta_new = math.sqrt(r @ r)
                b[k] = alpha
                # Simon's recurrence for the orthogonality lost in this step, each
                # entry padded by the rounding eps * max|t| of the matrix-vector step;
                # the row of q_{k+1} overwrites the row of q_{k-1}, then they swap
                ak, ok = a[:k], omega[:k]
                lost = ak * omega[1 : k + 1] + (b[:k] - alpha) * ok - beta * omega_old[:k]
                lost[1:] += ak[:-1] * ok[:-1]
                omega_old[:k] = lost + np.copysign(eps * norm, lost)
                omega_old[k] = eps * norm
                omega_old[: k + 1] /= max(beta_new, tiny)
                if second or np.abs(omega_old[: k + 1]).max() > math.sqrt(eps):
                    # semiorthogonality is about to go: two full passes now and on
                    # the next step, whose three-term update reuses the unrepaired q_k
                    if Q is None:  # replay q_0 .. q_k from the stored a and b, bit for bit
                        Q = np.concatenate([[q0], np.zeros((n + 1, len(t)))])  # row -1: q_{-1} = 0
                        for j in range(k):
                            Q[j + 1] = (t * Q[j] - b[j] * Q[j] - (a[j - 1] if j else 0.0) * Q[j - 1]) / a[j]
                    for _ in range(2):
                        r -= Q[: k + 1].T @ (Q[: k + 1] @ r)
                    beta_new = math.sqrt(r @ r)
                    omega_old[: k + 1] = eps
                    second = not second
                    reorth_steps += 1
                if beta_new <= tiny:
                    raise NumericalError(
                        f"Lanczos breakdown at step {k + 1}: increase quad_order or "
                        "reduce n (measure support nearly exhausted)"
                    )
                a[k] = beta_new
                omega_old[k + 1] = 1.0
                omega, omega_old = omega_old, omega
                qm = q
                q = r / beta_new
                if Q is not None:
                    Q[k + 1] = q
                beta = beta_new
    except FloatingPointError as exc:
        raise NumericalError(f"Lanczos left the float range: {exc}") from exc
    return JacobiCoeffs(
        a, b, reorth_steps=reorth_steps, breakdown_margin=float(np.min(a)) / tiny
    )


# ---------------------------------------------------------------------------
# structural operations


def strip(J: JacobiCoeffs, k: int) -> JacobiCoeffs:
    """Drop the first k coefficient pairs (the k-times stripped matrix)."""
    if k < 0 or k >= len(J):
        raise ValidationError(f"strip count {k} out of range for length {len(J)}")
    return JacobiCoeffs(J.a[k:], J.b[k:])


def glue_head(head: JacobiCoeffs, junction_a: float, tail: JacobiCoeffs) -> JacobiCoeffs:
    """Head block, junction coupling, then the tail matrix.

    Stripping the result len(head) times returns the tail exactly.  With an
    eigenvalue-free tail this realizes the finite-rank glued perturbation
    used for the eigenvalue-sum bounds.
    """
    n = len(head)
    if n == 0:
        return tail
    if junction_a <= 0:
        raise ValidationError(f"junction coupling must be positive, got {junction_a}")
    a = np.concatenate([head.a[: n - 1], [float(junction_a)], tail.a])
    b = np.concatenate([head.b, tail.b])
    return JacobiCoeffs(a, b)


# ---------------------------------------------------------------------------
# Sturm-sequence eigenvalue machinery


def _check_size(J: JacobiCoeffs, N: int) -> None:
    if N < 1 or N > len(J):
        raise ValidationError(f"truncation size {N} out of range for length {len(J)}")


def _negative_pivots(J: JacobiCoeffs, x, last, shift=0.0) -> np.ndarray:
    """Negative LDL^T pivots of rows 0..last of J - x, the last one less a_{last+1}^2 shift.

    last and shift broadcast against x; one streamed sweep stops at the largest
    last.  A zero pivot counts as negative (standard tie-break for the LDL signs).
    """
    rows = set(np.ravel(last).tolist())
    top = max(rows)
    b, a2 = J.b[: top + 1], np.r_[J.a[: top + 1], 0.0][: top + 1] ** 2  # a_{top+1} may not exist
    tiny = 1e-290 * max(1.0, float(np.max(np.abs(b)) + np.max(a2)))
    neg, out, d = np.zeros(x.shape, int), 0, b[0] - x
    for i in range(top + 1):
        d = np.where(np.abs(d) < tiny, -tiny, d)
        if i in rows:
            out = np.where(last == i, neg + (d - a2[i] * shift < 0), out)
        if i < top:
            neg += d < 0
            d = b[i + 1] - x - a2[i] / d
    return out


def sturm_count(J: JacobiCoeffs, N: int, x) -> np.ndarray:
    """Number of eigenvalues of the N x N truncation strictly below each x."""
    _check_size(J, N)
    return _negative_pivots(J, np.atleast_1d(x), N - 1)


def _gershgorin(J: JacobiCoeffs, N: int):
    _check_size(J, N)
    a = np.concatenate([[0.0], J.a[: N - 1], [0.0]])
    lo = float(np.min(J.b[:N] - a[:-1] - a[1:]))
    hi = float(np.max(J.b[:N] + a[:-1] + a[1:]))
    return lo, hi


def _batch_bisect(J: JacobiCoeffs, N: int, indices, lo, hi) -> np.ndarray:
    """Certify many global eigenvalue indices at once, to eigenvalue_abs/10 * max(1, |x|).

    Each index is seeded from the dense spectrum of the N x N truncation.
    One Sturm sweep at seed -/+ eigenvalue_abs/40 * max(1, |seed|) checks
    count(lo) <= k < count(hi); a certified seed's narrow bracket replaces
    the component bracket [lo, hi].  Bisection then runs from whatever
    brackets are held, so an uncertified index bisects from its component
    bracket and a batch of certified seeds takes no step at all.
    """
    idx = np.asarray(indices, dtype=int)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    # lower triangle of the truncation (all eigvalsh reads), filled in place
    T = np.zeros((N, N))
    T.flat[:: N + 1] = J.b[:N]
    T.flat[N :: N + 1] = J.a[: N - 1]
    seed = np.linalg.eigvalsh(T)[idx]
    delta = TOLERANCES["eigenvalue_abs"] / 40 * np.maximum(1.0, np.abs(seed))
    c_lo, c_hi = sturm_count(J, N, np.concatenate([seed - delta, seed + delta])).reshape(2, -1)
    ok = (c_lo <= idx) & (idx < c_hi)
    lo = np.where(ok, seed - delta, lo)
    hi = np.where(ok, seed + delta, hi)
    return _bisect(lambda x: sturm_count(J, N, x), idx, lo, hi)


def _bisect(count: Callable, idx, lo, hi) -> np.ndarray:
    """Bisect each bracket to eigenvalue_abs/10 * max(1, |x|) on where count(x) > idx starts.

    By multisection: a count call takes the (2^s - 1, B) heap of midpoints s steps could
    visit in the B brackets, s >= 1 the largest with B (2^s - 1) <= _SWEEP_POINTS."""
    depth = level = max(1, (_SWEEP_POINTS // max(1, len(idx)) + 1).bit_length() - 1)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.all(hi - lo <= TOLERANCES["eigenvalue_abs"] / 10 * np.maximum(1.0, np.abs(mid))):
            break
        if level == depth:  # heap walked: one sweep counts the next depth levels
            ends, heap = np.stack([lo, hi]), []
            for _ in range(depth):  # level l holds the midpoints of ends, 2^l + 1 in order
                heap.append(0.5 * (ends[:-1] + ends[1:]))
                ends = np.insert(ends, np.arange(1, len(ends)), heap[-1], axis=0)
            above_at, node, level = count(np.concatenate(heap)) > idx, np.zeros(len(idx), int), 0
        above = above_at[node, np.arange(len(idx))]
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
        node, level = 2 * node + 2 - above, level + 1  # children 2i + 1 (left), 2i + 2
    return 0.5 * (lo + hi)


def truncation_eigenvalues(J: JacobiCoeffs, N: int) -> np.ndarray:
    """All eigenvalues of the N x N truncation, 1e-12 relative to max(1, |x|), ascending."""
    lo, hi = _gershgorin(J, N)
    return _batch_bisect(
        J, N, np.arange(N), np.full(N, lo - 1.0), np.full(N, hi + 1.0)
    )


def _component_brackets(s: GapSet, ends, counts):
    """(global index, lo, hi, location) per eigenvalue on the components of R \\ E, in order.

    counts[i] eigenvalues lie below ends[i], and ends = [outer, *s.edges, outer].
    """
    locs = [Location("left"), *(Location("gap", j) for j in range(len(s.gaps))), Location("right")]
    pairs = zip(locs, np.reshape(ends, (-1, 2)).tolist(), np.reshape(counts, (-1, 2)).tolist())
    return [(k, lo, hi, loc) for loc, (lo, hi), (c_lo, c_hi) in pairs for k in range(c_lo, c_hi)]


def _off_set_brackets(J: JacobiCoeffs, model: GreenModel, N: int):
    """Global index, component bracket and location of every eigenvalue off the set.

    Sturm counts at gap endpoints (and beyond [alpha, beta]) give the exact
    count per component, in ascending order.
    """
    s = model.set
    glo, ghi = _gershgorin(J, N)
    ends = np.r_[min(glo, s.alpha) - 1.0, s.edges, max(ghi, s.beta) + 1.0]
    return _component_brackets(s, ends, sturm_count(J, N, ends))


def gap_eigenvalues(
    J: JacobiCoeffs, model: GreenModel, N: int
) -> list[tuple[float, Location]]:
    """Eigenvalues of the N-truncation off the set, with locations, certified in one batch."""
    found = _off_set_brackets(J, model, N)
    if not found:
        return []
    idx, los, his, locs = zip(*found)
    vals = _batch_bisect(J, N, idx, los, his)
    return sorted(zip(map(float, vals), locs), key=lambda p: p[0])


def stable_gap_eigenvalues(
    J: JacobiCoeffs, model: GreenModel, N: int
) -> list[tuple[float, Location]]:
    """Gap eigenvalues certified stable across truncation sizes N, N+1, 2N.

    A candidate matches a reference eigenvalue x within
    eigenvalue_stability * (beta - alpha)/4, which is eigenvalue_stability
    on [-2, 2] and moves with E under affine maps, or within
    eigenvalue_abs * |x| where floating point cannot resolve that window.

    Band-resonance artifacts wander when N doubles.  Surface states pinned
    to the truncation wall of a near-periodic sequence survive doubling
    (the wall keeps its phase) but move or vanish when the size changes by
    one, so an eigenvalue must reappear at all three sizes to count.
    """
    if 2 * N > len(J):
        raise ValidationError(f"need length >= {2 * N} to certify at size {N}")
    ref = gap_eigenvalues(J, model, N)
    others = [gap_eigenvalues(J, model, N + 1), gap_eigenvalues(J, model, 2 * N)]
    window = TOLERANCES["eigenvalue_stability"] * (model.set.beta - model.set.alpha) / 4
    keep = set(range(len(ref)))
    for ee in others:
        # injective matching: a candidate certifies at most one reference
        # eigenvalue, so degenerate wall states cannot ride along
        cand = [v for v, _ in ee]
        matched = set()
        i = j = 0
        while i < len(ref) and j < len(cand):
            w = max(window, TOLERANCES["eigenvalue_abs"] * abs(ref[i][0]))
            if abs(ref[i][0] - cand[j]) <= w:
                matched.add(i)
                i += 1
                j += 1
            elif cand[j] < ref[i][0] - w:
                j += 1
            else:
                i += 1
        keep &= matched
    return [ref[i] for i in sorted(keep)]


def glued_eigenvalues(J: JacobiCoeffs, model: GreenModel, sizes) -> dict[int, list]:
    """Exact off-set eigenvalues, located, of each n-pair head of J glued by a_n onto mu_E's.

    On a component of R \\ E the glued count below x is a constant plus the
    negative pivots of the head's LDL^T with its last one less a_n^2 m_E(x)
    (Haynsworth).  m_E rises from -inf at beta and gap left ends to +inf at
    alpha and gap right ends: a gap holds one more than J's (n-1)-corner.
    """
    sizes = sorted({int(n) for n in sizes})
    if not sizes or sizes[0] < 1 or sizes[-1] > len(J.a):
        raise ValidationError(f"head sizes {sizes} must lie in 1..{len(J.a)}, J's couplings")
    s, a, b = model.set, J.a[: sizes[-1]], J.b[: sizes[-1]]
    # the glued norm is at most max(|head|, |alpha|, |beta|) + a_n
    reach = max(np.max(np.abs(b) + a + np.r_[0.0, a[:-1]]), -s.alpha, s.beta) + np.max(a) + 1.0
    ends = np.r_[-reach, s.edges, reach]  # m_E's limits at alpha, gap ends and beta in between
    m_ends = np.r_[_m_e(model, [-reach]), [np.inf, -np.inf] * len(s.bands), _m_e(model, [reach])]
    counts = _negative_pivots(J, ends, np.array(sizes)[:, None] - 1, m_ends)
    found = [(n, *br) for n, c in zip(sizes, counts) for br in _component_brackets(s, ends, c)]
    heads, idx, los, his, locs = zip(*found)  # m_E(alpha-) = +inf: the left holds one or more
    last = np.array(heads) - 1
    vals = _bisect(lambda x: _negative_pivots(J, x, last, _m_e(model, x.ravel()).reshape(x.shape)),
                   np.array(idx), np.array(los), np.array(his))
    return {n: [(v, loc) for h, v, loc in zip(heads, vals.tolist(), locs) if h == n] for n in sizes}


def eigenvalue_green_sum(eigs: Sequence[float], model: GreenModel) -> float:
    """Sum of g over points off the set, left to right, from one green_value call."""
    inside = np.flatnonzero(edge_slots(model.set, eigs) % 2)
    if len(inside):
        raise ValidationError(f"{eigs[inside[0]]} lies inside the set; not an eigenvalue off E")
    return float(sum(green_value(model, eigs).tolist()))


# ---------------------------------------------------------------------------
# m-functions


def m_function(J: JacobiCoeffs, x: complex) -> complex:
    """Stieltjes transform of J as given, by the bottom-up continued fraction.

    The recursion m_{k-1} = 1 / (b_k - x - a_k^2 m_k) starts from m = 0 below
    the last row.  Real x must lie beyond the spectral-radius bound; in gaps
    the matrix has poles.
    """
    xc = complex(x)
    lo, hi = _gershgorin(J, len(J))  # an empty J is a ValidationError here
    if xc.imag == 0.0 and lo <= xc.real <= hi:
        raise ValidationError("real evaluation points must lie beyond the spectral-radius bound")
    m = 0.0 + 0.0j
    for k in range(len(J) - 1, -1, -1):
        coupling = (J.a[k] ** 2) * m if k < len(J.a) else 0.0
        denom = J.b[k] - xc - coupling
        if denom == 0:
            raise NumericalError(f"continued fraction hit a pole at level {k}")
        m = 1.0 / denom
    return m


def measure_m_boundary(mu: MeasureModel, t):
    """Boundary values m_mu(t + i0) at interior points of one band.

    t is a scalar, giving a complex, or an array of points inside one band,
    giving a complex array of its shape; every term below is formed once
    for the whole array.  The principal value over the own band uses
    singularity subtraction: in relative mode through the Glauert identity
    PV int_0^pi cos(m u)/(cos u - cos a) du = pi sin(m a)/sin(a) on the
    Chebyshev interpolant of w * f_E at the measure's own nodes, in
    absolute mode through PV int T_m(x)/(x - x_t) dx = Q_m(x_t), Q_0 =
    log((1 - x)/(1 + x)), Q_(m+1) = 2x Q_m - Q_(m-1) + 2 int T_m, on the
    interpolant of w there.  The other bands are summed over the measure's
    a.c. rule, point masses add their real poles, and the imaginary part is
    pi times the density.
    """
    model = mu.model
    ts = np.asarray(t, dtype=float).ravel()
    if ts.size == 0:
        return np.empty(np.shape(t), dtype=complex)
    loc = locate(model.set, float(ts[0]))
    if loc.kind != "band":
        raise ValidationError(f"boundary values are taken on bands, got {loc.kind}")
    k = loc.index
    lo, hi = model.set.bands[k]
    c, r = (lo + hi) / 2, (hi - lo) / 2
    xt = (ts - c) / r
    inside = np.abs(xt) < 1.0
    if not np.all(inside):
        raise ValidationError(
            f"boundary values are taken inside one band: {float(ts[~inside][0])!r} is an "
            f"edge of or outside band {k} {model.set.bands[k]}"
        )
    if mu.mode == "relative":
        # Chebyshev coefficients of w f_E r sin(theta), the interpolant at the
        # nodes' angles theta_i, where it is n/pi times the a.c. weight w_i:
        # c_m = (2/pi) sum_i w_i cos(m theta_i), c_0 halved, m < 400
        theta, coefs = np.arccos(xt), _dct(mu.ac_weights[k])[:400] * (mu.quad.order / np.pi)
        coefs[0] /= 2.0
        sines = np.sin(theta[:, None] * np.arange(len(coefs)))
        re = mu.normalization * (np.pi / r * np.sum(coefs * sines, axis=1) / np.sin(theta))
    else:
        # w at the nodes is the a.c. weight over r * fejer; Q_(-1) = Q_1 as T_(-1) = T_1
        b = _dct(mu.ac_weights[k] / (r * _fejer(mu.quad.order))) * mu.normalization
        b[0] /= 2.0
        q, re = np.log((1 - xt) / (1 + xt)), np.zeros_like(xt)
        q_old = 2.0 + xt * q
        for m, bm in enumerate(b):  # 2 int T_m = 4/(1 - m^2) for even m
            re += bm * q
            q_old, q = q, 2.0 * xt * q - q_old + (0.0 if m % 2 else 4.0 / (1 - m * m))
    for kk, (sn, wn) in enumerate(zip(mu.quad.nodes, mu.ac_weights)):
        if kk != k:
            re += mu.normalization * np.sum(wn / (sn - ts[:, None]), axis=1)
    for x, m in mu.point_masses:
        re += m / (x - ts)
    out = re.astype(complex)
    out.imag = np.pi * mu.density(ts)
    return complex(out[0]) if np.ndim(t) == 0 else out.reshape(np.shape(t))


# ---------------------------------------------------------------------------
# interlacing profile


@dataclass(frozen=True)
class InterlacingProfile:
    """Paired poles and zeros of the truncation's m-function off the set.

    Zeros are roots of m + eps for a small regularizing eps > 0 (1e-6, kept
    in epsilon): the shift guarantees every pole, including the last one in
    the right unbounded component where m itself stays negative, is followed
    by a zero.  As eps decreases that last zero escapes to +infinity.
    """

    poles: np.ndarray
    zeros: np.ndarray
    locations: tuple[Location, ...]
    epsilon: float

    def psi(self, x) -> np.ndarray:
        """Product of (x - y_k)/(x - x_k) over the pole/zero pairs."""
        x = np.asarray(x, dtype=float)
        out = np.ones_like(x)
        for xk, yk in zip(self.poles, self.zeros):
            out = out * (x - yk) / (x - xk)
        return out


def interlacing_profile(J: JacobiCoeffs, model: GreenModel, N: int) -> InterlacingProfile:
    """Pair each off-set pole of the truncation with the next zero right of it.

    det(J + c e1 e1^T - x) = det(J - x)(1 + c m(x)), so with c = 1/eps the
    zeros of m + eps are the eigenvalues of the truncation with b_1 raised
    by 1/eps, the k-th between poles k and k+1; one batch certification
    finds them at the pole indices.  A zero that escaped into the next band is
    recorded at the right end of its pole's component.
    """
    found = _off_set_brackets(J, model, N)
    if not found:
        return InterlacingProfile(np.empty(0), np.empty(0), (), _INTERLACING_EPS)
    idx, los, his, locs = zip(*found)
    poles = _batch_bisect(J, N, idx, los, his)
    shifted = replace(J, b=np.concatenate([[J.b[0] + 1.0 / _INTERLACING_EPS], J.b[1:]]))
    top = np.full(len(idx), _gershgorin(shifted, N)[1])
    zeros = _batch_bisect(shifted, N, idx, los, top)
    ends = [np.inf if loc.kind == "right" else hi for hi, loc in zip(his, locs)]
    return InterlacingProfile(
        poles=poles, zeros=np.minimum(zeros, ends), locations=locs, epsilon=_INTERLACING_EPS
    )
