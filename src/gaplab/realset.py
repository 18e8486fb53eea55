"""Finite-gap compact subsets of the real line.

A GapSet is an interval [alpha, beta] with finitely many open gaps removed.
The complementary closed intervals are called bands.  All values are plain
floats; construction validates that the endpoints are numbers and the gaps
pairs, disjointness and positive band lengths, and everything downstream
treats the object as immutable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError


class Location(NamedTuple):
    """Where a point sits relative to a GapSet.

    kind is one of "band", "gap", "left", "right"; index is the band or gap
    index when applicable, else None.  Band edges classify as "band".
    """

    kind: str
    index: int | None = None


@dataclass(frozen=True)
class GapSet:
    alpha: float
    beta: float
    gaps: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        try:
            a, b = float(self.alpha), float(self.beta)
            gaps = tuple(sorted((float(lo), float(hi)) for lo, hi in self.gaps))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"endpoints or gaps are not numbers and pairs: {exc}") from exc
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ValidationError("endpoints must be finite")
        if not a < b:
            raise ValidationError(f"alpha must be < beta, got [{a}, {b}]")
        for lo, hi in gaps:
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValidationError(f"gap ({lo}, {hi}) has non-finite endpoint")
            if not lo < hi:
                raise ValidationError(f"gap ({lo}, {hi}) is empty or reversed")
            if not (a < lo and hi < b):
                raise ValidationError(f"gap ({lo}, {hi}) not inside ({a}, {b})")
        for (lo1, hi1), (lo2, hi2) in zip(gaps, gaps[1:]):
            # touching closures would create an isolated point or hide a
            # modelling error, so equality is rejected rather than merged
            if hi1 >= lo2:
                raise ValidationError(
                    f"gaps ({lo1}, {hi1}) and ({lo2}, {hi2}) overlap or touch"
                )
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gaps", gaps)

    @cached_property
    def bands(self) -> tuple[tuple[float, float], ...]:
        """Closed complementary intervals, left to right."""
        points = self.edges.tolist()
        return tuple((points[i], points[i + 1]) for i in range(0, len(points), 2))

    @cached_property
    def edges(self) -> np.ndarray:
        """Sorted band edges e_0 <= ... <= e_{2N+1} as a read-only array."""
        out = [self.alpha]
        for lo, hi in self.gaps:
            out.extend((lo, hi))
        out.append(self.beta)
        edges = np.asarray(out, dtype=float)
        edges.flags.writeable = False  # shared by every caller through the cache
        return edges

    @property
    def diameter(self) -> float:
        return self.beta - self.alpha

    def to_json(self) -> str:
        return json.dumps(
            {"alpha": self.alpha, "beta": self.beta, "gaps": [list(g) for g in self.gaps]}
        )


def make_gapset(alpha: float, beta: float, gaps: Iterable[Sequence[float]] = ()) -> GapSet:
    """Validate and sort the gap list into a GapSet."""
    return GapSet(alpha, beta, gaps)


def fat_cantor(level: int) -> GapSet:
    """Level-n middle-removal approximant of the positive-measure Cantor set.

    Start from [0, 1]; at stage k remove an open interval of length 4^-k
    from the middle of each of the 2^(k-1) bands left by stage k-1.  All
    endpoints are dyadic rationals, so float arithmetic below is exact.
    """
    if _integer(level, "level") < 0:
        raise ValidationError("level must be >= 0")
    if level > 16:
        raise ValidationError(f"level {level} exceeds the supported maximum of 16")
    bands = [(0.0, 1.0)]
    gaps: list[tuple[float, float]] = []
    for k in range(1, level + 1):
        half = 0.5 * 4.0 ** (-k)
        new_bands = []
        for a, b in bands:
            mid = 0.5 * (a + b)
            gaps.append((mid - half, mid + half))
            new_bands.append((a, mid - half))
            new_bands.append((mid + half, b))
        bands = new_bands
    return make_gapset(0.0, 1.0, gaps)


def _integer(n, what: str) -> int:
    """n as an int where it is an integer, numpy's too; anything else, a bool included,
    is a ValidationError: the one type check of every size, level and count."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {n!r}")
    return int(n)


def lebesgue_measure(s: GapSet) -> float:
    """Total length of the bands."""
    return float(sum(b - a for a, b in s.bands))


def edge_slots(s: GapSet, x) -> np.ndarray:
    """Number of band lower edges at or below x plus band upper edges below it.

    Slot 0 is left of alpha, an odd slot 2k + 1 is band k (edges included), an
    even slot 2j + 2 is gap j, and len(s.edges) is right of beta; shape of x.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValidationError(f"cannot locate non-finite point {x[~np.isfinite(x)].flat[0]}")
    return s.edges[0::2].searchsorted(x, side="right") + s.edges[1::2].searchsorted(x, side="left")


def locate(s: GapSet, x: float) -> Location:
    """Classify x against the set by its edge_slots slot; band edges count as in-band."""
    slot = int(edge_slots(s, x))
    if slot == 0:
        return Location("left")
    if slot == len(s.edges):
        return Location("right")
    return Location("band", slot // 2) if slot % 2 else Location("gap", slot // 2 - 1)


def scale_shift(s: GapSet, scale: float, shift: float = 0.0) -> GapSet:
    """Affine image scale * E + shift (scale > 0)."""
    if scale <= 0:
        raise ValidationError("scale must be positive")
    return make_gapset(
        scale * s.alpha + shift,
        scale * s.beta + shift,
        [(scale * lo + shift, scale * hi + shift) for lo, hi in s.gaps],
    )


def homogeneity_margin(s: GapSet, t_samples: int, delta_grid: Sequence[float]) -> float:
    """Sampled lower bound for the thickness ratio |(t-d, t+d) ∩ E| / d.

    The t grid is deterministic: every band endpoint plus t_samples points
    uniformly inside each band.  The result certifies the minimum over the
    sampled grid only; refining the grid can only lower it.
    """
    if (t_samples := _integer(t_samples, "t_samples")) < 0:
        raise ValidationError(f"t_samples must be at least 0, got {t_samples}")
    deltas = np.asarray(list(delta_grid), dtype=float)
    if deltas.size == 0:
        raise ValidationError("delta grid must be non-empty")
    if not np.all((deltas > 0) & (deltas < s.diameter)):  # NaN fails too
        raise ValidationError("delta values must lie in (0, diam)")
    ts: list[float] = []
    for a, b in s.bands:
        ts.append(a)
        ts.append(b)
        for i in range(1, t_samples + 1):
            ts.append(a + (b - a) * i / (t_samples + 1))
    t = np.asarray(ts)
    lo = t[:, None] - deltas[None, :]
    hi = t[:, None] + deltas[None, :]
    inter = np.zeros_like(lo)
    for a, b in s.bands:
        inter += np.clip(np.minimum(b, hi) - np.maximum(a, lo), 0.0, None)
    return float(np.min(inter / deltas[None, :]))
