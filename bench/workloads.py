"""The four benchmark workloads: their inputs, the CLI configs an op runs,
and the oracle and invariant checks applied to every output.

A workload is a list of items.  One op runs one item's configs through
``gaplab.cli.run`` in order; a round runs every item once.  Inputs depend
only on the seed, so a seed reproduces them exactly.
"""

from __future__ import annotations

import json
import math
import random
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# an error below this counts as this, so exact answers read 14 digits
ERROR_FLOOR = 1e-14
# a NaN or an infinite error is reported as this, so results stay valid JSON
ERROR_CEILING = 1e100


@dataclass
class Checks:
    """Outcome of checking one op's outputs.

    ``misses`` fail the op.  ``known`` are misses of a documented seed
    defect: they fail the op in ``error_rate`` but leave ``correct`` true.
    ``errors`` holds the error of every oracle-checked value.
    """

    misses: list[str] = field(default_factory=list)
    known: list[str] = field(default_factory=list)
    errors: list[float] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)

    def oracle(self, what: str, got, want: float, tol: float,
               relative: bool = True, known_defect: bool = False) -> None:
        """Compare against a closed form; relative error unless want is 0."""
        got = float(got)
        err = abs(got - want)
        if relative and want != 0.0:
            err /= abs(want)
        if not math.isfinite(err):
            err = ERROR_CEILING
        self.errors.append(min(err, ERROR_CEILING))
        if not err <= tol:
            msg = f"{what}: got {got!r}, want {want!r} (error {err:.3g} > {tol:g})"
            (self.known if known_defect else self.misses).append(msg)

    def require(self, what: str, ok: bool) -> None:
        if not ok:
            self.misses.append(what)


@dataclass(frozen=True)
class Item:
    label: str
    configs: tuple[dict, ...]
    check: Callable[[list[dict], Checks], None]


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is recorded in bench/README.md."""

    name: str
    build: Callable[[int], list[Item]]
    max_level_probe: bool = False


def _rows(out: dict) -> list[list]:
    return out["rows"]


def _cols(out: dict) -> dict:
    """Single-row table as a column -> value mapping."""
    (row,) = out["rows"]
    return dict(zip(out["columns"], row))


# ---------------------------------------------------------------------------
# cantor_ladder: one op is the fat-Cantor table for levels 1..8

LADDER_LEVELS = 8
# the probe climbs past the ladder up to this level
MAX_PROBE_LEVEL = 10
CAPACITY_WINDOW = (0.125, 0.25)


def _check_ladder(outs: list[dict], ck: Checks) -> None:
    rows = _rows(outs[0])
    ck.require(f"ladder has {len(rows)} rows, want {LADDER_LEVELS}", len(rows) == LADDER_LEVELS)
    caps, pws = [], []
    for level, gap_count, measure, cap, pw in rows:
        ck.require(f"level {level}: gap_count {gap_count}", gap_count == 2**level - 1)
        ck.oracle(f"level {level} measure", measure, 1.0 - 0.5 * (1.0 - 2.0**-level), 0.0)
        lo, hi = CAPACITY_WINDOW
        ck.require(f"level {level}: capacity {cap!r} outside ({lo}, {hi})", lo < cap < hi)
        caps.append(cap)
        pws.append(pw)
    if rows:
        # level 1 is [0, 3/8] u [5/8, 1], a symmetric two-band set
        ck.oracle("level 1 capacity", caps[0], math.sqrt(0.5**2 - 0.125**2) / 2, 1e-10)
        ck.oracle("level 1 pw_sum", pws[0], 0.5 * math.log(5.0 / 3.0), 1e-10)
    ck.require("capacities do not decrease strictly", all(b < a for a, b in zip(caps, caps[1:])))
    ck.require("pw_sum does not increase strictly", all(b > a for a, b in zip(pws, pws[1:])))


def max_level(cli, ladder_capacities: list[float]) -> int:
    """Highest fat_cantor level, up to MAX_PROBE_LEVEL, with a valid capacity.

    A level counts if its capacity op succeeds without warnings and gives a
    capacity inside CAPACITY_WINDOW and below the previous level's.  Levels
    the ladder op already solved take its capacities (the same solve_green
    call at the same order); higher levels run ``capacity`` ops.
    """
    lo, prev = CAPACITY_WINDOW
    level = 0
    for lv in range(1, MAX_PROBE_LEVEL + 1):
        if lv <= len(ladder_capacities):
            cap = ladder_capacities[lv - 1]
        else:
            cfg = {"command": "capacity", "set": f"fat_cantor:{lv}", "format": "json"}
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    rows = json.loads(cli.run(cfg))["rows"]
                except Exception:  # a failed solve ends the climb
                    break
            if caught:
                break
            cap = dict(rows)["capacity"]
        if not lo < cap < prev:
            break
        level, prev = lv, cap
    return level


def cantor_ladder(seed: int) -> list[Item]:
    cfg = {"command": "cantor", "n": LADDER_LEVELS, "format": "json"}
    return [Item("cantor --n 8", (cfg,), _check_ladder)]


# ---------------------------------------------------------------------------
# spectral_two_band: theorem and two sum rules on [-2,-1] u [1,2]

TWO_BAND = '{"alpha": -2, "beta": 2, "gaps": [[-1, 1]]}'
POLY_MEASURE = '{"mode": "relative", "factor": {"form": "poly", "coef": [1, 0, 0.3]}}'


def _arcsine_log_potential(z: float) -> float:
    """int log|z - y| d(arcsine on [-2, 2])(y) for real |z| >= 2."""
    z = abs(z)
    return math.log((z + math.sqrt(z * z - 4.0)) / 2.0)


# E = T^-1([-2, 2]) with T(x) = (4x^2 - 10)/3 pulls the arcsine measure
# back to mu_E, so x^2 = (3y + 10)/4 in terms of the arcsine variable y
TWO_BAND_PW = 0.5 * math.log(3.0)  # g_E(0) = acosh(5/3)/2
# S(mu) = int log(w / int w dmu_E) dmu_E for w = 1 + 0.3 x^2, int w = 1.75
POLY_ENTROPY = math.log(0.225) + _arcsine_log_potential(1.75 / 0.225) - math.log(1.75)
# normalised Lebesgue measure has density 1/2 against f_E, int log f_E = log(2/pi)
LEBESGUE_ENTROPY = math.log(math.pi / 4.0)


def _check_sumrule(out: dict, ck: Checks, entropy: float, pw: float | None) -> None:
    r = _cols(out)
    ck.require(f"sumrule status {r['status']!r}", r["status"] == "ok")
    ck.oracle("sumrule entropy_mu", r["entropy_mu"], entropy, 1e-8, relative=entropy != 0.0)
    # an a.c. measure on E has no spectrum off E: no certified gap eigenvalues
    ck.oracle("sumrule green_sum_J", r["green_sum_J"], 0.0, 1e-12, relative=False)
    if pw is not None:
        ck.oracle("sumrule bound_C", r["bound_C"], pw, 1e-10)
        ck.oracle("sumrule bound_Cprime", r["bound_Cprime"], math.exp(pw), 1e-10)
    ck.residuals.append(float(r["residual"]))


def _check_two_band(outs: list[dict], ck: Checks) -> None:
    thm, poly, leb = outs
    t = _cols(thm)
    ck.require(f"theorem satisfied = {t['satisfied']}", t["satisfied"] == 1)
    ck.require(f"theorem window_min {t['window_min']!r} < 1", t["window_min"] >= 1.0)
    ck.oracle("theorem entropy", t["entropy"], POLY_ENTROPY, 1e-8)
    _check_sumrule(poly, ck, POLY_ENTROPY, TWO_BAND_PW)
    _check_sumrule(leb, ck, LEBESGUE_ENTROPY, TWO_BAND_PW)


def spectral_two_band(seed: int) -> list[Item]:
    configs = (
        {"command": "theorem", "set": TWO_BAND, "measure": POLY_MEASURE, "n": 100, "format": "json"},
        {"command": "sumrule", "set": TWO_BAND, "measure": POLY_MEASURE, "n": 20, "format": "json"},
        {"command": "sumrule", "set": TWO_BAND, "measure": "lebesgue", "n": 4, "format": "json"},
    )
    return [Item("theorem+sumrule two-band", configs, _check_two_band)]


# ---------------------------------------------------------------------------
# cantor_spectral: many-band Lanczos and sum rule on fat-Cantor sets


def _check_cantor_spectral(outs: list[dict], ck: Checks) -> None:
    coeffs, rule = outs
    rows = _rows(coeffs)
    ck.require(f"coeffs has {len(rows)} rows, want 400", len(rows) == 400)
    a = np.array([r[1] for r in rows])
    b = np.array([r[2] for r in rows])
    ck.require("some a_n <= 0", bool(np.all(a > 0)))
    ck.require("some b_n outside [0, 1]", bool(np.all((b >= 0.0) & (b <= 1.0))))
    # fat_cantor sets are symmetric about 1/2, so every b_n of mu_E is 1/2
    worst = int(np.argmax(np.abs(b - 0.5))) if len(b) else 0
    if len(b):
        ck.oracle(f"b_{worst + 1} (symmetry)", b[worst], 0.5, 1e-10)
    # mu_E relative to itself has zero entropy
    _check_sumrule(rule, ck, 0.0, None)


def cantor_spectral(seed: int) -> list[Item]:
    configs = (
        {"command": "coeffs", "set": "fat_cantor:3", "measure": "equilibrium", "n": 400,
         "quad_order": 800, "format": "json"},
        {"command": "sumrule", "set": "fat_cantor:4", "measure": "equilibrium", "n": 2,
         "format": "json"},
    )
    return [Item("coeffs+sumrule fat_cantor", configs, _check_cantor_spectral)]


# ---------------------------------------------------------------------------
# small_sets: capacity and Green values of three closed-form families under
# scale_shift, at scales 1e-12 .. 1e12

SCALE_EXPONENTS = (-12, -8, -4, 0, 4, 8, 12)
CUBIC_SHIFT, CUBIC_C = 0.3, 1.5
GAP_PROFILE_POINTS = 101
INTERVAL_POINTS = (2.5, 3.0, 4.0)  # right of beta = 2


def _cubic_preimage():
    """E = T^-1([-c, c]) for T(x) = x^3 - 3x + 0.3, a three-band set."""
    lower = np.sort(np.roots([1.0, 0.0, -3.0, CUBIC_SHIFT + CUBIC_C]).real)
    upper = np.sort(np.roots([1.0, 0.0, -3.0, CUBIC_SHIFT - CUBIC_C]).real)
    e = np.sort(np.concatenate([lower, upper]))
    return float(e[0]), float(e[5]), [(float(e[1]), float(e[2])), (float(e[3]), float(e[4]))]


def _g_interval(x: float) -> float:
    return math.acosh(abs(x) / 2.0)


def _g_two_band(x: float) -> float:
    return 0.5 * math.acosh(abs(4.0 * x * x - 10.0) / 6.0)


def _g_cubic(x: float) -> float:
    return math.acosh(abs(x**3 - 3.0 * x + CUBIC_SHIFT) / CUBIC_C) / 3.0


FAMILIES = {
    # name: (alpha, beta, gaps, capacity, pw_sum, g on the gap profile)
    "interval": (-2.0, 2.0, [], 1.0, 0.0, _g_interval),
    "two_band": (-2.0, 2.0, [(-1.0, 1.0)], math.sqrt(3.0) / 2.0, TWO_BAND_PW, _g_two_band),
    "cubic": (*_cubic_preimage(), (CUBIC_C / 2.0) ** (1.0 / 3.0),
              (math.acosh(2.3 / CUBIC_C) + math.acosh(1.7 / CUBIC_C)) / 3.0, _g_cubic),
}


def _small_item(gaplab_realset, family: str, k: int, shift_unit: float) -> Item:
    alpha, beta, gaps, cap, pw, g = FAMILIES[family]
    scale = 10.0**k
    shift = shift_unit * scale
    s = gaplab_realset.scale_shift(gaplab_realset.make_gapset(alpha, beta, gaps), scale, shift)
    spec = s.to_json()
    capacity = {"command": "capacity", "set": spec, "format": "json"}
    if gaps:
        green = {"command": "green", "set": spec, "gap_index": 0, "n": GAP_PROFILE_POINTS,
                 "format": "json"}
    else:
        pts = ",".join(repr(scale * x + shift) for x in INTERVAL_POINTS)
        green = {"command": "green", "set": spec, "points": pts, "format": "json"}

    def check(outs: list[dict], ck: Checks) -> None:
        q = {name: value for name, value in _rows(outs[0])}
        # capacity of a scaled copy misses at most scales on the seed
        # (ROADMAP item 2a); that defect is reported, not counted in `correct`
        ck.oracle("capacity", q["capacity"], scale * cap, 1e-8, known_defect=k != 0)
        ck.oracle("pw_sum", q["pw_sum"], pw, 1e-8, relative=False)
        rows = _rows(outs[1])
        want_rows = GAP_PROFILE_POINTS if gaps else len(INTERVAL_POINTS)
        ck.require(f"green has {len(rows)} rows, want {want_rows}", len(rows) == want_rows)
        errs = [abs(gx - g((x - shift) / scale)) for x, gx in rows]
        if errs:
            i = max(range(len(errs)), key=lambda j: errs[j] if errs[j] == errs[j] else math.inf)
            x, gx = rows[i]
            ck.oracle(f"g({x!r})", gx, g((x - shift) / scale), 1e-8, relative=False)

    return Item(f"{family} scale=1e{k} shift={shift!r}", (capacity, green), check)


def small_sets(seed: int) -> list[Item]:
    from gaplab import realset

    rng = random.Random(seed)
    items = []
    for family in FAMILIES:
        for k in SCALE_EXPONENTS:
            u = rng.uniform(-1.0, 1.0)
            items.append(_small_item(realset, family, k, 0.0))
            items.append(_small_item(realset, family, k, u))
    return items


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cantor_ladder", cantor_ladder, max_level_probe=True),
        Workload("spectral_two_band", spectral_two_band),
        Workload("cantor_spectral", cantor_spectral),
        Workload("small_sets", small_sets),
    )
}
