import json
import math

import numpy as np
import pytest

import gaplab as G
from gaplab import realset
from gaplab.cli import parse_set_spec
from gaplab.errors import ValidationError


def test_no_gap_interval():
    s = G.make_gapset(-2, 2, [])
    assert s.bands == ((-2.0, 2.0),)
    assert G.lebesgue_measure(s) == 4.0


def test_middle_quarter_removed():
    s = G.make_gapset(0, 1, [(3 / 8, 5 / 8)])
    assert s.bands == ((0.0, 0.375), (0.625, 1.0))


@pytest.mark.parametrize(
    "gaps",
    [
        [(0.2, 0.5), (0.4, 0.7)],  # overlap
        [(0.2, 0.4), (0.4, 0.7)],  # touching closures
        [(0.2, 0.2)],  # empty gap
        [(-0.5, 0.3)],  # escapes the interval
        [(0.3, 1.0)],  # gap reaching beta kills a band
        [(0.2, 0.3, 0.9)],  # not a pair
        [(0.5,)],  # one endpoint
        [("a", 0.6)],  # not a number
    ],
)
def test_invalid_gaps_rejected(gaps):
    with pytest.raises(ValidationError):
        G.make_gapset(0, 1, gaps)
    with pytest.raises(ValidationError):
        parse_set_spec(json.dumps({"alpha": 0, "beta": 1, "gaps": gaps}))


def test_invalid_endpoints_json_and_levels_rejected():
    for alpha, beta, gaps in ((0.0, math.inf, []), (math.nan, 1.0, []), (0.0, 1.0, [(0.2, math.nan)])):
        with pytest.raises(ValidationError, match="finite"):
            G.make_gapset(alpha, beta, gaps)
    for text, why in (("{not json", "not JSON"), ('{"alpha": 0}', "alpha and beta"),
                      ("[0, 1]", "alpha and beta")):
        with pytest.raises(ValidationError, match=why):
            parse_set_spec(text)
    with pytest.raises(ValidationError, match=">= 0"):
        G.fat_cantor(-1)


def test_gaps_sorted_any_input_order():
    s = G.make_gapset(0, 1, [(0.6, 0.7), (0.1, 0.2)])
    assert s.gaps == ((0.1, 0.2), (0.6, 0.7))


def test_fat_cantor_levels():
    assert G.fat_cantor(0).gaps == ()
    assert G.fat_cantor(1).gaps == ((0.375, 0.625),)
    s2 = G.fat_cantor(2)
    assert len(s2.gaps) == 3
    removed = 1 - G.lebesgue_measure(s2)
    assert removed == pytest.approx(1 / 4 + 2 / 16, abs=1e-15)


def test_fat_cantor_measure_formula():
    for n in range(0, 9):
        expected = 1 - 0.5 * (1 - 2.0 ** (-n))
        assert abs(G.lebesgue_measure(G.fat_cantor(n)) - expected) <= 1e-12


def test_fat_cantor_nesting():
    for n in range(0, 6):
        small, big = G.fat_cantor(n), G.fat_cantor(n + 1)
        assert set(small.gaps).issubset(set(big.gaps))


def test_fat_cantor_level_limit():
    with pytest.raises(ValidationError):
        G.fat_cantor(17)


def test_band_gap_lengths_partition():
    rng = np.random.RandomState(11)
    for _ in range(25):
        pts = np.sort(rng.uniform(-3, 3, 8))
        # keep bands strictly positive by spacing the picked points
        if np.min(np.diff(pts)) < 1e-3:
            continue
        s = G.make_gapset(pts[0], pts[-1], [(pts[2], pts[3]), (pts[5], pts[6])])
        bands = sum(b - a for a, b in s.bands)
        gaps = sum(b - a for a, b in s.gaps)
        assert abs((bands + gaps) - (s.beta - s.alpha)) <= 1e-12


def test_locate_classification():
    s = G.make_gapset(0, 1, [(3 / 8, 5 / 8)])
    assert G.locate(s, 0.5) == G.Location("gap", 0)
    assert G.locate(s, 0.375).kind == "band"
    assert G.locate(s, -1.0).kind == "left"
    assert G.locate(s, 2.0).kind == "right"
    assert G.locate(s, 0.2) == G.Location("band", 0)
    with pytest.raises(ValidationError):
        G.locate(s, float("nan"))


def _scan_locate(s, x):
    """The classification by a scan over the gaps, then the bands."""
    if not np.isfinite(x):
        raise ValidationError(f"cannot locate non-finite point {x}")
    if x < s.alpha:
        return G.Location("left")
    if x > s.beta:
        return G.Location("right")
    for j, (lo, hi) in enumerate(s.gaps):
        if lo < x < hi:
            return G.Location("gap", j)
    for k, (lo, hi) in enumerate(s.bands):
        if lo <= x <= hi:
            return G.Location("band", k)
    raise AssertionError("unreachable")


def test_locate_matches_scan():
    # the searchsorted classifier against the scan, on seeded points, every
    # edge and both floats next to every edge
    s = G.fat_cantor(6)
    e = s.edges
    pts = np.concatenate([
        np.random.default_rng(6).uniform(s.alpha - 0.1, s.beta + 0.1, 1000),
        e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf), [s.alpha - 1, s.beta + 1],
    ])
    want = [_scan_locate(s, x) for x in pts.tolist()]
    assert [G.locate(s, x) for x in pts.tolist()] == want
    assert {loc.kind for loc in want} == {"left", "right", "gap", "band"}
    # one call over the array gives each point's own slot
    assert realset.edge_slots(s, pts).tolist() == [int(realset.edge_slots(s, x)) for x in pts]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError):
            G.locate(s, bad)
        with pytest.raises(ValidationError):
            realset.edge_slots(s, np.array([0.1, bad, 0.2]))


def test_homogeneity_full_interval():
    s = G.make_gapset(0, 1)
    assert G.homogeneity_margin(s, 8, [0.1, 0.5, 0.9]) == pytest.approx(1.0)


def test_homogeneity_two_far_bands():
    # window (t - d, t + d) at t = 0.1 with d = 0.8 grabs 0.1 from material
    # on both sides: |(-0.7, 0.9) cap E| = 0.1, ratio 0.125; t = 0.1 is a band
    # edge, so no interior sample is needed to find it
    s = G.make_gapset(0, 1, [(0.1, 0.9)])
    for t_samples in (4, 0):
        assert G.homogeneity_margin(s, t_samples, [0.8]) == pytest.approx(0.125, abs=1e-15)


def test_homogeneity_fat_cantor_quarter_bound():
    deltas = [0.8, 0.4, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005]
    s = G.fat_cantor(4)
    assert G.homogeneity_margin(s, 8, deltas) >= 0.25


def test_homogeneity_refinement_monotone():
    s = G.fat_cantor(3)
    deltas = [0.5, 0.1, 0.02]
    coarse = G.homogeneity_margin(s, 4, deltas)
    fine = G.homogeneity_margin(s, 9, deltas)  # nested uniform refinement
    finest = G.homogeneity_margin(s, 19, deltas)
    assert fine <= coarse + 1e-15
    assert finest <= fine + 1e-15


def test_homogeneity_validation():
    s = G.make_gapset(0, 1)
    with pytest.raises(ValidationError):
        G.homogeneity_margin(s, 4, [])
    with pytest.raises(ValidationError):
        G.homogeneity_margin(s, 4, [1.5])


def test_json_round_trip():
    s = G.make_gapset(-1.5, 2.5, [(0.0, 0.25), (1.0, 1.125)])
    assert parse_set_spec(s.to_json()) == s
    with pytest.raises(ValidationError):
        parse_set_spec('{"alpha": "x", "beta": 1, "gaps": []}')


def test_edges_and_bands_cached_read_only():
    s = G.make_gapset(-1.5, 2.5, [(0.0, 0.25), (1.0, 1.125)])
    assert s.edges is s.edges and s.bands is s.bands
    assert s.edges.tolist() == [-1.5, 0.0, 0.25, 1.0, 1.125, 2.5]
    assert s.bands == ((-1.5, 0.0), (0.25, 1.0), (1.125, 2.5))
    with pytest.raises(ValueError):
        s.edges[0] = 0.0
    assert s.edges[0] == -1.5
    # the cache is no field: equality and hashing still see only the gaps
    t = G.make_gapset(-1.5, 2.5, [(1.0, 1.125), (0.0, 0.25)])
    assert t == s and hash(t) == hash(s)


def test_scale_shift():
    s = G.make_gapset(-2, 2, [(-1, 1)])
    t = G.scale_shift(s, 0.5, 3.0)
    assert t.alpha == 2.0 and t.beta == 4.0
    assert t.gaps == ((2.5, 3.5),)
    with pytest.raises(ValidationError):
        G.scale_shift(s, -1.0)
