"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  Tolerances are fixed here, not
configurable; timing limits use wall-clock seconds.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import gaplab as G
from gaplab import cli


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d}: FAIL - {label}", flush=True)
        raise
    print(f"criterion {num:02d}: PASS - {label}", flush=True)


def test_c01_capacity_oracles():
    with criterion(1, "capacity oracles on three reference sets"):
        for spec, want, tol in (
            (G.make_gapset(-2, 2), 1.0, 1e-10),
            (G.make_gapset(0, 1), 0.25, 1e-10),
            (G.make_gapset(-2, 2, [(-1, 1)]), math.sqrt(3) / 2, 1e-8),
        ):
            t0 = time.perf_counter()
            model = G.solve_green(spec)
            elapsed = time.perf_counter() - t0
            assert abs(model.capacity - want) <= tol
            assert elapsed < 1.0


def test_c02_green_value_oracles(model_m22, model_pm12, model_fat4):
    with criterion(2, "Green's function values and edge vanishing"):
        assert abs(G.green_value(model_m22, 3.0) - math.log((3 + math.sqrt(5)) / 2)) <= 1e-8
        assert abs(G.green_value(model_pm12, 0.0) - 0.5 * math.log(3)) <= 1e-8
        for model in (model_m22, model_pm12, model_fat4):
            for e in model.edges:
                assert abs(G.green_value(model, e)) <= 1e-9


def test_c03_gap_area_identity(model_fat4):
    with criterion(3, "gap area identity on all 15 gaps of fat_cantor(4)"):
        t0 = time.perf_counter()
        assert len(model_fat4.set.gaps) == 15
        for j, c in enumerate(model_fat4.critical_points):
            lhs = G.gap_derivative_l1(model_fat4, j)
            assert abs(lhs - 2.0 * G.green_value(model_fat4, c)) <= 1e-8
        assert time.perf_counter() - t0 < 10.0


def test_c04_fat_cantor_table():
    with criterion(4, "fat Cantor measures, homogeneity and PW sums"):
        for n in range(9):
            want = 1 - 0.5 * (1 - 2.0 ** (-n))
            assert abs(G.lebesgue_measure(G.fat_cantor(n)) - want) <= 1e-12
        deltas = [0.8, 0.4, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005]
        for n in range(1, 7):
            assert G.homogeneity_margin(G.fat_cantor(n), 8, deltas) >= 0.25
        pvalues = []
        for n in range(1, 7):
            pvalues.append(G.pw_sum(G.solve_green(G.fat_cantor(n))))
        assert abs(pvalues[0] - 0.5 * math.log(5 / 3)) <= 1e-8
        increments = [float(d) for d in np.diff(pvalues)]
        print("  pw_sum by level:", [round(v, 8) for v in pvalues])
        print("  increments:", [round(v, 8) for v in increments])
        assert all(d > 0 for d in increments)


def test_c05_reflectionless_xi(model_m22, model_pm12, model_fat3):
    with criterion(5, "reflectionless boundary values on three sets"):
        for model in (model_m22, model_pm12, model_fat3):
            mu = G.make_measure(model)
            for lo, hi in model.set.bands:
                for i in range(20):
                    t = lo + (hi - lo) * (i + 0.5) / 20
                    mb = G.measure_m_boundary(mu, t)
                    assert abs(mb.real) / mb.imag <= 1e-4
                    assert abs(np.angle(mb) / math.pi - 0.5) <= 1e-4


def test_c06_coefficient_oracles(mu_arcsine, mu_semicircle):
    with criterion(6, "arcsine and semicircle recurrence coefficients to n=50"):
        t0 = time.perf_counter()
        J = G.coefficients_from_measure(mu_arcsine, 50, quad_order=256)
        assert abs(J.a[0] - math.sqrt(2)) <= 1e-8
        assert np.max(np.abs(J.a[1:] - 1.0)) <= 1e-8
        assert np.max(np.abs(J.b)) <= 1e-8
        Jsc = G.coefficients_from_measure(mu_semicircle, 50, quad_order=256)
        assert np.max(np.abs(Jsc.a - 1.0)) <= 1e-8
        assert np.max(np.abs(Jsc.b)) <= 1e-8
        assert time.perf_counter() - t0 < 5.0


def test_c07_step_sum_rules(j_chebyshev, mu_arcsine):
    with criterion(7, "step and n-step sum rules on the analytic case"):
        rep = G.step_sum_rule(j_chebyshev, mu_arcsine)
        assert rep.lhs == pytest.approx(0.5 * math.log(2), abs=1e-10)
        assert abs(rep.residual) <= 1e-6
        for n in range(2, 21):
            rep_n = G.n_step_sum_rule(j_chebyshev, mu_arcsine, n)
            assert abs(rep_n.residual) <= 1e-5


def test_c08_eigenvalue_machinery(model_m22, model_pm12, j_perturbed, je_pm12):
    with criterion(8, "gap eigenvalues, Green sums and the one-per-gap count"):
        eigs = G.gap_eigenvalues(j_perturbed, model_m22, 250)
        assert len(eigs) == 1
        assert abs(eigs[0][0] - 2.9) <= 1e-6
        assert abs(G.eigenvalue_green_sum([eigs[0][0]], model_m22) - math.log(2.5)) <= 1e-6
        # one-per-gap property for corners and strips whenever the 2N
        # section is clean, checked at 25/50/100
        for N in (25, 50, 100):
            clean = not any(
                loc.kind == "gap" for _, loc in G.gap_eigenvalues(je_pm12, model_pm12, 2 * N)
            )
            corner = [v for v, loc in G.gap_eigenvalues(je_pm12, model_pm12, N)
                      if loc.kind == "gap"]
            stripped = [v for v, loc in G.gap_eigenvalues(G.strip(je_pm12, N), model_pm12, N)
                        if loc.kind == "gap"]
            if clean:
                assert len(corner) <= 1
                assert len(stripped) <= 1
        # dense eigensolver oracle at size 50
        T = np.diag(je_pm12.b[:50]) + np.diag(je_pm12.a[:49], 1) + np.diag(je_pm12.a[:49], -1)
        dense = np.linalg.eigvalsh(T)
        dense_gap = np.sort(dense[(dense > -1) & (dense < 1)])
        ours = np.sort([v for v, loc in G.gap_eigenvalues(je_pm12, model_pm12, 50)
                        if loc.kind == "gap"])
        assert len(dense_gap) == len(ours) <= 1
        if len(ours):
            assert np.max(np.abs(dense_gap - ours)) <= 1e-10


def test_c09_eigenvalue_sum_bounds(je_pm12, model_pm12, j_free, j_perturbed, model_m22):
    with criterion(9, "eigenvalue-sum bounds across the matrix battery"):
        battery = [
            (je_pm12, model_pm12, [25, 50, 100]),
            (j_free, model_m22, [25, 50, 100]),
            (j_perturbed, model_m22, [25, 50, 100]),
        ]
        for J, model, sizes in battery:
            rep = G.eigenvalue_bound_check(J, model, sizes)
            bad = [e for e in rep.entries if not e.ok]
            assert not bad, f"violations: {bad}"


def test_c10_szego_equivalence(model_pm12, model_m22):
    with criterion(10, "Szego-product windows for Szego and non-Szego measures"):
        szego_weights = [
            None,
            G.WeightSpec("poly", {"coef": [1.0, 0.0, 0.3]}),
            G.WeightSpec("const", {"value": 1.0}),
        ]
        modes = ["relative", "relative", "absolute"]
        for w, mode in zip(szego_weights, modes):
            mu = G.make_measure(model_pm12, w, mode=mode, quad_order=1000)
            J = G.coefficients_from_measure(mu, 200)
            u = G.szego_product(J, model_pm12.capacity, 200)
            for n_max in (50, 100, 200):
                window = G.trailing_window(u[:n_max])
                assert np.min(window) >= 1.0  # fixed positive floor
        # essential zero pinned at the right band edge: the Szego integral
        # diverges and the product decays without the interior-gap wiggle
        w = G.WeightSpec("exp_inv_abs", {"center": 2.0, "strength": 1.0})
        mu = G.make_measure(model_m22, w, mode="relative", quad_order=1600)
        assert G.szego_integral(mu) == float("-inf")
        J = G.coefficients_from_measure(mu, 200)
        u = G.szego_product(J, model_m22.capacity, 200)
        assert np.all(np.diff(np.log(u[100:])) < 0)


def test_c11_cli_determinism(tmp_path):
    with criterion(11, "byte-identical CLI reruns"):
        for args in (
            ["--command", "cantor", "--n", "3"],
            ["--command", "capacity", "--set", '{"alpha": -2, "beta": 2, "gaps": [[-1, 1]]}',
             "--format", "json"],
            ["--command", "coeffs", "--set", '{"alpha": -2, "beta": 2, "gaps": []}',
             "--measure", "equilibrium", "--n", "8"],
        ):
            out1, out2 = tmp_path / "r1", tmp_path / "r2"
            assert cli.main(args + ["--out", str(out1)]) == 0
            assert cli.main(args + ["--out", str(out2)]) == 0
            assert out1.read_bytes() == out2.read_bytes()
