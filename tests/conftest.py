import numpy as np
import pytest

import gaplab as G


@pytest.fixture(scope="session")
def model_m22():
    return G.solve_green(G.make_gapset(-2, 2))


@pytest.fixture(scope="session")
def model_pm12():
    return G.solve_green(G.make_gapset(-2, 2, [(-1, 1)]), quad_order=240)


@pytest.fixture(scope="session")
def model_fat3():
    return G.solve_green(G.fat_cantor(3))


@pytest.fixture(scope="session")
def model_fat4():
    return G.solve_green(G.fat_cantor(4))


@pytest.fixture(scope="session")
def model_fat8():
    return G.solve_green(G.fat_cantor(8))


@pytest.fixture(scope="session")
def mu_arcsine(model_m22):
    return G.make_measure(model_m22, None, mode="relative")


@pytest.fixture(scope="session")
def mu_semicircle(model_m22):
    w = G.WeightSpec("poly", {"coef": [2.0, 0.0, -0.5]})
    return G.make_measure(model_m22, w, mode="relative")


@pytest.fixture(scope="session")
def j_chebyshev(model_m22, mu_arcsine):
    """Arcsine coefficients (sqrt2, 1, 1, ...), long enough for 20 strip steps."""
    return G.coefficients_from_measure(mu_arcsine, 500, quad_order=1200)


@pytest.fixture(scope="session")
def mu_eq_pm12(model_pm12):
    return G.make_measure(model_pm12, None, mode="relative", quad_order=800)


@pytest.fixture(scope="session")
def je_pm12(mu_eq_pm12):
    """Equilibrium coefficients of the two-interval set, length 460."""
    return G.coefficients_from_measure(mu_eq_pm12, 460)


@pytest.fixture(scope="session")
def j_perturbed():
    """Free Jacobi matrix with b_1 = 2.5: one eigenvalue at 2.9."""
    b = np.zeros(460)
    b[0] = 2.5
    return G.JacobiCoeffs(np.ones(460), b)


@pytest.fixture(scope="session")
def j_free():
    return G.JacobiCoeffs(np.ones(460), np.zeros(460))
