import math
from dataclasses import replace

import numpy as np
import pytest

import gaplab as G
from gaplab import jacobi
from gaplab.errors import NumericalError, ValidationError
from gaplab.jacobi import sturm_count
from gaplab.potential import TOLERANCES
from gaplab.sumrule import _stripped_densities

STOP = TOLERANCES["eigenvalue_abs"] / 10  # bisection stop, relative to max(1, |x|)


def dense_tridiagonal(J, N):
    T = np.diag(J.b[:N])
    if N > 1:
        T += np.diag(J.a[: N - 1], 1) + np.diag(J.a[: N - 1], -1)
    return T


def hankel_coefficients(moments, n):
    """Moment-determinant oracle (fine for small n): Gram on monomials."""
    k = n + 1
    M = np.array([[moments[i + j] for j in range(k)] for i in range(k)], dtype=float)
    L = np.linalg.cholesky(M)
    # recurrence from the Cholesky factor of the moment matrix
    a = np.array([L[i + 1, i + 1] / L[i, i] for i in range(n)])
    b = np.empty(n)
    b[0] = L[1, 0] / L[0, 0]
    for i in range(1, n):
        b[i] = L[i + 1, i] / L[i, i] - L[i, i - 1] / L[i - 1, i - 1]
    return a, b


# ---------------------------------------------------------------------------
# coefficients from measures


def test_arcsine_coefficients(mu_arcsine):
    J = G.coefficients_from_measure(mu_arcsine, 12, quad_order=256)
    assert J.a[0] == pytest.approx(math.sqrt(2), abs=1e-12)
    assert np.max(np.abs(J.a[1:] - 1)) <= 1e-10
    assert np.max(np.abs(J.b)) <= 1e-10


def test_semicircle_coefficients(mu_semicircle):
    J = G.coefficients_from_measure(mu_semicircle, 12, quad_order=256)
    assert np.max(np.abs(J.a - 1)) <= 1e-10
    assert np.max(np.abs(J.b)) <= 1e-10


def test_semicircle_against_moment_oracle(mu_semicircle):
    # semicircle even moments are the Catalan numbers
    catalan = [1, 1, 2, 5, 14, 42, 132]
    moments = []
    for k in range(11):
        moments.append(0.0 if k % 2 else float(catalan[k // 2]))
    a_or, b_or = hankel_coefficients(moments, 5)
    J = G.coefficients_from_measure(mu_semicircle, 5, quad_order=200)
    assert np.allclose(J.a, a_or, atol=1e-10)
    assert np.allclose(J.b, b_or, atol=1e-10)


def test_two_atoms():
    model = G.solve_green(G.make_gapset(-0.5, 0.5))
    mu = G.make_measure(
        model, G.WeightSpec("const", {"value": 0.0}),
        point_masses=[(-1.0, 0.5), (1.0, 0.5)],
    )
    J = G.coefficients_from_measure(mu, 1)
    assert J.b[0] == pytest.approx(0.0, abs=1e-14)
    assert J.a[0] == pytest.approx(1.0, abs=1e-14)


def test_atomic_measure_exact_vs_dense():
    # measure with 12 atoms: Lanczos must reproduce its Jacobi matrix exactly
    rng = np.random.RandomState(3)
    x = np.sort(rng.uniform(2.0, 5.0, 12))
    w = rng.uniform(0.1, 1.0, 12)
    w /= w.sum()
    model = G.solve_green(G.make_gapset(-1, 1))
    mu = G.make_measure(model, G.WeightSpec("const", {"value": 0.0}),
                        point_masses=list(zip(x, w)))
    J = G.coefficients_from_measure(mu, 6)
    # oracle: orthonormalize monomials in the discrete inner product
    V = np.vander(x, 7, increasing=True) * np.sqrt(w)[:, None]
    Q, R = np.linalg.qr(V)
    a_or = np.array([R[i + 1, i + 1] / R[i, i] for i in range(6)])
    b_or = np.array(
        [R[i, i + 1] / R[i, i] - (R[i - 1, i] / R[i - 1, i - 1] if i else 0.0) for i in range(6)]
    )
    assert np.allclose(J.a, np.abs(a_or), atol=1e-10)
    assert np.allclose(J.b, b_or, atol=1e-10)


def test_coefficients_invariant_under_mass_rescaling(model_m22):
    w1 = G.WeightSpec("poly", {"coef": [1.0, 0.0, 0.25]})
    w9 = G.WeightSpec("poly", {"coef": [9.0, 0.0, 2.25]})
    j1 = G.coefficients_from_measure(G.make_measure(model_m22, w1), 10)
    j9 = G.coefficients_from_measure(G.make_measure(model_m22, w9), 10)
    assert np.max(np.abs(j1.a - j9.a)) <= 1e-8
    assert np.max(np.abs(j1.b - j9.b)) <= 1e-8


def test_coefficient_stability_under_order_doubling(mu_semicircle):
    j1 = G.coefficients_from_measure(mu_semicircle, 20, 300)
    j2 = G.coefficients_from_measure(mu_semicircle, 20, 600)
    assert max(np.max(np.abs(j1.a - j2.a)), np.max(np.abs(j1.b - j2.b))) <= 1e-10


def test_degenerate_measure_errors(model_m22):
    mu = G.make_measure(model_m22, None)
    with pytest.raises(ValidationError):
        G.coefficients_from_measure(mu, 500, quad_order=64)
    with pytest.raises(ValidationError, match="at least 1"):
        G.coefficients_from_measure(mu, 0)


@pytest.mark.parametrize("kwargs", [
    {"a": [1.0, 1.0, 1.0], "b": [0.0]},
    {"a": [1.0, 0.0], "b": [0.0, 0.0]},
    {"a": [1.0], "b": [0.0, float("nan")]},
], ids=["length_mismatch", "a_not_positive", "not_finite"])
def test_malformed_jacobi_coeffs_are_validation_errors(kwargs):
    with pytest.raises(ValidationError):
        G.JacobiCoeffs(**kwargs)


def test_make_measure_validation(model_m22):
    with pytest.raises(ValidationError, match="mode"):
        G.make_measure(model_m22, None, mode="singular")
    with pytest.raises(ValidationError, match="nonnegative"):
        G.make_measure(model_m22, G.WeightSpec("const", {"value": -1.0}))
    with pytest.raises(ValidationError, match="neither"):
        G.make_measure(model_m22, G.WeightSpec("const", {"value": 0.0}))
    with pytest.raises(ValidationError, match="must be a dict"):
        G.WeightSpec("const", [1.0])


def test_make_measure_rejects_nan_point_mass(model_m22):
    # m <= 0 is False for NaN, which let a NaN mass through to a NaN
    # normalization and silent nan+nanj boundary values
    with pytest.raises(ValidationError, match="point mass at 3.0 must be positive"):
        G.make_measure(model_m22, None, point_masses=[(3.0, float("nan"))])


@pytest.mark.parametrize("spec,pairs", [("two_band", 399), ("fat_cantor_3", 790)])
def test_default_order_near_support_size(spec, pairs):
    # both measures have 200 nodes per band; at that order alone these pairs
    # are 0.49 and 0.08 off, so the default rule runs at twice the pairs plus one
    s = G.make_gapset(-2, 2, [(-1, 1)]) if spec == "two_band" else G.fat_cantor(3)
    mu = G.make_measure(G.solve_green(s))
    J = G.coefficients_from_measure(mu, pairs)
    ref = G.coefficients_from_measure(mu, pairs, quad_order=3200)
    assert np.max(np.abs(J.a - ref.a)) <= 1e-13
    assert np.max(np.abs(J.b - ref.b)) <= 1e-13


@pytest.mark.parametrize("n", [20, 100, 240])
def test_default_order_is_exact_for_lebesgue(model_m22, n):
    # Lebesgue measure on [-2, 2] has Legendre's pairs, doubled: pair n needs
    # degree 2n, which Fejér's rule integrates at 2n + 1 points but not at 2n
    mu = G.make_measure(model_m22, G.WeightSpec("const", {"value": 1.0}), mode="absolute")
    J = G.coefficients_from_measure(mu, n)
    k = np.arange(1, n + 1)
    assert np.max(np.abs(J.a - 2 * k / np.sqrt(4 * k * k - 1))) <= 1e-13
    assert np.max(np.abs(J.b)) <= 1e-13


def two_pass_lanczos(mu, n, quad_order=None):
    """Lanczos with two full reorthogonalization passes at every step, the
    O(M n^2) loop that partial reorthogonalization replaced."""
    order = mu.quad.order if quad_order is None else quad_order
    t, w = jacobi._discretize(mu, order)
    a, b = np.empty(n), np.empty(n)
    Q = np.empty((len(t), n + 1))
    q = Q[:, 0] = np.sqrt(w / np.sum(w))
    qm, beta = np.zeros_like(q), 0.0
    for k in range(n):
        u = t * q
        b[k] = q @ u
        r = u - b[k] * q - beta * qm
        for _ in range(2):
            r -= Q[:, : k + 1] @ (Q[:, : k + 1].T @ r)
        a[k] = beta = np.linalg.norm(r)
        qm, q = q, r / beta
        Q[:, k + 1] = q
    return a, b


@pytest.fixture(scope="module")
def mass_measures(model_pm12):
    """(measure, n): point masses off the set, where a Ritz value converges
    to each mass and plain Lanczos loses orthogonality."""
    fat5 = G.solve_green(G.fat_cantor(5))
    lo, hi = fat5.set.gaps[0]
    return [
        (G.make_measure(model_pm12, None, point_masses=[(0.0, 0.1), (3.0, 0.05)]), 200),
        (G.make_measure(fat5, None, point_masses=[((lo + hi) / 2, 0.1), (1.3, 0.05)]), 150),
    ]


def test_lanczos_matches_two_pass_reference(mu_arcsine, mu_semicircle, mass_measures):
    cases = [(mu_arcsine, 50, 256), (mu_semicircle, 50, 256)]
    cases += [(mu, n, None) for mu, n in mass_measures]
    for mu, n, order in cases:
        J = G.coefficients_from_measure(mu, n, order)
        a, b = two_pass_lanczos(mu, n, order)
        assert np.max(np.abs(J.a - a)) <= 1e-13
        assert np.max(np.abs(J.b - b)) <= 1e-13


def test_reorthogonalization_fires_only_with_point_masses(model_pm12, mass_measures):
    ac = G.make_measure(model_pm12, G.WeightSpec("poly", {"coef": [1.0, 0.0, 0.3]}))
    assert G.coefficients_from_measure(ac, 200).reorth_steps == 0
    for mu, n in mass_measures:
        assert G.coefficients_from_measure(mu, n).reorth_steps > 0


def test_lanczos_diagnostics(mu_arcsine):
    J = G.coefficients_from_measure(mu_arcsine, 20)
    t, _ = jacobi._discretize(mu_arcsine, mu_arcsine.quad.order)
    assert J.breakdown_margin == pytest.approx(np.min(J.a) / (1e-14 * np.max(np.abs(t))))
    # diagnostics are not compared, serialized or carried by structural operations
    assert J == replace(J, reorth_steps=None, breakdown_margin=None)
    derived = [
        G.strip(J, 0),
        G.glue_head(G.JacobiCoeffs(J.a[:3], J.b[:3]), 1.0, J),
    ]
    for other in derived:
        assert other.reorth_steps is None and other.breakdown_margin is None


@pytest.mark.parametrize("scale", [1e-15, 1e-16])
def test_breakdown_threshold_scales_with_the_set(scale):
    # an absolute threshold broke down at step 1 below |t| = 1
    def coeffs(s):
        model = G.solve_green(G.make_gapset(-2 * s, 2 * s, [(-s, s)]))
        return G.coefficients_from_measure(G.make_measure(model), 40)

    unit, small = coeffs(1.0), coeffs(scale)
    assert np.max(np.abs(small.a - scale * unit.a)) <= 1e-13 * scale * np.max(unit.a)
    assert np.max(np.abs(small.b - scale * unit.b)) <= 1e-13 * scale * np.max(unit.a)


def test_point_mass_validation(model_m22):
    with pytest.raises(ValidationError):
        G.make_measure(model_m22, None, point_masses=[(0.5, 0.1)])  # inside set
    with pytest.raises(ValidationError):
        G.make_measure(model_m22, None, point_masses=[(3.0, -0.1)])
    with pytest.raises(ValidationError):
        G.make_measure(model_m22, None, point_masses=[(3.0, 0.6), (4.0, 0.7)])
    with pytest.raises(ValidationError, match="duplicate"):
        G.make_measure(model_m22, None, point_masses=[(3.0, 0.1), (3.0, 0.2)])


@pytest.mark.parametrize("form,params", [
    ("poly", {"coef": []}),
    ("const", {"value": "x"}),
    ("poly", {}),
    ("indicator", {"support": [1, 2]}),
    ("const", {"value": float("nan")}),
    ("exprat", {"num": [1.0], "den": [[1.0]]}),
    ("exp_inv_abs", {"center": 2.0, "strength": "x"}),
    ("spline", {"knots": [0.0, 1.0]}),
], ids=["poly_coef_empty", "const_value_string", "poly_no_coef", "indicator_flat",
        "const_value_nan", "exprat_den_nested", "exp_inv_abs_strength_string", "unknown_form"])
def test_malformed_weight_spec_is_validation_error(model_m22, form, params):
    # rejected when built, before make_measure evaluates the weight
    with pytest.raises(ValidationError):
        G.make_measure(model_m22, G.WeightSpec(form, params))
    with pytest.raises(ValidationError):
        G.WeightSpec.from_dict({"form": form, **params})


# ---------------------------------------------------------------------------
# strip and glue


def test_strip_basic(j_chebyshev):
    s1 = G.strip(j_chebyshev, 1)
    assert np.max(np.abs(s1.a[:50] - 1)) <= 1e-10
    assert len(s1) == len(j_chebyshev) - 1
    s0 = G.strip(j_chebyshev, 0)
    assert np.array_equal(s0.a, j_chebyshev.a)
    with pytest.raises(ValidationError):
        G.strip(j_chebyshev, len(j_chebyshev))


def test_strip_composition(j_perturbed):
    twice = G.strip(G.strip(j_perturbed, 2), 3)
    once = G.strip(j_perturbed, 5)
    assert np.array_equal(twice.a, once.a) and np.array_equal(twice.b, once.b)


def test_glue_round_trip(j_perturbed, je_pm12):
    head = G.JacobiCoeffs(j_perturbed.a[:7], j_perturbed.b[:7])
    glued = G.glue_head(head, 0.8, je_pm12)
    back = G.strip(glued, 7)
    assert np.array_equal(back.a, je_pm12.a)
    assert np.array_equal(back.b, je_pm12.b)
    assert glued.a[6] == 0.8
    with pytest.raises(ValidationError):
        G.glue_head(head, -1.0, je_pm12)


def test_glue_empty_head(je_pm12):
    head = G.JacobiCoeffs(np.empty(0), np.empty(0))
    assert G.glue_head(head, 1.0, je_pm12) is je_pm12


HEADS = [12, 25, 50, 100]


@pytest.fixture(scope="module", params=["two_band", "fat_cantor_3"])
def glued_case(request, model_pm12, model_fat3):
    """(model, J, reference tail pairs, its quad_order, tolerance) for glued_eigenvalues."""
    if request.param == "two_band":
        mu = G.make_measure(model_pm12, G.WeightSpec("poly", {"coef": [1, 0, 0.3]}))
        return model_pm12, G.coefficients_from_measure(mu, 100), 600, None, 1e-12
    # a near-edge state converges slowly in the reference: 9.0e-7 at 1600 pairs
    return model_fat3, G.coefficients_from_measure(G.make_measure(model_fat3), 100), 1600, 1000, 1e-6


def test_glued_eigenvalues_match_long_glue(glued_case):
    # each exact eigenvalue is one of a long truncated glue's, onto mu_E's own
    # Lanczos tail; the truncation adds wall states of its own, so one way only
    model, J, pairs, order, tol = glued_case
    tail = G.coefficients_from_measure(G.make_measure(model), pairs, quad_order=order)
    exact = G.glued_eigenvalues(J, model, HEADS)
    assert list(exact) == HEADS
    for n, eigs in exact.items():
        glued = G.glue_head(G.JacobiCoeffs(J.a[:n], J.b[:n]), float(J.a[n - 1]), tail)
        ref = np.array([v for v, _ in G.gap_eigenvalues(glued, model, n + pairs - 200)])
        for x, loc in eigs:
            assert np.min(np.abs(ref - x)) <= tol, (n, x)
            assert G.locate(model.set, x) == loc


def test_glued_gap_counts_are_corner_counts_plus_one(glued_case):
    # m_E runs from -inf to +inf across a gap, so the shifted last pivot adds
    # exactly one eigenvalue to the (n-1)-corner's count there; m_E is +inf
    # at alpha and -inf at beta, so the same holds left and right of E, and
    # no head's list is empty
    model, J, *_ = glued_case
    s = model.set
    for n, eigs in G.glued_eigenvalues(J, model, [1, *HEADS]).items():
        corner = sturm_count(J, n - 1, s.edges) if n > 1 else np.zeros(len(s.edges), dtype=int)
        for j in range(len(s.gaps)):
            got = sum(loc == G.Location("gap", j) for _, loc in eigs)
            assert got == corner[2 * j + 2] - corner[2 * j + 1] + 1, (n, j)
        assert sum(loc.kind == "left" for _, loc in eigs) == corner[0] + 1, n
        assert sum(loc.kind == "right" for _, loc in eigs) == n - corner[-1], n


def test_glued_long_heads_keep_their_junction_states(model_pm12):
    # poly [1, 0, 0.3] on [-2,-1] u [1,2]: heads 50 and 100 hold the pairs
    # +-0.98005 in the gap and +-2.04071 outside
    mu = G.make_measure(model_pm12, G.WeightSpec("poly", {"coef": [1, 0, 0.3]}))
    J = G.coefficients_from_measure(mu, 100)
    for n, eigs in G.glued_eigenvalues(J, model_pm12, [50, 100]).items():
        assert [round(x, 5) for x, _ in eigs] == [-2.04071, -0.98005, 0.98005, 2.04071], n


def test_glued_head_keeps_its_junction_states(model_fat3):
    # head 12 on fat_cantor(3): one state per gap, a second in gap 3 where
    # the 11-corner has one, and one each side of [alpha, beta]
    J = G.coefficients_from_measure(G.make_measure(model_fat3), 100)
    eigs = G.glued_eigenvalues(J, model_fat3, [12])[12]
    kinds = [loc.kind for _, loc in eigs]
    assert len(eigs) == 10 and kinds[0] == "left" and kinds[-1] == "right"


def test_glued_eigenvalues_need_the_junction_coupling(model_pm12, je_pm12):
    corner = G.JacobiCoeffs(je_pm12.a[:9], je_pm12.b[:10])
    assert list(G.glued_eigenvalues(corner, model_pm12, [9])) == [9]
    for sizes in ([10], [0, 4], []):
        with pytest.raises(ValidationError):
            G.glued_eigenvalues(corner, model_pm12, sizes)


# ---------------------------------------------------------------------------
# eigenvalues


def test_truncation_eigenvalues_closed_forms():
    assert G.truncation_eigenvalues(G.JacobiCoeffs(np.ones(1), np.zeros(2)), 2) == pytest.approx(
        [-1.0, 1.0], abs=1e-12
    )
    got = G.truncation_eigenvalues(G.JacobiCoeffs(np.ones(2), np.zeros(3)), 3)
    assert got == pytest.approx([-math.sqrt(2), 0.0, math.sqrt(2)], abs=1e-12)
    assert G.truncation_eigenvalues(G.JacobiCoeffs(np.ones(1), np.array([5.0])), 1) == pytest.approx(
        [5.0], abs=1e-12
    )


def test_truncation_eigenvalues_vs_dense():
    rng = np.random.RandomState(7)
    J = G.JacobiCoeffs(rng.uniform(0.3, 1.5, 50), rng.uniform(-1, 1, 50))
    for N in (13, 50):
        dense = np.linalg.eigvalsh(dense_tridiagonal(J, N))
        assert np.max(np.abs(dense - G.truncation_eigenvalues(J, N))) <= 1e-11


def test_sturm_counts_match_dense(model_pm12, je_pm12):
    for N in (20, 50):
        dense = np.linalg.eigvalsh(dense_tridiagonal(je_pm12, N))
        for x in (-1.0, 1.0, 0.0, -2.0, 2.0):
            assert int(sturm_count(je_pm12, N, np.array([x]))[0]) == int(np.sum(dense < x))


def test_gap_eigenvalue_perturbed(model_m22, j_perturbed):
    eigs = G.gap_eigenvalues(j_perturbed, model_m22, 250)
    assert len(eigs) == 1
    value, loc = eigs[0]
    assert loc.kind == "right"
    assert value == pytest.approx(2.9, abs=1e-6)
    assert G.eigenvalue_green_sum([value], model_m22) == pytest.approx(math.log(2.5), abs=1e-6)


def test_gap_eigenvalues_free_empty(model_m22, j_free):
    assert G.gap_eigenvalues(j_free, model_m22, 200) == []


def test_gap_eigenvalue_single_site(model_m22):
    J = G.JacobiCoeffs(np.ones(1), np.array([3.0]))
    eigs = G.gap_eigenvalues(J, model_m22, 1)
    assert len(eigs) == 1 and eigs[0][0] == pytest.approx(3.0, abs=1e-12)


def test_truncation_size_beyond_length_is_validation_error(model_m22, j_free):
    # one range check serves the Sturm counts and every Gershgorin bound
    for call in (
        lambda N: G.gap_eigenvalues(j_free, model_m22, N),
        lambda N: G.truncation_eigenvalues(j_free, N),
        lambda N: G.interlacing_profile(j_free, model_m22, N),
    ):
        for N in (0, len(j_free) + 1):
            with pytest.raises(ValidationError, match="out of range"):
                call(N)
    # certifying at N reads the truncation at 2N
    with pytest.raises(ValidationError, match="need length"):
        G.stable_gap_eigenvalues(j_free, model_m22, len(j_free) // 2 + 1)


@pytest.mark.parametrize("call", [
    lambda J, model: G.fat_cantor(2.5),
    lambda J, model: G.sturm_count(J, 2.5, [0.0]),
    lambda J, model: G.gap_eigenvalues(J, model, 2.5),
    lambda J, model: G.stable_gap_eigenvalues(J, model, 2.5),
    lambda J, model: G.interlacing_profile(J, model, 2.5),
    lambda J, model: G.truncation_eigenvalues(J, 2.5),
    lambda J, model: G.strip(J, 1.5),
    lambda J, model: G.szego_product(J, 1.0, 2.5),
    lambda J, model: G.glued_eigenvalues(J, model, [2.5]),
    lambda J, model: G.fat_cantor(True),
    lambda J, model: G.solve_green(model.set, 40.7),
    lambda J, model: G.equilibrium_quadrature(model, 40.7),
    lambda J, model: G.make_measure(model, quad_order=40.7),
    lambda J, model: G.coefficients_from_measure(G.make_measure(model), 5, quad_order=99.9),
], ids=["fat_cantor", "sturm_count", "gap_eigenvalues", "stable_gap_eigenvalues",
        "interlacing_profile", "truncation_eigenvalues", "strip", "szego_product",
        "glued_head", "fat_cantor_bool", "solve_order", "band_rule_order", "measure_order",
        "lanczos_order"])
def test_non_integer_sizes_are_validation_errors(model_pm12, j_free, call):
    # one type check serves every size, level, count and order, where a float
    # was a raw TypeError or, for a glued head and the orders, silently truncated
    with pytest.raises(ValidationError, match="must be an integer"):
        call(j_free, model_pm12)


def test_numpy_integer_sizes_pass(model_pm12, j_free):
    three, ten = np.int64(3), np.int64(10)
    assert G.fat_cantor(three) == G.fat_cantor(3)
    assert G.sturm_count(j_free, ten, [0.1]).tolist() == G.sturm_count(j_free, 10, [0.1]).tolist()
    assert np.array_equal(G.strip(j_free, three).a, G.strip(j_free, 3).a)
    assert np.array_equal(G.szego_product(j_free, 1.0, ten), G.szego_product(j_free, 1.0, 10))
    assert G.glued_eigenvalues(j_free, model_pm12, [three]) == G.glued_eigenvalues(j_free, model_pm12, [3])


@pytest.mark.parametrize("call, match", [
    *[(lambda J, model, cap=cap: G.szego_product(J, cap, 5), "capacity must be positive")
      for cap in (0.0, -1.0, math.nan, math.inf, -math.inf)],
    (lambda J, model: G.homogeneity_margin(model.set, -3, [0.1]), "t_samples must be at least 0"),
    (lambda J, model: G.homogeneity_margin(model.set, 2.5, [0.1]), "t_samples must be an integer"),
    (lambda J, model: G.homogeneity_margin(model.set, math.nan, [0.1]), "t_samples must be an integer"),
    (lambda J, model: G.gap_derivative_l1(model, 0.0), "gap index must be an integer"),
], ids=["capacity_0", "capacity_-1", "capacity_nan", "capacity_inf", "capacity_-inf",
        "t_samples_-3", "t_samples_2.5", "t_samples_nan", "gap_index_float"])
def test_bad_sizes_and_values_are_validation_errors(model_pm12, j_free, call, match):
    # a capacity of 0, -1 or -inf was a raw ValueError from math.log, NaN
    # returned NaNs and inf zeros; a float t_samples or gap index was a raw
    # TypeError, and a negative t_samples read as none
    with pytest.raises(ValidationError, match=match):
        call(j_free, model_pm12)


def test_nan_points_are_validation_errors(j_free):
    # a NaN point was nan+nanj with a RuntimeWarning, or a count of 0
    with pytest.raises(ValidationError, match="NaN"):
        G.m_function(j_free, math.nan)
    with pytest.raises(ValidationError, match="NaN"):
        G.m_function(j_free, complex(0.0, math.nan))
    with pytest.raises(ValidationError, match="NaN"):
        G.sturm_count(j_free, 10, [0.1, math.nan])
    # the infinities keep their limits: m -> 0, counts 0 and N
    assert G.m_function(j_free, math.inf) == 0 and G.m_function(j_free, -math.inf) == 0
    assert G.sturm_count(j_free, 10, [-math.inf, 0.1, math.inf]).tolist() == [0, 5, 10]


def test_eigenvalue_green_sum_validation(model_m22):
    assert G.eigenvalue_green_sum([], model_m22) == 0.0
    assert G.eigenvalue_green_sum([2.9, -2.9], model_m22) == pytest.approx(
        2 * math.log(2.5), abs=1e-6
    )
    with pytest.raises(ValidationError):
        G.eigenvalue_green_sum([0.5], model_m22)


def test_eigenvalue_green_sum_is_one_left_to_right_call(model_fat3, monkeypatch):
    pts = [1.7, 0.5, -0.3, 0.2, 0.5, 0.45, 0.8, -2.0, 0.08]
    total = 0.0
    for x in pts:
        total += G.green_value(model_fat3, x)
    calls = []
    green_value = jacobi.green_value
    monkeypatch.setattr(jacobi, "green_value", lambda *a: calls.append(1) or green_value(*a))
    assert G.eigenvalue_green_sum(pts, model_fat3) == total
    assert len(calls) == 1
    for inside in (0.1, 0.375, 1.0):
        with pytest.raises(ValidationError, match=f"^{inside} lies inside"):
            G.eigenvalue_green_sum(pts[:3] + [inside] + pts[3:], model_fat3)


def test_gap_count_lemma_two_interval(model_pm12, je_pm12):
    """Corner and strip sections inherit the one-per-gap bound whenever the
    double-size section is clean, and the counts match a dense eigensolver."""
    for N in (25, 50, 100):
        full = G.gap_eigenvalues(je_pm12, model_pm12, 2 * N)
        if any(loc.kind == "gap" for _, loc in full):
            continue
        corner = [v for v, loc in G.gap_eigenvalues(je_pm12, model_pm12, N) if loc.kind == "gap"]
        stripped = G.strip(je_pm12, N)
        tail = [v for v, loc in G.gap_eigenvalues(stripped, model_pm12, N) if loc.kind == "gap"]
        assert len(corner) <= 1
        assert len(tail) <= 1
    # dense oracle at size 50
    dense = np.linalg.eigvalsh(dense_tridiagonal(je_pm12, 50))
    in_gap = dense[(dense > -1) & (dense < 1)]
    ours = [v for v, loc in G.gap_eigenvalues(je_pm12, model_pm12, 50) if loc.kind == "gap"]
    assert len(in_gap) == len(ours)
    if len(ours):
        assert np.max(np.abs(np.sort(in_gap) - np.sort(ours))) <= 1e-10


def test_stable_filtering_drops_wall_states(model_pm12, je_pm12):
    stripped = G.strip(je_pm12, 25)
    raw = [v for v, loc in G.gap_eigenvalues(stripped, model_pm12, 180) if loc.kind == "gap"]
    certified = G.stable_gap_eigenvalues(stripped, model_pm12, 180)
    assert len(raw) == 2  # genuine left state plus truncation-wall state
    assert len(certified) == 1


def test_stable_gap_eigenvalues_affine_covariant(model_pm12, je_pm12):
    # b -> s b + t, a -> s a with E mapped alike: the certified count and
    # locations stay, and the values map.  On the 25-times stripped fixture,
    # sizes 27 and 34 reject a state that moves ~1e-8 between sizes (a
    # window growing with |x| would keep it); 41 and 48 keep one that an
    # absolute window drops at |x| ~ 1e9; 180 drops the truncation-wall state.
    s, t = 1e6, 1e9
    mapped = G.solve_green(G.make_gapset(-2 * s + t, 2 * s + t, [(-s + t, s + t)]),
                           quad_order=240)
    for k, N in [(0, 41), (25, 27), (25, 34), (25, 41), (25, 48), (25, 180)]:
        J = G.strip(je_pm12, k)
        ref = G.stable_gap_eigenvalues(J, model_pm12, N)
        got = G.stable_gap_eigenvalues(G.JacobiCoeffs(s * J.a, s * J.b + t), mapped, N)
        assert [loc for _, loc in got] == [loc for _, loc in ref], (k, N)
        for (x, _), (y, _) in zip(ref, got):
            assert abs((y - t) / s - x) <= TOLERANCES["eigenvalue_abs"] * abs(y) / s


def test_free_truncation_eigenvalues_closed_form(j_free):
    # LAPACK-free oracle at the CLI's largest certification size
    N = 400
    exact = np.sort(2 * np.cos(np.arange(1, N + 1) * math.pi / (N + 1)))
    got = G.truncation_eigenvalues(j_free, N)
    assert np.all(np.abs(got - exact) <= STOP * np.maximum(1.0, np.abs(exact)))


def _perturb_seeds(monkeypatch, shift):
    """Move the k-th dense seed jacobi reads by 1e-6 * shift(k)."""
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def fake(T):
        w = eigvalsh(T)
        calls.append(len(w))
        return w + 1e-6 * shift(np.arange(len(w)))

    monkeypatch.setattr(jacobi.np.linalg, "eigvalsh", fake)
    return calls


# every other seed up (a mixed batch), then every seed down (all rejected):
# each side of the certifying bracket must catch a bad seed
@pytest.mark.parametrize("shift", [lambda k: k % 2, lambda k: -np.ones(len(k))],
                         ids=["mixed", "all_rejected"])
def test_rejected_seeds_fall_back_to_bisection(monkeypatch, model_m22, je_pm12, shift):
    b = np.zeros(460)
    b[0], b[5] = 2.5, -2.5  # one eigenvalue below the set (index 0), one above (index N-1)
    J = G.JacobiCoeffs(np.ones(460), b)
    N = 250
    want_gap = G.gap_eigenvalues(J, model_m22, N)
    assert [int(sturm_count(J, N, v)[0]) for v, _ in want_gap] == [0, N - 1]
    want_all = G.truncation_eigenvalues(je_pm12, 60)
    calls = _perturb_seeds(monkeypatch, shift)
    got_gap = G.gap_eigenvalues(J, model_m22, N)
    got_all = G.truncation_eigenvalues(je_pm12, 60)
    assert calls == [N, 60]
    assert [loc for _, loc in got_gap] == [loc for _, loc in want_gap]
    for want, got in [([v for v, _ in want_gap], [v for v, _ in got_gap]), (want_all, got_all)]:
        want, got = np.asarray(want), np.asarray(got)
        assert np.all(np.abs(got - want) <= STOP * np.maximum(1.0, np.abs(want)))


def one_level_bisect(count, idx, lo, hi):
    """Reference bisection: one count call per step."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.all(hi - lo <= STOP * np.maximum(1.0, np.abs(mid))):
            break
        above = count(mid) > idx
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("batch, depth", [(1, 9), (15, 5), (300, 1)])
@pytest.mark.parametrize("capped", [False, True], ids=["converges", "capped"])
def test_multisection_matches_one_level_bisection(batch, depth, capped):
    # brackets 1e-15 to 10 wide around (and off) the dense eigenvalues; a
    # +-1e308 bracket reaches the 200-step cap, its width overflowing to inf
    rng = np.random.default_rng(batch)
    N = 40
    J = G.JacobiCoeffs(rng.uniform(0.2, 1.5, N - 1), rng.normal(size=N))
    idx = rng.integers(0, N, batch)
    centre = np.linalg.eigvalsh(dense_tridiagonal(J, N))[idx] + rng.normal(0.0, 1e-3, batch)
    width = 10.0 ** rng.uniform(-15, 1, batch)
    lo, hi = centre - width * rng.uniform(0, 1, batch), centre + width * rng.uniform(0, 1, batch)
    if capped:
        lo[0], hi[0] = -1e308, 1e308
    calls = {"reference": [], "multisection": []}

    def counter(name):
        def count(x):
            calls[name].append(np.shape(x))
            return sturm_count(J, N, x)
        return count

    with np.errstate(over="ignore"):
        want = one_level_bisect(counter("reference"), idx, lo, hi)
        got = jacobi._bisect(counter("multisection"), idx, lo, hi)
    assert np.all(got == want)
    steps = len(calls["reference"])
    assert steps == 200 if capped else 0 < steps < 200
    # each sweep takes a full heap; only the last may be cut short by the stop rule
    assert calls["multisection"] == [(2 ** depth - 1, batch)] * -(-steps // depth)

    # a count that also returns the last pivot F follows it only where the
    # ends' counts isolate a root, which few of these brackets hold: the same
    # midpoints, in sweeps of the same size and no more of them
    guided = []

    def valued(x):
        guided.append(np.shape(x))
        return jacobi._negative_pivots(J, x, N - 1, values=True)

    with np.errstate(over="ignore"):
        assert np.all(jacobi._bisect(valued, idx, lo, hi) == want)
    assert set(guided) == {(2 ** depth - 1, batch)}
    assert len(guided) <= len(calls["multisection"])


@pytest.mark.parametrize("batch, depth, sweeps, guided_sweeps", [(1, 9, 5, 3), (15, 5, 9, 6), (40, 3, 15, 10)])
def test_guided_bisection_takes_fewer_sweeps(batch, depth, sweeps, guided_sweeps):
    # brackets that each hold one eigenvalue of the free 40 x 40 truncation,
    # 2 cos(k pi/41), cut at the midpoints between them: following F's
    # regula-falsi root converges in fewer sweeps to the same midpoints
    N = 40
    J = G.JacobiCoeffs(np.ones(N - 1), np.zeros(N))
    eig = 2 * np.cos(np.arange(N, 0, -1) * math.pi / (N + 1))
    cuts = np.r_[-3.0, (eig[:-1] + eig[1:]) / 2, 3.0]
    idx = np.random.default_rng(batch).integers(0, N, batch)
    calls = {"heap": [], "guided": []}

    def counter(name):
        def count(x):
            calls[name].append(np.shape(x))
            return jacobi._negative_pivots(J, x, N - 1, values=name == "guided")
        return count

    want = one_level_bisect(lambda x: sturm_count(J, N, x), idx, cuts[idx], cuts[idx + 1])
    for name in calls:
        assert np.all(jacobi._bisect(counter(name), idx, cuts[idx], cuts[idx + 1]) == want)
    assert set(calls["heap"] + calls["guided"]) == {(2 ** depth - 1, batch)}
    assert (len(calls["heap"]), len(calls["guided"])) == (sweeps, guided_sweeps)


def _reference_pivots(J, x, last, shift=0.0):
    """The row-by-row sweep with the clamp on every row: counts and F."""
    rows = set(np.ravel(last).tolist())
    top = max(rows)
    b, a2 = J.b[: top + 1], np.r_[J.a[: top + 1], 0.0][: top + 1] ** 2
    tiny = 1e-290 * max(1.0, float(np.max(np.abs(b)) + np.max(a2)))
    neg, out, f, d = np.zeros(x.shape, int), 0, 0.0, b[0] - x
    for i in range(top + 1):
        d = np.where(np.abs(d) < tiny, -tiny, d)
        if i in rows:
            out = np.where(last == i, neg + (d - a2[i] * shift < 0), out)
            f = np.where(last == i, d - a2[i] * shift, f)
        if i < top:
            neg += d < 0
            d = b[i + 1] - x - a2[i] / d
    return out, f


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("points", [0, 1, 6, 31, 465])
def test_pivot_sweep_matches_row_by_row(points, monkeypatch):
    # counts and F bit for bit, from one block and from blocks of 7 entries
    rng = np.random.default_rng(points)
    J = G.JacobiCoeffs(rng.uniform(0.2, 1.5, 119), rng.normal(size=120))
    x = rng.uniform(-3.5, 3.5, points)
    cases = [(x, 119, 0.0), (x, 0, 0.0), (x, rng.integers(0, 120, max(points, 1)), rng.normal(size=max(points, 1))),
             (x.reshape(-1, 1) if points else x, 60, 0.0)]
    for table in (jacobi._TABLE, 7):
        monkeypatch.setattr(jacobi, "_TABLE", table)
        for xs, last, shift in cases:
            got = jacobi._negative_pivots(J, xs, last, shift, values=True)
            want = _reference_pivots(J, xs, last, shift)
            assert all(map(_same_bits, got, want))
            assert _same_bits(jacobi._negative_pivots(J, xs, last, shift), want[0])


def test_pivot_sweep_clamps_as_row_by_row(monkeypatch):
    # exact zero pivots (b = 0, a = 1 at x = 0, +-1, +-sqrt 2), a pivot below
    # tiny (b_1 = 1e-300 at x = 0) and the glued ends' infinite shifts
    free = G.JacobiCoeffs(np.ones(12), np.zeros(12))
    x = np.array([0.0, 1.0, -1.0, math.sqrt(2), -math.sqrt(2), 0.5])
    below = G.JacobiCoeffs(np.ones(11), np.r_[1e-300, np.zeros(11)])
    ends = np.array([-3.0, -2.0, 2.0, 3.0])
    for table in (jacobi._TABLE, 5):
        monkeypatch.setattr(jacobi, "_TABLE", table)
        for J, xs, last, shift in [(free, x, np.arange(6), 0.0), (free, x, 11, 0.0), (below, x, 11, 0.0),
                                   (free, ends, np.array([4, 4, 9, 9]), np.array([np.inf, -np.inf] * 2))]:
            want = _reference_pivots(J, xs, last, shift)
            assert all(map(_same_bits, jacobi._negative_pivots(J, xs, last, shift, values=True), want))
    assert -1e-280 < jacobi._negative_pivots(free, x, 0, values=True)[1][0] < 0  # 0 clamped to -tiny


def test_certified_seeds_make_no_sweep(monkeypatch, model_m22):
    # one count at the component ends, one at the seed brackets: a batch of
    # certified seeds needs no multisection sweep
    b = np.zeros(460)
    b[0], b[5] = 2.5, -2.5  # one eigenvalue each side of [-2, 2]
    J = G.JacobiCoeffs(np.ones(460), b)
    calls = []
    real = jacobi.sturm_count

    def spy(J, N, x):
        calls.append(np.shape(x))
        return real(J, N, x)

    monkeypatch.setattr(jacobi, "sturm_count", spy)
    assert [loc.kind for _, loc in G.gap_eigenvalues(J, model_m22, 250)] == ["left", "right"]
    assert calls == [(4,), (4,)]


# ---------------------------------------------------------------------------
# m-functions


def test_m_function_free_closed_form(j_free):
    assert G.m_function(j_free, 3.0) == pytest.approx((-3 + math.sqrt(5)) / 2, abs=1e-10)
    got = G.m_function(j_free, 1j)
    assert got == pytest.approx(1j * (math.sqrt(5) - 1) / 2, abs=1e-10)


def corner(J, n):
    """The n x n upper-left corner of J."""
    return G.JacobiCoeffs(J.a[:n], J.b[:n])


def test_m_function_herglotz_and_conjugate(j_perturbed):
    J = corner(j_perturbed, 300)
    for x in (0.4 + 0.7j, -1.2 + 0.05j, 3 + 1j):
        m = G.m_function(J, x)
        assert m.imag > 0
        assert G.m_function(J, x.conjugate()) == pytest.approx(m.conjugate())


def test_m_function_resolvent_quadrature(j_perturbed):
    # spectral-decomposition oracle for the N x N corner
    N = 120
    T = dense_tridiagonal(j_perturbed, N)
    w, V = np.linalg.eigh(T)
    for x in (0.3 + 0.1j, -1.5 + 0.25j, 2.2 + 0.1j):
        oracle = complex(np.sum(V[0, :] ** 2 / (w - x)))
        assert abs(G.m_function(corner(j_perturbed, N), x) - oracle) <= 1e-10


def test_m_function_tail_expansion(j_free):
    for x in (40.0, -55.0, 30j):
        assert abs(x * G.m_function(j_free, x) + 1) <= 2.0 / abs(x)


def test_m_function_stripping_identity(j_perturbed):
    x = 0.7 + 0.9j
    J = corner(j_perturbed, 300)
    m0 = G.m_function(J, x)
    m1_direct = G.m_function(G.strip(J, 1), x)
    m1_mobius = (J.b[0] - x - 1 / m0) / J.a[0] ** 2
    assert abs(m1_direct - m1_mobius) <= 1e-10


def test_m_function_random_battery():
    # seeded sweep: Herglotz property and the stripping identity hold for
    # arbitrary coefficient data, not just the structured examples
    rng = np.random.RandomState(42)
    for _ in range(5):
        J = G.JacobiCoeffs(rng.uniform(0.2, 2.0, 80), rng.uniform(-1.5, 1.5, 80))
        for x in (rng.uniform(-3, 3) + 1j * rng.uniform(0.05, 1.0),):
            m0 = G.m_function(J, x)
            assert m0.imag > 0
            m1 = G.m_function(G.strip(J, 1), x)
            mobius = (J.b[0] - x - 1 / m0) / J.a[0] ** 2
            assert abs(m1 - mobius) <= 1e-10


def test_m_function_validation(j_free):
    with pytest.raises(ValidationError):
        G.m_function(j_free, 1.5)  # real point inside the spectral bound
    with pytest.raises(ValidationError, match="out of range"):
        G.m_function(G.JacobiCoeffs([], []), 1j)  # no rows, no continued fraction


# ---------------------------------------------------------------------------
# boundary values and stripping


def test_stripped_boundary_density_chebyshev(mu_arcsine, j_chebyshev):
    # one strip of the arcsine measure is the semicircle, and so is every
    # further one: log(f_n/f) = log((4 - t^2)/2) at the nodes for n >= 1
    t = mu_arcsine.quad.nodes[0]
    for n in (1, 2):
        (logs,) = _stripped_densities(mu_arcsine, j_chebyshev, n)
        assert np.max(np.abs(logs - np.log((4 - t * t) / 2))) <= 1e-12


def test_stripped_boundary_density_mass_identity(mu_semicircle, j_free):
    # the free matrix (a = 1, b = 0) is its own strip, so a_1^2 |m|^2 = f/f_1 = 1;
    # the semicircle's boundary values near the edges leave ~3e-12 per step
    for n in (1, 3):
        (logs,) = _stripped_densities(mu_semicircle, j_free, n)
        assert np.max(np.abs(logs)) <= 1e-11 * n


def test_stripped_boundary_density_requires_ac_point(model_m22, j_free):
    # where the density is 0, a strip leaves m real: no boundary density
    mu = G.make_measure(model_m22, G.WeightSpec("indicator", {"support": [[0.0, 2.0]]}))
    with pytest.raises(NumericalError, match="non-Herglotz"):
        _stripped_densities(mu, j_free, 1)


def test_measure_m_boundary_semicircle(mu_semicircle):
    for t in (0.0, 1.0, -1.3):
        got = G.measure_m_boundary(mu_semicircle, t)
        want = complex(-t / 2, math.sqrt(4 - t * t) / 2)
        assert abs(got - want) <= 1e-10


def test_measure_m_boundary_lebesgue_absolute(model_m22):
    mu = G.make_measure(model_m22, G.WeightSpec("const", {"value": 1.0}), mode="absolute")
    for t in (0.5, -1.2):
        got = G.measure_m_boundary(mu, t)
        want = complex(0.25 * math.log((2 - t) / (2 + t)), math.pi / 4)
        assert abs(got - want) <= 1e-10


@pytest.mark.parametrize("order", [200, 1000])
def test_measure_m_boundary_linear_absolute(model_m22, order):
    # w = 3 + t on [-2, 2] has mass 12 and Re m = (4 + (t + 3) log((2 - t)/(2 + t)))/12,
    # here at the measure's own nodes and between them
    w = G.WeightSpec("poly", {"coef": [3.0, 1.0]})
    mu = G.make_measure(model_m22, w, mode="absolute", quad_order=order)
    for t in (mu.quad.nodes[0], np.linspace(-1.999, 1.999, 401)):
        want = (4 + (t + 3) * np.log((2 - t) / (2 + t))) / 12 + 1j * np.pi * (t + 3) / 12
        assert np.max(np.abs(G.measure_m_boundary(mu, t) - want)) <= 2e-15


@pytest.mark.parametrize("order", [600, 1000])
def test_measure_m_boundary_past_degree_400(model_m22, order):
    # w = 2 + T_450(t/2) against mu_E on [-2, 2]: the arcsine weight's Hilbert
    # transform takes T_m to U_(m-1), so Re m = U_449(t/2)/4, every degree of
    # the own-band fit counting
    mu = G.make_measure(model_m22, lambda t: 2.0 + np.cos(450 * np.arccos(t / 2)), quad_order=order)
    t = np.linspace(-1.9, 1.9, 39)
    phi = np.arccos(t / 2)
    want = np.sin(450 * phi) / np.sin(phi) / 4
    assert np.max(np.abs(G.measure_m_boundary(mu, t).real - want)) <= 1e-12


def test_measure_m_boundary_point_mass(model_m22):
    mu0 = G.make_measure(model_m22, None)
    mu1 = G.make_measure(model_m22, None, point_masses=[(3.0, 0.25)])
    t = 0.75
    got = G.measure_m_boundary(mu1, t)
    base = G.measure_m_boundary(mu0, t)
    assert got.real == pytest.approx(0.75 * base.real + 0.25 / (3.0 - t), abs=1e-10)
    assert got.imag == pytest.approx(0.75 * base.imag, abs=1e-12)


def test_measure_m_boundary_array_matches_scalar(model_fat3, model_pm12):
    measures = [
        G.make_measure(
            model_fat3, G.WeightSpec("poly", {"coef": [1.0, 0.5]}), point_masses=[(0.3, 0.1)]
        ),
        G.make_measure(model_pm12, G.WeightSpec("const", {"value": 1.0}), mode="absolute"),
    ]
    for mu in measures:
        for t in mu.quad.nodes:
            got = G.measure_m_boundary(mu, t)
            assert got.shape == t.shape and got.dtype == complex
            want = np.array([G.measure_m_boundary(mu, float(x)) for x in t])
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))



@pytest.mark.parametrize("factor", [1, 2])
@pytest.mark.parametrize("name", ["model_pm12", "model_fat3"])
def test_reflectionless_at_stripping_nodes(name, factor, request):
    # m_E(t + i0) is purely imaginary on E; the sum rule strips it at the
    # nodes of mu.quad, at the order the fixture was solved at and twice it
    model = request.getfixturevalue(name)
    mu = G.make_measure(model, quad_order=factor * {"model_pm12": 240, "model_fat3": 200}[name])
    for t in mu.quad.nodes:
        m = G.measure_m_boundary(mu, t)
        assert np.max(np.abs(m.real) / m.imag) <= 3e-13

def test_measure_m_boundary_array_domain_errors(model_pm12):
    # a gap point, two bands, a band edge, points off the set; in both modes
    lebesgue = G.WeightSpec("const", {"value": 1.0})
    for mu in (G.make_measure(model_pm12), G.make_measure(model_pm12, lebesgue, "absolute")):
        for t in ([1.5, 0.0], [1.2, -1.5], [1.5, 2.0], 1.0, 2.0, 0.0, 3.0):
            with pytest.raises(ValidationError):
                G.measure_m_boundary(mu, np.array(t))


# ---------------------------------------------------------------------------
# interlacing profile


def test_interlacing_profile_free(model_m22, j_free):
    prof = G.interlacing_profile(j_free, model_m22, 150)
    assert len(prof.poles) == 0
    assert prof.psi(np.array([0.3]))[0] == 1.0


def test_interlacing_profile_perturbed(model_m22, j_perturbed):
    prof = G.interlacing_profile(j_perturbed, model_m22, 300)
    assert len(prof.poles) == 1
    assert prof.poles[0] == pytest.approx(2.9, abs=1e-6)
    assert prof.zeros[0] > prof.poles[0]
    xs = np.linspace(-1.9, 1.9, 9)
    assert np.all(prof.psi(xs) > 0)


def test_interlacing_profile_alternation(model_pm12):
    # two poles: one in the gap (from b-defect), one above the set
    b = np.zeros(300)
    b[0] = 1.8
    b[1] = -0.3
    J = G.JacobiCoeffs(np.concatenate([[0.7], np.ones(299)]), b)
    prof = G.interlacing_profile(J, model_pm12, 260)
    assert len(prof.poles) >= 1
    for xk, yk in zip(prof.poles, prof.zeros):
        assert yk > xk
    order = np.argsort(prof.poles)
    inter = np.ravel(np.column_stack([prof.poles[order], prof.zeros[order]]))
    assert np.all(np.diff(inter) >= -1e-12)
    assert np.all(prof.psi(np.array([1.5, -1.5])) > 0)  # positive on band interiors


def test_interlacing_zeros_confined_to_components(model_pm12, je_pm12):
    # every paired zero stays within the closure of its pole's component,
    # even when the next truncation pole lies inside a band
    rng = np.random.RandomState(5)
    for _ in range(6):
        b = np.zeros(300)
        b[0] = rng.uniform(-2.2, 2.2)
        b[1] = rng.uniform(-1.0, 1.0)
        a = np.ones(300)
        a[0] = rng.uniform(0.5, 1.6)
        J = G.JacobiCoeffs(a, b)
        prof = G.interlacing_profile(J, model_pm12, 240)
        for y, loc in zip(prof.zeros, prof.locations):
            if loc.kind == "gap":
                lo, hi = model_pm12.set.gaps[loc.index]
                assert lo < y <= hi
            elif loc.kind == "left":
                assert y <= model_pm12.set.alpha
            else:
                assert y > model_pm12.set.beta


def test_interlacing_zeros_are_zeros(model_m22, model_pm12, j_perturbed):
    # dense oracle m_N(x) = sum_k v_1k^2 / (lambda_k - x): every zero inside
    # its component is a sign change of m_N + eps, and the top zero, escaped
    # towards 1/eps, is the top eigenvalue of the truncation with b_1 + 1/eps
    b = np.zeros(300)
    b[:2] = 1.8, -0.3
    cases = [
        (j_perturbed, model_m22, 300),
        (G.JacobiCoeffs(np.concatenate([[0.7], np.ones(299)]), b), model_pm12, 260),
    ]
    rng = np.random.RandomState(5)
    for _ in range(6):
        b = np.zeros(300)
        b[:2] = rng.uniform(-2.2, 2.2), rng.uniform(-1.0, 1.0)
        a = np.ones(300)
        a[0] = rng.uniform(0.5, 1.6)
        cases.append((G.JacobiCoeffs(a, b), model_pm12, 240))
    inside = tops = 0
    for J, model, N in cases:
        prof = G.interlacing_profile(J, model, N)
        eps = prof.epsilon
        T = dense_tridiagonal(J, N)
        lam, vec = np.linalg.eigh(T)
        f = lambda x: float(np.sum(vec[0] ** 2 / (lam - x))) + eps
        for i, (y, loc) in enumerate(zip(prof.zeros, prof.locations)):
            if loc.kind == "right" and i == len(prof.zeros) - 1:
                T[0, 0] += 1.0 / eps
                top = np.linalg.eigvalsh(T)[-1]
                assert abs(y - top) <= 1e-12 * abs(top)
                tops += 1
            elif y < (model.set.gaps[loc.index][1] if loc.kind == "gap" else model.set.alpha):
                d = 1e-9 * max(1.0, abs(y))
                assert f(y - d) < 0 < f(y + d), (y, loc)
                inside += 1
    assert inside > 100 and tops >= 2


def _assert_sturm_certified(J, N, values, indices):
    """count(x_k - d) <= k < count(x_k + d) with d the bisection stop at x_k."""
    x = np.asarray(values, dtype=float)
    k = np.asarray(indices)
    d = STOP * np.maximum(1.0, np.abs(x))
    assert np.all(sturm_count(J, N, x - d) <= k) and np.all(k < sturm_count(J, N, x + d))


def _component_indices(J, model, N, locations):
    """Global index of each off-set eigenvalue from its component's lower count."""
    s = model.set
    lower = {"left": -np.inf, "right": s.beta}
    seen = {}
    out = []
    for loc in locations:
        lo = s.gaps[loc.index][0] if loc.kind == "gap" else lower[loc.kind]
        out.append(int(sturm_count(J, N, lo)[0]) + seen.get(loc, 0))
        seen[loc] = seen.get(loc, 0) + 1
    return out


def test_returned_eigenvalues_are_sturm_certified(model_m22, model_pm12, je_pm12, j_perturbed):
    for N in (13, 50, 200):
        _assert_sturm_certified(je_pm12, N, G.truncation_eigenvalues(je_pm12, N), np.arange(N))
    stripped = G.strip(je_pm12, 25)
    found = 0
    for J, N in [(je_pm12, 51), (je_pm12, 230), (stripped, 180), (stripped, 360)]:
        eigs = G.gap_eigenvalues(J, model_pm12, N)
        locs = [loc for _, loc in eigs]
        _assert_sturm_certified(J, N, [v for v, _ in eigs], _component_indices(J, model_pm12, N, locs))
        found += len(eigs)
    assert found >= 4
    # the interlacing battery: poles, and unclipped zeros on the shifted matrix
    b = np.zeros(300)
    b[:2] = 1.8, -0.3
    cases = [
        (j_perturbed, model_m22, 300),
        (G.JacobiCoeffs(np.concatenate([[0.7], np.ones(299)]), b), model_pm12, 260),
    ]
    rng = np.random.RandomState(5)
    for _ in range(6):
        b = np.zeros(300)
        b[:2] = rng.uniform(-2.2, 2.2), rng.uniform(-1.0, 1.0)
        a = np.ones(300)
        a[0] = rng.uniform(0.5, 1.6)
        cases.append((G.JacobiCoeffs(a, b), model_pm12, 240))
    zeros = 0
    for J, model, N in cases:
        prof = G.interlacing_profile(J, model, N)
        idx = _component_indices(J, model, N, prof.locations)
        _assert_sturm_certified(J, N, prof.poles, idx)
        ends = [model.set.gaps[loc.index][1] if loc.kind == "gap" else
                model.set.alpha if loc.kind == "left" else np.inf for loc in prof.locations]
        free = [i for i, (y, e) in enumerate(zip(prof.zeros, ends)) if y < e]
        shifted = replace(J, b=np.concatenate([[J.b[0] + 1.0 / prof.epsilon], J.b[1:]]))
        _assert_sturm_certified(shifted, N, prof.zeros[free], np.asarray(idx)[free])
        zeros += len(free)
    assert zeros > 100


def test_measure_json(model_m22):
    mu = G.make_measure(model_m22, G.WeightSpec("poly", {"coef": [1.0, 0.5]}),
                        point_masses=[(2.5, 0.125)])
    obj = G.measure_to_json(mu)
    assert '"form": "poly"' in obj
    assert '"masses": [[2.5, 0.125]]' in obj
