"""Weyl measures, quadrature, sampling and functional equations."""

import cmath
import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from rmt_autocorr import (
    DimensionCap,
    PrecisionConfig,
    PrecisionLoss,
    RouteError,
    UnitaryQuery,
    autocorr_det,
    GroupSpec,
    char_poly_eval,
    functional_equation_residual,
    group,
    monte_carlo_average,
    ominus_autocorr_eps,
    quadrature_average,
    so_autocorr_eps,
    sp_autocorr_eps,
    weyl_autocorrelation,
    weyl_density,
    znorm_residual,
)
from rmt_autocorr.haar import (
    HEINE_CAP,
    _JACOBI_A,
    _SAMPLE_CHUNK,
    _SOLVE_CHUNK,
    _autocorr_chunk,
    _circle_points,
    _coefficients,
    _jacobi_angles,
    _sampled,
    autocorr_integrand,
    eigenangles_of,
    sample_eigenangle_batch,
    sample_matrix_batch,
)
from rmt_autocorr.routes import canonical_value

from haar_reference import _haar_orthogonal_batch, _szego, haar_matrix_batch
from test_routes import _random_unitary_query

ALL_FAMILIES = ["u", "usp", "so", "ominus"]


def test_group_spec_validation():
    assert group("u", 3).matrix_dim == 3
    assert group("usp", 3).matrix_dim == 6
    assert group("ominus", 3).free_angles == 2
    with pytest.raises(ValueError):
        GroupSpec("nope", 2)
    with pytest.raises(ValueError):
        GroupSpec("u", 0)


@pytest.mark.parametrize("name,family", [
    ("u", "unitary"), ("unitary", "unitary"), ("usp", "symplectic"),
    ("symplectic", "symplectic"), ("so", "so"), ("ominus", "ominus"),
    ("un", None), ("sp", None), ("so_even", None), ("specialorthogonaleven", None),
    ("o-", None), ("orthogonalminus", None),
])
def test_group_spec_spellings(name, family):
    # the CLI help's four names and the family names; no other spelling
    if family is None:
        with pytest.raises(ValueError, match="unknown group family"):
            GroupSpec(name, 1)
    else:
        assert GroupSpec(name.upper(), 1).family == family


# ---------------------------------------------------------------------------
# Densities and quadrature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fam", ALL_FAMILIES)
@pytest.mark.parametrize("N", [1, 2, 3])
def test_density_normalization(fam, N):
    spec = group(fam, N)
    one = quadrature_average(spec, lambda T: np.ones(T.shape[0]), nodes_per_dim=64)
    assert abs(one - 1.0) < 1e-10


def test_quadrature_dimension_cap():
    with pytest.raises(DimensionCap):
        quadrature_average(group("u", 4), lambda T: np.ones(T.shape[0]))


@pytest.mark.parametrize("fam,N", [("u", 3), ("usp", 3), ("so", 3), ("ominus", 4)])
def test_three_angle_quadrature_forms_no_full_grid(fam, N):
    # three free angles: a moment is one 3 x 3 determinant, never an M^3
    # grid of angles and values
    spec = group(fam, N)
    shifts, m = (0.9, 0.7 + 0.3j, -0.5 + 0.6j, 1.2 - 0.4j), 2 if fam == "u" else 0
    weyl_autocorrelation(spec, shifts, m)   # lazy imports are not the working set
    tracemalloc.start()
    try:
        weyl_autocorrelation(spec, shifts, m)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


@pytest.mark.parametrize("N", [1, 2, 3])
def test_so_density_is_finite_at_zero_and_pi(N):
    # theta = 0 and pi (eigenvalues +-1) are where a form of the SO(2N)
    # density with the factor 1 / (e^{-i theta} - e^{i theta}) divides 0 by 0
    spec = group("so", N)
    T = np.array([[0.0] * N, [np.pi] * N, [0.0, np.pi, 0.4][:N], [np.pi, 0.0, 2.9][:N]])
    dens = weyl_density(spec, T)
    assert np.all(np.isfinite(dens)) and np.all(dens >= 0)
    if N == 1:  # the rotation angle of SO(2) is uniform
        assert dens == pytest.approx(np.full(4, 1 / (2 * np.pi)), rel=1e-15)


def test_so_quadrature_with_nodes_at_zero_and_pi_matches_eps():
    # 24 nodes put theta = 0 and pi on the tensor grid of an untagged wrapper
    spec = group("so", 2)
    shifts = [0.8 + 0.1j, -0.5 + 0.4j]
    integrand = autocorr_integrand(spec, shifts)
    exact = complex(so_autocorr_eps(2, shifts))
    assert weyl_autocorrelation(spec, shifts) == pytest.approx(exact, rel=1e-12)
    grid = quadrature_average(spec, lambda T: integrand(T), nodes_per_dim=24)
    assert grid == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("fam,N,shifts,m", [
    ("u", 3, (0.5, 0.7 + 0.1j, -0.4j), 0),
    ("u", 2, (0.9, 0.6 + 0.3j), 1),
    ("usp", 2, (0.5, 0.3), 0),
    ("so", 2, (0.8 + 0.1j, -0.5 + 0.4j, 1.3), 0),
    ("ominus", 3, (0.6 - 0.2j, 0.4), 0),
])
def test_quadrature_refuses_node_counts_that_alias(fam, N, shifts, m):
    # per angle the density times the integrand has frequencies up to 2N + k;
    # `weyl_autocorrelation` takes 2N + k + 1 nodes, the fewest that do not alias
    spec = group(fam, N)
    exact = complex(canonical_value(spec.family, N, shifts, m))
    assert weyl_autocorrelation(spec, shifts, m) == pytest.approx(exact, rel=1e-12)


def test_quadrature_refuses_non_integer_node_counts():
    # 6.9 clears USp(4)'s alias bound 2N + k = 6, but int(6.9) = 6 nodes alias
    # (1.4413 against 1.6681); an integer-valued numpy count is fine
    spec, shifts = group("usp", 2), (0.5, 0.3)
    integrand = autocorr_integrand(spec, shifts)
    with pytest.raises(ValueError, match="integer"):
        quadrature_average(spec, integrand, nodes_per_dim=6.9)
    with pytest.raises(ValueError, match="integer"):
        quadrature_average(spec, lambda T: np.ones(len(T)), nodes_per_dim=16.0)
    value = quadrature_average(spec, integrand, nodes_per_dim=np.int64(7))
    assert value == pytest.approx(complex(sp_autocorr_eps(2, shifts)), rel=1e-12)


def test_symplectic_quadrature_hand_integral():
    # integral of (5 - 4 cos t)(2/pi) sin^2 t over (0, pi) equals 5
    spec = group("usp", 1)
    val = weyl_autocorrelation(spec, [2.0])
    assert val == pytest.approx(5.0, abs=1e-10)


def test_unitary_quadrature_matches_schur_fixture():
    # the |w| < 1 second-moment example, U(1)
    spec = group("u", 1)
    w = 0.35 - 0.2j
    val = weyl_autocorrelation(spec, [w, w], m=1)
    from rmt_autocorr import UnitaryQuery, autocorr_schur
    exact = complex(autocorr_schur(UnitaryQuery(1, 1, (w, w))))
    assert val == pytest.approx(exact, abs=1e-8)


@pytest.mark.parametrize("fam,N", [(fam, N) for fam in ("u", "usp", "so") for N in (1, 2, 3)]
                         + [("ominus", N) for N in (1, 2, 3, 4)])
@pytest.mark.parametrize("k", [2, 4])
def test_heine_determinant_is_the_tensor_grid_sum(fam, N, k):
    # the determinant is the trapezoid sum at every node count: an untagged
    # wrapper of the same integrand takes the tensor grid
    spec, shifts = group(fam, N), (0.9, 0.7 + 0.3j, -0.5 + 0.6j, 1.2 - 0.4j)[:k]
    for m in range(k + 1) if fam == "u" else [0]:
        integrand = autocorr_integrand(spec, shifts, m)
        for M in (2 * N + k + 1, 4 * (2 * N + k)):
            grid = quadrature_average(spec, lambda T: integrand(T), nodes_per_dim=M)
            value = quadrature_average(spec, integrand, nodes_per_dim=M)
            assert abs(value - grid) <= 1e-13 * max(1.0, abs(grid))


@pytest.mark.parametrize("fam,N", [(fam, N) for fam in ("u", "usp", "so") for N in (1, 2, 3)]
                         + [("ominus", N) for N in (1, 2, 3, 4)])
@pytest.mark.parametrize("k", [2, 4])
def test_heine_fold_at_aliasing_node_counts_is_the_tensor_grid_sum(fam, N, k):
    # at M <= 2N + k the folded coefficients alias, and the determinant is
    # still the M-node trapezoid sum, or it refuses
    spec, shifts = group(fam, N), (0.9, 0.7 + 0.3j, -0.5 + 0.6j, 1.2 - 0.4j)[:k]
    for m in range(k + 1) if fam == "u" else [0]:
        integrand = autocorr_integrand(spec, shifts, m)
        for M in range(4, 2 * N + k + 1):
            grid = quadrature_average(spec, lambda T: integrand(T), nodes_per_dim=M)
            try:
                value = quadrature_average(spec, integrand, nodes_per_dim=M)
            except PrecisionLoss:
                continue
            assert abs(value - grid) <= 1e-12 * max(1.0, abs(grid))


def _value_or_error(call):
    try:
        return repr(call())
    except RouteError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("fam", ALL_FAMILIES)
@pytest.mark.parametrize("N", [1, 2, 3, 4, 256])
def test_weyl_value_is_the_same_at_every_node_count_that_does_not_alias(fam, N):
    # past 2N + k no coefficient folds onto an index the matrix reads, so
    # the node count cannot change the determinant, nor a refusal
    spec = group(fam, N)
    for k in (0, 2, 4):
        shifts = (0.9, 0.7 + 0.3j, -0.5 + 0.6j, 1.2 - 0.4j)[:k]
        for m in range(k + 1) if fam == "u" else [0]:
            weyl = _value_or_error(lambda: weyl_autocorrelation(spec, shifts, m))
            integrand = autocorr_integrand(spec, shifts, m)
            for M in (max(4, 2 * N + k + 1), 4 * (2 * N + k), 100003):
                assert _value_or_error(lambda: quadrature_average(
                    spec, integrand, nodes_per_dim=M)) == weyl


GEOMETRIES = ["annulus", "circle", "cluster", "pm1"]


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("fam", ALL_FAMILIES)
@pytest.mark.parametrize("N", [4, 8, 32, 256])
def test_heine_determinant_is_right_or_refuses(geometry, fam, N):
    # within the double crosscheck tolerance of the 60-digit value, or
    # PrecisionLoss, at orders the tensor grid never reached; the shifts and
    # m of a random U(N) query of the geometry
    rng = np.random.default_rng([GEOMETRIES.index(geometry), ALL_FAMILIES.index(fam), N])
    _N, shifts, m = _random_unitary_query(rng, geometry)
    spec = group(fam, N)
    m = m if fam == "u" else 0
    ref = complex(canonical_value(spec.family, N, shifts, m, PrecisionConfig.extended(60)))
    try:
        value = weyl_autocorrelation(spec, shifts, m)
    except PrecisionLoss:
        assert N > 8  # these orders are well conditioned in every geometry
        return
    assert abs(value - ref) <= 1e-9 * max(1.0, abs(ref))


def test_heine_determinant_order_cap_refuses_before_allocating():
    spec = group("usp", HEINE_CAP + 1)
    weyl_autocorrelation(group("usp", 2), (0.5, 0.3))   # lazy imports are not the working set
    tracemalloc.start()
    try:
        with pytest.raises(DimensionCap):
            weyl_autocorrelation(spec, (0.5, 0.3))
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 14  # an n-vector of complex is 16 KiB


# ---------------------------------------------------------------------------
# Characteristic polynomials
# ---------------------------------------------------------------------------

def test_char_poly_examples():
    for fam in ALL_FAMILIES:
        spec = group(fam, 2)
        ang = np.linspace(0.3, 1.1, spec.free_angles)
        assert complex(char_poly_eval(spec, ang, 0.0)) == pytest.approx(1.0)
    assert complex(char_poly_eval(group("ominus", 2), [0.4], 1.0)) == pytest.approx(0.0)
    val = complex(char_poly_eval(group("u", 1), [np.pi / 2], 1.0))
    assert val == pytest.approx(1 - 1j)


def test_ominus_charpoly_factorizes_through_pair_product():
    spec = group("ominus", 3)
    sp_part = group("usp", 2)  # same pair structure over N-1 angles
    rng = np.random.default_rng(5)
    ang = rng.uniform(0, 2 * np.pi, 2)
    for s in (0.3 + 0.1j, 1.7, -0.8 + 0.6j):
        full = complex(char_poly_eval(spec, ang, s))
        pairs = complex(char_poly_eval(sp_part, ang, s))
        assert full == pytest.approx((1 - s) * (1 + s) * pairs, rel=1e-12)


# ---------------------------------------------------------------------------
# Functional equations
# ---------------------------------------------------------------------------

def test_functional_equation_ominus2_exact():
    spec = group("ominus", 1)  # eigenvalues exactly +-1, no free angles
    for s in (0.5, 2.0, 0.3 + 0.7j, -1.2 + 0.1j):
        assert functional_equation_residual(spec, np.zeros(0), s) <= 1e-14


@pytest.mark.parametrize("fam", ALL_FAMILIES)
def test_functional_equation_residuals_small(fam):
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(250):
        N = int(rng.integers(1, 4))
        spec = group(fam, N)
        ang = rng.uniform(0, 2 * np.pi, spec.free_angles)
        s = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random()))
        worst = max(worst, functional_equation_residual(spec, ang, s))
        if fam != "u":
            worst = max(worst, znorm_residual(spec, ang, s))
    assert worst <= 1e-12


def test_functional_equation_unit_circle_large_n():
    # |s| = 1 on Haar-sampled matrices stays at the floor out to N = 8
    rng = np.random.default_rng(23)
    worst = 0.0
    for fam in ALL_FAMILIES:
        for N in range(1, 9):
            spec = group(fam, N)
            angles = sample_eigenangle_batch(spec, 1000 + N, 40)
            for ang in angles:
                s = complex(np.exp(2j * np.pi * rng.random()))
                worst = max(worst, functional_equation_residual(spec, ang, s))
    assert worst <= 1e-12


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("fam", ALL_FAMILIES)
def test_functional_equation_on_group_matrices(fam, N):
    # Haar matrices of the reference samplers: Lambda_M(s) from the free
    # angles is det(I - s M), det M is prod e^{i theta} for U(N), -1 for O^-
    # and 1 otherwise, and det(I - s M) = (-s)^D det M conj det(I - M / conj s).
    # The moment integrand at the angles is its matrix form: prod_j det M
    # det(I - w_j M) for the self-dual families, which ties the coset constant
    # (det M and the forced eigenvalues) to the matrices, and
    # prod_{r<m} det(I - w_r M^dagger) prod_{j>=m} det(w_j I - M) for U(N)
    spec = group(fam, N)
    D = spec.matrix_dim
    rng = np.random.default_rng(70 + N)
    mats = haar_matrix_batch(spec, rng, 30)
    angles = eigenangles_of(spec, mats)
    dets = np.linalg.det(mats)
    if fam == "u":
        expected = np.prod(np.exp(1j * angles), axis=1)
    else:
        expected = np.full(len(mats), -1.0 if fam == "ominus" else 1.0)
    assert np.abs(dets - expected).max() <= 1e-12
    eye = np.eye(D)
    for M, ang, det_m in zip(mats, angles, dets):
        for s in rng.uniform(0.5, 2.0, 3) * np.exp(2j * np.pi * rng.random(3)):
            lam = np.linalg.det(eye - s * M)
            assert abs(complex(char_poly_eval(spec, ang, s)) - lam) <= 1e-12 * abs(lam)
            reflected = (-s) ** D * det_m * np.conj(np.linalg.det(eye - M / np.conj(s)))
            assert abs(lam - reflected) <= 1e-12 * abs(lam)
            assert functional_equation_residual(spec, ang, s) <= 1e-12 * abs(lam)
    for w in [(0.5,), (0.9, -0.6 + 0.2j), (0.9, 0.7 + 0.3j, -0.5 + 0.6j, 1.2 - 0.4j)]:
        for m in range(len(w) + 1) if fam == "u" else [0]:
            values = autocorr_integrand(spec, w, m)(angles)
            for M, value, det_m in zip(mats, values, dets):
                if fam == "u":
                    expected = (math.prod(np.linalg.det(eye - wr * M.conj().T) for wr in w[:m])
                                * math.prod(np.linalg.det(wj * eye - M) for wj in w[m:]))
                else:
                    expected = math.prod(det_m * np.linalg.det(eye - wj * M) for wj in w)
                assert abs(value - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("fam, N", [("usp", 51), ("usp", 64), ("so", 51), ("so", 64),
                                    ("ominus", 51), ("ominus", 64), ("u", 101)])
def test_functional_equation_past_exponent_100(fam, N):
    # D > 100, where CPython takes a complex to an integer power by exp and
    # log; s drawn as in test_functional_equation_residuals_small
    spec = group(fam, N)
    rng = np.random.default_rng(N)
    for ang in sample_eigenangle_batch(spec, 800 + N, 30):
        s = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random()))
        lam = abs(complex(char_poly_eval(spec, ang, s)))
        assert functional_equation_residual(spec, ang, s) <= 1e-12 * lam
        if fam != "u":
            assert znorm_residual(spec, ang, s) <= 1e-12 * abs(s) ** -N * lam


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sampling_deterministic():
    # 3 samples past a whole chunk are a second chunk drawn from the same
    # generator, which leaves the first chunk as it was
    for fam in ALL_FAMILIES:
        spec = group(fam, 2)
        longer = sample_eigenangle_batch(spec, 99, _SAMPLE_CHUNK + 3)
        assert longer.shape == (_SAMPLE_CHUNK + 3, spec.free_angles)
        assert np.array_equal(longer[:_SAMPLE_CHUNK],
                              sample_eigenangle_batch(spec, 99, _SAMPLE_CHUNK))


def test_ominus2_samples_have_no_free_angles():
    spec = group("ominus", 1)
    batch = sample_eigenangle_batch(spec, 1, 8)
    assert batch.shape == (8, 0)
    mats = haar_matrix_batch(spec, np.random.default_rng(1), 16)
    ev = np.sort(np.linalg.eigvals(mats).real, axis=1)
    assert np.allclose(ev[:, 0], -1, atol=1e-12) and np.allclose(ev[:, 1], 1, atol=1e-12)


def test_sampled_matrices_live_on_their_groups():
    rng = np.random.default_rng(11)
    U = haar_matrix_batch(group("u", 4), rng, 12)
    assert np.allclose(np.einsum("bij,bkj->bik", U, U.conj()), np.eye(4), atol=1e-12)

    S = haar_matrix_batch(group("usp", 3), rng, 12)
    J = np.zeros((6, 6))
    J[:3, 3:] = np.eye(3)
    J[3:, :3] = -np.eye(3)
    assert np.allclose(np.einsum("bij,bkj->bik", S, S.conj()), np.eye(6), atol=1e-11)
    assert np.allclose(np.einsum("bji,jk,bkl->bil", S, J, S), J, atol=1e-11)

    for fam, sign in (("so", 1.0), ("ominus", -1.0)):
        Q = haar_matrix_batch(group(fam, 2), rng, 20)
        assert np.allclose(np.einsum("bij,bkj->bik", Q, Q), np.eye(4), atol=1e-12)
        assert np.allclose(np.linalg.det(Q), sign, atol=1e-10)

    C = sample_matrix_batch(group("u", 5), np.random.default_rng(12), 12)
    assert np.allclose(np.einsum("bij,bkj->bik", C, C.conj()), np.eye(5), atol=1e-12)


def test_eigenangle_extraction_on_known_rotation():
    theta = 0.7
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[[c, -s], [s, c]]])
    assert eigenangles_of(group("so", 1), rot) == pytest.approx(np.array([[theta]]))


def test_unitary_moment_via_monte_carlo():
    spec = group("u", 2)
    integrand = autocorr_integrand(spec, [1.0, 1.0], m=1)
    mean, se = monte_carlo_average(spec, integrand, 2024, 60000)
    assert abs(mean - 3.0) <= 4 * se  # exact second moment N + 1


def test_constant_integrand_has_zero_stderr():
    spec = group("so", 2)
    mean, se = monte_carlo_average(spec, lambda T: np.full(T.shape[0], 2.5 + 1j), 5, 500)
    assert mean == pytest.approx(2.5 + 1j) and se == 0.0


def test_monte_carlo_mean_of_values_near_the_top_of_the_range():
    # 4,096 values of about 2e306 to 3e306, whose sum passes the double
    # range: the mean was inf, with an overflow RuntimeWarning
    spec = group("usp", 2)
    mean, se = monte_carlo_average(spec, lambda T: 1e306 * (2 + np.cos(T[:, 0])), 1, 4096)
    unit_mean, unit_se = monte_carlo_average(spec, lambda T: 2 + np.cos(T[:, 0]), 1, 4096)
    assert mean == pytest.approx(1e306 * unit_mean, rel=1e-14)
    assert se == pytest.approx(1e306 * unit_se, rel=1e-14)


@pytest.mark.parametrize("scale", [1e-306, 1e-160])
def test_monte_carlo_standard_error_of_values_near_the_bottom_of_the_range(scale):
    # the squared deviations, about scale^2 * 1e-1, underflow: the error was 0.0
    spec = group("usp", 2)
    mean, se = monte_carlo_average(spec, lambda T: scale * (2 + np.cos(T[:, 0])), 1, 4096)
    unit_mean, unit_se = monte_carlo_average(spec, lambda T: 2 + np.cos(T[:, 0]), 1, 4096)
    assert mean == pytest.approx(scale * unit_mean, rel=1e-14)
    assert se == pytest.approx(scale * unit_se, rel=1e-14)


@pytest.mark.parametrize("fam,integrand", [
    ("usp", autocorr_integrand(group("usp", 2), [1e100])),  # every value inf + nan i
    ("so", lambda T: np.where(T[:, 0] < 1, np.inf, 1.0)),  # some inf, some finite
], ids=["moment-past-the-range", "some-inf"])
def test_monte_carlo_of_values_beyond_the_range_is_nan(fam, integrand):
    # the mean divided an inf or nan sum, with an "invalid value" RuntimeWarning
    # (an error in this suite); the caller's report refuses the nan
    mean, se = monte_carlo_average(group(fam, 2), integrand, 1, 4096)
    assert cmath.isnan(mean) and math.isnan(se)


def test_monte_carlo_consistent_with_quadrature_on_random_integrands():
    # random class functions: symmetric in the angles and even per angle,
    # since an eigenangle vector is only defined up to ordering and (for the
    # conjugate-paired families) per-pair reflection
    rng = np.random.default_rng(31)
    for fam in ALL_FAMILIES:
        for _ in range(5):
            N = int(rng.integers(1, 4))
            spec = group(fam, N)
            a, b = rng.normal(size=2)

            def integrand(T, a=a, b=b):
                out = np.ones(T.shape[0], dtype=complex)
                for j in range(T.shape[1]):
                    out = out * (1 + a * np.cos(T[:, j]) + b * np.cos(2 * T[:, j]))
                return out

            exact = quadrature_average(spec, integrand, nodes_per_dim=32)
            mean, se = monte_carlo_average(spec, integrand, int(rng.integers(1, 10 ** 6)), 20000)
            assert abs(mean - exact) <= 4 * max(se, 1e-12)


def test_full_orthogonal_batch_without_component_fix():
    q = _haar_orthogonal_batch(np.random.default_rng(8), 400, 4, None)
    signs = np.sign(np.linalg.det(q))
    assert abs(signs.mean()) < 0.25  # both components show up about equally


# ---------------------------------------------------------------------------
# The Killip-Nenciu coefficient laws, row by row
# ---------------------------------------------------------------------------

KS_BOUND = 1.95  # sqrt(n) D of the one-sample Kolmogorov-Smirnov test at p = 0.001


def _ks(samples, cdf):
    """sqrt(n) D: the scaled Kolmogorov-Smirnov distance of `samples` from `cdf`."""
    x = np.sort(samples)
    n = len(x)
    F = np.array([float(cdf(v)) for v in x])
    i = np.arange(1, n + 1)
    return np.sqrt(n) * max(np.max(i / n - F), np.max(F - (i - 1) / n))


def _beta_cdf(p, q):
    """CDF of Beta(p, q), regularized incomplete beta in the double context."""
    return lambda x: mpmath.fp.betainc(p, q, 0, x, regularized=True)


@pytest.mark.parametrize("fam", ["usp", "so", "ominus"])
@pytest.mark.parametrize("n", [1, 2, 6, 16])
def test_self_dual_coefficient_rows_follow_their_beta_laws(fam, n):
    # Killip-Nenciu Theorem 2 (beta = 2, a = b): alpha_t = 1 - 2 Beta(p, q),
    # p = q = (2n - t - 2)/2 + a + 1 for even t, p = (2n - t - 3)/2 + 2a + 2
    # and q = (2n - t - 1)/2 for odd t.  SO meets p = q = 1/2 (the arcsine
    # law) at t = 2n - 2 and p = q at every row; USp and O^- p = q + 2 at odd t
    spec = group(fam, n + 1 if fam == "ominus" else n)
    a, B = _JACOBI_A[spec.family], 1000
    alpha = _coefficients(spec, np.random.default_rng(1601 + n), B)
    assert alpha.shape == (B, 2 * n) and alpha.T.flags.c_contiguous
    assert np.all(alpha[:, -1] == -1) and not np.any(alpha[:, :-1] == -1)
    for t, row in enumerate(alpha.T[:-1]):
        if t % 2 == 0:
            p = q = (2 * n - t - 2) / 2 + a + 1
        else:
            p, q = (2 * n - t - 3) / 2 + 2 * a + 2, (2 * n - t - 1) / 2
        # P(1 - 2 X <= y) = P(X >= (1 - y)/2) = I_{(1 + y)/2}(q, p)
        cdf = _beta_cdf(q, p)
        assert _ks(row, lambda y: cdf((1 + y) / 2)) <= KS_BOUND, (t, p, q)


def test_unitary_coefficient_rows_follow_their_laws():
    # Killip-Nenciu Theorem 1 (beta = 2): |alpha_t|^2 ~ Beta(1, N - t - 1)
    # for t < N - 1, |alpha_{N-1}| = 1, every phase uniform
    N, B, u = 16, 1000, np.finfo(float).eps
    alpha = _coefficients(group("u", N), np.random.default_rng(1701), B)
    assert alpha.shape == (B, N) and alpha.T.flags.c_contiguous
    assert np.max(np.abs(np.abs(alpha[:, -1]) - 1)) <= 4 * u
    for t, row in enumerate(alpha.T):
        if t < N - 1:
            assert _ks(np.abs(row) ** 2, _beta_cdf(1, N - t - 1)) <= KS_BOUND, t
        phase = np.mod(np.angle(row), 2 * np.pi)
        assert _ks(phase, lambda x: x / (2 * np.pi)) <= KS_BOUND, t


def test_circle_points_are_the_double_angle_of_the_tangent():
    # cos and sin of phi = 2 psi from t = tan(psi), against 60-digit values at
    # the same t, on a grid of psi through +-fl(pi/2), where |t| ~ 1.6e16
    u, half_pi = np.finfo(float).eps, np.pi / 2
    psi = np.concatenate([np.linspace(-half_pi, half_pi, 1001),
                          np.nextafter(half_pi, 0) * np.array([-1, 1]), [-1e-300, 1e-300]])
    c, s = _circle_points(psi.copy(), np.empty_like(psi), np.empty_like(psi))
    assert np.all(np.isfinite(c)) and np.all(np.isfinite(s))
    assert np.all(np.abs(np.hypot(c, s) - 1) <= 4 * u)
    with mpmath.workdps(60):
        for t, ct, st in zip(np.tan(psi), c, s):
            phi = 2 * mpmath.atan(mpmath.mpf(float(t)))
            assert abs(ct - mpmath.cos(phi)) <= 2 * u and abs(st - mpmath.sin(phi)) <= 2 * u, t


class _EdgeGenerator:
    """Stands in for a numpy Generator at the ends of its range: every
    draw of [0, 1) is `u`, written into the buffer the sampler passes."""

    def __init__(self, u):
        self.u = u

    def random(self, *, out):
        out.fill(self.u)
        return out


@pytest.mark.parametrize("u", [0.0, 1 - 2.0 ** -53])
@pytest.mark.parametrize("tiny", [5e-324, np.finfo(float).tiny])
def test_coefficients_at_the_edge_draws_are_finite_and_in_range(u, tiny):
    # U = 0 gives log1p(-0) = 0, not log(0), and the phases pi U - pi/2
    # reach tan at psi = -fl(pi/2) and just below fl(pi/2): no warning
    # (warnings are errors in this suite), and every coefficient is finite
    # and in [-1, 1].  No U puts psi where t^2 underflows (the nonzero
    # phases nearest 0 are about 2e-16 from it), so the circle point is
    # checked there directly: cos(phi) = 1 and sin(phi) = 2 psi
    c, s = _circle_points(np.array([tiny, -tiny]), np.empty(2), np.empty(2))
    assert np.array_equal(c, [1.0, 1.0]) and np.array_equal(s, [2 * tiny, -2 * tiny])
    rng = _EdgeGenerator(u)
    for n in (1, 2, 6):
        for fam in ("usp", "so"):  # a = 1/2 and -1/2
            alpha = _coefficients(group(fam, n), rng, 8)
            assert np.all(np.isfinite(alpha)) and np.all(np.abs(alpha) <= 1), (n, fam)
    for N in (1, 2, 8):
        alpha = _coefficients(group("u", N), rng, 8)
        parts = np.stack([alpha.real, alpha.imag])
        assert np.all(np.isfinite(parts)) and np.all(np.abs(parts) <= 1), N
        assert np.all(np.abs(alpha) <= 1 + 4 * np.finfo(float).eps), N


# ---------------------------------------------------------------------------
# The Jacobi model of the self-dual spectra
# ---------------------------------------------------------------------------

SELF_DUAL_EPS = {"usp": sp_autocorr_eps, "so": so_autocorr_eps, "ominus": ominus_autocorr_eps}


@pytest.mark.parametrize("fam", ["usp", "so", "ominus"])
@pytest.mark.parametrize("N,seed", [(2, 301), (8, 302), (16, 303)])
def test_jacobi_model_reproduces_the_exact_moment(fam, N, seed):
    # the USp and SO moments differ by many standard errors here, so a
    # swapped endpoint exponent a = +-1/2 fails this
    spec = group(fam, N)
    shifts = [0.85, 0.6 + 0.25j, -0.4 + 0.5j]
    exact = complex(SELF_DUAL_EPS[fam](N, shifts))
    mean, se = monte_carlo_average(spec, autocorr_integrand(spec, shifts), seed, 20000)
    assert abs(mean - exact) <= 4 * se


@pytest.mark.parametrize("fam", ["usp", "so", "ominus"])
@pytest.mark.parametrize("N", [2, 5])
def test_jacobi_model_agrees_with_the_matrix_sampler(fam, N):
    spec = group(fam, N)
    count = 20000
    jacobi = sample_eigenangle_batch(spec, 401 + N, count)
    matrix = eigenangles_of(spec, haar_matrix_batch(spec, np.random.default_rng(501 + N), count))
    for r in (1, 2, 3):
        x = np.cos(r * jacobi).sum(axis=1)
        y = np.cos(r * matrix).sum(axis=1)
        z = abs(x.mean() - y.mean()) / np.sqrt((x.var(ddof=1) + y.var(ddof=1)) / count)
        assert z <= 4


@pytest.mark.parametrize("fam", ["usp", "so", "ominus"])
@pytest.mark.parametrize("N", [1, 2, 5])
def test_jacobi_model_angles_are_sorted_in_zero_pi(fam, N):
    spec = group(fam, N)
    angles = sample_eigenangle_batch(spec, 7, 5000)
    assert angles.shape == (5000, spec.free_angles)
    if spec.free_angles:
        assert angles.min() >= 0.0 and angles.max() <= np.pi
        assert np.all(np.diff(angles, axis=1) >= 0)


# ---------------------------------------------------------------------------
# Moments from sampled coefficients: one Szego recursion for every family
# ---------------------------------------------------------------------------

def _coefficient_values(spec, shifts, m, seed, count):
    """Per-sample values of the coefficient path of `monte_carlo_average`."""
    chunk = functools.partial(_autocorr_chunk, spec, tuple(complex(w) for w in shifts), m)
    return _sampled(seed, count, chunk)


@pytest.mark.parametrize("fam", ["usp", "so", "ominus"])
@pytest.mark.parametrize("N", [1, 2, 8, 16])
def test_continuant_matches_the_eigensolved_angles(fam, N):
    # same seeded stream, two chunks: every sample agrees with the integrand
    # at the eigvalsh angles to 1e-12 relative, plus what each of the two
    # double computations inherits from an ill-conditioned product:
    # eigenvalue errors of n u ||J|| (||J|| <= 2) move a factor
    # 1 + w^2 - w x by 2 n u |w|, a large relative error near w = +-1 when
    # theta is near 0 or pi
    spec = group(fam, N)
    n, u, count = spec.free_angles, np.finfo(float).eps, 5000
    for seed, shifts in enumerate([(0.0, 1.0, -1.0, 1.7 - 0.6j),
                                   (0.85, 0.6 + 0.25j, -0.4 + 0.5j, 1.3j)], start=701):
        T = sample_eigenangle_batch(spec, seed, count)
        ref = autocorr_integrand(spec, shifts)(T)
        got = _coefficient_values(spec, shifts, 0, seed, count)
        w = np.array(shifts)
        factors = np.abs(1 + w * w - 2 * w * np.cos(T[:, :, None]))
        inherited = 4 * n * u * np.sum(np.abs(w) / factors, axis=(1, 2))
        assert np.all(np.abs(got - ref) <= (1e-12 + inherited) * np.abs(ref)), (seed, shifts)


@pytest.mark.parametrize("fam", ["usp", "so"])
@pytest.mark.parametrize("N", [8, 16])
def test_self_dual_values_at_plus_minus_one_keep_their_digits(fam, N):
    # at w = 1 the exact value is prod_t (1 - alpha_t) and at w = -1
    # prod_t (1 + (-1)^t alpha_t) over the sampled real coefficients: no
    # cancellation beyond each factor's, so each sample must be within
    # 4 u sum_t 1 / |f_t| of the 50-digit product, although angles near 0
    # or pi make these values ill-conditioned in the eigenvalues
    spec = group(fam, N)
    u, count, seed = np.finfo(float).eps, 1000, 1101 + N
    n = spec.free_angles
    alpha = _sampled(seed, count, functools.partial(_coefficients, spec))
    for w, c in ((1.0, -np.ones(2 * n)), (-1.0, (-1.0) ** np.arange(2 * n))):
        got = _coefficient_values(spec, (w,), 0, seed, count)
        with mpmath.workdps(50):
            exact = np.array([float(mpmath.fprod(1 + ct * mpmath.mpf(at) for ct, at in zip(c, row)))
                              for row in alpha])
        bound = 4 * u * np.sum(1 / np.abs(1 + c * alpha), axis=1) * np.abs(exact)
        assert np.all(np.abs(got - exact) <= bound), (w, np.max(np.abs(got - exact) / bound))


@pytest.mark.parametrize("fam,N", [("so", 32), ("so", 64), ("usp", 32)])
def test_self_dual_values_at_plus_minus_one_match_the_50_digit_recursion(fam, N):
    # the double recursion's s Phi_t - alpha_t Phi*_t cancels when alpha_t is
    # near +-1 (4.3e-13 relative on these SO(64) samples); the product of
    # the formed factors s - alpha_t s^t stays within 1e-14
    spec = group(fam, N)
    count, seed = 100, 1401 + N
    alpha = _sampled(seed, count, functools.partial(_coefficients, spec))
    for s in (1, -1):
        got = _coefficient_values(spec, (s,), 0, seed, count)
        exact = []
        with mpmath.workdps(50):
            for row in alpha:
                phi = phi_star = mpmath.mpf(1)
                for at in map(mpmath.mpf, row):
                    phi, phi_star = s * phi - at * phi_star, phi_star - at * s * phi
                exact.append(float(phi))
        assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-14, s


# 0, +-1 (the product-of-factors path of real coefficients), |w| > 1, complex
SZEGO_SHIFTS = (0.0, 1.0, -1.0, 1.7 - 0.6j, 0.6 + 0.3j, -0.5 + 0.4j, 1.3j, 0.9)


def _sample_major_values(spec, shifts, m, rng, B):
    """`_autocorr_chunk`'s values by the reference `_szego` on (B, k) arrays,
    from the same seeded coefficients."""
    phi, phi_star = _szego(_coefficients(spec, rng, B), np.asarray(shifts, dtype=complex))
    vals = np.where(np.arange(len(shifts)) < m, phi_star, phi).prod(axis=1)
    if spec.family == "ominus":  # the coset constant, formed as the package forms it
        vals = vals * math.prod((1 - wj) * (-1 - wj) for wj in shifts)
    return vals


@pytest.mark.parametrize("fam", ALL_FAMILIES)
@pytest.mark.parametrize("N", [1, 2, 8, 16])
def test_row_recursion_matches_the_sample_major_reference(fam, N):
    # the recursion runs on one row of samples per shift; on the same seeded
    # coefficients each value is within 4 u of the reference's, and equal
    # at k = 1, where no product of shift rows is taken and the recursion's
    # operations are the reference's
    spec = group(fam, N)
    u, B, seed = np.finfo(float).eps, 500, 1501 + N
    cases = [SZEGO_SHIFTS[j:j + k] for k in (1, 2, 4) for j in range(0, len(SZEGO_SHIFTS), k)]
    for shifts in cases:
        for m in range(len(shifts) + 1):
            got = _autocorr_chunk(spec, shifts, m, np.random.default_rng(seed), B)
            ref = _sample_major_values(spec, shifts, m, np.random.default_rng(seed), B)
            assert got.shape == ref.shape == (B,)
            if len(shifts) == 1:
                assert np.array_equal(got, ref), (shifts, m)
            else:
                assert np.all(np.abs(got - ref) <= 4 * u * np.abs(ref)), (shifts, m)


@pytest.mark.parametrize("fam", ["u", "usp"])
def test_monte_carlo_memory_does_not_grow_with_the_group(fam):
    # each coefficient row is taken into the recursion as soon as it is
    # drawn, so one chunk holds a few rows of samples at any N: the peak of
    # a 4,096-sample call is no larger at N = 64 than at N = 2
    def peak(N):
        spec = group(fam, N)
        integrand = autocorr_integrand(spec, (0.7 + 0.3j, -0.5 + 0.6j), 1 if fam == "u" else 0)
        monte_carlo_average(spec, integrand, 5, _SAMPLE_CHUNK)  # lazy imports: not the working set
        tracemalloc.start()
        try:
            monte_carlo_average(spec, integrand, 5, _SAMPLE_CHUNK)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(64) <= peak(2)


@pytest.mark.parametrize("fam,N", [("u", 16), ("usp", 32)])
def test_angle_path_solves_its_matrices_a_slice_at_a_time(fam, N):
    # a chunk's dense matrices are built and solved _SOLVE_CHUNK samples at
    # a time: a 4,096-sample batch peaked at 49.0 MiB (U(16)) and 41.0 MiB
    # (USp(32)) when the whole chunk was built at once
    spec = group(fam, N)
    sample_eigenangle_batch(spec, 5, _SAMPLE_CHUNK)  # lazy imports: not the working set
    tracemalloc.start()
    try:
        sample_eigenangle_batch(spec, 5, _SAMPLE_CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2 ** 20


@pytest.mark.parametrize("fam", ALL_FAMILIES)
def test_angle_slices_equal_the_whole_chunk_solved_at_once(fam):
    # LAPACK solves one matrix at a time, so slicing the chunk changes no bit
    spec, B = group(fam, 5), _SOLVE_CHUNK + 37
    alpha = _coefficients(spec, np.random.default_rng(17), B)
    if fam == "u":
        whole = eigenangles_of(spec, sample_matrix_batch(spec, np.random.default_rng(17), B))
    else:
        whole = _jacobi_angles(alpha)
    assert np.array_equal(sample_eigenangle_batch(spec, 17, B), whole)


@pytest.mark.parametrize("N", [1, 2, 8, 16])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_szego_model_reproduces_the_exact_unitary_moment(N, m):
    spec = group("u", N)
    shifts = (0.9, 0.7 + 0.3j, -0.5 + 0.6j)
    exact = complex(autocorr_det(UnitaryQuery(N, m, shifts)))
    mean, se = monte_carlo_average(spec, autocorr_integrand(spec, shifts, m),
                                   801 + 10 * N + m, 20000)
    assert abs(mean - exact) <= 4 * se


@pytest.mark.parametrize("N", [2, 5])
def test_szego_model_agrees_with_the_matrix_sampler(N):
    spec = group("u", N)
    count = 20000
    matrix = _sampled(  # QR + eigvals angles
        951 + N, count, lambda rng, B: eigenangles_of(spec, haar_matrix_batch(spec, rng, B)))
    for shifts, m in (((0.8, 0.8), 1), ((0.6 + 0.3j, -0.5 + 0.5j), 1), ((1.0, 1j), 1),
                      ((0.5,), 0), ((1.2, -0.4j), 2)):
        f = autocorr_integrand(spec, shifts, m)
        coef, coef_se = monte_carlo_average(spec, f, 901 + N, count)
        vals = f(matrix)
        mat_se = np.sqrt(np.sum(np.abs(vals - vals.mean()) ** 2) / (count - 1) / count)
        assert abs(coef - vals.mean()) <= 4 * np.hypot(coef_se, mat_se), (shifts, m)


# ---------------------------------------------------------------------------
# The CMV model of the U(N) spectrum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [1, 2, 8, 16])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_cmv_angles_match_the_coefficient_path(N, m):
    # same seeded stream, two chunks: the integrand at the CMV eigenangles
    # equals the Szego value of the same coefficients per sample to 1e-12
    # relative, plus what the eigvals angles inherit: errors of about N u
    # move a factor w - e^{i theta} or 1 - e^{-i theta} w by |w| N u, a
    # large relative error when w on the circle is near an eigenvalue
    spec = group("u", N)
    u, count, seed = np.finfo(float).eps, 5000, 1201
    shifts = (1.0, 1j, -1.0, 0.7 - 0.4j)
    T = sample_eigenangle_batch(spec, seed, count)
    ref = autocorr_integrand(spec, shifts, m)(T)
    got = _coefficient_values(spec, shifts, m, seed, count)
    w = np.array(shifts)
    inherited = 4 * N * u * np.sum(np.abs(w) / np.abs(w - np.exp(1j * T[:, :, None])), axis=(1, 2))
    assert np.all(np.abs(got - ref) <= (1e-12 + inherited) * np.abs(ref))


def test_cmv_spectrum_has_the_haar_trace_moments():
    # Diaconis-Shahshahani: E |tr U^j|^2 = min(j, N) under Haar measure on U(N)
    N, count = 6, 20000
    T = sample_eigenangle_batch(group("u", N), 1301, count)
    for j in range(1, 2 * N + 1):
        x = np.abs(np.exp(1j * j * T).sum(axis=1)) ** 2
        assert abs(x.mean() - min(j, N)) <= 4 * x.std(ddof=1) / np.sqrt(count), j


@pytest.mark.parametrize("fam", ["usp", "so", "ominus"])
def test_cmv_sampler_refuses_the_self_dual_families(fam):
    with pytest.raises(ValueError, match="U\\(N\\) only"):
        sample_matrix_batch(group(fam, 2), np.random.default_rng(1), 4)


def test_autocorr_moments_need_no_matrix_and_no_eigensolver(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("eigensolver or QR called")

    for name in ("eigvals", "eigvalsh", "qr"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for fam in ALL_FAMILIES:
        spec = group(fam, 3)
        f = autocorr_integrand(spec, (0.5, -0.3 + 0.4j), 1 if fam == "u" else 0)
        mean, se = monte_carlo_average(spec, f, 3, 5000)
        assert np.isfinite(mean) and se > 0
        # any other functional, or the moment of another group, gets eigenangles
        for other in (lambda T, f=f: f(T), autocorr_integrand(group(fam, 2), (0.5,))):
            with pytest.raises(AssertionError, match="eigensolver or QR"):
                monte_carlo_average(spec, other, 3, 5000)


@pytest.mark.parametrize("call", [
    lambda: char_poly_eval(group("usp", 2), np.zeros(3), 0.5),  # 3 angles for USp(4)
    # three angles for O^-(2), none of them free: weyl_density refuses the same array
    lambda: char_poly_eval(group("ominus", 1), np.zeros((0, 3)), 0.5),
    lambda: functional_equation_residual(group("usp", 2), np.zeros(2), 0),
    lambda: znorm_residual(group("u", 2), np.zeros(2), 0.5),
    lambda: znorm_residual(group("usp", 2), np.zeros(2), 0),
    lambda: quadrature_average(group("u", 1), lambda T: np.ones(len(T)), nodes_per_dim=3),
    lambda: autocorr_integrand(group("u", 2), [0.5], m=2),
    lambda: monte_carlo_average(group("u", 1), autocorr_integrand(group("u", 1), [0.5]), 1,
                                count=1),
    # numpy's "need at least one array to concatenate" for 0 and -3, a
    # bare TypeError for 2.5
    lambda: sample_eigenangle_batch(group("usp", 2), 1, 0),
    lambda: sample_eigenangle_batch(group("usp", 2), 1, -3),
    lambda: sample_eigenangle_batch(group("u", 2), 1, 2.5),
    lambda: weyl_density(group("u", 5), np.zeros((3, 2))),  # the U(2) density
    lambda: eigenangles_of(group("usp", 3), np.tile(np.eye(4), (2, 1, 1))),  # USp(4) matrices
], ids=["angle-count", "empty-batch-angle-count", "functional-equation-at-0", "znorm-unitary", "znorm-at-0",
        "three-nodes", "m-above-n", "one-sample", "batch-of-none", "batch-below-zero",
        "fractional-batch", "weyl-density-angle-count", "eigenangles-matrix-size"])
def test_input_guards(call):
    with pytest.raises(ValueError):
        call()
