"""Weyl measures, quadrature, sampling and functional equations."""

import numpy as np
import pytest

from rmt_autocorr import (
    DimensionCap,
    GroupSpec,
    char_poly_eval,
    functional_equation_residual,
    group,
    monte_carlo_average,
    ominus_autocorr_eps,
    quadrature_average,
    sample_eigenangles,
    so_autocorr_eps,
    sp_autocorr_eps,
    weyl_autocorrelation,
    weyl_density,
    znorm_residual,
)
from rmt_autocorr.haar import (
    _haar_orthogonal_batch,
    autocorr_integrand,
    eigenangles_of,
    sample_eigenangle_batch,
    sample_matrix_batch,
)

ALL_FAMILIES = ["u", "usp", "so", "ominus"]


def test_group_spec_validation():
    assert group("u", 3).matrix_dim == 3
    assert group("usp", 3).matrix_dim == 6
    assert group("ominus", 3).free_angles == 2
    with pytest.raises(ValueError):
        GroupSpec("nope", 2)
    with pytest.raises(ValueError):
        GroupSpec("u", 0)


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
    # 24 nodes put theta = 0 and pi on the grid
    spec = group("so", 2)
    shifts = [0.8 + 0.1j, -0.5 + 0.4j]
    val = weyl_autocorrelation(spec, shifts, nodes_per_dim=24)
    assert val == pytest.approx(complex(so_autocorr_eps(2, shifts)), rel=1e-12)


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


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sampling_deterministic():
    spec = group("usp", 2)
    a = list(sample_eigenangles(spec, 99, 5))
    b = list(sample_eigenangles(spec, 99, 5))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    batch = sample_eigenangle_batch(spec, 99, 5)
    assert np.array_equal(np.stack(a), batch)


def test_ominus2_samples_have_no_free_angles():
    spec = group("ominus", 1)
    batch = sample_eigenangle_batch(spec, 1, 8)
    assert batch.shape == (8, 0)
    mats = sample_matrix_batch(spec, np.random.default_rng(1), 16)
    ev = np.sort(np.linalg.eigvals(mats).real, axis=1)
    assert np.allclose(ev[:, 0], -1, atol=1e-12) and np.allclose(ev[:, 1], 1, atol=1e-12)


def test_sampled_matrices_live_on_their_groups():
    rng = np.random.default_rng(11)
    U = sample_matrix_batch(group("u", 4), rng, 12)
    assert np.allclose(np.einsum("bij,bkj->bik", U, U.conj()), np.eye(4), atol=1e-12)

    S = sample_matrix_batch(group("usp", 3), rng, 12)
    J = np.zeros((6, 6))
    J[:3, 3:] = np.eye(3)
    J[3:, :3] = -np.eye(3)
    assert np.allclose(np.einsum("bij,bkj->bik", S, S.conj()), np.eye(6), atol=1e-11)
    assert np.allclose(np.einsum("bji,jk,bkl->bil", S, J, S), J, atol=1e-11)

    for fam, sign in (("so", 1.0), ("ominus", -1.0)):
        Q = sample_matrix_batch(group(fam, 2), rng, 20)
        assert np.allclose(np.einsum("bij,bkj->bik", Q, Q), np.eye(4), atol=1e-12)
        assert np.allclose(np.linalg.det(Q), sign, atol=1e-10)


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
    matrix = eigenangles_of(spec, sample_matrix_batch(spec, np.random.default_rng(501 + N), count))
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
