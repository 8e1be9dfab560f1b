"""SO(2N) and O^-(2N) routes, partial sums, and the pairing determinant."""

import cmath
import itertools

import numpy as np
import pytest
from mpmath import mp

from rmt_autocorr import (
    ContourConfig,
    NearConfluent,
    PoleHit,
    PrecisionConfig,
    full_o2n_average,
    group,
    monte_carlo_average,
    ominus_autocorr_det,
    ominus_autocorr_eps,
    orthogonal_contour,
    pairing_determinant,
    pairing_matrix,
    so_autocorr_det,
    so_autocorr_eps,
    so_autocorr_schur,
    so_partial_sums,
    subset_stats,
    weyl_autocorrelation,
)
from rmt_autocorr.haar import autocorr_integrand
from rmt_autocorr.orthogonal import ominus_autocorr_schur
from rmt_autocorr.symplectic import sp_autocorr_det

from haar_reference import _haar_orthogonal_batch


def _random_shifts(rng, k, lo=0.5, hi=1.6, sep=0.25):
    out = []
    while len(out) < k:
        c = complex(rng.uniform(-hi, hi), rng.uniform(-hi, hi))
        if lo <= abs(c) <= hi and all(abs(c - p) >= sep for p in out) and \
           all(abs(1 - c * p) > 0.05 for p in out + [c]) and abs(1 - c * c) > 0.05:
            out.append(c)
    return out


# ---------------------------------------------------------------------------
# Subset statistics
# ---------------------------------------------------------------------------

def test_subset_stats_examples():
    w = [0.5 + 0.1j, 1.5 - 0.2j]
    empty = subset_stats((), (0, 1), w)
    assert empty.w_A == 1 and empty.delta_A == 1 and empty.cal_E_A == 1 and empty.S == 0
    first = subset_stats((0,), (1,), w)   # the 1-based pair A={1}, B={2}
    assert first.W == 0 and first.S == 2
    assert complex(first.E) == pytest.approx(1 - w[0] * w[1])
    assert complex(first.D) == pytest.approx(w[1] - w[0])
    second = subset_stats((1,), (0,), w)  # A={2}, B={1}
    assert second.W == 1 and second.S == 3
    with pytest.raises(ValueError):
        subset_stats((0,), (0, 1), w)


# ---------------------------------------------------------------------------
# SO(2N)
# ---------------------------------------------------------------------------

def test_so_k1_closed_forms():
    w = 1.2 - 0.3j
    for N in (1, 2, 3, 4, 5):
        expected = 1 + w ** (2 * N)
        for route in (so_autocorr_det, so_autocorr_schur, so_autocorr_eps):
            assert complex(route(N, [w])) == pytest.approx(expected, rel=1e-12)
    assert complex(so_autocorr_eps(1, [1.0 + 0j])) == pytest.approx(2.0)
    assert complex(so_autocorr_eps(1, [2.0])) == pytest.approx(5.0)


def test_so_schur_hand_enumeration_k1_n1():
    # lambda' = (1,1) odd -> lambda = (2); lambda' = () even -> lambda = ()
    w = 0.8 + 0.4j
    assert complex(so_autocorr_schur(1, [w])) == pytest.approx(1 + w ** 2)
    assert complex(so_autocorr_schur(2, [0.0])) == pytest.approx(1.0)
    assert complex(so_autocorr_schur(1, [0.0, 0.0])) == pytest.approx(1.0)


def test_so_route_agreement_random():
    rng = np.random.default_rng(70)
    for _ in range(40):
        k = int(rng.integers(1, 4))
        N = int(rng.integers(1, 4))
        w = _random_shifts(rng, k)
        a = complex(so_autocorr_det(N, w))
        b = complex(so_autocorr_schur(N, w))
        c = complex(so_autocorr_eps(N, w))
        scale = max(1.0, abs(a))
        assert abs(a - b) <= 1e-9 * scale
        assert abs(a - c) <= 1e-9 * scale


def test_so_quadrature_oracle():
    rng = np.random.default_rng(71)
    for N in (1, 2, 3):
        k = int(rng.integers(1, 3))
        w = _random_shifts(rng, k)
        exact = complex(so_autocorr_schur(N, w))
        oracle = weyl_autocorrelation(group("so", N), w)
        assert abs(exact - oracle) <= 1e-8 * max(1.0, abs(oracle))


def test_so_symmetry():
    w = [0.7, 1.1 + 0.4j, -0.6 + 0.8j]
    base = complex(so_autocorr_schur(2, w))
    for perm in itertools.permutations(w):
        assert complex(so_autocorr_schur(2, list(perm))) == pytest.approx(base, rel=1e-10)


# ---------------------------------------------------------------------------
# Partial sums
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N,k", [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)])
def test_partial_sums_decompose_so(N, k):
    rng = np.random.default_rng(100 * N + k)
    w = _random_shifts(rng, k)
    n_max = 2 * N + k - 1
    if k % 2 == 0:
        parts = [so_partial_sums("M", n_max, w), so_partial_sums("E", n_max, w)]
    else:
        parts = [so_partial_sums("R", n_max, w), so_partial_sums("L", n_max, w)]
    total = sum(complex(p.value) for p in parts)
    exact = complex(so_autocorr_det(N, w))
    assert abs(total - exact) <= 1e-10 * max(1.0, abs(exact))
    for p in parts:
        assert p.residual <= 1e-10 * max(1.0, abs(complex(p.value)))


@pytest.mark.parametrize("digits, tol", [(None, 1e-13), (40, 1e-35)], ids=["double", "ext40"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_partial_sum_closed_forms_match_subset_stats(k, digits, tol):
    # the closed form against a 60-digit sum of subset_stats terms over
    # script-E Delta, relative to the sum of the terms' moduli
    prec = None if digits is None else PrecisionConfig.extended(digits)
    ref = PrecisionConfig.extended(60)
    spread = _random_shifts(np.random.default_rng(300 + k), k)
    variants = ("M", "E") if k % 2 == 0 else ("R", "L")
    for w, variant, n_max in itertools.product((spread, [0.0] + spread[1:]), variants,
                                                (0, 1, 2, 5)):
        terms = []
        for A in itertools.chain.from_iterable(itertools.combinations(range(k), size)
                                               for size in range(k + 1)):
            B = [i for i in range(k) if i not in A]
            if (len(B) % 2 == 0) == (variant in ("M", "R")):
                st = subset_stats(A, B, w, ref)
                with mp.workdps(60):
                    w_A, E, delta_A, delta_B = map(mp.mpc, (st.w_A, st.E, st.delta_A, st.delta_B))
                    terms.append((-1) ** (st.S - len(A)) * w_A ** n_max * E * delta_A * delta_B)
        closed = so_partial_sums(variant, n_max, w, prec).closed_form
        with mp.workdps(60):
            if all(t == 0 for t in terms):
                assert closed == 0, (variant, n_max, w)
                continue
            ws = [mp.mpc(x) for x in w]
            norm = mp.fprod(1 - x * y for x, y in itertools.combinations(ws, 2)) * mp.fprod(
                y - x for x, y in itertools.combinations(ws, 2))
            err = abs(mp.mpc(closed) - mp.fsum(terms) / norm)
            assert err <= tol * mp.fsum(abs(t) for t in terms) / abs(norm), (variant, n_max, w)


def test_partial_sums_parity_validation():
    with pytest.raises(ValueError):
        so_partial_sums("M", 5, [0.5])
    with pytest.raises(ValueError):
        so_partial_sums("R", 5, [0.5, 0.7])
    with pytest.raises(ValueError):
        so_partial_sums("X", 5, [0.5])


def test_partial_sums_k1_values():
    # I^R_n(w) = w^n and I^L_n(w) = 1 for a single shift
    r = so_partial_sums("R", 4, [0.7])
    l = so_partial_sums("L", 4, [0.7])
    assert complex(r.value) == pytest.approx(0.7 ** 4)
    assert complex(l.value) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# O^-(2N)
# ---------------------------------------------------------------------------

def test_ominus_k1_closed_forms():
    w = 1.4 + 0.2j
    for N in (1, 2, 3, 4, 5):
        expected = w ** (2 * N) - 1
        assert complex(ominus_autocorr_det(N, [w])) == pytest.approx(expected, rel=1e-12)
        assert complex(ominus_autocorr_eps(N, [w])) == pytest.approx(expected, rel=1e-12)
        assert complex(ominus_autocorr_schur(N, [w])) == pytest.approx(expected, rel=1e-12)
    assert complex(ominus_autocorr_det(1, [3.0])) == pytest.approx(8.0)
    assert complex(ominus_autocorr_det(2, [1.0 + 0j])) == pytest.approx(0.0)


def test_ominus_route_agreement_and_oracle():
    rng = np.random.default_rng(72)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        N = int(rng.integers(1, 4))
        w = _random_shifts(rng, k)
        a = complex(ominus_autocorr_det(N, w))
        b = complex(ominus_autocorr_eps(N, w))
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
    for N in (1, 2, 3):
        w = _random_shifts(rng, 2)
        exact = complex(ominus_autocorr_det(N, w))
        oracle = weyl_autocorrelation(group("ominus", N), w)
        assert abs(exact - oracle) <= 1e-8 * max(1.0, abs(oracle))


def test_ominus_factorization_through_symplectic_sum():
    rng = np.random.default_rng(73)
    for N in (1, 2, 3):
        w = _random_shifts(rng, 2)
        direct = complex(ominus_autocorr_det(N, w))
        # at size parameter 0 the parity sum degenerates to 1
        via_sp = complex(sp_autocorr_det(N - 1, w)) if N > 1 else 1.0
        prefactor = np.prod([x ** 2 - 1 for x in w])
        assert direct == pytest.approx(prefactor * via_sp, rel=1e-10)


def test_eps_reciprocal_structure():
    # after w^(-N) normalization SO is invariant under w -> 1/w, while the
    # coset value flips sign once per shift: Z(1/w) = (-1)^k Z(w), the
    # k-fold product of the per-factor sign flip of its functional equation
    rng = np.random.default_rng(74)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        N = int(rng.integers(1, 4))
        w = _random_shifts(rng, k)
        norm = np.prod([x ** (-N) for x in w])
        norm_inv = np.prod([x ** N for x in w])
        z_so = complex(so_autocorr_eps(N, w)) * norm
        z_so_flip = complex(so_autocorr_eps(N, [1 / x for x in w])) * norm_inv
        assert abs(z_so - z_so_flip) <= 1e-10 * max(1.0, abs(z_so))
        z_om = complex(ominus_autocorr_eps(N, w)) * norm
        z_om_flip = complex(ominus_autocorr_eps(N, [1 / x for x in w])) * norm_inv
        assert abs(z_om - (-1) ** k * z_om_flip) <= 1e-10 * max(1.0, abs(z_om))


def test_error_paths():
    with pytest.raises(NearConfluent):
        so_autocorr_det(1, [0.9, 0.9 + 1e-9])
    with pytest.raises(PoleHit):
        so_autocorr_eps(1, [0.0, 0.5])
    with pytest.raises(PoleHit):
        ominus_autocorr_eps(1, [2.0, 0.5])


# ---------------------------------------------------------------------------
# Contour forms
# ---------------------------------------------------------------------------

def test_orthogonal_contours():
    cfg = ContourConfig(nodes_per_dim=160)
    # SO k=1: exp(+alpha) convention
    a = 0.2
    assert abs(orthogonal_contour("so", 1, [a], cfg)
               - complex(so_autocorr_eps(1, [cmath.exp(a)]))) <= 1e-6
    assert abs(orthogonal_contour("ominus", 1, [a], cfg)
               - (cmath.exp(2 * a) - 1)) <= 1e-6
    al = [0.13, 0.21 + 0.05j]
    ws = [cmath.exp(x) for x in al]
    assert abs(orthogonal_contour("so", 2, al, cfg)
               - complex(so_autocorr_eps(2, ws))) <= 1e-6
    assert abs(orthogonal_contour("ominus", 2, al, cfg)
               - complex(ominus_autocorr_eps(2, ws))) <= 1e-6
    # node doubling stability
    v1 = orthogonal_contour("so", 1, [0.25], ContourConfig(nodes_per_dim=128))
    v2 = orthogonal_contour("so", 1, [0.25], ContourConfig(nodes_per_dim=256))
    assert abs(v1 - v2) <= 1e-8


# ---------------------------------------------------------------------------
# Full O(2N) and the pairing determinant
# ---------------------------------------------------------------------------

def test_full_o2n_examples():
    w = 0.9 + 0.2j
    assert complex(full_o2n_average(1, [w])) == pytest.approx(1.0)
    assert complex(full_o2n_average(3, [0.0])) == pytest.approx(1.0)


def test_full_o2n_coset_falls_back_to_schur():
    # w_1 w_2 = 1 puts a zero denominator in the coset's sign-vector sum
    N, w = 2, [0.8 + 0.3j, 1 / (0.8 + 0.3j)]
    with pytest.raises(PoleHit):
        ominus_autocorr_eps(N, w)
    expected = (complex(so_autocorr_schur(N, w)) + complex(ominus_autocorr_schur(N, w))) / 2
    assert complex(full_o2n_average(N, w)) == expected


def test_full_o2n_against_component_split_monte_carlo():
    N, w = 2, [0.6]
    exact = complex(full_o2n_average(N, w))
    # sample O(2N) with no component fix and average Lambda over eigenvalues
    rng = np.random.default_rng(7)
    mats = _haar_orthogonal_batch(rng, 40000, 2 * N, None)
    ev = np.linalg.eigvals(mats)
    vals = np.prod(1 - ev * w[0], axis=1)
    mean = complex(vals.mean())
    se = float(np.sqrt(np.sum(np.abs(vals - mean) ** 2) / (len(vals) - 1) / len(vals)))
    assert abs(mean - exact) <= 4 * se


def test_full_o2n_monte_carlo_per_component():
    spec = group("ominus", 2)
    w = [0.7]
    exact = complex(ominus_autocorr_eps(2, w))
    mean, se = monte_carlo_average(spec, autocorr_integrand(spec, w), 11, 40000)
    assert abs(mean - exact) <= 4 * se


def test_pairing_determinant_exact():
    for N in range(1, 11):
        assert pairing_determinant(N) == 2 ** (N - 1)
    m = pairing_matrix(3)
    assert m == [[1, 1, 1], [-1, 1, 1], [-1, -1, 1]]


@pytest.mark.parametrize("call,error", [
    (lambda: so_partial_sums("M", 4, [2.0, 0.5]), PoleHit),  # script-E vanishes: w1 w2 = 1
    (lambda: orthogonal_contour("usp", 1, [0.1]), ValueError),
], ids=["script-E-vanishes", "self-dual-family"])
def test_input_guards(call, error):
    with pytest.raises(error):
        call()
