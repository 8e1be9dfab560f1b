"""USp(2N) routes, scaling limit, and functional-equation structure."""

import cmath
import itertools
import math

import numpy as np
import pytest

from rmt_autocorr import (
    ContourConfig,
    NearConfluent,
    PoleHit,
    PrecisionConfig,
    group,
    monte_carlo_average,
    ominus_autocorr_eps,
    so_autocorr_eps,
    sp_autocorr_contour,
    sp_autocorr_det,
    sp_autocorr_eps,
    sp_autocorr_schur,
    sp_large_n_ratio,
    weyl_autocorrelation,
)
from rmt_autocorr.haar import autocorr_integrand
from rmt_autocorr.symplectic import parity_index_vectors


def _random_shifts(rng, k, lo=0.5, hi=1.6, sep=0.25):
    out = []
    while len(out) < k:
        c = complex(rng.uniform(-hi, hi), rng.uniform(-hi, hi))
        if lo <= abs(c) <= hi and all(abs(c - p) >= sep for p in out) and \
           all(abs(1 - (c * p).real) + abs((c * p).imag) > 0.05 for p in out + [c]):
            out.append(c)
    return out


def closed_form_k1(N, w):
    return (1 - w ** (2 * N + 2)) / (1 - w ** 2)


def test_k1_closed_forms():
    w = 1.3 - 0.4j
    assert complex(sp_autocorr_det(1, [w])) == pytest.approx(1 + w ** 2)
    for N in (1, 2, 3, 4, 5):
        for route in (sp_autocorr_det, sp_autocorr_schur, sp_autocorr_eps):
            assert complex(route(N, [w])) == pytest.approx(closed_form_k1(N, w), rel=1e-12)
    assert complex(sp_autocorr_det(1, [2.0])) == pytest.approx(5.0)


def test_schur_route_examples():
    w1, w2 = 0.8 + 0.3j, -1.2 + 0.5j
    expected = 1 + (w1 ** 2 + w1 * w2 + w2 ** 2) + (w1 * w2) ** 2
    assert complex(sp_autocorr_schur(1, [w1, w2])) == pytest.approx(expected)
    assert complex(sp_autocorr_schur(3, [0.0, 0.0])) == pytest.approx(1.0)
    # 2 + 6 + 9 terms: k=2, N=1, shifts (2,3) -> 1 + 19 + 36 = 56
    assert complex(sp_autocorr_eps(1, [2.0, 3.0])) == pytest.approx(56.0)
    assert complex(sp_autocorr_schur(1, [2.0, 3.0])) == pytest.approx(56.0)


def test_term_counts():
    from rmt_autocorr import enumerate_even_partitions
    from rmt_autocorr.symplectic import _epsilon_vectors

    for k, N in ((1, 3), (2, 2), (3, 2)):
        assert len(list(enumerate_even_partitions(k, 2 * N))) == math.comb(k + N, k)
        assert len(set(_epsilon_vectors(k))) == 2 ** k
    # the parity constraint i_j == j - 1 mod 2 survives the enumeration
    for vec in parity_index_vectors(3, 8):
        assert all(v % 2 == j % 2 for j, v in enumerate(vec))


def test_route_agreement_random():
    rng = np.random.default_rng(60)
    for _ in range(40):
        k = int(rng.integers(1, 4))
        N = int(rng.integers(1, 4))
        w = _random_shifts(rng, k)
        a = complex(sp_autocorr_det(N, w))
        b = complex(sp_autocorr_schur(N, w))
        c = complex(sp_autocorr_eps(N, w))
        scale = max(1.0, abs(a))
        assert abs(a - b) <= 1e-9 * scale
        assert abs(a - c) <= 1e-9 * scale


def test_route_agreement_extended():
    prec = PrecisionConfig.extended(40)
    w = [0.8 + 0.3j, 1.2 - 0.5j]
    a = sp_autocorr_det(2, w, prec)
    b = sp_autocorr_schur(2, w, prec)
    c = sp_autocorr_eps(2, w, prec)
    assert float(abs(a - b)) <= 1e-25 * max(1.0, abs(complex(a)))
    assert float(abs(a - c)) <= 1e-25 * max(1.0, abs(complex(a)))


def test_quadrature_oracle():
    rng = np.random.default_rng(61)
    for N in (1, 2, 3):
        k = int(rng.integers(1, 3))
        w = _random_shifts(rng, k)
        exact = complex(sp_autocorr_schur(N, w))
        oracle = weyl_autocorrelation(group("usp", N), w)
        assert abs(exact - oracle) <= 1e-8 * max(1.0, abs(oracle))


def test_symmetry_under_permutations():
    w = [0.7, 1.1 + 0.4j, -0.6 + 0.8j]
    base = complex(sp_autocorr_schur(2, w))
    for perm in itertools.permutations(w):
        assert complex(sp_autocorr_schur(2, list(perm))) == pytest.approx(base, rel=1e-10)


def test_reality_structure_of_eps_sum():
    # real shifts: the value is a positive-coefficient polynomial, so real
    w_real = [cmath.exp(-a) for a in (0.3, -0.7, 1.1)]
    val = complex(sp_autocorr_eps(2, w_real))
    assert abs(val.imag) <= 1e-10 * max(1.0, abs(val))
    # unit-circle shifts: conjugation plus eps -> -eps makes the
    # w^(-N)-normalized value real
    w_circ = [cmath.exp(-1j * a) for a in (0.3, -0.7, 1.1)]
    z = complex(sp_autocorr_eps(2, w_circ)) * np.prod([x ** (-2) for x in w_circ])
    assert abs(z.imag) <= 1e-10 * max(1.0, abs(z))


def test_z_normalized_reciprocal_invariance():
    rng = np.random.default_rng(62)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        N = int(rng.integers(1, 4))
        w = _random_shifts(rng, k)
        direct = complex(sp_autocorr_eps(N, w))
        flipped = complex(sp_autocorr_eps(N, [1 / x for x in w]))
        z_direct = direct * np.prod([x ** (-N) for x in w])
        z_flipped = flipped * np.prod([x ** N for x in w])
        assert abs(z_direct - z_flipped) <= 1e-10 * max(1.0, abs(z_direct))


def test_error_paths():
    with pytest.raises(NearConfluent):
        sp_autocorr_det(2, [1.0, 1.0 + 1e-9])
    with pytest.raises(PoleHit):
        sp_autocorr_eps(2, [0.0])
    with pytest.raises(PoleHit):
        sp_autocorr_eps(2, [2.0, 0.5])  # w1 * w2 = 1 pole
    with pytest.raises(PoleHit):
        sp_autocorr_eps(1, [1.0])  # diagonal 1 - w^(-2) pole
    # the Schur route is total where eps fails: 1 + w^2 at w = 1
    assert complex(sp_autocorr_schur(1, [1.0])) == pytest.approx(2.0)


def test_contour_route():
    cfg = ContourConfig(nodes_per_dim=160)
    assert abs(sp_autocorr_contour(2, [0.1], cfg)
               - complex(sp_autocorr_eps(2, [cmath.exp(-0.1)]))) <= 1e-6
    al = [0.1, 0.25]
    exact = complex(sp_autocorr_eps(1, [cmath.exp(-a) for a in al]))
    assert abs(sp_autocorr_contour(1, al, cfg) - exact) <= 1e-6
    # doubling the nodes barely moves the answer
    v1 = sp_autocorr_contour(2, [0.17], ContourConfig(nodes_per_dim=128))
    v2 = sp_autocorr_contour(2, [0.17], ContourConfig(nodes_per_dim=256))
    assert abs(v1 - v2) <= 1e-8


def test_monte_carlo_oracle():
    spec = group("usp", 2)
    w = [0.5]
    exact = complex(sp_autocorr_eps(2, w))
    mean, se = monte_carlo_average(spec, autocorr_integrand(spec, w), 99, 60000)
    assert abs(mean - exact) <= 4 * se


def test_large_n_ratio():
    assert abs(complex(sp_large_n_ratio([1.0], 1000)) - 1) <= 5e-3
    assert abs(complex(sp_large_n_ratio([1.0, 0.5], 10000)) - 1) <= 2e-3
    r1 = abs(complex(sp_large_n_ratio([1.0], 1000)) - 1)
    r2 = abs(complex(sp_large_n_ratio([1.0], 2000)) - 1)
    assert r2 < r1
    with pytest.raises(PoleHit):
        sp_large_n_ratio([1.0, -1.0], 100)  # b_i + b_j = 0 across signs
    with pytest.raises(PoleHit):
        sp_large_n_ratio([0.0], 100)


@pytest.mark.parametrize("N", [0, -3])
def test_large_n_ratio_refuses_sizes_below_one(N):
    with pytest.raises(ValueError, match="N must be >= 1"):
        sp_large_n_ratio([1.0], N)


def test_large_n_ratio_complex_b():
    val = complex(sp_large_n_ratio([0.5 + 0.3j, 1.2], 5000))
    assert abs(val - 1) <= 2e-3


def test_reflection_guards_in_extended_precision():
    ext = PrecisionConfig(40)
    with pytest.raises(PoleHit):
        sp_autocorr_eps(2, [2.0, 0.5], ext)  # w1 * w2 = 1 pole
    with pytest.raises(PoleHit):
        sp_large_n_ratio([1.0, -1.0], 100, ext)  # b_1 - b_2 = 0


@pytest.mark.parametrize("route", [sp_autocorr_eps, so_autocorr_eps, ominus_autocorr_eps])
@pytest.mark.parametrize("prec", [None, PrecisionConfig(40)], ids=["double", "extended"])
def test_reflection_denominator_floor(route, prec):
    # 1 - w_2 / w_1 is 5e-7 below the floor EPS_DENOM_FLOOR = 1e-6 and 2e-6
    # above it; only refusal or an answer is asserted, since at 2e-6 the
    # double value has already lost digits
    with pytest.raises(PoleHit):
        route(2, [0.7, 0.7 * (1 + 5e-7)], prec)
    assert cmath.isfinite(complex(route(2, [0.7, 0.7 * (1 + 2e-6)], prec)))
