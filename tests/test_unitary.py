"""The four unitary evaluation routes and the shifted-product average."""

import cmath
import itertools
import math
from decimal import Decimal

import numpy as np
import pytest

from rmt_autocorr import (
    ContourConfig,
    PoleHit,
    NearConfluent,
    PrecisionConfig,
    UnitaryQuery,
    autocorr_comb,
    autocorr_contour,
    autocorr_det,
    autocorr_schur,
    group,
    monte_carlo_average,
    shifted_product_average,
    weyl_autocorrelation,
)
from rmt_autocorr.haar import autocorr_integrand
from rmt_autocorr.precision import ops_for
from rmt_autocorr.routes import ROUTES
from rmt_autocorr.symcore import Partition, schur_stable


def _random_shifts(rng, n, lo=0.5, hi=2.0, sep=0.3):
    out = []
    while len(out) < n:
        c = complex(rng.uniform(-hi, hi), rng.uniform(-hi, hi))
        if lo <= abs(c) <= hi and all(abs(c - p) >= sep for p in out):
            out.append(c)
    return out


def test_schur_route_examples():
    assert complex(autocorr_schur(UnitaryQuery(3, 2, (0.4, 1.7j)))) == pytest.approx(1.0)
    w1, w2 = 1.1 - 0.3j, 0.6 + 0.9j
    assert complex(autocorr_schur(UnitaryQuery(2, 1, (w1, w2)))) == \
        pytest.approx(w1 ** 2 + w1 * w2 + w2 ** 2)
    assert complex(autocorr_schur(UnitaryQuery(2, 1, (1.0, 1.0)))) == pytest.approx(3.0)
    assert complex(autocorr_schur(UnitaryQuery(3, 1, (0.0, 0.0)))) == pytest.approx(0.0)


def test_det_route_examples():
    w = 0.7 + 0.4j
    assert complex(autocorr_det(UnitaryQuery(1, 0, (w,)))) == pytest.approx(w)
    assert complex(autocorr_det(UnitaryQuery(4, 3, (0.5, 1.5, 2j)))) == pytest.approx(1.0)
    with pytest.raises(NearConfluent):
        autocorr_det(UnitaryQuery(2, 1, (1.0, 1.0 + 1e-9)))


@pytest.mark.parametrize("prec", [None, PrecisionConfig.extended(40)], ids=["double", "ext40"])
def test_det_route_refusals_and_no_shifts(prec):
    det = ROUTES["unitary"]["det"]
    assert det(3, (), 0, prec) == 1
    with pytest.raises(NearConfluent):
        det(2, (1.0, 1.0 + 1e-9), 1, prec)
    with pytest.raises(NearConfluent):
        det(4, (0.5j, 0.7, 0.5j), 0, prec)
    with pytest.raises(ValueError, match="N must be >= 1"):
        det(0, (0.5, 0.3j), 1, prec)
    with pytest.raises(ValueError, match="0 <= m <= n"):
        det(2, (0.5, 0.3j), 3, prec)


def test_comb_route_examples():
    # quadrature-pinned fixture: I_{1,2}(U(2), (2,3)) = 19
    assert complex(autocorr_comb(UnitaryQuery(2, 1, (2.0, 3.0)))) == pytest.approx(19.0)
    # m = 0: single term (w1 w2)^N
    assert complex(autocorr_comb(UnitaryQuery(3, 0, (2.0, 0.5j)))) == \
        pytest.approx((2.0 * 0.5j) ** 3)
    # m = n: single empty-product term, and no w^N formed (3^(10^6) would overflow)
    assert complex(autocorr_comb(UnitaryQuery(5, 2, (2.0, 0.5j)))) == pytest.approx(1.0)
    assert autocorr_comb(UnitaryQuery(10**6, 2, (2.0, 3.0))) == 1
    with pytest.raises(PoleHit):
        autocorr_comb(UnitaryQuery(2, 1, (0.0, 1.0)))
    with pytest.raises(PoleHit):
        autocorr_comb(UnitaryQuery(2, 1, (1.3, 1.3)))


@pytest.mark.parametrize("prec", [None, PrecisionConfig.extended(40)], ids=["double", "ext40"])
@pytest.mark.parametrize("delta", [1e-7, 1e-9, 0.0])
def test_comb_refuses_below_the_separation_threshold(delta, prec):
    # the split sum divides by 1 - w_l / w_q, about delta
    w = cmath.exp(0.1)
    with pytest.raises(PoleHit, match="equal shifts across a split"):
        autocorr_comb(UnitaryQuery(2, 1, (w, w * cmath.exp(delta))), prec)


def test_route_agreement_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(1, 5))
        m = int(rng.integers(0, n + 1))
        q = UnitaryQuery(N, m, tuple(_random_shifts(rng, n)))
        a = complex(autocorr_schur(q))
        b = complex(autocorr_det(q))
        c = complex(autocorr_comb(q))
        scale = max(1.0, abs(a))
        assert abs(a - b) <= 1e-9 * scale
        assert abs(a - c) <= 1e-9 * scale


def test_route_agreement_extended_precision():
    prec = PrecisionConfig.extended(40)
    rng = np.random.default_rng(43)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        q = UnitaryQuery(int(rng.integers(1, 5)), int(rng.integers(0, n + 1)),
                         tuple(_random_shifts(rng, n)))
        a = autocorr_schur(q, prec)
        b = autocorr_det(q, prec)
        c = autocorr_comb(q, prec)
        scale = max(1.0, abs(complex(a)))
        assert float(abs(a - b)) <= 1e-25 * scale
        assert float(abs(a - c)) <= 1e-25 * scale


def test_extended_shifts_keep_their_digits():
    # 31-digit shifts: rounded to doubles, w is off by 5.6e-17 relative
    exact = ops_for(PrecisionConfig(60)).scalar
    w = exact(Decimal("0.1000000000000000000000000000001"))
    v = exact(Decimal("-0.3000000000000000000000000000007"))
    p40, p60 = PrecisionConfig(40), PrecisionConfig(60)
    shifts = (w, 0.7, v)
    schur = schur_stable(Partition((3, 3, 0)), shifts, p60)   # N = 3, m = 1
    for route in (autocorr_schur, autocorr_det, autocorr_comb):
        with ops_for(p60).guard():
            assert abs(route(UnitaryQuery(1, 0, (w,)), p40) - w) <= 1e-39 * abs(w)
            high = route(UnitaryQuery(3, 1, shifts), p60)
            assert abs(high - schur) <= 1e-55 * abs(schur)
            assert abs(route(UnitaryQuery(3, 1, shifts), p40) - high) <= 1e-35 * abs(high)


def test_full_symmetry_under_all_permutations():
    rng = np.random.default_rng(44)
    w = _random_shifts(rng, 3)
    base = complex(autocorr_schur(UnitaryQuery(2, 1, tuple(w))))
    for perm in itertools.permutations(w):
        val = complex(autocorr_schur(UnitaryQuery(2, 1, perm)))
        assert val == pytest.approx(base, rel=1e-10)


def test_quadrature_oracle_agreement():
    rng = np.random.default_rng(45)
    for N in (1, 2, 3):
        for n in (1, 2, 3):
            m = int(rng.integers(0, n + 1))
            w = _random_shifts(rng, n, lo=0.4, hi=1.6, sep=0.2)
            exact = complex(autocorr_schur(UnitaryQuery(N, m, tuple(w))))
            oracle = weyl_autocorrelation(group("u", N), w, m=m)
            assert abs(exact - oracle) <= 1e-8 * max(1.0, abs(oracle))


def test_polynomial_degree_bound():
    # finite difference of order N + n annihilates a polynomial of degree
    # <= N + n - 1 in each shift separately
    rng = np.random.default_rng(46)
    N, n, m = 2, 3, 1
    w = _random_shifts(rng, n)
    d = N + n
    h = 0.3
    for j in range(n):
        vals = []
        for t in range(d + 1):
            shifted = list(w)
            shifted[j] = w[j] + t * h
            vals.append(math.comb(d, t) * (-1) ** t
                        * complex(autocorr_schur(UnitaryQuery(N, m, tuple(shifted)))))
        diff = sum(vals)
        scale = sum(abs(v) for v in vals)
        assert abs(diff) <= 1e-8 * max(1.0, scale)


def test_shifted_product_average_examples():
    assert complex(shifted_product_average(1, [0.0], 0)) == pytest.approx(1.0)
    assert complex(shifted_product_average(2, [1.0, 1.0], 1)) == pytest.approx(3.0)
    with pytest.raises(PoleHit):
        shifted_product_average(2, [0.0, 1.0], 1)


def test_shifted_product_average_matches_quadrature():
    rng = np.random.default_rng(47)
    N, n, m = 2, 2, 1
    s = _random_shifts(rng, n, lo=0.5, hi=1.5)
    exact = complex(shifted_product_average(N, s, m))
    spec = group("u", N)

    def integrand(T):
        E = np.exp(1j * T)
        out = np.ones(T.shape[0], dtype=complex)
        for i in range(m):
            out *= np.prod(1 - E / s[i], axis=1)
        for j in range(m, n):
            out *= np.prod(1 - np.conj(E) * s[j], axis=1)
        return out

    from rmt_autocorr import quadrature_average
    oracle = quadrature_average(spec, integrand, nodes_per_dim=48)
    assert exact == pytest.approx(oracle, rel=1e-9)


def test_shifted_product_average_against_monte_carlo():
    rng = np.random.default_rng(48)
    N, n, m = 5, 2, 1
    s = [complex(np.exp(2j * np.pi * rng.random())) for _ in range(n)]
    exact = complex(shifted_product_average(N, s, m))
    spec = group("u", N)

    def integrand(T):
        E = np.exp(1j * T)
        out = np.prod(1 - E / s[0], axis=1)
        out *= np.prod(1 - np.conj(E) * s[1], axis=1)
        return out

    mean, se = monte_carlo_average(spec, integrand, 77, 50000)
    assert abs(mean - exact) <= 4 * se


def test_shifted_product_average_matches_reindexed_comb_on_unit_circle():
    # imaginary alphas put the shifts on the unit circle
    rng = np.random.default_rng(49)
    for n, m in ((2, 1), (4, 2), (3, 1)):
        alphas = [1j * a for a in rng.uniform(-0.8, 0.8, n)]
        while min(abs(a - b) for i, a in enumerate(alphas) for b in alphas[:i]) < 1e-2:
            alphas = [1j * a for a in rng.uniform(-0.8, 0.8, n)]
        N = int(rng.integers(1, 5))
        s = [cmath.exp(a) for a in alphas]
        via_ci = complex(shifted_product_average(N, s, m))
        reordered = tuple(s[m:]) + tuple(s[:m])
        comb = complex(autocorr_comb(UnitaryQuery(N, n - m, reordered)))
        for x in s[:m]:
            comb *= x ** (-N)
        assert abs(via_ci - comb) <= 1e-10 * max(1.0, abs(comb))


def test_contour_route_agreement():
    cfg = ContourConfig(nodes_per_dim=160)
    # m = n = 1: single simple pole, value 1
    assert autocorr_contour(3, [0.07], 1, cfg) == pytest.approx(1.0, abs=1e-10)
    # n = 2 cross-route
    for alphas, N, m in ([(0.1, -0.2j), 2, 1], [(0.15 + 0.1j, -0.12), 4, 1],
                         [(0.2, -0.25), 3, 2]):
        w = tuple(cmath.exp(-a) for a in alphas)
        exact = complex(autocorr_schur(UnitaryQuery(N, m, w)))
        val = autocorr_contour(N, list(alphas), m, cfg)
        assert abs(val - exact) <= 1e-6 * max(1.0, abs(exact))


def test_unitary_mc_matches_schur():
    rng = np.random.default_rng(50)
    N, n, m = 3, 2, 1
    w = _random_shifts(rng, n, lo=0.5, hi=1.2)
    spec = group("u", N)
    exact = complex(autocorr_schur(UnitaryQuery(N, m, tuple(w))))
    mean, se = monte_carlo_average(spec, autocorr_integrand(spec, w, m), 7, 40000)
    assert abs(mean - exact) <= 4 * se


def test_query_validation():
    with pytest.raises(ValueError):
        UnitaryQuery(0, 0, (1.0,))
    with pytest.raises(ValueError):
        UnitaryQuery(2, 3, (1.0, 2.0))


@pytest.mark.parametrize("call", [
    lambda: shifted_product_average(1, [0.5], 2),
    lambda: autocorr_contour(1, [0.5], 2),
], ids=["shifted-product-average", "contour"])
def test_input_guards(call):
    with pytest.raises(ValueError, match="need 0 <= m <= n"):
        call()
