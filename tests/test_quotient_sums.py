"""The sign-vector and block-split sums against flat per-term loops.

Each reference is the plain loop over the terms: the product of the
term's powers divided by each of its pair factors in turn, the factors
computed afresh per term, added by `num.fsum`.  In double the routes
(through the op set's `quotient_sum`) must equal their loop bit for bit,
compared by `repr`.  At 40 digits, where `quotient_sum` divides each term
once by the product of its factors, they must be within 1e-38 relative of
the loop at 60 digits, relative to the larger of the value and 1% of the
sum of its terms' moduli: a sum that cancels c-fold loses about c
roundings on either grouping.  The sign-vector and block-split draws below
meet 1e-38 of the value (at most 2.4e-39); the asymptotic sum of the
large-N ratio cancels up to 7e7-fold at k = 6, where the value is off by
1.3e-34 (5.6e-35 with a division per factor).
"""

import cmath
import itertools
import math

import numpy as np
import pytest

from rmt_autocorr.precision import PrecisionConfig, ops_for
from rmt_autocorr.symplectic import reflection_sum, sp_large_n_ratio
from rmt_autocorr.unitary import UnitaryQuery, autocorr_comb

EXT, REF = PrecisionConfig(40), PrecisionConfig(60)
SIZES = (1, 2, 8, 33)


def _points(seed, k, lo, hi):
    """k seeded points with lo <= |w| <= hi whose pairwise differences and
    sums, and each point's double, are at least 0.2 in modulus."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < k:
        w = cmath.rect(rng.uniform(lo, hi), rng.uniform(0, 2 * math.pi))
        if all(min(abs(w - v), abs(w + v)) >= 0.2 for v in out + [0]):
            out.append(w)
    return tuple(out)


def _shifts(seed, k, lo=0.6, hi=1.4):
    """`_points` that also keep |1 - w_i w_j| >= 0.2, i <= j, away from the
    sign-vector poles."""
    for attempt in itertools.count(seed * 1000):
        ws = _points(attempt, k, lo, hi)
        if all(abs(1 - w * v) >= 0.2 for i, w in enumerate(ws) for v in ws[i:]):
            return ws


def _summed(num, terms):
    """(fsum of the terms, the sum of their moduli)."""
    return num.fsum(terms), num.fsum(abs(t) for t in terms)


def flat_reflection_sum(N, shifts, prec, diagonal, signed):
    """(value, sum of the terms' moduli times |w_1..w_k|^N)."""
    num = ops_for(prec)
    k = len(shifts)
    pairs = [(i, j) for i in range(k) for j in range(i if diagonal else i + 1, k)]
    with num.guard():
        ws = [num.scalar(w) for w in shifts]
        terms = []
        for eps in itertools.product((1, -1), repeat=k):
            t = -num.one if signed and math.prod(eps) < 0 else num.one
            for w, e in zip(ws, eps):
                t = t * w ** (e * N)
            for i, j in pairs:
                t = t / (num.one - ws[i] ** (-eps[i]) * ws[j] ** (-eps[j]))
            terms.append(t)
        total, size = _summed(num, terms)
        for w in ws:
            total, size = total * w ** N, size * abs(w ** N)
        return total, size


def flat_large_n_ratio(b, N, prec):
    """(value, |value| times the sum of the two sums' cancellation ratios)."""
    num = ops_for(prec)
    k = len(b)
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    with num.guard():
        bs = [num.scalar(x) for x in b]

        def x(i, j, eps):
            return eps[i] * bs[i] + eps[j] * bs[j]

        def total(divisor):
            terms = []
            for eps in itertools.product((1, -1), repeat=k):
                t = num.one
                for j, e in enumerate(eps):
                    t = t * num.exp(e * bs[j])
                for i, j in pairs:
                    t = t / divisor(i, j, eps)
                terms.append(t)
            return _summed(num, terms)

        (exact, exact_size), (asym, asym_size) = (
            total(lambda i, j, eps: -num.expm1(-x(i, j, eps) / N)), total(x))
        value = exact / (num.scalar(N) ** ((k * k + k) // 2) * asym)
        return value, abs(value) * (exact_size / abs(exact) + asym_size / abs(asym))


def flat_comb(N, shifts, m, prec):
    """(value, sum of the terms' moduli)."""
    num = ops_for(prec)
    n = len(shifts)
    with num.guard():
        w = [num.scalar(x) for x in shifts]
        terms = []
        for left in itertools.combinations(range(n), m):
            right = [q for q in range(n) if q not in left]
            t = num.one
            for q in right:
                t = t * w[q] ** N
            for l in left:
                for q in right:
                    t = t / (num.one - w[l] / w[q])
            terms.append(t)
        return _summed(num, terms)


def _assert_matches(route, flat, *args):
    """The double route is its loop, by repr; the 40-digit one is within
    1e-38 of the 60-digit loop, relative to max(|value|, size / 100)."""
    assert repr(route(*args, None)) == repr(flat(*args, None)[0])
    got = route(*args, EXT)
    want, size = flat(*args, REF)
    with REF.guard():
        assert abs(got - want) <= 1e-38 * max(abs(want), size / 100), (args, got, want, size)


@pytest.mark.parametrize("k", range(7))
def test_reflection_sum_is_its_flat_loop(k):
    for seed, N in enumerate(SIZES):
        shifts = _shifts(100 * k + seed, k)
        for diagonal, signed in itertools.product((True, False), repeat=2):
            _assert_matches(lambda *a: reflection_sum(*a[:2], a[4], *a[2:4]),
                            lambda *a: flat_reflection_sum(*a[:2], a[4], *a[2:4]),
                            N, shifts, diagonal, signed)


@pytest.mark.parametrize("k", range(1, 7))
def test_large_n_ratio_is_its_flat_loop(k):
    for seed, N in enumerate((3, 50, 10_000)):
        _assert_matches(sp_large_n_ratio, flat_large_n_ratio,
                        _points(200 * k + seed, k, 1.0, 3.0), N)


@pytest.mark.parametrize("n", range(1, 7))
def test_comb_is_its_flat_loop(n):
    for seed, N in enumerate(SIZES):
        shifts = _shifts(300 * n + seed, n, 0.3, 1.3)
        for m in range(n + 1):
            _assert_matches(lambda N, shifts, m, prec: autocorr_comb(UnitaryQuery(N, m, shifts), prec),
                            flat_comb, N, shifts, m)


def test_quotient_sum_signs_and_empty_products():
    # (negative, numerator positions, divisor positions); an empty product is 1
    terms = ((False, (0, 1), (0, 1, 2)), (True, (), (2,)), (True, (1,), ()))
    for prec in (None, EXT):
        num = ops_for(prec)
        with num.guard():
            (a, b), (c, d, e) = ([num.scalar(x) for x in xs]
                                 for xs in ((2, 3 + 1j), (5, 7j, 0.5 - 1j)))
            first = a * b / (c * d * e)
            for signed, sign in ((False, 1), (True, -1)):
                got = num.quotient_sum(terms, [a, b], [c, d, e], signed)
                assert abs(complex(got - (first + sign * (1 / e + b)))) < 1e-15
