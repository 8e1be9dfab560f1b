"""The self-dual determinant and Schur sums against per-term loops.

Each reference below is the plain loop over the terms the sums add up:
one `schur_stable` or one `num.det` per partition or index vector, summed
by `num.fsum`.  At 60 digits the sums equal their loops to 1e-50; in
double and at 40 digits they are within 1e-12 and 1e-30 of the 60-digit
values.  Both sides fail the same way where the loop fails.
"""

import cmath
import functools
import itertools
import time
import tracemalloc
from itertools import chain

import pytest

from rmt_autocorr import routes
from rmt_autocorr.orthogonal import (
    _odd_partitions_exact,
    ominus_autocorr_det,
    ominus_autocorr_schur,
    so_autocorr_det,
    so_autocorr_schur,
    so_partial_sums,
)
from rmt_autocorr.precision import PrecisionConfig, ops_for
from rmt_autocorr.symcore import (
    Partition,
    conjugate_partition,
    enumerate_even_partitions,
    enumerate_so_index_sets,
    require_separated,
    schur_stable,
    vandermonde,
)
from rmt_autocorr.symplectic import parity_index_vectors, sp_autocorr_det, sp_autocorr_schur

from test_symcore import itertools_partial

EXT = PrecisionConfig.extended(40)
REF = PrecisionConfig.extended(60)
TOL = {None: 1e-12, EXT: 1e-30, REF: 1e-50}
SPREAD = (0.9, 0.7 + 0.3j, -0.5 + 0.6j, 1.2 - 0.4j)
WITH_ZERO = (0.0, 0.6 - 0.2j, -0.8j, 1.1 + 0.5j)
COINCIDENT = (0.8 + 0.1j, 0.8 + 0.1j, -0.6 + 0.3j, 0.8 + 0.1j)


def schur_loop(parts, shifts, prec):
    num = ops_for(prec)
    with num.guard():
        return num.fsum([schur_stable(lam, shifts, prec) for lam in parts])


def det_loop(shifts, vectors, prec):
    require_separated(shifts, "shifts")
    num = ops_for(prec)
    with num.guard():
        ws = [num.scalar(w) for w in shifts]
        terms = [num.det([[w ** e for e in vec] for w in ws]) for vec in vectors]
        return num.fsum(terms) / vandermonde(ws, prec)


def coset(value_at_n_minus_1, shifts, prec):
    num = ops_for(prec)
    with num.guard():
        value = value_at_n_minus_1
        for w in shifts:
            ws = num.scalar(w)
            value = value * (ws * ws - num.one)
        return value


def sp_schur_loop(N, shifts, prec):
    return schur_loop(enumerate_even_partitions(len(shifts), 2 * N), shifts, prec)


def so_schur_loop(N, shifts, prec):
    k = len(shifts)
    conjugates = chain(map(Partition, _odd_partitions_exact(2 * N, k)),
                       enumerate_even_partitions(2 * N, k - k % 2))
    return schur_loop((conjugate_partition(lp).padded(k) for lp in conjugates), shifts, prec)


def sp_det_loop(N, shifts, prec):
    return det_loop(shifts, parity_index_vectors(len(shifts), 2 * N + len(shifts) - 1), prec)


ROUTES = {
    "sp schur": (sp_autocorr_schur, sp_schur_loop),
    "so schur": (so_autocorr_schur, so_schur_loop),
    "ominus schur": (ominus_autocorr_schur,
                     lambda N, s, p: coset(sp_schur_loop(N - 1, s, p), s, p)),
    "sp det": (sp_autocorr_det, sp_det_loop),
    "so det": (so_autocorr_det,
               lambda N, s, p: det_loop(s, enumerate_so_index_sets(len(s), N), p)),
    "ominus det": (ominus_autocorr_det,
                   lambda N, s, p: coset(sp_det_loop(N - 1, s, p), s, p)),
}


def _value(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the routes must fail the same way the loops do
        return type(exc).__name__


@functools.lru_cache(maxsize=None)
def _loop_at_60_digits(route, N, shifts):
    return _value(ROUTES[route][1], N, shifts, REF)


def _assert_within(got, expected, tol, where):
    """|got - expected| <= tol, relative above magnitude 1; an error name
    must be the same name."""
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected, where
    else:
        assert abs(got - expected) <= tol * max(1, abs(expected)), (where, got, expected)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("prec", [None, EXT, REF], ids=["double", "ext40", "ext60"])
@pytest.mark.parametrize("N", [1, 2, 8])
def test_route_matches_its_per_term_loop(route, prec, N):
    # the det routes refuse coincident shifts: both sides raise NearConfluent
    for shifts, k in itertools.product((SPREAD, WITH_ZERO, COINCIDENT), range(5)):
        _assert_within(_value(ROUTES[route][0], N, shifts[:k], prec),
                       _loop_at_60_digits(route, N, shifts[:k]), TOL[prec], (route, N, shifts[:k]))


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("prec", [None, EXT], ids=["double", "ext40"])
def test_route_keeps_its_digits_at_n32(route, prec):
    # 58,905 terms at k = 4 for USp: the 60-digit sum is the reference
    fn = ROUTES[route][0]
    for shifts, k in itertools.product((SPREAD, WITH_ZERO, COINCIDENT), range(1, 5)):
        _assert_within(_value(fn, 32, shifts[:k], prec), _value(fn, 32, shifts[:k], REF),
                       TOL[prec], (route, shifts[:k]))


def test_k0_sums_are_one():
    # every closed-form route: the moment with no shifts is the average of 1
    for family, table in routes.ROUTES.items():
        for name, route in table.items():
            for prec in (None, EXT):
                assert route(3, (), 0, prec) == 1, (family, name, prec)


@pytest.mark.parametrize("prec", [None, EXT, REF], ids=["double", "ext40", "ext60"])
@pytest.mark.parametrize("variant, m", [("M", 2), ("E", 2), ("M", 4), ("E", 4),
                                        ("R", 1), ("L", 1), ("R", 3), ("L", 3)])
def test_partial_sums_match_their_per_term_loop(variant, m, prec):
    # n_max 0 to 2 leave E without a vector at m = 2 and m = 4; coincident
    # shifts raise NearConfluent on both sides (from m = 2)
    for n_max, shifts in itertools.product((0, 1, 2, 3, 6, 11, 19),
                                           (SPREAD, WITH_ZERO, COINCIDENT)):
        expected = _value(det_loop, shifts[:m], itertools_partial(variant, m, n_max), REF)
        _assert_within(_value(lambda: so_partial_sums(variant, n_max, shifts[:m], prec).value),
                       expected, TOL[prec], (variant, n_max, shifts[:m]))


@pytest.mark.parametrize("route", [sp_autocorr_schur, sp_autocorr_det, so_autocorr_schur,
                                   so_autocorr_det, ominus_autocorr_schur, ominus_autocorr_det])
def test_large_sums_stream_their_terms(route):
    # k = 4, N = 32: up to 58,905 terms, none of them formed
    route(2, SPREAD)   # lazy imports are not the sum's working set
    tracemalloc.start()
    try:
        route(32, SPREAD)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2 ** 20


INSIDE = (0.9, 0.7 + 0.3j, -0.5 + 0.6j, 0.6 - 0.4j)
ON_CIRCLE = tuple(cmath.exp(1j * t) for t in (0.3, 1.1, 2.0, -2.5))
# 0.5 < |w| < 1.5, three shifts outside the unit disk, where the Schur sums
# lose every digit at N = 256 unless they fold |w| > 1 into the disk
ANNULUS = (1.2 + 0.5j, -0.4 + 0.7j, -1.1 - 0.6j, 0.5 - 1.3j)


@pytest.mark.parametrize("family", ["symplectic", "so", "ominus"])
@pytest.mark.parametrize("name", ["det", "schur"])
def test_sums_at_n256_agree_with_the_sign_vector_form(family, name):
    # about 1.9e8 terms for USp; the CLI's crosscheck tolerance, in under 0.1 s
    route = routes.ROUTES[family][name]
    for shifts in (INSIDE, ON_CIRCLE, ANNULUS):
        start = time.perf_counter()
        value = route(256, shifts, 0, None)
        seconds = time.perf_counter() - start
        _assert_within(value, complex(routes.ROUTES[family]["eps"](256, shifts, 0, REF)), 1e-9,
                       shifts)
        assert seconds < 0.1, seconds


def test_only_powers_in_use_can_overflow():
    # (2+0j) ** 2000 overflows: L at n_max = 2000 reads only w^0, R reads w^2000
    assert so_partial_sums("L", 2000, (2.0,)).value == 1
    with pytest.raises(OverflowError):
        det_loop((2.0,), [(2000,)], None)
    for overflowing in (lambda: so_partial_sums("R", 2000, (2.0,)),
                        lambda: sp_autocorr_det(1000, (2.0,)),
                        lambda: so_autocorr_det(1000, (2.0,))):
        with pytest.raises(OverflowError):
            overflowing()
