"""The batched Schur and determinant sums against per-term loops, repr for repr.

Each reference below is the plain loop the batched sums replace: one
`schur_stable` or one `num.det` per partition or index vector, summed by
`num.fsum`.  Values must agree in every bit (repr), at double and at 40
digits.
"""

import itertools
import tracemalloc
from itertools import chain

import pytest

from rmt_autocorr import routes, symcore
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
    chunk_rows,
    conjugate_partition,
    det_sum_over_vandermonde,
    enumerate_even_partitions,
    enumerate_so_index_sets,
    partial_index_chunks,
    require_separated,
    schur_stable,
    vandermonde,
)
from rmt_autocorr.symplectic import parity_index_vectors, sp_autocorr_det, sp_autocorr_schur

EXT = PrecisionConfig.extended(40)
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


def _both(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:  # the routes must fail the same way the loops do
        return type(exc).__name__


def _at_chunk_sizes(monkeypatch, fn, *args):
    """fn(*args) at the default chunk size and at chunks of 7 rows, where
    N = 8, k = 4 (495 terms) crosses 70 chunk seams and chained index
    families meet inside a chunk."""
    values = [_both(fn, *args)]
    with monkeypatch.context() as patched:
        patched.setattr(symcore, "_CHUNK", 7)
        values.append(_both(fn, *args))
    return values


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("prec", [None, EXT], ids=["double", "ext40"])
@pytest.mark.parametrize("N", [1, 2, 8])
def test_route_matches_its_per_term_loop(route, prec, N, monkeypatch):
    batched, loop = ROUTES[route]
    # the det routes refuse coincident shifts: both sides raise NearConfluent
    for shifts, k in itertools.product((SPREAD, WITH_ZERO, COINCIDENT), range(5)):
        args = (N, shifts[:k], prec)
        assert _at_chunk_sizes(monkeypatch, batched, *args) == [_both(loop, *args)] * 2, \
            (route, args)


def test_k0_sums_are_one():
    # every closed-form route: the moment with no shifts is the average of 1
    for family, table in routes.ROUTES.items():
        for name, route in table.items():
            for prec in (None, EXT):
                assert route(3, (), 0, prec) == 1, (family, name, prec)


@pytest.mark.parametrize("prec", [None, EXT], ids=["double", "ext40"])
@pytest.mark.parametrize("variant, m", [("M", 2), ("E", 2), ("M", 4), ("E", 4),
                                        ("R", 1), ("L", 1), ("R", 3), ("L", 3)])
def test_partial_sums_match_their_per_term_loop(variant, m, prec, monkeypatch):
    for n_max, shifts in itertools.product((3, 6, 11, 19), (SPREAD, WITH_ZERO)):
        values = _at_chunk_sizes(monkeypatch, lambda *a: so_partial_sums(*a).value,
                                 variant, n_max, shifts[:m], prec)
        expected = det_loop(shifts[:m], chunk_rows(partial_index_chunks(variant, m, n_max)), prec)
        assert values == [repr(expected)] * 2, (variant, n_max, shifts[:m])


@pytest.mark.parametrize("route", [sp_autocorr_schur, sp_autocorr_det, so_autocorr_schur,
                                   so_autocorr_det, ominus_autocorr_schur, ominus_autocorr_det])
def test_large_sums_stream_their_terms(route):
    # k = 4, N = 32: up to 58,905 terms, enumerated and eliminated a chunk at a time
    route(2, SPREAD)   # lazy imports are not the sum's working set
    tracemalloc.start()
    try:
        route(32, SPREAD)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2 ** 20


def test_only_powers_in_use_can_overflow():
    # (2+0j) ** 2000 overflows; a table up to 2000 must not raise unless a vector uses it
    # (one chunk of two vectors)
    assert det_sum_over_vandermonde((2.0,), [[(0,), (3,)]], 2000) == det_loop((2.0,), [(0,), (3,)], None)
    with pytest.raises(OverflowError):
        det_loop((2.0,), [(0,), (2000,)], None)
    with pytest.raises(OverflowError):
        det_sum_over_vandermonde((2.0,), [[(0,), (2000,)]], 2000)
