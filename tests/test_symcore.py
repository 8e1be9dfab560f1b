"""Partitions, split permutations, Vandermonde and Schur evaluation."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmt_autocorr import (
    NearConfluent,
    Partition,
    conjugate_partition,
    enumerate_even_partitions,
    enumerate_so_index_sets,
    enumerate_split_permutations,
    schur_bialternant,
    schur_stable,
    vandermonde,
)
from rmt_autocorr import symcore
from rmt_autocorr.orthogonal import _odd_partition_chunks, _odd_partitions_exact
from rmt_autocorr.symcore import det_sum_over_vandermonde, even_partition_chunks, schur_sum
from rmt_autocorr.symplectic import parity_index_chunks, parity_index_vectors


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def ssyt_schur(shape, points):
    """Monomial-expansion Schur oracle: sum over semistandard tableaux.

    Rows weakly increase, columns strictly increase, entries in 1..len(points).
    Independent of both determinant evaluators.
    """
    rows = [r for r in shape if r > 0]
    n = len(points)
    if not rows:
        return 1.0 + 0j

    total = 0j

    def weakly_increasing_rows(length, lo_each):
        # all weakly increasing tuples v with v[j] >= lo_each[j], values <= n
        def rec(j, prev, acc):
            if j == length:
                yield tuple(acc)
                return
            for v in range(max(prev, lo_each[j]), n + 1):
                acc.append(v)
                yield from rec(j + 1, v, acc)
                acc.pop()

        yield from rec(0, 1, [])

    def fill(i, above):
        nonlocal total
        if i == len(rows):
            monomial = 1.0 + 0j
            for row in above:
                for v in row:
                    monomial *= points[v - 1]
            total += monomial
            return
        length = rows[i]
        lo = [above[-1][j] + 1 if above and j < len(above[-1]) else 1 for j in range(length)]
        for row in weakly_increasing_rows(length, lo):
            fill(i + 1, above + [row])

    fill(0, [])
    return total


def brute_force_so_vectors(k, n_param):
    """Literal filter of the adjacency/pinning conditions on (i_1..i_k)."""
    top = 2 * n_param + k - 1
    out = set()
    for vec in itertools.combinations(range(top + 1), k):
        if k % 2 == 0:
            pairs_a = all(vec[i] == vec[i + 1] - 1 for i in range(1, k - 2, 2))
            cond_a = k >= 2 and vec[0] == 0 and vec[-1] == top and pairs_a
            cond_b = all(vec[i] == vec[i + 1] - 1 for i in range(0, k - 1, 2))
        else:
            cond_a = vec[0] == 0 and all(vec[i] == vec[i + 1] - 1 for i in range(1, k - 1, 2))
            cond_b = vec[-1] == top and all(vec[i] == vec[i + 1] - 1 for i in range(0, k - 2, 2))
        if cond_a or cond_b:
            out.add(vec)
    return out


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

def test_partition_validation():
    Partition((3, 1, 0, 0))
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((1, -1))


def test_conjugate_examples():
    assert conjugate_partition(Partition((3, 1))).parts == (2, 1, 1)
    assert conjugate_partition(Partition(())).parts == ()
    assert conjugate_partition(Partition((2, 2, 2))).parts == (3, 3)


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=8))
@settings(max_examples=200, deadline=None)
def test_conjugate_is_involution(parts):
    lam = Partition(tuple(sorted(parts, reverse=True)))
    twice = conjugate_partition(conjugate_partition(lam))
    assert twice.parts == tuple(p for p in lam.parts if p > 0)


def test_conjugate_involution_bulk():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        parts = tuple(sorted(rng.integers(0, 12, size=rng.integers(0, 9)), reverse=True))
        lam = Partition(tuple(int(p) for p in parts))
        assert conjugate_partition(conjugate_partition(lam)).parts == \
            tuple(p for p in lam.parts if p > 0)


# ---------------------------------------------------------------------------
# Vandermonde
# ---------------------------------------------------------------------------

def test_vandermonde_examples():
    assert vandermonde([]) == 1
    assert vandermonde([5.0]) == 1
    assert vandermonde([1, 2, 4]) == 6
    assert vandermonde([2 + 1j, 2 + 1j, 3]) == 0


def test_vandermonde_antisymmetry_and_zero():
    rng = np.random.default_rng(1)
    pts = [complex(a, b) for a, b in rng.normal(size=(4, 2))]
    base = vandermonde(pts)
    for i in range(3):
        swapped = pts.copy()
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        assert vandermonde(swapped) == pytest.approx(-base)
    assert vandermonde([pts[0], pts[1], pts[0]]) == 0


# ---------------------------------------------------------------------------
# Split permutations
# ---------------------------------------------------------------------------

def _brute_split_perms(n, m):
    out = {}
    for perm in itertools.permutations(range(1, n + 1)):
        if all(perm[i] < perm[i + 1] for i in range(m - 1)) and \
           all(perm[i] < perm[i + 1] for i in range(m, n - 1)):
            inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
            out[perm] = -1 if inv % 2 else 1
    return out


def test_split_permutation_examples():
    items = list(enumerate_split_permutations(2, 1))
    assert {(s.left, s.right, s.sign) for s in items} == \
        {((1,), (2,), 1), ((2,), (1,), -1)}
    assert len(list(enumerate_split_permutations(4, 2))) == 6
    only = list(enumerate_split_permutations(3, 0))
    assert len(only) == 1 and only[0].sign == 1 and only[0].right == (1, 2, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_split_permutations_match_brute_force(n):
    for m in range(n + 1):
        items = {s.left + s.right: s.sign for s in enumerate_split_permutations(n, m)}
        assert items == _brute_split_perms(n, m)
        assert len(items) == math.comb(n, m)


# ---------------------------------------------------------------------------
# Even partitions / SO index vectors
# ---------------------------------------------------------------------------

def test_even_partition_examples():
    assert [p.parts for p in enumerate_even_partitions(1, 4)] == [(4,), (2,), (0,)]
    assert sorted(p.parts for p in enumerate_even_partitions(2, 2)) == \
        [(0, 0), (2, 0), (2, 2)]
    assert len(list(enumerate_even_partitions(2, 4))) == 6


@pytest.mark.parametrize("k,max_part", [(1, 6), (2, 4), (3, 6), (4, 2)])
def test_even_partition_count(k, max_part):
    parts = list(enumerate_even_partitions(k, max_part))
    assert len(parts) == math.comb(k + max_part // 2, k)
    assert len({p.parts for p in parts}) == len(parts)
    for p in parts:
        assert len(p) == k and all(x % 2 == 0 and x <= max_part for x in p.parts)


def test_so_index_sets_examples():
    assert set(enumerate_so_index_sets(1, 1)) == {(0,), (2,)}
    assert set(enumerate_so_index_sets(2, 1)) == {(0, 3), (0, 1), (1, 2), (2, 3)}


# Reference definitions of the index families by itertools, one tuple per term.

def itertools_pair_runs(count, lo, hi):
    if count < 0:
        return []
    return [tuple(itertools.chain.from_iterable((qi + 2 * i, qi + 2 * i + 1)
                                                for i, qi in enumerate(q)))
            for q in itertools.combinations_with_replacement(range(lo, hi - 2 * count + 2), count)]


def itertools_partial(variant, count, n_max):
    vecs = {"M": itertools_pair_runs(count // 2, 0, n_max),
            "E": [(0,) + mid + (n_max,)
                  for mid in itertools_pair_runs(count // 2 - 1, 1, n_max - 1)],
            "R": [run + (n_max,) for run in itertools_pair_runs((count - 1) // 2, 0, n_max - 1)],
            "L": [(0,) + run for run in itertools_pair_runs((count - 1) // 2, 1, n_max)]}[variant]
    return [v for v in vecs
            if len(v) == count and all(v[i] < v[i + 1] for i in range(count - 1))]


ITERTOOLS_FAMILIES = {
    "even": (lambda k, n: symcore.even_partition_chunks(k, 2 * n),
             lambda k, n: list(itertools.combinations_with_replacement(range(2 * n, -1, -2), k)),
             lambda k, n: math.comb(k + n, k)),
    "parity": (lambda k, n: parity_index_chunks(k, n),
               lambda k, n: [tuple(j + 2 * bj for j, bj in enumerate(b)) for b in
                             itertools.combinations_with_replacement(range((n - k + 1) // 2 + 1), k)],
               lambda k, n: math.comb(k + (n - k + 1) // 2, k) if n - k >= -1 else int(k == 0)),
    "odd": (lambda k, n: _odd_partition_chunks(k, n),
            lambda k, n: list(itertools.combinations_with_replacement(
                range(n - 1 + n % 2, 0, -2), k)) if n >= 1 else [],
            lambda k, n: math.comb(k + (n + 1) // 2 - 1, k) if n >= 1 else 0),
}


def rows_of(chunks, k):
    rows = []
    for chunk in chunks:
        assert chunk.dtype == np.intp and chunk.shape[1:] == (k,)
        assert 1 <= len(chunk) <= symcore._CHUNK
        rows.extend(map(tuple, chunk.tolist()))
    return rows


@pytest.mark.parametrize("chunk", [1024, 7])
@pytest.mark.parametrize("k", range(5))
def test_weakly_increasing_chunks_are_the_itertools_rows(monkeypatch, chunk, k):
    monkeypatch.setattr(symcore, "_CHUNK", chunk)
    for size in (-1, 0, 1, 2, 5, 9):
        got = rows_of(symcore.weakly_increasing_chunks(k, size), k)
        assert got == list(itertools.combinations_with_replacement(range(size), k))
        assert len(got) == (math.comb(size + k - 1, k) if size >= 1 else int(k == 0))


@pytest.mark.parametrize("chunk", [1024, 7])
@pytest.mark.parametrize("family", ITERTOOLS_FAMILIES)
@pytest.mark.parametrize("k", range(5))
def test_index_families_are_their_itertools_definitions(monkeypatch, chunk, family, k):
    monkeypatch.setattr(symcore, "_CHUNK", chunk)
    chunks, itertools_rows, count = ITERTOOLS_FAMILIES[family]
    for n in range(-1, 9):
        if family == "even" and n < 0:
            continue
        want = itertools_rows(k, n)
        assert rows_of(chunks(k, n), k) == want, (k, n)
        assert len(want) == count(k, n), (k, n)
    # and the tuple generators are views of the same chunks
    assert list(parity_index_vectors(k, 8)) == ITERTOOLS_FAMILIES["parity"][1](k, 8)
    assert list(_odd_partitions_exact(k, 3)) == ITERTOOLS_FAMILIES["odd"][1](k, 3)
    assert [p.parts for p in enumerate_even_partitions(k, 6)] == \
        ITERTOOLS_FAMILIES["even"][1](k, 3)


@pytest.mark.parametrize("chunk", [1024, 7])
@pytest.mark.parametrize("variant", "MERL")
@pytest.mark.parametrize("count", range(5))
def test_partial_index_chunks_are_their_itertools_definitions(monkeypatch, chunk, variant, count):
    monkeypatch.setattr(symcore, "_CHUNK", chunk)
    for n_max in range(-2, 12):
        want = itertools_partial(variant, count, n_max)
        assert rows_of(symcore.partial_index_chunks(variant, count, n_max), count) == want
        assert list(symcore.chunk_rows(symcore.partial_index_chunks(variant, count, n_max))) == want
    # a count of the wrong parity (odd for M and E, even for R and L) yields nothing
    if count % 2 != (variant in "RL"):
        assert list(symcore.partial_index_chunks(variant, count, 11)) == []
    with pytest.raises(ValueError, match="variant"):
        list(symcore.partial_index_chunks("X", count, 5))


@pytest.mark.parametrize("k", range(5))
def test_so_index_chunks_are_both_partial_families(k):
    for n_param in (1, 2, 5):
        top = 2 * n_param + k - 1
        want = [v for variant in ("EM" if k % 2 == 0 else "LR")
                for v in itertools_partial(variant, k, top)]
        assert rows_of(symcore.so_index_chunks(k, n_param), k) == want
        assert list(enumerate_so_index_sets(k, n_param)) == want


@pytest.mark.parametrize("k", [0, 1, 2])
def test_so_index_sets_need_a_positive_size(k):
    # the two partial families share vectors only at n_param = 0, where the
    # determinant sum over them disagrees with the eps and schur routes
    with pytest.raises(ValueError, match="n_param"):
        enumerate_so_index_sets(k, 0)


@pytest.mark.parametrize("k,n_param", [(1, 1), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2), (4, 2)])
def test_so_index_sets_match_condition_filter(k, n_param):
    got = list(enumerate_so_index_sets(k, n_param))
    assert len(set(got)) == len(got)
    assert set(got) == brute_force_so_vectors(k, n_param)
    top = 2 * n_param + k - 1
    for vec in got:
        assert all(0 <= v <= top for v in vec)
        assert all(vec[i] < vec[i + 1] for i in range(k - 1))


# ---------------------------------------------------------------------------
# Schur evaluation
# ---------------------------------------------------------------------------

def test_bialternant_examples():
    assert schur_bialternant(Partition((0, 0)), [1.7, 0.3 - 1j]) == pytest.approx(1.0)
    w1, w2 = 1.3 + 0.2j, -0.4 + 0.9j
    assert schur_bialternant(Partition((2, 0)), [w1, w2]) == \
        pytest.approx(w1 ** 2 + w1 * w2 + w2 ** 2)
    assert schur_bialternant(Partition((1, 1)), [3.0, 5.0]) == pytest.approx(15.0)


def test_bialternant_near_confluent_raises():
    with pytest.raises(NearConfluent):
        schur_bialternant(Partition((2, 0)), [1.0, 1.0 + 1e-9])


def test_schur_stable_confluent_values():
    # frozen from the monomial oracle: S_(2,0)(1,1) = 3, S_(2,2)(1,1) = 1,
    # S_(2,2,0)(1,1,1) = 6
    assert schur_stable(Partition((2, 0)), [1.0, 1.0]) == pytest.approx(3.0)
    assert schur_stable(Partition((2, 2)), [1.0, 1.0]) == pytest.approx(1.0)
    assert schur_stable(Partition((2, 2, 0)), [1.0, 1.0, 1.0]) == pytest.approx(6.0)
    assert schur_stable(Partition((0, 0, 0)), [2.0, 3j, -1.0]) == pytest.approx(1.0)


@pytest.mark.parametrize("shape,npts", [
    ((2, 0), 2), ((1, 1), 2), ((2, 2), 2), ((3, 1), 2),
    ((2, 2, 0), 3), ((3, 1, 1), 3), ((2, 1, 0, 0), 4),
])
def test_schur_stable_matches_monomial_oracle(shape, npts):
    rng = np.random.default_rng(hash(shape) % 2 ** 32)
    pts = [complex(a, b) for a, b in rng.normal(size=(npts, 2))]
    expected = ssyt_schur(shape, pts)
    lam = Partition(tuple(shape))
    assert complex(schur_stable(lam, pts)) == pytest.approx(expected, rel=1e-12)


def test_schur_stable_agrees_with_bialternant():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        pts = []
        while len(pts) < n:
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if all(abs(c - p) > 1e-3 for p in pts):
                pts.append(c)
        parts = tuple(sorted(rng.integers(0, 5, size=n), reverse=True))
        lam = Partition(tuple(int(p) for p in parts))
        a = complex(schur_stable(lam, pts))
        b = complex(schur_bialternant(lam, pts))
        assert abs(a - b) <= 1e-8 * max(1.0, abs(b))


@given(st.permutations(list(range(4))))
@settings(max_examples=60, deadline=None)
def test_schur_stable_symmetric_under_permutations(perm):
    pts = [0.8 + 0.1j, -1.2 + 0.4j, 0.3 - 0.9j, 1.5]
    lam = Partition((3, 2, 1, 0))
    base = complex(schur_stable(lam, pts))
    permuted = complex(schur_stable(lam, [pts[i] for i in perm]))
    assert abs(permuted - base) <= 1e-10 * max(1.0, abs(base))


def test_schur_stable_homogeneity():
    rng = np.random.default_rng(3)
    pts = [complex(a, b) for a, b in rng.normal(size=(3, 2))]
    lam = Partition((3, 1, 0))
    c = 1.7 - 0.6j
    scaled = complex(schur_stable(lam, [c * p for p in pts]))
    base = complex(schur_stable(lam, pts))
    assert scaled == pytest.approx(c ** lam.size * base, rel=1e-11)


def test_schur_length_mismatch_rejected():
    with pytest.raises(ValueError):
        schur_stable(Partition((1,)), [1.0, 2.0])
    with pytest.raises(ValueError):
        schur_bialternant(Partition((1, 0, 0)), [1.0, 2.0])


def test_schur_sum_eliminates_one_chunk_in_one_batch(monkeypatch):
    # lengths l(lam) = 0..k in one chunk: one k x k elimination, and the
    # per-term sum in every bit
    points = (0.9, 0.7 + 0.3j, -0.5 + 0.6j, 1.2 - 0.4j)
    parts = [Partition(p) for p in [(0, 0, 0, 0), (3, 0, 0, 0), (2, 1, 0, 0),
                                    (4, 2, 2, 0), (2, 2, 1, 1), (1, 0, 0, 0)]]
    calls = []
    original = symcore.batched_det

    def counted(re, im):
        calls.append(re.shape)
        return original(re, im)

    monkeypatch.setattr(symcore, "batched_det", counted)
    value = schur_sum([[lam.parts for lam in parts]], points, 7)  # top: 4 + k - 1
    assert calls == [(len(parts), 4, 4)]
    terms = [schur_stable(lam, points) for lam in parts]
    expected = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    assert repr(value) == repr(expected)


def test_schur_sum_builds_one_h_table_for_all_chunks(monkeypatch):
    # the larger part comes in the second chunk, still within top: the one
    # table h_0..h_top serves both chunks
    points = (0.9, 0.7 + 0.3j, -0.5 + 0.6j)
    chunks = [np.array([[0, 0, 0], [1, 1, 0], [2, 1, 1]]), np.array([[4, 2, 0], [2, 2, 2]])]
    calls = []
    original = symcore.complete_homogeneous

    def counted(max_degree, pts, prec=None):
        calls.append(max_degree)
        return original(max_degree, pts, prec)

    monkeypatch.setattr(symcore, "complete_homogeneous", counted)
    value = schur_sum(chunks, points, 4 + 3 - 1)
    assert calls == [6]
    terms = [schur_stable(Partition(tuple(row)), points) for chunk in chunks for row in chunk.tolist()]
    expected = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    assert repr(value) == repr(expected)


@pytest.mark.parametrize("call", [
    lambda: Partition((2, 1)).padded(1),
    lambda: list(enumerate_split_permutations(2, 3)),
    lambda: list(even_partition_chunks(2, 3)),
    lambda: det_sum_over_vandermonde([0.5, 2.0], [np.array([[0, 5]])], 3),  # 5 > top
    lambda: schur_sum([np.array([[2, 1, 0]])], [0.5, 2.0], 3),  # 3 parts, 2 points
    lambda: schur_sum([np.array([[1, 0]]), np.array([[3, 0]])], [0.5, 2.0], 3),  # 3 > top - k + 1
], ids=["padded-below-length", "split-m-above-n", "odd-max-part", "exponent-above-top",
        "parts-unlike-points", "part-above-top"])
def test_input_guards(call):
    with pytest.raises(ValueError):
        call()
