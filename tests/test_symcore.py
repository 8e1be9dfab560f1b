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
from rmt_autocorr.orthogonal import _odd_partitions_exact, so_partial_sums
from rmt_autocorr.precision import PrecisionConfig, _generic_det, ops_for
from rmt_autocorr.symcore import (
    IndexFamily,
    _exterior_sum,
    bialternant_sum,
    divided_difference_sum,
    partial_family,
    so_index_families,
)
from rmt_autocorr.symplectic import parity_family, parity_index_vectors


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
    "even": (lambda k, n: [p.parts for p in enumerate_even_partitions(k, 2 * n)],
             lambda k, n: list(itertools.combinations_with_replacement(range(2 * n, -1, -2), k)),
             lambda k, n: math.comb(k + n, k)),
    "parity": (lambda k, n: list(parity_index_vectors(k, n)),
               lambda k, n: [tuple(j + 2 * bj for j, bj in enumerate(b)) for b in
                             itertools.combinations_with_replacement(range((n - k + 1) // 2 + 1), k)],
               lambda k, n: math.comb(k + (n - k + 1) // 2, k) if n - k >= -1 else int(k == 0)),
    "odd": (lambda k, n: list(_odd_partitions_exact(k, n)),
            lambda k, n: list(itertools.combinations_with_replacement(
                range(n - 1 + n % 2, 0, -2), k)) if n >= 1 else [],
            lambda k, n: math.comb(k + (n + 1) // 2 - 1, k) if n >= 1 else 0),
}


REF = PrecisionConfig(60)


def seeded_points(seed, k):
    rng = np.random.default_rng(seed)
    return [complex(*rng.normal(size=2)) for _ in range(k)]


def assert_close(got, want):
    assert abs(got - want) <= 1e-50 * max(1, abs(want))


def assert_exterior_sum_is_per_term(family, seed):
    # a random table, so no identity of powers or divided differences helps
    rng = np.random.default_rng(seed)
    num = ops_for(REF)
    rows = len(family.head) + sum(map(len, family.blocks)) + len(family.tail)
    with num.guard():
        table = [[num.scalar(complex(*rng.normal(size=2))) for _ in range(family.top + 1)]
                 for _ in range(rows)]
        expected = num.fsum(_generic_det([[row[e] for e in vec] for row in table], abs)
                            for vec in family.vectors())
        assert_close(_exterior_sum(num, table, family), expected)


def schur_terms(partitions, points):
    num = ops_for(REF)
    with num.guard():
        return num.fsum(schur_stable(Partition(lam), points, REF) for lam in partitions)


def det_terms(vectors, points):
    num = ops_for(REF)
    with num.guard():
        ws = [num.scalar(w) for w in points]
        return (num.fsum(num.det([[w ** e for e in vec] for w in ws]) for vec in vectors)
                / vandermonde(ws, REF))


# Each view's sum by the recurrence against its per-term loop, at the sizes n
# given: the even and odd partitions are the exponent vectors lam_(k-j) + j of
# one-column blocks at step 2, summed over divided differences (Schur sums);
# the parity vectors are summed over powers (a bialternant sum).
SUMMED_FAMILIES = {
    "even": (range(4), lambda k, n, pts: (
        divided_difference_sum(pts, [parity_family(k, 2 * n + k - 1)], REF),
        schur_terms((p.parts for p in enumerate_even_partitions(k, 2 * n)), pts))),
    "parity": (range(-1, 8), lambda k, n, pts: (
        bialternant_sum(pts, [parity_family(k, n)], REF),
        det_terms(parity_index_vectors(k, n), pts))),
    "odd": (range(1, 7), lambda k, n, pts: (
        divided_difference_sum(pts, [IndexFamily((), tuple((c + 1,) for c in range(k)),
                                                 2, (n + 1) // 2)], REF),
        schur_terms(_odd_partitions_exact(k, n), pts))),
}


@pytest.mark.parametrize("seed", [1024, 7])
@pytest.mark.parametrize("k", range(5))
def test_weakly_increasing_chunks_are_the_itertools_rows(seed, k):
    # k one-column blocks at one column, step 1: the weakly increasing rows themselves
    for size in (-1, 0, 1, 2, 5, 9):
        family = IndexFamily((), ((0,),) * k, 1, size)
        got = list(family.vectors())
        assert got == list(itertools.combinations_with_replacement(range(size), k))
        assert len(got) == (math.comb(size + k - 1, k) if size >= 1 else int(k == 0))
        assert_exterior_sum_is_per_term(family, seed)


@pytest.mark.parametrize("seed", [1024, 7])
@pytest.mark.parametrize("family", ITERTOOLS_FAMILIES)
@pytest.mark.parametrize("k", range(5))
def test_index_families_are_their_itertools_definitions(seed, family, k):
    vectors, itertools_rows, count = ITERTOOLS_FAMILIES[family]
    for n in range(-1, 9):
        if family == "even" and n < 0:
            continue
        want = itertools_rows(k, n)
        assert vectors(k, n) == want, (k, n)
        assert len(want) == count(k, n), (k, n)
    sizes, sums = SUMMED_FAMILIES[family]
    points = seeded_points(seed, k)
    for n in sizes:
        assert_close(*sums(k, n, points))


@pytest.mark.parametrize("seed", [1024, 7])
@pytest.mark.parametrize("variant", "MERL")
@pytest.mark.parametrize("count", range(5))
def test_partial_index_chunks_are_their_itertools_definitions(seed, variant, count):
    for n_max in range(-2, 12):
        want = itertools_partial(variant, count, n_max)
        assert [v for f in partial_family(variant, count, n_max) for v in f.vectors()] == want
    # a count of the wrong parity (odd for M and E, even for R and L) gives no family
    if count % 2 != (variant in "RL"):
        assert partial_family(variant, count, 11) == ()
    else:
        points = seeded_points(seed, count)
        for n_max in range(7):
            assert_close(so_partial_sums(variant, n_max, points, REF).value,
                         det_terms(itertools_partial(variant, count, n_max), points))
    with pytest.raises(ValueError, match="variant"):
        partial_family("X", count, 5)


@pytest.mark.parametrize("k", range(5))
def test_so_index_chunks_are_both_partial_families(k):
    for n_param in (1, 2, 5):
        top = 2 * n_param + k - 1
        want = [v for variant in ("EM" if k % 2 == 0 else "LR")
                for v in itertools_partial(variant, k, top)]
        assert [v for f in so_index_families(k, n_param) for v in f.vectors()] == want
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


EXTERIOR_FAMILIES = {
    "usp": IndexFamily((), ((0,), (1,), (2,), (3,)), 2, 4),     # one-column blocks
    "pinned-ends": IndexFamily((0,), ((1, 2),), 1, 5, (9,)),    # E
    "pairs": IndexFamily((), ((0, 1), (2, 3)), 1, 4),          # M
    "mixed": IndexFamily((), ((0,), (2, 3)), 3, 3, (10,)),     # widths 1 and 2, step 3
    "one-v": IndexFamily((1, 4), ((5,),), 1, 1, (7,)),
    "no-blocks": IndexFamily((0, 2, 5, 9), (), 1, 0),          # the one vector head + tail
    "empty": IndexFamily((0,), ((1, 2),), 1, 0, (9,)),         # size 0: no vector
}


@pytest.mark.parametrize("name", EXTERIOR_FAMILIES)
def test_exterior_sum_is_the_sum_of_its_determinants(name):
    family = EXTERIOR_FAMILIES[name]
    assert_exterior_sum_is_per_term(family, 5)
    assert family.top == max((e for vec in family.vectors() for e in vec), default=-1)


def table_of_width(width, rows=2):
    return [[1.0 + r + e for e in range(width)] for r in range(rows)]


@pytest.mark.parametrize("call", [
    lambda: Partition((2, 1)).padded(1),
    lambda: list(enumerate_split_permutations(2, 3)),
    lambda: list(enumerate_even_partitions(2, 3)),
    lambda: _exterior_sum(ops_for(None), table_of_width(4), IndexFamily((0,), (), 1, 0, (5,))),
    lambda: divided_difference_sum([0.5, 2.0], [parity_family(3, 6)]),  # 3 columns, 2 points
    lambda: _exterior_sum(ops_for(None), table_of_width(4), IndexFamily((), ((0,), (1,)), 1, 4)),
    lambda: so_partial_sums("R", -1, [0.5]),
], ids=["padded-below-length", "split-m-above-n", "odd-max-part", "exponent-above-top",
        "parts-unlike-points", "part-above-top", "n-max-below-zero"])
def test_input_guards(call):
    with pytest.raises(ValueError):
        call()
