"""Partitions, block splits, Vandermonde products and Schur evaluation.

This is the symmetric-function substrate shared by all the autocorrelation
routes: integer partitions with explicit length, the block splits of the
shift indices and the sign vectors indexing the combinatorial sums, the one
Vandermonde product, the one Schur polynomial evaluator `schur_stable` (a
block of the confluent-safe divided-difference determinant), and the
determinant sums of the self-dual routes.

Each self-dual sum runs over the exponent vectors of an `IndexFamily`:
pinned columns, and blocks of columns e + step v over weakly increasing
v_1 <= ... <= v_p.  `_exterior_sum` adds up det[table[r][vec_j]] over a
family without enumerating it: it carries the minors of the columns so
far, summed over the earlier v, and extends them by Laplace expansion
along each new column -- about size * k * 2^(k-1) products for k
one-column blocks.  `bialternant_sum` reads the powers w_r^e and divides
by the Vandermonde; `divided_difference_sum` reads the divided
differences x^e[w_1..w_{r+1}] and divides by nothing, so it is
confluent-safe.  `IndexFamily.vectors` and the tuple and Partition
generators (`enumerate_even_partitions`, `enumerate_so_index_sets`) are
per-term views of the families, by itertools; the sums do not call them.
What a route derives from its sizes alone (its families, splits, sign
vectors, pairs, `_extend` plans, Schur layout) is built once per size by a
`per_size` builder, as a tuple or record, and read by every later call.
"""

from __future__ import annotations

import math
from functools import lru_cache, wraps
from itertools import accumulate, chain, combinations, combinations_with_replacement, islice
from operator import add, mul, sub
from typing import Iterator, NamedTuple, Sequence

from .errors import NearConfluent, Record, require_count
from .precision import PrecisionConfig, ops_for, require_finite

SEPARATION_RTOL = 1e-6  # relative pairwise-separation floor for bialternant-type routes
PLAN_SIZES = 1024  # sizes each per-size memo keeps (the `exact` benchmark grid reads 408 in all)
PLAN_MAX_K = 10    # a plan of about 2^k entries is memoized up to this k, built per call above
PLANS: list = []   # every per-size memo, for its cache_info and cache_clear


def per_size(exponential: bool = False):
    """A decorator: the size-only builder memoized per argument tuple (ints,
    bools and tuples of ints, told apart by type), `PLAN_SIZES` of them at
    most.  With `exponential` the plan has about 2^k entries, k the first
    argument, and is memoized only up to k = PLAN_MAX_K; above it each call
    builds it."""
    def memoized(builder):
        cached = lru_cache(PLAN_SIZES, typed=True)(builder)
        PLANS.append(cached)
        if not exponential:
            return cached

        @wraps(builder)
        def plan(k, *sizes):
            return (cached if k <= PLAN_MAX_K else builder)(k, *sizes)
        return plan
    return memoized


class Partition(Record):
    """Weakly decreasing nonnegative integer parts with explicit length.

    Trailing zeros are kept: the length fixes the number of variables the
    partition will be paired with in a Schur evaluation.
    """

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...]) -> None:
        parts = tuple(require_count(p, 0, "partition parts") for p in parts)
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("partition parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    def __len__(self) -> int:
        return len(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def nonzero_count(self) -> int:
        return sum(1 for p in self.parts if p > 0)

    def padded(self, length: int) -> "Partition":
        if length < self.nonzero_count:
            raise ValueError("cannot pad below the number of nonzero parts")
        return Partition(tuple(p for p in self.parts if p > 0) + (0,) * (length - self.nonzero_count))


def conjugate_partition(lam: Partition) -> Partition:
    """Transpose of the Young diagram: lambda'_i = #{j : lambda_j >= i}."""
    parts = [p for p in lam.parts if p > 0]
    return Partition(tuple(sum(1 for p in parts if p >= i)
                           for i in range(1, max(parts, default=0) + 1)))


def enumerate_split_permutations(
        n: int, m: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All binomial(n, m) block splits of range(n): the increasing index
    tuples (left, right), m indices on the left, in lexicographic order of left."""
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    yield from _splits(n, m)


@per_size(exponential=True)
def _splits(n: int, m: int) -> tuple:
    return tuple((left, tuple(i for i in range(n) if i not in left))
                 for left in combinations(range(n), m))


@per_size(exponential=True)
def sign_vectors(k: int) -> tuple[tuple[int, ...], ...]:
    """All 2^k vectors in {+1, -1}^k; bit j of the counter flips entry j."""
    return tuple(tuple(1 - 2 * ((mask >> j) & 1) for j in range(k)) for mask in range(2 ** k))


@per_size()
def index_pairs(k: int, diagonal: bool) -> tuple[tuple[int, int], ...]:
    """Index pairs 0 <= i <= j < k in lexicographic order; i < j without the diagonal."""
    return tuple((i, j) for i in range(k) for j in range(i if diagonal else i + 1, k))


class IndexFamily(NamedTuple):
    """The exponent vectors of one self-dual determinant sum.

    A vector is the pinned `head`, then for each block of `blocks` the
    columns e + step * v_c, e in the block, then the pinned `tail`, over
    weakly increasing v_1 <= ... <= v_p in range(size).  Without blocks
    the family is the one vector head + tail.
    """

    head: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    step: int
    size: int
    tail: tuple[int, ...] = ()

    def vectors(self) -> Iterator[tuple[int, ...]]:
        """The vectors one by one, in lexicographic order of v."""
        for v in combinations_with_replacement(range(self.size), len(self.blocks)):
            yield self.head + tuple(e + self.step * x for block, x in zip(self.blocks, v)
                                    for e in block) + self.tail

    @property
    @per_size()
    def top(self) -> int:
        """The largest exponent a vector reads; -1 where none does."""
        if self.blocks and self.size < 1:
            return -1
        ends = tuple(e + self.step * (self.size - 1) for block in self.blocks for e in block)
        return max(self.head + ends + self.tail, default=-1)


def enumerate_even_partitions(k: int, max_part: int) -> Iterator[Partition]:
    """Partitions of length k (zero-padded) with all parts even and <= max_part,
    max_part - 2 b over weakly increasing b: binomial(k + max_part/2, k) of them.

    No route calls it; bench/tracer.py looks it up by name, which keeps it here.
    """
    if max_part % 2:
        raise ValueError("max_part must be even")
    for b in combinations_with_replacement(range(max_part // 2 + 1), k):
        yield Partition(tuple(max_part - 2 * x for x in b))


def partial_family(variant: str, count: int, n_max: int) -> tuple[IndexFamily, ...]:
    """One partial family of strictly increasing `count`-vectors in {0..n_max},
    as a tuple of at most one family.

    M: adjacent pairs (p, p+1) throughout; E: pinned at 0 and n_max with the
    interior paired; R: pinned at n_max only; L: pinned at 0 only.  Between
    the pins, in [lo, hi], the pairs start at p_i = q_i + 2i over weakly
    increasing q: the two-column blocks (lo + 2i + q, lo + 2i + q + 1).  A
    count of the wrong parity gives no family, and so do both pins at
    n_max < 1, where they would not increase.  ValueError for a count or
    n_max that is not an integer, or a count below 0.
    """
    if variant not in ("M", "E", "R", "L"):
        raise ValueError("variant must be one of M, E, R, L")
    count = require_count(count, 0, "count")
    n_max = require_count(n_max, -math.inf, "n_max")   # {0..n_max} is empty below 0
    first = int(variant in ("E", "L"))   # column 0 pinned at 0
    last = int(variant in ("E", "R"))    # last column pinned at n_max
    paired = count - first - last
    if paired < 0 or paired % 2 or (first and last and n_max < 1):
        return ()
    pairs = paired // 2
    lo, hi = first, n_max - last
    return (IndexFamily((0,) * first, tuple((lo + 2 * i, lo + 2 * i + 1) for i in range(pairs)),
                        1, hi - lo - 2 * pairs + 2, (n_max,) * last),)


@per_size()
def so_index_families(k: int, n_param: int) -> tuple[IndexFamily, ...]:
    """Index families of the even-orthogonal determinant sum, n_param >= 1.

    Strictly increasing vectors in {0, ..., 2*n_param + k - 1} whose entries
    either pair up adjacently (i = j, j+1) throughout, or are pinned at the
    ends (first 0 / last 2*n_param + k - 1) with the interior paired; which
    ends are pinned depends on the parity of k.  Both branches (partial
    families E and M for even k, L and R for odd k) are returned; for
    n_param >= 1 they never share a vector.  With no shifts (k = 0) the one
    vector is the empty one.
    """
    top = 2 * require_count(n_param, 1, "n_param") + k - 1
    return sum((partial_family(variant, k, top)
                for variant in (("E", "M") if k % 2 == 0 else ("L", "R"))), ())


def enumerate_so_index_sets(k: int, n_param: int) -> Iterator[tuple[int, ...]]:
    """The vectors of `so_index_families`, one by one.  No route calls it;
    bench/tracer.py looks it up by name, which keeps it here."""
    return chain.from_iterable(family.vectors() for family in so_index_families(k, n_param))


def min_separation(points: Sequence[complex]) -> float:
    pts = [complex(p) for p in points]
    return min((abs(a - b) for i, a in enumerate(pts) for b in pts[:i]), default=float("inf"))


def separation_threshold(points: Sequence[complex]) -> float:
    scale = max((abs(complex(p)) for p in points), default=0.0)
    return SEPARATION_RTOL * max(scale, 1.0)


def require_separated(points: Sequence[complex], what: str = "points") -> None:
    if min_separation(points) < separation_threshold(points):
        raise NearConfluent(f"{what} are closer than the separation threshold; "
                            "use a confluent-safe route")


def vandermonde(points: Sequence, prec: PrecisionConfig | None = None):
    """prod_{j<k} (x_k - x_j); empty and singleton inputs give 1."""
    num = ops_for(prec)
    with num.guard():
        pts = [num.scalar(p) for p in points]
        out = num.one
        for j in range(len(pts)):
            for k in range(j + 1, len(pts)):
                out *= pts[k] - pts[j]
        return out


def _homogeneous_rows(num, max_degree: int, points: Sequence) -> Iterator[list]:
    """h_0..h_max_degree of each prefix of the points, the empty one first, by
    h_k(x_1..x_m) = h_k(x_1..x_(m-1)) + x_m h_(k-1)(x_1..x_m): one list,
    updated in place after each point, so copy a row to keep it."""
    h = [num.one] + [num.zero] * max_degree
    yield h
    for x in map(num.scalar, points):
        for k in range(1, max_degree + 1):
            h[k] = h[k] + x * h[k - 1]
        yield h


def complete_homogeneous(max_degree: int, points: Sequence, prec: PrecisionConfig | None = None) -> list:
    """h_0, ..., h_max_degree of the points: the last row of `_homogeneous_rows`.
    No route calls it; bench/tracer.py patches it, which keeps it here."""
    num = ops_for(prec)
    with num.guard():
        for h in _homogeneous_rows(num, max_degree, points):
            pass
        return h


def schur_stable(mu: Partition, points: Sequence, prec: PrecisionConfig | None = None):
    """Confluent-safe Schur evaluation: det[h_(mu_i - i + j)(x_1..x_(n-j))],
    0 <= i, j < ell nonzero parts, on the points by increasing modulus (read
    in double).  It is the non-unit block, rows r = n-1-j, of the divided-
    difference determinant that `divided_difference_sum` reads, so its rows
    are one `_homogeneous_rows` pass and its column scales multiply to the
    value's size.  Where no point is zero and the box complement
    mu'_i = mu_1 - mu_(n+1-i) has fewer nonzero parts, the value is
    (x_1...x_n)^mu_1 s_mu'(1/x_1..1/x_n).
    """
    if len(mu) != len(points):
        raise ValueError("partition length must equal the number of points")
    num = ops_for(prec)
    with num.guard():
        pts, scale = [num.scalar(p) for p in points], num.one
        layout, complement = _schur_plan(mu.parts)
        if complement and all(pts):
            for x in pts:
                scale = scale * x ** mu.parts[0]
            pts, layout = [num.one / x for x in pts], complement
        degree, first, cells = layout
        if not cells:
            return scale
        pts.sort(key=lambda x: abs(complex(x)))
        rows = [list(h) for h in islice(_homogeneous_rows(num, degree, pts), first, None)]
        return scale * num.det([[rows[c[0]][c[1]] if c else num.zero for c in row]
                                for row in cells])


@per_size()
def _schur_plan(parts: tuple[int, ...]) -> tuple:
    """`schur_stable`'s (layout of parts, layout of the box complement where
    it has fewer nonzero parts, else None).  A layout is (top degree of h,
    first prefix row read, cells): cell (i, j) reads h_d, d = parts_i - i + j,
    of the first n - j points as (ell - 1 - j, d), or None where d < 0."""
    def layout(parts):
        ell = len(parts) - parts.count(0)
        return (parts[0] + ell - 1 if ell else 0, len(parts) - ell + 1,
                tuple(tuple((ell - 1 - j, d) if d >= 0 else None
                            for j, d in enumerate(range(parts[i] - i, parts[i] - i + ell)))
                      for i in range(ell)))
    flip = len(parts) - parts.count(max(parts, default=0)) < len(parts) - parts.count(0)
    return layout(parts), layout(tuple(parts[0] - p for p in reversed(parts))) if flip else None


def _extend(minors: list, column: list, plan: tuple) -> list:
    """The minors of the columns so far, extended by one column.

    `minors` lists per v the minor on each c-row set, in `combinations`
    order, and `column[r]` the new column's entry in row r.  On one row
    more, the new minor is the Laplace expansion along the new column: the
    sum over i of (-1)^(c - i) column[rows[i]] minors[rows without rows[i]],
    whose terms `plan` (an entry of `_laplace_plans`) lists per row set.
    """
    out = []
    for (r, minor), *terms in plan:
        acc = list(map(mul, column[r], minors[minor]))
        for r, minor, op in terms:
            acc = list(map(op, acc, map(mul, column[r], minors[minor])))
        out.append(acc)
    return out


@per_size(exponential=True)
def _laplace_plans(n: int) -> tuple:
    """Per c < n, the `_extend` plan from the minors on c of n rows to those
    on c + 1: per (c + 1)-row set, in `combinations` order, the terms (row,
    position of the minor on the other rows), i = c first, then i = c - 1
    down to 0 with `sub` or `add` for the sign (-1)^(c - i)."""
    sets = [{rows: at for at, rows in enumerate(combinations(range(n), c))}
            for c in range(n + 1)]
    return tuple(tuple(((rows[c], sets[c][rows[:c]]),)
                       + tuple((rows[i], sets[c][rows[:i] + rows[i + 1:]],
                                sub if (c - i) % 2 else add) for i in range(c - 1, -1, -1))
                       for rows in sets[c + 1]) for c in range(n))


def _exterior_sum(num, table, family: IndexFamily):
    """Sum over the family's vectors of det[table[r][vec_j]], r < len(table).

    The determinant is multilinear in its columns, so the sum over
    v_1 <= ... <= v_c of the minors of the first blocks' columns is carried
    as one list over v_c per row set: before each block after the first,
    the lists are summed up to v (v_(c-1) <= v_c), and each column of the
    block extends them by `_extend`.  Pinned columns extend lists of one
    value.  A family of c one-column blocks over `size` values of v takes
    about size * c * 2^(c-1) products.  Raises ValueError unless a vector
    has one column per table row and the table reaches the family's top.
    """
    if len(family.head) + sum(map(len, family.blocks)) + len(family.tail) != len(table):
        raise ValueError("a vector must have one column per table row")
    if table and min(map(len, table)) <= family.top:
        raise ValueError("the table stops below the family's largest exponent")
    if family.blocks and family.size < 1:
        return num.zero
    minors, plans = [[num.one]], iter(_laplace_plans(len(table)))
    for e in family.head:
        minors = _extend(minors, [[row[e]] for row in table], next(plans))
    if family.blocks:
        n, step = family.size, family.step
        minors = [m * n for m in minors]
        for c, block in enumerate(family.blocks):
            if c:
                minors = [list(accumulate(m)) for m in minors]
            for e in block:
                minors = _extend(minors, [row[e:e + step * n:step] for row in table], next(plans))
        minors = [[num.fsum(m)] for m in minors]
    for e in family.tail:
        minors = _extend(minors, [[row[e]] for row in table], next(plans))
    return minors[0][0]


def bialternant_sum(shifts: Sequence, families: Sequence[IndexFamily],
                    prec: PrecisionConfig | None = None):
    """Sum over the families' exponent vectors of det[w_r^(vec_j)], over the
    Vandermonde.

    Every determinant reads one table of w_r ** e, 0 <= e <= the largest
    exponent a vector reads (see `_exterior_sum`).  Raises ValueError for
    a non-finite shift, NearConfluent when the shifts are not separated,
    and OverflowError when a power that some vector reads overflows.
    """
    require_finite(shifts)
    require_separated(shifts, "shifts")
    num = ops_for(prec)
    with num.guard():
        ws = [num.scalar(w) for w in shifts]
        top = max((family.top for family in families), default=-1)
        table = [[w ** e for e in range(top + 1)] for w in ws]
        return (num.fsum(_exterior_sum(num, table, family) for family in families)
                / vandermonde(ws, prec))


def divided_difference_sum(points: Sequence, families: Sequence[IndexFamily],
                           prec: PrecisionConfig | None = None):
    """`bialternant_sum` without the division: the same sum over the
    table of divided differences x^e[w_1..w_(r+1)] = h_(e-r)(w_1..w_(r+1)).

    The powers are that table times a lower triangular matrix of
    determinant V = prod_{i<j} (w_j - w_i) (Newton's interpolation form), so
    det[x^(vec_j)[w_1..w_(r+1)]] = det[w_r^(vec_j)] / V, which is s_lam for
    the exponents vec = lam_j + k - j in increasing order: the sum is a
    Schur sum.  Row r of its table is h of the prefix w_1..w_(r+1), all
    rows from one pass of `_homogeneous_rows`, so it is confluent-safe.
    """
    num = ops_for(prec)
    with num.guard():
        top = max((family.top for family in families), default=-1)
        rows = islice(_homogeneous_rows(num, top, points), 1, None)
        table = [([num.zero] * r + h)[:top + 1] for r, h in enumerate(rows)]
        return num.fsum(_exterior_sum(num, table, family) for family in families)
