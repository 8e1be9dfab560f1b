"""Partitions, split permutations, Vandermonde products and Schur evaluation.

This is the symmetric-function substrate shared by all the autocorrelation
routes: integer partitions with explicit length, the block-ordered
permutations and sign vectors indexing the combinatorial sums, the one
Vandermonde product, two Schur polynomial evaluators -- the
bialternant ratio (fails near coincident points) and a confluent-safe
complete-homogeneous determinant -- and the two determinant sums of the
self-dual routes (`schur_sum`, `det_sum_over_vandermonde`), each built on
one table per call and batched elimination.

The index vectors and partitions of those sums are enumerated once, by
`weakly_increasing_chunks`, as integer arrays of at most _CHUNK rows; each
family is array arithmetic on those rows, and the sums take the chunks
as they come.  The tuple and Partition generators of the same families
(`enumerate_even_partitions`, `enumerate_so_index_sets`) are flattened
views of the same chunks; the sums do not call them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, combinations_with_replacement, islice
from math import fsum
from typing import Iterator, Sequence

import numpy as np

from .errors import NearConfluent
from .precision import ExtendedOps, PrecisionConfig, batched_det, ops_for

SEPARATION_RTOL = 1e-6  # relative pairwise-separation floor for bialternant-type routes
_CHUNK = 1024  # matrices per batched elimination: bounds the working set of the sums


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing nonnegative integer parts with explicit length.

    Trailing zeros are kept: the length fixes the number of variables the
    partition will be paired with in a Schur evaluation.
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        for i, p in enumerate(self.parts):
            if p < 0:
                raise ValueError("partition parts must be nonnegative")
            if i and self.parts[i - 1] < p:
                raise ValueError("partition parts must be weakly decreasing")

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
    if not parts:
        return Partition(())
    return Partition(tuple(sum(1 for p in parts if p >= i) for i in range(1, parts[0] + 1)))


@dataclass(frozen=True)
class SplitPermutation:
    """A permutation increasing on its first m slots and on the rest.

    ``left`` and ``right`` are the (1-based, strictly increasing) images of
    the two blocks; ``sign`` is the parity of the one-line word left||right.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]
    sign: int


def enumerate_split_permutations(n: int, m: int) -> Iterator[SplitPermutation]:
    """All binomial(n, m) block-increasing permutations of {1..n}.

    The sign is (-1)^inversions of left||right; since both blocks are
    internally sorted, inversions are exactly the cross pairs l > r.
    """
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    universe = range(1, n + 1)
    for left in combinations(universe, m):
        left_set = set(left)
        right = tuple(i for i in universe if i not in left_set)
        inversions = sum(1 for l in left for r in right if l > r)
        yield SplitPermutation(left, right, -1 if inversions % 2 else 1)


def sign_vectors(k: int) -> Iterator[tuple[int, ...]]:
    """All 2^k vectors in {+1, -1}^k; bit j of the counter flips entry j."""
    for mask in range(2 ** k):
        yield tuple(1 - 2 * ((mask >> j) & 1) for j in range(k))


def index_pairs(k: int, diagonal: bool) -> list[tuple[int, int]]:
    """Index pairs 0 <= i <= j < k in lexicographic order; i < j without the diagonal."""
    return [(i, j) for i in range(k) for j in range(i if diagonal else i + 1, k)]


def weakly_increasing_chunks(k: int, size: int) -> Iterator[np.ndarray]:
    """The weakly increasing k-vectors over range(size) in lexicographic
    order, as (B, k) intp arrays of 1 <= B <= _CHUNK rows.

    This is the one enumeration of the self-dual sums: each index family
    below is array arithmetic on these rows.  k = 0 gives one empty row.
    """
    if k == 0:
        yield np.zeros((1, 0), dtype=np.intp)
        return
    rows = combinations_with_replacement(range(size), k)
    while (flat := np.fromiter(chain.from_iterable(islice(rows, _CHUNK)), dtype=np.intp)).size:
        yield flat.reshape(-1, k)


def chunk_rows(chunks) -> Iterator[tuple[int, ...]]:
    """The rows of a chunk iterable as tuples of Python ints."""
    return (row for chunk in chunks for row in map(tuple, chunk.tolist()))


def even_partition_chunks(k: int, max_part: int) -> Iterator[np.ndarray]:
    """Partitions of length k (zero-padded) with all parts even and <= max_part,
    as chunks of rows max_part - 2 b over weakly increasing b."""
    if max_part % 2:
        raise ValueError("max_part must be even")
    for b in weakly_increasing_chunks(k, max_part // 2 + 1):
        b *= -2   # in place: the SO(2N) conjugates are the widest rows, 2N parts
        b += max_part
        yield b


def enumerate_even_partitions(k: int, max_part: int) -> Iterator[Partition]:
    """The partitions of `even_partition_chunks`, one by one.

    Yields exactly binomial(k + max_part/2, k) partitions.  No route calls
    it; bench/tracer.py looks it up by name, which keeps it here.
    """
    yield from map(Partition, chunk_rows(even_partition_chunks(k, max_part)))


def partial_index_chunks(variant: str, count: int, n_max: int) -> Iterator[np.ndarray]:
    """Strictly increasing `count`-vectors in {0..n_max} of one partial family,
    as chunks.

    M: adjacent pairs (p, p+1) throughout; E: pinned at 0 and n_max with the
    interior paired; R: pinned at n_max only; L: pinned at 0 only.  Between
    the pins, in [lo, hi], the pairs start at p_i = q_i + 2i over weakly
    increasing q, in lexicographic order.  A count of the wrong parity gives
    no vector, and so do both pins at n_max < 1, where they would not increase.
    """
    if variant not in ("M", "E", "R", "L"):
        raise ValueError("variant must be one of M, E, R, L")
    first = int(variant in ("E", "L"))   # column 0 pinned at 0
    last = int(variant in ("E", "R"))    # last column pinned at n_max
    paired = count - first - last
    if paired < 0 or paired % 2 or (first and last and n_max < 1):
        return
    pairs = paired // 2
    lo, hi = first, n_max - last
    for q in weakly_increasing_chunks(pairs, hi - lo - 2 * pairs + 2):
        vecs = np.zeros((len(q), count), dtype=np.intp)
        vecs[:, first:first + paired:2] = lo + q + 2 * np.arange(pairs)
        vecs[:, first + 1:first + paired:2] = vecs[:, first:first + paired:2] + 1
        if last:
            vecs[:, -1] = n_max
        yield vecs


def so_index_chunks(k: int, n_param: int) -> Iterator[np.ndarray]:
    """Index vectors of the even-orthogonal determinant sum, n_param >= 1, as chunks.

    Strictly increasing vectors in {0, ..., 2*n_param + k - 1} whose entries
    either pair up adjacently (i = j, j+1) throughout, or are pinned at the
    ends (first 0 / last 2*n_param + k - 1) with the interior paired; which
    ends are pinned depends on the parity of k.  Both branches (partial
    families E and M for even k, L and R for odd k) are produced; for
    n_param >= 1 they never share a vector.  With no shifts (k = 0) the one
    vector is the empty one.
    """
    if n_param < 1:
        raise ValueError("n_param must be >= 1")
    top = 2 * n_param + k - 1
    return chain.from_iterable(partial_index_chunks(variant, k, top)
                               for variant in (("E", "M") if k % 2 == 0 else ("L", "R")))


def enumerate_so_index_sets(k: int, n_param: int) -> Iterator[tuple[int, ...]]:
    """The vectors of `so_index_chunks`, one by one.  No route calls it;
    bench/tracer.py looks it up by name, which keeps it here."""
    return chunk_rows(so_index_chunks(k, n_param))


def min_separation(points: Sequence[complex]) -> float:
    pts = [complex(p) for p in points]
    if len(pts) < 2:
        return float("inf")
    return min(abs(a - b) for i, a in enumerate(pts) for b in pts[:i])


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


def _batches(idx_chunks):
    """Consecutive index chunks joined until a batch holds _CHUNK matrices:
    the short chunks at the ends of chained index families share one
    elimination."""
    group, rows = [], 0
    for idx in idx_chunks:
        group.append(idx)
        rows += len(idx)
        if rows >= _CHUNK:
            yield np.concatenate(group)
            group, rows = [], 0
    if group:
        yield np.concatenate(group)


def _checked_rows(chunks, k: int, hi: int, what: str) -> Iterator[np.ndarray]:
    """The chunks as intp arrays (B, k); raises ValueError for another row
    length or an entry outside 0..hi."""
    for chunk in chunks:
        rows = np.asarray(chunk, dtype=np.intp)
        if rows.shape[1:] != (k,) or rows.size and not 0 <= rows.min() <= rows.max() <= hi:
            raise ValueError(f"{what} must be rows of {k} entries in 0..{hi}")
        yield rows


def _det_sum(num, table, idx_chunks):
    """fsum of det[table[idx[i][j]]] over every matrix of every index chunk,
    idx an int array (B, k, k) into the one table of the call.

    In double precision the table is converted to arrays once, and each
    batch of `_batches` is one gather and one `batched_det` call, bit for
    bit `num.det` one by one; in extended precision `num.det` takes the
    matrices in order.  A 0 x 0 matrix counts as num.one.
    """
    if isinstance(num, ExtendedOps):
        return num.fsum(num.det([[table[x] for x in row] for row in mat]) if mat else num.one
                        for idx in idx_chunks for mat in idx.tolist())
    values = np.array(table, dtype=complex)
    re_parts, im_parts = [], []
    for idx in _batches(idx_chunks):
        re, im = batched_det(values.real[idx], values.imag[idx])
        re_parts.append(re)
        im_parts.append(im)
    # fsum reads Python floats far faster than numpy scalars; a batch at a
    # time keeps the lists short
    return complex(*(fsum(chain.from_iterable(part.tolist() for part in parts))
                     for parts in (re_parts, im_parts)))


def det_sum_over_vandermonde(shifts: Sequence, chunks, top: int,
                             prec: PrecisionConfig | None = None):
    """Sum over the exponent vectors of det[w_i^(vec_j)], over the Vandermonde.

    `chunks` yields the vectors as integer arrays (B, len(shifts)).  Every
    determinant reads one table of w_i ** e, 0 <= e <= top (see `_det_sum`).
    Raises NearConfluent when the shifts are not separated, and
    OverflowError when a power that some vector uses overflows.
    """
    require_separated(shifts, "shifts")
    num = ops_for(prec)
    k = len(shifts)
    with num.guard():
        ws = [num.scalar(w) for w in shifts]
        overflowed = set()

        def power(w, e):
            try:
                return w ** e
            except OverflowError:  # an error only if a vector uses e
                overflowed.add(e)
                return num.zero

        table = [power(w, e) for w in ws for e in range(top + 1)]
        row_start = np.arange(k)[:, None] * (top + 1)

        def gathered():
            for vecs in _checked_rows(chunks, k, top, "exponent vectors"):
                if overflowed and np.isin(vecs, list(overflowed)).any():
                    raise OverflowError("complex exponentiation")
                yield row_start + vecs[:, None, :]

        return _det_sum(num, table, gathered()) / vandermonde(ws, prec)


def complete_homogeneous(max_degree: int, points: Sequence, prec: PrecisionConfig | None = None) -> list:
    """h_0, ..., h_max_degree of the given points, by the one-variable-at-a-
    time recurrence h_k(x_1..x_m) = h_k(x_1..x_{m-1}) + x_m h_{k-1}(x_1..x_m)."""
    num = ops_for(prec)
    with num.guard():
        h = [num.one] + [num.zero] * max_degree
        for p in points:
            x = num.scalar(p)
            for k in range(1, max_degree + 1):
                h[k] = h[k] + x * h[k - 1]
        return h


def schur_bialternant(mu: Partition, points: Sequence, prec: PrecisionConfig | None = None):
    """Schur polynomial as the ratio det[x_i^(mu_j + n - j)] / det[x_i^(n - j)].

    Requires len(mu) == len(points) and pairwise separation above the
    configured threshold; raises NearConfluent otherwise (the ratio is 0/0
    at coincident points -- use schur_stable there).
    """
    if len(mu) != len(points):
        raise ValueError("partition length must equal the number of points")
    n = len(points)
    if n == 0:
        return ops_for(prec).one
    require_separated(points)
    num = ops_for(prec)
    with num.guard():
        pts = [num.scalar(p) for p in points]
        numerator = num.det([[x ** (mu.parts[j] + n - 1 - j) for j in range(n)] for x in pts])
        denominator = num.det([[x ** (n - 1 - j) for j in range(n)] for x in pts])
        return numerator / denominator


def schur_stable(mu: Partition, points: Sequence, prec: PrecisionConfig | None = None):
    """Confluent-safe Schur evaluation via the complete-homogeneous
    (Jacobi-Trudi) determinant det[h_{mu_i - i + j}].

    Agrees with the bialternant wherever that is defined and extends it
    continuously to coincident points.
    """
    if len(mu) != len(points):
        raise ValueError("partition length must equal the number of points")
    num = ops_for(prec)
    ell = mu.nonzero_count
    if ell == 0:
        with num.guard():
            return num.one
    with num.guard():
        # h_0..h_top and a zero, read as in `schur_sum`
        h = complete_homogeneous(mu.parts[0] + ell - 1, points, prec) + [num.zero]
        return num.det([[h[max(mu.parts[i] - i + j, -1)] for j in range(ell)]
                        for i in range(ell)])


def schur_sum(chunks, points: Sequence, top: int, prec: PrecisionConfig | None = None):
    """Sum of `schur_stable(lam, points)` over the partitions lam that
    `chunks` yields as integer arrays (B, k) of parts, k = len(points) and
    every part at most top - k + 1; bit for bit the per-term sum.

    Every Jacobi-Trudi matrix is gathered at the full size k x k from one
    table h_0..h_top, h_d at row i and column j for d = lam_i - i + j and
    the table's trailing zero for d < 0 (see `_det_sum`).  Rows past the
    length l(lam) read h_{j-i}: zero below the diagonal and h_0 = 1 on it,
    so the determinant is the l(lam) x l(lam) one.
    """
    num = ops_for(prec)
    k = len(points)
    offsets = np.arange(k) - np.arange(k)[:, None]   # j - i
    with num.guard():
        h = complete_homogeneous(top, points, prec) + [num.zero]
        return _det_sum(num, h, (np.maximum(lams[:, :, None] + offsets, -1)
                                 for lams in _checked_rows(chunks, k, top - k + 1, "partitions")))
