"""Partitions, split permutations, Vandermonde products and Schur evaluation.

This is the symmetric-function substrate shared by all the autocorrelation
routes: integer partitions with explicit length, the block-ordered
permutations and sign vectors indexing the combinatorial sums, the one
Vandermonde product, two Schur polynomial evaluators -- the
bialternant ratio (fails near coincident points) and a confluent-safe
complete-homogeneous determinant -- and the two determinant sums of the
self-dual routes (`schur_sum`, `det_sum_over_vandermonde`), each built on
one table per call and batched elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, combinations_with_replacement, islice
from math import comb, fsum
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


def _unchecked_partition(parts: tuple[int, ...]) -> Partition:
    """A Partition of int parts that are valid by construction, built
    without the checks (they cost more than the sums' per-term work)."""
    lam = object.__new__(Partition)
    object.__setattr__(lam, "parts", parts)
    return lam


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


def enumerate_even_partitions(k: int, max_part: int) -> Iterator[Partition]:
    """Partitions of length k (zero-padded) with all parts even and <= max_part.

    Yields exactly binomial(k + max_part/2, k) partitions.
    """
    if max_part % 2:
        raise ValueError("max_part must be even")
    yield from map(_unchecked_partition, combinations_with_replacement(range(max_part, -1, -2), k))


def count_even_partitions(k: int, max_part: int) -> int:
    return comb(k + max_part // 2, k)


def adjacent_pair_runs(count: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """Strictly increasing vectors made of `count` adjacent pairs (p, p+1),
    all entries within [lo, hi]: p_i = q_i + 2i over weakly increasing q,
    in lexicographic order.  None for count < 0."""
    if count < 0:
        return
    for q in combinations_with_replacement(range(lo, hi - 2 * count + 2), count):
        yield tuple(chain.from_iterable((qi + 2 * i, qi + 2 * i + 1) for i, qi in enumerate(q)))


def partial_index_vectors(variant: str, count: int, n_max: int) -> Iterator[tuple[int, ...]]:
    """Strictly increasing `count`-vectors in {0..n_max} of one partial family.

    M: adjacent pairs (p, p+1) throughout; E: pinned at 0 and n_max with the
    interior paired; R: pinned at n_max only; L: pinned at 0 only.
    """
    if variant == "M":
        vecs = adjacent_pair_runs(count // 2, 0, n_max)
    elif variant == "E":
        vecs = ((0,) + mid + (n_max,) for mid in adjacent_pair_runs(count // 2 - 1, 1, n_max - 1))
    elif variant == "R":
        vecs = (run + (n_max,) for run in adjacent_pair_runs((count - 1) // 2, 0, n_max - 1))
    elif variant == "L":
        vecs = ((0,) + run for run in adjacent_pair_runs((count - 1) // 2, 1, n_max))
    else:
        raise ValueError("variant must be one of M, E, R, L")
    for vec in vecs:
        if len(vec) == count and all(vec[i] < vec[i + 1] for i in range(count - 1)):
            yield vec


def enumerate_so_index_sets(k: int, n_param: int) -> Iterator[tuple[int, ...]]:
    """Index vectors of the even-orthogonal determinant sum, n_param >= 1.

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
    if k == 0:
        return iter([()])
    top = 2 * n_param + k - 1
    return chain.from_iterable(partial_index_vectors(variant, k, top)
                               for variant in (("E", "M") if k % 2 == 0 else ("L", "R")))


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
    """prod_{j<k} (x_k - x_j); empty and singleton inputs give 1.

    Numpy-array points (one broadcastable grid per variable, as in the
    contour and quadrature integrands) give the product on their broadcast
    grid in double precision, accumulated in place in one array.
    """
    num = ops_for(prec)
    with num.guard():
        grids = [p.shape for p in points if isinstance(p, np.ndarray)]
        if grids:
            pts = list(points)
            out = np.ones(np.broadcast_shapes(*grids), dtype=complex)
        else:
            pts = [num.scalar(p) for p in points]
            out = num.one
        for j in range(len(pts)):
            for k in range(j + 1, len(pts)):
                out *= pts[k] - pts[j]
        return out


def _chunks(items):
    """Lists of up to _CHUNK consecutive items, without listing them all."""
    it = iter(items)
    while chunk := list(islice(it, _CHUNK)):
        yield chunk


def _det_sum(num, chunks):
    """fsum of det[table[idx[i][j]]] over every matrix of every chunk
    (table, idx), idx an int array (B, k, k).

    In double precision each chunk is one `batched_det` call, bit for bit
    `num.det` one by one; in extended precision `num.det` takes the
    matrices in order.  A 0 x 0 matrix counts as num.one.
    """
    if isinstance(num, ExtendedOps):
        return num.fsum(num.det([[table[x] for x in row] for row in mat]) if mat else num.one
                        for table, idx in chunks for mat in idx.tolist())
    re_parts, im_parts = [], []
    for table, idx in chunks:
        values = np.array(table, dtype=complex)
        re, im = batched_det(values.real[idx], values.imag[idx])
        re_parts.append(re)
        im_parts.append(im)
    return complex(fsum(chain.from_iterable(re_parts)), fsum(chain.from_iterable(im_parts)))


def det_sum_over_vandermonde(shifts: Sequence, vectors, top: int,
                             prec: PrecisionConfig | None = None):
    """Sum over the exponent vectors of det[w_i^(vec_j)], over the Vandermonde.

    Every determinant reads one table of w_i ** e, 0 <= e <= top (see
    `_det_sum`).  Raises NearConfluent when the shifts are not separated,
    and OverflowError when a power that some vector uses overflows.
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

        def chunks():
            for chunk in _chunks(vectors):
                vecs = np.array(chunk, dtype=np.intp).reshape(len(chunk), k)
                if vecs.size and not 0 <= vecs.min() <= vecs.max() <= top:
                    raise ValueError("exponents must lie in 0..top")
                if overflowed and np.isin(vecs, list(overflowed)).any():
                    raise OverflowError("complex exponentiation")
                yield table, row_start + vecs[:, None, :]

        return _det_sum(num, chunks()) / vandermonde(ws, prec)


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
        top = mu.parts[0] + ell - 1
        h = complete_homogeneous(top, points, prec)

        def h_at(idx: int):
            return h[idx] if 0 <= idx <= top else num.zero

        rows = [[h_at(mu.parts[i] - (i + 1) + (j + 1)) for j in range(ell)] for i in range(ell)]
        return num.det(rows)


def schur_sum(parts, points: Sequence, prec: PrecisionConfig | None = None):
    """Sum of `schur_stable(lam, points)` over the partitions `parts`, each
    of length len(points); bit for bit the per-term sum.

    Every Jacobi-Trudi matrix is gathered at the full size k x k from one
    table h_0..h_top (computed again only when a partition needs a higher
    degree; see `_det_sum`).  Rows past the length l(lam) read h_{j-i}:
    zero below the diagonal and h_0 = 1 on it, so the determinant is the
    l(lam) x l(lam) one.
    """
    num = ops_for(prec)
    k = len(points)
    offsets = np.arange(k) - np.arange(k)[:, None]   # j - i
    with num.guard():
        h = []

        def chunks():
            nonlocal h
            for chunk in _chunks(parts):
                lams = np.array([lam.parts for lam in chunk], dtype=np.intp)
                if lams.shape[1:] != (k,):
                    raise ValueError("partition length must equal the number of points")
                top = int(lams.max(initial=0)) + k - 1
                if top >= len(h):
                    h = complete_homogeneous(top, points, prec)
                # index -1 reads the appended zero: h_d = 0 for d < 0
                yield h + [num.zero], np.maximum(lams[:, :, None] + offsets, -1)

        return _det_sum(num, chunks())
