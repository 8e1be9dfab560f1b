"""Moments over SO(2N) and the determinant -1 coset of O(2N).

SO(2N) gets four forms (index-constrained determinant sum, the same index
sum as a Schur sum over divided differences, a strict-pair sign-vector
closed form, a contour integral at shifts exp(+alpha)), plus the split of
its determinant sum into the four partial families -- all-paired (M),
end-pinned (E), and their odd-count analogues (R, L) -- each with a subset
closed form whose residual is reported alongside the value.

The coset average I(O^-(2N), w), defined with its (-1)^k sign, factors as
prod (w_m^2 - 1) times the symplectic-style sum at size parameter N - 1,
and has a signed sign-vector closed form (note the extra prod eps_j).

One subset-pair walk (`_subset_terms`) feeds the closed forms here and the
subset sums of the standalone identity checks; the subset statistics record
(w_A, S, W, E, D, Delta, script-E) is the per-pair reference for the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Iterator, NamedTuple, Sequence

from .contour import (
    ContourConfig,
    circular_integral,  # not called here; bench/tracer.py patches this binding too
)
from .errors import PoleHit, require_count
from .precision import PrecisionConfig, _generic_det, ops_for
from .symcore import (
    bialternant_sum,
    enumerate_even_partitions,  # not called here; bench/tracer.py patches this binding too
    enumerate_so_index_sets,  # not called here; bench/tracer.py patches this binding too
    partial_family,
    schur_stable,  # not called here; bench/tracer.py patches this binding too
    so_index_families,
    vandermonde,
)
from .symplectic import (
    folded_schur_sum,
    parity_index_vectors,  # not called here; bench/tracer.py patches this binding too
    reflection_contour,
    reflection_sum,
    sp_autocorr_det,
    sp_autocorr_schur,
)


# ---------------------------------------------------------------------------
# Subset statistics
# ---------------------------------------------------------------------------

class SubsetStats(NamedTuple):
    """Products and counting statistics of an ordered subset pair (A, B).

    Indices are 0-based positions into the shift vector; A and B must
    partition {0..m-1}.  W counts cross pairs a > b; S is the sign exponent
    |A||B| + |A|(|A|+1)/2 + W; E and D are the cross products of
    (1 - w_a w_b) and (w_b - w_a); cal_E_A is the within-A product of
    (1 - w_a w_b) over a < b.
    """

    w_A: complex
    S: int
    W: int
    E: complex
    D: complex
    delta_A: complex
    delta_B: complex
    cal_E_A: complex


def _sign_exponent(A: Sequence[int], B: Sequence[int]) -> tuple[int, int]:
    """(S, W) of the subset pair: W = #{a in A, b in B: a > b} and
    S = |A||B| + |A|(|A|+1)/2 + W."""
    W = sum(1 for a in A for b in B if a > b)
    return len(A) * len(B) + len(A) * (len(A) + 1) // 2 + W, W


def subset_stats(A: Sequence[int], B: Sequence[int], shifts: Sequence[complex],
                 prec: PrecisionConfig | None = None) -> SubsetStats:
    m = len(shifts)
    A = tuple(sorted(A))
    B = tuple(sorted(B))
    if sorted(A + B) != list(range(m)) or set(A) & set(B):
        raise ValueError("A and B must partition the shift indices")
    num = ops_for(prec)
    with num.guard():
        w = [num.scalar(x) for x in shifts]
        w_A = [w[a] for a in A]
        S, W = _sign_exponent(A, B)
        return SubsetStats(
            w_A=math.prod(w_A, start=num.one),
            S=S,
            W=W,
            E=math.prod((num.one - w[a] * w[b] for a in A for b in B), start=num.one),
            D=math.prod((w[b] - w[a] for a in A for b in B), start=num.one),
            delta_A=vandermonde(w_A, prec),
            delta_B=vandermonde([w[b] for b in B], prec),
            cal_E_A=math.prod((num.one - x * y for x, y in combinations(w_A, 2)), start=num.one),
        )


def _subset_terms(w: list, num) -> Iterator[tuple]:
    """(C, D, (-1)^S Delta(C) Delta(D), w_C, [w_a w_b for a in C, b in D])
    for every ordered subset pair of the working-precision shifts w, C read
    off the bits of a mask from 0 to 2^m - 1; the Deltas and the cross
    products come from one difference and one product table."""
    m = len(w)
    diff = [[wj - wi for wj in w] for wi in w]
    cross = [[wa * wb for wb in w] for wa in w]
    for mask in range(2 ** m):
        C = tuple(i for i in range(m) if (mask >> i) & 1)
        D = tuple(i for i in range(m) if not (mask >> i) & 1)
        base = math.prod((diff[i][j] for part in (C, D) for i, j in combinations(part, 2)),
                         start=-num.one if _sign_exponent(C, D)[0] % 2 else num.one)
        yield (C, D, base, math.prod((w[a] for a in C), start=num.one),
               [cross[a][b] for a in C for b in D])


# ---------------------------------------------------------------------------
# SO(2N)
# ---------------------------------------------------------------------------

def so_autocorr_det(N: int, shifts: Sequence[complex], prec: PrecisionConfig | None = None):
    """Determinant route: the adjacency/pinning-constrained index sum."""
    return bialternant_sum(shifts, so_index_families(len(shifts), N), prec)


def _odd_partitions_exact(length: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing all-odd vectors of exactly `length` parts in
    [1, max_part]: the largest odd part minus 2 b over weakly increasing b.
    No route calls it; bench/tracer.py looks it up by name, which keeps it here."""
    if max_part >= 1:
        for b in combinations_with_replacement(range((max_part + 1) // 2), length):
            yield tuple(max_part - 1 + max_part % 2 - 2 * x for x in b)


def so_autocorr_schur(N: int, shifts: Sequence[complex], prec: PrecisionConfig | None = None):
    """Schur route (confluent-safe): the determinant route's index sum over
    divided differences.

    It is the sum of S_lambda over lambda whose conjugate lambda' has parts
    <= k and is either all-odd with exactly 2N nonzero parts, or all-even
    with at most 2N parts.
    """
    return folded_schur_sum(N, shifts, so_index_families(len(shifts), N), prec)


def so_autocorr_eps(N: int, shifts: Sequence[complex], prec: PrecisionConfig | None = None):
    """Sign-vector route: the reflection sum with strict pair products
    (i < j, no diagonal); raises PoleHit where that sum does."""
    return reflection_sum(N, shifts, prec, diagonal=False, signed=False)


# ---------------------------------------------------------------------------
# Partial index families M / E / R / L
# ---------------------------------------------------------------------------

class PartialSumResult(NamedTuple):
    value: complex        # the index-sum side
    closed_form: complex  # the subset closed form

    @property
    def residual(self) -> float:
        return abs(complex(self.value) - complex(self.closed_form))


def so_partial_sums(variant: str, n_max: int, shifts: Sequence[complex],
                    prec: PrecisionConfig | None = None) -> PartialSumResult:
    """One of the four partial determinant sums and its closed form.

    M and E take an even number of shifts, R and L an odd number.  The
    closed form is the parity-restricted subset sum of (-1)^(S + |C|)
    Delta(C) Delta(D) w_C^n_max prod (1 - w_a w_b) over script-E Delta;
    residuals at the working precision are the point of returning both.
    """
    m = len(shifts)
    if variant in ("M", "E") and m % 2:
        raise ValueError(f"variant {variant} needs an even number of shifts")
    if variant in ("R", "L") and m % 2 == 0:
        raise ValueError(f"variant {variant} needs an odd number of shifts")
    n_max = require_count(n_max, 0, "n_max")
    value = bialternant_sum(shifts, partial_family(variant, m, n_max), prec)
    num = ops_for(prec)
    with num.guard():
        ws = [num.scalar(w) for w in shifts]
        want_even = variant in ("M", "R")
        cal_e_full = math.prod((num.one - x * y for x, y in combinations(ws, 2)), start=num.one)
        if abs(complex(cal_e_full)) == 0.0:
            raise PoleHit("script-E normalization vanishes (w_i w_j = 1)")
        terms = [(-base if len(C) % 2 else base) * w_C ** n_max
                 * math.prod((num.one - p for p in cross), start=num.one)
                 for C, D, base, w_C, cross in _subset_terms(ws, num)
                 if (len(D) % 2 == 0) == want_even]
        closed = num.fsum(terms) / (cal_e_full * vandermonde(ws, prec))
        return PartialSumResult(value, closed)


# ---------------------------------------------------------------------------
# O^-(2N)
# ---------------------------------------------------------------------------

def _times_coset_factor(sp_route, N: int, shifts: Sequence[complex], prec):
    """prod (w_m - 1)(w_m + 1) times a symplectic route at size parameter
    N - 1, all in the working precision; w*w - 1 would cancel near w = +-1."""
    N = require_count(N, 1, "N")
    num = ops_for(prec)
    with num.guard():
        value = sp_route(N - 1, shifts, prec)
        for w in shifts:
            ws = num.scalar(w)
            value = value * ((ws - num.one) * (ws + num.one))
        return value


def ominus_autocorr_det(N: int, shifts: Sequence[complex], prec: PrecisionConfig | None = None):
    """Determinant route: prod (w_m^2 - 1) times the symplectic
    alternating-parity determinant route at size parameter N - 1."""
    return _times_coset_factor(sp_autocorr_det, N, shifts, prec)


def ominus_autocorr_eps(N: int, shifts: Sequence[complex], prec: PrecisionConfig | None = None):
    """Signed sign-vector route: like SO but each term carries prod eps_j."""
    return reflection_sum(N, shifts, prec, diagonal=False, signed=True)


def ominus_autocorr_schur(N: int, shifts: Sequence[complex], prec: PrecisionConfig | None = None):
    """Confluent-safe route: prod (w^2 - 1) times the symplectic Schur
    route at N - 1 (the even-partition sum in the 2(N-1) x k box)."""
    return _times_coset_factor(sp_autocorr_schur, N, shifts, prec)


# ---------------------------------------------------------------------------
# Contour form
# ---------------------------------------------------------------------------

def orthogonal_contour(family: str, N: int, alphas: Sequence[complex],
                       cfg: ContourConfig | None = None) -> complex:
    """Contour route for SO / O^- at shifts w_j = exp(+alpha_j).

    The sign-vector lemma with kernel exp(N sum z) times the strict pair
    product prod_{l<m} (1 - exp(-z_m - z_l))^(-1), times exp(N sum alpha):
    the plain variant (numerator prod z_j) for SO, the signed one
    (numerator prod alpha_j) for the determinant -1 coset.  (The diagonal
    l = m factor would add an uncancelled pole at z = 0 in the signed case
    and does not reproduce the closed forms.)
    """
    fam = str(family).lower()
    if fam not in ("so", "ominus"):
        raise ValueError("family must be 'so' or 'ominus'")
    variant = "plain" if fam == "so" else "signed"
    return reflection_contour(N, alphas, cfg, diagonal=False, variant=variant, sign=1)


# ---------------------------------------------------------------------------
# The even/odd pairing determinant
# ---------------------------------------------------------------------------

def pairing_matrix(N: int) -> list[list[int]]:
    """The alternating-sign pairing matrix: +1 on and above the diagonal,
    -1 below."""
    return [[1 if j >= i else -1 for j in range(N)] for i in range(N)]


def pairing_determinant(N: int) -> int:
    """Exact integer determinant of the pairing matrix (equals 2^(N-1)),
    by elimination over rationals."""
    return int(_generic_det([[Fraction(x) for x in row] for row in pairing_matrix(N)], abs))
