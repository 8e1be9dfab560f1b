"""The shifted-moment average over U(N) in its four equivalent forms.

I_{m,n}(N; w_1..w_m; w_{m+1}..w_n) is the Haar average of m adjoint
characteristic polynomials at the first block of shifts times n-m direct
ones at the second block (with their w^N prefactors absorbed).  It equals

* a rectangular-partition Schur polynomial (confluent-safe, canonical),
* its bialternant: n x n power columns over the Vandermonde,
* a block-split sum with (1 - w_l / w_q)^(-1) factors,
* an n-fold contour integral in exponentiated shifts w_j = exp(-alpha_j).

The determinant and combinatorial forms raise typed errors near their
singular configurations instead of silently losing digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .contour import (
    BipartiteKernel,
    ContourConfig,
    circular_integral,
    exp_pole,
    exp_sum,
    require_exp_kernel_contour,
    unitary_lemma_integrand,
)
from .errors import PoleHit, require_count
from .precision import PrecisionConfig, ops_for, require_finite
from .symcore import (
    Partition,
    _bialternant,
    enumerate_split_permutations,
    min_separation,
    schur_stable,
    separation_threshold,
)


@dataclass(frozen=True)
class UnitaryQuery:
    """Shifted-moment query: size N, split point m, and the n shifts as
    given (a route reads them through its `scalar`, keeping their digits).
    ValueError for N < 1, m outside 0..n or a non-finite shift."""

    N: int
    m: int
    shifts: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shifts", tuple(self.shifts))
        object.__setattr__(self, "N", require_count(self.N, 1, "N"))
        object.__setattr__(self, "m", require_count(self.m, 0, "m"))
        if self.m > self.n:
            raise ValueError("need 0 <= m <= n")
        require_finite(self.shifts)

    @property
    def n(self) -> int:
        return len(self.shifts)


def rectangle_partition(query: UnitaryQuery) -> Partition:
    """(N, ..., N) with n - m parts, zero-padded to length n."""
    return Partition((query.N,) * (query.n - query.m) + (0,) * query.m)


def autocorr_schur(query: UnitaryQuery, prec: PrecisionConfig | None = None):
    """Canonical route: the rectangular Schur polynomial s_(N^(n-m)) of the
    shifts by `schur_stable`, so in the complement when n - m > n/2.
    Total on all inputs, including coincident and zero shifts."""
    return schur_stable(rectangle_partition(query), query.shifts, prec)


def autocorr_det(query: UnitaryQuery, prec: PrecisionConfig | None = None):
    """Determinant route: the bialternant of the rectangular Schur polynomial,
    power columns {0..m-1, N+m..N+n-1} over the Vandermonde."""
    n, m, N = query.n, query.m, query.N
    return _bialternant([*range(m), *range(N + m, N + n)], query.shifts, prec)


def _require_split_poles(shifts: Sequence) -> None:
    """PoleHit for a zero shift, or for two shifts closer than the separation
    threshold: the split sums divide by 1 - w_l / w_q."""
    if any(w == 0 for w in shifts):
        raise PoleHit("combinatorial route needs nonzero shifts")
    if min_separation(shifts) < separation_threshold(shifts):
        raise PoleHit("equal shifts across a split; use the Schur route")


def autocorr_comb(query: UnitaryQuery, prec: PrecisionConfig | None = None):
    """Combinatorial route: sum over the binomial(n, m) block splits.

    Each term is (prod of right-block shifts)^N over the cross-block
    product of (1 - w_left / w_right), read from tables of w_q^N and
    1 - w_l / w_q built once, with only what some split reads (no power
    at m = n, no divisor at m = 0 or m = n).  Raises PoleHit for zero
    shifts or equal shifts across any split (which means any equal pair
    at all).
    """
    _require_split_poles(query.shifts)
    n, m = query.n, query.m
    num = ops_for(prec)
    with num.guard():
        w = [num.scalar(x) for x in query.shifts]
        powers = [x ** query.N for x in w] if m < n else []
        divisors = [[num.one - a / b for b in w] for a in w] if 0 < m < n else []
        terms = []
        for left, right in enumerate_split_permutations(n, m):
            t = num.one
            for q in right:
                t = t * powers[q]
            for l in left:
                for q in right:
                    t = t / divisors[l][q]
            terms.append(t)
        return num.fsum(terms)


def shifted_product_average(N: int, shifts: Sequence[complex], m: int,
                            prec: PrecisionConfig | None = None):
    """Haar average of Lambda(s_1^-1)..Lambda(s_m^-1) Lambda^+(s_{m+1})..Lambda^+(s_n).

    Reindexes into the prefactored moment: prod_{i<=m} s_i^{-N} times
    I_{n-m,n}(N; s_{m+1}..s_n; s_1..s_m), delegating to the Schur route.
    """
    query = UnitaryQuery(N, m, shifts)  # ValueError for N < 1 or m outside 0..n
    N, m, s = query.N, query.m, query.shifts
    if any(x == 0 for x in s[:m]):
        raise PoleHit("inverted shifts s_1..s_m must be nonzero")
    num = ops_for(prec)
    with num.guard():
        value = autocorr_schur(UnitaryQuery(N, query.n - m, s[m:] + s[:m]), prec)
        for x in s[:m]:
            value = value * num.scalar(x) ** (-N)
        return value


def autocorr_alpha_sum(N: int, alphas: Sequence[complex], m: int,
                       prec: PrecisionConfig | None = None):
    """Exponential-coordinate form of the shifted-product average.

    Evaluates, for shifts on the curve s_j = exp(alpha_j), the explicit
    block-split sum with exp(N/2 ...) weights and
    (1 - exp(alpha_q - alpha_l))^(-1) factors, the divisors tabled once as
    in autocorr_comb.  Serves as an independent cross-check of
    autocorr_comb / shifted_product_average.  Raises PoleHit where
    autocorr_comb does at the shifts s_j, and ValueError where UnitaryQuery does.
    """
    num = ops_for(prec)
    query = UnitaryQuery(N, m, alphas)
    N, m, n = query.N, query.m, query.n
    with num.guard():
        al = [num.scalar(a) for a in alphas]
        _require_split_poles([num.exp(a) for a in al])
        half_n = num.scalar(N) / 2
        pref = num.exp(half_n * (sum(al[m:], num.zero) - sum(al[:m], num.zero)))
        divisors = [[num.one - num.exp(b - a) for b in al] for a in al] if 0 < m < n else []
        terms = []
        for left, right in enumerate_split_permutations(n, m):
            t = num.exp(half_n * (sum((al[l] for l in left), num.zero)
                                  - sum((al[q] for q in right), num.zero)))
            for l in left:
                for q in right:
                    t = t / divisors[l][q]
            terms.append(t)
        return pref * num.fsum(terms)


def autocorr_contour(N: int, alphas: Sequence[complex], m: int,
                     cfg: ContourConfig | None = None) -> complex:
    """Contour route: I_{m,n} at shifts w_j = exp(-alpha_j).

    The unitary lemma with kernel G(a; b) = exp(-N sum b) prod
    (1 - exp(b_j - a_i))^(-1), integrated on a shared circle enclosing
    the alphas.  Raises ValueError where UnitaryQuery does: N < 1, m outside 0..n.
    """
    al = [complex(a) for a in UnitaryQuery(N, m, alphas).shifts]
    require_exp_kernel_contour(al, "alpha points")
    kernel = BipartiteKernel(exp_pole, lambda _a, b: exp_sum(-N, b))
    return circular_integral(len(al), unitary_lemma_integrand(kernel, al, m), cfg,
                             enclosed_points=al, vectorized=True)
