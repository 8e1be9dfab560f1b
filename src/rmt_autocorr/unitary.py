"""The shifted-moment average over U(N) in its four equivalent forms.

I_{m,n}(N; w_1..w_m; w_{m+1}..w_n) is the Haar average of m adjoint
characteristic polynomials at the first block of shifts times n-m direct
ones at the second block (with their w^N prefactors absorbed).  It equals

* a rectangular-partition Schur polynomial (canonical, confluent-safe),
* an n x n power-column determinant over a Vandermonde,
* a block-ordered permutation sum with (1 - w_l / w_q)^(-1) factors,
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
from .errors import PoleHit
from .precision import PrecisionConfig, ops_for
from .symcore import (
    Partition,
    enumerate_split_permutations,
    min_separation,
    require_separated,
    schur_stable,
    separation_threshold,
    vandermonde,
)


@dataclass(frozen=True)
class UnitaryQuery:
    """Shifted-moment query: size N, split point m, and the n shifts."""

    N: int
    m: int
    shifts: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shifts", tuple(complex(w) for w in self.shifts))
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if not 0 <= self.m <= len(self.shifts):
            raise ValueError("need 0 <= m <= n")

    @property
    def n(self) -> int:
        return len(self.shifts)


def rectangle_partition(query: UnitaryQuery) -> Partition:
    """(N, ..., N) with n - m parts, zero-padded to length n."""
    return Partition((query.N,) * (query.n - query.m) + (0,) * query.m)


def autocorr_schur(query: UnitaryQuery, prec: PrecisionConfig | None = None):
    """Canonical route: the rectangular Schur polynomial of the shifts.

    Total on all inputs, including coincident and zero shifts.
    """
    return schur_stable(rectangle_partition(query), query.shifts, prec)


def autocorr_det(query: UnitaryQuery, prec: PrecisionConfig | None = None):
    """Determinant route: power columns {0..m-1, N+m..N+n-1} over Vandermonde."""
    require_separated(query.shifts, "shifts")
    num = ops_for(prec)
    n, m, N = query.n, query.m, query.N
    exponents = list(range(m)) + list(range(N + m, N + n))
    with num.guard():
        w = [num.scalar(x) for x in query.shifts]
        det = num.det([[wi ** e for e in exponents] for wi in w])
        return det / vandermonde(query.shifts, prec)


def autocorr_comb(query: UnitaryQuery, prec: PrecisionConfig | None = None):
    """Combinatorial route: sum over the binomial(n, m) block splits.

    Each term is (prod of right-block shifts)^N over the cross-block
    product of (1 - w_left / w_right).  Raises PoleHit for zero shifts or
    equal shifts across any split (which means any equal pair at all).
    """
    if any(w == 0 for w in query.shifts):
        raise PoleHit("combinatorial route needs nonzero shifts")
    if min_separation(query.shifts) < separation_threshold(query.shifts):
        raise PoleHit("equal shifts across a split; use the Schur route")
    num = ops_for(prec)
    with num.guard():
        w = [num.scalar(x) for x in query.shifts]
        terms = []
        for split in enumerate_split_permutations(query.n, query.m):
            t = num.one
            for q in split.right:
                t = t * w[q - 1] ** query.N
            for l in split.left:
                for q in split.right:
                    t = t / (num.one - w[l - 1] / w[q - 1])
            terms.append(t)
        return num.fsum(terms)


def shifted_product_average(N: int, shifts: Sequence[complex], m: int,
                            prec: PrecisionConfig | None = None):
    """Haar average of Lambda(s_1^-1)..Lambda(s_m^-1) Lambda^+(s_{m+1})..Lambda^+(s_n).

    Reindexes into the prefactored moment: prod_{i<=m} s_i^{-N} times
    I_{n-m,n}(N; s_{m+1}..s_n; s_1..s_m), delegating to the Schur route.
    """
    s = [complex(x) for x in shifts]
    n = len(s)
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    if any(x == 0 for x in s[:m]):
        raise PoleHit("inverted shifts s_1..s_m must be nonzero")
    num = ops_for(prec)
    with num.guard():
        reordered = tuple(s[m:]) + tuple(s[:m])
        value = autocorr_schur(UnitaryQuery(N, n - m, reordered), prec)
        for x in s[:m]:
            value = value * num.scalar(x) ** (-N)
        return value


def autocorr_alpha_sum(N: int, alphas: Sequence[complex], m: int,
                       prec: PrecisionConfig | None = None):
    """Exponential-coordinate form of the shifted-product average.

    Evaluates, for shifts on the curve s_j = exp(alpha_j), the explicit
    split-permutation sum with exp(N/2 ...) weights and
    (1 - exp(alpha_q - alpha_l))^(-1) factors.  Serves as an independent
    cross-check of autocorr_comb / shifted_product_average.
    """
    num = ops_for(prec)
    n = len(alphas)
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    with num.guard():
        al = [num.scalar(a) for a in alphas]
        half_n = num.scalar(N) / 2
        pref = num.exp(half_n * (sum(al[m:], num.zero) - sum(al[:m], num.zero)))
        terms = []
        for split in enumerate_split_permutations(n, m):
            left = [al[i - 1] for i in split.left]
            right = [al[i - 1] for i in split.right]
            t = num.exp(half_n * (sum(left, num.zero) - sum(right, num.zero)))
            for a in left:
                for b in right:
                    t = t / (num.one - num.exp(b - a))
            terms.append(t)
        return pref * num.fsum(terms)


def autocorr_contour(N: int, alphas: Sequence[complex], m: int,
                     cfg: ContourConfig | None = None) -> complex:
    """Contour route: I_{m,n} at shifts w_j = exp(-alpha_j).

    The unitary lemma with kernel G(a; b) = exp(-N sum b) prod
    (1 - exp(b_j - a_i))^(-1), integrated on a shared circle enclosing
    the alphas.
    """
    al = [complex(a) for a in alphas]
    if not 0 <= m <= len(al):
        raise ValueError("need 0 <= m <= n")
    require_exp_kernel_contour(al, "alpha points")
    kernel = BipartiteKernel(exp_pole, lambda _a, b: exp_sum(-N, b))
    return circular_integral(len(al), unitary_lemma_integrand(kernel, al, m), cfg,
                             enclosed_points=al, vectorized=True)
