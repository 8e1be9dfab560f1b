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

from typing import Sequence

from .contour import (
    BipartiteKernel,
    ContourConfig,
    circular_integral,  # not called here; bench/tracer.py patches this binding too
    exp_pole,
    exp_sum,
    require_exp_kernel_contour,
    unitary_lemma_integral,
)
from .errors import PoleHit, Record, require_count
from .precision import PrecisionConfig, ops_for, require_finite
from .symcore import (
    Partition,
    enumerate_split_permutations,
    min_separation,
    per_size,
    require_separated,
    schur_stable,
    separation_threshold,
    vandermonde,
)


class UnitaryQuery(Record):
    """Shifted-moment query: size N, split point m, and the n shifts as
    given (a route reads them through its `scalar`, keeping their digits).
    ValueError for N < 1, m outside 0..n or a non-finite shift."""

    __slots__ = _fields = ("N", "m", "shifts")

    def __init__(self, N: int, m: int, shifts: Sequence[complex]) -> None:
        object.__setattr__(self, "shifts", tuple(shifts))
        object.__setattr__(self, "N", require_count(N, 1, "N"))
        object.__setattr__(self, "m", require_count(m, 0, "m"))
        if self.m > self.n:
            raise ValueError("need 0 <= m <= n")
        require_finite(self.shifts)

    @property
    def n(self) -> int:
        return len(self.shifts)


def rectangle_partition(query: UnitaryQuery) -> Partition:
    """(N, ..., N) with n - m parts, zero-padded to length n."""
    return _rectangle(query.N, query.n, query.m)


@per_size()
def _rectangle(N: int, n: int, m: int) -> Partition:
    return Partition((N,) * (n - m) + (0,) * m)


def autocorr_schur(query: UnitaryQuery, prec: PrecisionConfig | None = None):
    """Canonical route: the rectangular Schur polynomial s_(N^(n-m)) of the
    shifts by `schur_stable`, so in the complement when n - m > n/2.
    Total on all inputs, including coincident and zero shifts."""
    return schur_stable(rectangle_partition(query), query.shifts, prec)


def autocorr_det(query: UnitaryQuery, prec: PrecisionConfig | None = None):
    """Determinant route: the bialternant of the rectangular Schur polynomial,
    det[w_i^(e_j)] over the power columns e = {0..m-1, N+m..N+n-1}, divided
    by the Vandermonde.  NearConfluent unless the shifts are separated (it
    is 0/0 where they meet)."""
    n, m, N = query.n, query.m, query.N
    exponents = [*range(m), *range(N + m, N + n)]
    require_separated(query.shifts)
    num = ops_for(prec)
    with num.guard():
        pts = [num.scalar(p) for p in query.shifts]
        return num.det([[x ** e for e in exponents] for x in pts]) / vandermonde(pts, prec)


def autocorr_comb(query: UnitaryQuery, prec: PrecisionConfig | None = None):
    """Combinatorial route: sum over the binomial(n, m) block splits.

    Each term is (prod of right-block shifts)^N over the cross-block
    product of (1 - w_left / w_right), read from tables of w_q^N and
    1 - w_l / w_q built once, with only what some split reads (no power
    at m = n, no divisor at m = 0 or m = n).  Raises PoleHit for zero
    shifts or equal shifts across any split (which means any equal pair
    at all).
    """
    if any(w == 0 for w in query.shifts):
        raise PoleHit("combinatorial route needs nonzero shifts")
    if min_separation(query.shifts) < separation_threshold(query.shifts):
        raise PoleHit("equal shifts across a split; use the Schur route")
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
    return unitary_lemma_integral(kernel, al, m, cfg)
