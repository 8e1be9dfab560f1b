"""Moments of characteristic polynomials over USp(2N), four ways.

The average of Lambda(w_1)..Lambda(w_k) equals

* a parity-constrained sum of k x k power determinants over a Vandermonde,
* a sum of Schur polynomials over even partitions inside a 2N x k box,
  the same index sum over divided differences (see `symcore`),
* a 2^k-term sign-vector closed form (the fast route), and
* a k-fold contour integral at shifts w_j = exp(-alpha_j).

The two sides of the sign-vector lemma, `reflection_sum` and
`reflection_contour`, and the Schur sum folded into the unit disk,
`folded_schur_sum`, also serve the two orthogonal families.  Also hosts
the large-N scaling ratio against the sign-vector form with
(eps_i b_i + eps_j b_j)^(-1) factors, computed entirely through the exact
closed form so the cost is independent of N.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from .contour import (
    ContourConfig,
    SymmetricKernel,
    circular_integral,  # not called here; bench/tracer.py patches this binding too
    exp_pole,
    exp_sum,
    require_exp_kernel_contour,
    sym_lemma_integral,
)
from .errors import PoleHit, require_count
from .precision import PrecisionConfig, ops_for, require_finite
from .symcore import (
    IndexFamily,
    bialternant_sum,
    divided_difference_sum,
    enumerate_even_partitions,  # not called here; bench/tracer.py patches this binding too
    index_pairs,
    per_size,
    schur_stable,  # not called here; bench/tracer.py patches this binding too
    sign_vectors as _epsilon_vectors,
)

EPS_DENOM_FLOOR = 1e-6  # below this the 2^k closed form has lost too much


@per_size()
def parity_family(k: int, top: int) -> IndexFamily:
    """Strictly increasing (i_1..i_k) in {0..top} with i_j == j-1 mod 2:
    i_j = j - 1 + 2 b_j over weakly increasing b, k one-column blocks."""
    return IndexFamily((), tuple((c,) for c in range(k)), 2, (top - k + 1) // 2 + 1)


def parity_index_vectors(k: int, top: int) -> Iterator[tuple[int, ...]]:
    """The vectors of `parity_family`, one by one.  No route calls it;
    bench/tracer.py looks it up by name, which keeps it here."""
    return parity_family(k, top).vectors()


def _require_size(N: int, diagonal: bool) -> int:
    """N as an int, >= 0 with the diagonal (USp(2N)), >= 1 without it (SO(2N), O^-(2N))."""
    return require_count(N, 0 if diagonal else 1, "N")


def sp_autocorr_det(N: int, shifts: Sequence[complex], prec: PrecisionConfig | None = None):
    """Determinant route: alternating-parity index sum over the Vandermonde."""
    N = _require_size(N, diagonal=True)
    return bialternant_sum(shifts, [parity_family(len(shifts), 2 * N + len(shifts) - 1)], prec)


def sp_autocorr_schur(N: int, shifts: Sequence[complex], prec: PrecisionConfig | None = None):
    """Schur route: sum over even partitions in the 2N x k box (confluent-safe),
    the same index sum over divided differences."""
    N = _require_size(N, diagonal=True)
    return folded_schur_sum(N, shifts, [parity_family(len(shifts), 2 * N + len(shifts) - 1)],
                            prec)


@per_size(exponential=True)
def _sign_plan(k: int, diagonal: bool) -> tuple:
    """(keys, terms) of the 2^k-term sign-vector sum over `index_pairs(k,
    diagonal)`.  `keys` lists the pair factors' (i, j, a, b), signs a, b =
    +-1 with a = b on the diagonal; per eps, `terms` has (prod eps_j < 0,
    the positions 2 j + (eps_j < 0) of its powers, the positions in `keys`
    of its pair factors)."""
    pairs = index_pairs(k, diagonal)
    keys = tuple((i, j, a, b) for i, j in pairs for a in (1, -1)
                 for b in ((1, -1) if i < j else (a,)))
    at = {key: n for n, key in enumerate(keys)}
    return keys, tuple((math.prod(eps) < 0, tuple(2 * j + (e < 0) for j, e in enumerate(eps)),
                        tuple(at[i, j, eps[i], eps[j]] for i, j in pairs))
                       for eps in _epsilon_vectors(k))


def _sign_vector_sum(num, terms: tuple, powers: list, divisors: list, signed: bool = False):
    """The sign-vector sum over `_sign_plan`'s terms: the term of eps is the
    product of its powers over the product of its pair factors (`divisors`
    in the order of the plan's keys), times prod eps_j when signed."""
    out = []
    for negative, power_at, divisor_at in terms:
        t = -num.one if signed and negative else num.one
        for p in power_at:
            t = t * powers[p]
        for d in divisor_at:
            t = t / divisors[d]
        out.append(t)
    return num.fsum(out)


def reflection_sum(N: int, shifts: Sequence[complex], prec: PrecisionConfig | None,
                   diagonal: bool, signed: bool):
    """w_1^N..w_k^N times the 2^k-term sign-vector (reflection) sum.

    The term of eps is prod_j w_j^(eps_j N) over the pair product of
    (1 - w_i^(-eps_i) w_j^(-eps_j)), pairs i <= j with the diagonal and
    i < j without, times prod eps_j when signed.  Raises PoleHit for a
    zero shift or when a denominator (read in double) is within the floor
    of zero for some sign choice, and ValueError for a non-finite shift or
    an N not among the family's sizes (`_require_size`).
    """
    N = _require_size(N, diagonal)
    require_finite(shifts)
    keys, terms = _sign_plan(len(shifts), diagonal)
    num = ops_for(prec)
    with num.guard():
        ws = [num.scalar(w) for w in shifts]
        if any(w == 0 for w in ws):
            raise PoleHit("sign-vector route needs nonzero shifts")
        divisors = [num.one - ws[i] ** (-a) * ws[j] ** (-b) for i, j, a, b in keys]
        if any(abs(complex(d)) < EPS_DENOM_FLOOR for d in divisors):
            raise PoleHit("reflection-sum denominator vanishes; use the Schur route")
        powers = [w ** (e * N) for w in ws for e in (1, -1)]
        total = _sign_vector_sum(num, terms, powers, divisors, signed)
        for p in powers[::2]:
            total = total * p
        return total


def folded_schur_sum(N: int, shifts: Sequence[complex], families: Sequence[IndexFamily],
                     prec: PrecisionConfig | None):
    """`divided_difference_sum` over the families with each |w_j| > 1 folded
    into the unit disk: on USp(2N) and SO(2N), Lambda_A(w) = w^(2N)
    Lambda_A(1/w), so the sum is taken at 1/w_j and multiplied by w_j^(2N).
    Unfolded, the sum cancels off the disk: at N = 256 on 0.5 < |w| < 1.5
    it loses every digit in double.  The fold has a cost: the rounding of
    1/w_j and of w_j^(2N) moves the value by about 2N eps relative, as in
    `det`, also on cells the unfolded sum got right (one shift at |w| = 1.26
    and N = 1000: 1.3e-13 folded, 1e-15 unfolded).  Where w_j^(2N) is
    beyond the double range, OverflowError is raised, as `det` does.  The
    side of the circle is read in double, as `abs` of a decimal scalar
    costs a square root.  Raises ValueError for a non-finite shift."""
    require_finite(shifts)
    num = ops_for(prec)
    with num.guard():
        ws = [num.scalar(w) for w in shifts]
        outside = [abs(complex(w)) > 1 for w in ws]
        value = divided_difference_sum(
            [num.one / w if out else w for w, out in zip(ws, outside)], families, prec)
        for w, out in zip(ws, outside):
            if out:
                value = value * w ** (2 * N)
        return value


def sp_autocorr_eps(N: int, shifts: Sequence[complex], prec: PrecisionConfig | None = None):
    """Sign-vector route: the reflection sum with pairs 1 <= i <= j <= k,
    diagonal included; raises PoleHit where that sum does."""
    return reflection_sum(N, shifts, prec, diagonal=True, signed=False)


def reflection_contour(N: int, alphas: Sequence[complex], cfg: ContourConfig | None,
                       diagonal: bool, variant: str, sign: int) -> complex:
    """exp(sign N sum alpha) times the sign-vector lemma's `variant` contour
    side on a circle enclosing +-alpha, with kernel exp(N sum z) prod
    (1 - exp(-z_m - z_l))^(-1) over pairs l <= m (l < m without the diagonal).
    Raises ValueError for an N not among the family's sizes (`_require_size`)
    and for a non-finite alpha."""
    import numpy as np

    N = _require_size(N, diagonal)
    al = [complex(a) for a in alphas]
    require_finite(al)
    require_exp_kernel_contour(al + [-a for a in al], "+-alpha points")
    kernel = SymmetricKernel(exp_pole, lambda a: exp_sum(N, a), include_diagonal=diagonal)
    return np.exp(sign * N * sum(al)) * sym_lemma_integral(kernel, al, variant, cfg)


def sp_autocorr_contour(N: int, alphas: Sequence[complex],
                        cfg: ContourConfig | None = None) -> complex:
    """Contour route at shifts w_j = exp(-alpha_j): the plain reflection contour."""
    return reflection_contour(N, alphas, cfg, diagonal=True, variant="plain", sign=-1)


def sp_large_n_ratio(b: Sequence[complex], N: int, prec: PrecisionConfig | None = None):
    """Exact moment at shifts exp(b_j / N) over its large-N asymptotic form.

    The asymptote is N^{(k^2+k)/2} e^{sum b} times the sign-vector sum with
    (eps_i b_i + eps_j b_j)^(-1) pair factors; the ratio tends to 1.  Both
    sides are evaluated through the closed forms (exp(b_j) directly, and
    expm1 for the denominators), so N = 10^4 costs the same as N = 10.
    Raises PoleHit for a zero b_j, where a pair factor x = eps_i b_i +
    eps_j b_j or 1 - exp(-x / N) vanishes relative to its size, and where
    the asymptotic sum cancels to below 1e-12 of the sum of its terms' moduli.
    """
    N = require_count(N, 1, "N")
    k = len(b)
    keys, terms = _sign_plan(k, True)
    num = ops_for(prec)
    with num.guard():
        bs = [num.scalar(x) for x in b]
        if any(x == 0 for x in bs):
            raise PoleHit("scaling ratio needs nonzero b")
        scale = max((abs(x) for x in bs), default=0.0)   # no shifts: both sums are 1
        xs = [a * bs[i] + c * bs[j] for i, j, a, c in keys]
        if any(abs(x) < 1e-12 * scale for x in xs):
            raise PoleHit("eps_i b_i + eps_j b_j vanishes")
        divisors = [-num.expm1(-x / N) for x in xs]
        if any(abs(d) < 1e-12 * abs(x / N) for d, x in zip(divisors, xs)):
            raise PoleHit("1 - exp(-(eps_i b_i + eps_j b_j) / N) vanishes")
        powers = [num.exp(e * x) for x in bs for e in (1, -1)]
        exact = _sign_vector_sum(num, terms, powers, divisors)
        asym = _sign_vector_sum(num, terms, powers, xs)
        # sum |term| of the asymptotic sum: the same sum over the moduli
        size = _sign_vector_sum(num, terms, [abs(p) for p in powers], [abs(x) for x in xs])
        if abs(asym) < 1e-12 * abs(size):
            raise PoleHit("the asymptotic sign-vector sum cancels")
        # the common e^{sum b} prefactors cancel in the ratio
        return exact / (num.scalar(N) ** ((k * k + k) // 2) * asym)
