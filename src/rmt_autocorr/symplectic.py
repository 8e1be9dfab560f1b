"""Moments of characteristic polynomials over USp(2N), four ways.

The average of Lambda(w_1)..Lambda(w_k) equals

* a parity-constrained sum of k x k power determinants over a Vandermonde,
* a sum of Schur polynomials over even partitions inside a 2N x k box,
* a 2^k-term sign-vector closed form (the fast route), and
* a k-fold contour integral at shifts w_j = exp(-alpha_j).

The two sides of the sign-vector lemma, `reflection_sum` and
`reflection_contour`, also serve the two orthogonal families.  Also hosts
the large-N scaling ratio against the sign-vector form with
(eps_i b_i + eps_j b_j)^(-1) factors, computed entirely through the exact
closed form so the cost is independent of N.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .contour import (
    ContourConfig,
    SymmetricKernel,
    circular_integral,
    exp_pole,
    exp_sum,
    require_exp_kernel_contour,
    sym_lemma_integrand,
)
from .errors import PoleHit
from .precision import PrecisionConfig, ops_for
from .symcore import (
    chunk_rows,
    det_sum_over_vandermonde,
    enumerate_even_partitions,  # not called here; bench/tracer.py patches this binding too
    even_partition_chunks,
    index_pairs,
    schur_stable,  # not called here; bench/tracer.py patches this binding too
    schur_sum,
    sign_vectors as _epsilon_vectors,
    weakly_increasing_chunks,
)

EPS_DENOM_FLOOR = 1e-6  # below this the 2^k closed form has lost too much


def parity_index_chunks(k: int, top: int) -> Iterator[np.ndarray]:
    """Strictly increasing (i_1..i_k) in {0..top} with i_j == j-1 mod 2, as
    chunks: i_j = j - 1 + 2 b_j over weakly increasing b, in lexicographic order."""
    for b in weakly_increasing_chunks(k, (top - k + 1) // 2 + 1):
        yield np.arange(k) + 2 * b


def parity_index_vectors(k: int, top: int) -> Iterator[tuple[int, ...]]:
    """The vectors of `parity_index_chunks`, one by one.  No route calls
    it; bench/tracer.py looks it up by name, which keeps it here."""
    yield from chunk_rows(parity_index_chunks(k, top))


def sp_autocorr_det(N: int, shifts: Sequence[complex], prec: PrecisionConfig | None = None):
    """Determinant route: alternating-parity index sum over the Vandermonde."""
    if N < 0:
        raise ValueError("N must be >= 0")
    top = 2 * N + len(shifts) - 1
    return det_sum_over_vandermonde(shifts, parity_index_chunks(len(shifts), top), top, prec)


def sp_autocorr_schur(N: int, shifts: Sequence[complex], prec: PrecisionConfig | None = None):
    """Schur route: sum over even partitions in the 2N x k box (confluent-safe)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    k = len(shifts)
    return schur_sum(even_partition_chunks(k, 2 * N), shifts, 2 * N + k - 1, prec)


def _pair_table(pairs: Sequence[tuple[int, int]], value) -> dict:
    """{(i, j, a, b): value(i, j, a, b)} over the pairs and signs a, b = +-1,
    with a = b on the diagonal: the pair factors a sign-vector sum reads."""
    return {(i, j, a, b): value(i, j, a, b)
            for i, j in pairs for a in (1, -1) for b in ((1, -1) if i < j else (a,))}


def _sign_vector_sum(num, k: int, pairs, powers: dict, divisors: dict, signed: bool = False):
    """The 2^k-term sign-vector sum: the term of eps is prod_j powers[j, eps_j]
    over the product of divisors[i, j, eps_i, eps_j] on the pairs, times
    prod eps_j when signed."""
    terms = []
    for eps in _epsilon_vectors(k):
        t = -num.one if signed and math.prod(eps) < 0 else num.one
        for j in range(k):
            t = t * powers[j, eps[j]]
        for i, j in pairs:
            t = t / divisors[i, j, eps[i], eps[j]]
        terms.append(t)
    return num.fsum(terms)


def reflection_sum(N: int, shifts: Sequence[complex], prec: PrecisionConfig | None,
                   diagonal: bool, signed: bool):
    """w_1^N..w_k^N times the 2^k-term sign-vector (reflection) sum.

    The term of eps is prod_j w_j^(eps_j N) over the pair product of
    (1 - w_i^(-eps_i) w_j^(-eps_j)), pairs i <= j with the diagonal and
    i < j without, times prod eps_j when signed.  Raises PoleHit for a
    zero shift or when a denominator is within the floor of zero for some
    sign choice, and ValueError below the family's sizes: N >= 0 with the
    diagonal (USp(2N)), N >= 1 without it (SO(2N), O^-(2N)).
    """
    least = 0 if diagonal else 1
    if N < least:
        raise ValueError(f"N must be >= {least}")
    k = len(shifts)
    pairs = index_pairs(k, diagonal)
    num = ops_for(prec)
    with num.guard():
        ws = [num.scalar(w) for w in shifts]
        if any(w == 0 for w in ws):
            raise PoleHit("sign-vector route needs nonzero shifts")
        divisors = _pair_table(pairs, lambda i, j, a, b: num.one - ws[i] ** (-a) * ws[j] ** (-b))
        if any(abs(d) < EPS_DENOM_FLOOR for d in divisors.values()):
            raise PoleHit("reflection-sum denominator vanishes; use the Schur route")
        powers = {(j, e): w ** (e * N) for j, w in enumerate(ws) for e in (1, -1)}
        total = _sign_vector_sum(num, k, pairs, powers, divisors, signed)
        for j in range(k):
            total = total * powers[j, 1]
        return total


def sp_autocorr_eps(N: int, shifts: Sequence[complex], prec: PrecisionConfig | None = None):
    """Sign-vector route: the reflection sum with pairs 1 <= i <= j <= k,
    diagonal included; raises PoleHit where that sum does."""
    return reflection_sum(N, shifts, prec, diagonal=True, signed=False)


def reflection_contour(N: int, alphas: Sequence[complex], cfg: ContourConfig | None,
                       diagonal: bool, variant: str, sign: int) -> complex:
    """exp(sign N sum alpha) times the sign-vector lemma's `variant` contour
    side on a circle enclosing +-alpha, with kernel exp(N sum z) prod
    (1 - exp(-z_m - z_l))^(-1) over pairs l <= m (l < m without the diagonal)."""
    al = [complex(a) for a in alphas]
    enclosed = al + [-a for a in al]
    require_exp_kernel_contour(enclosed, "+-alpha points")
    kernel = SymmetricKernel(exp_pole, lambda a: exp_sum(N, a), include_diagonal=diagonal)
    return np.exp(sign * N * sum(al)) * circular_integral(
        len(al), sym_lemma_integrand(kernel, al, variant), cfg, enclosed_points=enclosed,
        vectorized=True)


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
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    k = len(b)
    pairs = index_pairs(k, diagonal=True)
    num = ops_for(prec)
    with num.guard():
        bs = [num.scalar(x) for x in b]
        if any(x == 0 for x in bs):
            raise PoleHit("scaling ratio needs nonzero b")
        scale = max((abs(x) for x in bs), default=0.0)   # no shifts: both sums are 1
        xs = _pair_table(pairs, lambda i, j, a, c: a * bs[i] + c * bs[j])
        if any(abs(x) < 1e-12 * scale for x in xs.values()):
            raise PoleHit("eps_i b_i + eps_j b_j vanishes")
        powers = {(j, e): num.exp(e * x) for j, x in enumerate(bs) for e in (1, -1)}
        exact = _sign_vector_sum(num, k, pairs, powers,
                                 {key: -num.expm1(-x / N) for key, x in xs.items()})
        asym = _sign_vector_sum(num, k, pairs, powers, xs)
        # the common e^{sum b} prefactors cancel in the ratio
        return exact / (num.scalar(N) ** ((k * k + k) // 2) * asym)
