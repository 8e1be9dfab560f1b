"""Moments of characteristic polynomials over USp(2N), four ways.

The average of Lambda(w_1)..Lambda(w_k) equals

* a parity-constrained sum of k x k power determinants over a Vandermonde,
* a sum of Schur polynomials over even partitions inside a 2N x k box,
* a 2^k-term sign-vector closed form (the fast route), and
* a k-fold contour integral at shifts w_j = exp(-alpha_j).

The sign-vector sum, `reflection_sum`, also serves the two orthogonal
families.  Also hosts the large-N scaling ratio against the sign-vector
form with (eps_i b_i + eps_j b_j)^(-1) factors, computed entirely through
the exact closed form so the cost is independent of N.
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
    det_sum_over_vandermonde,
    enumerate_even_partitions,
    index_pairs,
    schur_stable,
    sign_vectors as _epsilon_vectors,
)

EPS_DENOM_FLOOR = 1e-6  # below this the 2^k closed form has lost too much


def parity_index_vectors(k: int, top: int) -> Iterator[tuple[int, ...]]:
    """Strictly increasing (i_1..i_k) in {0..top} with i_j == j-1 mod 2."""

    def rec(j: int, prev: int, acc: list[int]):
        if j == k:
            yield tuple(acc)
            return
        start = prev + 1 if j else 0
        for i in range(start, top + 1):
            if i % 2 == j % 2:
                acc.append(i)
                yield from rec(j + 1, i, acc)
                acc.pop()

    yield from rec(0, -1, [])


def sp_autocorr_det(N: int, shifts: Sequence[complex], prec: PrecisionConfig | None = None):
    """Determinant route: alternating-parity index sum over the Vandermonde."""
    k = len(shifts)
    return det_sum_over_vandermonde(shifts, parity_index_vectors(k, 2 * N + k - 1), prec)


def sp_autocorr_schur(N: int, shifts: Sequence[complex], prec: PrecisionConfig | None = None):
    """Schur route: sum over even partitions in the 2N x k box (confluent-safe)."""
    num = ops_for(prec)
    k = len(shifts)
    with num.guard():
        terms = [schur_stable(lam, shifts, prec) for lam in enumerate_even_partitions(k, 2 * N)]
        return num.fsum(terms)


def _sign_pairs(k: int, diagonal: bool) -> Iterator[tuple[int, int, int, int]]:
    """(i, j, a, b) over the reflection-sum pairs and signs a, b = +-1,
    with a = b on the diagonal."""
    for i, j in index_pairs(k, diagonal):
        for a in (1, -1):
            for b in (1, -1):
                if i < j or a == b:
                    yield i, j, a, b


def reflection_sum(N: int, shifts: Sequence[complex], prec: PrecisionConfig | None,
                   diagonal: bool, signed: bool):
    """w_1^N..w_k^N times the 2^k-term sign-vector (reflection) sum.

    The term of eps is prod_j w_j^(eps_j N) over the pair product of
    (1 - w_i^(-eps_i) w_j^(-eps_j)), pairs i <= j with the diagonal and
    i < j without, times prod eps_j when signed.  Raises PoleHit for a
    zero shift or when a denominator is within the floor of zero for some
    sign choice.
    """
    ws_d = [complex(w) for w in shifts]
    if any(w == 0 for w in ws_d):
        raise PoleHit("sign-vector route needs nonzero shifts")
    k = len(ws_d)
    for i, j, a, b in _sign_pairs(k, diagonal):
        if abs(1 - ws_d[i] ** (-a) * ws_d[j] ** (-b)) < EPS_DENOM_FLOOR:
            raise PoleHit("reflection-sum denominator vanishes; use the Schur route")
    pairs = index_pairs(k, diagonal)
    num = ops_for(prec)
    with num.guard():
        ws = [num.scalar(w) for w in shifts]
        terms = []
        for eps in _epsilon_vectors(k):
            t = -num.one if signed and math.prod(eps) < 0 else num.one
            for j in range(k):
                t = t * ws[j] ** (eps[j] * N)
            for i, j in pairs:
                t = t / (num.one - ws[i] ** (-eps[i]) * ws[j] ** (-eps[j]))
            terms.append(t)
        total = num.fsum(terms)
        for w in ws:
            total = total * w ** N
        return total


def sp_autocorr_eps(N: int, shifts: Sequence[complex], prec: PrecisionConfig | None = None):
    """Sign-vector route: the reflection sum with pairs 1 <= i <= j <= k,
    diagonal included; raises PoleHit where that sum does."""
    return reflection_sum(N, shifts, prec, diagonal=True, signed=False)


def sp_autocorr_contour(N: int, alphas: Sequence[complex],
                        cfg: ContourConfig | None = None) -> complex:
    """Contour route at shifts w_j = exp(-alpha_j), circle enclosing +-alpha.

    The plain sign-vector lemma with kernel exp(N sum z) prod_{l<=m}
    (1 - exp(-z_m - z_l))^(-1), times exp(-N sum alpha).
    """
    al = [complex(a) for a in alphas]
    enclosed = al + [-a for a in al]
    require_exp_kernel_contour(enclosed, "+-alpha points")
    kernel = SymmetricKernel(exp_pole, lambda a: exp_sum(N, a), include_diagonal=True)
    return np.exp(-N * sum(al)) * circular_integral(
        len(al), sym_lemma_integrand(kernel, al, "plain"), cfg, enclosed_points=enclosed,
        vectorized=True)


def sp_large_n_ratio(b: Sequence[complex], N: int, prec: PrecisionConfig | None = None):
    """Exact moment at shifts exp(b_j / N) over its large-N asymptotic form.

    The asymptote is N^{(k^2+k)/2} e^{sum b} times the sign-vector sum with
    (eps_i b_i + eps_j b_j)^(-1) pair factors; the ratio tends to 1.  Both
    sides are evaluated through the closed forms (exp(b_j) directly, and
    expm1 for the denominators), so N = 10^4 costs the same as N = 10.
    """
    bs_d = [complex(x) for x in b]
    k = len(bs_d)
    if any(x == 0 for x in bs_d):
        raise PoleHit("scaling ratio needs nonzero b")
    scale = max(abs(x) for x in bs_d)
    if any(abs(a * bs_d[i] + c * bs_d[j]) < 1e-12 * scale
           for i, j, a, c in _sign_pairs(k, diagonal=True)):
        raise PoleHit("eps_i b_i + eps_j b_j vanishes")
    pairs = index_pairs(k, diagonal=True)
    num = ops_for(prec)
    with num.guard():
        bs = [num.scalar(x) for x in b]
        exact_terms = []
        asym_terms = []
        for eps in _epsilon_vectors(k):
            te = num.one
            ta = num.one
            for j in range(k):
                w_pow = num.exp(eps[j] * bs[j])
                te = te * w_pow
                ta = ta * w_pow
            for i, j in pairs:
                x = eps[i] * bs[i] + eps[j] * bs[j]
                te = te / (-num.expm1(-x / N))
                ta = ta / x
            exact_terms.append(te)
            asym_terms.append(ta)
        # the common e^{sum b} prefactors cancel in the ratio
        n_power = num.scalar(N) ** ((k * k + k) // 2)
        return num.fsum(exact_terms) / (n_power * num.fsum(asym_terms))
