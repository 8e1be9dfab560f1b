"""Executable forms of the supporting determinant/subset identities.

Each check evaluates both sides of one printed identity independently
(nothing shared beyond the Vandermonde and the subset statistics) and
returns the absolute difference, so a transcription error on either side
shows up as a nonzero residual rather than cancelling silently.

The x-exponent of the |C|-even identity is printed two ways in its
source material (|D|^2 - 2|D| + 1 in the statement, |D|^2 + 2|D| + 1 in
the surrounding prose); both are implemented and the suite records which
one actually vanishes instead of resolving the discrepancy by fiat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InconsistentCoefficients
from .precision import PrecisionConfig, ops_for
from .orthogonal import _subset_pairs, subset_stats
from .symcore import min_separation, vandermonde

CONVENTION_STATEMENT = "statement"   # x^(|D|^2 - 2|D| + 1)
CONVENTION_PROSE = "prose"           # x^(|D|^2 + 2|D| + 1)


def identity1_residual(shifts: Sequence[complex], prec: PrecisionConfig | None = None) -> float:
    """| sum_j Delta|_{w_j=0} prod_m (1 - w_j w_m)  -  (1 - prod w^2) Delta |."""
    num = ops_for(prec)
    n = len(shifts)
    with num.guard():
        w = [num.scalar(x) for x in shifts]
        lhs_terms = []
        for j in range(n):
            t = vandermonde(w[:j] + [num.zero] + w[j + 1:], prec)
            for m in range(n):
                t = t * (num.one - w[j] * w[m])
            lhs_terms.append(t)
        lhs = num.fsum(lhs_terms)
        sq = num.one
        for x in w:
            sq = sq * x * x
        rhs = (num.one - sq) * vandermonde(shifts, prec)
        return float(num.absolute(lhs - rhs))


def lemma1_residual(coeffs: Sequence[complex], shifts: Sequence[complex],
                    prec: PrecisionConfig | None = None) -> float:
    """Degree-n polynomial sum against (c_0 + (-1)^(n-1) c_n prod w) Delta.

    The left side is evaluated through its determinant form: first column
    f(w_i), remaining columns w_i, ..., w_i^(n-1).
    """
    n = len(shifts)
    if len(coeffs) != n + 1:
        raise ValueError("need exactly n + 1 coefficients for n shifts")
    num = ops_for(prec)
    with num.guard():
        w = [num.scalar(x) for x in shifts]
        c = [num.scalar(x) for x in coeffs]

        def f(x):
            acc = num.zero
            for ci in reversed(c):
                acc = acc * x + ci
            return acc

        rows = [[f(wi)] + [wi ** p for p in range(1, n)] for wi in w]
        lhs = num.det(rows)
        prod_w = num.one
        for x in w:
            prod_w = prod_w * x
        sign = num.one if (n - 1) % 2 == 0 else -num.one
        rhs = (c[0] + sign * c[n] * prod_w) * vandermonde(shifts, prec)
        return float(num.absolute(lhs - rhs))


def _subset_cache(shifts: Sequence[complex], prec: PrecisionConfig | None):
    """Per-subset data reused across many x evaluations in one trial."""
    num = ops_for(prec)
    m = len(shifts)
    w = [num.scalar(x) for x in shifts]
    cache = []
    for A, B in _subset_pairs(m):
        st = subset_stats(A, B, shifts, prec)
        pair_products = [w[a] * w[b] for a in A for b in B]
        cache.append((A, B, st, pair_products))
    return cache


def identity2_residual(shifts: Sequence[complex], prec: PrecisionConfig | None = None) -> float:
    """|signed subset sum with w_C^(n-1), Delta(C) Delta(D) and the
    (1 - w_a w_b) cross product|; the identity says it is zero."""
    num = ops_for(prec)
    n = len(shifts)
    with num.guard():
        terms = []
        for A, B, st, _pairs in _subset_cache(shifts, prec):
            sgn = -num.one if st.S % 2 else num.one
            terms.append(sgn * st.w_A ** (n - 1) * st.delta_A * st.delta_B * st.E)
        return float(num.absolute(num.fsum(terms)))


def _subset_terms(cache, x, r: int, exponent, num, even_c_only: bool = False):
    """Terms (-1)^S w_C^r Delta(C) Delta(D) prod (x^2 - w_a w_b) x^exponent(|D|)
    of a subset sum, with 0^0 = 1 at x = 0."""
    xx = x * x
    x_is_zero = num.absolute(x) == 0
    terms = []
    for A, B, st, pairs in cache:
        if even_c_only and len(A) % 2:
            continue
        e = exponent(len(B))
        if x_is_zero:
            if e < 0:
                raise ValueError("x = 0 is not allowed when exponents go negative")
            if e > 0:
                continue
            xe = num.one
        else:
            xe = x ** e if e >= 0 else num.one / x ** (-e)
        t = (-num.one if st.S % 2 else num.one) * st.w_A ** r * st.delta_A * st.delta_B * xe
        for p in pairs:
            t = t * (xx - p)
        terms.append(t)
    return terms


def _fn_terms(cache, x, r: int, n: int, num):
    return _subset_terms(cache, x, r, lambda d: d * d + (r - n) * d, num)


def fn_eval(shifts: Sequence[complex], x: complex, r: int,
            prec: PrecisionConfig | None = None):
    """The two-block polynomial F_n(w; x; r); identically zero at r = n - 1.

    Subset sum of (-1)^S w_C^r Delta(C) Delta(D) prod (x^2 - w_a w_b)
    x^(|D|^2 + (r - n)|D|), with 0^0 = 1 at x = 0.
    """
    num = ops_for(prec)
    n = len(shifts)
    with num.guard():
        cache = _subset_cache(shifts, prec)
        return num.fsum(_fn_terms(cache, num.scalar(x), r, n, num))


def _identity3_terms(cache, x, convention: str, n: int, num):
    if convention not in (CONVENTION_STATEMENT, CONVENTION_PROSE):
        raise ValueError("convention must be 'statement' or 'prose'")
    s = -2 if convention == CONVENTION_STATEMENT else 2
    return _subset_terms(cache, x, n - 2, lambda d: d * d + s * d + 1, num, even_c_only=True)


def identity3_residual(shifts: Sequence[complex], x: complex,
                       convention: str = CONVENTION_STATEMENT,
                       prec: PrecisionConfig | None = None) -> float:
    """|C|-even restricted subset sum with w_C^(n-2); zero under the
    statement exponent convention."""
    if len(shifts) < 2:
        raise ValueError("needs at least two shifts")
    num = ops_for(prec)
    n = len(shifts)
    with num.guard():
        cache = _subset_cache(shifts, prec)
        return float(num.absolute(num.fsum(_identity3_terms(cache, num.scalar(x), convention, n, num))))


def identity4_residual(shifts: Sequence[complex], prec: PrecisionConfig | None = None) -> float:
    """w_j^2-weighted zero-substitution sum against its odd/even split form."""
    num = ops_for(prec)
    n = len(shifts)
    with num.guard():
        w = [num.scalar(x) for x in shifts]
        lhs_terms = []
        for j in range(n):
            t = w[j] * w[j] * vandermonde(w[:j] + [num.zero] + w[j + 1:], prec)
            for m in range(n):
                if m != j:
                    t = t * (num.one - w[m] * w[j])
            lhs_terms.append(t)
        lhs = num.fsum(lhs_terms)
        p1 = num.one
        p2 = num.one
        for x in w:
            p1 = p1 * x
            p2 = p2 * x * x
        rhs = (p2 if n % 2 else p2 - p1) * vandermonde(shifts, prec)
        return float(num.absolute(lhs - rhs))


def symmb_coeff_transform(b: Sequence[complex], w_j: complex,
                          prec: PrecisionConfig | None = None,
                          rtol: float = 1e-9) -> list:
    """Divide g(w) = sum b_i w^i by its linear factor (1 - w_j w).

    Returns the coefficients a_0..a_{n-1} with b_0 = a_0,
    b_i = a_i - w_j a_{i-1} and checks the closing relation
    b_n = -w_j a_{n-1}; raises InconsistentCoefficients when b does not
    arise from any polynomial f through that relation.
    """
    num = ops_for(prec)
    n = len(b) - 1
    if n < 1:
        raise ValueError("b must have degree at least 1")
    with num.guard():
        bs = [num.scalar(x) for x in b]
        wj = num.scalar(w_j)
        a = [bs[0]]
        for i in range(1, n):
            a.append(bs[i] + wj * a[i - 1])
        scale = max(float(num.absolute(x)) for x in bs) or 1.0
        if float(num.absolute(bs[n] + wj * a[n - 1])) > rtol * scale:
            raise InconsistentCoefficients(
                "b_n != -w_j a_(n-1): g is not divisible by (1 - w_j w)")
        return a


# ---------------------------------------------------------------------------
# The batch suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentitySuiteReport:
    trials: int
    seed: int
    radius: float
    mode: str
    max_residuals: dict[str, float]
    identity3_losing_convention: str
    identity3_losing_max: float

    def worst(self) -> float:
        return max(self.max_residuals.values())

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "radius": self.radius,
            "mode": self.mode,
            "max_residuals": dict(sorted(self.max_residuals.items())),
            "identity3_losing_convention": self.identity3_losing_convention,
            "identity3_losing_max": self.identity3_losing_max,
        }


def _sample_shifts(rng: np.random.Generator, n: int, radius: float,
                   min_sep: float = 1e-3) -> list[complex]:
    while True:
        z = rng.uniform(-radius, radius, 2 * n)
        pts = z[:n] + 1j * z[n:]
        pts = pts[np.abs(pts) <= radius]
        if len(pts) < n:
            continue
        pts = pts[:n]
        if min_separation(pts) >= min_sep:
            return [complex(p) for p in pts]


def run_identity_suite(trials: int, seed: int, prec: PrecisionConfig | None = None,
                       n_min: int = 2, n_max: int = 6, radius: float = 1.0,
                       random_x_count: int = 20) -> IdentitySuiteReport:
    """Randomized residual sweep over every identity check.

    Shift vectors are sampled uniformly from the disk of the given radius
    (pairwise separation >= 1e-3); the x-arguments lie in |x| in
    [0.2, max(radius, 0.4)].  In double precision the unit disk keeps every
    check at the roundoff floor; larger radii inflate term magnitudes and
    with them the attainable absolute residual.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    num = ops_for(prec)
    rng = np.random.default_rng(seed)
    x_hi = max(radius, 0.4)
    maxima = {
        "identity1": 0.0, "lemma1": 0.0, "identity2": 0.0,
        "fn_zero": 0.0, "fn_witness": 0.0, "fn_random": 0.0,
        "identity3": 0.0, "identity4": 0.0,
    }
    prose_max = 0.0

    def bump(key: str, val: float) -> None:
        if val > maxima[key]:
            maxima[key] = val

    with num.guard():
        for _ in range(trials):
            n = int(rng.integers(n_min, n_max + 1))
            shifts = _sample_shifts(rng, n, radius)
            coeffs = [complex(a, b) for a, b in rng.normal(size=(n + 1, 2))]
            xs = [complex((0.2 + (x_hi - 0.2) * rng.random()) * np.exp(2j * np.pi * rng.random()))
                  for _ in range(random_x_count)]

            bump("identity1", identity1_residual(shifts, prec))
            bump("lemma1", lemma1_residual(coeffs, shifts, prec))

            cache = _subset_cache(shifts, prec)
            bump("identity2", identity2_residual(shifts, prec))
            r = n - 1
            bump("fn_zero", float(num.absolute(num.fsum(_fn_terms(cache, num.zero, r, n, num)))))
            for a in range(n):
                for b in range(a + 1, n):
                    root = num.sqrt(num.scalar(shifts[a]) * num.scalar(shifts[b]))
                    for signed_root in (root, -root):
                        bump("fn_witness", float(num.absolute(
                            num.fsum(_fn_terms(cache, signed_root, r, n, num)))))
            for x in xs:
                xs_ = num.scalar(x)
                bump("fn_random", float(num.absolute(num.fsum(_fn_terms(cache, xs_, r, n, num)))))
                bump("identity3", float(num.absolute(
                    num.fsum(_identity3_terms(cache, xs_, CONVENTION_STATEMENT, n, num)))))
                prose_max = max(prose_max, float(num.absolute(
                    num.fsum(_identity3_terms(cache, xs_, CONVENTION_PROSE, n, num)))))

            bump("identity4", identity4_residual(shifts, prec))

    mode = "machine-double" if (prec is None or prec.is_double) else f"extended({prec.digits})"
    return IdentitySuiteReport(trials, seed, radius, mode, maxima,
                               CONVENTION_PROSE, prose_max)
