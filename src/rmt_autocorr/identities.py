"""Executable forms of the supporting determinant/subset identities.

Each check evaluates both sides of one printed identity independently
and returns the absolute difference, so a transcription error on either
side shows up as a nonzero residual rather than cancelling silently.  The
subset sums share one subset-pair walk (`orthogonal._subset_terms`) with
the SO(2N) closed forms; beyond it and the Vandermonde, nothing is shared.

The x-exponent of the |C|-even identity is printed two ways in its
source material (|D|^2 - 2|D| + 1 in the statement, |D|^2 + 2|D| + 1 in
the surrounding prose); both are implemented.  The suite gates the
statement exponent, whose sum vanishes, and reports the prose exponent
as the losing convention, with its largest residual.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import InconsistentCoefficients, require_count
from .precision import PrecisionConfig, ops_for
from .orthogonal import _subset_terms
from .symcore import min_separation, vandermonde

CONVENTION_STATEMENT = "statement"   # x^(|D|^2 - 2|D| + 1)
CONVENTION_PROSE = "prose"           # x^(|D|^2 + 2|D| + 1)
_MAX_DRAWS = 10_000                  # shift-vector draws per trial before giving up
_MIN_SEP = 1e-3                      # pairwise separation of the sampled shifts
_CLOSING_RTOL = 1e-9                 # relative residual of b_n = -w_j a_(n-1) in symmb_coeff_transform


def _zero_substituted(w: list, j: int, prec: PrecisionConfig | None, num):
    """Delta(w with w_j set to 0) * prod_{m != j} (1 - w_j w_m)."""
    t = vandermonde(w[:j] + [num.zero] + w[j + 1:], prec)
    for m, wm in enumerate(w):
        if m != j:
            t = t * (num.one - w[j] * wm)
    return t


def identity1_residual(shifts: Sequence[complex], prec: PrecisionConfig | None = None) -> float:
    """| sum_j Delta|_{w_j=0} prod_m (1 - w_j w_m)  -  (1 - prod w^2) Delta |."""
    num = ops_for(prec)
    with num.guard():
        w = [num.scalar(x) for x in shifts]
        lhs = num.fsum(_zero_substituted(w, j, prec, num) * (num.one - wj * wj)
                       for j, wj in enumerate(w))
        sq = num.one
        for x in w:
            sq = sq * x * x
        rhs = (num.one - sq) * vandermonde(shifts, prec)
        return float(abs(lhs - rhs))


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
        return float(abs(lhs - rhs))


def _subset_cache(shifts: Sequence[complex], r: int, prec: PrecisionConfig | None):
    """The three signed subset sums of one shift vector as Laurent
    polynomials in x, each in `_laurent`'s (lo, step, coeffs) form for
    `_laurent_at`: F_n(w; x; r) and the |C|-even sum of identity 3 (with
    w_C^(n-2)) under the statement and the prose exponent.

    Each subset pair's prod (X - w_a w_b), which (C, D) shares with (D, C),
    is expanded in X = x^2 once and added, times (-1)^S Delta(C) Delta(D)
    w_C^r (or w_C^(n-2)), into the slot of its exponent of x: d^2 + (r - n) d
    at |D| = d for F_n, and (d - 1)^2 (statement) and (d + 1)^2 (prose) for
    identity 3.  The pairs' factors come from `_subset_terms`."""
    num = ops_for(prec)
    n = len(shifts)
    sums = ({}, {}, {})   # {power of x: coefficient} of F_n, statement, prose
    polys = {}            # prod (X - w_a w_b), constant term first, by C
    for C, D, base, w_C, cross in _subset_terms([num.scalar(x) for x in shifts], num):
        poly = polys.pop(D, None)   # (D, C) has the same product
        if poly is None:
            poly = [num.one]
            for p in cross:
                poly = [s - p * t for s, t in zip([num.zero] + poly, poly + [num.zero])]
            polys[C] = poly
        d = len(D)
        _add(sums[0], d * d + (r - n) * d, base * w_C ** r, poly)
        if len(C) % 2 == 0:
            coef = base * w_C ** (n - 2)
            _add(sums[1], (d - 1) ** 2, coef, poly)
            _add(sums[2], (d + 1) ** 2, coef, poly)
    return tuple(_laurent(terms, num) for terms in sums)


def _add(terms: dict, e: int, coef, poly: list) -> None:
    """terms += coef x^e poly(x^2), terms keyed by the power of x."""
    for k, t in enumerate(poly):
        terms[e + 2 * k] = terms.get(e + 2 * k, 0) + coef * t


def _laurent(terms: dict, num) -> tuple:
    """(lo, step, coeffs) with sum_p terms[p] x^p = x^lo sum_k coeffs[k]
    x^(step k): step 2 when every power has lo's parity, else 1."""
    lo = min(terms)
    step = 1 if any((p - lo) % 2 for p in terms) else 2
    return lo, step, [terms.get(p, num.zero) for p in range(lo, max(terms) + 1, step)]


def _laurent_at(poly: tuple, x):
    """A (lo, step, coeffs) polynomial at x by Horner's rule in x^step, with
    0^0 = 1; raises ValueError when lo is negative and x^(-lo) is 0, at
    x = 0 or where the power underflows."""
    lo, step, coeffs = poly
    X = x * x if step == 2 else x
    v = coeffs[-1]
    for c in coeffs[-2::-1]:
        v = v * X + c
    if lo >= 0:
        return v * x ** lo if lo else v
    divisor = x ** -lo
    if divisor == 0:
        raise ValueError(f"x^{-lo} is 0 (x = 0, or the power underflows): "
                         "not allowed when exponents go negative")
    return v / divisor


def identity2_residual(shifts: Sequence[complex], prec: PrecisionConfig | None = None) -> float:
    """|signed subset sum with w_C^(n-1), Delta(C) Delta(D) and the
    (1 - w_a w_b) cross product|; the identity says it is zero.  This is
    F_n at x = 1, r = n - 1."""
    return float(abs(fn_eval(shifts, 1.0, len(shifts) - 1, prec)))


def fn_eval(shifts: Sequence[complex], x: complex, r: int,
            prec: PrecisionConfig | None = None):
    """The two-block polynomial F_n(w; x; r); identically zero at r = n - 1.

    Subset sum of (-1)^S w_C^r Delta(C) Delta(D) prod (x^2 - w_a w_b)
    x^(|D|^2 + (r - n)|D|), with 0^0 = 1 at x = 0.  Raises ValueError where
    a negative power of x or of w_C would divide by zero.
    """
    num = ops_for(prec)
    with num.guard():
        try:
            fn = _subset_cache(shifts, r, prec)[0]
        except ZeroDivisionError as exc:   # w_C ** r at w_C = 0
            raise ValueError("a zero shift is not allowed when r < 0") from exc
        return _laurent_at(fn, num.scalar(x))


def identity3_residual(shifts: Sequence[complex], x: complex,
                       convention: str = CONVENTION_STATEMENT,
                       prec: PrecisionConfig | None = None) -> float:
    """|C|-even restricted subset sum with w_C^(n-2); zero under the
    statement exponent convention."""
    if len(shifts) < 2:
        raise ValueError("needs at least two shifts")
    if convention not in (CONVENTION_STATEMENT, CONVENTION_PROSE):
        raise ValueError("convention must be 'statement' or 'prose'")
    num = ops_for(prec)
    n = len(shifts)
    with num.guard():
        # r shapes only F_n, which is not read here; r = n - 1 >= 1 keeps w_C^r finite
        _, statement, prose = _subset_cache(shifts, n - 1, prec)
        poly = statement if convention == CONVENTION_STATEMENT else prose
        return float(abs(_laurent_at(poly, num.scalar(x))))


def identity4_residual(shifts: Sequence[complex], prec: PrecisionConfig | None = None) -> float:
    """w_j^2-weighted zero-substitution sum against its odd/even split form."""
    num = ops_for(prec)
    n = len(shifts)
    with num.guard():
        w = [num.scalar(x) for x in shifts]
        lhs = num.fsum(wj * wj * _zero_substituted(w, j, prec, num) for j, wj in enumerate(w))
        p1 = num.one
        p2 = num.one
        for x in w:
            p1 = p1 * x
            p2 = p2 * x * x
        rhs = (p2 if n % 2 else p2 - p1) * vandermonde(shifts, prec)
        return float(abs(lhs - rhs))


def symmb_coeff_transform(b: Sequence[complex], w_j: complex,
                          prec: PrecisionConfig | None = None) -> list:
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
        scale = max(float(abs(x)) for x in bs) or 1.0
        if float(abs(bs[n] + wj * a[n - 1])) > _CLOSING_RTOL * scale:
            raise InconsistentCoefficients(
                "b_n != -w_j a_(n-1): g is not divisible by (1 - w_j w)")
        return a


# ---------------------------------------------------------------------------
# The batch suite
# ---------------------------------------------------------------------------

def _nan_max(a: float, b: float) -> float:
    """max(a, b), but NaN if either is: a NaN residual fails the suite."""
    return a if a != a or a >= b else b


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
        return reduce(_nan_max, self.max_residuals.values())

    def as_dict(self) -> dict:
        return {**asdict(self), "max_residuals": dict(sorted(self.max_residuals.items()))}


def _sample_shifts(rng: np.random.Generator, n: int, radius: float) -> list[complex]:
    for _ in range(_MAX_DRAWS):
        z = rng.uniform(-radius, radius, 2 * n)
        pts = z[:n] + 1j * z[n:]
        pts = pts[np.abs(pts) <= radius]
        if len(pts) < n:
            continue
        pts = pts[:n]
        if min_separation(pts) >= _MIN_SEP:
            return [complex(p) for p in pts]
    raise ValueError(f"no {n} shifts {_MIN_SEP} apart in the disk of radius {radius} "
                     f"after {_MAX_DRAWS} draws")


def run_identity_suite(trials: int, seed: int, prec: PrecisionConfig | None = None,
                       n_min: int = 2, n_max: int = 6, radius: float = 1.0,
                       random_x_count: int = 20) -> IdentitySuiteReport:
    """Randomized residual sweep over every identity check.

    Shift vectors are sampled uniformly from the disk of the given radius
    (pairwise separation >= _MIN_SEP); the x-arguments lie in |x| in
    [0.2, max(radius, 0.4)].  In double precision the unit disk keeps every
    check at the roundoff floor; larger radii inflate term magnitudes and
    with them the attainable absolute residual.
    """
    trials = require_count(trials, 1, "trials")
    n_min = require_count(n_min, 2, "n_min")
    n_max = require_count(n_max, n_min, "n_max")
    # identity 3 is checked at the random x only
    random_x_count = require_count(random_x_count, 1, "random_x_count")
    if not 0 < radius < float("inf"):
        raise ValueError("radius must be positive and finite")
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
        maxima[key] = _nan_max(maxima[key], val)

    with num.guard():
        for _ in range(trials):
            n = int(rng.integers(n_min, n_max + 1))
            shifts = _sample_shifts(rng, n, radius)
            coeffs = [complex(a, b) for a, b in rng.normal(size=(n + 1, 2))]
            xs = [complex((0.2 + (x_hi - 0.2) * rng.random()) * np.exp(2j * np.pi * rng.random()))
                  for _ in range(random_x_count)]

            bump("identity1", identity1_residual(shifts, prec))
            bump("lemma1", lemma1_residual(coeffs, shifts, prec))

            fn, statement, prose = _subset_cache(shifts, n - 1, prec)
            bump("identity2", float(abs(_laurent_at(fn, num.one))))
            bump("fn_zero", float(abs(_laurent_at(fn, num.zero))))
            # exponents d(d - 1) + 2k: F_n is a polynomial in X = x^2, read at X = w_a w_b
            for a in range(n):
                for b in range(a + 1, n):
                    X = num.scalar(shifts[a]) * num.scalar(shifts[b])
                    bump("fn_witness", float(abs(_laurent_at((0, 1, fn[2]), X))))
            for x in map(num.scalar, xs):
                bump("fn_random", float(abs(_laurent_at(fn, x))))
                bump("identity3", float(abs(_laurent_at(statement, x))))
                prose_max = _nan_max(prose_max, float(abs(_laurent_at(prose, x))))

            bump("identity4", identity4_residual(shifts, prec))

    mode = "machine-double" if prec is None else f"extended({prec.digits})"
    return IdentitySuiteReport(trials, seed, radius, mode, maxima,
                               CONVENTION_PROSE, prose_max)
