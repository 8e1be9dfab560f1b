"""Precision plumbing: one switch between machine doubles and mpmath.

All closed-form routes and identity checks run either on plain Python
complex numbers (the default) or on ``mpmath.mpc`` scalars at a configured
decimal precision.  A :class:`PrecisionConfig` (None for doubles) travels
with every call; ``ops_for(prec)`` hands back the matching operation set.
Code written against the operation set is precision-agnostic.

Vectorized machinery (Weyl quadrature grids, Haar sampling, Monte Carlo)
is numpy-based and always runs in double precision; its error is either
spectrally small or statistical, so extended digits would buy nothing.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp


@dataclass(frozen=True)
class PrecisionConfig:
    """Extended (mpmath) arithmetic for the exact evaluation routes, at
    `digits` decimal digits (>= 30); machine doubles are prec=None."""

    digits: int = 40

    def __post_init__(self) -> None:
        if self.digits < 30:
            raise ValueError("extended precision requires digits >= 30")

    @classmethod
    def extended(cls, digits: int = 40) -> "PrecisionConfig":
        return cls(digits)

    @property
    def mode(self) -> str:
        return "extended"

    @property
    def agreement_tol(self) -> float:
        """Tolerance of cross-checks at this precision."""
        return 10.0 ** (-(self.digits - 15))

    @property
    def is_double(self) -> bool:
        """Always False: double precision is prec=None.  Nothing in the
        package reads it; bench/tracer.py looks it up by name, which keeps it here."""
        return False


def _generic_det(rows, absfn):
    """Determinant by Gaussian elimination with partial pivoting.

    Works for any field scalar with /, *, - and an absolute value; the
    matrices here are tiny (at most ~10x10), so O(n^3) scalar work is fine.
    """
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    det = 1
    sign = 1
    for c in range(n):
        p = max(range(c, n), key=lambda r: absfn(a[r][c]))
        if absfn(a[p][c]) == 0:
            return 0 * a[0][0]
        if p != c:
            a[p], a[c] = a[c], a[p]
            sign = -sign
        piv = a[c][c]
        det = det * piv
        for r in range(c + 1, n):
            f = a[r][c] / piv
            for cc in range(c + 1, n):
                a[r][cc] = a[r][cc] - f * a[c][cc]
    return det if sign > 0 else -det


def _cmul(ar, ai, br, bi):
    """CPython's complex product, part by part."""
    return ar * br - ai * bi, ar * bi + ai * br


def _cquot(ar, ai, br, bi):
    """CPython's complex quotient (`_Py_c_quot`, Smith's algorithm) for a
    nonzero divisor, part by part.  The b.imag branch is evaluated only
    where some divisor takes it.  Where b has a NaN part neither branch
    test holds and CPython gives NaN; so does the b.imag branch."""
    ratio = bi / br
    denom = br + bi * ratio
    qr, qi = (ar + ai * ratio) / denom, (ai - ar * ratio) / denom
    real_wins = np.abs(br) >= np.abs(bi)
    if not real_wins.all():
        ratio = br / bi
        denom = br * ratio + bi
        qr = np.where(real_wins, qr, (ar * ratio + ai) / denom)
        qi = np.where(real_wins, qi, (ai * ratio - ar) / denom)
    return qr, qi


def batched_det(re, im):
    """`_generic_det` of a stack of complex matrices, bit for bit.

    `re` and `im` hold the real and imaginary parts, float64 arrays of shape
    (B, n, n); returns the parts of the B determinants.  The elimination
    runs on (n, n, B) copies, batch last, so that every entry, row and
    column slice it reads is a run of contiguous length-B vectors.

    Each step replays the scalar elimination in CPython's complex arithmetic
    on separate real arrays (numpy's complex kernels round differently):
    - the pivot is the row `max()` picks by abs (libm hypot, as `abs` of a
      complex): the first row of largest key, where a NaN key in the first
      row wins and a NaN key in a later row never replaces the best; one
      argmax over the keys with the NaNs masked makes that choice;
    - a row swap exchanges only the live columns c: of the pivot rows, since
      the columns before c are never read again;
    - the quotient is Smith's, its |b.imag| > |b.real| branch evaluated only
      when some pivot of the step needs it;
    - the scalar code's integers 1 and 0 enter as 1+0j and 0+0j (the mixed
      int-complex product of CPython before 3.14), and a zero pivot gives
      0 * a[0][0].
    Raises OverflowError where `abs` would.
    """
    B, n = re.shape[:2]
    re, im = (np.ascontiguousarray(a.transpose(1, 2, 0)) for a in (re, im))
    det_re, det_im = np.ones(B), np.zeros(B)
    flip = np.zeros(B, dtype=bool)
    stopped = np.zeros(B, dtype=bool)
    early_re, early_im = np.empty(B), np.empty(B)
    with np.errstate(all="ignore"):
        for c in range(n):
            col_re, col_im = re[c:, c], im[c:, c]
            key = np.hypot(col_re, col_im)
            if not np.isfinite(key).all():
                # abs raises where finite parts give an infinite modulus
                if (np.isinf(key) & np.isfinite(col_re) & np.isfinite(col_im) & ~stopped).any():
                    raise OverflowError("absolute value too large")
                # max(): a NaN first key is never replaced, a later one never wins
                nan = np.isnan(key)
                key[nan] = -1.0
                key[0, nan[0]] = np.inf
            p = key.argmax(axis=0)
            best = key.max(axis=0)
            if not best.all():
                zero = (best == 0) & ~stopped
                early_re[zero], early_im[zero] = _cmul(0.0, 0.0, re[0, 0, zero], im[0, 0, zero])
                stopped |= zero
            swap = p != 0
            if swap.any():
                flip ^= swap
                here = p == np.arange(1, n - c)[:, None, None]
                for a in (re, im):
                    top, rows = a[c, c:], a[c + 1:, c:]
                    new_top = top
                    for r in range(n - c - 1):
                        new_top = np.where(here[r], rows[r], new_top)
                    np.copyto(rows, top, where=here)
                    top[...] = new_top
            piv_re, piv_im = re[c, c], im[c, c]
            det_re, det_im = _cmul(det_re, det_im, piv_re, piv_im)
            if c + 1 < n:
                f_re, f_im = _cquot(re[c + 1:, c, None], im[c + 1:, c, None], piv_re, piv_im)
                t_re, t_im = _cmul(f_re, f_im, re[c, None, c + 1:], im[c, None, c + 1:])
                re[c + 1:, c + 1:] -= t_re
                im[c + 1:, c + 1:] -= t_im
    det_re[flip] = -det_re[flip]
    det_im[flip] = -det_im[flip]
    det_re[stopped] = early_re[stopped]
    det_im[stopped] = early_im[stopped]
    return det_re, det_im


class DoubleOps:
    """Machine-double operation set (python complex scalars)."""

    @staticmethod
    def guard():
        return contextlib.nullcontext()

    @staticmethod
    def scalar(z) -> complex:
        return complex(z)

    one = 1.0 + 0.0j
    zero = 0.0 + 0.0j

    @staticmethod
    def exp(z):
        return cmath.exp(z)

    @staticmethod
    def expm1(z):
        # stable complex expm1: e^z - 1 without cancellation for small z
        z = complex(z)
        re, im = z.real, z.imag
        return complex(
            math.expm1(re) * math.cos(im) - 2.0 * math.sin(im / 2.0) ** 2,
            math.exp(re) * math.sin(im),
        )

    @staticmethod
    def sqrt(z):
        return cmath.sqrt(z)

    @staticmethod
    def fsum(terms):
        ts = [complex(t) for t in terms]
        return complex(math.fsum(t.real for t in ts), math.fsum(t.imag for t in ts))

    @classmethod
    def det(cls, rows):
        return _generic_det([[complex(x) for x in r] for r in rows], abs)


class ExtendedOps:
    """mpmath operation set at a fixed decimal precision."""

    def __init__(self, digits: int):
        self.digits = digits

    def guard(self):
        return mp.workdps(self.digits)

    def scalar(self, z):
        if isinstance(z, (mp.mpc, mp.mpf)):
            return mp.mpc(z)
        z = complex(z)
        return mp.mpc(z.real, z.imag)

    one = mp.mpc(1)   # exact at every precision; mpc values are immutable
    zero = mp.mpc(0)

    @staticmethod
    def exp(z):
        return mp.exp(z)

    @staticmethod
    def expm1(z):
        return mp.expm1(z)

    @staticmethod
    def sqrt(z):
        return mp.sqrt(z)

    @staticmethod
    def fsum(terms):
        return mp.fsum(terms)

    def det(self, rows):
        return _generic_det([[self.scalar(x) for x in r] for r in rows], abs)


_DOUBLE_OPS = DoubleOps()


def ops_for(prec: PrecisionConfig | None):
    """Operation set matching a precision config (None means double)."""
    if prec is None:
        return _DOUBLE_OPS
    return ExtendedOps(prec.digits)
