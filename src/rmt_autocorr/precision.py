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
