"""Precision plumbing: one switch between machine doubles and decimal digits.

All closed-form routes and identity checks run either on plain Python
complex numbers (the default) or on `DecimalComplex` scalars, pairs of
`decimal.Decimal` parts rounded to a configured number of decimal digits
(the C `decimal` module, libmpdec).  A :class:`PrecisionConfig` (None for
doubles) travels with every call, and is itself the extended operation
set: ``ops_for(prec)`` returns it, or `DoubleOps` for None; each has
`guard`, `scalar`, `one`, `zero`, `exp`, `expm1`, `fsum`, `det`,
`products`, `power_table`, `quotient_sum` and the cross-check tolerance
`agreement_tol`.  Code written against the operation set is
precision-agnostic, and a shift's value enters it through the set's
`scalar` alone (exactly, when extended).  The two sets differ in their
operations only where the extended one saves decimal work: its `products`
forms no product with the `one` or `zero` object, its `power_table` shares
binary powering's squares, and its `quotient_sum` divides each term once,
by the product of its divisors.  The double forms are the plain loops,
operation for operation, so every double result, and the verdict of a
route that cancels, is bit-identical to theirs.

An extended result is a `DecimalComplex` whose parts were rounded by the
decimal context current when they were computed; the routes compute
inside ``ops_for(prec).guard()``, and further arithmetic at their
precision belongs inside it too (outside, decimal's default context
rounds to 28 digits).  ``complex(v)`` rounds a result to doubles, and
``mpmath.mp.mpc(v)`` converts it with one correct rounding at mpmath's
working precision.

Vectorized machinery (Weyl quadrature grids, Haar sampling, Monte Carlo)
is numpy-based and always runs in double precision; its error is either
spectrally small or statistical, so extended digits would buy nothing.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, getcontext, localcontext
from functools import reduce, total_ordering
from operator import attrgetter, mul

from .errors import Record, require_count


def _generic_det(rows, absfn):
    """Determinant by Gaussian elimination with partial pivoting.

    Works for any field scalar with /, *, - and an absolute value; the
    matrices here are tiny (at most ~10x10), so O(n^3) scalar work is fine.
    """
    a = [list(r) for r in rows]
    n = len(a)
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
        det = det * piv if c else piv
        for r in range(c + 1, n):
            f = a[r][c] / piv
            for cc in range(c + 1, n):
                a[r][cc] = a[r][cc] - f * a[c][cc]
    return det if sign > 0 else -det


_NO_CONTEXT = contextlib.nullcontext()   # reusable: it holds no state


class DoubleOps:
    """Machine-double operation set (python complex scalars)."""

    agreement_tol = 1e-9   # tolerance of cross-checks in double precision

    @staticmethod
    def guard():
        return _NO_CONTEXT

    scalar = staticmethod(complex)

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
    def fsum(terms):
        ts = [complex(t) for t in terms]
        try:
            return complex(math.fsum(t.real for t in ts), math.fsum(t.imag for t in ts))
        except ValueError:  # -inf + inf: the plain IEEE sum, whose part is NaN
            return sum(ts, 0j)

    @classmethod
    def det(cls, rows):
        return _generic_det([[complex(x) for x in r] for r in rows], abs)

    @staticmethod
    def products(xs, ys):
        """The pairwise products x * y of two sequences, as an iterator."""
        return map(mul, xs, ys)

    @staticmethod
    def power_table(w, top: int) -> list:
        """[w ** 0, ..., w ** top], each by Python's complex power."""
        return [w ** e for e in range(top + 1)]

    @classmethod
    def quotient_sum(cls, terms, numerators, divisors, signed: bool = False):
        """The sum over `terms` (negative, numerator positions, divisor
        positions) of the product of the numerators divided by each divisor
        in turn, negated where `signed` and negative."""
        out, one = [], cls.one
        for negative, num_at, div_at in terms:
            t = -one if signed and negative else one
            for p in num_at:
                t = t * numerators[p]
            for d in div_at:
                t = t / divisors[d]
            out.append(t)
        return cls.fsum(out)


# ---------------------------------------------------------------------------
# The extended scalar
# ---------------------------------------------------------------------------

_ZERO = Decimal(0)
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)   # never rounds


def _from_mpf(t) -> Decimal:
    """A raw mpmath mpf tuple (sign, man, exp, bc) as a Decimal, exactly."""
    sign, man, exp, _bc = t
    if not man:
        if exp:   # mpmath's inf and nan have a zero mantissa and a nonzero exponent
            from mpmath.libmp import to_str
            return Decimal(to_str(t, 1))
        return _ZERO
    d = Decimal(man << exp) if exp >= 0 else _EXACT.scaleb(Decimal(man * 5 ** -exp), exp)
    return d.copy_negate() if sign else d


@total_ordering
class DecimalComplex:
    """An immutable complex number of two `decimal.Decimal` parts (build
    one from any number with `PrecisionConfig.scalar`).

    Arithmetic rounds in the current decimal context (`PrecisionConfig.guard`
    sets it), and mixes exactly with int, float, complex and Decimal on
    either side; integer powers of any sign are supported.  Real values
    (`abs` returns one) also order, compare with floats and convert to
    float.  ``complex(z)`` rounds to doubles, and mpmath converts through
    `_mpc_` (and `_mpf_` for a real value) at its working precision.
    """

    __slots__ = ("_re", "_im")

    def __init__(self, real: Decimal, imag: Decimal):
        self._re = real
        self._im = imag

    real = property(attrgetter("_re"), doc="The real part, a Decimal.")
    imag = property(attrgetter("_im"), doc="The imaginary part, a Decimal.")

    def __repr__(self) -> str:
        return f"DecimalComplex({str(self._re)!r}, {str(self._im)!r})"

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, o):
        if type(o) is not DecimalComplex:
            o = _promote(o)
            if o is None:
                return NotImplemented
        return DecimalComplex(self._re + o._re, self._im + o._im)

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is not DecimalComplex:
            o = _promote(o)
            if o is None:
                return NotImplemented
        return DecimalComplex(self._re - o._re, self._im - o._im)

    def __rsub__(self, o):
        o = _promote(o)
        return NotImplemented if o is None else o - self

    def __mul__(self, o):
        if type(o) is not DecimalComplex:
            o = _promote(o)
            if o is None:
                return NotImplemented
        a, b, c, d = self._re, self._im, o._re, o._im
        return DecimalComplex(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if type(o) is not DecimalComplex:
            o = _promote(o)
            if o is None:
                return NotImplemented
        a, b, c, d = self._re, self._im, o._re, o._im
        if not d:
            if not c:   # 0/0 would be decimal's InvalidOperation
                raise ZeroDivisionError("complex division by zero")
            return DecimalComplex(a / c, b / c)
        den = c * c + d * d
        return DecimalComplex((a * c + b * d) / den, (b * c - a * d) / den)

    def __rtruediv__(self, o):
        o = _promote(o)
        return NotImplemented if o is None else o / self

    def __pow__(self, e):
        """z ** e for an integer e by binary powering from z itself: z ** 0
        is 1, z ** 1 is +z, and a negative e is the reciprocal of z ** -e
        (ZeroDivisionError at 0)."""
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return _ONE / self ** -e
        if not e:
            return _ONE
        base = self
        while not e & 1:
            base = base * base
            e >>= 1
        out = +base
        while e > 1:
            e >>= 1
            base = base * base
            if e & 1:
                out = out * base
        return out

    def __neg__(self):
        return DecimalComplex(-self._re, -self._im)

    def __pos__(self):
        """z rounded in the current context."""
        return DecimalComplex(+self._re, +self._im)

    def __abs__(self):
        a, b = self._re, self._im
        if not b:
            return DecimalComplex(abs(a), _ZERO)
        if not a:
            return DecimalComplex(abs(b), _ZERO)
        return DecimalComplex((a * a + b * b).sqrt(), _ZERO)

    # -- comparisons and conversions -------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._re) or bool(self._im)

    def __eq__(self, o):
        o = _promote(o)
        return NotImplemented if o is None else self._re == o._re and self._im == o._im

    def __hash__(self) -> int:
        # equal to hash(complex(z)) wherever z equals a complex
        half = 1 << (sys.hash_info.width - 1)   # CPython wraps the sum to a signed word
        h = (hash(self._re) + sys.hash_info.imag * hash(self._im) + half) % (2 * half) - half
        return -2 if h == -1 else h

    def __lt__(self, o):
        o = _promote(o)
        if o is None:
            return NotImplemented
        if self._im or o._im:
            raise TypeError("no ordering relation is defined for complex numbers")
        return self._re < o._re

    def __float__(self) -> float:
        if self._im:
            raise TypeError("can't convert a complex DecimalComplex to float")
        return float(self._re) + 0.0   # + 0.0: no negative zero, as in mpmath

    def __complex__(self) -> complex:
        return complex(float(self._re) + 0.0, float(self._im) + 0.0)

    @property
    def _mpc_(self):
        from mpmath import mp
        from mpmath.libmp import from_Decimal

        prec, rounding = mp._prec_rounding
        return from_Decimal(self._re, prec, rounding), from_Decimal(self._im, prec, rounding)

    @property
    def _mpf_(self):
        if self._im:
            raise AttributeError("a complex DecimalComplex has no _mpf_")
        return self._mpc_[0]


def _promote(z):
    """A DecimalComplex, int, float, complex or Decimal as a DecimalComplex,
    exactly; None for any other type."""
    if type(z) is DecimalComplex:
        return z
    if isinstance(z, (int, float, Decimal)):
        return DecimalComplex(Decimal(z), _ZERO)
    if isinstance(z, complex):
        return DecimalComplex(Decimal(z.real), Decimal(z.imag))
    return None


_ONE = DecimalComplex(Decimal(1), _ZERO)


def _to_scalar(z) -> DecimalComplex:
    """Any number as a DecimalComplex, exactly: mpmath values through their
    binary mantissas, everything else through `_promote` or complex()."""
    out = _promote(z)
    if out is not None:
        return out
    if hasattr(z, "_mpc_"):
        return DecimalComplex(*map(_from_mpf, z._mpc_))
    if hasattr(z, "_mpf_"):
        return DecimalComplex(_from_mpf(z._mpf_), _ZERO)
    return _promote(complex(z))


def require_finite(values) -> None:
    """ValueError for an inf or NaN among `values`.  Every route checks its
    shifts here: a non-finite one is a usage error, not a RouteError.  A
    value that is not finite as a double is read again exactly, so a
    40-digit value beyond the double range passes."""
    try:
        if all(map(cmath.isfinite, values)):
            return
    except (OverflowError, TypeError):   # an int beyond the double range, a non-number
        pass
    for v in values:
        z = _to_scalar(v)
        if not (z._re.is_finite() and z._im.is_finite()):
            raise ValueError(f"non-finite shift {v!r}")


def _via_mpmath(name: str, z) -> DecimalComplex:
    """mpmath's `name` function of z at the current context's digits,
    rounded back into that context.  mpmath is imported on first use only."""
    from mpmath import mp

    ctx = getcontext()
    with mp.workdps(ctx.prec):
        v = getattr(mp, name)(mp.mpc(_to_scalar(z)))
    re, im = v._mpc_
    return DecimalComplex(ctx.plus(_from_mpf(re)), ctx.plus(_from_mpf(im)))


class PrecisionConfig(Record):
    """Extended arithmetic at `digits` decimal digits (>= 30), and its
    operation set: ``ops_for(prec)`` returns the config (doubles are None).

    `guard()` rounds to digits + 2 significant digits (mpmath's 40 digits
    were 136 bits, about 40.9) with the exponent range wide open; division
    by zero raises ZeroDivisionError, and decimal's invalid-operation and
    overflow signals stay trapped.  `scalar` converts any number exactly,
    and ``mpmath.mp.mpc(v)`` converts a result exactly up to one rounding
    at mpmath's precision."""

    _fields = ("digits",)
    __slots__ = ("digits", "_context")

    def __init__(self, digits: int = 40) -> None:
        object.__setattr__(self, "digits", require_count(digits, 30, "digits"))
        # not a field: equality, hashing and repr read the digits alone
        object.__setattr__(self, "_context", Context(prec=self.digits + 2, Emax=MAX_EMAX, Emin=MIN_EMIN))

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

    def guard(self):
        return localcontext(self._context)

    scalar = staticmethod(_to_scalar)

    one = _ONE   # exact at every precision; DecimalComplex values are immutable
    zero = DecimalComplex(_ZERO, _ZERO)

    @staticmethod
    def exp(z):
        return _via_mpmath("exp", z)

    @staticmethod
    def expm1(z):
        return _via_mpmath("expm1", z)

    @staticmethod
    def fsum(terms):
        """The sum, added exactly and rounded once in the current context."""
        ctx = getcontext()
        add = _EXACT.add
        re = im = _ZERO
        for t in terms:
            if type(t) is not DecimalComplex:
                t = _to_scalar(t)
            re = add(re, t._re)
            im = add(im, t._im)
        return DecimalComplex(ctx.plus(re), ctx.plus(im))

    def det(self, rows):
        # pivots by |z|^2, which orders the entries as |z| does without a sqrt
        return _generic_det([[_to_scalar(x) for x in r] for r in rows],
                            lambda z: z._re * z._re + z._im * z._im)

    def products(self, xs, ys):
        """The pairwise products x * y of two sequences, as a list; a factor
        that is the `one` object gives the other factor and one that is the
        `zero` object gives `zero`, without a decimal product."""
        one, zero = self.one, self.zero
        return [zero if x is zero or y is zero else y if x is one else x if y is one else x * y
                for x, y in zip(xs, ys)]

    def power_table(self, w, top: int) -> list:
        """[w ** 0, ..., w ** top] with one product per entry: w ** e is
        w ** (e - b) times the square w ** b, b the highest bit of e, which
        is binary powering's last product, so each entry equals w ** e."""
        table, square, bit = [self.one, +w], w, 1
        for e in range(2, top + 1):
            if e == 2 * bit:
                square, bit = square * square, e
            table.append(square if e == bit else table[e - bit] * square)
        return table[:top + 1]

    def quotient_sum(self, terms, numerators, divisors, signed: bool = False):
        """`DoubleOps.quotient_sum` with one division per term: the product
        of its numerators, from the first, over the product of its divisors."""
        out = []
        for negative, num_at, div_at in terms:
            t = reduce(mul, [numerators[p] for p in num_at]) if num_at else self.one
            if div_at:
                t = t / reduce(mul, [divisors[d] for d in div_at])
            out.append(-t if signed and negative else t)
        return self.fsum(out)


# bench/tracer.py patches `det` and `fsum` on the extended set under this name.
ExtendedOps = PrecisionConfig

_DOUBLE_OPS = DoubleOps()


def ops_for(prec: PrecisionConfig | None):
    """The operation set of a precision config: the config itself (None: doubles)."""
    return _DOUBLE_OPS if prec is None else prec
