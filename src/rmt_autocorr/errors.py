"""Typed errors raised by the numerical routes, the one count check, and
`Record`, the base of the package's frozen value records.

Every route that can fail for a *numerical* reason (as opposed to a usage
error) raises one of these, so callers can fall back to a confluent-safe
route or report a machine-readable error name.  `PrecisionLoss` is the
refusal of a route whose own error estimate is too large (the Heine
determinant of the Weyl quadrature raises it).  `require_count` checks
every size, split point and node, sample or digit count; this module
imports nothing of the package, so every module can call it.
"""

import operator


def require_count(value, least: float, what: str) -> int:
    """`value` as an int; ValueError naming `what` for a non-integer (2.5
    would be a real power w^2.5 or a truncated partition) or one below
    `least` (-math.inf: any integer)."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer") from None
    if count < least:
        raise ValueError(f"{what} must be >= {least}")
    return count


class Record:
    """A frozen value record, built without `dataclasses`, whose import
    loads `inspect` and `ast` (about 7 ms of a start-up).

    A subclass names its fields in `_fields`, lists them (and any attribute
    that is not a field) in `__slots__`, and sets them in its `__init__`
    with `object.__setattr__`.  Equality, hashing and the repr read the
    fields in order; assigning or deleting an attribute raises AttributeError,
    and a copy or an unpickled record is built by the constructor again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class RouteError(Exception):
    """Base class for numerical-route failures."""


class NearConfluent(RouteError):
    """Evaluation points too close together for a Vandermonde-normalized
    route; use a confluent-safe route (`schur`) instead."""


class PoleHit(RouteError):
    """A closed-form denominator is (numerically) zero for these shifts."""


class DimensionCap(RouteError):
    """A tensor-product grid would exceed the configured dimension cap, or
    a matrix the configured order cap."""


class PrecisionLoss(RouteError):
    """The route's own error estimate exceeds the double crosscheck
    tolerance: its value may have lost the digits the check needs."""


class ContourTooTight(RouteError):
    """The automatic contour radius cannot separate the enclosed points
    from the integrand's other singularities."""


class InconsistentCoefficients(RouteError):
    """Polynomial coefficients do not satisfy the required divisibility
    relation."""
