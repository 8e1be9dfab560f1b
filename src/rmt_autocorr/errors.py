"""Typed errors raised by the numerical routes, and the one count check.

Every route that can fail for a *numerical* reason (as opposed to a usage
error) raises one of these, so callers can fall back to a confluent-safe
route or report a machine-readable error name.  `require_count` checks
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


class RouteError(Exception):
    """Base class for numerical-route failures."""


class NearConfluent(RouteError):
    """Evaluation points too close together for a Vandermonde-normalized
    route; use a confluent-safe route (`schur`) instead."""


class PoleHit(RouteError):
    """A closed-form denominator is (numerically) zero for these shifts."""


class DimensionCap(RouteError):
    """A tensor-product grid would exceed the configured dimension cap."""


class ContourTooTight(RouteError):
    """The automatic contour radius cannot separate the enclosed points
    from the integrand's other singularities."""


class InconsistentCoefficients(RouteError):
    """Polynomial coefficients do not satisfy the required divisibility
    relation."""
