"""The route tables: ROUTES[family][name](N, shifts, m, prec) are the sums,
and CONTOUR[family] = (route, sign) is the contour form, route(N, alphas, m,
cfg) at shifts w = exp(sign * alpha).  The split point m matters for U(N)
only.  CANONICAL[family] is the order in which canonical_value tries the
sums: each but the last may refuse with a RouteError, and the last is total.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from . import orthogonal, symplectic, unitary
from .errors import RouteError
from .precision import PrecisionConfig, ops_for


def _unitary(route):
    return lambda N, shifts, m, prec: route(unitary.UnitaryQuery(N, m, shifts), prec)


def _self_dual(route):
    return lambda N, shifts, m, prec: route(N, shifts, prec)


ROUTES = {
    "unitary": {"schur": _unitary(unitary.autocorr_schur),
                "det": _unitary(unitary.autocorr_det),
                "comb": _unitary(unitary.autocorr_comb)},
    "symplectic": {"schur": _self_dual(symplectic.sp_autocorr_schur),
                   "det": _self_dual(symplectic.sp_autocorr_det),
                   "eps": _self_dual(symplectic.sp_autocorr_eps)},
    "so": {"schur": _self_dual(orthogonal.so_autocorr_schur),
           "det": _self_dual(orthogonal.so_autocorr_det),
           "eps": _self_dual(orthogonal.so_autocorr_eps)},
    "ominus": {"schur": _self_dual(orthogonal.ominus_autocorr_schur),
               "det": _self_dual(orthogonal.ominus_autocorr_det),
               "eps": _self_dual(orthogonal.ominus_autocorr_eps)},
}

CONTOUR = {"unitary": (unitary.autocorr_contour, -1),
           "symplectic": (_self_dual(symplectic.sp_autocorr_contour), -1),
           "so": (_self_dual(partial(orthogonal.orthogonal_contour, "so")), 1),
           "ominus": (_self_dual(partial(orthogonal.orthogonal_contour, "ominus")), 1)}

# `det` keeps the digits that the U(N) Schur sum loses off the unit circle.
# The self-dual value is the folded Schur sum alone: it is confluent-safe,
# where `eps` cancels near w = 1 without refusing.
CANONICAL = {"unitary": ("det", "schur"), "symplectic": ("schur",),
             "so": ("schur",), "ominus": ("schur",)}


def canonical_value(family: str, N: int, shifts: Sequence[complex], m: int = 0,
                    prec: PrecisionConfig | None = None):
    """The family's value by the first route of CANONICAL that does not refuse."""
    *fallible, total = CANONICAL[family]
    for name in fallible:
        try:
            return ROUTES[family][name](N, shifts, m, prec)
        except RouteError:
            pass
    return ROUTES[family][total](N, shifts, m, prec)


def full_o2n_average(N: int, shifts: Sequence[complex],
                     prec: PrecisionConfig | None = None):
    """Average over all of O(2N) = SO(2N) and its determinant -1 coset.

    This is the Haar average of prod Lambda(w_j) over O(2N): the coset
    value carries a defining (-1)^k which is removed before the two halves
    are mixed with equal weight.
    """
    num = ops_for(prec)
    with num.guard():
        so_val = canonical_value("so", N, shifts, 0, prec)
        om_val = canonical_value("ominus", N, shifts, 0, prec) * (-1) ** len(shifts)
        return (so_val + om_val) / 2
