"""The closed-form route table: ROUTES[family][name](N, shifts, m, prec).

The split point m matters for the unitary family only.  CANONICAL[family]
is the order in which canonical_value tries a family's routes: each but
the last may refuse with a RouteError, and the last is total.
"""

from __future__ import annotations

from typing import Sequence

from . import orthogonal, symplectic, unitary
from .errors import RouteError
from .precision import PrecisionConfig, ops_for


def _unitary(route):
    return lambda N, shifts, m, prec: route(unitary.UnitaryQuery(N, m, tuple(shifts)), prec)


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

# The coset's 2^k closed form is cheap at every N; its Schur sum is the
# confluent-safe fallback.
CANONICAL = {"unitary": ("schur",), "symplectic": ("schur",), "so": ("schur",),
             "ominus": ("eps", "schur")}


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
                     undo_embedded_sign: bool = True,
                     prec: PrecisionConfig | None = None):
    """Average over all of O(2N) = SO(2N) and its determinant -1 coset.

    With undo_embedded_sign (default) this is the genuine Haar average of
    prod Lambda(w_j) over O(2N): the coset value carries a defining (-1)^k
    which is removed before the two halves are mixed with equal weight.
    With the flag off the coset value enters as defined.
    """
    num = ops_for(prec)
    with num.guard():
        so_val = canonical_value("so", N, shifts, 0, prec)
        om_val = canonical_value("ominus", N, shifts, 0, prec)
        if undo_embedded_sign:
            om_val = om_val * (-1) ** len(shifts)
        return (so_val + om_val) / 2
