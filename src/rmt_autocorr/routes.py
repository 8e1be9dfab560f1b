"""The group families and the route tables.  `GroupSpec` names a family
and its size; ROUTES[family][name](N, shifts, m, prec) are the sums, and
CONTOUR[family] = (route, sign) is the contour form, route(N, alphas, m,
cfg) at shifts w = exp(sign * alpha).  The split point m matters for U(N)
only.  Every family's `schur` sum is total and confluent-safe, and it is
the family's canonical value.  Nothing here imports numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from . import orthogonal, symplectic, unitary
from .errors import require_count
from .precision import PrecisionConfig, ops_for

UNITARY = "unitary"
SYMPLECTIC = "symplectic"
SO_EVEN = "so"
O_MINUS = "ominus"

_ALIASES = {
    "u": UNITARY, "unitary": UNITARY,
    "usp": SYMPLECTIC, "symplectic": SYMPLECTIC,
    "so": SO_EVEN, "ominus": O_MINUS,
}


@dataclass(frozen=True)
class GroupSpec:
    """A compact group family with its size parameter N.

    The matrix dimension is N for the unitary family and 2N for the
    symplectic and orthogonal families.
    """

    family: str
    size: int

    def __post_init__(self) -> None:
        fam = _ALIASES.get(str(self.family).lower())
        if fam is None:
            raise ValueError(f"unknown group family {self.family!r}")
        object.__setattr__(self, "family", fam)
        object.__setattr__(self, "size", require_count(self.size, 1, "size"))

    @property
    def matrix_dim(self) -> int:
        return self.size if self.family == UNITARY else 2 * self.size

    @property
    def free_angles(self) -> int:
        return self.size - 1 if self.family == O_MINUS else self.size


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


def canonical_value(family: str, N: int, shifts: Sequence[complex], m: int = 0,
                    prec: PrecisionConfig | None = None):
    """The family's value by its `schur` route."""
    return ROUTES[family]["schur"](N, shifts, m, prec)


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
