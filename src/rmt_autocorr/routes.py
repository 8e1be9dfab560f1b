"""The group families and the route tables.  `GroupSpec` names a family
and its size; ROUTES[family][name](N, shifts, m, prec) are the sums, and
CONTOUR[family] = (route, sign) is the contour form, route(N, alphas, m,
cfg) at shifts w = exp(sign * alpha).  The split point m matters for U(N)
only.  Every family's `schur` sum is total and confluent-safe, and it is
the family's canonical value.

Nothing here imports a family module or numpy: each table entry imports
its module (`unitary`, `symplectic` or `orthogonal`) on its first call, so
a closed form loads its family's module alone (`orthogonal` also loads
`symplectic`, whose sums it reads).
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import Record, require_count
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
# The eigenvalues every element of the family has: O^-(2N) fixes +1 and -1
FORCED_EIGENVALUES = {UNITARY: (), SYMPLECTIC: (), SO_EVEN: (), O_MINUS: (1, -1)}


class GroupSpec(Record):
    """A compact group family with its size parameter N.

    The matrix dimension is N for the unitary family and 2N for the
    symplectic and orthogonal families.
    """

    __slots__ = _fields = ("family", "size")

    def __init__(self, family: str, size: int) -> None:
        fam = _ALIASES.get(str(family).lower())
        if fam is None:
            raise ValueError(f"unknown group family {family!r}")
        object.__setattr__(self, "family", fam)
        object.__setattr__(self, "size", require_count(size, 1, "size"))

    @property
    def matrix_dim(self) -> int:
        return self.size if self.family == UNITARY else 2 * self.size

    @property
    def free_angles(self) -> int:
        return self.size - len(FORCED_EIGENVALUES[self.family]) // 2


def family_module(family: str):
    """The module of the family's routes, imported on the first call
    (`orthogonal` imports `symplectic`, whose sums it reads)."""
    if family == "unitary":
        from . import unitary as module
    elif family == "symplectic":
        from . import symplectic as module
    else:  # so, ominus
        from . import orthogonal as module
    return module


def _on_first_call(family: str, bind: Callable) -> Callable:
    """A table entry: its first call imports the family's module and keeps
    bind(module), the route that this call and every later one runs."""
    route = None

    def call(*args):
        nonlocal route
        if route is None:
            route = bind(family_module(family))
        return route(*args)
    return call


def _unitary(name: str) -> Callable:
    def bind(mod):
        route, query = getattr(mod, name), mod.UnitaryQuery
        return lambda N, shifts, m, prec: route(query(N, m, shifts), prec)
    return _on_first_call("unitary", bind)


def _self_dual(family: str, name: str, *head) -> Callable:
    def bind(mod):
        route = getattr(mod, name)
        return lambda N, shifts, m, prec: route(*head, N, shifts, prec)
    return _on_first_call(family, bind)


ROUTES = {
    "unitary": {"schur": _unitary("autocorr_schur"),
                "det": _unitary("autocorr_det"),
                "comb": _unitary("autocorr_comb")},
    "symplectic": {"schur": _self_dual("symplectic", "sp_autocorr_schur"),
                   "det": _self_dual("symplectic", "sp_autocorr_det"),
                   "eps": _self_dual("symplectic", "sp_autocorr_eps")},
    "so": {"schur": _self_dual("so", "so_autocorr_schur"),
           "det": _self_dual("so", "so_autocorr_det"),
           "eps": _self_dual("so", "so_autocorr_eps")},
    "ominus": {"schur": _self_dual("ominus", "ominus_autocorr_schur"),
               "det": _self_dual("ominus", "ominus_autocorr_det"),
               "eps": _self_dual("ominus", "ominus_autocorr_eps")},
}

CONTOUR = {"unitary": (_on_first_call("unitary", lambda mod: mod.autocorr_contour), -1),
           "symplectic": (_self_dual("symplectic", "sp_autocorr_contour"), -1),
           "so": (_self_dual("so", "orthogonal_contour", "so"), 1),
           "ominus": (_self_dual("ominus", "orthogonal_contour", "ominus"), 1)}


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
