"""The route table's canonical values."""

import cmath

import pytest

from rmt_autocorr import PrecisionConfig
from rmt_autocorr.routes import CONTOUR, ROUTES, canonical_value
from rmt_autocorr.symcore import divided_difference_sum
from rmt_autocorr.symplectic import parity_family

SHIFTS = (0.9, 0.7 + 0.3j, -0.5 + 0.6j, 1.2 - 0.4j)
# A 1e-7 pair near |w| = 1.05, where `eps` and `det` refuse, so the USp
# canonical value is the Schur sum's; it lost every digit at N = 256 before
# it folded |w| > 1 into the unit disk.  The reference is the unfolded Schur
# sum at 100 digits.
PAIR = 1.05 * cmath.exp(0.7j)
NEAR_PAIRS = {
    "unfolded-pair-plus-1e-7": (PAIR, PAIR + 1e-7, 0.9 * cmath.exp(2j), 1.02 * cmath.exp(-1j)),
    "unfolded-pair-times-1+1e-7": (PAIR, PAIR * (1 + 1e-7), 0.7 + 0.3j, -0.5 + 0.6j),
}


def _reference(family, N, m, reference):
    """(shifts, value) of a row: a route at 60 digits on SHIFTS, or a
    NEAR_PAIRS cell's unfolded USp Schur sum at 100 digits."""
    if reference in NEAR_PAIRS:
        shifts = NEAR_PAIRS[reference]
        families = [parity_family(len(shifts), 2 * N + len(shifts) - 1)]
        return shifts, divided_difference_sum(shifts, families, PrecisionConfig.extended(100))
    return SHIFTS, ROUTES[family][reference](N, SHIFTS, m, PrecisionConfig.extended(60))


@pytest.mark.parametrize("family,N,m,reference", [
    ("unitary", 128, 2, "comb"),    # the rectangular Schur route is off by 2.4e3 here
    ("symplectic", 32, 0, "eps"),   # 58,905 Schur terms, off by 3e-9
    ("so", 32, 0, "eps"),
    ("ominus", 32, 0, "eps"),
    ("symplectic", 256, 0, "unfolded-pair-plus-1e-7"),     # was off by 1.4e7
    ("symplectic", 256, 0, "unfolded-pair-times-1+1e-7"),  # was off by 3.2e11
])
def test_canonical_value_keeps_its_digits(family, N, m, reference):
    shifts, exact = _reference(family, N, m, reference)
    value = complex(canonical_value(family, N, shifts, m))
    assert abs(value - complex(exact)) <= 1e-12 * abs(complex(exact))


# At the smallest size of each family the moment at shifts (a, b) is known:
# U(1) at m = 0 is a b; USp(0) is the trivial group; SO(2) averages
# (1 - 2w cos t + w^2) over t; O^-(2) is prod (w^2 - 1) times USp(0).  U(0),
# SO(0) and O^-(0) are not sizes here.  The contour routes take alphas near
# zero, at shifts w = exp(sign * alpha).
ALPHAS = (0.1 + 0.05j, -0.12 + 0.1j)


@pytest.mark.parametrize("family,smallest,moment", [
    ("symplectic", 0, lambda a, b: 1),
    ("so", 1, lambda a, b: (1 + a * a) * (1 + b * b) + 2 * a * b),
    ("ominus", 1, lambda a, b: (a * a - 1) * (b * b - 1)),
    ("unitary", 1, lambda a, b: a * b),
], ids=["usp", "so", "ominus", "u"])
def test_self_dual_routes_refuse_sizes_below_the_family(family, smallest, moment):
    shifts = (0.5, 0.3j)
    for route in ROUTES[family].values():
        with pytest.raises(ValueError, match=f"must be >= {smallest}"):
            route(smallest - 1, shifts, 0, None)
        assert complex(route(smallest, shifts, 0, None)) == pytest.approx(moment(*shifts),
                                                                           abs=1e-14)
    contour, sign = CONTOUR[family]
    for N in (-1, smallest - 1):
        with pytest.raises(ValueError, match=f"must be >= {smallest}"):
            contour(N, ALPHAS, 0, None)
    w = [cmath.exp(sign * a) for a in ALPHAS]
    assert complex(contour(smallest, ALPHAS, 0, None)) == pytest.approx(moment(*w), abs=1e-12)
