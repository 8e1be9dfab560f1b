"""The route table's canonical values."""

import pytest

from rmt_autocorr import PrecisionConfig
from rmt_autocorr.routes import ROUTES, canonical_value

SHIFTS = (0.9, 0.7 + 0.3j, -0.5 + 0.6j, 1.2 - 0.4j)


@pytest.mark.parametrize("family,N,m,reference", [
    ("unitary", 128, 2, "comb"),    # the rectangular Schur route is off by 2.4e3 here
    ("symplectic", 32, 0, "eps"),   # 58,905 Schur terms, off by 3e-9
    ("so", 32, 0, "eps"),
    ("ominus", 32, 0, "eps"),
])
def test_canonical_value_keeps_its_digits(family, N, m, reference):
    exact = complex(ROUTES[family][reference](N, SHIFTS, m, PrecisionConfig.extended(60)))
    value = complex(canonical_value(family, N, SHIFTS, m))
    assert abs(value - exact) <= 1e-9 * abs(exact)
