"""Sizes, split points and counts are integers.

A fractional one raises ValueError naming the argument; it is not answered
as a real power w^2.5, a partition truncated by int(), or a split point
m = 1.5 read as m = 2.
"""

import numpy as np
import pytest

from rmt_autocorr import (
    ContourConfig,
    GroupSpec,
    Partition,
    PrecisionConfig,
    monte_carlo_average,
    run_identity_suite,
    weyl_autocorrelation,
)
from rmt_autocorr.haar import autocorr_integrand
from rmt_autocorr.orthogonal import ominus_autocorr_eps, so_autocorr_eps
from rmt_autocorr.symplectic import sp_autocorr_eps, sp_large_n_ratio
from rmt_autocorr.unitary import (
    UnitaryQuery,
    autocorr_comb,
    autocorr_schur,
    shifted_product_average,
)

SHIFTS = (0.5, 0.3)


@pytest.mark.parametrize("what,call", [
    ("N", lambda: autocorr_comb(UnitaryQuery(2.5, 1, SHIFTS))),
    ("N", lambda: autocorr_schur(UnitaryQuery(2.5, 1, SHIFTS))),
    ("m", lambda: autocorr_schur(UnitaryQuery(2, 1.5, SHIFTS))),
    ("m", lambda: shifted_product_average(2, SHIFTS, 1.5)),
    ("N", lambda: sp_autocorr_eps(2.5, SHIFTS)),
    ("N", lambda: sp_autocorr_eps(2.0, SHIFTS)),  # an integral float is not an integer either
    ("N", lambda: so_autocorr_eps(2.5, SHIFTS)),
    ("N", lambda: ominus_autocorr_eps(2.5, SHIFTS)),
    ("N", lambda: sp_large_n_ratio([0.3], 2.5)),
    ("N", lambda: autocorr_comb(UnitaryQuery(0, 1, SHIFTS))),
    ("N", lambda: autocorr_comb(UnitaryQuery(-3, 1, SHIFTS))),
    ("m", lambda: monte_carlo_average(
        GroupSpec("u", 3), autocorr_integrand(GroupSpec("u", 3), (0.5, 0.3j), 1.5), 1, 100)),
    ("count", lambda: monte_carlo_average(
        GroupSpec("u", 3), autocorr_integrand(GroupSpec("u", 3), (0.5, 0.3j), 1), 1, 100.5)),
    ("partition parts", lambda: Partition((2.5, 1))),
    ("size", lambda: GroupSpec("so", 2.5)),
    ("trials", lambda: run_identity_suite(1.5, 1)),
    ("nodes_per_dim", lambda: ContourConfig(16.5)),
    ("digits", lambda: PrecisionConfig(40.5)),
], ids=["comb-N", "schur-N", "schur-m", "shifted-product-m", "usp-eps-N", "usp-eps-N-float",
        "so-eps-N", "ominus-eps-N", "large-n-ratio-N", "comb-N-zero", "comb-N-negative",
        "integrand-m", "monte-carlo-count", "partition-part", "group-size", "identity-trials",
        "contour-nodes", "digits"])
def test_a_fractional_or_small_count_is_refused_by_name(what, call):
    with pytest.raises(ValueError, match=f"^{what} must be "):
        call()


def test_a_numpy_integer_is_kept_as_an_int():
    spec = GroupSpec("usp", np.int64(2))
    assert type(spec.size) is int
    assert weyl_autocorrelation(spec, SHIFTS) == pytest.approx(complex(sp_autocorr_eps(2, SHIFTS)),
                                                             rel=1e-12)
    query = UnitaryQuery(np.int64(2), np.int64(1), SHIFTS)
    assert type(query.N) is int and type(query.m) is int
