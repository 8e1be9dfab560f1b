"""The Jacobi-Trudi Schur evaluation: the reference the U(N) canonical value
is tested against.

det[h_(mu_i - i + j)(x_1..x_n)] over h of all the points, as
`rmt_autocorr.symcore.schur_stable` computed it before it read the
divided-difference rows.  Its entries are all about |x_max|^(mu_1), so it
cancels where the points differ in modulus; at 140 digits that leaves
about 18 digits on 0.5 < |w| < 1.5 at degree 256.  Only tests import this
module.
"""

from __future__ import annotations

from typing import Sequence

from rmt_autocorr.precision import PrecisionConfig, ops_for
from rmt_autocorr.symcore import Partition, complete_homogeneous


def jacobi_trudi(mu: Partition, points: Sequence, prec: PrecisionConfig | None = None):
    """Confluent-safe Schur evaluation via the complete-homogeneous
    (Jacobi-Trudi) determinant det[h_{mu_i - i + j}]."""
    if len(mu) != len(points):
        raise ValueError("partition length must equal the number of points")
    num = ops_for(prec)
    ell = mu.nonzero_count
    if ell == 0:
        with num.guard():
            return num.one
    with num.guard():
        # h_0..h_top and a zero: h_d at d = mu_i - i + j, the zero for d < 0
        h = complete_homogeneous(mu.parts[0] + ell - 1, points, prec) + [num.zero]
        return num.det([[h[max(mu.parts[i] - i + j, -1)] for j in range(ell)]
                        for i in range(ell)])
