"""Before/after rows of the six self-dual determinant and Schur sums.

    python3 tools/bench_self_dual_sums.py BEFORE_ROOT AFTER_ROOT > BENCH_self_dual_sums.json
    python3 tools/bench_self_dual_sums.py --measure ROOT

The command lines are `bench_common`'s.  Rows: the schur and det sums of
USp(2N), SO(2N) and O^-(2N) at k = 4
- on the ROADMAP points 0.9, 0.7+0.3i, -0.5+0.6i, 1.2-0.4i at N = 2, 8 and
  32 in double and at 40 digits, and at N = 256 and 1000 in double;
- on the annulus points `ANNULUS` (0.5 < |w| < 1.5, three of them outside
  the unit disk) at N = 128 and 256 in double.
The error is the relative error against the family's `eps` route at 60
digits, bound 1e-12.
"""

from __future__ import annotations

import sys

from bench_common import POINTS, main, reference, timed

ANNULUS = (1.2 + 0.5j, -0.4 + 0.7j, -1.1 - 0.6j, 0.5 - 1.3j)
BOUND = 1e-12
SUMS = [(family, route) for family in ("symplectic", "so", "ominus") for route in ("schur", "det")]
# (N, point set, points, digits; None is double), in row order
CASES = ([(N, "", POINTS, digits) for N in (2, 8, 32) for digits in (None, 40)]
         + [(N, "", POINTS, None) for N in (256, 1000)]
         + [(N, " annulus", ANNULUS, None) for N in (128, 256)])


def measure(root):
    """{row: [seconds, relative error, bound]} of the package under root/src."""
    from rmt_autocorr.precision import PrecisionConfig
    from rmt_autocorr.routes import ROUTES

    rows = {}
    for N, point_set, points, digits in CASES:
        prec = None if digits is None else PrecisionConfig.extended(digits)
        for family, route in SUMS:
            seconds, value = timed(lambda fn=ROUTES[family][route]: fn(N, points, 0, prec))
            ref = reference(family, N, points, 0)
            precision = "double" if digits is None else f"{digits} digits"
            rows[f"{family}.{route} N={N}{point_set} {precision}"] = [
                seconds, float(abs(value - ref) / abs(ref)), BOUND]
    return rows


if __name__ == "__main__":
    sys.exit(main(__file__, measure, "relative error against the 60-digit eps value"))
