"""Before/after rows of the U(N) Schur route in double.

    python3 tools/bench_unitary_schur.py BEFORE_ROOT AFTER_ROOT > BENCH_unitary_schur.json
    python3 tools/bench_unitary_schur.py --measure ROOT

The command lines are `bench_common`'s.  Rows: the U(N) `schur` route in
double on the ROADMAP points 0.9, 0.7+0.3i, -0.5+0.6i, 1.2-0.4i at N = 32,
256 and 1000 for every split point m = 0..4, and on the cluster `CLUSTER`
at N = 32 and m = 0, whose value is 3.96391e-13.  The error is the
relative error against the U(N) `det` route at 150 digits, bound 1e-12.
"""

from __future__ import annotations

import sys

from bench_common import POINTS, main, timed

BOUND = 1e-12
CLUSTER = (0.80002, 0.80005, 0.80007, 0.80001)
# (N, point set, points, m), in row order
CASES = ([(N, "", POINTS, m) for N in (32, 256, 1000) for m in range(len(POINTS) + 1)]
         + [(32, " cluster", CLUSTER, 0)])


def measure(root):
    """{row: [seconds, relative error, bound]} of the package under root/src."""
    from rmt_autocorr.precision import PrecisionConfig
    from rmt_autocorr.routes import ROUTES

    schur, det = ROUTES["unitary"]["schur"], ROUTES["unitary"]["det"]
    ref_prec = PrecisionConfig.extended(150)
    rows = {}
    for N, point_set, points, m in CASES:
        seconds, value = timed(lambda: schur(N, points, m, None))
        ref = det(N, points, m, ref_prec)
        rows[f"unitary.schur N={N} m={m}{point_set} double"] = [
            seconds, float(abs(value - ref) / abs(ref)), BOUND]
    return rows


if __name__ == "__main__":
    sys.exit(main(__file__, measure, "relative error against the 150-digit U(N) det value"))
