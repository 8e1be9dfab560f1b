"""Before/after rows of the 40-digit routes that no other BENCH file times.

    python3 tools/bench_extended.py BEFORE_ROOT AFTER_ROOT > BENCH_extended.json
    python3 tools/bench_extended.py --measure ROOT

The command lines are `bench_common`'s.  Rows: the U(N) `det`, `comb` and
`schur` routes (m = 2) and the USp(2N), SO(2N) and O^-(2N) `eps` routes, at
40 digits, N = 2 and 32, on the ROADMAP points 0.9, 0.7+0.3i, -0.5+0.6i,
1.2-0.4i.  The error is the relative error against the same tree's
60-digit value of another route (`REFERENCE`), bound 1e-30.
"""

from __future__ import annotations

import sys

from bench_common import POINTS, main, timed

BOUND = 1e-30
SIZES = (2, 32)
SPLIT = 2
# (family, route) -> the route whose 60-digit value is the row's reference
REFERENCE = {("unitary", "det"): "comb", ("unitary", "comb"): "schur",
             ("unitary", "schur"): "det", ("symplectic", "eps"): "det",
             ("so", "eps"): "det", ("ominus", "eps"): "det"}


def measure(root):
    """{row: [seconds, relative error, bound]} of the package under root/src."""
    from rmt_autocorr.precision import PrecisionConfig
    from rmt_autocorr.routes import ROUTES

    prec, ref_prec = PrecisionConfig.extended(40), PrecisionConfig.extended(60)
    rows = {}
    for N in SIZES:
        for (family, route), ref_route in REFERENCE.items():
            seconds, value = timed(lambda fn=ROUTES[family][route]: fn(N, POINTS, SPLIT, prec))
            ref = ROUTES[family][ref_route](N, POINTS, SPLIT, ref_prec)
            rows[f"{family}.{route} N={N} 40 digits"] = [
                seconds, float(abs(value - ref) / abs(ref)), BOUND]
    return rows


if __name__ == "__main__":
    sys.exit(main(__file__, measure,
                  "relative error against the 60-digit value of another route: "
                  + ", ".join(f"{f}.{r} against {ref}" for (f, r), ref in REFERENCE.items())))
