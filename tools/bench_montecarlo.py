"""Before/after rows of the Monte Carlo moments: Killip-Nenciu coefficient
draws and one Szego recursion per call.

    python3 tools/bench_montecarlo.py BEFORE_ROOT AFTER_ROOT > BENCH_montecarlo.json
    python3 tools/bench_montecarlo.py --measure ROOT

The command lines are `bench_common`'s.  Rows: `monte_carlo_average` of
`autocorr_integrand` with 4,096 samples (one sampling chunk) at k = 2
shifts of modulus at most 0.9, for the benchmark's `montecarlo` cells (the
four families at N = 2, 8 and 16, U(N) at m = 1), for USp and SO at
N = 32 and for U and USp at N = 64; each row has its own fixed seed.  Two
more rows, U(32) and USp(64) marked "angles", take the eigenangle path:
the integrand behind a lambda hides its `autocorr` tag, so the call
eigensolves the CMV or Jacobi matrices of its coefficients.  A
row's error is its z-score, |mean - 60-digit `canonical_value`| /
standard error, bound 4 (the benchmark's `Z_MAX`).  The extras are the
samples per second of the fastest call and the tracemalloc peak of one
call after the timed calls.
"""

from __future__ import annotations

import sys
from functools import partial

from bench_common import POINTS, main, peak_mib, timed

SAMPLES = 4096
SHIFTS = POINTS[1:3]   # 0.7 + 0.3i, -0.5 + 0.6i: |w| <= 0.9, k = 2
Z_MAX = 4.0
# (family, N, angle path)
CELLS = [(family, N, False) for family in ("unitary", "symplectic", "so", "ominus")
         for N in (2, 8, 16)] + [("symplectic", 32, False), ("so", 32, False),
                                 ("unitary", 64, False), ("symplectic", 64, False),
                                 ("unitary", 32, True), ("symplectic", 64, True)]


def measure(root):
    """{row: [seconds, z-score, bound, samples/s, peak MiB]} of the package
    under root/src."""
    from rmt_autocorr import haar
    from rmt_autocorr.precision import PrecisionConfig
    from rmt_autocorr.routes import canonical_value

    rows = {}
    for seed, (family, N, angles) in enumerate(CELLS, start=3301):
        m = 1 if family == "unitary" else 0
        spec = haar.group(family, N)
        integrand = haar.autocorr_integrand(spec, SHIFTS, m)
        if angles:
            integrand = lambda T, f=integrand: f(T)  # noqa: E731 -- hides the autocorr tag
        call = partial(haar.monte_carlo_average, spec, integrand, seed, SAMPLES)
        seconds, (mean, se) = timed(call)
        exact = complex(canonical_value(family, N, SHIFTS, m, PrecisionConfig.extended(60)))
        rows[f"{family} N={N} k=2 samples={SAMPLES}{' angles' if angles else ''}"] = [
            seconds, abs(mean - exact) / se, Z_MAX, round(SAMPLES / seconds), peak_mib(call)]
    return rows


if __name__ == "__main__":
    sys.exit(main(__file__, measure,
                  "z-score |mean - exact| / standard error against the 60-digit "
                  "canonical_value, bound 4",
                  {"samples_per_s": "samples per second of the fastest call, largest over "
                                    "rounds",
                   "peak_mib": "tracemalloc peak of one call after the timed calls, MiB, "
                               "largest over rounds"}))
