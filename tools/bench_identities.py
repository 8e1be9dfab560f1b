"""Before/after rows of the identity suite.

    python3 tools/bench_identities.py BEFORE_ROOT AFTER_ROOT > BENCH_identities.json
    python3 tools/bench_identities.py --measure ROOT

The command lines are `bench_common`'s.  Rows:
- the five `run_identity_suite` calls of the benchmark's `checks` workload
  (n_min = n_max = 3, 4, 5 with 4 trials in double, 3 and 4 with 1 trial at
  40 digits), at suite seed 1, and one more in their form at n = 6 and 40
  digits, whose trial reads F_n at 15 witness pairs;
- the two suites of acceptance criterion 04 (500 trials in double and 50 at
  40 digits, seed 20260810, n from 2 to 6).
The error is the suite's worst residual, bound its tolerance (1e-10 in
double, 1e-30 at 40 digits).  The extra is the largest residual of the
losing (prose) exponent of identity 3, which must stay far from zero.
"""

from __future__ import annotations

import sys

from bench_common import main, timed

TOLERANCE = {None: 1e-10, 40: 1e-30}
# (row name, trials, seed, digits, n_min, n_max)
SUITES = [(f"checks n={n} trials=4 double", 4, 1, None, n, n) for n in (3, 4, 5)] + [
    (f"checks n={n} trials=1 @40", 1, 1, 40, n, n) for n in (3, 4, 6)] + [
    ("acceptance 04 trials=500 double", 500, 20260810, None, 2, 6),
    ("acceptance 04 trials=50 @40", 50, 20260810, 40, 2, 6)]


def measure(root):
    """{row: [seconds, worst residual, tolerance, losing max]} of the package
    under root/src."""
    from rmt_autocorr.identities import run_identity_suite
    from rmt_autocorr.precision import PrecisionConfig

    rows = {}
    for name, trials, seed, digits, n_min, n_max in SUITES:
        prec = None if digits is None else PrecisionConfig.extended(digits)
        seconds, report = timed(lambda: run_identity_suite(trials, seed, prec, n_min, n_max))
        rows[name] = [seconds, report.worst(), TOLERANCE[digits], report.identity3_losing_max]
    return rows


if __name__ == "__main__":
    sys.exit(main(__file__, measure, "worst residual of the suite against its tolerance",
                  {"losing_max": "largest residual of identity 3 under the prose exponent"}))
