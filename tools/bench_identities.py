"""Before/after rows of the identity suite.

    python3 tools/bench_identities.py BEFORE_ROOT AFTER_ROOT > BENCH_identities.json

Each root is a source checkout; its package is imported from <root>/src in
a process of its own, the two sides alternating for `ROUNDS` rounds, and a
row keeps each side's fastest time.  Rows:
- the five `run_identity_suite` calls of the benchmark's `checks` workload
  (n_min = n_max = 3, 4, 5 with 4 trials in double, 3 and 4 with 1 trial at
  40 digits), at suite seed 1; each round the fastest of `CALLS` calls;
- the two suites of acceptance criterion 04 (500 trials in double and 50 at
  40 digits, seed 20260810, n from 2 to 6); each round one call.
Accuracy is the suite's worst residual next to its tolerance (1e-10 in
double, 1e-30 at 40 digits), and the largest residual of the losing
(prose) exponent of identity 3, which must stay far from zero.

    python3 tools/bench_identities.py --measure ROOT

prints the rows of one side as JSON: {row: [seconds, worst, tolerance,
losing max]}.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

from bench_self_dual_sums import ROUNDS, _fastest, alternate

CALLS = 10
TOLERANCE = {None: 1e-10, 40: 1e-30}
# (row name, trials, seed, digits, n_min, n_max, timed calls per round)
SUITES = [(f"checks n={n} trials=4 double", 4, 1, None, n, n, CALLS) for n in (3, 4, 5)] + [
    (f"checks n={n} trials=1 @40", 1, 1, 40, n, n, CALLS) for n in (3, 4)] + [
    ("acceptance 04 trials=500 double", 500, 20260810, None, 2, 6, 1),
    ("acceptance 04 trials=50 @40", 50, 20260810, 40, 2, 6, 1)]


def measure(root):
    """{row name: (seconds, worst residual, tolerance, losing max)} of the
    package under root/src."""
    sys.path.insert(0, os.path.join(root, "src"))
    from rmt_autocorr.identities import run_identity_suite
    from rmt_autocorr.precision import PrecisionConfig

    rows = {}
    for name, trials, seed, digits, n_min, n_max, calls in SUITES:
        prec = None if digits is None else PrecisionConfig.extended(digits)

        def call():
            return run_identity_suite(trials, seed, prec, n_min, n_max)

        start = time.perf_counter()
        report = call()
        seconds = min(time.perf_counter() - start, _fastest(call, calls - 1))
        rows[name] = (seconds, report.worst(), TOLERANCE[digits], report.identity3_losing_max)
    return rows


def main(before, after):
    runs = alternate(__file__, before, after)
    rows = []
    for name in runs["before"][0]:
        row = {"row": name, "tolerance": runs["before"][0][name][2]}
        for side, measured in runs.items():
            row[f"{side}_ms"] = round(1e3 * min(m[name][0] for m in measured), 3)
            row[f"{side}_worst"] = max(m[name][1] for m in measured)
            row[f"{side}_losing_max"] = max(m[name][3] for m in measured)
        row["speedup"] = round(row["before_ms"] / row["after_ms"], 2)
        rows.append(row)
    print(json.dumps({
        "command": "python3 tools/bench_identities.py BEFORE_ROOT AFTER_ROOT",
        "hardware": f"{platform.machine()}, {os.cpu_count()} cores, "
                    f"Python {platform.python_version()}",
        "time": f"fastest of {ROUNDS} alternating rounds per side; each round the fastest "
                f"of {CALLS} calls (checks rows) or one call (acceptance rows)",
        "accuracy": "worst residual of the suite against its tolerance; losing_max is the "
                    "largest residual of identity 3 under the prose exponent",
        "rows": rows}, indent=1))


if __name__ == "__main__":
    if sys.argv[1] == "--measure":
        print(json.dumps(measure(sys.argv[2])))
    else:
        main(*sys.argv[1:3])
