"""The before/after harness of the tools that write BENCH_*.json.

A tool is its rows: `measure(root)` returns {row: [seconds, error, bound,
*extras]} for the package under <root>/src, and the tool hands it to `main`
under its `__main__` check.  Then

    python3 tools/bench_X.py BEFORE_ROOT AFTER_ROOT > BENCH_X.json

runs `--measure` on each source checkout in a process of its own, the two
sides alternating for `ROUNDS` rounds, and prints one row per name: each
side's fastest time, its spread (the upper quartile of its rounds' times
over the lower), largest error and largest extras over the rounds, the
bound, and the speedup.  A side whose rows break their bound is still
recorded, so a BEFORE tree that was wrong shows as wrong.

    python3 tools/bench_X.py --measure ROOT

prints the rows of one side as JSON and exits 1 when a row's error is not
<= its bound (a NaN error fails too).  A run that crashes exits 1 as well,
but prints no rows.  `reference` is the 60-digit closed form that the tools
measure a route's error against.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc

# the ROADMAP points, bench/workloads.ROADMAP_POINTS
POINTS = (0.9, 0.7 + 0.3j, -0.5 + 0.6j, 1.2 - 0.4j)
ROUNDS = 5


def reference(family, N, shifts, m):
    """The family's closed form at 60 digits, as the route returns it: the
    `det` sum for U(N), `eps` for the others."""
    from rmt_autocorr.precision import PrecisionConfig
    from rmt_autocorr.routes import ROUTES

    return ROUTES[family]["det" if family == "unitary" else "eps"](
        N, shifts, m, PrecisionConfig.extended(60))


def timed(call):
    """(seconds, value): the value of call()'s first call, and the fastest
    time of that call and 50 more (first call under 10 ms), 10 more (under
    0.1 s) or none."""
    start = time.perf_counter()
    value = call()
    best = time.perf_counter() - start
    for _ in range(50 if best < 0.01 else 10 if best < 0.1 else 0):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best, value


def peak_mib(call) -> float:
    """The tracemalloc peak of one call(), MiB."""
    tracemalloc.start()
    try:
        call()
        return round(tracemalloc.get_traced_memory()[1] / 2 ** 20, 3)
    finally:
        tracemalloc.stop()


def alternate(script, before, after) -> dict:
    """{"before": [...], "after": [...]}: the rows that `script --measure
    ROOT` prints for each root, in `ROUNDS` rounds that alternate which side
    runs first.  A side whose rows break their bound (exit 1) is recorded;
    a run that prints no rows or exits otherwise passes its stderr on and
    raises CalledProcessError."""
    roots, runs = {"before": before, "after": after}, {"before": [], "after": []}
    for i in range(ROUNDS):
        for side in ("before", "after") if i % 2 == 0 else ("after", "before"):
            done = subprocess.run([sys.executable, script, "--measure", roots[side]],
                                  capture_output=True, text=True)
            if done.returncode not in (0, 1) or not done.stdout:
                sys.stderr.write(done.stderr)
                raise subprocess.CalledProcessError(done.returncode, done.args, done.stdout,
                                                    done.stderr)
            runs[side].append(json.loads(done.stdout))
    return runs


def _largest(values):
    """max, with NaN above every number."""
    return max(values, key=lambda v: (math.isnan(v), v))


def fold(runs: dict, extras=()) -> list:
    """One row per name: the bound, each side's fastest ms, spread (the upper
    quartile of its rounds' times over the lower, so that one slow round
    does not set it), largest error and largest of each named extra over
    its rounds, and before_ms / after_ms."""
    rows = []
    for name, (_seconds, _error, bound, *_x) in runs["after"][0].items():
        row = {"row": name, "bound": bound}
        for side, measured in runs.items():
            times = [m[name][0] for m in measured]
            row[f"{side}_ms"] = round(1e3 * min(times), 4)
            lower, _median, upper = statistics.quantiles(times, n=4, method="inclusive")
            row[f"{side}_spread"] = round(upper / lower, 2)
            row[f"{side}_err"] = _largest(m[name][1] for m in measured)
            for i, extra in enumerate(extras, 3):
                row[f"{side}_{extra}"] = _largest(m[name][i] for m in measured)
        row["speedup"] = round(row["before_ms"] / row["after_ms"], 2)
        rows.append(row)
    return rows


def main(script, measure, accuracy: str, extras: dict | None = None,
         timing: str | None = None) -> int:
    """The command line of a tool: `--measure ROOT` or
    `BEFORE_ROOT AFTER_ROOT`; any other argument count prints the usage and
    returns 2.  `accuracy` says what a row's error is, `extras` names the
    values after the bound, in order, each with what it is, and `timing` how
    a row is timed (None: by `timed`); all three go into the report's
    header."""
    extras = extras or {}
    args = sys.argv[1:]
    name = os.path.basename(script)
    if len(args) != 2:
        print(f"usage: python3 tools/{name} --measure ROOT\n"
              f"       python3 tools/{name} BEFORE_ROOT AFTER_ROOT", file=sys.stderr)
        return 2
    if args[0] == "--measure":
        sys.path.insert(0, os.path.join(args[1], "src"))
        rows = measure(args[1])
        print(json.dumps(rows))
        bad = [row for row, (_seconds, error, bound, *_extras) in rows.items()
               if not error <= bound]
        if bad:
            print(f"error not within its bound: {bad}", file=sys.stderr)
        return 1 if bad else 0
    before, after = args
    print(json.dumps({
        "command": f"python3 tools/{name} BEFORE_ROOT AFTER_ROOT",
        "hardware": f"{platform.machine()}, {os.cpu_count()} cores, "
                    f"Python {platform.python_version()}",
        "time": timing or f"fastest of {ROUNDS} alternating rounds per side; each round "
                          "the fastest of the first call and 50 more (first call under "
                          "10 ms), 10 more (under 0.1 s) or none",
        "spread": "the upper quartile of a side's round times over the lower "
                  "(inclusive quartiles); a speedup inside either side's spread is "
                  "unresolved",
        "accuracy": accuracy, **extras,
        "rows": fold(alternate(script, before, after), extras)}, indent=1))
    return 0
