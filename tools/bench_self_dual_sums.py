"""Before/after rows of the six self-dual determinant and Schur sums.

    python3 tools/bench_self_dual_sums.py BEFORE_ROOT AFTER_ROOT > BENCH_self_dual_sums.json

Each root is a source checkout; its package is imported from <root>/src in
a process of its own, the two sides alternating for `ROUNDS` rounds, and a
row keeps each side's fastest time.  Rows: the schur and det sums of
USp(2N), SO(2N) and O^-(2N) at k = 4 on the points 0.9, 0.7+0.3i,
-0.5+0.6i, 1.2-0.4i, at N = 2, 8 and 32 in double and at 40 digits on both
sides, and at N = 256 and 1000 in double on the after side only (a sum of
one term per partition takes binomial(N + 4, 4) terms there, 1.9e8 at
N = 256).  Accuracy is the relative error against the family's `eps`
route at 60 digits.

    python3 tools/bench_self_dual_sums.py --measure ROOT [N ...]

prints the rows of one side at the given N (default: all five) as JSON.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

POINTS = (0.9, 0.7 + 0.3j, -0.5 + 0.6j, 1.2 - 0.4j)
ROUNDS = 5
BOTH_SIDES = (2, 8, 32)
AFTER_ONLY = (256, 1000)
SUMS = [(family, route) for family in ("symplectic", "so", "ominus") for route in ("schur", "det")]


def _fastest(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure(root, sizes):
    """{row name: (seconds, accuracy)} of the package under root/src.

    A row's time is its first call, or the fastest of 50 calls (first call
    under 10 ms) or of 10 (under 0.1 s).  Extended precision is measured at
    N <= 32 only."""
    sys.path.insert(0, os.path.join(root, "src"))
    from rmt_autocorr.precision import PrecisionConfig
    from rmt_autocorr.routes import ROUTES

    ref_prec = PrecisionConfig.extended(60)
    rows = {}
    for N in sizes:
        for prec in (None, PrecisionConfig.extended(40)) if N <= 32 else (None,):
            for family, route in SUMS:
                def call(fn=ROUTES[family][route]):
                    return fn(N, POINTS, 0, prec)

                start = time.perf_counter()
                value = call()
                first = time.perf_counter() - start
                repeat = 50 if first < 0.01 else 10 if first < 0.1 else 0
                seconds = min(first, _fastest(call, repeat))
                ref = ROUTES[family]["eps"](N, POINTS, 0, ref_prec)
                digits = "double" if prec is None else "40 digits"
                rows[f"{family}.{route} N={N} {digits}"] = (seconds,
                                                            float(abs(value - ref) / abs(ref)))
    return rows


def _measured(script, root, *args):
    done = subprocess.run([sys.executable, script, "--measure", root, *args],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def alternate(script, before, after, *args, rounds=ROUNDS):
    """{"before": [...], "after": [...]}: the JSON that `script --measure ROOT
    *args` prints for each root, in `rounds` rounds that alternate which
    side runs first."""
    runs = {"before": [], "after": []}
    for i in range(rounds):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        for side in order:
            runs[side].append(_measured(script, before if side == "before" else after, *args))
    return runs


def _side(measured, name, side):
    accuracies = {m[name][1] for m in measured}
    return {f"{side}_ms": round(1e3 * min(m[name][0] for m in measured), 4),
            f"{side}_rel_err": accuracies.pop() if len(accuracies) == 1 else sorted(accuracies)}


def main(before, after):
    runs = alternate(__file__, before, after, *map(str, BOTH_SIDES))
    rows = []
    for name in runs["before"][0]:
        row = {"row": name, **_side(runs["before"], name, "before"),
               **_side(runs["after"], name, "after")}
        row["speedup"] = round(row["before_ms"] / row["after_ms"], 2)
        rows.append(row)
    large = [_measured(__file__, after, *map(str, AFTER_ONLY)) for _ in range(ROUNDS)]
    rows.extend({"row": name, **_side(large, name, "after")} for name in large[0])
    print(json.dumps({
        "command": "python3 tools/bench_self_dual_sums.py BEFORE_ROOT AFTER_ROOT",
        "hardware": f"{platform.machine()}, {os.cpu_count()} cores, "
                    f"Python {platform.python_version()}",
        "time": f"fastest of {ROUNDS} alternating rounds per side (N = 256 and 1000: "
                f"{ROUNDS} rounds of the after side); each round the first call, or the "
                "fastest of 50 calls (first call under 10 ms) or 10 calls (under 0.1 s)",
        "accuracy": "relative error against the 60-digit eps value",
        "rows": rows}, indent=1))


if __name__ == "__main__":
    if sys.argv[1] == "--measure":
        print(json.dumps(measure(sys.argv[2], [int(n) for n in sys.argv[3:]]
                                 or BOTH_SIDES + AFTER_ONLY)))
    else:
        main(*sys.argv[1:3])
