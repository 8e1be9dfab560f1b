"""Before/after rows of the 40-digit routes that no other BENCH file times.

    python3 tools/bench_extended.py BEFORE_ROOT AFTER_ROOT > BENCH_extended.json

Each root is a source checkout; its package is imported from <root>/src in
a process of its own, the two sides alternating for `ROUNDS` rounds, and a
row keeps each side's fastest time.  Rows: the U(N) `det`, `comb` and
`schur` routes (m = 2) and the USp(2N), SO(2N) and O^-(2N) `eps` routes,
at 40 digits, N = 2 and 32, on the k = 4 points 0.9, 0.7+0.3i, -0.5+0.6i,
1.2-0.4i.  Accuracy is the relative error against the same tree's
60-digit value of another route (`REFERENCE`).

    python3 tools/bench_extended.py --measure ROOT

prints the rows of one side as JSON: {row: [seconds, relative error]}.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

from bench_self_dual_sums import POINTS, ROUNDS, _fastest, _side, alternate

SIZES = (2, 32)
SPLIT = 2
# (family, route) -> the route whose 60-digit value is the row's reference
REFERENCE = {("unitary", "det"): "comb", ("unitary", "comb"): "schur",
             ("unitary", "schur"): "det", ("symplectic", "eps"): "det",
             ("so", "eps"): "det", ("ominus", "eps"): "det"}


def measure(root):
    """{row name: (seconds, relative error)} of the package under root/src.

    A row's time is the fastest of its first call and 50 more (first call
    under 10 ms) or 10 more (under 0.1 s)."""
    sys.path.insert(0, os.path.join(root, "src"))
    from rmt_autocorr.precision import PrecisionConfig
    from rmt_autocorr.routes import ROUTES

    prec, ref_prec = PrecisionConfig.extended(40), PrecisionConfig.extended(60)
    rows = {}
    for N in SIZES:
        for (family, route), ref_route in REFERENCE.items():
            def call(fn=ROUTES[family][route]):
                return fn(N, POINTS, SPLIT, prec)

            start = time.perf_counter()
            value = call()
            first = time.perf_counter() - start
            repeat = 50 if first < 0.01 else 10 if first < 0.1 else 0
            seconds = min(first, _fastest(call, repeat))
            ref = ROUTES[family][ref_route](N, POINTS, SPLIT, ref_prec)
            rows[f"{family}.{route} N={N} 40 digits"] = (seconds,
                                                         float(abs(value - ref) / abs(ref)))
    return rows


def main(before, after):
    runs = alternate(__file__, before, after)
    rows = []
    for name in runs["before"][0]:
        row = {"row": name, **_side(runs["before"], name, "before"),
               **_side(runs["after"], name, "after")}
        row["speedup"] = round(row["before_ms"] / row["after_ms"], 2)
        rows.append(row)
    print(json.dumps({
        "command": "python3 tools/bench_extended.py BEFORE_ROOT AFTER_ROOT",
        "hardware": f"{platform.machine()}, {os.cpu_count()} cores, "
                    f"Python {platform.python_version()}",
        "time": f"fastest of {ROUNDS} alternating rounds per side; each round the fastest "
                "of the first call and 50 more (first call under 10 ms) or 10 more "
                "(under 0.1 s)",
        "accuracy": "relative error against the 60-digit value of another route: "
                    + ", ".join(f"{f}.{r} against {ref}" for (f, r), ref in REFERENCE.items()),
        "rows": rows}, indent=1))


if __name__ == "__main__":
    if sys.argv[1] == "--measure":
        print(json.dumps(measure(sys.argv[2])))
    else:
        main(*sys.argv[1:3])
