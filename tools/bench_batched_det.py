"""Before/after rows of `precision.batched_det` and the six self-dual sums.

    python3 tools/bench_batched_det.py BEFORE_ROOT AFTER_ROOT > BENCH_batched_det.json

Each root is a source checkout; its package is imported from <root>/src in
a process of its own, the two sides alternating for `ROUNDS` rounds, and a
row keeps each side's fastest time.  Rows:
- the kernel on the (B, 4, 4) stacks that so_autocorr_det(2), sp_autocorr_det(8)
  and the first chunk of sp_autocorr_det(32) gather (B = 20, 495, 1024), min
  of 50 calls; accuracy is the largest relative error of the B determinants
  against the same elimination at 60 digits;
- the schur and det sums of USp(2N), SO(2N) and O^-(2N) at N = 2, 8, 32;
  accuracy is the relative error against the family's `eps` route at 60 digits.
All at k = 4 on the points 0.9, 0.7+0.3i, -0.5+0.6i, 1.2-0.4i.
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
STACKS = (("so", "det", 2), ("symplectic", "det", 8), ("symplectic", "det", 32))
SUMS = [(family, route, N) for family in ("symplectic", "so", "ominus")
        for route in ("schur", "det") for N in (2, 8, 32)]


def _fastest(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure(root):
    """{row name: (seconds, accuracy)} of the package under root/src."""
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy as np
    from rmt_autocorr import symcore
    from rmt_autocorr.precision import ExtendedOps, PrecisionConfig, batched_det
    from rmt_autocorr.routes import ROUTES

    ref_prec = PrecisionConfig.extended(60)
    rows = {}
    for family, route, N in STACKS:
        stacks = []

        def captured(re, im):
            stacks.append((re.copy(), im.copy()))
            return batched_det(re, im)

        symcore.batched_det = captured
        ROUTES[family][route](N, POINTS, 0, None)
        symcore.batched_det = batched_det
        re, im = stacks[0]
        seconds = _fastest(lambda: batched_det(re.copy(), im.copy()), 50)
        got_re, got_im = batched_det(re.copy(), im.copy())
        ext = ExtendedOps(ref_prec.digits)
        with ext.guard():
            worst = max(float(abs(complex(g_re, g_im) - d) / abs(d))
                        for g_re, g_im, d in zip(got_re.tolist(), got_im.tolist(),
                                                 (ext.det((mr + 1j * mi).tolist())
                                                  for mr, mi in zip(re, im))))
        rows[f"kernel B={len(re)}"] = (seconds, worst)
    for family, route, N in SUMS:
        fn = ROUTES[family][route]
        value = fn(N, POINTS, 0, None)
        ref = complex(ROUTES[family]["eps"](N, POINTS, 0, ref_prec))
        seconds = _fastest(lambda: fn(N, POINTS, 0, None), 10 if N == 32 else 50)
        rows[f"{family}.{route} N={N}"] = (seconds, abs(value - ref) / abs(ref))
    return rows


def alternate(script, before, after, rounds=ROUNDS):
    """{"before": [...], "after": [...]}: the JSON that `script --measure ROOT`
    prints for each root, in `rounds` rounds that alternate which side
    runs first."""
    runs = {"before": [], "after": []}
    for i in range(rounds):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        for side in order:
            root = before if side == "before" else after
            done = subprocess.run([sys.executable, script, "--measure", root],
                                  capture_output=True, text=True, check=True)
            runs[side].append(json.loads(done.stdout))
    return runs


def main(before, after):
    runs = alternate(__file__, before, after)
    rows = []
    for name in runs["before"][0]:
        row = {"row": name}
        for side, measured in runs.items():
            row[f"{side}_ms"] = round(1e3 * min(m[name][0] for m in measured), 4)
            accuracies = {m[name][1] for m in measured}
            row[f"{side}_rel_err"] = accuracies.pop() if len(accuracies) == 1 else sorted(accuracies)
        row["speedup"] = round(row["before_ms"] / row["after_ms"], 2)
        rows.append(row)
    print(json.dumps({
        "command": "python3 tools/bench_batched_det.py BEFORE_ROOT AFTER_ROOT",
        "hardware": f"{platform.machine()}, {os.cpu_count()} cores, "
                    f"Python {platform.python_version()}",
        "time": f"fastest of {ROUNDS} alternating rounds per side; each round the fastest "
                "of 50 calls (kernel and N <= 8) or 10 calls (N = 32)",
        "accuracy": "kernel rows: largest relative error of the determinants against "
                    "60-digit elimination; sum rows: relative error against the 60-digit "
                    "eps value",
        "rows": rows}, indent=1))


if __name__ == "__main__":
    if sys.argv[1] == "--measure":
        print(json.dumps(measure(sys.argv[2])))
    else:
        main(*sys.argv[1:3])
