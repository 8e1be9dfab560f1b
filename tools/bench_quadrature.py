"""Before/after rows of the contour routes and the three-angle Weyl quadrature.

    python3 tools/bench_quadrature.py BEFORE_ROOT AFTER_ROOT > BENCH_quadrature.json

Each root is a source checkout; its package is imported from <root>/src in
a process of its own, the two sides alternating for `ROUNDS` rounds, and a
row keeps each side's fastest time.  Rows:
- the four contour routes (U(N) at m = 1, USp, SO, O^-) at N = 2 on three
  alphas with 128 nodes and on two with 256 nodes;
- `weyl_autocorrelation` with three free angles per family (U(3) at m = 2,
  USp(6), SO(6), O^-(8)) at the four ROADMAP points, default nodes.
Accuracy is the relative error against the family's closed form at 60
digits (U(N): `det`, the others: `eps`), at the double shifts the route
integrates (w = exp(-alpha) for U(N) and USp, exp(alpha) for SO and O^-).
Memory is the tracemalloc peak of one call after a warm-up call.
"""

from __future__ import annotations

import cmath
import json
import os
import platform
import sys
import tracemalloc
from functools import partial

from bench_self_dual_sums import ROUNDS, _fastest, alternate

CALLS = 10
POINTS = (0.9, 0.7 + 0.3j, -0.5 + 0.6j, 1.2 - 0.4j)
ALPHAS = (0.12 + 0.05j, -0.1 + 0.13j, 0.2 - 0.11j)
FAMILIES = ("unitary", "symplectic", "so", "ominus")


def _peak(fn):
    fn()   # lazy imports and caches are not the call's working set
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cases():
    """(row name, call, family, N, m, shifts) of every row, in a fresh import."""
    from rmt_autocorr import haar, orthogonal, symplectic, unitary
    from rmt_autocorr.contour import ContourConfig

    out = []
    for n, nodes in ((3, 128), (2, 256)):
        cfg, al = ContourConfig(nodes_per_dim=nodes), ALPHAS[:n]
        calls = {"unitary": (partial(unitary.autocorr_contour, 2, al, 1, cfg), 1, -1),
                 "symplectic": (partial(symplectic.sp_autocorr_contour, 2, al, cfg), 0, -1),
                 "so": (partial(orthogonal.orthogonal_contour, "so", 2, al, cfg), 0, 1),
                 "ominus": (partial(orthogonal.orthogonal_contour, "ominus", 2, al, cfg), 0, 1)}
        for family, (call, m, sign) in calls.items():
            shifts = tuple(cmath.exp(sign * a) for a in al)
            out.append((f"contour {family} N=2 n={n} nodes={nodes}", call, family, 2, m, shifts))
    for family in FAMILIES:
        N = 4 if family == "ominus" else 3
        m = 2 if family == "unitary" else 0
        spec = haar.group(family, N)
        out.append((f"weyl {family} N={N} angles=3 k=4",
                    partial(haar.weyl_autocorrelation, spec, POINTS, m), family, N, m, POINTS))
    return out


def measure(root):
    """{row name: (seconds, accuracy, peak bytes)} of the package under root/src."""
    sys.path.insert(0, os.path.join(root, "src"))
    from rmt_autocorr.precision import PrecisionConfig
    from rmt_autocorr.routes import ROUTES

    ref_prec = PrecisionConfig.extended(60)
    rows = {}
    for name, call, family, N, m, shifts in cases():
        ref = complex(ROUTES[family]["det" if family == "unitary" else "eps"](
            N, shifts, m, ref_prec))
        peak = _peak(call)
        rows[name] = (_fastest(call, CALLS), abs(complex(call()) - ref) / abs(ref), peak)
    return rows


def main(before, after):
    runs = alternate(__file__, before, after)
    rows = []
    for name in runs["before"][0]:
        row = {"row": name}
        for side, measured in runs.items():
            row[f"{side}_ms"] = round(1e3 * min(m[name][0] for m in measured), 4)
            accuracies = sorted({m[name][1] for m in measured})
            row[f"{side}_rel_err"] = accuracies[0] if len(accuracies) == 1 else accuracies
            row[f"{side}_peak_mib"] = round(max(m[name][2] for m in measured) / 2 ** 20, 3)
        row["speedup"] = round(row["before_ms"] / row["after_ms"], 2)
        rows.append(row)
    print(json.dumps({
        "command": "python3 tools/bench_quadrature.py BEFORE_ROOT AFTER_ROOT",
        "hardware": f"{platform.machine()}, {os.cpu_count()} cores, "
                    f"Python {platform.python_version()}",
        "time": f"fastest of {ROUNDS} alternating rounds per side; each round the fastest "
                f"of {CALLS} calls",
        "accuracy": "relative error against the 60-digit det (U(N)) or eps (USp, SO, O^-) "
                    "closed form at the double shifts the route integrates",
        "memory": "tracemalloc peak of one call after a warm-up call, largest over rounds",
        "rows": rows}, indent=1))


if __name__ == "__main__":
    if sys.argv[1] == "--measure":
        print(json.dumps(measure(sys.argv[2])))
    else:
        main(*sys.argv[1:3])
