"""Before/after rows of the command line's start-up: fresh interpreters,
import included.

    python3 tools/bench_cold_start.py BEFORE_ROOT AFTER_ROOT > BENCH_cold_start.json
    python3 tools/bench_cold_start.py --measure ROOT

The command lines are `bench_common`'s.  Each row is one command, run as
`python3 ARGS` in ROOT with ROOT/src on PYTHONPATH: a bare interpreter (the
floor), the two imports, the benchmark's cold-start `compute`, a 40-digit
U(N) `schur`, a closed-form `crosscheck` and a `contour` route.  A row's
time is the fastest of `LAUNCHES` launches, after one untimed launch under
`-X importtime` that tells whether the command imports numpy and
`dataclasses`, and how many of the package's modules it imports (the
extras).
A row's error is the relative error of the value the command printed (the
largest over a crosscheck's routes) against the 60-digit closed form at
the double shifts (U(N): `det`, the others: `eps`), bound 1e-12; a row
that prints no value has error 0, and a command that exits nonzero fails.
"""

from __future__ import annotations

import cmath
import json
import os
import subprocess
import sys
import time

from bench_common import POINTS, ROUNDS, main, reference

BOUND = 1e-12
LAUNCHES = 5
ALPHAS = (0.12 + 0.05j, -0.1 + 0.13j, 0.2 - 0.11j)   # a `checks` contour cell
CLI = ("-m", "rmt_autocorr.cli")
POINTS_ARG = ",".join(str(w).strip("()") for w in POINTS)
ALPHAS_ARG = ",".join(str(a).strip("()") for a in ALPHAS)

# row -> (python3 arguments, (family, N, shifts, m) of the printed value or None)
ROWS = {
    "python -c pass": (("-c", "pass"), None),
    "import rmt_autocorr": (("-c", "import rmt_autocorr"), None),
    "import rmt_autocorr.cli": (("-c", "import rmt_autocorr.cli"), None),
    "compute usp N=1 eps (the benchmark's cold start)": (
        CLI + ("compute", "--group", "usp", "--N", "1", "--shifts", "2", "--method", "eps"),
        ("symplectic", 1, (2,), 0)),
    "compute u N=32 m=2 schur 40 digits": (
        CLI + ("compute", "--group", "u", "--N", "32", "--m", "2", "--shifts", POINTS_ARG,
               "--method", "schur", "--digits", "40"),
        ("unitary", 32, POINTS, 2)),
    "crosscheck usp N=8 schur,eps": (
        CLI + ("crosscheck", "--group", "usp", "--N", "8", "--shifts", POINTS_ARG,
               "--routes", "schur,eps"),
        ("symplectic", 8, POINTS, 0)),
    "compute usp N=2 contour n=3 nodes=128": (
        CLI + ("compute", "--group", "usp", "--N", "2", "--alpha", ALPHAS_ARG,
               "--method", "contour"),
        ("symplectic", 2, tuple(cmath.exp(-a) for a in ALPHAS), 0)),
}


def _launch(root, args) -> tuple[float, subprocess.CompletedProcess]:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return time.perf_counter() - start, done


def _imports(root, args) -> list[int]:
    """[numpy, dataclasses, package modules]: whether `python3 -X importtime
    ARGS` imports numpy and `dataclasses` (1 or 0), and how many rmt_autocorr
    modules it imports (a `-m` module runs as __main__, and -X importtime
    lists no module loaded by `importlib.import_module`: neither is counted)."""
    _seconds, done = _launch(root, ("-X", "importtime", *args))
    names = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()]
    return [int("numpy" in names), int("dataclasses" in names),
            sum(name.split(".")[0] == "rmt_autocorr" for name in names)]


def _error(query, stdout: str) -> float:
    """The relative error of the printed value(s) against the 60-digit closed form."""
    if query is None:
        return 0.0
    ref = complex(reference(*query))
    report = json.loads(stdout)
    values = [r["value"] for r in report["routes"].values()] if "routes" in report \
        else [report["value"]]
    return max(abs(complex(v["re"], v["im"]) - ref) / abs(ref) for v in values)


def measure(root):
    """{row: [seconds, relative error, bound, numpy, dataclasses, modules]} of
    the tree at root."""
    rows = {}
    for name, (args, query) in ROWS.items():
        imports = _imports(root, args)
        runs = [_launch(root, args) for _ in range(LAUNCHES)]
        rows[name] = [min(s for s, _done in runs), _error(query, runs[0][1].stdout), BOUND,
                      *imports]
    return rows


if __name__ == "__main__":
    sys.exit(main(__file__, measure,
                  "relative error of the printed value (the largest over a crosscheck's "
                  "routes) against the 60-digit det (U(N)) or eps (USp) closed form at the "
                  "double shifts; 0 for a row that prints no value",
                  {"numpy": "1 when the command imports numpy (one launch under "
                            "-X importtime), largest over rounds",
                   "dataclasses": "1 when the command imports dataclasses (the same "
                                  "launch), largest over rounds",
                   "modules": "rmt_autocorr modules the command imports (the same launch; "
                              "a -m module runs as __main__ and is not counted), largest "
                              "over rounds"},
                  f"fastest of {ROUNDS} alternating rounds per side; each round the "
                  f"fastest of {LAUNCHES} launches of a fresh interpreter, wall time from "
                  "the parent, after one untimed launch"))
