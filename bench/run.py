"""Benchmark of rmt_autocorr: end-to-end metrics, or per-layer ones with --trace 1.

    python3 bench/run.py --workload exact --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Runs from a source checkout: the package is imported from <root>/src and
the metric names and units are those of <root>/BENCHMARK.json.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are the readable report.
Exits with code 2 when the checkout has no package source.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact", "montecarlo", "checks")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode:
            return done.returncode
        results[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    package = ROOT / "src" / "rmt_autocorr" / "__init__.py"
    spec_path = ROOT / "BENCHMARK.json"
    if not package.is_file() or not spec_path.is_file():
        print(f"no package source at {package.parent} or no {spec_path.name}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # Measured processes, this one and its children, use one BLAS thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import measure  # after the pinning: numpy reads it at import

    spec = json.loads(spec_path.read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [(m["name"], m["unit"]) for m in section]
    result = measure.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace), names)
    if names != [(k, v["unit"]) for k, v in result["metrics"].items()]:
        print("metrics computed do not match BENCHMARK.json", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
