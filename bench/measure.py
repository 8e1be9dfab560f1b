"""Closed-loop measurement of one workload, and its report.

One client, one thread: each operation is issued when the previous one
returns.  The loop runs a fixed number of whole passes over the workload's
fixed operation list (`workloads.passes`: as many as fill `seconds` at the
reference speed), so every metric is taken over the same mix of cells, and
the same seed and run length attempt the same operations with the same
verdicts however fast the machine runs.  Verdicts are computed between
operations, outside the timed calls.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import mpmath
import numpy as np

import speed
import workloads
from checker import OK, REFUSED, WRONG, deviation, judge
from rmt_autocorr.errors import RouteError
from tracer import ROUTES, Tracer, layer_metrics

COLD_START_LAUNCHES = 7
COLD_START_CMD = ("-m", "rmt_autocorr.cli", "compute", "--group", "usp", "--N", "1",
                  "--shifts", "2", "--method", "eps")
COLD_START_VALUE = 5.0   # (1 - w^4) / (1 - w^2) at w = 2
IMPORT_PROBE = ("import time; t = time.perf_counter(); import rmt_autocorr.cli; "
                "print(time.perf_counter() - t)")
CHILD_TIMEOUT_S = 60


def percentile(values, q: float):
    """Nearest-rank percentile (q in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# Fresh interpreters
# ---------------------------------------------------------------------------

def _launch(root: Path, args) -> str:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return done.stdout


def _timed_launches(root: Path, args) -> list[tuple[float, float, str]]:
    """(raw wall seconds, factor to reference speed, output) of fresh
    interpreters, after one untimed launch.  The speed is probed between
    launches, not during them: a probe would share the two cores with the
    child."""
    _launch(root, args)
    prober = speed.Prober()
    spans = []
    for _ in range(COLD_START_LAUNCHES):
        for _ in range(3):
            prober.probe()
        start = time.perf_counter_ns()
        out = _launch(root, args)
        spans.append((start, time.perf_counter_ns(), out))
    for _ in range(3):
        prober.probe()
    return [((e - s) * 1e-9, prober.scale(s, e), out) for s, e, out in spans]


def cold_start(root: Path) -> tuple[float, bool]:
    """Median wall time of a fresh `rmt_autocorr.cli compute` process, and
    whether every launch printed the right value."""
    runs = _timed_launches(root, COLD_START_CMD)
    values = [json.loads(out)["value"] for _s, _f, out in runs]
    right = all(v["re"] == COLD_START_VALUE and v["im"] == 0.0 for v in values)
    return statistics.median(s * f for s, f, _out in runs), right


def cli_layers(root: Path) -> dict[str, float]:
    """Bare interpreter start and `import rmt_autocorr.cli` (timed by the
    child itself), medians."""
    start = _timed_launches(root, ("-c", "pass"))
    imports = _timed_launches(root, ("-c", IMPORT_PROBE))
    return {"cli.python_start_s": statistics.median(s * f for s, f, _out in start),
            "cli.import_s": statistics.median(float(out) * f for _s, f, out in imports)}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "mpmath": mpmath.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0))}


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------

class Record:
    """Durations and verdicts of every attempted operation, in order."""

    def __init__(self):
        self.index: list[int] = []
        self.ns: list[int] = []         # raw, probe time taken out
        self.scaled_ns: list[float] = []
        self.verdict: list[str] = []
        self.err: list[float] = []
        self.crashes: Counter = Counter()
        self.passes = 0
        self.probe_ms = 0.0             # median speed probe

    @property
    def attempted(self) -> int:
        return len(self.ns)

    def count(self, verdict: str) -> int:
        return self.verdict.count(verdict)

    @property
    def busy_s(self) -> float:
        """Raw time inside the operations."""
        return sum(self.ns) * 1e-9

    def op_ms(self, n_ops: int) -> list[float]:
        """Latency of each operation of the list at reference speed: the
        median of its passes, which keeps noise shorter than a pass out."""
        by_op: list[list[float]] = [[] for _ in range(n_ops)]
        for i, ns in zip(self.index, self.scaled_ns):
            by_op[i].append(ns)
        return [statistics.median(v) * 1e-6 for v in by_op]


def run_loop(ops, refs, passes: int, tracer: Tracer | None = None) -> Record:
    """Exactly `passes` whole passes over `ops`."""
    rec = Record()
    intervals = []
    gc.collect()
    with speed.Prober() as prober:
        while rec.passes < passes:
            for i, op in enumerate(ops):
                stolen = prober.stolen_ns
                start = time.perf_counter_ns()
                try:
                    if tracer is None:
                        outcome = op.call(*op.args)
                    else:
                        outcome = tracer.root(rec.attempted, op.call, *op.args)
                except Exception as exc:   # judged below: RouteError refuses, others are wrong
                    outcome = exc
                end = time.perf_counter_ns()
                rec.ns.append(end - start - (prober.stolen_ns - stolen))
                intervals.append((start, end))
                verdict, err = judge(op.check, op.tol, outcome, refs.get(op.ref_key))
                if isinstance(outcome, Exception) and not isinstance(outcome, RouteError):
                    rec.crashes[f"{op.cell}: {type(outcome).__name__}"] += 1
                rec.index.append(i)
                rec.verdict.append(verdict)
                rec.err.append(err)
            rec.passes += 1
    rec.scaled_ns = [ns * prober.scale(s, e) for ns, (s, e) in zip(rec.ns, intervals)]
    rec.probe_ms = statistics.median(prober.took_ns) * 1e-6
    return rec


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(ops, rec: Record, setup_s: float) -> dict[str, tuple[float, str]]:
    ms = rec.op_ms(len(ops))
    ok, refused = rec.count(OK), rec.count(REFUSED)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (1e3 * len(ms) / sum(ms), "1/s"),
        "op_p50_ms": (percentile(ms, 0.5), "ms"),
        "op_p90_ms": (percentile(ms, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (ok / rec.attempted, "ratio"),
        "sound_frac": ((ok + refused) / rec.attempted, "ratio"),
    }


def route_accuracy(ops, rec: Record) -> dict[str, float]:
    """refused / wrong counts and the largest deviation per route."""
    out: dict[str, float] = {f"{route}.{key}": 0.0 for _m, _a, route in ROUTES
                             for key in ("refused", "wrong", "max_rel_err")}
    for i, verdict, err in zip(rec.index, rec.verdict, rec.err):
        route = ops[i].route
        if route is None:
            continue
        out[f"{route}.refused"] += verdict == REFUSED
        out[f"{route}.wrong"] += verdict == WRONG
        if math.isfinite(err):
            out[f"{route}.max_rel_err"] = max(out[f"{route}.max_rel_err"], err)
    return out


def per_layer(names, ops, untraced: Record, traced: Record, tracer: Tracer,
              cli: dict[str, float]) -> dict[str, tuple[float, str]]:
    values = {**layer_metrics(tracer), **route_accuracy(ops, traced), **cli}
    pass_ms = [sum(r.op_ms(len(ops))) for r in (traced, untraced)]
    values["trace.overhead_s"] = 1e-3 * (pass_ms[0] - pass_ms[1])
    return {name: (float(values[name]), unit) for name, unit in names}


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def report(workload, seed, ops, rec: Record, metrics, env, notes) -> None:
    ok, wrong, refused = rec.count(OK), rec.count(WRONG), rec.count(REFUSED)
    n = rec.attempted
    print(f"# workload={workload} seed={seed} ops/pass={len(ops)} passes={rec.passes} "
          f"attempted={n} busy_s={rec.busy_s:.3f}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    raw_pass = rec.busy_s / rec.passes
    ref_pass = 1e-3 * sum(rec.op_ms(len(ops)))
    print(f"# speed: median probe {rec.probe_ms:.3f} ms "
          f"(reference {speed.REF_S * 1e3:.3f} ms); op time per pass {raw_pass:.3f} s raw, "
          f"{ref_pass:.3f} s at reference speed")
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    if "op_p90_ms" in metrics:
        beyond = len(ops) - math.ceil(0.9 * len(ops))
        print(f"{'latency samples':<40} {len(ops):>14d} operations, each the median of "
              f"{rec.passes} passes (p90 has {beyond} beyond it)")
        print(f"{'wrong_frac':<40} {wrong / n:>14.6g} ratio  ({wrong} silently wrong)")
        print(f"{'failed_frac':<40} {(wrong + refused) / n:>14.6g} ratio  "
              f"({refused} refused with a RouteError)")
        samples = sum(op.args[4] for op in ops if op.call is workloads.monte_carlo)
        if samples:
            per_s = 1e3 * samples / sum(rec.op_ms(len(ops)))
            print(f"{'samples_per_s':<40} {per_s:>14.6g} 1/s")
    print(f"# verdicts: ok={ok} wrong={wrong} refused={refused}")
    wrong_cells = Counter(ops[i].cell for i, v in zip(rec.index, rec.verdict) if v == WRONG)
    for cell, count in sorted(wrong_cells.items()):
        print(f"# wrong   {cell} x{count}")
    refused_by_route = Counter(ops[i].route or ops[i].cell
                               for i, v in zip(rec.index, rec.verdict) if v == REFUSED)
    for route, count in sorted(refused_by_route.items()):
        print(f"# refused {route} x{count}")
    for cell, count in sorted(rec.crashes.items()):
        print(f"# crashed {cell} x{count}")


def run(root: Path, workload: str, seed: int, seconds: int, trace: bool, names) -> dict:
    ops = workloads.generate(workload, seed)
    passes = workloads.passes(workload, seconds)
    refs = workloads.references(ops)
    pairs = workloads.self_check_pairs(refs)
    worst_pair = max((deviation(refs[k], v) for k, v in pairs), default=0.0)
    refs_ok = worst_pair <= workloads.SELF_CHECK_TOL
    env = environment()
    notes = [f"references: {len(refs)}; self-check {len(pairs)} pairs, "
             f"worst deviation {worst_pair:.3g} (limit {workloads.SELF_CHECK_TOL:g})"]

    crashes = Counter()
    if not trace:
        setup_s, cli_ok = cold_start(root)
        rec = run_loop(ops, refs, passes)
        metrics = end_to_end(ops, rec, setup_s)
    else:
        cli = cli_layers(root)
        cli_ok = True
        rec = run_loop(ops, refs, passes)
        tracer = Tracer()
        with tracer.installed():
            traced = run_loop(ops, refs, passes=1, tracer=tracer)
        metrics = per_layer(names, ops, rec, traced, tracer, cli)
        crashes = traced.crashes
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload}-seed{seed}.tsv.gz"
        tracer.write(spans_path)
        self_sum = sum(v for k, (v, _u) in metrics.items() if k.endswith(".self_s"))
        notes += [f"one traced pass; spans written to {spans_path.relative_to(root)}",
                  f"layer self times sum to {self_sum:.4f} s of "
                  f"{metrics['trace.op_s'][0]:.4f} s traced op time"]

    report(workload, seed, ops, rec, metrics, env, notes)
    correct = refs_ok and cli_ok and not (rec.crashes or crashes)
    return {"correct": correct, "attempted": rec.attempted,
            "failed": rec.count(WRONG) + rec.count(REFUSED),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
