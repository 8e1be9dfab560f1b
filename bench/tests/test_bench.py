"""Tests of the benchmark itself: operation lists, verdicts and spans.

    python3 -m pytest bench/tests -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

import pytest  # noqa: E402
from mpmath import mp  # noqa: E402

import checker  # noqa: E402
import workloads  # noqa: E402
from measure import percentile, run_loop  # noqa: E402
from rmt_autocorr import symcore, symplectic, unitary  # noqa: E402
from rmt_autocorr.errors import NearConfluent, PoleHit  # noqa: E402
from rmt_autocorr.precision import DoubleOps  # noqa: E402
from tracer import LAYERS, Tracer, layer_metrics  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_operation_list_is_fixed_by_the_seed(workload):
    first = [op.signature() for op in workloads.generate(workload, 11)]
    again = [op.signature() for op in workloads.generate(workload, 11)]
    other = [op.signature() for op in workloads.generate(workload, 12)]
    assert first == again
    assert first != other
    # the seed draws values, not the grid: the same cells every time
    assert sorted(s[0] for s in first) == sorted(s[0] for s in other)


def test_value_verdicts():
    ref = mp.mpc(3, 4)
    assert checker.judge(checker.VALUE, 1e-9, complex(3, 4), ref)[0] == checker.OK
    assert checker.judge(checker.VALUE, 1e-9, complex(3, 4) * (1 + 1e-7), ref)[0] == checker.WRONG
    assert checker.judge(checker.VALUE, 1e-9, complex("nan+nanj"), ref)[0] == checker.WRONG
    # below magnitude 1 the rule is absolute: 1e-12 off a 1e-30 value passes
    assert checker.judge(checker.VALUE, 1e-9, 1e-12, mp.mpf("1e-30"))[0] == checker.OK
    with mp.workdps(60):
        near = ref * (1 + mp.mpf("1e-27"))
    assert checker.judge(checker.VALUE, 1e-25, near, ref)[0] == checker.OK
    assert checker.judge(checker.VALUE, 1e-30, near, ref)[0] == checker.WRONG


def test_exceptions_are_refused_or_wrong():
    for exc in (NearConfluent("close"), PoleHit("pole")):
        assert checker.judge(checker.VALUE, 1e-9, exc, mp.mpc(1))[0] == checker.REFUSED
    assert checker.judge(checker.VALUE, 1e-9, OverflowError("big"), mp.mpc(1))[0] == checker.WRONG


def test_monte_carlo_verdict_is_a_z_score():
    verdict, z = checker.judge(checker.Z, 4.0, (1.0 + 0.3, 0.1), mp.mpc(1))
    assert verdict == checker.OK and z == pytest.approx(3.0)
    assert checker.judge(checker.Z, 4.0, (1.0 + 0.5, 0.1), mp.mpc(1))[0] == checker.WRONG


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile([7.0], 0.9) == 7.0


def _small_ops():
    ops = workloads.generate("exact", 3)
    picked = [op for op in ops if " N=2 " in op.cell and "k=4" not in op.cell][:60]
    picked += [op for op in workloads.generate("checks", 3)
               if op.cell.startswith(("weyl symplectic N=1", "contour so N=1 n=1",
                                      "lemma_sym"))][:6]
    assert len(picked) == 66
    return picked


def test_pass_count_and_verdicts_repeat():
    # the pass count depends on the run length only, never on the clock
    assert [workloads.passes(w, 25) for w in workloads.WORKLOADS] == [3, 3, 6]
    assert workloads.passes("checks", 1) == workloads.MIN_PASSES
    ops = _small_ops()
    refs = workloads.references(ops)
    rec = run_loop(ops, refs, passes=2)
    assert rec.passes == 2 and rec.attempted == 2 * len(ops)
    assert rec.verdict[:len(ops)] == rec.verdict[len(ops):]
    assert rec.count(checker.WRONG) + rec.count(checker.REFUSED) > 0


def test_spans_nest_and_self_times_add_up():
    ops = _small_ops()
    refs = workloads.references(ops)
    originals = (unitary.autocorr_det, symplectic.schur_stable, symcore.complete_homogeneous,
                 DoubleOps.__dict__["det"])
    tracer = Tracer()
    with tracer.installed():
        assert unitary.autocorr_det is not originals[0]
        run_loop(ops, refs, passes=1, tracer=tracer)
    assert (unitary.autocorr_det, symplectic.schur_stable, symcore.complete_homogeneous,
            DoubleOps.__dict__["det"]) == originals

    spans = {s[0]: s for s in tracer.spans}
    assert len(spans) == len(tracer.spans)
    for sid, parent, op_id, _name, start, end in tracer.spans:
        assert start <= end
        if parent >= 0:
            p = spans[parent]
            assert p[4] <= start and end <= p[5]
            assert p[2] == op_id
        else:
            assert _name == "bench.op"
    self_times = tracer.self_times()
    assert all(own >= 0 for _span, own in self_times)

    metrics = layer_metrics(tracer)
    roots = sum(s[5] - s[4] for s in tracer.spans if s[1] < 0) * 1e-9
    layers = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert layers == pytest.approx(roots, rel=1e-9)
    assert metrics["symcore.schur_stable.calls"] > 0
    assert metrics["precision.det.double.calls"] > 0
    assert metrics["symcore.enumerated.terms"] > 0
    assert metrics["haar.quadrature.calls"] > 0
