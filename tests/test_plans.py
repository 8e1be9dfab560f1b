"""The per-size plans of the closed forms (`symcore.per_size`): immutable,
the same as a fresh build, the same route values cold and warm, bounded,
and invisible to the benchmark's traced counts."""

import cmath
import operator
import sys
from pathlib import Path

import numpy as np
import pytest

from rmt_autocorr import orthogonal, symcore, symplectic, unitary
from rmt_autocorr.errors import Record
from rmt_autocorr.precision import PrecisionConfig
from rmt_autocorr.routes import ROUTES

BENCH = Path(__file__).resolve().parents[1] / "bench"
EXT = PrecisionConfig.extended(40)

# the sizes of bench/workloads.py's exact grid
UNITARY_SIZES = [(N, n, m) for N in (2, 8, 32, 128, 256) for n in range(1, 5)
                 for m in range(n + 1)]
SELF_DUAL_SIZES = [(N, k) for N in (2, 8, 32, 256) for k in range(1, 5)]


def _memo(builder):
    """The entry of symcore.PLANS that memoizes `builder` (a per_size function)."""
    memo, = [plan for plan in symcore.PLANS if plan.__wrapped__ is builder.__wrapped__]
    return memo


def _frozen(value) -> bool:
    if isinstance(value, tuple):
        return all(map(_frozen, value))
    if isinstance(value, Record):
        return _frozen(value._values())
    return value is None or isinstance(value, int) or value in (operator.add, operator.sub)


def _grid_builds() -> dict:
    """{builder: [args, ...]}: every per-size plan the exact grid's routes read."""
    builds = {}
    for N, n, m in UNITARY_SIZES:
        for builder, args in ((symcore._splits, (n, m)), (unitary._rectangle, (N, n, m)),
                              (symcore._schur_plan, ((N,) * (n - m) + (0,) * m,))):
            builds.setdefault(builder, []).append(args)
    for N, k in SELF_DUAL_SIZES:
        for builder, args in ((symcore.sign_vectors, (k,)), (symcore._laplace_plans, (k,)),
                              (symcore.index_pairs, (k, True)), (symcore.index_pairs, (k, False)),
                              (symplectic._sign_plan, (k, True)),
                              (symplectic._sign_plan, (k, False)),
                              (orthogonal._subset_plan, (k,)), (symcore.so_index_families, (k, N)),
                              (symplectic.parity_family, (k, 2 * N + k - 3)),
                              (symplectic.parity_family, (k, 2 * N + k - 1))):
            builds.setdefault(builder, []).append(args)
    return builds


@pytest.mark.parametrize("builder", _grid_builds(), ids=lambda builder: builder.__name__)
def test_a_plan_is_immutable_and_equal_to_a_fresh_build(builder):
    for args in _grid_builds()[builder]:
        warm = builder(*args)
        assert builder(*args) is warm    # memoized
        assert _frozen(warm)
        _memo(builder).cache_clear()
        assert builder(*args) == warm == builder.__wrapped__(*args)


def test_a_family_top_is_memoized_and_equal_to_a_fresh_build():
    top = symcore.IndexFamily.top.fget
    for N, k in SELF_DUAL_SIZES:
        families = symcore.so_index_families(k, N) + (symplectic.parity_family(k, 2 * N + k - 1),)
        for family in families:
            warm = family.top
            top.cache_clear()
            assert family.top == warm == top.__wrapped__(family)
            assert isinstance(warm, int)


def _shift_draws(k):
    rng = np.random.default_rng(52)
    return [tuple(complex(cmath.rect(r, t)) for r, t in zip(rng.uniform(0.3, 1.3, k),
                                                            rng.uniform(0, 2 * np.pi, k)))
            for _ in range(3)]


@pytest.mark.parametrize("prec", [None, EXT], ids=["double", "40 digits"])
@pytest.mark.parametrize("family,route", [(family, route) for family, routes in (
    ("unitary", ("schur", "det", "comb")), ("symplectic", ("schur", "det", "eps")),
    ("so", ("schur", "det", "eps")), ("ominus", ("schur", "det", "eps"))) for route in routes])
def test_a_route_is_the_same_on_a_cold_and_a_warm_cache(family, route, prec):
    fn = ROUTES[family][route]
    for shifts in _shift_draws(3):
        for plan in symcore.PLANS:
            plan.cache_clear()
        cold = fn(8, shifts, 1, prec)
        assert fn(8, shifts, 1, prec) == cold


def test_calls_at_many_sizes_keep_every_memo_within_its_bound():
    k = symcore.PLAN_MAX_K + 1
    shifts = tuple(0.5 * cmath.exp(2j * cmath.pi * j / k) for j in range(k))
    exponential = [_memo(b) for b in (symcore._splits, symcore.sign_vectors,
                                      symcore._laplace_plans, symplectic._sign_plan,
                                      orthogonal._subset_plan)]
    before = [memo.cache_info().currsize for memo in exponential]
    symplectic.sp_autocorr_eps(2, shifts)
    symplectic.sp_autocorr_det(1, shifts)
    orthogonal.so_partial_sums("L", 12, shifts)
    list(symcore.enumerate_split_permutations(k, k // 2))
    assert [memo.cache_info().currsize for memo in exponential] == before
    for N in range(1, symcore.PLAN_SIZES + 100):
        unitary.autocorr_schur(unitary.UnitaryQuery(N, 1, (0.5, 0.7j)))
    assert _memo(unitary._rectangle).cache_info().currsize == symcore.PLAN_SIZES
    for memo in symcore.PLANS:
        info = memo.cache_info()
        assert info.maxsize == symcore.PLAN_SIZES and info.currsize <= info.maxsize


def test_traced_counts_do_not_depend_on_the_memos():
    sys.path[:0] = [str(BENCH)]
    try:
        import workloads
        from tracer import Tracer, layer_metrics
    finally:
        sys.path.remove(str(BENCH))

    def traced_counts(ops):
        tracer = Tracer()
        with tracer.installed():
            for i, op in enumerate(ops):
                try:
                    tracer.root(i, op.call, *op.args)
                except Exception:   # a route's refusal: its counts are what matters
                    pass
        metrics = layer_metrics(tracer)
        return metrics["symcore.enumerated.terms"], metrics["symcore.schur_stable.calls"]

    ops = workloads.generate("exact", 1)
    for plan in symcore.PLANS:
        plan.cache_clear()
    cold = traced_counts(ops)
    assert cold == traced_counts(ops) and min(cold) > 0
