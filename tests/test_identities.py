"""Residual checks for the supporting identities."""

import cmath
import itertools
import math

import numpy as np
import pytest
from mpmath import mp

from rmt_autocorr import (
    InconsistentCoefficients,
    PrecisionConfig,
    fn_eval,
    identity1_residual,
    identity2_residual,
    identity3_residual,
    identity4_residual,
    lemma1_residual,
    run_identity_suite,
    symmb_coeff_transform,
)
from rmt_autocorr import identities
from rmt_autocorr.identities import (
    CONVENTION_PROSE,
    CONVENTION_STATEMENT,
    _laurent_at,
    _subset_cache,
)
from rmt_autocorr.precision import ops_for


def _disk_points(rng, n, radius=1.0):
    pts = []
    while len(pts) < n:
        c = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(c) <= radius and all(abs(c - p) > 1e-3 for p in pts):
            pts.append(c)
    return pts


def test_identity1():
    # n = 1 base case is exact by construction
    assert identity1_residual([0.37 + 0.21j]) <= 1e-15
    rng = np.random.default_rng(1)
    assert identity1_residual(_disk_points(rng, 3)) <= 1e-12
    # a repeated shift kills both sides through the common Vandermonde
    w = _disk_points(rng, 4) + [0.0]
    w[3] = w[1]
    assert identity1_residual(w) <= 1e-12


def test_lemma1():
    rng = np.random.default_rng(2)
    w = _disk_points(rng, 3)
    # constant f: both sides are c0 * Delta
    assert lemma1_residual([2.5 - 1j, 0, 0, 0], w) <= 1e-13
    # pure top coefficient at n = 4
    w4 = _disk_points(rng, 4)
    assert lemma1_residual([0, 0, 0, 0, 1], w4) <= 1e-12
    coeffs = [complex(a, b) for a, b in rng.normal(size=(4, 2))]
    assert lemma1_residual(coeffs, w) <= 1e-12
    with pytest.raises(ValueError):
        lemma1_residual([1, 2], w)


def test_identity2():
    rng = np.random.default_rng(3)
    assert identity2_residual(_disk_points(rng, 2)) <= 1e-13
    assert identity2_residual(_disk_points(rng, 4)) <= 1e-11
    # a vanishing E factor (w_a w_b = 1) stays finite
    assert identity2_residual([2.0, 0.5]) <= 1e-13


def test_identity2_scaling_structure():
    # the cancellation survives rescaling; a wrong exponent anywhere would
    # break it at some scale
    rng = np.random.default_rng(4)
    w = _disk_points(rng, 4)
    for c in (0.5, 1.0, 1.6):
        scaled = [c * x for x in w]
        bound = max(1.0, max(abs(x) for x in scaled) ** 12)
        assert identity2_residual(scaled) <= 1e-12 * bound


def test_fn_vanishes_at_r_equals_n_minus_1():
    rng = np.random.default_rng(5)
    w = _disk_points(rng, 3)
    r = len(w) - 1
    assert abs(fn_eval(w, 1.0, r)) <= 1e-12
    assert abs(fn_eval(w, 0.0, r)) <= 1e-12
    root = cmath.sqrt(w[0] * w[1])
    assert abs(fn_eval(w, root, r)) <= 1e-12
    assert abs(fn_eval(w, -root, r)) <= 1e-12
    for _ in range(20):
        x = complex((0.2 + 0.8 * rng.random()) * np.exp(2j * np.pi * rng.random()))
        assert abs(fn_eval(w, x, r)) <= 1e-12


def test_fn_witness_zeros_below_top_degree():
    # the term-pairing cancellation at x^2 = w_a w_b works for any r <= n - 1
    rng = np.random.default_rng(6)
    w = _disk_points(rng, 4)
    r = len(w) - 2
    root = cmath.sqrt(w[1] * w[3])
    assert abs(fn_eval(w, root, r)) <= 1e-12
    # the evaluator is not trivially zero: past the theorem's degree range
    # the sum genuinely survives
    assert abs(fn_eval(w, 0.9 + 0.2j, len(w))) > 1e-6


def test_fn_zero_x_guard():
    w = [0.5, 0.7 + 0.2j, -0.3]
    with pytest.raises(ValueError):
        fn_eval(w, 0.0, len(w) - 3)  # negative exponents appear


def test_identity3_statement_convention_wins():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        w = _disk_points(rng, n)
        for _ in range(5):
            x = complex((0.3 + 0.7 * rng.random()) * np.exp(2j * np.pi * rng.random()))
            assert identity3_residual(w, x, CONVENTION_STATEMENT) <= 1e-11
    # the prose exponent does not cancel: pinned counterexample at n = 2
    w = [0.9, 0.4 + 0.3j]
    assert identity3_residual(w, 0.8, CONVENTION_PROSE) > 1e-3
    with pytest.raises(ValueError):
        identity3_residual([0.5], 1.0)
    with pytest.raises(ValueError):
        identity3_residual(w, 1.0, "nonsense")


def _printed_subset_sum(w, x, r, exponent, even_c_only):
    """The printed subset sum, term by term at 60 digits: over every split
    of the indices into C and D, (-1)^S w_C^r Delta(C) Delta(D)
    prod_{a in C, b in D} (x^2 - w_a w_b) x^exponent(|D|), with 0^0 = 1,
    where S = |C||D| + |C|(|C| + 1)/2 + #{a in C, b in D: a > b}.

    Returns the sum and the sum of the terms' moduli (the scale that
    rounding errors are measured against)."""
    n = len(w)
    with mp.workdps(60):
        w = [mp.mpc(v) for v in w]
        x = mp.mpc(x)
        total, scale = mp.mpc(0), mp.mpf(0)
        for size in range(n + 1):
            for C in itertools.combinations(range(n), size):
                D = [i for i in range(n) if i not in C]
                if even_c_only and len(C) % 2:
                    continue
                e = exponent(len(D))
                if x == 0 and e < 0:
                    raise ValueError("negative exponent at x = 0")
                S = len(C) * len(D) + len(C) * (len(C) + 1) // 2 + sum(a > b for a in C for b in D)
                t = mp.mpc(-1) ** S * mp.fprod(w[a] for a in C) ** r
                for part in (C, D):
                    for i, j in itertools.combinations(part, 2):
                        t *= w[j] - w[i]
                for a in C:
                    for b in D:
                        t *= x * x - w[a] * w[b]
                t *= mp.mpc(1) if e == 0 else x ** e
                total += t
                scale += abs(t)
        return total, scale


@pytest.mark.parametrize("digits", [None, 40])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_subset_sums_match_the_printed_definitions(n, digits):
    prec = None if digits is None else PrecisionConfig.extended(digits)
    num = ops_for(prec)
    tol = 1e-12 if digits is None else 1e-30
    rng = np.random.default_rng(100 + n)
    w = _disk_points(rng, n)
    root = cmath.sqrt(w[0] * w[-1])
    xs = [0.0, 1.0, root, -root] + [complex(0.2 + 0.8 * rng.random(), rng.uniform(-1, 1))
                                    for _ in range(2)]
    with num.guard():
        caches = {r: _subset_cache(w, r, prec) for r in (n - 2, n - 1, n)}
    for x in xs:
        # identity 3 under the statement and the prose exponent
        identity3 = [_printed_subset_sum(w, x, n - 2, e, True)
                     for e in (lambda d: (d - 1) ** 2, lambda d: (d + 1) ** 2)]
        for r, cache in caches.items():
            wanted = list(zip(cache[1:], identity3))
            if x == 0 and r < n - 1:   # F_n has x^(-1) at |D| = 1
                with pytest.raises(ValueError), num.guard():
                    _laurent_at(cache[0], num.scalar(x))
            else:
                wanted.append((cache[0], _printed_subset_sum(w, x, r, lambda d: d * d + (r - n) * d,
                                                             False)))
            for poly, (total, scale) in wanted:
                with num.guard():
                    value = _laurent_at(poly, num.scalar(x))
                with mp.workdps(60):
                    assert abs(mp.mpc(value) - total) <= tol * scale


def test_identity4():
    rng = np.random.default_rng(8)
    a, b = 0.7 + 0.1j, -0.4 + 0.6j
    assert identity4_residual([a, b]) <= 1e-13
    assert identity4_residual(_disk_points(rng, 3)) <= 1e-12
    w = _disk_points(rng, 4)
    w[2] = 0.0
    assert identity4_residual(w) <= 1e-13


def test_symmb_transform():
    # constructed case: g = (1 - c w)(1 - w_j w) recovers f = 1 - c w
    c, wj = 0.8 - 0.3j, 1.4 + 0.2j
    b = [1.0, -c - wj, c * wj]
    a = [complex(x) for x in symmb_coeff_transform(b, wj)]
    assert a[0] == pytest.approx(1.0) and a[1] == pytest.approx(-c)
    # the product case: g = prod (1 - w_m w) and f(w_j) = prod_{m != j}(1 - w_m w_j)
    rng = np.random.default_rng(9)
    ws = _disk_points(rng, 4)
    b = [1.0 + 0j]
    for wm in ws:  # expand prod (1 - w_m w)
        b = [b[i] - (wm * b[i - 1] if i else 0) for i in range(len(b))] + [-wm * b[-1]]
    j = 2
    a = [complex(x) for x in symmb_coeff_transform(b, ws[j])]
    f_at_wj = sum(ai * ws[j] ** i for i, ai in enumerate(a))
    expected = np.prod([1 - wm * ws[j] for m, wm in enumerate(ws) if m != j])
    assert f_at_wj == pytest.approx(expected)
    # perturbing the closing coefficient breaks divisibility
    bad = list(b)
    bad[-1] += 0.1
    with pytest.raises(InconsistentCoefficients):
        symmb_coeff_transform(bad, ws[j])


def test_suite_double_precision():
    report = run_identity_suite(60, 123)
    assert report.worst() <= 1e-10
    assert report.identity3_losing_convention == CONVENTION_PROSE
    assert report.identity3_losing_max > 1e-3
    d = report.as_dict()
    assert d["trials"] == 60 and set(d["max_residuals"]) == {
        "identity1", "lemma1", "identity2", "fn_zero", "fn_witness",
        "fn_random", "identity3", "identity4"}


@pytest.mark.parametrize("prec, trials", [(None, 8), (PrecisionConfig.extended(40), 2)])
def test_suite_evaluates_every_x(monkeypatch, prec, trials):
    # per trial: one cache; F_n at 1, 0, the n(n - 1)/2 witnesses x^2 = w_a w_b
    # (one point of x^2 per pair, read in X = x^2) and every random x, and each
    # identity-3 polynomial at every random x; a faster sweep must not check
    # fewer points
    calls = []   # [n, the cache's polynomials, their _laurent_at calls] per _subset_cache call
    build, evaluate = identities._subset_cache, identities._laurent_at

    def cache(shifts, r, prec):
        polys = build(shifts, r, prec)
        calls.append([len(shifts), polys, [0, 0, 0]])
        return polys

    def at(poly, x):
        _n, polys, counts = calls[-1]
        counts[next(i for i, p in enumerate(polys) if p[2] is poly[2])] += 1
        return evaluate(poly, x)

    monkeypatch.setattr(identities, "_subset_cache", cache)
    monkeypatch.setattr(identities, "_laurent_at", at)
    run_identity_suite(trials, 5, prec, n_min=2, n_max=5, random_x_count=7)
    assert len(calls) == trials
    assert all(counts == [2 + n * (n - 1) // 2 + 7, 7, 7] for n, _polys, counts in calls)


@pytest.mark.parametrize("digits", [None, 40])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_witnesses_read_f_n_as_a_polynomial_in_x_squared(monkeypatch, n, digits):
    # at r = n - 1 every exponent of x in F_n is d(d - 1) + 2k, so the suite
    # reads F_n once per pair a < b, in X = x^2 at X = w_a w_b; that is F_n at
    # either square root
    prec = None if digits is None else PrecisionConfig.extended(digits)
    num = ops_for(prec)
    tol = 1e-12 if digits is None else 1e-30
    trials = []   # [shifts, F_n, [(X, value), ...] of its reads in X] per trial
    build, evaluate = identities._subset_cache, identities._laurent_at

    def cache(shifts, r, prec):
        polys = build(shifts, r, prec)
        trials.append([shifts, polys[0], []])
        return polys

    def at(poly, x):
        value = evaluate(poly, x)
        _shifts, fn, reads = trials[-1]
        if poly[2] is fn[2] and poly[:2] == (0, 1):
            reads.append((x, value))
        return value

    monkeypatch.setattr(identities, "_subset_cache", cache)
    monkeypatch.setattr(identities, "_laurent_at", at)
    run_identity_suite(2, 30 + n, prec, n_min=n, n_max=n)
    monkeypatch.undo()
    assert len(trials) == 2
    for shifts, fn, reads in trials:
        assert fn[:2] == (0, 2)
        with num.guard():
            w = [num.scalar(x) for x in shifts]
            assert [X for X, _v in reads] == [w[a] * w[b] for a, b in
                                              itertools.combinations(range(n), 2)]
        for X, value in reads:
            if digits is None:
                root = cmath.sqrt(X)
            else:
                with mp.workdps(digits + 20):
                    root = mp.sqrt(mp.mpc(X))
            for signed_root in (root, -root):
                at_root = fn_eval(shifts, signed_root, n - 1, prec)
                with num.guard():
                    assert float(abs(at_root)) <= tol and float(abs(value)) <= tol
                    assert float(abs(value - at_root)) <= tol


def test_suite_extended_precision():
    report = run_identity_suite(5, 7, PrecisionConfig.extended(40))
    assert report.worst() <= 1e-30


def test_extended_identities_on_radius_15():
    # at forty digits the radius-1.5 sampling is far below every tolerance;
    # in double precision that radius is eps-limited near 1e-8 (see ledger)
    report = run_identity_suite(5, 11, PrecisionConfig.extended(40), radius=1.5)
    assert report.worst() <= 1e-30


@pytest.mark.parametrize("kwargs, message", [
    ({"n_min": 1}, "n_min"),
    ({"radius": 0.0}, "radius"),
    ({"radius": float("inf")}, "radius"),
    # two points 1e-3 apart do not fit in a disk of radius 1e-4
    ({"n_max": 2, "radius": 1e-4}, "draws"),
    ({"n_min": 4, "n_max": 3}, "n_max"),
    # identity 3 is checked at the random x only
    ({"random_x_count": 0}, "random_x_count"),
    ({"random_x_count": -1}, "random_x_count"),
])
def test_suite_rejects_settings_it_cannot_sample(kwargs, message):
    with pytest.raises(ValueError, match=message):
        run_identity_suite(3, 1, **kwargs)


def test_suite_keeps_nan_residuals():
    # at radius 1e200 the products overflow: a NaN residual fails the suite
    report = run_identity_suite(3, 1, None, radius=1e200)
    assert math.isnan(report.worst())
    assert all(math.isnan(report.max_residuals[key])
               for key in ("identity1", "identity4", "fn_random"))


@pytest.mark.parametrize("call", [
    lambda: symmb_coeff_transform([1.0], 0.5),
    # w_C^r at w_C = 0 and r < 0
    lambda: fn_eval([0, 0.5], 1.0, -1),
    lambda: fn_eval([0, 0.5], 1.0, -1, PrecisionConfig.extended(40)),
    # F_2 at r = -1 divides by x^2, which underflows to 0 at x = 1e-200 in double
    lambda: fn_eval([0.3, 0.5], 1e-200, -1),
], ids=["degree-zero", "fn-zero-shift-negative-r-double", "fn-zero-shift-negative-r-ext40",
        "fn-underflowing-x-negative-power-double"])
def test_input_guards(call):
    with pytest.raises(ValueError):
        call()
