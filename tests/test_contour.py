"""Contour engine exactness and the two sum-to-integral lemma checks."""

import tracemalloc

import numpy as np
import pytest

from rmt_autocorr import (
    BipartiteKernel,
    ContourConfig,
    ContourTooTight,
    DimensionCap,
    NearConfluent,
    SymmetricKernel,
    autocorr_contour,
    circular_integral,
    lemma_sym_check,
    lemma_unitary_check,
    orthogonal_contour,
    sp_autocorr_contour,
)
from rmt_autocorr.contour import (
    assert_unit_residue,
    require_exp_kernel_radius,
    sym_lemma_integrand,
    trapezoid_sum,
)


def inv(x):
    return 1.0 / x


def exp_pole(x):
    return 1.0 / (1.0 - np.exp(-x))


def test_config_validation():
    with pytest.raises(ValueError):
        ContourConfig(nodes_per_dim=8)


def test_cauchy_kernel():
    a = 0.21 - 0.07j
    cfg = ContourConfig(nodes_per_dim=64)
    inside = circular_integral(1, lambda z: 1.0 / (z - a), cfg, enclosed_points=[a])
    assert abs(inside - 1.0) <= 1e-10
    outside = circular_integral(1, lambda z: 1.0 / (z - 5.0), cfg, enclosed_points=[a])
    assert abs(outside) <= 1e-10
    b = -0.1 + 0.15j
    two = circular_integral(2, lambda z1, z2: 1.0 / ((z1 - a) * (z2 - b)), cfg,
                            enclosed_points=[a, b])
    assert abs(two - 1.0) <= 1e-9


def test_laurent_exactness():
    # (2 pi i)^{-1} of a Laurent polynomial picks out the z^{-1} coefficient
    # exactly while every exponent stays within the node range; the circle
    # around +-0.6 has center 0 and radius 2 * 0.6 + 0.1 = 1.3
    cfg = ContourConfig(nodes_per_dim=32)
    rng = np.random.default_rng(5)
    coeffs = {p: complex(a, b) for p, (a, b) in
              zip(range(-15, 15), rng.normal(size=(30, 2)))}

    def f(z):
        return sum(c * z ** p for p, c in coeffs.items())

    val = circular_integral(1, f, cfg, enclosed_points=[0.6, -0.6])
    assert abs(val - coeffs[-1]) <= 1e-12 * max(1.0, abs(coeffs[-1]))


def test_vectorized_and_scalar_paths_agree():
    # both calling conventions against Cauchy's formula: (2 pi i)^{-1} of
    # e^z / (z - a) around a is e^a
    a = 0.17 + 0.05j
    cfg = ContourConfig(nodes_per_dim=64)
    for vectorized in (False, True):
        val = circular_integral(1, lambda z: np.exp(z) / (z - a), cfg, [a], vectorized)
        assert abs(val - np.exp(a)) <= 1e-13 * abs(np.exp(a))


def test_dimension_cap_and_radius_guard():
    cfg = ContourConfig(nodes_per_dim=16)
    with pytest.raises(DimensionCap):
        circular_integral(4, lambda *z: 1.0, cfg)
    with pytest.raises(ContourTooTight):
        require_exp_kernel_radius(3.0)
    require_exp_kernel_radius(0.7)


def test_unit_residue_guard():
    assert_unit_residue(inv)
    assert_unit_residue(exp_pole)
    with pytest.raises(ValueError):
        assert_unit_residue(lambda x: 2.0 / x)
    with pytest.raises(ValueError):
        assert_unit_residue(np.exp)


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("pole", [inv, exp_pole])
def test_lemma_unitary_n2(m, pole):
    u = [0.11, -0.07 + 0.09j]
    res = lemma_unitary_check(BipartiteKernel(pole), u, m,
                              ContourConfig(nodes_per_dim=128))
    assert res.residual <= 1e-7


def test_lemma_unitary_with_regular_part():
    def F(a, b):
        return np.exp(-2.0 * sum(b)) if b else 1.0

    res = lemma_unitary_check(BipartiteKernel(exp_pole, F), [0.13, -0.06 + 0.1j], 1,
                              ContourConfig(nodes_per_dim=128))
    assert res.residual <= 1e-7


@pytest.mark.parametrize("variant,diagonal", [
    ("plain", True), ("plain", False), ("signed", False),
])
@pytest.mark.parametrize("pole", [inv, exp_pole])
@pytest.mark.parametrize("k", [1, 2])
def test_lemma_sym(variant, diagonal, pole, k):
    alphas = [0.12, -0.08 + 0.1j][:k]
    kern = SymmetricKernel(pole, include_diagonal=diagonal)
    res = lemma_sym_check(kern, alphas, variant, ContourConfig(nodes_per_dim=128))
    assert res.residual <= 1e-6


def test_lemma_residuals_shrink_with_nodes():
    u = [0.11, -0.07 + 0.09j]
    alphas = [0.12, -0.08 + 0.1j]
    prev = None
    for nodes in (32, 64, 128, 256):
        r = lemma_unitary_check(BipartiteKernel(exp_pole), u, 1,
                                ContourConfig(nodes_per_dim=nodes)).residual
        if prev is not None:
            assert r <= prev + 1e-12
        prev = r
    prev = None
    for nodes in (32, 64, 128, 256):
        r = lemma_sym_check(SymmetricKernel(exp_pole), alphas, "plain",
                            ContourConfig(nodes_per_dim=nodes)).residual
        if prev is not None:
            assert r <= prev + 1e-12
        prev = r


@pytest.mark.parametrize("check", [
    lambda: lemma_unitary_check(BipartiteKernel(exp_pole), [0.1, 0.1], 1),
    lambda: lemma_unitary_check(BipartiteKernel(inv), [0.1, 0.1], 1),
    lambda: lemma_sym_check(SymmetricKernel(exp_pole, include_diagonal=False), [0.1, -0.1], "plain"),
    lambda: lemma_sym_check(SymmetricKernel(exp_pole), [0.0], "plain"),
], ids=["unitary-equal-u", "unitary-equal-u-inverse-pole", "sym-alpha-equals-minus-alpha",
        "sym-alpha-zero"])
def test_lemma_checks_refuse_coincident_points(check):
    # the integrand's poles merge there: the sums gave nan or divided by zero
    with pytest.raises(NearConfluent):
        check()


def test_signed_variant_distinguishes_odd_kernels():
    # lhs of the signed variant is G(alpha) - G(-alpha) for k = 1
    kern = SymmetricKernel(exp_pole, regular=lambda a: np.exp(3.0 * a[0]),
                           include_diagonal=False)
    alpha = 0.21
    res = lemma_sym_check(kern, [alpha], "signed", ContourConfig(nodes_per_dim=128))
    expected = np.exp(3 * alpha) - np.exp(-3 * alpha)
    assert res.lhs == pytest.approx(expected)
    assert res.residual <= 1e-7


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_vectorized_path_leaves_the_integrands_result_alone(dim):
    # the result is a view of the node circle (broadcast along the other axes)
    cfg = ContourConfig(nodes_per_dim=32)
    seen = []

    def first(*z):
        seen.append((z[0], z[0].copy()))
        return z[0]

    vector = circular_integral(dim, first, cfg, [0.3 + 0.1j], vectorized=True)
    scalar = circular_integral(dim, lambda *z: z[0], cfg, [0.3 + 0.1j])
    assert abs(vector - scalar) <= 1e-13
    nodes, snapshot = seen[0]
    assert np.array_equal(nodes, snapshot)


def _random_factor(rng, grid, axes):
    """A random complex factor that varies along `axes` of the grid only."""
    shape = tuple(n if a in axes else 1 for a, n in enumerate(grid))
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_trapezoid_sum_equals_the_full_grid_contraction(d):
    # random sets of constant, one-axis, two-axis and (at d = 3) full-grid
    # factors, on a grid whose axes differ in length so that a transposed
    # table cannot pass
    rng = np.random.default_rng(40 + d)
    grid = (5, 6, 7)[:d]
    nodes = [np.linspace(0.0, 1.0, n) for n in grid]
    spans = [()] + [(a,) for a in range(d)] + [(a, b) for a in range(d) for b in range(a + 1, d)]
    for trial in range(12):
        kinds = spans + ([(0, 1, 2)] if d == 3 and trial % 3 == 0 else [])
        factors = [_random_factor(rng, grid, axes)
                   for axes in kinds for _ in range(int(rng.integers(0, 3)))]
        weights = [rng.normal(size=n) + 1j * rng.normal(size=n) for n in grid]
        full = np.ones(grid, dtype=complex)
        for f in factors:
            full = full * f
        for a, w in enumerate(weights):
            full = full * w.reshape(tuple(n if b == a else 1 for b, n in enumerate(grid)))
        expected = full.sum()
        got = trapezoid_sum(nodes, weights, lambda *_z, f=factors: f)
        assert abs(got - expected) <= 1e-13 * abs(expected), (trial, len(factors))
    # one array instead of a list is the one-factor case
    single = _random_factor(rng, grid, tuple(range(d)))
    ones = [np.ones(n) for n in grid]
    assert trapezoid_sum(nodes, ones, lambda *_z: single) == pytest.approx(single.sum(), rel=1e-13)


def test_trapezoid_sum_refuses_four_variables_before_evaluating():
    def refuse(*_z):
        raise AssertionError("integrand called")

    with pytest.raises(DimensionCap):
        trapezoid_sum([np.zeros(16)] * 4, [np.ones(16)] * 4, refuse)


@pytest.mark.parametrize("route", [
    lambda al, cfg: autocorr_contour(2, al, 1, cfg),
    lambda al, cfg: sp_autocorr_contour(2, al, cfg),
    lambda al, cfg: orthogonal_contour("so", 2, al, cfg),
    lambda al, cfg: orthogonal_contour("ominus", 2, al, cfg),
], ids=["unitary", "symplectic", "so", "ominus"])
def test_three_variable_contour_routes_form_no_full_grid(route):
    # one 128^3 complex grid is 32 MiB; the factored sum keeps M x M tables
    cfg = ContourConfig(nodes_per_dim=128)
    alphas = (0.12 + 0.05j, -0.1 + 0.13j, 0.2 - 0.11j)
    route(alphas, cfg)   # lazy imports are not the route's working set
    tracemalloc.start()
    try:
        route(alphas, cfg)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


@pytest.mark.parametrize("call", [
    lambda: sym_lemma_integrand(SymmetricKernel(exp_pole), [0.1], "other"),
], ids=["unknown-variant"])
def test_input_guards(call):
    with pytest.raises(ValueError):
        call()
