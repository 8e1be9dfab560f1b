"""Contour engine exactness and the two sum-to-integral lemma checks."""

import tracemalloc

import mpmath
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
    contour,
    lemma_sym_check,
    lemma_unitary_check,
    orthogonal_contour,
    sp_autocorr_contour,
)
from rmt_autocorr.contour import (
    Pair,
    _node_circles,
    assert_unit_residue,
    require_exp_kernel_radius,
    resolve_geometry,
    sym_lemma_integrand,
    trapezoid_sum,
)
from rmt_autocorr.contour import exp_pole as package_exp_pole
from rmt_autocorr.symcore import index_pairs


def inv(x):
    return 1.0 / x


def exp_pole(x):
    return 1.0 / (1.0 - np.exp(-x))


def test_config_validation():
    with pytest.raises(ValueError):
        ContourConfig(nodes_per_dim=8)
    # 128.5 laid 129 nodes and divided by 128.5^d: 2.5180 against 2.4891
    with pytest.raises(ValueError):
        sp_autocorr_contour(2, [0.1], ContourConfig(nodes_per_dim=128.5))
    assert ContourConfig(nodes_per_dim=np.int64(32)).nodes_per_dim == 32


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


# the package's exp_pole takes the kernels' factored pair tables; the
# tests' own exp_pole is a generic pole
POLES = [inv, exp_pole, pytest.param(package_exp_pole, id="package_exp_pole")]


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("pole", POLES)
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
@pytest.mark.parametrize("pole", POLES)
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


def _skewed(x, y):
    """A pair function that is not symmetric in its arguments, so that a
    Pair tabled with x and y swapped cannot pass."""
    return x - 2.0 * y + x * y * y


@pytest.mark.parametrize("block", [1, 28, 100])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_trapezoid_sum_row_blocks_are_the_full_grid_contraction(d, block, monkeypatch):
    # one row a block, and blocks that leave a shorter last one: 28 entries
    # are 4 rows of 6 or 7 (of 5 or 6 rows), 100 are 2 rows of the 42-entry
    # full grid (of 5); every kind of factor: Pairs on every ordered axis
    # pair, the same axis included, 2-axis arrays and (at d = 3) full-grid
    # arrays
    monkeypatch.setattr(contour, "BLOCK", block)
    rng = np.random.default_rng(70 + d)
    grid = (5, 6, 7)[:d]
    nodes = [np.linspace(0.0, 1.0, n) for n in grid]
    largest = []

    def spied(x, y):
        out = _skewed(x, y)
        largest.append(np.size(out) if np.ndim(x) == np.ndim(y) == 2 else 0)
        return out

    pair_axes = [(a, b) for a in range(d) for b in range(d)]
    for trial in range(6):
        factors = [_random_factor(rng, grid, ()), *(_random_factor(rng, grid, (a,)) for a in range(d))]
        factors += [Pair(spied, _random_factor(rng, grid, (a,)), _random_factor(rng, grid, (b,)))
                    for a, b in pair_axes]
        factors += [_random_factor(rng, grid, (a, b)) for a, b in pair_axes if a < b]
        if d == 3 and trial % 2:
            factors.append(_random_factor(rng, grid, (0, 1, 2)))
        weights = [rng.normal(size=n) + 1j * rng.normal(size=n) for n in grid]
        full = np.ones(grid, dtype=complex)
        for f in factors:
            full = full * (_skewed(f.x, f.y) if isinstance(f, Pair) else f)
        for a, w in enumerate(weights):
            full = full * w.reshape(tuple(n if b == a else 1 for b, n in enumerate(grid)))
        expected = full.sum()
        got = trapezoid_sum(nodes, weights, lambda *_z, f=factors: iter(f))
        assert abs(got - expected) <= 1e-13 * abs(expected), (trial, len(factors))
    # a two-axis Pair is called on row blocks, never on its whole table
    assert max(largest) <= max(block, *grid)


def test_trapezoid_sum_refuses_four_variables_before_evaluating():
    def refuse(*_z):
        raise AssertionError("integrand called")

    with pytest.raises(DimensionCap):
        trapezoid_sum([np.zeros(16)] * 4, [np.ones(16)] * 4, refuse)


ROUTE_ALPHAS = (0.12 + 0.05j, -0.1 + 0.13j, 0.2 - 0.11j)
contour_routes = pytest.mark.parametrize("route", [
    lambda al, cfg: autocorr_contour(2, al, 1, cfg),
    lambda al, cfg: sp_autocorr_contour(2, al, cfg),
    lambda al, cfg: orthogonal_contour("so", 2, al, cfg),
    lambda al, cfg: orthogonal_contour("ominus", 2, al, cfg),
], ids=["unitary", "symplectic", "so", "ominus"])


def _route_peak(route, alphas, cfg):
    route(alphas, cfg)   # lazy imports are not the route's working set
    tracemalloc.start()
    try:
        route(alphas, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contour_routes
def test_three_variable_contour_routes_form_no_full_grid(route):
    # one 128^3 complex grid is 32 MiB and a 128 x 128 table 0.25 MiB: the
    # row blocks hold only the (1, 2) table whole
    assert _route_peak(route, ROUTE_ALPHAS, ContourConfig(nodes_per_dim=128)) < 2 ** 20


@contour_routes
def test_two_variable_contour_routes_keep_few_tables(route):
    # a 256 x 256 complex table is 1 MiB: the row blocks hold none of them
    # whole
    assert _route_peak(route, ROUTE_ALPHAS[:2], ContourConfig(nodes_per_dim=256)) < 0.5 * 2 ** 20


@contour_routes
@pytest.mark.parametrize("n", [2, 3])
def test_contour_routes_exponentiate_vectors_only(route, n, monkeypatch):
    # exp(-(z_i +- z_j)) = e^{-z_i} e^{-+z_j}: the pair tables are outer
    # products, so no exp sees more than one circle's M nodes
    M = 64
    sizes = []
    np_exp = np.exp

    def spy(x, *args, **kwargs):
        sizes.append(np.size(x))
        return np_exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", spy)
    route(ROUTE_ALPHAS[:n], ContourConfig(nodes_per_dim=M))
    assert sizes and max(sizes) <= M


_pole_40_digits = np.frompyfunc(
    lambda x, y: complex(1 / (1 - mpmath.exp(-(mpmath.mpc(x) + mpmath.mpc(y))))), 2, 1)


def _assert_pole_table(got, x, y):
    """`got` is f(x + y) = 1/(1 - e^{-(x+y)}) to within 8u(1 + |f|) relative
    of its 40-digit value: the rounding of e^{-(x+y)} (unit u), which 1 - e^{-s}
    amplifies by |e^{-s} f| = |f - 1| next to the pole.  The direct formula
    meets the same bound."""
    with mpmath.workdps(40):
        ref = _pole_40_digits(x, y).astype(complex)
    bound = 8 * np.finfo(float).eps / 2 * np.abs(ref) * (1 + np.abs(ref))
    for table in (got, 1.0 / (1.0 - np.exp(-(x + y)))):
        assert np.all(np.abs(table - ref) <= bound)


def _route_nodes(n, enclosed, M=64):
    """A route's node circles around `enclosed`, circle a along axis a."""
    circles = _node_circles(n, M, *resolve_geometry(enclosed))
    return [c.reshape((1,) * a + (-1,) + (1,) * (n - a - 1)) for a, c in enumerate(circles)]


@pytest.mark.parametrize("n", [2, 3])
def test_exp_pole_pair_tables_are_the_pole_to_rounding(n):
    # on a route's nodes a pair sum comes close to the pole, where f is
    # large and neither form is good to 1e-14 of the other
    alphas = list(ROUTE_ALPHAS[:n])
    no_regular = lambda *_args: []   # noqa: E731 -- only the pole tables
    z = _route_nodes(n, alphas)
    for m in range(1, n):
        got = [pair.f(pair.x, pair.y)
               for pair in BipartiteKernel(package_exp_pole, no_regular).factors(z[:m], z[m:])]
        want = [(a, -b) for a in z[:m] for b in z[m:]]
        assert len(got) == len(want)
        for table, (x, y) in zip(got, want):
            _assert_pole_table(table, x, y)
    z = _route_nodes(n, alphas + [-a for a in alphas])
    tables = {}
    for diagonal in (True, False):
        got = [pair.f(pair.x, pair.y)
               for pair in SymmetricKernel(package_exp_pole, no_regular, diagonal).factors(z)]
        pairs = index_pairs(n, diagonal)
        assert len(got) == len(pairs)
        for table, (i, j) in zip(got, pairs):
            if (i, j) in tables:   # the same table without the diagonal
                assert np.array_equal(table, tables[i, j])
            else:
                _assert_pole_table(table, z[i], z[j])
                tables[i, j] = table


@pytest.mark.parametrize("call,match", [
    (lambda: sym_lemma_integrand(SymmetricKernel(exp_pole), [0.1], "other"), "variant must be"),
    (lambda: trapezoid_sum([np.zeros(16)], [np.ones(16)], lambda z: np.ones(3)),
     "does not broadcast"),
], ids=["unknown-variant", "factor-does-not-broadcast"])
def test_input_guards(call, match):
    with pytest.raises(ValueError, match=match):
        call()
