"""Multidimensional circular-contour quadrature and sum-to-integral checks.

The engine realizes (2 pi i)^{-d} of a d-fold contour integral over a
shared circle per variable, discretized by the periodic trapezoid rule.
Successive dimensions get a golden-ratio fraction of a node spacing as a
grid rotation, so antipodal/diagonal node pairs never coincide exactly --
the kernels below have pole sets like z_i = z_j or z_i = -z_j that are
cancelled analytically by Vandermonde-squared zeros but would be 0 * inf
on an aligned grid.

Every integrand here is a product of one-variable factors (shifts,
denominators, exp factors, diagonal poles) and two-variable factors (the
Vandermonde squares and the kernels' pair poles).  `trapezoid_sum`, the
one contraction of a d <= DIM_CAP periodic trapezoid sum that this module
and the Weyl quadrature of `haar` share, takes the factors unmultiplied:
one-variable factors join their axis's node weights w_a and two-variable
factors are M x M tables A_ab, so d = 3 is
sum(A_01 * w_0 (x) w_1 * ((A_02 * w_2) @ A_12^T)) -- one matrix product
and M^2 tables instead of M^3 grid points.  An integrand that is one
opaque function of all d variables is the degenerate case, one factor on
the full grid contracted axis by axis.

The two lemma checks evaluate both sides (block-ordered permutation sum
vs n-fold integral, and sign-vector sum vs k-fold integral) from their
printed definitions and report the residual.  Each contour route is one
of the two lemmas applied to an exp-pole kernel, so the routes build
their integrands with the same two builders.  With the package's
`exp_pole`, f(x) = 1/(1 - e^{-x}), a kernel forms each pair table
f(z_i +- z_j) as 1/(1 - u_i u_j) from the per-variable exponentials
u = e^{-+z}: one outer product, a subtraction and a reciprocal, with no
complex exp on the M x M grid.  Any other pole is called on z_i +- z_j.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ContourTooTight, DimensionCap, require_count
from .symcore import (
    enumerate_split_permutations,
    index_pairs,
    require_separated,
    sign_vectors,
)

GOLDEN_FRACTION = (math.sqrt(5.0) - 1.0) / 2.0

# Circles larger than this cross the 2 pi i-periodic pole branches of the
# exp-kernel integrands (z_i +- z_j = 2 pi i k, k != 0).
EXP_KERNEL_MAX_RADIUS = 2.8


@dataclass(frozen=True)
class ContourConfig:
    nodes_per_dim: int = 128

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes_per_dim",
                           require_count(self.nodes_per_dim, 16, "nodes_per_dim"))


DEFAULT_CONTOUR = ContourConfig()


def resolve_geometry(enclosed: Sequence[complex]) -> tuple[complex, float]:
    """Center and radius of the shared circle: the centroid of the enclosed
    points, and twice the farthest enclosed distance plus an absolute 0.1."""
    pts = [complex(p) for p in enclosed]
    center = sum(pts) / len(pts) if pts else 0j
    spread = max((abs(p - center) for p in pts), default=0.0)
    return center, 2.0 * spread + 0.1


def require_exp_kernel_radius(radius: float) -> None:
    if radius > EXP_KERNEL_MAX_RADIUS:
        raise ContourTooTight(
            f"contour radius {radius:.3f} reaches the 2 pi i-periodic pole "
            "branches; move the enclosed points closer together")


def require_exp_kernel_contour(enclosed: Sequence[complex], what: str) -> None:
    """Guards of a contour route with exp-pole kernels: the enclosed points
    are separated and the circle around them stays inside the pole branches."""
    require_separated(enclosed, what)
    _center, radius = resolve_geometry(enclosed)
    require_exp_kernel_radius(radius)


def _node_circles(dim: int, M: int, center: complex, radius: float) -> list[np.ndarray]:
    base = 2.0 * np.pi * np.arange(M) / M
    rot = GOLDEN_FRACTION * (2.0 * np.pi / M)
    return [center + radius * np.exp(1j * (base + d * rot)) for d in range(dim)]


# Largest dimension of a trapezoid sum, contour or Weyl.
DIM_CAP = 3


def _factors_of(value) -> Iterable:
    """A product given as its factors: a list or iterator is its factors,
    anything else is one factor."""
    return value if isinstance(value, (list, Iterator)) else (value,)


def trapezoid_sum(nodes: Sequence[np.ndarray], weights: Sequence[np.ndarray],
                  integrand) -> complex:
    """The sum over the product grid of `nodes` of prod_a weights[a][i_a]
    times the integrand, in d = len(nodes) <= DIM_CAP variables.

    `integrand` is called once with one broadcastable array per variable
    (nodes[a] along axis a) and returns an array that broadcasts to the
    grid or a list or iterator of such factors, whose product is the
    integrand; it does not write to them.  An iterator's factors are
    multiplied in as they come, so only the tables are kept.  Each factor
    counts on the axes it varies along: constants scale the sum, one-axis
    factors multiply their axis's weights w_a, and two-axis factors
    multiply into that pair's table A_ab (ones where there is none).  Then
    d = 1 is sum(w_0), d = 2 is w_0 . (A_01 w_1), and d = 3 first folds
    the third variable into A_01 * ((A_02 * w_2) @ A_12^T) with one matrix
    product.  A factor on all three axes is multiplied by the tables on the
    full grid, which w_2 then contracts.  Raises DimensionCap for
    d > DIM_CAP before calling the integrand.
    """
    d = len(nodes)
    if d > DIM_CAP:
        raise DimensionCap(f"dimension {d} exceeds the cap {DIM_CAP}")
    grid = tuple(len(x) for x in nodes)
    vals = integrand(*(x.reshape((1,) * a + (-1,) + (1,) * (d - a - 1))
                       for a, x in enumerate(nodes)))
    tables: dict[tuple[int, ...], np.ndarray] = {}
    for factor in _factors_of(vals):
        # a broadcast axis has stride 0: the factor does not vary along it
        full = np.broadcast_to(np.asarray(factor, dtype=complex), grid)
        axes = tuple(a for a in range(d) if full.strides[a])
        part = full[tuple(slice(None) if a in axes else 0 for a in range(d))]
        tables[axes] = tables[axes] * part if axes in tables else part
    const = tables.pop((), 1.0)
    w = [weights[a] * tables.pop((a,)) if (a,) in tables else weights[a] for a in range(d)]
    if d < 2:
        return complex(const * np.sum(w[0])) if d else complex(const)

    def table(a: int, b: int) -> np.ndarray:
        return tables.pop((a, b)) if (a, b) in tables else np.ones((grid[a], grid[b]))

    if d == 2:
        a01 = table(0, 1)
    elif (0, 1, 2) in tables:
        full = tables.pop((0, 1, 2))
        for (a, b), t in tables.items():
            full = full * np.expand_dims(t, 3 - a - b)
        a01 = full @ w[2]
    else:
        a01 = table(0, 1) * ((table(0, 2) * w[2]) @ table(1, 2).T)
    return complex(const * ((a01 @ w[1]) @ w[0]))


def circular_integral(dim: int, integrand, cfg: ContourConfig | None = None,
                      enclosed_points: Sequence[complex] = (),
                      vectorized: bool = False) -> complex:
    """(2 pi i)^{-dim} times the dim-fold contour integral of `integrand`.

    `vectorized` selects only the integrand's calling convention: True
    hands it one broadcastable array per dimension and expects, as
    `trapezoid_sum` does, an array that broadcasts to the full grid or a
    list or iterator of factors whose product is the integrand; it does
    not write to them.  The lemma integrands below yield one- and
    two-variable factors, so they cost M x M tables and, at dim = 3, one
    M x M matrix product, with no M^dim array.  False calls
    integrand(z_1, ..., z_dim) once per grid point with Python complex
    arguments, one factor on the full grid.  Both are summed by
    `trapezoid_sum` with the node weights z - center.
    """
    M = (cfg or DEFAULT_CONTOUR).nodes_per_dim
    center, radius = resolve_geometry(enclosed_points)
    circles = _node_circles(dim, M, center, radius)
    if not vectorized:
        integrand = np.frompyfunc(integrand, dim, 1)
    return trapezoid_sum(circles, [c - center for c in circles], integrand) / M ** dim


# ---------------------------------------------------------------------------
# Structured integrands for the two sum-to-integral lemmas
# ---------------------------------------------------------------------------

def _one(*_args) -> complex:
    return 1.0 + 0j


def exp_pole(x):
    """1 / (1 - e^{-x}): the pole factor of every contour route (residue 1 at 0)."""
    return 1.0 / (1.0 - np.exp(-x))


def _pair_poles(pole: Callable, xs: Sequence, ys: Sequence,
                pairs: Iterable[tuple[int, int]]) -> Iterator:
    """f(x_i + y_j) for each (i, j) of `pairs`.  For `exp_pole` that is
    1 / (1 - e^{-x_i} e^{-y_j}): one exp per variable and, per pair, an
    outer product, a subtraction and a reciprocal, so an M x M table costs
    no complex exp.  Any other pole is called on x_i + y_j."""
    if pole is not exp_pole:
        return (pole(xs[i] + ys[j]) for i, j in pairs)
    ex = [np.exp(-x) for x in xs]
    ey = ex if ys is xs else [np.exp(-y) for y in ys]
    return (1.0 / (1.0 - ex[i] * ey[j]) for i, j in pairs)


def exp_sum(c: complex, zs: Sequence) -> Iterator:
    """exp(c * sum(zs)) as its one-variable factors exp(c z), which a
    kernel's regular part may return (see `_factors_of`)."""
    return (np.exp(c * z) for z in zs)


def assert_unit_residue(f: Callable[[complex], complex]) -> None:
    """Numerically check that f(x) = 1/x + analytic near x = 0."""
    for probe in (1e-7 + 0j, 1e-7j, (0.7 + 0.4j) * 1e-7):
        if abs(probe * f(probe) - 1.0) > 1e-4:
            raise ValueError("pole factor does not have a simple pole of residue 1 at 0")


@dataclass(frozen=True)
class BipartiteKernel:
    """G(a; b) = F(a; b) * prod_{i,j} f(a_i - b_j) with f ~ 1/x near 0."""

    pole: Callable[[complex], complex]
    regular: Callable = field(default=_one)

    def __call__(self, a: Sequence[complex], b: Sequence[complex]) -> complex:
        return complex(math.prod(self.factors(a, b)))

    def factors(self, a: Sequence, b: Sequence) -> Iterator:
        """The factors of G(a; b), unmultiplied: F's, then one f(a_i - b_j) per pair."""
        yield from _factors_of(self.regular(tuple(a), tuple(b)))
        yield from _pair_poles(self.pole, a, [-bj for bj in b],
                               itertools.product(range(len(a)), range(len(b))))


@dataclass(frozen=True)
class SymmetricKernel:
    """G(a) = F(a) * prod over pairs f(a_i + a_j), diagonal optional."""

    pole: Callable[[complex], complex]
    regular: Callable = field(default=_one)
    include_diagonal: bool = True

    def __call__(self, a: Sequence[complex]) -> complex:
        return complex(math.prod(self.factors(a)))

    def factors(self, a: Sequence) -> Iterator:
        """The factors of G(a), unmultiplied: F's, then one f(a_i + a_j) per pair."""
        yield from _factors_of(self.regular(tuple(a)))
        yield from _pair_poles(self.pole, a, a, index_pairs(len(a), self.include_diagonal))


@dataclass(frozen=True)
class LemmaCheckResult:
    lhs: complex
    rhs: complex

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def unitary_lemma_integrand(kernel: BipartiteKernel, u: Sequence[complex], m: int):
    """Vectorized integrand of the unitary lemma's n-fold side, constant included.

    (-1)^{n(n-1)/2} / (m! (n-m)!) * G(z_1..z_m; z_{m+1}..z_n) Delta(z)^2
    / prod_{i,j}(z_i - u_j), for circular_integral(n, ..., enclosed_points=u,
    vectorized=True).  It yields its factors: the constant, (z_k - z_j)^2
    per pair, the kernel's factors and one denominator per variable.
    """
    u = [complex(x) for x in u]
    n = len(u)
    const = (-1) ** (n * (n - 1) // 2) / (math.factorial(m) * math.factorial(n - m))

    def integrand(*z):
        yield const
        for j, k in index_pairs(n, False):
            yield np.square(z[k] - z[j])
        yield from kernel.factors(z[:m], z[m:])
        for zd in z:
            yield 1.0 / math.prod(zd - p for p in u)

    return integrand


def sym_lemma_integrand(kernel: SymmetricKernel, alphas: Sequence[complex], variant: str):
    """Vectorized integrand of the sign-vector lemma's k-fold side, constant included.

    (-1)^{k(k-1)/2} 2^k / k! * G(z) Delta(z^2)^2 * numerator
    / prod_{i,j}(z_i - alpha_j)(z_i + alpha_j), numerator prod z_j ("plain")
    or prod alpha_j ("signed"), for a contour enclosing +-alpha.  It yields
    its factors: the constant, (z_k^2 - z_j^2)^2 per pair, the kernel's
    factors and one numerator over denominator per variable.
    """
    if variant not in ("plain", "signed"):
        raise ValueError("variant must be 'plain' or 'signed'")
    al = [complex(x) for x in alphas]
    k = len(al)
    const = (-1) ** (k * (k - 1) // 2) * 2 ** k / math.factorial(k)
    if variant == "signed":
        const *= math.prod(al)

    def integrand(*z):
        yield const
        sq = [zd * zd for zd in z]
        for i, j in index_pairs(k, False):
            yield np.square(sq[j] - sq[i])
        yield from kernel.factors(z)
        for zd in z:
            top = zd if variant == "plain" else 1.0
            yield top / math.prod((zd - a) * (zd + a) for a in al)

    return integrand


def lemma_unitary_check(kernel: BipartiteKernel, u: Sequence[complex], m: int,
                        cfg: ContourConfig | None = None) -> LemmaCheckResult:
    """Block-ordered permutation sum of G vs the n-fold contour integral.

    lhs = sum over block-increasing sigma of G(u_left; u_right);
    rhs = (-1)^{n(n-1)/2} / (m! (n-m)!) * (2 pi i)^{-n} * contour integral
    of G(z_1..z_m; z_{m+1}..z_n) Delta(z)^2 / prod_{i,j}(z_i - u_j).
    Raises NearConfluent when two of the points u coincide.
    """
    u = [complex(x) for x in u]
    require_separated(u, "u points")
    assert_unit_residue(kernel.pole)
    lhs = 0j
    for left, right in enumerate_split_permutations(len(u), m):
        lhs += kernel(tuple(u[i] for i in left), tuple(u[i] for i in right))
    rhs = circular_integral(len(u), unitary_lemma_integrand(kernel, u, m), cfg,
                            enclosed_points=u, vectorized=True)
    return LemmaCheckResult(lhs, rhs)


def lemma_sym_check(kernel: SymmetricKernel, alphas: Sequence[complex], variant: str,
                    cfg: ContourConfig | None = None) -> LemmaCheckResult:
    """Sign-vector sum of G vs the k-fold contour integral enclosing +-alpha.

    variant "plain":  lhs = sum_eps G(eps * alpha), integral numerator prod z_j;
    variant "signed": lhs = sum_eps (prod eps) G(eps * alpha), numerator prod alpha_j.
    Raises NearConfluent when two of the points +-alpha coincide.
    """
    al = [complex(x) for x in alphas]
    enclosed = al + [-a for a in al]
    require_separated(enclosed, "+-alpha points")
    integrand = sym_lemma_integrand(kernel, alphas, variant)
    assert_unit_residue(kernel.pole)
    lhs = 0j
    for eps in sign_vectors(len(al)):
        weight = math.prod(eps) if variant == "signed" else 1
        lhs += weight * kernel(tuple(e * a for e, a in zip(eps, al)))
    rhs = circular_integral(len(al), integrand, cfg, enclosed_points=enclosed, vectorized=True)
    return LemmaCheckResult(lhs, rhs)
