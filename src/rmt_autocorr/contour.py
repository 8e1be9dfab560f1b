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
and `haar.quadrature_average` share, takes the factors unmultiplied:
one-variable factors join their axis's node weights w_a and two-variable
factors make up M x M tables A_ab, so d = 3 is
sum(A_01 * w_0 (x) w_1 * ((A_02 * w_2) @ A_12^T)) -- one matrix product
and M^2 tables instead of M^3 grid points.  The integrands below give
each two-variable factor as a `Pair(f, x, y)`, the function and its two
per-axis node arrays, and no table: `trapezoid_sum` builds the tables
a row block of about BLOCK entries at a time and contracts each block at
once, so the only whole table is A_12 at d = 3, which the matrix product
needs.  An integrand that is one opaque function of all d variables is
the degenerate case, one factor on the full grid, sliced by the same row
blocks.

The two lemma checks evaluate both sides (block-ordered permutation sum
vs n-fold integral, and sign-vector sum vs k-fold integral) from their
printed definitions and report the residual.  Each contour route is one
of the two lemmas applied to an exp-pole kernel, and returns that
lemma's integral side, which its check reads too.  With the package's
`exp_pole`, f(x) = 1/(1 - e^{-x}), a kernel gives each pair factor
f(z_i +- z_j) as the Pair 1/(1 - u v) of the per-variable exponentials
u = e^{-+z}: a product, a subtraction and a reciprocal per table entry,
with no complex exp on the M x M grid.  Any other pole is called on
z_i +- z_j.

numpy is imported inside the functions that build arrays, so the closed
forms, which import this module for its kernels and guards, load it only
when a contour or Weyl sum runs.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .errors import ContourTooTight, DimensionCap, Record, require_count
from .symcore import (
    enumerate_split_permutations,
    index_pairs,
    require_separated,
    sign_vectors,
)

if TYPE_CHECKING:
    import numpy as np

GOLDEN_FRACTION = (math.sqrt(5.0) - 1.0) / 2.0

# Circles larger than this cross the 2 pi i-periodic pole branches of the
# exp-kernel integrands (z_i +- z_j = 2 pi i k, k != 0).
EXP_KERNEL_MAX_RADIUS = 2.8


class ContourConfig(Record):
    __slots__ = _fields = ("nodes_per_dim",)

    def __init__(self, nodes_per_dim: int = 128) -> None:
        object.__setattr__(self, "nodes_per_dim", require_count(nodes_per_dim, 16, "nodes_per_dim"))


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
    import numpy as np

    base = 2.0 * np.pi * np.arange(M) / M
    rot = GOLDEN_FRACTION * (2.0 * np.pi / M)
    return [center + radius * np.exp(1j * (base + d * rot)) for d in range(dim)]


# Largest dimension of a trapezoid sum, contour or Weyl.
DIM_CAP = 3

# Entries of one row block of a pair table: 4,096 complex numbers (64 KiB),
# so that no temporary of the contraction reaches glibc's 128 KiB mmap
# threshold and a call maps and unmaps no memory.
BLOCK = 4096


class Pair(NamedTuple):
    """The factor f(x, y) of x and y, not yet evaluated.  Where x and y vary
    along two axes of a grid, `trapezoid_sum` calls f on row blocks of
    them and never forms the whole table."""

    f: Callable
    x: object
    y: object


def _value(factor):
    """A factor's value: a Pair evaluated, anything else itself."""
    return factor.f(factor.x, factor.y) if isinstance(factor, Pair) else factor


def _factors_of(value) -> Iterable:
    """A product given as its factors: a list or iterator is its factors,
    anything else is one factor."""
    return value if isinstance(value, (list, Iterator)) else (value,)


def _axes(shape: tuple[int, ...], grid: tuple[int, ...]) -> tuple[int, ...]:
    """The axes of `grid` along which an array of `shape` varies.  Raises
    ValueError for a shape that does not broadcast to the grid."""
    axes = []
    for a, n in enumerate(shape, len(grid) - len(shape)):
        if n != 1:
            if a < 0 or n != grid[a]:
                raise ValueError(f"a factor of shape {shape} does not broadcast to {grid}")
            axes.append(a)
    return tuple(axes)


def _pair_rows(pair: Pair, grid: tuple[int, ...]):
    """((a, b), rows) for a Pair whose x and y vary along one axis each,
    a < b: rows(s) is its table at rows s of axis a and every node of axis
    b.  None for any other Pair."""
    import numpy as np

    ax, ay = _axes(np.shape(pair.x), grid), _axes(np.shape(pair.y), grid)
    if len(ax) != 1 or len(ay) != 1 or ax == ay:
        return None
    f, x, y = pair.f, np.ravel(pair.x), np.ravel(pair.y)
    if ax < ay:
        col, row = x[:, None], y[None, :]
        return ax + ay, lambda s: f(col[s], row)
    col, row = y[:, None], x[None, :]
    return ay + ax, lambda s: f(row, col[s])


def trapezoid_sum(nodes: Sequence[np.ndarray], weights: Sequence[np.ndarray],
                  integrand) -> complex:
    """The sum over the product grid of `nodes` of prod_a weights[a][i_a]
    times the integrand, in d = len(nodes) <= DIM_CAP variables.

    `integrand` is called once with one broadcastable array per variable
    (nodes[a] along axis a) and returns a factor or a list or iterator of
    factors, whose product is the integrand; it does not write to them.  A
    factor is an array that broadcasts to the grid, or a `Pair` (f, x, y):
    x and y broadcastable arrays and f(x, y) the factor, which f computes
    elementwise with broadcasting.  Each factor counts on the axes it
    varies along: constants scale the sum, one-axis factors multiply their
    axis's weights w_a, and the others multiply into the table of their
    axes, A_01, A_02, A_12 or A_012 (ones where there is none).  Then d = 1
    is sum(w_0), d = 2 is w_0 . (A_01 w_1), and d = 3 folds the third
    variable into A_01 * ((A_02 * w_2) @ A_12^T), or into
    A_01 * ((A_012 * A_12) @ (A_02 * w_2)) row by row where a full-grid
    factor is given.

    No table but A_12 is built whole: the rows of axis 0 are taken in
    blocks of about BLOCK entries, and a block's rows of each table (a
    Pair called on those rows of its arguments, an array sliced) are
    built and contracted at once.  A_12, every row of which the matrix
    product reads, is filled a block at a time into one array.  A Pair
    whose x and y do not vary along two axes is called once and counts as
    an array.  Raises DimensionCap for d > DIM_CAP before calling the
    integrand.
    """
    import numpy as np

    d = len(nodes)
    if d > DIM_CAP:
        raise DimensionCap(f"dimension {d} exceeds the cap {DIM_CAP}")
    grid = tuple(len(x) for x in nodes)
    vals = integrand(*(x.reshape((1,) * a + (-1,) + (1,) * (d - a - 1))
                       for a, x in enumerate(nodes)))
    const, w = 1.0, list(weights)
    # axes -> the row builders of that table's factors
    tables: dict[tuple[int, ...], list[Callable]] = {}
    for factor in _factors_of(vals):
        if isinstance(factor, Pair):
            lazy = _pair_rows(factor, grid)
            if lazy is not None:
                tables.setdefault(lazy[0], []).append(lazy[1])
                continue
            factor = _value(factor)
        factor = np.asarray(factor, dtype=complex)
        axes = _axes(factor.shape, grid)
        part = factor.reshape([grid[a] for a in axes])
        if len(axes) > 1:
            tables.setdefault(axes, []).append(part.__getitem__)
        elif axes:
            w[axes[0]] = w[axes[0]] * part
        else:
            const = const * part
    if d < 2:
        return complex(const * np.sum(w[0])) if d else complex(const)

    def rows(axes: tuple[int, ...], s: slice) -> np.ndarray:
        """Rows s of table A_axes: the product of its factors there."""
        out = None
        for part in tables.get(axes, ()):
            out = part(s) if out is None else out * part(s)
        if out is None:
            return np.ones((len(range(grid[axes[0]])[s]),) + tuple(grid[a] for a in axes[1:]))
        return out

    def steps(n_rows: int, row: int) -> Iterator[slice]:
        """Blocks of n_rows rows of `row` entries each, about BLOCK entries a block."""
        step = max(1, BLOCK // row)
        return (slice(r, r + step) for r in range(0, n_rows, step))

    if d == 3:
        a12 = np.empty(grid[1:], dtype=complex)
        for s in steps(grid[1], grid[2]):
            a12[s] = rows((1, 2), s)
    row_sums = np.empty(grid[0], dtype=complex)
    for s in steps(grid[0], math.prod(grid[1:]) if (0, 1, 2) in tables else max(grid[1:])):
        a01 = rows((0, 1), s)
        if d == 3:
            a02 = rows((0, 2), s) * w[2]
            if (0, 1, 2) in tables:
                full = rows((0, 1, 2), s) * a12
                a01 = a01 * np.matmul(full, a02[:, :, None])[..., 0]
            else:
                a01 = a01 * (a02 @ a12.T)
        row_sums[s] = a01 @ w[1]
    return complex(const * (row_sums @ w[0]))


def circular_integral(dim: int, integrand, cfg: ContourConfig | None = None,
                      enclosed_points: Sequence[complex] = (),
                      vectorized: bool = False) -> complex:
    """(2 pi i)^{-dim} times the dim-fold contour integral of `integrand`.

    `vectorized` selects only the integrand's calling convention: True
    hands it one broadcastable array per dimension and expects, as
    `trapezoid_sum` does, a factor (an array that broadcasts to the full
    grid, or a `Pair`) or a list or iterator of factors whose product is
    the integrand; it does not write to them.  The lemma integrals below
    yield one-variable factors and Pairs, so they cost row blocks of
    M x M tables and, at dim = 3, one whole table and one M x M matrix
    product, with no M^dim array.  False calls
    integrand(z_1, ..., z_dim) once per grid point with Python complex
    arguments, one factor on the full grid.  Both are summed by
    `trapezoid_sum` with the node weights z - center.
    """
    import numpy as np

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
    import numpy as np

    return 1.0 / (1.0 - np.exp(-x))


def _exp_pole_pair(u, v):
    """exp_pole(x + y) at u = e^{-x}, v = e^{-y}."""
    return 1.0 / (1.0 - u * v)


def _pair_poles(pole: Callable, xs: Sequence, ys: Sequence,
                pairs: Iterable[tuple[int, int]]) -> Iterator[Pair]:
    """f(x_i + y_j) for each (i, j) of `pairs`, as Pairs.  For `exp_pole`
    that is 1 / (1 - e^{-x_i} e^{-y_j}): one exp per variable and, per
    table entry, a product, a subtraction and a reciprocal, so a table
    costs no complex exp.  Any other pole is called on x_i + y_j."""
    import numpy as np

    if pole is not exp_pole:
        return (Pair(lambda x, y: pole(x + y), xs[i], ys[j]) for i, j in pairs)
    ex = [np.exp(-x) for x in xs]
    ey = ex if ys is xs else [np.exp(-y) for y in ys]
    return (Pair(_exp_pole_pair, ex[i], ey[j]) for i, j in pairs)


def _square_difference(x, y):
    """(y - x)^2: a factor of a Vandermonde square."""
    import numpy as np

    return np.square(y - x)


def exp_sum(c: complex, zs: Sequence) -> Iterator:
    """exp(c * sum(zs)) as its one-variable factors exp(c z), which a
    kernel's regular part may return (see `_factors_of`)."""
    import numpy as np

    return (np.exp(c * z) for z in zs)


def assert_unit_residue(f: Callable[[complex], complex]) -> None:
    """Numerically check that f(x) = 1/x + analytic near x = 0."""
    for probe in (1e-7 + 0j, 1e-7j, (0.7 + 0.4j) * 1e-7):
        if abs(probe * f(probe) - 1.0) > 1e-4:
            raise ValueError("pole factor does not have a simple pole of residue 1 at 0")


class BipartiteKernel(NamedTuple):
    """G(a; b) = F(a; b) * prod_{i,j} f(a_i - b_j) with f ~ 1/x near 0."""

    pole: Callable[[complex], complex]
    regular: Callable = _one

    def __call__(self, a: Sequence[complex], b: Sequence[complex]) -> complex:
        return complex(math.prod(map(_value, self.factors(a, b))))

    def factors(self, a: Sequence, b: Sequence) -> Iterator:
        """The factors of G(a; b), unmultiplied: F's, then the Pair f(a_i - b_j) per pair."""
        yield from _factors_of(self.regular(tuple(a), tuple(b)))
        yield from _pair_poles(self.pole, a, [-bj for bj in b],
                               itertools.product(range(len(a)), range(len(b))))


class SymmetricKernel(NamedTuple):
    """G(a) = F(a) * prod over pairs f(a_i + a_j), diagonal optional."""

    pole: Callable[[complex], complex]
    regular: Callable = _one
    include_diagonal: bool = True

    def __call__(self, a: Sequence[complex]) -> complex:
        return complex(math.prod(map(_value, self.factors(a))))

    def factors(self, a: Sequence) -> Iterator:
        """The factors of G(a), unmultiplied: F's, then the Pair f(a_i + a_j) per pair."""
        yield from _factors_of(self.regular(tuple(a)))
        yield from _pair_poles(self.pole, a, a, index_pairs(len(a), self.include_diagonal))


class LemmaCheckResult(NamedTuple):
    lhs: complex
    rhs: complex

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def unitary_lemma_integral(kernel: BipartiteKernel, u: Sequence[complex], m: int,
                           cfg: ContourConfig | None = None) -> complex:
    """The unitary lemma's n-fold side on a shared circle enclosing the u:
    (-1)^{n(n-1)/2} / (m! (n-m)!) * (2 pi i)^{-n} * contour integral of
    G(z_1..z_m; z_{m+1}..z_n) Delta(z)^2 / prod_{i,j}(z_i - u_j).  Its
    integrand yields its factors: the constant, the Pair (z_k - z_j)^2 per
    pair, the kernel's factors and one denominator per variable.
    """
    u = [complex(x) for x in u]
    n = len(u)
    const = (-1) ** (n * (n - 1) // 2) / (math.factorial(m) * math.factorial(n - m))

    def integrand(*z):
        yield const
        for j, k in index_pairs(n, False):
            yield Pair(_square_difference, z[j], z[k])
        yield from kernel.factors(z[:m], z[m:])
        for zd in z:
            yield 1.0 / math.prod(zd - p for p in u)

    return circular_integral(n, integrand, cfg, enclosed_points=u, vectorized=True)


def sym_lemma_integral(kernel: SymmetricKernel, alphas: Sequence[complex], variant: str,
                       cfg: ContourConfig | None = None) -> complex:
    """The sign-vector lemma's k-fold side on a shared circle enclosing +-alpha:
    (-1)^{k(k-1)/2} 2^k / k! * (2 pi i)^{-k} * contour integral of G(z)
    Delta(z^2)^2 * numerator / prod_{i,j}(z_i - alpha_j)(z_i + alpha_j),
    numerator prod z_j ("plain") or prod alpha_j ("signed").  Its integrand
    yields its factors: the constant, the Pair (z_k^2 - z_j^2)^2 per pair,
    the kernel's factors and one numerator over denominator per variable.
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
            yield Pair(_square_difference, sq[i], sq[j])
        yield from kernel.factors(z)
        for zd in z:
            top = zd if variant == "plain" else 1.0
            yield top / math.prod((zd - a) * (zd + a) for a in al)

    return circular_integral(k, integrand, cfg, enclosed_points=al + [-a for a in al],
                             vectorized=True)


def lemma_unitary_check(kernel: BipartiteKernel, u: Sequence[complex], m: int,
                        cfg: ContourConfig | None = None) -> LemmaCheckResult:
    """Block-ordered permutation sum of G vs the n-fold contour integral.

    lhs = sum over block-increasing sigma of G(u_left; u_right);
    rhs = `unitary_lemma_integral`.
    Raises NearConfluent when two of the points u coincide.
    """
    u = [complex(x) for x in u]
    require_separated(u, "u points")
    assert_unit_residue(kernel.pole)
    lhs = 0j
    for left, right in enumerate_split_permutations(len(u), m):
        lhs += kernel(tuple(u[i] for i in left), tuple(u[i] for i in right))
    return LemmaCheckResult(lhs, unitary_lemma_integral(kernel, u, m, cfg))


def lemma_sym_check(kernel: SymmetricKernel, alphas: Sequence[complex], variant: str,
                    cfg: ContourConfig | None = None) -> LemmaCheckResult:
    """Sign-vector sum of G vs the k-fold contour integral enclosing +-alpha.

    variant "plain":  lhs = sum_eps G(eps * alpha);
    variant "signed": lhs = sum_eps (prod eps) G(eps * alpha);
    rhs = `sym_lemma_integral` of the variant.
    Raises NearConfluent when two of the points +-alpha coincide.
    """
    al = [complex(x) for x in alphas]
    require_separated(al + [-a for a in al], "+-alpha points")
    assert_unit_residue(kernel.pole)
    lhs = 0j
    for eps in sign_vectors(len(al)):
        weight = math.prod(eps) if variant == "signed" else 1
        lhs += weight * kernel(tuple(e * a for e, a in zip(eps, al)))
    return LemmaCheckResult(lhs, sym_lemma_integral(kernel, al, variant, cfg))
