"""Multidimensional circular-contour quadrature and sum-to-integral checks.

The engine realizes (2 pi i)^{-d} of a d-fold contour integral over a
shared circle per variable, discretized by the periodic trapezoid rule.
Successive dimensions get a golden-ratio fraction of a node spacing as a
grid rotation, so antipodal/diagonal node pairs never coincide exactly --
the kernels below have pole sets like z_i = z_j or z_i = -z_j that are
cancelled analytically by Vandermonde-squared zeros but would be 0 * inf
on an aligned grid.

The two lemma checks evaluate both sides (block-ordered permutation sum
vs n-fold integral, and sign-vector sum vs k-fold integral) from their
printed definitions and report the residual.  Each contour route is one
of the two lemmas applied to an exp-pole kernel, so the routes build
their integrands with the same two builders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .errors import ContourTooTight, DimensionCap
from .symcore import (
    enumerate_split_permutations,
    index_pairs,
    require_separated,
    sign_vectors,
    vandermonde,
)

GOLDEN_FRACTION = (math.sqrt(5.0) - 1.0) / 2.0

# Circles larger than this cross the 2 pi i-periodic pole branches of the
# exp-kernel integrands (z_i +- z_j = 2 pi i k, k != 0).
EXP_KERNEL_MAX_RADIUS = 2.8

# Largest contour dimension (M^dim grid points).
DIM_CAP = 3


@dataclass(frozen=True)
class ContourConfig:
    nodes_per_dim: int = 128

    def __post_init__(self) -> None:
        if self.nodes_per_dim < 16:
            raise ValueError("nodes_per_dim must be >= 16")


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


def circular_integral(dim: int, integrand, cfg: ContourConfig | None = None,
                      enclosed_points: Sequence[complex] = (),
                      vectorized: bool = False) -> complex:
    """(2 pi i)^{-dim} times the dim-fold contour integral of `integrand`.

    Scalar mode calls integrand(z_1, ..., z_dim) per grid point with a
    fixed lexicographic order and compensated accumulation, so results do
    not depend on evaluation batching.  Vectorized mode hands the integrand
    one broadcastable array per dimension and expects an array that
    broadcasts to the full grid back; it does not write to that array.
    """
    if dim > DIM_CAP:
        raise DimensionCap(f"dimension {dim} exceeds the cap {DIM_CAP}")
    M = (cfg or DEFAULT_CONTOUR).nodes_per_dim
    center, radius = resolve_geometry(enclosed_points)
    circles = _node_circles(dim, M, center, radius)

    if vectorized:
        shaped = [c.reshape((1,) * d + (M,) + (1,) * (dim - d - 1)) for d, c in enumerate(circles)]
        # Contracting one axis at a time with the node weights reads the
        # integrand's grid without a second full-size array (or writing to
        # it: the result may be a view of the circles).
        vals = np.broadcast_to(np.asarray(integrand(*shaped), dtype=complex), (M,) * dim)
        for c in reversed(circles):
            vals = vals @ (c - center)
        return complex(vals / M ** dim)

    total = 0j
    comp = 0j  # Kahan compensation
    for idx in product(range(M), repeat=dim):
        z = tuple(circles[d][i] for d, i in enumerate(idx))
        term = integrand(*z)
        for d, i in enumerate(idx):
            term = term * (circles[d][i] - center)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total / M ** dim


# ---------------------------------------------------------------------------
# Structured integrands for the two sum-to-integral lemmas
# ---------------------------------------------------------------------------

def _one(*_args) -> complex:
    return 1.0 + 0j


def exp_pole(x):
    """1 / (1 - e^{-x}): the pole factor of every contour route (residue 1 at 0)."""
    return 1.0 / (1.0 - np.exp(-x))


def exp_sum(c: complex, zs: Sequence):
    """exp(c * sum(zs)) as a product of one factor per variable, so that
    on broadcast grids no full-size temporary exists besides the result."""
    return math.prod(np.exp(c * z) for z in zs)


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
        return complex(self.times(1.0 + 0j, a, b))

    def times(self, out, a: Sequence, b: Sequence):
        """out * G(a; b); an array `out` of the full grid shape is scaled in place."""
        out *= self.regular(tuple(a), tuple(b))
        for ai in a:
            for bj in b:
                out *= self.pole(ai - bj)
        return out


@dataclass(frozen=True)
class SymmetricKernel:
    """G(a) = F(a) * prod over pairs f(a_i + a_j), diagonal optional."""

    pole: Callable[[complex], complex]
    regular: Callable = field(default=_one)
    include_diagonal: bool = True

    def __call__(self, a: Sequence[complex]) -> complex:
        return complex(self.times(1.0 + 0j, a))

    def times(self, out, a: Sequence):
        """out * G(a); an array `out` of the full grid shape is scaled in place."""
        out *= self.regular(tuple(a))
        for i, j in index_pairs(len(a), self.include_diagonal):
            out *= self.pole(a[i] + a[j])
        return out


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
    vectorized=True).  Full-grid products are formed in place, the
    constant and denominators one variable at a time.
    """
    u = [complex(x) for x in u]
    n = len(u)
    const = (-1) ** (n * (n - 1) // 2) / (math.factorial(m) * math.factorial(n - m))

    def integrand(*z):
        val = vandermonde(z)
        val *= val
        val = kernel.times(val, z[:m], z[m:])
        for d, zd in enumerate(z):
            val *= (const if d == 0 else 1.0) / math.prod(zd - p for p in u)
        return val

    return integrand


def sym_lemma_integrand(kernel: SymmetricKernel, alphas: Sequence[complex], variant: str):
    """Vectorized integrand of the sign-vector lemma's k-fold side, constant included.

    (-1)^{k(k-1)/2} 2^k / k! * G(z) Delta(z^2)^2 * numerator
    / prod_{i,j}(z_i - alpha_j)(z_i + alpha_j), numerator prod z_j ("plain")
    or prod alpha_j ("signed"), for a contour enclosing +-alpha.
    """
    if variant not in ("plain", "signed"):
        raise ValueError("variant must be 'plain' or 'signed'")
    al = [complex(x) for x in alphas]
    k = len(al)
    const = (-1) ** (k * (k - 1) // 2) * 2 ** k / math.factorial(k)
    if variant == "signed":
        const *= math.prod(al)

    def integrand(*z):
        val = vandermonde([zd * zd for zd in z])
        val *= val
        val = kernel.times(val, z)
        for d, zd in enumerate(z):
            top = zd if variant == "plain" else 1.0
            val *= (const if d == 0 else 1.0) * top / math.prod((zd - a) * (zd + a) for a in al)
        return val

    return integrand


def lemma_unitary_check(kernel: BipartiteKernel, u: Sequence[complex], m: int,
                        cfg: ContourConfig | None = None) -> LemmaCheckResult:
    """Block-ordered permutation sum of G vs the n-fold contour integral.

    lhs = sum over block-increasing sigma of G(u_left; u_right);
    rhs = (-1)^{n(n-1)/2} / (m! (n-m)!) * (2 pi i)^{-n} * contour integral
    of G(z_1..z_m; z_{m+1}..z_n) Delta(z)^2 / prod_{i,j}(z_i - u_j).
    """
    assert_unit_residue(kernel.pole)
    u = [complex(x) for x in u]
    lhs = 0j
    for split in enumerate_split_permutations(len(u), m):
        lhs += kernel(tuple(u[i - 1] for i in split.left), tuple(u[i - 1] for i in split.right))
    rhs = circular_integral(len(u), unitary_lemma_integrand(kernel, u, m), cfg,
                            enclosed_points=u, vectorized=True)
    return LemmaCheckResult(lhs, rhs)


def lemma_sym_check(kernel: SymmetricKernel, alphas: Sequence[complex], variant: str,
                    cfg: ContourConfig | None = None) -> LemmaCheckResult:
    """Sign-vector sum of G vs the k-fold contour integral enclosing +-alpha.

    variant "plain":  lhs = sum_eps G(eps * alpha), integral numerator prod z_j;
    variant "signed": lhs = sum_eps (prod eps) G(eps * alpha), numerator prod alpha_j.
    """
    integrand = sym_lemma_integrand(kernel, alphas, variant)
    assert_unit_residue(kernel.pole)
    al = [complex(x) for x in alphas]
    lhs = 0j
    for eps in sign_vectors(len(al)):
        weight = math.prod(eps) if variant == "signed" else 1
        lhs += weight * kernel(tuple(e * a for e, a in zip(eps, al)))
    rhs = circular_integral(len(al), integrand, cfg, enclosed_points=al + [-a for a in al],
                            vectorized=True)
    return LemmaCheckResult(lhs, rhs)
