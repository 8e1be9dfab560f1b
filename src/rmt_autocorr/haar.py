"""Direct Haar-measure machinery for the four compact group families.

Two independent ways to average over a group, used as oracles for the
closed-form routes:

* deterministic tensor quadrature against the explicit Weyl eigenvalue
  densities (exact for the trigonometric-polynomial integrands in scope,
  feasible for small matrix size), and
* Monte Carlo over eigenangles: U(N) angles are those of Haar matrices
  (QR with phase correction); the self-dual families draw theirs from the
  Killip-Nenciu Jacobi model (one n x n symmetric eigensolve per sample,
  no group element is built).

Each self-dual family's eigenangle law is written once, as the Jacobi
exponent of `_JACOBI_A` in the coordinate x = 2 cos(theta), where the Weyl
density is a real polynomial (Keating-Snaith, CMP 214, 2000); the
quadrature density and the Jacobi sampler both read that table.

The Haar matrix samplers (QR with sign correction for O(2N), a
symplectic-structure-preserving Gram-Schmidt for USp(2N)) and
`eigenangles_of` stay as the reference the Jacobi model is tested against.

Also hosts per-matrix characteristic-polynomial evaluation and the
functional-equation residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DimensionCap
from .symcore import vandermonde

TWO_PI = 2.0 * np.pi

UNITARY = "unitary"
SYMPLECTIC = "symplectic"
SO_EVEN = "so"
O_MINUS = "ominus"

_ALIASES = {
    "u": UNITARY, "un": UNITARY, "unitary": UNITARY,
    "usp": SYMPLECTIC, "sp": SYMPLECTIC, "symplectic": SYMPLECTIC,
    "so": SO_EVEN, "so_even": SO_EVEN, "specialorthogonaleven": SO_EVEN,
    "ominus": O_MINUS, "o-": O_MINUS, "orthogonalminus": O_MINUS,
}

_SAMPLE_CHUNK = 4096

# Largest free-angle count of the tensor quadrature (M^d grid points).
DIM_CAP = 3


@dataclass(frozen=True)
class GroupSpec:
    """A compact group family with its size parameter N.

    The matrix dimension is N for the unitary family and 2N for the
    symplectic and orthogonal families.
    """

    family: str
    size: int

    def __post_init__(self) -> None:
        fam = _ALIASES.get(str(self.family).lower())
        if fam is None:
            raise ValueError(f"unknown group family {self.family!r}")
        object.__setattr__(self, "family", fam)
        if self.size < 1:
            raise ValueError("size parameter must be >= 1")

    @property
    def matrix_dim(self) -> int:
        return self.size if self.family == UNITARY else 2 * self.size

    @property
    def free_angles(self) -> int:
        return self.size - 1 if self.family == O_MINUS else self.size


def group(family: str, size: int) -> GroupSpec:
    return GroupSpec(family, size)


# ---------------------------------------------------------------------------
# Eigenangle laws
# ---------------------------------------------------------------------------

# Jacobi endpoint exponent a of each self-dual family: in x = 2 cos(theta)
# its n = free_angles eigenangles have density prop. to
# Delta(x)^2 prod (4 - x^2)^a on [-2, 2]^n.  Read by the Weyl density and
# by the Jacobi-model sampler.  O^-(2N) has the USp(2N - 2) law.
_JACOBI_A = {SYMPLECTIC: 0.5, SO_EVEN: -0.5, O_MINUS: 0.5}


def weyl_density(spec: GroupSpec, T: np.ndarray) -> np.ndarray:
    """Weyl eigenangle density at the (P, d) angle array T, mass 1 on [0, 2 pi)^d.

    U(N): |Delta(e^{i theta})|^2 / (N! (2 pi)^N).  Self-dual families:
    2^{1/2 - a} Delta(2 cos theta)^2 prod (2 sin theta)^{2a + 1} / (n! (4 pi)^n),
    the law of `_JACOBI_A` carried over to theta.
    """
    n = T.shape[1]
    if spec.family == UNITARY:
        return np.abs(vandermonde(list(np.exp(1j * T).T))) ** 2 / (math.factorial(n) * TWO_PI ** n)
    a = _JACOBI_A[spec.family]
    const = 2.0 ** (0.5 - a) / (math.factorial(n) * (2 * TWO_PI) ** n)
    return (const * vandermonde(list(2 * np.cos(T).T)).real ** 2
            * np.prod((2 * np.sin(T)) ** (2 * a + 1), axis=1))


# ---------------------------------------------------------------------------
# Characteristic polynomials and functional equations
# ---------------------------------------------------------------------------

def char_poly_eval(spec: GroupSpec, angles: np.ndarray, s: complex):
    """Lambda_M(s) = det(I - M s) from the free eigenangles.

    `angles` has shape (d,) or (B, d); returns a scalar or a (B,) array.
    The forced +-1 eigenvalues of the determinant -1 orthogonal coset
    contribute the (1 - s)(1 + s) factor.
    """
    T = np.atleast_2d(np.asarray(angles, dtype=float))
    single = np.asarray(angles).ndim == 1
    if T.shape[1] != spec.free_angles:
        if not (spec.free_angles == 0 and T.size == 0):
            raise ValueError("angle count does not match the group")
    if spec.family == UNITARY:
        out = np.prod(1 - np.exp(1j * T) * s, axis=1)
    else:
        out = np.prod(1 + s * s - 2 * s * np.cos(T), axis=1)
        if spec.family == O_MINUS:
            out = out * (1 - s) * (1 + s)
    return out[0] if single else out


def char_poly_dagger(spec: GroupSpec, angles: np.ndarray, s: complex):
    """Lambda_{M^dagger}(s): the characteristic polynomial of the adjoint."""
    return np.conj(char_poly_eval(spec, angles, np.conj(complex(s))))


def functional_equation_residual(spec: GroupSpec, angles: np.ndarray, s: complex) -> float:
    """|Lambda_M(s) - RHS(s)| for the family's functional equation.

    Unitary:      RHS = (-1)^N det(M) s^N Lambda_{M^dagger}(1/s)
    USp, SO:      RHS = s^{2N} conj(Lambda_M(1/conj(s)))
    O^-:          RHS = -s^{2N} conj(Lambda_M(1/conj(s)))
    """
    s = complex(s)
    if s == 0:
        raise ValueError("functional equation requires s != 0")
    N = spec.size
    lhs = complex(char_poly_eval(spec, angles, s))
    if spec.family == UNITARY:
        det_m = complex(np.prod(np.exp(1j * np.asarray(angles, dtype=float))))
        rhs = (-1) ** N * det_m * s ** N * complex(char_poly_dagger(spec, angles, 1 / s))
    else:
        reflected = complex(char_poly_eval(spec, angles, 1 / np.conj(s)))
        rhs = s ** (2 * N) * np.conj(reflected)
        if spec.family == O_MINUS:
            rhs = -rhs
    return abs(lhs - rhs)


def znorm_residual(spec: GroupSpec, angles: np.ndarray, s: complex) -> float:
    """Residual of the unit-circle-symmetrized functional equation.

    With Z(s) = s^{-N} Lambda(s) (USp, SO) the relation is
    Z(s) = conj(Z(1/conj(s))); with Z(s) = -s^{-N} Lambda(s) (O^-) it is
    Z(s) = -conj(Z(1/conj(s))).
    """
    if spec.family == UNITARY:
        raise ValueError("Z-normalization applies to the self-dual families only")
    s = complex(s)
    if s == 0:
        raise ValueError("s must be nonzero")
    N = spec.size
    sign = -1.0 if spec.family == O_MINUS else 1.0
    z_here = sign * s ** (-N) * complex(char_poly_eval(spec, angles, s))
    sr = 1 / np.conj(s)
    z_there = sign * sr ** (-N) * complex(char_poly_eval(spec, angles, sr))
    return abs(z_here - sign * np.conj(z_there))


# ---------------------------------------------------------------------------
# Deterministic Weyl quadrature
# ---------------------------------------------------------------------------

def quadrature_average(spec: GroupSpec, integrand: Callable[[np.ndarray], np.ndarray],
                       nodes_per_dim: int = 64) -> complex:
    """Average `integrand` against the Weyl density by tensor trapezoid.

    The periodic trapezoid rule is exact for trigonometric polynomials of
    per-angle degree < nodes_per_dim, which covers every integrand in this
    package, so this is an exact oracle rather than an approximation.

    `integrand` must accept a (P, d) angle array and return (P,) values.
    Raises DimensionCap when the free-angle count exceeds DIM_CAP.
    """
    d = spec.free_angles
    if d > DIM_CAP:
        raise DimensionCap(f"{d} free angles exceeds the cap of {DIM_CAP}")
    if d == 0:
        return complex(np.asarray(integrand(np.zeros((1, 0))))[0])
    M = int(nodes_per_dim)
    if M < 4:
        raise ValueError("nodes_per_dim too small")
    theta = TWO_PI * np.arange(M) / M
    grids = np.meshgrid(*([theta] * d), indexing="ij")
    T = np.stack([g.ravel() for g in grids], axis=-1)
    vals = np.asarray(integrand(T))
    return complex(np.sum(vals * weyl_density(spec, T)) * (TWO_PI / M) ** d)


def default_nodes(spec: GroupSpec, shift_count: int) -> int:
    """Node-count rule: 4 * (2N + max e^{i th}-degree of the integrand)."""
    return max(16, 4 * (2 * spec.size + shift_count))


def autocorr_integrand(spec: GroupSpec, shifts: Sequence[complex], m: int = 0):
    """Vectorized integrand of the family's defining Haar average.

    Unitary uses the two-block form: the first m shifts pair with
    Lambda_{M^dagger}(w), the rest enter through prod_p (w - e^{i th_p})
    (equal to w^N Lambda_M(1/w), but total at w = 0).  The other families
    take plain products of Lambda_M(w_j); the determinant -1 coset carries
    its defining (-1)^k.
    """
    w = [complex(x) for x in shifts]
    fam = spec.family
    if fam == UNITARY:
        if not 0 <= m <= len(w):
            raise ValueError("need 0 <= m <= len(shifts)")

        def integrand(T: np.ndarray) -> np.ndarray:
            E = np.exp(1j * T)
            out = np.ones(T.shape[0], dtype=complex)
            for r in range(m):
                out *= np.prod(1 - np.conj(E) * w[r], axis=1)
            for j in range(m, len(w)):
                out *= np.prod(w[j] - E, axis=1)
            return out

        return integrand

    def integrand(T: np.ndarray) -> np.ndarray:
        out = np.ones(T.shape[0], dtype=complex)
        for wj in w:
            out = out * char_poly_eval(spec, T, wj)
        if fam == O_MINUS:
            out = out * (-1) ** len(w)
        return out

    return integrand


def weyl_autocorrelation(spec: GroupSpec, shifts: Sequence[complex], m: int = 0,
                         nodes_per_dim: int | None = None) -> complex:
    """Brute-force quadrature value of the family's autocorrelation."""
    if nodes_per_dim is None:
        nodes_per_dim = default_nodes(spec, len(shifts))
    return quadrature_average(spec, autocorr_integrand(spec, shifts, m),
                              nodes_per_dim=nodes_per_dim)


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def _complex_gaussian(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _haar_unitary_batch(rng: np.random.Generator, B: int, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_complex_gaussian(rng, (B, n, n)))
    d = np.einsum("bii->bi", r)
    return q * (d / np.abs(d))[:, None, :]


def _haar_orthogonal_batch(rng: np.random.Generator, B: int, n: int,
                           det_sign: int | None) -> np.ndarray:
    """Haar on O(n); with det_sign = +-1, Haar on that component.

    Wrong-component samples are moved over by a fixed first-two-row swap
    (left multiplication by a determinant -1 permutation preserves Haar).
    """
    q, r = np.linalg.qr(rng.standard_normal((B, n, n)))
    d = np.einsum("bii->bi", r)
    q = q * np.sign(d)[:, None, :]
    if det_sign is not None:
        wrong = np.sign(np.linalg.det(q)) != det_sign
        q[wrong] = q[wrong][:, [1, 0] + list(range(2, n)), :]
    return q


def _j_conjugate(v: np.ndarray, N: int) -> np.ndarray:
    """-J conj(v) for J = [[0, I], [-I, 0]]: the symplectic partner of v."""
    return np.concatenate([-np.conj(v[:, N:]), np.conj(v[:, :N])], axis=1)


def _haar_symplectic_batch(rng: np.random.Generator, B: int, N: int) -> np.ndarray:
    """Haar on USp(2N) by structure-preserving Gram-Schmidt.

    Each Gaussian vector is orthogonalized against all accepted columns and
    their partners -J conj(u); the frame (u_1..u_N, -J conj(u_1..u_N))
    is unitary and satisfies S^T J S = J.  The construction commutes with
    left multiplication by USp(2N), so the law is Haar.
    """
    dim = 2 * N
    basis: list[np.ndarray] = []
    for _ in range(N):
        v = _complex_gaussian(rng, (B, dim))
        for _pass in range(2):  # second pass tightens orthogonality
            for u in basis:
                v = v - np.einsum("bi,bi->b", np.conj(u), v)[:, None] * u
        v = v / np.linalg.norm(v, axis=1, keepdims=True)
        basis.append(v)
        basis.append(_j_conjugate(v, N))
    S = np.empty((B, dim, dim), dtype=complex)
    for i in range(N):
        S[:, :, i] = basis[2 * i]
        S[:, :, N + i] = basis[2 * i + 1]
    return S


def sample_matrix_batch(spec: GroupSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    if spec.family == UNITARY:
        return _haar_unitary_batch(rng, count, spec.size)
    if spec.family == SYMPLECTIC:
        return _haar_symplectic_batch(rng, count, spec.size)
    det_sign = 1 if spec.family == SO_EVEN else -1
    return _haar_orthogonal_batch(rng, count, 2 * spec.size, det_sign)


def eigenangles_of(spec: GroupSpec, mats: np.ndarray) -> np.ndarray:
    """Free eigenangles of a batch of group elements, each in [0, 2 pi).

    Conjugate-paired spectra are reduced to one angle per pair; the forced
    +1 and -1 eigenvalues of the determinant -1 coset are dropped.
    """
    ev = np.linalg.eigvals(mats)
    if spec.family == UNITARY:
        return np.sort(np.mod(np.angle(ev), TWO_PI), axis=1)
    a = np.sort(np.abs(np.angle(ev)), axis=1)
    if spec.family == O_MINUS:
        a = a[:, 1:-1]  # drop the angles of the forced +-1 eigenvalues
    return (a[:, 0::2] + a[:, 1::2]) / 2.0


def _jacobi_angles(rng: np.random.Generator, B: int, n: int, a: float) -> np.ndarray:
    """B ascending angle vectors in [0, pi] of the Jacobi ensemble.

    Killip-Nenciu (IMRN 2004), Theorem 2 with beta = 2 and a = b: the
    eigenvalues x of the n x n Jacobi matrix built from independent Beta
    Verblunsky coefficients alpha_0..alpha_{2n-2} (alpha_{-1} =
    alpha_{2n-1} = -1) have density prop. to Delta(x)^2 prod (4 - x^2)^a
    on [-2, 2], so theta = arccos(x / 2) has the Weyl law of USp(2n)
    for a = 1/2 and of SO(2n) for a = -1/2.
    """
    if n == 0:
        return np.empty((B, 0))
    k = np.arange(2 * n - 1)
    even = k % 2 == 0
    p = np.where(even, (2 * n - k - 2) / 2 + a + 1, (2 * n - k - 3) / 2 + 2 * a + 2)
    q = np.where(even, (2 * n - k - 2) / 2 + a + 1, (2 * n - k - 1) / 2)
    alpha = np.full((B, 2 * n + 1), -1.0)  # alpha[:, i + 1] is alpha_i
    alpha[:, 1:-1] = 1 - 2 * rng.beta(p, q, size=(B, 2 * n - 1))
    odd = alpha[:, 0::2]   # alpha_{-1}, alpha_1, ..., alpha_{2n-1}
    ev = alpha[:, 1::2]    # alpha_0, alpha_2, ..., alpha_{2n-2}
    # alpha_{2j-2}; at j = 0 it is multiplied by 1 + alpha_{-1} = 0
    ev_prev = np.concatenate([np.zeros((B, 1)), ev[:, :-1]], axis=1)
    jac = np.zeros((B, n, n))
    idx = np.arange(n)
    jac[:, idx, idx] = (1 - odd[:, :-1]) * ev - (1 + odd[:, :-1]) * ev_prev
    off = np.sqrt((1 - odd[:, :-2]) * (1 - ev[:, :-1] ** 2) * (1 + odd[:, 1:-1]))
    jac[:, idx[1:], idx[:-1]] = off
    jac[:, idx[:-1], idx[1:]] = off
    x = np.linalg.eigvalsh(jac)[:, ::-1]
    return np.arccos(np.clip(x / 2, -1.0, 1.0))


def _eigenangle_chunks(spec: GroupSpec, rng_seed: int, count: int) -> Iterator[np.ndarray]:
    """`count` eigenangle vectors from the seeded stream, in sampling chunks.

    U(N) angles come from Haar matrices; the self-dual families draw theirs
    from the Jacobi model without building a group element.  The free
    angles of O^-(2N) follow the USp(2N - 2) law.
    """
    rng = np.random.default_rng(rng_seed)
    remaining = count
    while remaining > 0:
        B = min(_SAMPLE_CHUNK, remaining)
        if spec.family == UNITARY:
            yield eigenangles_of(spec, sample_matrix_batch(spec, rng, B))
        else:
            yield _jacobi_angles(rng, B, spec.free_angles, _JACOBI_A[spec.family])
        remaining -= B


def sample_eigenangles(spec: GroupSpec, rng_seed: int, count: int) -> Iterator[np.ndarray]:
    """Stream of `count` eigenangle vectors, reproducible from the seed."""
    for angles in _eigenangle_chunks(spec, rng_seed, count):
        yield from angles


def sample_eigenangle_batch(spec: GroupSpec, rng_seed: int, count: int) -> np.ndarray:
    """All `count` eigenangle vectors at once (same stream as the generator)."""
    return np.concatenate(list(_eigenangle_chunks(spec, rng_seed, count)), axis=0)


def monte_carlo_average(spec: GroupSpec, integrand: Callable[[np.ndarray], np.ndarray],
                        rng_seed: int, count: int) -> tuple[complex, float]:
    """Sample mean and standard error of a vectorized angle functional."""
    if count < 2:
        raise ValueError("need at least two samples for a standard error")
    angles = sample_eigenangle_batch(spec, rng_seed, count)
    vals = np.asarray(integrand(angles))
    mean = complex(vals.mean())
    spread = float(np.sum(np.abs(vals - mean) ** 2) / (count - 1))
    return mean, math.sqrt(spread / count)
