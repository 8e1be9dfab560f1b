"""Direct Haar-measure machinery for the four compact group families.

Two independent ways to average over a group, used as oracles for the
closed-form routes:

* deterministic tensor quadrature against the explicit Weyl eigenvalue
  densities (exact for the trigonometric-polynomial integrands in scope,
  feasible for small matrix size), and
* Monte Carlo.  The moments (`autocorr_integrand`) need only
  characteristic-polynomial values, which come from random coefficients
  of Killip-Nenciu (IMRN 2004) with no group matrix and no eigensolve:
  one Szego recursion runs over Verblunsky coefficients and yields
  prod (w - e^{i theta}) and prod (1 - e^{-i theta} w) directly.  For U(N)
  the coefficients are independent and complex; for the self-dual
  families they are 2n real ones (Theorem 2), whose polynomial is
  prod (1 + w^2 - 2 w cos theta).  The coefficients are drawn into one
  contiguous row of samples per coefficient, and the recursion keeps one
  row per shift, so its array operations run over the samples.  Any
  other angle functional gets eigenangles from the same coefficients:
  U(N) those of their CMV matrix
  (Cantero-Moral-Velazquez, LAA 362, 2003), the self-dual families those
  of the Jacobi matrix the real coefficients define (one eigensolve per
  sample either way).  Every family has one random model.

Each self-dual family's eigenangle law is written once, as the Jacobi
exponent of `_JACOBI_A` in the coordinate x = 2 cos(theta), where the Weyl
density is a real polynomial (Keating-Snaith, CMP 214, 2000); the
quadrature density and the Jacobi sampler both read that table.

`eigenangles_of` reads the free eigenangles of any family's group
elements.  The Haar-matrix samplers the coefficient models are tested
against (QR of Gaussian matrices, a symplectic Gram-Schmidt) live in
`tests/haar_reference.py`.

Also hosts per-matrix characteristic-polynomial evaluation and the
functional-equation residuals.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterator, Sequence

import numpy as np

from .contour import trapezoid_sum
from .errors import require_count
from .routes import O_MINUS, SO_EVEN, SYMPLECTIC, UNITARY, GroupSpec
from .symcore import index_pairs

TWO_PI = 2.0 * np.pi

_SAMPLE_CHUNK = 4096


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


def _weyl_factors(spec: GroupSpec, thetas: list) -> list:
    """The Weyl density's factors at the broadcastable angle arrays `thetas`,
    one per free angle: its constant, one factor per angle, one per pair.

    U(N): 1 / (N! (2 pi)^N) and |e^{i theta_k} - e^{i theta_j}|^2.  Self-dual
    families: 2^{1/2 - a} / (n! (4 pi)^n), (2 sin theta)^{2a + 1} and
    (2 cos theta_k - 2 cos theta_j)^2, the law of `_JACOBI_A` carried over
    to theta.
    """
    n = len(thetas)
    pairs = index_pairs(n, False)
    if spec.family == UNITARY:
        e = [np.exp(1j * t) for t in thetas]
        return ([1.0 / (math.factorial(n) * TWO_PI ** n)]
                + [np.abs(e[k] - e[j]) ** 2 for j, k in pairs])
    a = _JACOBI_A[spec.family]
    x = [2 * np.cos(t) for t in thetas]
    return ([2.0 ** (0.5 - a) / (math.factorial(n) * (2 * TWO_PI) ** n)]
            + [(2 * np.sin(t)) ** (2 * a + 1) for t in thetas]
            + [np.square(x[k] - x[j]) for j, k in pairs])


def weyl_density(spec: GroupSpec, T: np.ndarray) -> np.ndarray:
    """Weyl eigenangle density at the (P, d) angle array T, mass 1 on
    [0, 2 pi)^d: the product of the `_weyl_factors` of its columns."""
    return math.prod(_weyl_factors(spec, list(T.T)), start=np.ones(T.shape[0]))


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

    `integrand` must accept a (P, d) angle array and return (P,) values; it
    is called once at all M^d grid points.  An `autocorr_integrand` of
    `spec` is not called: it is a product of one factor per angle, and the
    density one of per-angle and pair factors, so `trapezoid_sum` contracts
    M-vectors and M x M tables (at d = 3 with one matrix product) and no
    M^d array is formed.  Raises DimensionCap when the free-angle count
    exceeds `contour.DIM_CAP`, and ValueError for a node count not an integer >= 4.
    """
    d = spec.free_angles
    M = require_count(nodes_per_dim, 4, "nodes_per_dim")
    moment = _moment_of(spec, integrand)

    def factors(*thetas: np.ndarray) -> list:
        weyl = _weyl_factors(spec, list(thetas))
        if moment is not None:
            return weyl + _autocorr_factors(*moment, list(thetas))
        T = np.empty((M ** d, d))
        for a, t in enumerate(thetas):
            T[:, a] = np.broadcast_to(t, (M,) * d).ravel()
        return weyl + [np.asarray(integrand(T)).reshape((M,) * d)]

    theta = TWO_PI * np.arange(M) / M
    return trapezoid_sum([theta] * d, [np.ones(M)] * d, factors) * (TWO_PI / M) ** d


def default_nodes(spec: GroupSpec, shift_count: int) -> int:
    """Node-count rule: 4 * (2N + max e^{i th}-degree of the integrand)."""
    return max(16, 4 * (2 * spec.size + shift_count))


def _autocorr_factors(spec: GroupSpec, w: tuple, m: int, thetas: list) -> list:
    """The factors of `autocorr_integrand` at the broadcastable angle arrays
    `thetas`, one per free angle: a constant and one factor per angle."""
    if spec.family == UNITARY:
        def angle(t):
            e = np.exp(1j * t)
            return (math.prod(1 - np.conj(e) * wr for wr in w[:m])
                    * math.prod(wj - e for wj in w[m:]))
    else:
        def angle(t):
            return math.prod(1 + wj * wj - 2 * wj * np.cos(t) for wj in w)
    const = math.prod(-(1 - wj) * (1 + wj) for wj in w) if spec.family == O_MINUS else 1.0
    return [const] + [angle(t) for t in thetas]


def autocorr_integrand(spec: GroupSpec, shifts: Sequence[complex], m: int = 0):
    """Vectorized integrand of the family's defining Haar average.

    A product of one factor per eigenangle.  Unitary uses the two-block
    form: the first m shifts pair with Lambda_{M^dagger}(w), the rest enter
    through prod_p (w - e^{i th_p}) (equal to w^N Lambda_M(1/w), but total
    at w = 0).  The other families take plain products of Lambda_M(w_j);
    the determinant -1 coset carries its defining (-1)^k.

    The callable carries `autocorr = (spec, shifts, m)`, by which
    `monte_carlo_average` samples its values without eigenangles and
    `quadrature_average` contracts its factors without a grid.
    """
    w = tuple(complex(x) for x in shifts)
    m = require_count(m, 0, "m")
    if spec.family == UNITARY and m > len(w):
        raise ValueError("need 0 <= m <= len(shifts)")

    def integrand(T: np.ndarray) -> np.ndarray:
        return math.prod(_autocorr_factors(spec, w, m, list(T.T)),
                         start=np.ones(T.shape[0], dtype=complex))

    integrand.autocorr = (spec, w, m)
    return integrand


def _moment_of(spec: GroupSpec, integrand) -> tuple | None:
    """The `autocorr` tag (spec, shifts, m) of an `autocorr_integrand` of
    `spec`, else None."""
    moment = getattr(integrand, "autocorr", None)
    return moment if moment is not None and moment[0] == spec else None


def weyl_autocorrelation(spec: GroupSpec, shifts: Sequence[complex], m: int = 0,
                         nodes_per_dim: int | None = None) -> complex:
    """Brute-force quadrature value of the family's autocorrelation.

    Per angle, the density times the integrand has frequencies up to
    2N + k, so nodes_per_dim <= 2N + k would alias: ValueError.
    """
    if nodes_per_dim is None:
        nodes_per_dim = default_nodes(spec, len(shifts))
    if nodes_per_dim <= 2 * spec.size + len(shifts):
        raise ValueError(f"nodes_per_dim must exceed 2N + k = {2 * spec.size + len(shifts)}")
    return quadrature_average(spec, autocorr_integrand(spec, shifts, m),
                              nodes_per_dim=nodes_per_dim)


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def sample_matrix_batch(spec: GroupSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` CMV matrices C = L M of U(N) from `_verblunsky_unitary` rows.

    Cantero-Moral-Velazquez (LAA 362, 2003): with
    Theta_t = [[conj(alpha_t), rho_t], [rho_t, -alpha_t]] on rows t, t + 1
    and rho_t = sqrt(1 - |alpha_t|^2), L = diag(Theta_0, Theta_2, ...) and
    M = diag(1, Theta_1, Theta_3, ...); alpha_{N-1} lies on the circle and
    closes its matrix with the 1 x 1 block conj(alpha_{N-1}).  The
    characteristic polynomial is the Phi_N of `_szego`, so the spectrum is
    that of a Haar U(N) matrix (Killip-Nenciu, IMRN 2004); the matrix
    itself is not Haar-distributed.  Raises ValueError for other families.
    """
    if spec.family != UNITARY:
        raise ValueError("the CMV sampler draws U(N) only")
    N = spec.size
    alpha = _verblunsky_unitary(rng, count, N)
    L = np.zeros((count, N, N), dtype=complex)
    M = np.zeros_like(L)
    M[:, 0, 0] = 1
    for t in range(N):
        block = L if t % 2 == 0 else M
        block[:, t, t] = np.conj(alpha[:, t])
        if t < N - 1:  # |alpha_{N-1}| = 1 may round 1 - |alpha|^2 below 0
            block[:, t, t + 1] = block[:, t + 1, t] = np.sqrt(1 - np.abs(alpha[:, t]) ** 2)
            block[:, t + 1, t + 1] = -alpha[:, t]
    return L @ M


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


def _jacobi_verblunsky(rng: np.random.Generator, B: int, n: int, a: float) -> np.ndarray:
    """B rows of real Verblunsky coefficients alpha_{-1}, alpha_0..alpha_{2n-1}
    of the Jacobi ensemble, shape (B, 2n + 1): the transpose of one
    contiguous row of B samples per coefficient, the layout `_szego` reads.

    Killip-Nenciu (IMRN 2004), Theorem 2 with beta = 2 and a = b:
    alpha_0..alpha_{2n-2} are independent Beta draws and
    alpha_{-1} = alpha_{2n-1} = -1.  The measure they define on the circle
    has its mass at e^{+-i theta} for the eigenvalues x = 2 cos(theta) of
    the Jacobi matrix of `_jacobi_angles`, whose density is prop. to
    Delta(x)^2 prod (4 - x^2)^a on [-2, 2]: the Weyl law of USp(2n) for
    a = 1/2 and of SO(2n) for a = -1/2.
    """
    alpha = np.empty((2 * n + 1, B))  # alpha[t + 1] is alpha_t
    alpha[0] = alpha[-1] = -1.0
    if n:
        k = np.arange(2 * n - 1)
        even = k % 2 == 0
        p = np.where(even, (2 * n - k - 2) / 2 + a + 1, (2 * n - k - 3) / 2 + 2 * a + 2)
        q = np.where(even, (2 * n - k - 2) / 2 + a + 1, (2 * n - k - 1) / 2)
        draws = rng.beta(p, q, size=(B, 2 * n - 1))
        draws *= -2
        draws += 1  # 1 - 2 Beta, bit for bit
        alpha[1:-1] = draws.T
    return alpha.T


def _jacobi_angles(alpha: np.ndarray) -> np.ndarray:
    """Ascending angles theta = arccos(x / 2) in [0, pi] of the eigenvalues x
    of the n x n Jacobi matrix of each `_jacobi_verblunsky` row.

    Its diagonal and squared off-diagonal come from the Geronimus relations.
    """
    odd = alpha[:, 0::2]   # alpha_{-1}, alpha_1, ..., alpha_{2n-1}
    ev = alpha[:, 1::2]    # alpha_0, alpha_2, ..., alpha_{2n-2}
    B, n = ev.shape
    # alpha_{2j-2}; at j = 0 it is multiplied by 1 + alpha_{-1} = 0
    ev_prev = np.concatenate([np.zeros((B, 1)), ev[:, :-1]], axis=1)
    diag = (1 - odd[:, :-1]) * ev - (1 + odd[:, :-1]) * ev_prev
    off2 = (1 - odd[:, :-2]) * (1 - ev[:, :-1] ** 2) * (1 + odd[:, 1:-1])
    jac = np.zeros((B, n, n))
    idx = np.arange(n)
    off = np.sqrt(off2)
    jac[:, idx, idx] = diag
    jac[:, idx[1:], idx[:-1]] = off
    jac[:, idx[:-1], idx[1:]] = off
    x = np.linalg.eigvalsh(jac)[:, ::-1]
    return np.arccos(np.clip(x / 2, -1.0, 1.0))


def _verblunsky_unitary(rng: np.random.Generator, B: int, N: int) -> np.ndarray:
    """B rows of Verblunsky coefficients alpha_0..alpha_{N-1} of CUE(N),
    shape (B, N): the transpose of one contiguous row of B samples per
    coefficient, the layout `_szego` reads.

    Killip-Nenciu (IMRN 2004), Theorem 1 with beta = 2: independent, with
    uniform phase, |alpha_t|^2 ~ Beta(1, N - t - 1) for t < N - 1 and
    alpha_{N-1} on the unit circle.  The zeros of the Phi_N they define
    are then the eigenvalues of a Haar U(N) matrix.
    """
    radius2 = rng.beta(1.0, N - 1.0 - np.arange(N - 1), size=(B, N - 1))
    theta = rng.uniform(0.0, TWO_PI, size=(B, N)).T
    alpha = np.empty((N, B), dtype=complex)  # alpha[t] is alpha_t
    np.cos(theta, out=alpha.real)  # e^{i theta} without the complex exp
    np.sin(theta, out=alpha.imag)
    alpha[:-1] *= np.sqrt(radius2.T)
    return alpha.T


def _szego(alpha: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phi_N(w) = prod (w - e^{i theta}) and Phi*_N(w) = prod (1 - e^{-i theta} w)
    of each coefficient column at each shift, both of shape (k, B).

    `alpha` has one contiguous row of B samples per coefficient, and Phi
    and Phi* one per shift, updated in place in buffers made once, so each
    step's array operations run their inner loops over the B samples.
    Szego recursion (Simon, OPUC, 2005, sec. 1.5) from Phi_0 = Phi*_0 = 1:
    Phi_{t+1} = w Phi_t - conj(alpha_t) Phi*_t,
    Phi*_{t+1} = Phi*_t - alpha_t w Phi_t.
    For the 2n real coefficients of `_jacobi_verblunsky` (alpha_{2n-1} = -1)
    the zeros come in pairs e^{+-i theta}, and
    Phi_{2n}(w) = Phi*_{2n}(w) = prod (1 + w^2 - 2 w cos theta).  For real
    coefficients at w = s = +-1, Phi*_t = s^t Phi_t, so each step multiplies
    by s - alpha_t s^t (1 - alpha_t, or -(1 + (-1)^t alpha_t)): these shifts
    take the product of the formed factors, since the recursion's
    s Phi_t - alpha_t Phi*_t cancels when alpha_t is near +-1.  No
    coefficient rows give Phi = 1.
    """
    phi = np.ones((len(w), alpha.shape[1]), dtype=complex)
    phi_star = phi.copy()
    w_phi = np.empty_like(phi)
    column = w[:, None]
    real = not np.iscomplexobj(alpha)
    for a, conj_a in zip(alpha, alpha if real else np.conj(alpha)):
        np.multiply(column, phi, out=w_phi)
        np.multiply(conj_a, phi_star, out=phi)
        np.subtract(w_phi, phi, out=phi)
        np.multiply(a, w_phi, out=w_phi)
        np.subtract(phi_star, w_phi, out=phi_star)
    if real:
        t = np.arange(len(alpha))[:, None]
        for j in np.flatnonzero((w == 1) | (w == -1)):
            s = w[j].real
            phi[j] = np.prod(s - alpha * s ** t, axis=0)
            phi_star[j] = s ** len(t) * phi[j]
    return phi, phi_star


def _sample_chunks(rng_seed: int, count: int,
                   draw: Callable[[np.random.Generator, int], np.ndarray]) -> Iterator[np.ndarray]:
    """draw(rng, B) over one seeded stream, for `count` samples in chunks."""
    rng = np.random.default_rng(rng_seed)
    for start in range(0, count, _SAMPLE_CHUNK):
        yield draw(rng, min(_SAMPLE_CHUNK, count - start))


def _eigenangle_chunks(spec: GroupSpec, rng_seed: int, count: int) -> Iterator[np.ndarray]:
    """`count` eigenangle vectors from the seeded stream, in sampling chunks.

    U(N) angles are those of the CMV matrix of the coefficients that
    `_autocorr_chunk` draws; the self-dual families draw theirs from the
    Jacobi model without building a group element.  The free
    angles of O^-(2N) follow the USp(2N - 2) law.
    """
    def draw(rng: np.random.Generator, B: int) -> np.ndarray:
        if spec.family == UNITARY:
            return eigenangles_of(spec, sample_matrix_batch(spec, rng, B))
        return _jacobi_angles(_jacobi_verblunsky(rng, B, spec.free_angles, _JACOBI_A[spec.family]))

    return _sample_chunks(rng_seed, count, draw)


def _autocorr_chunk(spec: GroupSpec, shifts: tuple, m: int, rng: np.random.Generator,
                    B: int) -> np.ndarray:
    """B values of `autocorr_integrand(spec, shifts, m)` at fresh Haar samples,
    from sampled coefficients instead of eigenangles: one Szego recursion
    over the Killip-Nenciu coefficients of every family.

    Every family reads the same stream as `_eigenangle_chunks`, so each
    value is the angle path's up to rounding.  The recursion reads the
    coefficients as rows, and the value is the product of the k rows of
    Phi* (the first m shifts) and Phi.  A value beyond the double range is
    inf or nan, without a warning: the caller's report refuses it.
    """
    w = np.asarray(shifts, dtype=complex)
    if spec.family == UNITARY:
        alpha = _verblunsky_unitary(rng, B, spec.size).T
    else:
        alpha = _jacobi_verblunsky(rng, B, spec.free_angles, _JACOBI_A[spec.family]).T[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        phi, phi_star = _szego(alpha, w)
        phi[:m] = phi_star[:m]
        vals = phi.prod(axis=0)
        if spec.family == O_MINUS:
            vals *= np.prod((1 - w) * (1 + w)) * (-1) ** len(w)
    return vals


def sample_eigenangles(spec: GroupSpec, rng_seed: int, count: int) -> Iterator[np.ndarray]:
    """Stream of `count` >= 1 eigenangle vectors, reproducible from the seed."""
    count = require_count(count, 1, "count")
    return itertools.chain.from_iterable(_eigenangle_chunks(spec, rng_seed, count))


def sample_eigenangle_batch(spec: GroupSpec, rng_seed: int, count: int) -> np.ndarray:
    """All `count` >= 1 eigenangle vectors at once (same stream as the generator)."""
    count = require_count(count, 1, "count")
    return np.concatenate(list(_eigenangle_chunks(spec, rng_seed, count)), axis=0)


def monte_carlo_average(spec: GroupSpec, integrand: Callable[[np.ndarray], np.ndarray],
                        rng_seed: int, count: int) -> tuple[complex, float]:
    """Sample mean and standard error of a vectorized angle functional.

    An `autocorr_integrand` of `spec` is not evaluated on angles: its
    values come from sampled coefficients (`_autocorr_chunk`), with no
    group matrix and no eigensolve.  Other functionals get the angles of
    `sample_eigenangle_batch`.
    """
    count = require_count(count, 2, "count")  # two samples for a standard error
    moment = _moment_of(spec, integrand)
    if moment is not None:
        vals = np.concatenate(list(_sample_chunks(rng_seed, count,
                                                  functools.partial(_autocorr_chunk, *moment))))
    else:
        vals = np.asarray(integrand(sample_eigenangle_batch(spec, rng_seed, count)))
    if np.all(vals == vals[0]):  # a constant, whose rounded mean and spread are noise
        return complex(vals[0]), 0.0
    with np.errstate(over="ignore"):
        mean = complex(vals.mean())
    if not np.isfinite(mean) and np.isfinite(scale := np.abs(vals).max()):
        mean = complex((vals / scale).mean()) * float(scale)  # finite values, sum past the range
    dev = np.abs(vals - mean)
    with np.errstate(over="ignore"):
        squares = np.sum(dev ** 2)
    if np.isfinite(squares) or not np.isfinite(scale := dev.max()):
        return mean, math.sqrt(float(squares / (count - 1)) / count)
    # finite deviations whose squares pass the double range: scale them first
    return mean, float(scale * math.sqrt(np.sum((dev / scale) ** 2) / (count - 1) / count))
