"""Direct Haar-measure machinery for the four compact group families.

Two independent ways to average over a group, used as oracles for the
closed-form routes:

* the periodic trapezoid rule against the explicit Weyl eigenvalue
  densities, exact for the trigonometric-polynomial integrands in scope.
  The moments (`autocorr_integrand`) take it as one Heine determinant of
  their folded Fourier coefficients, at every matrix size up to
  `HEINE_CAP`; above 2N + k nodes nothing folds, so `weyl_autocorrelation`
  takes no node count.  Any other integrand is summed on the tensor grid,
  up to `contour.DIM_CAP` free angles; and
* Monte Carlo.  The moments (`autocorr_integrand`) need only
  characteristic-polynomial values, which come from random coefficients
  of Killip-Nenciu (IMRN 2004) with no group matrix and no eigensolve:
  one Szego recursion runs over Verblunsky coefficients and yields
  prod (w - e^{i theta}) and prod (1 - e^{-i theta} w) directly.  For U(N)
  the coefficients are independent and complex; for the self-dual
  families they are 2n real ones (Theorem 2), whose polynomial is
  prod (1 + w^2 - 2 w cos theta).  A family picks its row generator in
  `_coefficient_rows` (`_unitary_rows`, `_jacobi_rows`), which draws each
  coefficient's row of samples into one reused buffer, by exact closed
  forms with scalar parameters (a circle point from one tangent, inverse
  CDFs of Beta(1, b) and Beta(b, 1)).  The moments take each row into the
  recursion as soon as it is drawn, one step per shift on that shift's own
  rows of Phi and Phi*, so a chunk's memory does not grow with N.  Any
  other angle functional gets eigenangles from the same rows, stacked
  (`_coefficients`): U(N) those of their CMV matrix (Cantero-Moral-Velazquez,
  LAA 362, 2003), the self-dual families those of the Jacobi matrix the
  real coefficients define, built `_SOLVE_CHUNK` samples at a time.  Every
  family has one random model, drawn in chunks by `_sampled`.

Each self-dual family's eigenangle law is written once, as the Jacobi
exponent of `_JACOBI_A` in the coordinate x = 2 cos(theta), where the Weyl
density is a real polynomial (Keating-Snaith, CMP 214, 2000); the
quadrature density, the Heine determinant and the Jacobi sampler all read
that table.  The forced eigenvalues +1 and -1 of O^-(2N) are written once
too, as its row of `routes.FORCED_EIGENVALUES`, which the characteristic
polynomial, det M, the coset constant and `eigenangles_of` read.

`eigenangles_of` reads the free eigenangles of any family's group
elements.  The Haar-matrix samplers the coefficient models are tested
against (QR of Gaussian matrices, a symplectic Gram-Schmidt) live in
`tests/haar_reference.py`.

Also hosts characteristic polynomials from the free angles and the residuals
of the one functional equation of every family, D its matrix size:
Lambda_M(s) = (-s)^D det M Lambda_{M^dagger}(1/s).
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Callable, Iterator, Sequence

import numpy as np

from .contour import trapezoid_sum
from .errors import DimensionCap, PrecisionLoss, require_count
from .precision import DoubleOps, require_finite
from .routes import FORCED_EIGENVALUES, O_MINUS, SO_EVEN, SYMPLECTIC, UNITARY, GroupSpec
from .symcore import index_pairs

TWO_PI = 2.0 * np.pi
HALF_PI = np.pi / 2

_SAMPLE_CHUNK = 4096
# samples whose dense matrices the angle path builds and solves at once
_SOLVE_CHUNK = 256

# Largest free-angle count of the Heine determinant: its n x n matrix is
# factored twice (the determinant and the condition number)
HEINE_CAP = 1024
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def group(family: str, size: int) -> GroupSpec:
    return GroupSpec(family, size)


# ---------------------------------------------------------------------------
# Eigenangle laws
# ---------------------------------------------------------------------------

# Jacobi endpoint exponent a of each self-dual family: in x = 2 cos(theta)
# its n = free_angles eigenangles have density prop. to
# Delta(x)^2 prod (4 - x^2)^a on [-2, 2]^n.  Read by the Weyl density, the
# Heine determinant and the Jacobi-model sampler.  O^-(2N) has the
# USp(2N - 2) law.
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
    """Weyl eigenangle density at the (P, d) angle array T, d the free-angle
    count (else ValueError), mass 1 on [0, 2 pi)^d: the product of the
    `_weyl_factors` of its columns."""
    if T.shape[1] != spec.free_angles:
        raise ValueError("angle count does not match the group")
    return math.prod(_weyl_factors(spec, list(T.T)), start=np.ones(T.shape[0]))


# ---------------------------------------------------------------------------
# Characteristic polynomials and functional equations
# ---------------------------------------------------------------------------

def char_poly_eval(spec: GroupSpec, angles: np.ndarray, s: complex):
    """Lambda_M(s) = det(I - M s) from the free eigenangles and the forced eigenvalues.

    `angles` has shape (d,) or (B, d); returns a scalar or a (B,) array.
    """
    T = np.atleast_2d(np.asarray(angles, dtype=float))
    single = np.asarray(angles).ndim == 1
    if T.shape[1] != spec.free_angles:
        raise ValueError("angle count does not match the group")
    if spec.family == UNITARY:
        out = np.prod(1 - np.exp(1j * T) * s, axis=1)
    else:
        out = np.prod(1 + s * s - 2 * s * np.cos(T), axis=1)
        for e in FORCED_EIGENVALUES[spec.family]:
            out = out * (1 - e * s)
    return out[0] if single else out


def _functional_equation_sides(spec: GroupSpec, angles: np.ndarray, s: complex) -> tuple:
    """(Lambda_M(s), det M, Lambda_{M^dagger}(1/s) = conj Lambda_M(1/conj s)) at
    s != 0: det M is prod e^{i theta} for U(N), else that of the forced eigenvalues."""
    if s == 0:
        raise ValueError("the functional equation needs s != 0")
    if spec.family == UNITARY:
        det_m = complex(np.prod(np.exp(1j * np.asarray(angles, dtype=float))))
    else:
        det_m = math.prod(FORCED_EIGENVALUES[spec.family])
    return (complex(char_poly_eval(spec, angles, s)), det_m,
            np.conj(complex(char_poly_eval(spec, angles, 1 / np.conj(s)))))


def functional_equation_residual(spec: GroupSpec, angles: np.ndarray, s: complex) -> float:
    """|Lambda_M(s) - (-1)^D det M s^D Lambda_{M^dagger}(1/s)|, D the matrix size."""
    s = complex(s)
    lam, det_m, lam_dagger = _functional_equation_sides(spec, angles, s)
    D = spec.matrix_dim
    # (-1)^D s^D, not (-s)^D: past D = 100 CPython takes a complex to an integer
    # power by exp and log, where -s would round otherwise than s
    return abs(lam - (-1) ** D * det_m * s ** D * lam_dagger)


def znorm_residual(spec: GroupSpec, angles: np.ndarray, s: complex) -> float:
    """|Z(s) - s^N Lambda_{M^dagger}(1/s)| for Z(s) = det M s^{-N} Lambda_M(s): the
    self-dual families' functional equation (D = 2N) as Z(s) = det M conj Z(1/conj s)."""
    if spec.family == UNITARY:
        raise ValueError("Z-normalization applies to the self-dual families only")
    s = complex(s)
    lam, det_m, lam_dagger = _functional_equation_sides(spec, angles, s)
    return abs(det_m * s ** -spec.size * lam - s ** spec.size * lam_dagger)


# ---------------------------------------------------------------------------
# Deterministic Weyl quadrature
# ---------------------------------------------------------------------------

def quadrature_average(spec: GroupSpec, integrand: Callable[[np.ndarray], np.ndarray],
                       nodes_per_dim: int = 64) -> complex:
    """Average `integrand` against the Weyl density by the M-node periodic
    trapezoid rule in each of the d free angles.

    The periodic trapezoid rule is exact for trigonometric polynomials of
    per-angle degree < nodes_per_dim, which covers every integrand in this
    package, so this is an exact oracle rather than an approximation.

    `integrand` must accept a (P, d) angle array and return (P,) values; it
    is called once at all M^d grid points, and DimensionCap is raised when
    d exceeds `contour.DIM_CAP`.  An `autocorr_integrand` of `spec` is not
    called: its trapezoid sum is the determinant of `_heine_average`, at
    every d up to `HEINE_CAP`.  ValueError for a node count not an integer >= 4.
    """
    M = require_count(nodes_per_dim, 4, "nodes_per_dim")
    moment = _moment_of(spec, integrand)
    if moment is not None:
        return _heine_average(*moment, M)
    d = spec.free_angles

    def factors(*thetas: np.ndarray) -> list:
        T = np.empty((M ** d, d))
        for a, t in enumerate(thetas):
            T[:, a] = np.broadcast_to(t, (M,) * d).ravel()
        return _weyl_factors(spec, list(thetas)) + [np.asarray(integrand(T)).reshape((M,) * d)]

    theta = TWO_PI * np.arange(M) / M
    return trapezoid_sum([theta] * d, [np.ones(M)] * d, factors) * (TWO_PI / M) ** d


def _heine_average(spec: GroupSpec, w: tuple, m: int, M: int) -> complex:
    """The M-node trapezoid sum of `quadrature_average` for
    `autocorr_integrand(spec, w, m)`, as one n x n determinant, n the
    free-angle count.

    The moment is prod_j f(theta_j) times the coset constant, f the
    per-angle factor of `autocorr_integrand`: a Laurent polynomial in
    e^{i theta} whose coefficients f^_q come from k short convolutions.
    The Weyl density is a product of two n x n determinants of functions of
    one angle, so by the Heine/Andreief identity (Johansson, Ann. Math. 145,
    1997; Baik-Rains, Duke Math. J. 109, 2001) the average is one
    determinant of one-angle averages.  Summed over the nodes instead
    (Cauchy-Binet), f^_q enters folded mod M, as c_l = sum of f^_q over
    q = l (mod M), so the determinant is the trapezoid sum at every M, with
    0 <= i, j < n: U(N) det[c_{j-i}], and a self-dual family of Jacobi
    exponent a (`_JACOBI_A`) det[c_{i-j} - 2a c_{i+j+2a+1}], halved at
    a = -1/2.  That is det[c_{i-j} - c_{i+j+2}] for USp(2N) and for O^-(2N)
    (at n = N - 1), and det[c_{i-j} + c_{i+j}] / 2 for SO(2N).

    Raises DimensionCap for n > HEINE_CAP before anything is built,
    PrecisionLoss when n u kappa_1(G), the bound on the determinant's
    relative rounding error, exceeds the crosscheck's DoubleOps.agreement_tol
    or passes the double range, and OverflowError where the average passes
    it; neither with a numpy warning.
    """
    n = spec.free_angles
    if n > HEINE_CAP:
        raise DimensionCap(f"{n} free angles exceed the determinant order cap {HEINE_CAP}")
    const = _coset_constant(spec, w)
    if spec.family == UNITARY:  # frequencies -1, 0 and 0, 1
        low, terms = -m, [(-wr, 1) for wr in w[:m]] + [(wj, -1) for wj in w[m:]]
    else:  # frequencies -1, 0, 1
        low, terms = -len(w), [(-wj, 1 + wj * wj, -wj) for wj in w]
    # a few short lists: plain Python costs less here than numpy calls
    f_hat = [1.0]
    for term in terms:
        product = [0j] * (len(f_hat) + len(term) - 1)
        for q, fq in enumerate(f_hat):
            for t, a in enumerate(term):
                product[q + t] += fq * a
        f_hat = product
    # c[l] is c_l for every l = -n..2n the matrices read, the negative ones
    # by negative indexing
    c = [0j] * (3 * n + 1)
    for q, fq in enumerate(f_hat, low):
        for l in range((q + n) % M - n, 2 * n + 1, M):
            c[l] += fq
    c = np.array(c)
    i, j = np.arange(n)[:, None], np.arange(n)
    # an inf or NaN passes silently here and is refused by kappa or on the value
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.family == UNITARY:
            G, scale = c[j - i], 1.0
        else:  # Hankel offset 2a + 1; the sign of -2a is chosen, not multiplied in
            a = _JACOBI_A[spec.family]
            hankel = c[i + j + round(2 * a + 1)]
            G, scale = (c[i - j] - hankel, 1.0) if a > 0 else (c[i - j] + hankel, 0.5)
        norm = float(np.abs(G).sum(axis=0).max(initial=0.0))  # ||G||_1; O^-(2)'s G is 0 x 0
        try:  # np.linalg.cond(G, 1) without the overhead of its generality
            kappa = norm * float(np.abs(np.linalg.inv(G)).sum(axis=0).max(initial=0.0))
        except np.linalg.LinAlgError:  # exactly singular
            kappa = math.inf
        if not n * _UNIT_ROUNDOFF * kappa <= DoubleOps.agreement_tol:  # NaN refuses too
            raise PrecisionLoss(f"the {n} x {n} Heine determinant may have lost the "
                                f"{DoubleOps.agreement_tol:g} agreement of the crosscheck")
        det = np.linalg.det(G)
    value = const * scale * complex(det)
    if not cmath.isfinite(value):
        raise OverflowError("the Heine average is beyond the double range")
    return value


def _coset_constant(spec: GroupSpec, w: tuple) -> complex:
    """prod_j det M prod_e (1 - e w_j) = prod_j prod_e (e - w_j) over the forced
    eigenvalues e = +-1 (det M = prod e, e^2 = 1); det M^k is O^-'s defining (-1)^k."""
    forced = FORCED_EIGENVALUES[spec.family]
    if not forced:
        return 1.0
    value = 1
    for wj in w:
        factor = 1
        for e in forced:
            factor *= e - wj
        value *= factor
    return value


def autocorr_integrand(spec: GroupSpec, shifts: Sequence[complex], m: int = 0):
    """Vectorized integrand of the family's defining Haar average.

    A product of one factor per eigenangle.  Unitary uses the two-block
    form: the first m shifts pair with Lambda_{M^dagger}(w), the rest enter
    through prod_p (w - e^{i th_p}) (equal to w^N Lambda_M(1/w), but total
    at w = 0).  The other families take plain products of Lambda_M(w_j);
    the determinant -1 coset carries its defining (-1)^k.

    The callable carries `autocorr = (spec, shifts, m)`, by which
    `monte_carlo_average` samples its values without eigenangles and
    `quadrature_average` takes its sum as one determinant, without a grid.
    ValueError for a non-finite shift.
    """
    w = tuple(complex(x) for x in shifts)
    require_finite(w)
    m = require_count(m, 0, "m")
    if spec.family == UNITARY and m > len(w):
        raise ValueError("need 0 <= m <= len(shifts)")

    if spec.family == UNITARY:
        def angle(t):
            e = np.exp(1j * t)
            return (math.prod(1 - np.conj(e) * wr for wr in w[:m])
                    * math.prod(wj - e for wj in w[m:]))
    else:
        def angle(t):
            return math.prod(1 + wj * wj - 2 * wj * np.cos(t) for wj in w)

    def integrand(T: np.ndarray) -> np.ndarray:
        return math.prod([_coset_constant(spec, w)] + [angle(t) for t in T.T],
                         start=np.ones(T.shape[0], dtype=complex))

    integrand.autocorr = (spec, w, m)
    return integrand


def _moment_of(spec: GroupSpec, integrand) -> tuple | None:
    """The `autocorr` tag (spec, shifts, m) of an `autocorr_integrand` of
    `spec`, else None."""
    moment = getattr(integrand, "autocorr", None)
    return moment if moment is not None and moment[0] == spec else None


def weyl_autocorrelation(spec: GroupSpec, shifts: Sequence[complex], m: int = 0) -> complex:
    """Weyl quadrature value of the family's autocorrelation: the trapezoid
    sum of `quadrature_average`, one Heine determinant.

    Per angle, the density times the integrand has frequencies up to
    2N + k, so every node count above 2N + k gives the same determinant;
    this takes the smallest (at least `quadrature_average`'s 4).
    PrecisionLoss, DimensionCap and OverflowError as `_heine_average` raises
    them, and ValueError for a non-finite shift.
    """
    return quadrature_average(spec, autocorr_integrand(spec, shifts, m),
                              nodes_per_dim=max(4, 2 * spec.size + len(shifts) + 1))


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def sample_matrix_batch(spec: GroupSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` CMV matrices of U(N), from the stacked `_coefficient_rows` of
    `rng` (`_cmv_matrices`).  Raises ValueError for other families."""
    if spec.family != UNITARY:
        raise ValueError("the CMV sampler draws U(N) only")
    return _cmv_matrices(_coefficients(spec, rng, count))


def _cmv_matrices(alpha: np.ndarray) -> np.ndarray:
    """The CMV matrices C = L M of the (B, N) coefficient rows `alpha`.

    Cantero-Moral-Velazquez (LAA 362, 2003): with
    Theta_t = [[conj(alpha_t), rho_t], [rho_t, -alpha_t]] on rows t, t + 1
    and rho_t = sqrt(1 - |alpha_t|^2), L = diag(Theta_0, Theta_2, ...) and
    M = diag(1, Theta_1, Theta_3, ...); alpha_{N-1} lies on the circle and
    closes its matrix with the 1 x 1 block conj(alpha_{N-1}).  The
    characteristic polynomial is the Phi_N of the Szego recursion of
    `_autocorr_chunk`, so the spectrum is that of a Haar U(N) matrix
    (Killip-Nenciu, IMRN 2004); the matrix itself is not Haar-distributed.
    """
    count, N = alpha.shape
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
    """Free eigenangles of a batch of D x D group elements (else ValueError),
    each in [0, 2 pi).

    Conjugate-paired spectra are reduced to one angle per pair, after the
    angles 0 and pi of the family's forced eigenvalues +1 and -1 are dropped.
    """
    if np.shape(mats)[-2:] != (spec.matrix_dim,) * 2:
        raise ValueError("matrix size does not match the group")
    ev = np.linalg.eigvals(mats)
    if spec.family == UNITARY:
        return np.sort(np.mod(np.angle(ev), TWO_PI), axis=1)
    forced = FORCED_EIGENVALUES[spec.family]
    a = np.sort(np.abs(np.angle(ev)), axis=1)[:, forced.count(1):ev.shape[1] - forced.count(-1)]
    return (a[:, 0::2] + a[:, 1::2]) / 2.0


def _coefficient_rows(spec: GroupSpec, rng: np.random.Generator, B: int) -> Iterator[np.ndarray]:
    """The family's Killip-Nenciu rows of B samples, in one reused row:
    `_unitary_rows` for U(N), else `_jacobi_rows` at its `_JACOBI_A`."""
    if spec.family == UNITARY:
        return _unitary_rows(rng, B, spec.size)
    return _jacobi_rows(rng, B, spec.free_angles, _JACOBI_A[spec.family])


def _coefficients(spec: GroupSpec, rng: np.random.Generator, B: int) -> np.ndarray:
    """The rows of `_coefficient_rows`, stacked as one contiguous row of B
    samples per coefficient: shape (B, coefficients), (B, 0) for O^-(2)."""
    return np.array([row.copy() for row in _coefficient_rows(spec, rng, B)]).reshape(-1, B).T


def _jacobi_rows(rng: np.random.Generator, B: int, n: int, a: float) -> Iterator[np.ndarray]:
    """alpha_0..alpha_{2n-1} of the Jacobi ensemble, B samples each, drawn
    one after another into one reused row.

    Killip-Nenciu (IMRN 2004), Theorem 2 with beta = 2 and a = b:
    alpha_0..alpha_{2n-2} are independent, alpha_t = 1 - 2 Beta(p, q) with
    p = q = (2n - t - 2)/2 + a + 1 for even t, p = (2n - t - 3)/2 + 2a + 2
    and q = (2n - t - 1)/2 for odd t, and alpha_{-1} = alpha_{2n-1} = -1.
    The measure they define on the circle has its mass at e^{+-i theta} for
    the eigenvalues x = 2 cos(theta) of the Jacobi matrix of
    `_jacobi_angles`, whose density is prop. to Delta(x)^2 prod (4 - x^2)^a
    on [-2, 2]: the Weyl law of USp(2n) for a = 1/2 and of SO(2n) for
    a = -1/2.

    Each row is drawn in place by calls with scalar parameters.  At p = q
    (every row at a = -1/2, the even rows at a = 1/2; p >= 1/2 for
    a >= -1/2) 1 - 2 Beta(p, p) is the first coordinate cos(phi) r of a
    point of the unit disk, phi uniform (`_circle_points`) and
    r^2 ~ Beta(1, p - 1/2) (Ulrich, Appl. Stat. 33, 1984), the arcsine law
    cos(phi) at p = 1/2.  The odd rows at a = 1/2 have p = q + 2, and for
    X ~ Beta(p, q), 1 - X ~ Beta(q, q + 2) is the product of independent
    Beta(q, q), Beta(2q, 1) and Beta(2q + 1, 1) draws, as
    Beta(x, y) Beta(x + y, z) ~ Beta(x, y + z); so alpha = 1 - 2X is
    (1 + Y) T - 1 for Y the p = q row at q and
    T = (1 - U1)^{1/(2q)} (1 - U2)^{1/(2q + 1)}, U1 and U2 uniform.
    """
    row, u, v = np.empty(B), np.empty(B), np.empty(B)
    for t in range(2 * n - 1):
        if t % 2 == 0:
            p = q = (2 * n - t - 2) / 2 + a + 1
        else:
            p, q = (2 * n - t - 3) / 2 + 2 * a + 2, (2 * n - t - 1) / 2
        _circle_points(_phases(rng, u), row)
        if q > 0.5:
            row *= np.sqrt(_beta_one(rng, u, q - 0.5), out=u)
        if p != q:  # p = q + 2
            row += 1
            _log1m_over(rng, u, 2 * q)
            u += _log1m_over(rng, v, 2 * q + 1)
            row *= np.exp(u, out=u)
            row -= 1
        yield row
    if n:  # alpha_{2n-1}; O^-(2) has no coefficient row
        row.fill(-1.0)
        yield row


def _phases(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """psi = pi U - pi/2 into `out`, U uniform on [0, 1): the draws of
    rng.uniform(-pi/2, pi/2), bit for bit."""
    rng.random(out=out)
    out *= np.pi
    out -= HALF_PI
    return out


def _log1m_over(rng: np.random.Generator, out: np.ndarray, b: float) -> np.ndarray:
    """log(1 - U) / b into `out`, U uniform on [0, 1); log1p takes U = 0 to
    0, not to log(0)."""
    rng.random(out=out)
    np.negative(out, out=out)
    np.log1p(out, out=out)
    out /= b
    return out


def _beta_one(rng: np.random.Generator, out: np.ndarray, b: float) -> np.ndarray:
    """Draws of Beta(1, b), b > 0, into `out`: 1 - (1 - U)^{1/b}, the exact
    inverse of its CDF 1 - (1 - x)^b."""
    np.expm1(_log1m_over(rng, out, b), out=out)
    return np.negative(out, out=out)


def _circle_points(psi: np.ndarray, cos: np.ndarray,
                   sin: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """cos(phi) into `cos` and, given `sin`, sin(phi) into it, at phi = 2 psi,
    uniform on the circle for psi uniform on (-pi/2, pi/2), without cos or
    sin: from the Cauchy draw t = tan(psi), written over psi,
    cos(phi) = 2/(1 + t^2) - 1 and sin(phi) = 2t/(1 + t^2).

    numpy's float64 tan is a SIMD loop where its cos and sin are scalar.
    At psi = +-fl(pi/2), |t| is about 1.6e16 and t^2 stays finite."""
    t = np.tan(psi, out=psi)
    np.multiply(t, t, out=cos)
    cos += 1
    np.divide(2, cos, out=cos)  # 2/(1 + t^2)
    if sin is not None:
        np.multiply(cos, t, out=sin)
    cos -= 1
    return cos, sin


def _jacobi_angles(alpha: np.ndarray) -> np.ndarray:
    """Ascending angles theta = arccos(x / 2) in [0, pi] of the eigenvalues x
    of the n x n Jacobi matrix of each row of (B, 2n) `_jacobi_rows` draws.

    Its diagonal and squared off-diagonal come from the Geronimus relations.
    """
    odd = np.insert(alpha[:, 1::2], 0, -1.0, axis=1)  # -1 = alpha_{-1}, alpha_1, ..., alpha_{2n-1}
    ev = alpha[:, 0::2]    # alpha_0, alpha_2, ..., alpha_{2n-2}
    B, n = ev.shape
    ev_prev = np.insert(ev[:, :-1], 0, 0.0, axis=1)  # alpha_{2j-2}; 1 + alpha_{-1} = 0 at j = 0
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


def _unitary_rows(rng: np.random.Generator, B: int, N: int) -> Iterator[np.ndarray]:
    """alpha_0..alpha_{N-1} of CUE(N), B samples each, drawn one after
    another into one reused row.

    Killip-Nenciu (IMRN 2004), Theorem 1 with beta = 2: independent, with
    uniform phase, |alpha_t|^2 ~ Beta(1, N - t - 1) for t < N - 1 and
    alpha_{N-1} on the unit circle.  The zeros of the Phi_N they define
    are then the eigenvalues of a Haar U(N) matrix.  Each row is a point of
    `_circle_points` scaled by the square root of a `_beta_one` row.
    """
    row, u, cos, sin = np.empty(B, dtype=complex), np.empty(B), np.empty(B), np.empty(B)
    for t in range(N):
        row.real, row.imag = _circle_points(_phases(rng, u), cos, sin)
        if t < N - 1:
            row *= np.sqrt(_beta_one(rng, u, N - t - 1), out=u)
        yield row


def _sampled(rng_seed: int, count: int,
             draw: Callable[[np.random.Generator, int], np.ndarray]) -> np.ndarray:
    """draw(rng, B) over one seeded stream, for `count` samples in chunks of
    `_SAMPLE_CHUNK`, joined along the first axis."""
    rng = np.random.default_rng(rng_seed)
    return np.concatenate([draw(rng, min(_SAMPLE_CHUNK, count - start))
                           for start in range(0, count, _SAMPLE_CHUNK)])


def _autocorr_chunk(spec: GroupSpec, shifts: tuple, m: int, rng: np.random.Generator,
                    B: int) -> np.ndarray:
    """B values of `autocorr_integrand(spec, shifts, m)` at fresh Haar samples,
    from sampled coefficients instead of eigenangles: one Szego recursion
    over the Killip-Nenciu coefficients of every family, each row taken as
    soon as it is drawn.

    Every family reads the same rows as `sample_eigenangle_batch`, so each
    value is the angle path's up to rounding.  Szego recursion (Simon,
    OPUC, 2005, sec. 1.5) from Phi_0 = Phi*_0 = 1:
    Phi_{t+1} = w Phi_t - conj(alpha_t) Phi*_t,
    Phi*_{t+1} = Phi*_t - alpha_t w Phi_t,
    one step per shift on that shift's own rows of B samples, updated in
    place; Phi_N(w) = prod (w - e^{i theta}) and
    Phi*_N(w) = prod (1 - e^{-i theta} w).  For the 2n real coefficients
    of `_jacobi_rows` (alpha_{2n-1} = -1) the zeros come in pairs
    e^{+-i theta}, and Phi_{2n}(w) = Phi*_{2n}(w) = prod (1 + w^2 - 2 w cos theta).
    For real coefficients at w = s = +-1, Phi*_t = s^t Phi_t, so each step
    multiplies by s - alpha_t s^t (1 - alpha_t, or -(1 + (-1)^t alpha_t)):
    these shifts take the product of the formed factors, since the
    recursion's s Phi_t - alpha_t Phi*_t cancels when alpha_t is near +-1,
    as one real row that is Phi_{2n} and Phi*_{2n} = s^{2n} Phi_{2n} both.

    The value is the product of Phi* at the first m shifts and Phi at the
    rest.  A value beyond the double range is inf or nan, without a
    warning: the caller's report refuses it.
    """
    real = spec.family != UNITARY
    w = [complex(wj) for wj in shifts]  # made once: an array would make a scalar per step
    formed = [real and wj in (1, -1) for wj in w]
    # Phi and Phi* of each shift; a formed product is real, and its own Phi*
    phi = [np.ones(B, dtype=float if f else complex) for f in formed]
    phi_star = [p if f else np.ones(B, dtype=complex) for f, p in zip(formed, phi)]
    w_phi, alpha = np.empty(B, dtype=complex), np.empty(B, dtype=complex)
    factor = np.empty(B)
    with np.errstate(over="ignore", invalid="ignore"):
        for t, row in enumerate(_coefficient_rows(spec, rng, B)):
            if real:  # cast once, as each real-by-complex product would; conj(alpha_t) = alpha_t
                np.copyto(alpha, row)
                a = conj_a = alpha
            else:
                a, conj_a = row, np.conjugate(row, out=alpha)
            for wj, f, p, p_star in zip(w, formed, phi, phi_star):
                if f:  # s - alpha_t s^t
                    np.multiply(row, wj.real ** t, out=factor)
                    np.subtract(wj.real, factor, out=factor)
                    p *= factor
                    continue
                np.multiply(wj, p, out=w_phi)
                np.multiply(conj_a, p_star, out=p)
                np.subtract(w_phi, p, out=p)
                np.multiply(a, w_phi, out=w_phi)
                np.subtract(p_star, w_phi, out=p_star)
        vals = np.ones(B, dtype=complex)
        for j, (p, p_star) in enumerate(zip(phi, phi_star)):
            vals *= p_star if j < m else p
        if FORCED_EIGENVALUES[spec.family]:
            vals *= _coset_constant(spec, shifts)
    return vals


def sample_eigenangle_batch(spec: GroupSpec, rng_seed: int, count: int) -> np.ndarray:
    """`count` >= 1 eigenangle vectors, shape (count, free angles), reproducible
    from the seed.  They are drawn `_SAMPLE_CHUNK` at a time from one stream,
    so their whole chunks are the first rows of any longer batch from that seed.
    Each chunk stacks the `_coefficient_rows` `_autocorr_chunk` reads, and
    solves their matrices `_SOLVE_CHUNK` samples at a time: U(N) the CMV
    angles, the self-dual families the Jacobi model's."""
    count = require_count(count, 1, "count")
    if spec.family == UNITARY:
        def angles(alpha: np.ndarray) -> np.ndarray:
            return eigenangles_of(spec, _cmv_matrices(alpha))
    else:
        angles = _jacobi_angles

    def draw(rng: np.random.Generator, B: int) -> np.ndarray:
        alpha = _coefficients(spec, rng, B)
        return np.concatenate([angles(alpha[start:start + _SOLVE_CHUNK])
                               for start in range(0, B, _SOLVE_CHUNK)])

    return _sampled(rng_seed, count, draw)


def monte_carlo_average(spec: GroupSpec, integrand: Callable[[np.ndarray], np.ndarray],
                        rng_seed: int, count: int) -> tuple[complex, float]:
    """Sample mean and standard error of a vectorized angle functional.

    An `autocorr_integrand` of `spec` is not evaluated on angles: its
    values come from sampled coefficients (`_autocorr_chunk`), with no
    group matrix and no eigensolve.  Other functionals get the angles of
    `sample_eigenangle_batch`.  One pass takes the statistics of the values
    over 2^e just above their largest part: exact, and in the double range.
    """
    count = require_count(count, 2, "count")  # two samples for a standard error
    moment = _moment_of(spec, integrand)
    if moment is not None:
        vals = _sampled(rng_seed, count, functools.partial(_autocorr_chunk, *moment))
    else:
        vals = np.ascontiguousarray(integrand(sample_eigenangle_batch(spec, rng_seed, count)), complex)
    if np.all(vals == vals[0]):  # a constant, whose rounded mean and spread are noise
        return complex(vals[0]), 0.0
    parts = vals.view(float)  # a complex division would flip signed zeros
    peak = float(np.abs(parts).max())
    if not math.isfinite(peak):  # beyond the double range: the caller's report refuses it
        return complex(math.nan, math.nan), math.nan
    e = math.frexp(peak)[1]
    scaled = np.ldexp(parts, -e).view(complex)
    mean = scaled.mean()
    squares = float(np.sum(np.abs(scaled - mean) ** 2))
    return (complex(math.ldexp(mean.real, e), math.ldexp(mean.imag, e)),
            math.ldexp(math.sqrt(squares / (count - 1) / count), e))
