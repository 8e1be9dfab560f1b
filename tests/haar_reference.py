"""Haar-matrix samplers: the reference the package's Verblunsky models are
tested against, and the sample-major Szego recursion its row-major one is
held to.

Independent of the Killip-Nenciu coefficient models in `rmt_autocorr.haar`:
a complex Gaussian matrix orthonormalized by QR with phase correction is
Haar on U(N) (Mezzadri, Notices AMS 54, 2007), a real one with sign
correction is Haar on O(n), and a symplectic-structure-preserving
Gram-Schmidt gives USp(2N).  `rmt_autocorr.haar.eigenangles_of` reads their
free eigenangles.  Only tests import this module.
"""

from __future__ import annotations

import numpy as np

from rmt_autocorr.haar import SO_EVEN, SYMPLECTIC, UNITARY, GroupSpec


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


def haar_matrix_batch(spec: GroupSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    if spec.family == UNITARY:
        return _haar_unitary_batch(rng, count, spec.size)
    if spec.family == SYMPLECTIC:
        return _haar_symplectic_batch(rng, count, spec.size)
    det_sign = 1 if spec.family == SO_EVEN else -1
    return _haar_orthogonal_batch(rng, count, 2 * spec.size, det_sign)


# ---------------------------------------------------------------------------
# The Szego recursion on (B, k) arrays, one row per sample
# ---------------------------------------------------------------------------

def _szego(alpha: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phi_N(w) = prod (w - e^{i theta}) and Phi*_N(w) = prod (1 - e^{-i theta} w)
    of each coefficient row at each shift, both of shape (B, k).

    Szego recursion (Simon, OPUC, 2005, sec. 1.5) from Phi_0 = Phi*_0 = 1:
    Phi_{t+1} = w Phi_t - conj(alpha_t) Phi*_t,
    Phi*_{t+1} = Phi*_t - alpha_t w Phi_t.
    For the 2n real coefficients of `_jacobi_rows` (alpha_{2n-1} = -1)
    the zeros come in pairs e^{+-i theta}, and
    Phi_{2n}(w) = Phi*_{2n}(w) = prod (1 + w^2 - 2 w cos theta).  For real
    rows at w = s = +-1, Phi*_t = s^t Phi_t, so each step multiplies by
    s - alpha_t s^t (1 - alpha_t, or -(1 + (-1)^t alpha_t)): these shifts
    take the product of the formed factors, since the recursion's
    s Phi_t - alpha_t Phi*_t cancels when alpha_t is near +-1.  An empty row
    gives Phi = 1.
    """
    phi = np.ones((alpha.shape[0], len(w)), dtype=complex)
    phi_star = phi.copy()
    for a in alpha.T[:, :, None]:
        w_phi = w * phi
        phi, phi_star = w_phi - np.conj(a) * phi_star, phi_star - a * w_phi
    if not np.iscomplexobj(alpha):
        t = np.arange(alpha.shape[1])
        for j in np.flatnonzero((w == 1) | (w == -1)):
            s = w[j].real
            phi[:, j] = np.prod(s - alpha * s ** t, axis=1)
            phi_star[:, j] = s ** len(t) * phi[:, j]
    return phi, phi_star
