"""Haar-matrix samplers: the reference the package's Verblunsky models are
tested against.

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
