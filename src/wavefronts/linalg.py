"""Dense-matrix helpers: numerical rank via singular values."""

from __future__ import annotations

import numpy as np

RANK_EPS = 1e-8


def singular_values(M) -> np.ndarray:
    A = np.atleast_2d(np.asarray(M, dtype=float))
    if A.size == 0:
        return np.array([])
    return np.linalg.svd(A, compute_uv=False)


def numerical_rank(M, eps: float = RANK_EPS) -> int:
    """Count of singular values above ``eps`` times the largest one."""
    s = singular_values(M)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > eps * s[0]))


def null_space(M, eps: float = RANK_EPS) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical null space."""
    A = np.atleast_2d(np.asarray(M, dtype=float))
    u, s, vt = np.linalg.svd(A)
    r = 0
    if s.size and s[0] > 0:
        r = int(np.sum(s > eps * s[0]))
    return vt[r:].T


def adjugate(M) -> np.ndarray:
    """Transposed cofactor matrix, so ``d det M = tr(adj(M) dM)``.

    Unlike ``det M * inv(M)`` it is defined (and exact) on singular M.
    """
    A = np.atleast_2d(np.asarray(M, dtype=float))
    k = A.shape[0]
    cof = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            minor = np.delete(np.delete(A, i, axis=0), j, axis=1)
            cof[i, j] = (-1) ** (i + j) * np.linalg.det(minor)
    return cof.T
