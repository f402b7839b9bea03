"""Dense-matrix helpers: numerical rank via singular values."""

from __future__ import annotations

import numpy as np

RANK_EPS = 1e-8


def singular_values(M) -> np.ndarray:
    A = np.atleast_2d(np.asarray(M, dtype=float))
    if A.size == 0:
        return np.array([])
    return np.linalg.svd(A, compute_uv=False)


def _rank(s: np.ndarray, eps: float) -> int:
    """Count of the descending singular values ``s`` above ``eps`` times the
    largest one."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > eps * s[0]))


def numerical_rank(M, eps: float = RANK_EPS) -> int:
    """Count of singular values above ``eps`` times the largest one."""
    return _rank(singular_values(M), eps)


def null_space(M) -> np.ndarray:
    """Orthonormal basis (columns) of the null space beyond
    ``numerical_rank(M)``."""
    _, s, vt = np.linalg.svd(np.atleast_2d(np.asarray(M, dtype=float)))
    return vt[_rank(s, RANK_EPS):].T


def adjugate(M) -> np.ndarray:
    """Transposed cofactor matrix, so ``d det M = tr(adj(M) dM)``.

    Unlike ``det M * inv(M)`` it is defined (and exact) on singular M.  A
    stack of matrices gives the stack of their adjugates.
    """
    A = np.atleast_2d(np.asarray(M, dtype=float))
    k = A.shape[-1]
    cof = np.empty(A.shape)
    for i in range(k):
        for j in range(k):
            minor = np.delete(np.delete(A, i, axis=-2), j, axis=-1)
            cof[..., i, j] = (-1) ** (i + j) * np.linalg.det(minor)
    return np.swapaxes(cof, -1, -2)
