"""Dense-matrix helpers: numerical rank via singular values."""

from __future__ import annotations

import numpy as np

RANK_EPS = 1e-8


def _rank(s: np.ndarray, eps: float) -> int:
    """Count of the descending singular values ``s`` above ``eps`` times the
    largest one."""
    v = s.tolist()  # float comparisons: much cheaper than a ufunc pass on a few values
    if not v or v[0] == 0.0:
        return 0
    top = eps * v[0]
    return sum(x > top for x in v)


def numerical_rank(M, eps: float = RANK_EPS) -> int:
    """Count of singular values above ``eps`` times the largest one; 0 for
    an empty matrix."""
    A = np.atleast_2d(np.asarray(M, dtype=float))
    return _rank(np.linalg.svd(A, compute_uv=False), eps) if A.size else 0


def null_space(M) -> np.ndarray:
    """Orthonormal basis (columns) of the null space beyond
    ``numerical_rank(M)``."""
    _, s, vt = np.linalg.svd(np.atleast_2d(np.asarray(M, dtype=float)))
    return vt[_rank(s, RANK_EPS):].T


def adjugate(M) -> np.ndarray:
    """Transposed cofactor matrix, so ``d det M = tr(adj(M) dM)``.

    Unlike ``det M * inv(M)`` it is defined (and exact) on singular M.  A
    stack of matrices gives the stack of their adjugates.  Every minor of
    every matrix is gathered by index into one stack, and one ``det`` call
    takes them all.
    """
    A = np.atleast_2d(np.asarray(M, dtype=float))
    k = A.shape[-1]
    # keep[i]: the k - 1 indices other than i; minor (i, j) drops row i and column j
    keep = np.array([[r for r in range(k) if r != i] for i in range(k)], dtype=np.intp).reshape(k, k - 1)
    minors = A[..., keep[:, None, :, None], keep[None, :, None, :]]
    sign = (-1.0) ** np.add.outer(np.arange(k), np.arange(k))
    return np.swapaxes(sign * np.linalg.det(minors), -1, -2)
