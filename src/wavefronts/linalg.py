"""Dense-matrix helpers: numerical rank and null space via singular values,
adjugates, and the closed-form least-norm step of a 2 x 3 matrix."""

from __future__ import annotations

import math

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


def pinv_2x3(J, r):
    """``(d, s_max, s_min, v)`` of a 2 x 3 ``J``, given as its two rows a
    and b of three floats, and a residual ``r`` of two numbers, in closed
    form on Python floats: no factorization, no array and no floating-point
    warning (an overflow is an inf).  ``d`` and ``v`` are lists of three
    floats.

    With n = a x b, the unit null vector is ``v = n / |n|``, and the
    least-norm solution of J d = r is d = (r0 (b x n) + r1 (n x a)) / |n|^2,
    since a . (b x n) = b . (n x a) = |n|^2 and both terms are orthogonal
    to n.  The squared singular values are the roots of
    l^2 - (|a|^2 + |b|^2) l + |n|^2: ``s_max`` is the larger one, taken with
    no cancellation from the discriminant (|a|^2 - |b|^2)^2 + 4 (a . b)^2,
    and ``s_min = |n| / s_max``, whose error is about eps s_max, as LAPACK's.
    J is first scaled by the power of two that brings its largest entry near
    1, which is exact and keeps the squares in range.  ``d`` and ``v`` are
    None where n = 0 (rank below 2).
    """
    (a0, a1, a2), (b0, b1, b2) = J
    r0, r1 = map(float, r)
    # 2^-e scales the largest entry into [0.5, 1); e clamped so that 2^e and
    # 2^-e are both finite
    e = min(max(math.frexp(max(abs(a0), abs(a1), abs(a2), abs(b0), abs(b1), abs(b2)))[1], -1021), 1023)
    k = math.ldexp(1.0, -e)
    a0, a1, a2, b0, b1, b2 = a0 * k, a1 * k, a2 * k, b0 * k, b1 * k, b2 * k
    n0, n1, n2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    aa, bb, ab = a0 * a0 + a1 * a1 + a2 * a2, b0 * b0 + b1 * b1 + b2 * b2, a0 * b0 + a1 * b1 + a2 * b2
    nn = n0 * n0 + n1 * n1 + n2 * n2
    norm = math.sqrt(nn)
    s_max = math.sqrt(0.5 * (aa + bb + math.sqrt((aa - bb) * (aa - bb) + 4.0 * ab * ab)))
    scale = math.ldexp(1.0, e)
    if not norm:
        return None, s_max * scale, 0.0, None
    s_min = norm / s_max * scale
    # d of the scaled J, times k: J = 2^e (k J), so pinv(J) = k pinv(k J)
    r0, r1 = r0 / nn * k, r1 / nn * k
    d = [
        r0 * (b1 * n2 - b2 * n1) + r1 * (n1 * a2 - n2 * a1),
        r0 * (b2 * n0 - b0 * n2) + r1 * (n2 * a0 - n0 * a2),
        r0 * (b0 * n1 - b1 * n0) + r1 * (n0 * a1 - n1 * a0),
    ]
    return d, s_max * scale, s_min, [n0 / norm, n1 / norm, n2 / norm]
