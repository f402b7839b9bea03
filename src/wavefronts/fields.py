"""Evaluable smooth scalar fields with first and second derivatives.

A field carries optional closed-form gradient/hessian closures; when absent,
``fd_jacobian`` (central differences, relative step ``FD_STEP``) is used.
It is the package's one finite-difference routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, NonFiniteValue
from .expr import Expr

FD_STEP = 1e-5

Box = Tuple[Tuple[float, float], ...]


def _check_finite(value, point):
    if not np.all(np.isfinite(value)):
        raise NonFiniteValue(f"non-finite field value at {np.asarray(point)!r}")
    return value


def _fd_steps(p: np.ndarray) -> np.ndarray:
    return FD_STEP * np.maximum(1.0, np.abs(p))


def fd_jacobian(fn: Callable, p) -> np.ndarray:
    """Central finite-difference Jacobian of a scalar- or vector-valued ``fn``.

    The step is ``FD_STEP * max(1, |p_i|)`` per coordinate; the result has one
    row per output component (a single row for scalar ``fn``).
    """
    p = np.asarray(p, dtype=float)
    h = _fd_steps(p)
    cols = []
    for i in range(p.size):
        e = np.zeros(p.size)
        e[i] = h[i]
        df = np.asarray(fn(p + e), dtype=float) - np.asarray(fn(p - e), dtype=float)
        cols.append(df / (2 * h[i]))
    return np.atleast_2d(np.array(cols).T)


@dataclass(frozen=True)
class ScalarField:
    """A smooth function R^m -> R on a box, with derivatives.

    ``fn`` takes a length-m vector.  ``grad_fn``/``hess_fn`` are optional
    closed-form closures; ``fd_jacobian`` is the fallback.
    """

    arity: int
    fn: Callable[[np.ndarray], float]
    grad_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    box: Optional[Box] = None

    def _check_box(self, p: np.ndarray, margin: np.ndarray | float = 0.0):
        if self.box is None:
            return
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        if np.any(p - margin < lo) or np.any(p + margin > hi):
            raise DomainError(f"point {p!r} (margin {margin!r}) exits the domain box")

    def _fd_grad(self, p: np.ndarray) -> np.ndarray:
        return fd_jacobian(self.fn, p)[0]

    def value(self, point) -> float:
        p = np.asarray(point, dtype=float)
        self._check_box(p)
        v = float(self.fn(p))
        _check_finite(v, p)
        return v

    def grad(self, point) -> np.ndarray:
        p = np.asarray(point, dtype=float)
        if self.grad_fn is not None:
            self._check_box(p)
            return np.asarray(_check_finite(self.grad_fn(p), p), dtype=float)
        self._check_box(p, _fd_steps(p))
        return _check_finite(self._fd_grad(p), p)

    def hessian(self, point) -> np.ndarray:
        p = np.asarray(point, dtype=float)
        if self.hess_fn is not None:
            self._check_box(p)
            return np.asarray(_check_finite(self.hess_fn(p), p), dtype=float)
        h = _fd_steps(p)
        # differences of the FD gradient reach two steps from p
        self._check_box(p, h if self.grad_fn is not None else 2 * h)
        H = fd_jacobian(self.grad_fn or self._fd_grad, p)
        H = 0.5 * (H + H.T)
        return _check_finite(H, p)


def field_from_expr(
    e: Expr, var_order: Sequence[str], box: Optional[Box] = None
) -> ScalarField:
    """Build a field with exact symbolic first/second derivatives from an AST."""
    m = len(var_order)
    f = e.compile(var_order)
    grads = [e.diff(v) for v in var_order]
    gfns = [g.compile(var_order) for g in grads]
    hfns = [[grads[i].diff(v).compile(var_order) for v in var_order] for i in range(m)]

    def grad_fn(p):
        return np.array([g(p) for g in gfns], dtype=float)

    def hess_fn(p):
        H = np.array([[hij(p) for hij in row] for row in hfns], dtype=float)
        return 0.5 * (H + H.T)

    return ScalarField(arity=m, fn=lambda p: float(f(p)), grad_fn=grad_fn, hess_fn=hess_fn, box=box)


def field_from_callable(
    fn: Callable, arity: int, box: Optional[Box] = None
) -> ScalarField:
    """Finite-difference-backed field (no closed-form derivatives)."""
    return ScalarField(arity=arity, fn=lambda p: float(fn(p)), box=box)


def catalog() -> dict:
    """Named closed-form fields used by numerics-hygiene tests."""

    def mk(arity, fn, grad, hess=None):
        return ScalarField(arity=arity, fn=fn, grad_fn=grad, hess_fn=hess)

    entries = {
        "sin": mk(
            1,
            lambda p: math.sin(p[0]),
            lambda p: np.array([math.cos(p[0])]),
            lambda p: np.array([[-math.sin(p[0])]]),
        ),
        "cos": mk(
            1,
            lambda p: math.cos(p[0]),
            lambda p: np.array([-math.sin(p[0])]),
            lambda p: np.array([[-math.cos(p[0])]]),
        ),
        "gauss": mk(
            1,
            lambda p: math.exp(-p[0] ** 2),
            lambda p: np.array([-2 * p[0] * math.exp(-p[0] ** 2)]),
        ),
        "sin_sum": mk(
            2,
            lambda p: math.sin(p[0]) + math.cos(p[1]),
            lambda p: np.array([math.cos(p[0]), -math.sin(p[1])]),
        ),
    }
    return entries
