"""Evaluable smooth scalar fields with derivatives up to the third order.

A generated field carries one closed-form jet closure, so that
``derivatives`` gets the value, gradient, Hessian and third partials from one
call; a hand-written one may carry a gradient closure.  A derivative with no
closed form is ``fd_jacobian`` (central differences, relative step
``FD_STEP``) of the order below.  This is the only module that knows whether
a derivative is closed-form, and ``fd_jacobian`` is the package's one
finite-difference routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, NonFiniteValue
from .expr import Expr, compile_nested

FD_STEP = 1e-5

Box = Tuple[Tuple[float, float], ...]


def _check_finite(value, point):
    if isinstance(value, float):
        finite = math.isfinite(value)
    elif isinstance(value, np.ndarray) and value.ndim == 1:
        # a gradient or a flat jet: float tests beat a ufunc pass at this size
        finite = all(map(math.isfinite, value.tolist()))
    else:
        finite = np.isfinite(value).all()
    if not finite:
        raise NonFiniteValue(f"non-finite field value at {np.asarray(point)!r}")
    return value


def _fd_steps(p: np.ndarray) -> np.ndarray:
    return FD_STEP * np.maximum(1.0, np.abs(p))


def fd_jacobian(fn: Callable, p, ncols: Optional[int] = None) -> np.ndarray:
    """Central finite-difference Jacobian of a scalar- or vector-valued ``fn``.

    The step is ``FD_STEP * max(1, |p_i|)`` per coordinate; the result has one
    row per output component (a single row for scalar ``fn``) and one column
    for each of the first ``ncols`` coordinates (all by default).
    """
    p = np.asarray(p, dtype=float)
    h = _fd_steps(p)
    cols = []
    for i in range(p.size if ncols is None else ncols):
        e = np.zeros(p.size)
        e[i] = h[i]
        df = np.asarray(fn(p + e), dtype=float) - np.asarray(fn(p - e), dtype=float)
        cols.append(df / (2 * h[i]))
    return np.atleast_2d(np.array(cols).T)


@dataclass(frozen=True)
class ScalarField:
    """A smooth function R^m -> R on a box, with derivatives.

    ``fn`` takes a length-m vector.  A generated field also carries
    ``jet_fn(p, with_third)``, one closed-form pass returning a new flat
    array: the value, the gradient and the Hessian row by row, then, when
    ``with_third`` and the field has them, the third partials
    ``d_c d_a d_b f`` for ``a, b`` among its first r variables and every
    ``c``, row by row.  A hand-written field may carry ``grad_fn`` instead.
    Every derivative without a closed form is ``fd_jacobian`` of the order
    below.
    """

    arity: int
    fn: Callable[[np.ndarray], float]
    grad_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    box: Optional[Box] = None
    jet_fn: Optional[Callable[[np.ndarray, bool], np.ndarray]] = None

    def __post_init__(self):
        # built once: the box check runs on every evaluation
        if self.box is not None:
            object.__setattr__(self, "_bounds", tuple((float(lo), float(hi)) for lo, hi in self.box))

    def _check_box(self, p: np.ndarray, margin: np.ndarray | float = 0.0):
        if self.box is None:
            return
        # float comparisons: for a few coordinates much cheaper than array ones
        h = margin.tolist() if isinstance(margin, np.ndarray) else [margin] * len(self._bounds)
        for v, d, (lo, hi) in zip(p.tolist(), h, self._bounds):
            if v - d < lo or v + d > hi:
                raise DomainError(f"point {p.tolist()} (margin {h}) exits the domain box")

    def _jet(self, p: np.ndarray, with_third: bool = False) -> np.ndarray:
        self._check_box(p)
        return _check_finite(self.jet_fn(p, with_third), p)

    def _fd_grad(self, p: np.ndarray, r: Optional[int] = None) -> np.ndarray:
        return fd_jacobian(self.fn, p, r)[0]

    def value(self, point) -> float:
        p = np.asarray(point, dtype=float)
        self._check_box(p)
        v = float(self.fn(p))
        _check_finite(v, p)
        return v

    def grad(self, point) -> np.ndarray:
        p = np.asarray(point, dtype=float)
        if self.jet_fn is not None:
            return self._jet(p)[1 : p.size + 1]
        if self.grad_fn is not None:
            self._check_box(p)
            return np.asarray(_check_finite(self.grad_fn(p), p), dtype=float)
        self._check_box(p, _fd_steps(p))
        return _check_finite(self._fd_grad(p), p)

    def hessian(self, point) -> np.ndarray:
        p = np.asarray(point, dtype=float)
        return self._hessian_block(p, p.size)

    def _hessian_block(self, p: np.ndarray, r: int) -> np.ndarray:
        """The leading (r, r) block of ``hessian(p)``, with the same box and
        finiteness checks; the FD fallback differences only the r gradient
        components it needs along the first r coordinates."""
        m = p.size
        if self.jet_fn is not None:
            return self._jet(p)[m + 1 : 1 + m + m * m].reshape(m, m)[:r, :r]
        h = _fd_steps(p)
        # differences of the FD gradient reach two steps from p
        self._check_box(p, h if self.grad_fn is not None else 2 * h)
        H = fd_jacobian(self.grad_fn or (lambda q: self._fd_grad(q, r)), p, r)[:r]
        H = 0.5 * (H + H.T)
        return _check_finite(H, p)

    def third(self, point) -> np.ndarray:
        """The third partials ``d_c d_a d_b f``: the jet's (r, r, m) block
        (its own r), else central differences of the whole Hessian, (m, m, m)."""
        p = np.asarray(point, dtype=float)
        if self.jet_fn is not None:
            T = _jet_third(self._jet(p, True), p.size)
            if T is not None:
                return T
        return self._fd_third(p, p.size)

    def _fd_third(self, p: np.ndarray, r: int) -> np.ndarray:
        """Central differences of the Hessian's leading (r, r) block; each
        probe p +- h e_c checks the box as ``hessian`` does."""
        return fd_jacobian(lambda q: self._hessian_block(q, r).ravel(), p).reshape(r, r, p.size)

    def derivatives(self, point, third: int = 0):
        """``(value, grad, hessian, third partials or None)`` at ``point``.

        ``third = r > 0`` also asks for the third partials: the jet's, else
        central differences of the Hessian's leading (r, r) block, (r, r, m).
        With ``jet_fn`` the closed-form part is one call with one box check and
        one finiteness check; the rest comes from the separate methods, so
        every entry, FD margin and error is the one they give.
        """
        p = np.asarray(point, dtype=float)
        if self.jet_fn is None:
            return self.value(p), self.grad(p), self.hessian(p), (self._fd_third(p, third) if third else None)
        a = self._jet(p, bool(third))
        m = p.size
        T = _jet_third(a, m) if third else None
        if third and T is None:
            T = self._fd_third(p, third)
        return float(a[0]), a[1 : m + 1], a[m + 1 : 1 + m + m * m].reshape(m, m), T


def _jet_third(a: np.ndarray, m: int) -> Optional[np.ndarray]:
    """The (r, r, m) third partials at the end of a flat jet, or None when
    the jet stops after the Hessian."""
    s = 1 + m + m * m
    if a.size == s:
        return None
    r = math.isqrt((a.size - s) // m)
    return a[s:].reshape(r, r, m)


def field_from_expr(
    e: Expr, var_order: Sequence[str], box: Optional[Box] = None, third_rows: int = 0
) -> ScalarField:
    """Build a field with exact symbolic derivatives from an AST.

    ``jet_fn`` is the value, gradient and Hessian compiled into one flat
    closure; the Hessian is compiled from its upper triangle and mirrored, so
    it is exactly symmetric.  With ``third_rows = r > 0`` a second closure
    appends the third partials ``d_c d_a d_b f`` for ``a, b < r``.
    """
    m = len(var_order)
    f = e.compile(var_order)
    grads = [e.diff(v) for v in var_order]
    upper = {(i, j): grads[i].diff(var_order[j]) for i in range(m) for j in range(i, m)}
    jet = [e, *grads, *(upper[min(i, j), max(i, j)] for i in range(m) for j in range(m))]
    jets = {False: compile_nested(jet, var_order)}
    jets[True] = jets[False]
    if third_rows:
        r = third_rows
        d3 = {(a, b): [upper[a, b].diff(v) for v in var_order] for a in range(r) for b in range(a, r)}
        thirds = [d for a in range(r) for b in range(r) for d in d3[min(a, b), max(a, b)]]
        jets[True] = compile_nested(jet + thirds, var_order)
    return ScalarField(
        arity=m,
        fn=lambda p: float(f(p)),
        box=box,
        jet_fn=lambda p, with_third: np.array(jets[with_third](p), dtype=float),
    )


def catalog() -> dict:
    """Named closed-form fields used by numerics-hygiene tests."""
    return {
        "sin": ScalarField(1, lambda p: math.sin(p[0]), lambda p: np.array([math.cos(p[0])])),
        "cos": ScalarField(1, lambda p: math.cos(p[0]), lambda p: np.array([-math.sin(p[0])])),
        "gauss": ScalarField(
            1, lambda p: math.exp(-p[0] ** 2), lambda p: np.array([-2 * p[0] * math.exp(-p[0] ** 2)])
        ),
        "sin_sum": ScalarField(
            2, lambda p: math.sin(p[0]) + math.cos(p[1]), lambda p: np.array([math.cos(p[0]), -math.sin(p[1])])
        ),
    }
