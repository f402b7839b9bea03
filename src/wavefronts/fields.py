"""Evaluable smooth scalar fields with derivatives up to the third order.

A field carries optional closed-form gradient/Hessian/third-partial closures;
when one is absent, ``fd_jacobian`` (central differences, relative step
``FD_STEP``) of the order below is used.  A field may also carry a fused jet
closure, so that ``derivatives`` gets the value, gradient, Hessian and third
partials from one call.  This is the only module that knows whether a
derivative is closed-form, and ``fd_jacobian`` is the package's one
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

    ``fn`` takes a length-m vector.  ``grad_fn``/``hess_fn`` are optional
    closed-form closures; ``fd_jacobian`` is the fallback.  The optional
    ``third_fn`` returns the third partials ``d_c d_a d_b f`` for ``a, b`` among
    the first r variables and every ``c``, as an (r, r, m) array; without it
    ``third`` differences the leading block of the Hessian.  The optional
    ``jet_fn(p, with_third)`` is the fused closed form of all of them: a new
    flat array holding the value, the gradient, the Hessian row by row and,
    when ``with_third`` (only asked of a field with ``third_fn``), the third
    partials of ``third_fn`` row by row, each bit for bit equal to its own
    closure.
    """

    arity: int
    fn: Callable[[np.ndarray], float]
    grad_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    box: Optional[Box] = None
    third_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
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
                raise DomainError(f"point {p!r} (margin {margin!r}) exits the domain box")

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
        if self.hess_fn is not None:
            self._check_box(p)
            return np.asarray(_check_finite(self.hess_fn(p), p), dtype=float)[:r, :r]
        h = _fd_steps(p)
        # differences of the FD gradient reach two steps from p
        self._check_box(p, h if self.grad_fn is not None else 2 * h)
        H = fd_jacobian(self.grad_fn or (lambda q: self._fd_grad(q, r)), p, r)[:r]
        H = 0.5 * (H + H.T)
        return _check_finite(H, p)

    def third(self, point, rows: Optional[int] = None) -> np.ndarray:
        """The (r, r, m) third partials ``d_c d_a d_b f``: ``third_fn`` (its
        own r), else central differences of the Hessian's leading (r, r)
        block with r = ``rows`` (default m)."""
        p = np.asarray(point, dtype=float)
        if self.third_fn is not None:
            self._check_box(p)
            return np.asarray(_check_finite(self.third_fn(p), p), dtype=float)
        # each probe p +- h e_c checks the box as ``hessian`` does
        r = p.size if rows is None else rows
        return fd_jacobian(lambda q: self._hessian_block(q, r).ravel(), p).reshape(r, r, p.size)

    def derivatives(self, point, third: int = 0):
        """``(value, grad, hessian, third partials or None)`` at ``point``.

        ``third = r > 0`` also asks for the third partials ``third(point, r)``.
        With ``jet_fn`` the closed-form part is one call with one box check and
        one finiteness check; the rest comes from the separate methods, so
        every entry, FD margin and error is the one they give.
        """
        p = np.asarray(point, dtype=float)
        if self.jet_fn is None:
            return self.value(p), self.grad(p), self.hessian(p), (self.third(p, third) if third else None)
        fused_third = bool(third) and self.third_fn is not None
        self._check_box(p)
        a = _check_finite(self.jet_fn(p, fused_third), p)
        m = p.size
        s = 1 + m + m * m
        T = None
        if fused_third:
            T = a[s:].reshape(-1, m)
            r = math.isqrt(T.shape[0])
            T = T.reshape(r, r, m)
        elif third:
            T = self.third(p, third)
        return float(a[0]), a[1 : m + 1], a[m + 1 : s].reshape(m, m), T


def field_from_expr(
    e: Expr, var_order: Sequence[str], box: Optional[Box] = None, third_rows: int = 0
) -> ScalarField:
    """Build a field with exact symbolic derivatives from an AST.

    Each derivative order is one fused closure, and ``jet_fn`` compiles the
    same expressions into one flat closure.  The Hessian is compiled from its
    upper triangle and mirrored, so it is exactly symmetric.  With
    ``third_rows = r > 0`` the field also carries the third partials
    ``d_c d_a d_b f`` for ``a, b < r`` (``third_fn``).
    """
    m = len(var_order)
    f = e.compile(var_order)
    grads = [e.diff(v) for v in var_order]
    upper = {(i, j): grads[i].diff(var_order[j]) for i in range(m) for j in range(i, m)}
    hess = [[upper[min(i, j), max(i, j)] for j in range(m)] for i in range(m)]
    g = compile_nested(grads, var_order)
    h = compile_nested(hess, var_order)
    jet = [e, *grads, *(d for row in hess for d in row)]
    jets = {False: compile_nested(jet, var_order)}
    third_fn = None
    if third_rows:
        r = third_rows
        d3 = {(a, b): [upper[a, b].diff(v) for v in var_order] for a in range(r) for b in range(a, r)}
        thirds = [[d3[min(a, b), max(a, b)] for b in range(r)] for a in range(r)]
        t = compile_nested(thirds, var_order)
        jets[True] = compile_nested(jet + [d for row in thirds for col in row for d in col], var_order)

        def third_fn(p):
            return np.array(t(p), dtype=float)

    return ScalarField(
        arity=m,
        fn=lambda p: float(f(p)),
        grad_fn=lambda p: np.array(g(p), dtype=float),
        hess_fn=lambda p: np.array(h(p), dtype=float),
        box=box,
        third_fn=third_fn,
        jet_fn=lambda p, with_third: np.array(jets[with_third](p), dtype=float),
    )


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
