"""Evaluable smooth scalar fields with derivatives up to the third order.

A generated field carries one closed-form jet closure, so that ``jet`` gets
the value, gradient, Hessian and third partials from one call, as one flat
array whose layout only this module defines (``jet_index``); a hand-written
field may carry a gradient closure.  A derivative with no
closed form is ``fd_jacobian`` (central differences, relative step
``FD_STEP``) of the order below.  This is the only module that knows whether
a derivative is closed-form, and ``fd_jacobian`` is the package's one
finite-difference routine.
"""

from __future__ import annotations

import itertools
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
        # a gradient: float tests beat a ufunc pass at this size
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

    ``fn`` takes a length-m vector, and in a field with a ``jet_fn`` also
    the list of its m floats, which is what ``value`` passes it.  A generated
    field also carries ``jet_fn(v, with_third)``, one closed-form pass: on a
    point, given as the list of its m floats, it returns the sequence of the
    value, the gradient and the Hessian row by row, then, when
    ``with_third`` and the field has them, the third partials
    ``d_c d_a d_b f`` for ``a, b`` among its first r variables and every
    ``c``, row by row.  A jet whose ``stacks`` attribute is true also answers
    an (N, m) array of points with an (N, s) array, one flat jet per row.  A
    hand-written field may carry ``grad_fn`` instead.  Every derivative
    without a closed form is ``fd_jacobian`` of the order below.

    ``jet`` is the one field pass the solvers read: that flat jet, its
    entries at the positions that ``jet_index`` gives, as the list of its
    floats for a point given as a list, and as an array for an array (one
    point or an (N, m) stack).  It is the only method that gives third
    partials; ``derivatives`` is views of its value, gradient and Hessian.
    """

    arity: int
    fn: Callable[[np.ndarray], float]
    grad_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    box: Optional[Box] = None
    jet_fn: Optional[Callable[[list, bool], Sequence[float]]] = None

    def __post_init__(self):
        # built once: the box check runs on every evaluation
        if self.box is not None:
            object.__setattr__(self, "_bounds", tuple((float(lo), float(hi)) for lo, hi in self.box))

    def _check_box(self, p, margin: np.ndarray | float = 0.0):
        """DomainError unless the point ``p`` (an array, or the list of its
        floats) lies ``margin`` inside the box."""
        if self.box is None:
            return
        # float comparisons: for a few coordinates much cheaper than array ones
        v = p.tolist() if isinstance(p, np.ndarray) else p
        if isinstance(margin, np.ndarray) or margin:
            h = margin.tolist() if isinstance(margin, np.ndarray) else [margin] * len(self._bounds)
            for x, d, (lo, hi) in zip(v, h, self._bounds):
                if x - d < lo or x + d > hi:
                    raise DomainError(f"point {v} (margin {h}) exits the domain box")
            return
        for x, (lo, hi) in zip(v, self._bounds):
            if x < lo or x > hi:
                raise DomainError(f"point {v} exits the domain box")

    def _jet(self, v: list, with_third: bool = False) -> list:
        """``jet_fn`` at the point ``v``, the list of its floats, after one box
        test of them and before one finiteness test of the floats it returns,
        as a list.  An overflow that Python's float ``**`` raises (numpy's
        returns inf) is non-finite too."""
        self._check_box(v)
        try:
            jet = self.jet_fn(v, with_third)
            # a finite sum has finite terms; only an inf or NaN term, or a
            # sum that overflows, needs the test term by term
            finite = math.isfinite(sum(jet)) or all(map(math.isfinite, jet))
        except OverflowError:
            finite = False
        if not finite:
            raise NonFiniteValue(f"non-finite field value at {v!r}")
        return list(jet)

    def _fd_grad(self, p: np.ndarray, r: Optional[int] = None) -> np.ndarray:
        return fd_jacobian(self.fn, p, r)[0]

    def value(self, point) -> float:
        """``fn`` at ``point``, after one box test of its floats.  A field
        with a ``jet_fn`` runs ``fn`` on those floats, as ``_jet`` runs its
        jet, and an overflow that Python's float ``**`` raises is non-finite."""
        p = np.asarray(point, dtype=float)
        v = p.tolist()
        self._check_box(v)
        try:
            f = float(self.fn(v if self.jet_fn is not None else p))
        except OverflowError:
            f = math.inf
        return _check_finite(f, p)

    def grad(self, point) -> np.ndarray:
        p = np.asarray(point, dtype=float)
        if self.jet_fn is not None:
            return np.array(self._jet(p.tolist())[1 : p.size + 1], dtype=float)
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
            return np.array(self._jet(p.tolist())[m + 1 : 1 + m + m * m], dtype=float).reshape(m, m)[:r, :r]
        h = _fd_steps(p)
        # differences of the FD gradient reach two steps from p
        self._check_box(p, h if self.grad_fn is not None else 2 * h)
        H = fd_jacobian(self.grad_fn or (lambda q: self._fd_grad(q, r)), p, r)[:r]
        H = 0.5 * (H + H.T)
        return _check_finite(H, p)

    def _fd_third(self, p: np.ndarray, r: int) -> np.ndarray:
        """Central differences of the Hessian's leading (r, r) block, in C
        order as the jet's own third partials; each probe p +- h e_c checks
        the box as ``hessian`` does."""
        D = fd_jacobian(lambda q: self._hessian_block(q, r).ravel(), p)
        return np.ascontiguousarray(D).reshape(r, r, p.size)

    def jet(self, point, third: int):
        """The flat jet of one field pass at ``point``: the value, the
        gradient, the Hessian row by row and, for ``third = r > 0``, the
        third partials ``d_c d_a d_b f`` for ``a, b < r`` and every ``c``,
        row by row; ``jet_index(m, r)`` gives the position of each entry.

        A point given as the list of its m floats gives the list of the
        jet's floats, with no array made on the way: the solvers' point
        path.  A 1-D array gives that list as an array.  With ``jet_fn`` it
        is one closed-form call with one box check and one finiteness check.
        A field without a jet stacks its ``value``, ``grad`` and ``hessian``,
        so every entry, FD margin and error is the one those methods give.
        Third partials that the jet does not carry for exactly r rows are
        central differences of the Hessian's leading (r, r) block, each probe
        checking the box as ``hessian`` does.

        An (N, m) stack of points gives an (N, s) array, one jet per row
        (see ``_stacked_jet``).
        """
        if not isinstance(point, list):
            p = np.asarray(point, dtype=float)
            if p.ndim == 2:
                return self._stacked_jet(p, third)
            return np.array(self.jet(p.tolist(), third), dtype=float)
        m = len(point)
        s = 1 + m + m * m
        if self.jet_fn is None:
            p = np.array(point, dtype=float)
            a = [self.value(p), *self.grad(p).tolist(), *self.hessian(p).ravel().tolist()]
        else:
            a = self._jet(point, bool(third))
            if len(a) == s + third * third * m:
                return a
        if third:
            return a[:s] + self._fd_third(np.array(point, dtype=float), third).ravel().tolist()
        return a

    def _stacked_jet(self, P: np.ndarray, third: int) -> np.ndarray:
        """``jet`` of each row of the (N, m) stack ``P``, one row each.  A
        jet that stacks answers the in-box rows in one call: a row outside
        the box is NaN, and an in-box row that is not finite raises
        NonFiniteValue.  Any other field, or a jet without the third
        partials asked for, runs its rows one by one through the 1-D
        ``jet``: a row that raises DomainError there is NaN, and the width
        is that of the first row that succeeds (``size`` when none does)."""
        N, m = P.shape
        size = 1 + m + m * m + third * third * m
        if getattr(self.jet_fn, "stacks", False):
            inside = np.ones(N, dtype=bool)
            if self.box is not None:
                lo, hi = np.array(self._bounds).T
                inside = ((P >= lo) & (P <= hi)).all(axis=1)
            if inside.all():
                a = self.jet_fn(P, bool(third))
            else:
                rows = self.jet_fn(P[inside], bool(third))
                a = np.full((N, rows.shape[1]), np.nan)
                a[inside] = rows
            bad = inside & ~np.isfinite(a).all(axis=1)
            if bad.any():
                raise NonFiniteValue(f"non-finite field value at {P[np.argmax(bad)]!r}")
            if a.shape[1] == size:
                return a
        a = None
        for i, p in enumerate(P):
            try:
                row = self.jet(p, third)
            except DomainError:
                continue
            if a is None:
                a = np.full((N, row.size), np.nan)
            a[i] = row
        return np.full((N, size), np.nan) if a is None else a

    def derivatives(self, point):
        """``(value, grad, hessian)`` at ``point``: views of ``jet(point, 0)``,
        the value a float.  An (N, m) stack of points gives each part with a
        leading axis of N rows."""
        p = np.asarray(point, dtype=float)
        a = self.jet(p, 0)
        m = p.shape[-1]
        rows = a.shape[:-1]
        return a[..., 0] if rows else float(a[0]), a[..., 1 : m + 1], a[..., m + 1 : 1 + m + m * m].reshape(rows + (m, m))


def jet_index(m: int, r: int):
    """The positions in a flat ``ScalarField.jet`` of m variables with r
    rows of third partials: ``(value, gradient, Hessian, third)``, the value
    an int and the others integer arrays of shape (m,), (m, m) and (r, r, m).
    A system reads its residual and Jacobian from one jet by such indices,
    through ``gather``."""
    s = 1 + m + m * m
    return 0, np.arange(1, m + 1), np.arange(m + 1, s).reshape(m, m), np.arange(s, s + r * r * m).reshape(r, r, m)


def gather(at, minus):
    """The reader of a system's entries by position, built once per system.

    ``read(*parts)`` joins the ``parts`` (jets, points or tuples of
    constants) end to end and returns the entries at the positions ``at``
    (a 1-D or 2-D integer array), less the entries at ``minus`` (of the
    same shape) unless it is None, in the shape of ``at``.  On a point each
    part is a sequence of floats, and the result is a list of floats (of
    row lists for a 2-D ``at``) with no array made.  On arrays, one flat
    vector or an (N, s) stack with each tuple of constants broadcast over
    the rows, it is ``a.take(at, -1) - a.take(minus, -1)``.  Python floats
    round each subtraction as numpy does, so from the same jets both paths
    give the same floats, bit for bit.
    """
    at = np.asarray(at, dtype=np.intp)
    minus = None if minus is None else np.asarray(minus, dtype=np.intp)
    # the point path is one generated expression of list displays, as
    # ``expr.compile_nested`` generates a jet: no call per entry
    entries = [f"a[{i}]" for i in at.ravel().tolist()]
    if minus is not None:
        entries = [f"{e} - a[{j}]" for e, j in zip(entries, minus.ravel().tolist())]
    width = at.shape[-1]
    rows = ["[" + ", ".join(entries[i : i + width]) + "]" for i in range(0, len(entries), width)]
    pick = eval("lambda a: " + (rows[0] if at.ndim == 1 else "[" + ", ".join(rows) + "]"), {})  # noqa: S307

    def read(*parts):
        a = parts[0]
        if isinstance(a, np.ndarray):
            if len(parts) > 1:
                # each part into its columns; a tuple of constants is broadcast
                ends = list(itertools.accumulate(len(p) if isinstance(p, tuple) else p.shape[-1] for p in parts))
                a = np.empty(a.shape[:-1] + (ends[-1],))
                for p, start, end in zip(parts, [0, *ends], ends):
                    a[..., start:end] = p
            out = a.take(at, -1)
            return out if minus is None else out - a.take(minus, -1)
        if len(parts) > 1:
            a = [*a]
            for p in parts[1:]:
                a += p
        return pick(a)

    return read


def flat_jet(closure: Callable) -> Callable:
    """A compiled flat jet (``expr.compile_nested`` of a flat list) that
    answers a point, the list of its floats, with the closure's own floats,
    and an (N, m) stack with an (N, s) array from one call on its
    coordinate rows, a constant entry broadcast to every row."""

    def jet(v):
        if isinstance(v, list):  # a point, as Python floats
            return closure(v)
        entries = closure(v.T)
        out = np.empty((len(entries), len(v)))
        for i, e in enumerate(entries):
            out[i] = e
        return out.T

    return jet


def field_from_expr(
    e: Expr, var_order: Sequence[str], box: Optional[Box] = None, third_rows: int = 0
) -> ScalarField:
    """Build a field with exact symbolic derivatives from an AST.

    ``jet_fn`` is the value, gradient and Hessian compiled into one flat
    closure; the Hessian is compiled from its upper triangle and mirrored, so
    it is exactly symmetric.  With ``third_rows = r > 0`` a second closure
    appends the third partials ``d_c d_a d_b f`` for ``a, b < r``.  A point
    runs the closure on Python floats, which round every operation as numpy
    scalars do, bit for bit; a stack runs it once on the coordinate rows.
    """
    m = len(var_order)
    f = e.compile(var_order)
    grads = [e.diff(v) for v in var_order]
    upper = {(i, j): grads[i].diff(var_order[j]) for i in range(m) for j in range(i, m)}
    jet = [e, *grads, *(upper[min(i, j), max(i, j)] for i in range(m) for j in range(m))]
    jets = {False: flat_jet(compile_nested(jet, var_order))}
    jets[True] = jets[False]
    if third_rows:
        r = third_rows
        d3 = {(a, b): [upper[a, b].diff(v) for v in var_order] for a in range(r) for b in range(a, r)}
        thirds = [d for a in range(r) for b in range(r) for d in d3[min(a, b), max(a, b)]]
        jets[True] = flat_jet(compile_nested(jet + thirds, var_order))

    def jet_fn(v, with_third):
        return jets[with_third](v)

    jet_fn.stacks = True
    return ScalarField(arity=m, fn=lambda p: float(f(p)), box=box, jet_fn=jet_fn)
