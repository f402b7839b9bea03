"""Evaluable smooth scalar fields with derivatives up to the third order.

A field is its closed-form jet closure, so that ``jet`` gets the value,
gradient, Hessian and, where the closure has them, the third partials from
one call, as one flat array whose layout only this module defines
(``jet_index``).  Third partials that a jet does not carry are
``fd_jacobian`` (central differences, relative step ``FD_STEP``) of its
Hessian.  This is the only module that knows whether a derivative is
closed-form, and ``fd_jacobian`` is the package's one finite-difference
routine.

A point's jet is the list that one ``jet_fn`` call returns, after one box
test and before one finiteness test, and a system reads its residual and
Jacobian from its jets by one ``gather`` reader: on a point one generated
expression over the jets' floats with its constants as float literals, on
a stack ``take`` with the constants written in or subtracted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, NonFiniteValue
from .expr import Expr, compile_nested

FD_STEP = 1e-5
# the names that ``repr`` writes for the non-finite floats, in the scope of
# generated code that has floats as literals
_LITERALS = {"inf": math.inf, "nan": math.nan}


@functools.lru_cache(maxsize=256)
def _compiled(source: str):
    """The code object of generated source, compiled once per distinct text:
    the same box or system built again (a family per command, a front per
    t) compiles nothing."""
    return compile(source, "<generated>", "exec")


def _generated(source: str, name: str, scope: dict) -> Callable:
    """The function ``name`` that ``source`` defines, run in ``scope`` and
    ``_LITERALS``."""
    scope = {**scope, **_LITERALS}
    exec(_compiled(source), scope)  # noqa: S102
    return scope[name]

Box = Tuple[Tuple[float, float], ...]


def fd_jacobian(fn: Callable, p) -> np.ndarray:
    """Central finite-difference Jacobian of a scalar- or vector-valued ``fn``.

    The step is ``FD_STEP * max(1, |p_i|)`` per coordinate; the result has one
    row per output component (a single row for scalar ``fn``) and one column
    per coordinate.
    """
    p = np.asarray(p, dtype=float)
    h = FD_STEP * np.maximum(1.0, np.abs(p))
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

    ``fn`` is the value alone, on a point given as the list of its m floats
    (which is what ``value`` passes it) or as a 1-D array.
    ``jet_fn(v, with_third)`` is one closed-form pass: on a point, given as
    the list of its m floats, it returns the list of the value, the
    gradient and the Hessian row by row, then, when ``with_third`` and the
    field has them, the third partials ``d_c d_a d_b f`` for ``a, b`` among
    its first r variables and every ``c``, row by row.  A jet whose
    ``stacks`` attribute is true also answers an (N, m) array of points with
    an (N, s) array, one flat jet per row.

    ``jet`` is the one field pass the solvers read: that flat jet, its
    entries at the positions that ``jet_index`` gives, as the list of its
    floats for a point given as a list, and as an array for an array (one
    point or an (N, m) stack).  It is the only method that gives third
    partials; ``value``, ``grad`` and ``hessian`` are parts of one jet, and
    ``derivatives`` is views of its value, gradient and Hessian.
    """

    arity: int
    fn: Callable[[Sequence[float]], float]
    jet_fn: Callable[[list, bool], Sequence[float]]
    box: Optional[Box] = None

    def __post_init__(self):
        # built once: the box check runs on every evaluation
        bounds = () if self.box is None else tuple((float(lo), float(hi)) for lo, hi in self.box)
        object.__setattr__(self, "_bounds", bounds)
        # a point's box test, one generated expression of float comparisons
        # with the bounds as literals (a NaN coordinate is not outside)
        test = " or ".join(f"v[{i}] < {lo!r} or v[{i}] > {hi!r}" for i, (lo, hi) in enumerate(bounds))
        object.__setattr__(self, "_outside", _generated(f"def outside(v):\n    return {test or False}\n", "outside", {}))
        object.__setattr__(self, "_size", 1 + self.arity + self.arity * self.arity)

    def _check_floats(self, v: list):
        """DomainError unless the point ``v``, the list of its floats, lies
        in the box (if any): the box test of a point path."""
        if self._outside(v):
            raise DomainError(f"point {v} exits the domain box")

    def value(self, point) -> float:
        """``fn`` at ``point``, run on the list of its floats after one box
        test of them, as ``jet`` runs the jet; an overflow that Python's
        float ``**`` raises is non-finite."""
        p = np.asarray(point, dtype=float)
        v = p.tolist()
        self._check_floats(v)
        try:
            f = float(self.fn(v))
        except OverflowError:
            f = math.inf
        if not math.isfinite(f):
            raise NonFiniteValue(f"non-finite field value at {p!r}")
        return f

    def grad(self, point) -> np.ndarray:
        p = np.asarray(point, dtype=float)
        return np.array(self.jet(p.tolist(), 0)[1 : p.size + 1], dtype=float)

    def hessian(self, point) -> np.ndarray:
        p = np.asarray(point, dtype=float)
        return self._hessian_block(p, p.size)

    def _hessian_block(self, p: np.ndarray, r: int) -> np.ndarray:
        """The leading (r, r) block of ``hessian(p)``, with the same box and
        finiteness checks."""
        m = p.size
        return np.array(self.jet(p.tolist(), 0)[m + 1 : 1 + m + m * m], dtype=float).reshape(m, m)[:r, :r]

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

        A point given as the list of its m floats gives the list that
        ``jet_fn`` returns, with no array made and no copy: the solvers'
        point path, which is this one function, one box test of the floats
        (DomainError), one ``jet_fn`` call and one finiteness test of what
        it returns (NonFiniteValue, also for an overflow that Python's float
        ``**`` raises where numpy's returns inf).  A 1-D array gives that
        list as an array.  Third partials that the jet does not carry for
        exactly r rows are central differences of the Hessian's leading
        (r, r) block, each probe checking the box as ``hessian`` does.

        An (N, m) stack of points gives an (N, s) array, one jet per row
        (see ``_stacked_jet``).
        """
        if not isinstance(point, list):
            p = np.asarray(point, dtype=float)
            if p.ndim == 2:
                return self._stacked_jet(p, third)
            return np.array(self.jet(p.tolist(), third), dtype=float)
        if self._outside(point):
            raise DomainError(f"point {point} exits the domain box")
        try:
            a = self.jet_fn(point, third > 0)
            # a finite sum has finite terms; only an inf or NaN term, or a
            # sum that overflows, needs the test term by term
            finite = math.isfinite(sum(a)) or all(map(math.isfinite, a))
        except OverflowError:
            finite = False
        if not finite:
            raise NonFiniteValue(f"non-finite field value at {point!r}")
        if len(a) == self._size + third * third * self.arity:
            return a
        return a[: self._size] + self._fd_third(np.array(point, dtype=float), third).ravel().tolist()

    def _stacked_jet(self, P: np.ndarray, third: int) -> np.ndarray:
        """``jet`` of each row of the (N, m) stack ``P``, one row each.  A
        jet that stacks answers the in-box rows in one call: a row outside
        the box is NaN, and an in-box row that is not finite raises
        NonFiniteValue.  A jet that does not stack, or one without the third
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


def gather(residual, jacobian, width: int, constants: dict):
    """The reader of one system, built once: ``read(*jets)`` returns the
    system's ``(residual, J)`` from the jets of one evaluate, in one call.

    ``residual`` and ``jacobian`` are each a pair ``(at, minus)`` of integer
    arrays of positions, 1-D for the residual and 2-D for J, ``minus`` of
    the same shape or None: each entry is the one at ``at`` less the one at
    ``minus``.  A position is a key of ``constants``, which gives that
    constant, or entry ``p % width`` of jet ``p // width``.  Subtracting a
    +0.0 is no subtraction: ``x - 0.0`` is ``x``, signed zeros included.

    On a point each jet is a sequence of floats, and ``read`` is one
    generated expression of list displays over them, as
    ``expr.compile_nested`` generates a jet, with each constant written as
    its float literal (``repr`` of a float round-trips it): a list and a
    list of row lists, with no call per entry, no constant joined onto a
    jet and no array made.  On arrays, each jet one flat vector or an
    (N, width) stack, the jets are concatenated when there are several;
    the entries are taken, a constant at ``at`` is written over its column
    in place, and the constants at ``minus`` are subtracted from the taken
    entries as one row broadcast over the stack when no jet entry is
    subtracted.  Python floats round each subtraction as numpy does, so
    from the same jets both paths give the same floats, bit for bit.
    """
    constants = {int(p): float(c) for p, c in constants.items()}

    def operand(p: int) -> str:
        return repr(constants[p]) if p in constants else f"a{p // width}[{p % width}]"

    def entries(at, minus) -> str:
        at = np.asarray(at, dtype=np.intp)
        subtracted = [None] * at.size if minus is None else np.asarray(minus, dtype=np.intp).ravel().tolist()
        out = []
        for p, q in zip(at.ravel().tolist(), subtracted):
            plus_zero = q in constants and constants[q] == 0.0 and math.copysign(1.0, constants[q]) > 0
            out.append(operand(p) if q is None or plus_zero else f"{operand(p)} - {operand(q)}")
        if at.ndim == 1:
            return "[" + ", ".join(out) + "]"
        w = at.shape[-1]
        return "[" + ", ".join("[" + ", ".join(out[i : i + w]) + "]" for i in range(0, len(out), w)) + "]"

    positions = [np.ravel(t).tolist() for part in (residual, jacobian) for t in part if t is not None]
    jets = 1 + max(p for ps in positions for p in ps if p not in constants) // width
    names = ", ".join(f"a{j}" for j in range(jets))
    res_stack, jac_stack = _stacked_take(*residual, constants), _stacked_take(*jacobian, constants)

    def stacked(*parts):
        a = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
        return res_stack(a), jac_stack(a)

    # one function for both paths: a point costs this one call
    source = (
        f"def read({names}):\n"
        f"    if isinstance(a0, ndarray):\n"
        f"        return stacked({names})\n"
        f"    return {entries(*residual)}, {entries(*jacobian)}\n"
    )
    return _generated(source, "read", {"ndarray": np.ndarray, "stacked": stacked})


def _stacked_take(at, minus, constants: dict):
    """``gather``'s array path of one part: ``take(a)`` is the entries of
    the array ``a`` (last axis) at ``at`` less those at ``minus``, with
    the positions in ``constants`` read as those constants."""

    def split(positions):
        positions = np.asarray(positions, dtype=np.intp)
        flat = positions.ravel().tolist()
        const = np.array([p in constants for p in flat], dtype=bool).reshape(positions.shape)
        values = np.array([constants.get(p, 0.0) for p in flat]).reshape(positions.shape)
        return np.where(const, 0, positions), const, values

    P, const_p, values_p = split(at)
    written = bool(const_p.any())
    if minus is not None:
        M, const_m, values_m = split(minus)
        if (const_m & (values_m == 0.0) & ~np.signbit(values_m)).all():
            minus = None  # x - 0.0 is x
        only_constants, some_constants = bool(const_m.all()), bool(const_m.any())

    def take(a):
        out = a.take(P, -1)
        if written:
            np.copyto(out, values_p, where=const_p)
        if minus is None:
            return out
        if only_constants:
            return out - values_m
        m = a.take(M, -1)
        if some_constants:
            np.copyto(m, values_m, where=const_m)
        return out - m

    return take


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
    closures = {False: compile_nested(jet, var_order)}
    closures[True] = closures[False]
    if third_rows:
        r = third_rows
        d3 = {(a, b): [upper[a, b].diff(v) for v in var_order] for a in range(r) for b in range(a, r)}
        thirds = [d for a in range(r) for b in range(r) for d in d3[min(a, b), max(a, b)]]
        closures[True] = compile_nested(jet + thirds, var_order)
    stacks = {key: flat_jet(closure) for key, closure in closures.items()}

    def jet_fn(v, with_third):
        # a point runs its closure itself, a stack through ``flat_jet``
        return (closures if isinstance(v, list) else stacks)[with_third](v)

    jet_fn.stacks = True
    return ScalarField(arity=m, fn=lambda p: float(f(p)), box=box, jet_fn=jet_fn)
