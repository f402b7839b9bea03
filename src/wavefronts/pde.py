"""Method of characteristics for time-dependent quasi-linear first-order PDEs.

The equation is  y_t + sum_i a_i(x, y, t) y_{x_i} - b(x, y, t) = 0  with
initial datum y(0, x) = phi(x).  Characteristics obey  x' = a, y' = b; the
variational system for d(x)/d(x0) is integrated alongside with the same RK4
steps so fold detection does not depend on grid spacing.  The sheet is
streamed: the integrator keeps the state, each strip's first fold and the
slices a caller asks for, never the whole (steps, strips) history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import BlowUp, DomainError, NonFiniteValue, SliceNotKept

# integrate_characteristics raises BlowUp once |x| or |y| exceeds this
BLOWUP = 1e3


@dataclass(frozen=True)
class BlockField:
    """A coefficient or datum of a ``QuasiLinearPDE``, evaluated on blocks.

    ``fn`` and ``grad_fn`` take an (arity, S) block, one column per strip,
    and broadcast over it: values to (S,), gradient rows to (arity, S), so a
    constant gradient may be an (arity,) vector.  ``box`` bounds each of the
    arity coordinates; only a datum may have one."""

    arity: int
    fn: Callable[[np.ndarray], np.ndarray]
    grad_fn: Callable[[np.ndarray], np.ndarray]
    box: Optional[Tuple[Tuple[float, float], ...]] = None


@dataclass(frozen=True)
class QuasiLinearPDE:
    """Coefficients a_1..a_n, b on (x_1..x_n, y, t) and initial datum phi(x).

    Each is a ``BlockField``, and anything else is refused.  Only ``phi``
    may have a domain box, checked at the strip starts: the RK4 steps never
    check the coefficients', so a boxed ``a[i]`` or ``b`` is refused.

    b is a constant zero where its ``fn`` returns a 0-d zero and its
    ``grad_fn`` an (arity,) vector of zeros; while it is, at every stage,
    y and dy/dx0 stay put and the RK4 steps advance only dx/dx0 and x."""

    n: int
    a: Sequence[BlockField]  # each arity n + 2, argument order (x..., y, t)
    b: BlockField
    phi: BlockField  # arity n

    def __post_init__(self):
        for name, field in [*((f"a[{i}]", ai) for i, ai in enumerate(self.a)), ("b", self.b), ("phi", self.phi)]:
            if not isinstance(field, BlockField):
                raise ValueError(f"{name} is not a BlockField: the characteristics need closed-form block gradients")
            if field.box is not None and name != "phi":
                raise ValueError(f"{name} has a domain box: the characteristics do not check a coefficient's box")


@dataclass
class GeometricSolutionSheet:
    """The slices of the characteristic sheet at the kept times, and the
    first fold time of every strip (NaN where det d(x)/d(x0) keeps its sign)."""

    pde: QuasiLinearPDE
    dt: float
    ts: np.ndarray  # (K,) the kept times, as the caller asked for them
    xs: np.ndarray  # (K, S, n)
    ys: np.ndarray  # (K, S)
    dets: np.ndarray  # (K, S)
    folds: np.ndarray  # (S,)


class _FullRows(Exception):
    """A pruned run of ``integrate_characteristics`` reached a stage where
    the rows it leaves out could move: it is rerun with every row."""


def _rhs(pde: QuasiLinearPDE, Z: np.ndarray, out: np.ndarray, work: np.ndarray, full: bool) -> None:
    """Batched characteristic + variational right-hand side, written to ``out``.

    Z has one column per strip and the rows [w (n) = dy/dx0; M (n * n,
    row-major) = dx/dx0; x (n); y; t], so that its last n + 2 rows are the
    field arguments (x, y, t), passed as a view; ``out`` has the same rows
    but t.  ``work`` is an (n, S) array for the products.  With ``full``
    false only the M and x rows are written, and _FullRows is raised
    unless b is a constant zero here (see ``_constant_zero``), as the rows
    left out assume; b is called either way.  Such a pruned call also
    leaves out each product g_k M_k whose a-gradient g is an (arity,) vector
    with g[k] == 0: adding that +-0 changes at most the sign of a zero in
    dM, which no M entry takes (they are never -0.0), as long as M is finite
    (see ``integrate_characteristics``).
    """
    n = pde.n
    P = Z[n * n + n :]
    w = Z[:n]
    M = Z[n : n * n + n].reshape(n, n, -1)
    dw = out[:n]
    dM = out[n : n * n + n].reshape(n, n, -1)
    for i, ai in enumerate(pde.a):
        out[n * n + n + i] = ai.fn(P)
        g = ai.grad_fn(P)
        skip = not full and isinstance(g, np.ndarray) and g.ndim == 1
        # dM_i. = sum_k a_i,x_k M_k. + a_i,y w
        np.multiply(g[n], w, out=dM[i])
        for k in range(n):
            if not (skip and g[k] == 0.0):
                dM[i] += np.multiply(g[k], M[k], out=work)
    value, g = pde.b.fn(P), pde.b.grad_fn(P)
    if not full:
        if not _constant_zero(value, g, n + 2):
            raise _FullRows
        return
    out[-1] = value
    # dw_j = sum_i M_ij b_x_i + b_y w_j
    np.multiply(g[n], w, out=dw)
    for i in range(n):
        dw += np.multiply(M[i], g[i], out=work)


def _constant_zero(value, grad, arity: int) -> bool:
    """Whether b returned a constant zero: a 0-d zero value and an
    (arity,) gradient of zeros.  A NaN is not zero."""
    # a float has no ndim, and a list or tuple is never == 0
    return getattr(value, "ndim", 0) == 0 and value == 0 and np.shape(grad) == (arity,) and not np.count_nonzero(grad)


def step_count(t_range, dt: float) -> int:
    """Number of fixed RK4 steps ``integrate_characteristics`` takes."""
    return max(1, int(round((float(t_range[1]) - float(t_range[0])) / dt)))


def _datum(phi: BlockField, X0: np.ndarray):
    """phi's values (S,) and gradient columns (n, S) at the strip starts X0
    (S, n), evaluated on the whole block, with one box check and one
    finiteness check: DomainError names the first start outside phi's box,
    and NonFiniteValue the first start where a value or gradient entry is
    not finite."""
    if phi.box is not None:
        lo, hi = np.array(phi.box, dtype=float).T
        outside = ((X0 < lo) | (X0 > hi)).any(axis=1)
        if outside.any():
            raise DomainError(f"strip start {X0[np.argmax(outside)].tolist()} exits the datum's domain box")
    y = np.asarray(phi.fn(X0.T), dtype=float)
    g = np.asarray(phi.grad_fn(X0.T), dtype=float).reshape(phi.arity, -1)
    bad = ~(np.isfinite(y) & np.isfinite(g).all(axis=0))
    if bad.any():
        raise NonFiniteValue(f"non-finite field value at {X0[np.argmax(bad)]!r}")
    return y, g


def integrate_characteristics(
    pde: QuasiLinearPDE,
    x0_grid: Sequence,
    t_range,
    dt: float,
    keep: Sequence[float],
) -> GeometricSolutionSheet:
    """Fixed-step RK4 from the datum at t = 0 to ``t_range[1]``, all strips
    at once; ``t_range[0]`` must be 0.

    The state of all strips is one packed array (see ``_rhs``); the stages
    are preallocated and written in place.  While b is a constant zero (see
    ``QuasiLinearPDE``) only the dx/dx0 and x rows are advanced, with no
    product of a's exact-zero x-gradient entries (see ``_rhs``), and the
    blow-up test reads |x| and the datum's |y|.  A stage that finds b
    nonzero, a step that leaves dx/dx0 not finite, or an overflow (the run
    is under ``np.errstate(over="raise")``) has the run redone from the
    datum with every row, and so has a datum with a y of -0.0 from the
    start, so the sheet is always the one every row gives.  Every stage's
    dx/dx0 is thus finite where a product is left out, as the full rows'
    ``0 * M`` needs to be zero: the step starts from a finite one, and a
    stage is the step's start plus a multiple of a K; it is not finite only
    where that multiple or the sum overflows, or where K is not finite,
    which leaves the step's own dx/dx0 not finite.

    For each time in ``keep`` (each in ``[0, t_range[1]]``, or up to the
    last step's time where that is later) the sheet holds the (x, y, det)
    slice at the nearest step, the one minimising ``|ts - t|`` over the
    accumulated step times ``ts``.  Nothing else of the history is stored.
    Each strip's fold time is the root ``ta + (tb - ta) * da / (da - db)``
    of the linear interpolant over its first step ``[ta, tb]`` on which det
    goes from ``da`` to ``db`` of the strictly opposite sign.  A step that
    leaves |x| or |y| above ``BLOWUP`` raises BlowUp, naming the strip with
    the largest of them; one that leaves a NaN in x, y or det raises
    NonFiniteValue.
    """
    if float(t_range[0]) != 0.0:
        raise ValueError(f"the datum is at t = 0, but t_range starts at {t_range[0]}")
    steps = step_count(t_range, dt)
    # np.cumsum adds in order, so these are the values of the running t below
    ts = np.concatenate(([0.0], np.cumsum(np.full(steps, dt))))
    keep = np.asarray(keep, dtype=float).reshape(-1)
    t_last = max(float(t_range[1]), ts[-1])
    if not ((keep >= 0) & (keep <= t_last)).all():
        raise ValueError(f"kept times must lie in [0, {t_last}]")
    rows = {}  # step -> the kept rows it fills
    for r, t_keep in enumerate(keep):
        rows.setdefault(int(np.argmin(np.abs(ts - t_keep))), []).append(r)

    n = pde.n
    X0 = np.asarray(x0_grid, dtype=float).reshape(-1, n)
    S = len(X0)
    y0, w0 = _datum(pde.phi, X0)
    XS = np.empty((keep.size, S, n))
    YS = np.empty((keep.size, S))
    DETS = np.empty((keep.size, S))

    def march(full: bool) -> np.ndarray:
        """The steps from the datum, filling the kept slices; returns the
        fold times.  With ``full`` false RK4 advances only the M and x rows
        and raises _FullRows where those could differ from all rows'."""
        # the packed state (see _rhs), the stage state, and their rows that
        # RK4 advances: all but t, or only M and x while b is a constant zero
        Z = np.empty((2 * n + 2 + n * n, S))
        w, M, x, y, xy = Z[:n], Z[n : n * n + n].reshape(n, n, S), Z[n * n + n : -2], Z[-2], Z[n * n + n : -1]
        M[...] = np.eye(n)[:, :, None]
        x[...] = X0.T
        y[...], w[...] = y0, w0
        Zs = Z.copy()  # its w and y rows stay those of Z in a pruned run
        state, stage = (Z[:-1], Zs[:-1]) if full else (Z[n:-2], Zs[n:-2])
        Ks = [np.empty((2 * n + 1 + n * n, S)) for _ in range(4)]
        K1, K2, K3, K4 = (K if full else K[n:-1] for K in Ks)
        work = np.empty((n, S))
        # |y| of a pruned run, whose y stays the datum's
        y_big = None if full else np.max(np.abs(y))
        folds = np.full(S, np.nan)
        unfolded = np.ones(S, dtype=bool)

        def det():
            return M[0, 0].copy() if n == 1 else np.linalg.det(M.transpose(2, 0, 1))

        def record(step, d):
            for r in rows.get(step, ()):
                XS[r] = x.T
                YS[r] = y
                DETS[r] = d

        d = det()
        sign, sign_next, change = np.sign(d), np.empty(S), np.empty(S)
        record(0, d)
        for step in range(1, steps + 1):
            t = ts[step - 1]
            Z[-1] = t
            _rhs(pde, Z, Ks[0], work, full)
            np.multiply(K1, dt / 2, out=stage)
            stage += state
            Zs[-1] = t + dt / 2
            _rhs(pde, Zs, Ks[1], work, full)
            np.multiply(K2, dt / 2, out=stage)
            stage += state
            _rhs(pde, Zs, Ks[2], work, full)
            np.multiply(K3, dt, out=stage)
            stage += state
            Zs[-1] = t + dt
            _rhs(pde, Zs, Ks[3], work, full)
            # Z += dt / 6 * (K1 + 2 K2 + 2 K3 + K4)
            K2 *= 2
            K1 += K2
            K3 *= 2
            K1 += K3
            K1 += K4
            K1 *= dt / 6
            state += K1
            # np.max and np.min propagate NaN, so one pass over (x, y) and one
            # over the sign changes of det find it; max keeps a NaN first argument
            big = np.max(np.abs(xy)) if full else max(np.max(np.abs(x)), y_big)
            if big > BLOWUP:
                worst = int(np.argmax(np.max(np.abs(xy), axis=0)))
                raise BlowUp(f"trajectory from x0={X0[worst]!r} exceeded {BLOWUP} at t={ts[step]}")
            if not full and not np.isfinite(M).all():
                # all rows' w would take b's zero gradient times inf: NaN
                raise _FullRows
            d_next = det()
            # the sign changes of det, NaN where it is NaN
            np.sign(d_next, out=sign_next)
            least = np.min(np.multiply(sign, sign_next, out=change))
            if np.isnan(big + least):
                worst = int(np.argmax(np.isnan(xy).any(axis=0) | np.isnan(d_next)))
                raise NonFiniteValue(f"trajectory from x0={X0[worst]!r} is NaN at t={ts[step]}")
            if least < 0:
                # a first strict sign change: +1 against -1 (a zero is neither)
                i = np.flatnonzero((change < 0) & unfolded)
                ta, tb = ts[step - 1], ts[step]
                da, db = d[i], d_next[i]
                folds[i] = ta + (tb - ta) * da / (da - db)
                unfolded[i] = False
            record(step, d_next)
            d, sign, sign_next = d_next, sign_next, sign
        return folds

    folds = None
    # all rows add b's zero to y, which turns a -0.0 into 0.0 that a reads;
    # w's zeros may change sign too, but w reaches the sheet only through
    # additions to M, whose entries are never -0.0
    if not np.signbit(y0[y0 == 0]).any():
        try:
            # a pruned stage that overflows is given up: see the docstring
            with np.errstate(over="raise"):
                folds = march(full=False)
        except (_FullRows, FloatingPointError):
            pass  # rerun below, once the given-up run's arrays are freed
    if folds is None:
        folds = march(full=True)
    return GeometricSolutionSheet(pde=pde, dt=dt, ts=keep, xs=XS, ys=YS, dets=DETS, folds=folds)


def breaking_time(sheet: GeometricSolutionSheet) -> Optional[float]:
    """Earliest t at which some strip's variational determinant crosses zero."""
    folded = sheet.folds[~np.isnan(sheet.folds)]
    return float(np.min(folded)) if folded.size else None


def _kept(sheet: GeometricSolutionSheet, t: float) -> int:
    """Index of the slice kept for time ``t``; SliceNotKept if none was."""
    hit = np.flatnonzero(sheet.ts == t)
    if hit.size == 0:
        raise SliceNotKept(f"no slice kept at t = {t}: the sheet keeps {sheet.ts.size} other times")
    return int(hit[0])


def multivalued_count(sheet: GeometricSolutionSheet, x_hat: float, t: float) -> int:
    """Number of characteristics through position x_hat at the kept time t (n = 1).

    Counted by bracketing sign changes of x(x0, t) - x_hat over the strip
    grid: each exact zero, and each change of sign between neighbouring
    nonzero samples (a NaN differs from everything, itself included), counts
    once; fold tangencies are counted once.
    """
    if sheet.pde.n != 1:
        raise ValueError("multivalued counting is defined for n = 1")
    s = np.sign(sheet.xs[_kept(sheet, t), :, 0] - x_hat)
    changes = (s[1:] != s[:-1]) & (s[1:] != 0) & (s[:-1] != 0)
    return int(np.count_nonzero(s == 0) + np.count_nonzero(changes))


def sheet_values(sheet: GeometricSolutionSheet, t: float) -> np.ndarray:
    """(x, y) samples of the geometric solution at the kept time t (n = 1)."""
    i = _kept(sheet, t)
    return np.stack([sheet.xs[i, :, 0], sheet.ys[i]], axis=1)


def _sine_datum_pde(a: BlockField) -> QuasiLinearPDE:
    """y_t + a y_x = 0 with y(0, x) = sin x."""
    b = BlockField(arity=3, fn=lambda p: 0.0, grad_fn=lambda p: np.zeros(3))
    phi = BlockField(arity=1, fn=lambda p: np.sin(p[0]), grad_fn=lambda p: np.cos(p[:1]))
    return QuasiLinearPDE(n=1, a=(a,), b=b, phi=phi)


def burgers(speed: float = 2.0) -> QuasiLinearPDE:
    """y_t + speed * y * y_x = 0 with y(0, x) = sin x."""
    return _sine_datum_pde(
        BlockField(arity=3, fn=lambda p: speed * p[1], grad_fn=lambda p: np.array([0.0, speed, 0.0]))
    )


def transport() -> QuasiLinearPDE:
    """y_t + y_x = 0 with y(0, x) = sin x."""
    return _sine_datum_pde(BlockField(arity=3, fn=lambda p: 1.0, grad_fn=lambda p: np.zeros(3)))
