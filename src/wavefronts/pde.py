"""Method of characteristics for time-dependent quasi-linear first-order PDEs.

The equation is  y_t + sum_i a_i(x, y, t) y_{x_i} - b(x, y, t) = 0  with
initial datum y(0, x) = phi(x).  Characteristics obey  x' = a, y' = b; the
variational system for d(x)/d(x0) is integrated alongside with the same RK4
steps so fold detection does not depend on grid spacing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import BlowUp
from .fields import ScalarField


@dataclass(frozen=True)
class QuasiLinearPDE:
    """Coefficients a_1..a_n, b on (x_1..x_n, y, t) and initial datum phi(x)."""

    n: int
    a: Sequence[ScalarField]  # each arity n + 2, argument order (x..., y, t)
    b: ScalarField
    phi: ScalarField  # arity n


@dataclass
class CharacteristicStrip:
    x0: np.ndarray
    ts: np.ndarray  # (S,)
    xs: np.ndarray  # (S, n)
    ys: np.ndarray  # (S,)
    dets: np.ndarray  # (S,) det of dx/dx0 along the strip


@dataclass
class GeometricSolutionSheet:
    pde: QuasiLinearPDE
    strips: List[CharacteristicStrip]
    dt: float


def _batch_value(field: ScalarField, P: np.ndarray) -> np.ndarray:
    """Evaluate ``field.fn`` on columns of P (arity, S); vectorized closures
    get the whole block, anything else falls back to a per-column loop."""
    S = P.shape[1]
    try:
        v = np.asarray(field.fn(P), dtype=float)
        if v.ndim == 0:
            return np.full(S, float(v))
        if v.shape == (S,):
            return v
    except Exception:
        pass
    return np.array([field.fn(P[:, j]) for j in range(S)], dtype=float)


def _batch_grad(field: ScalarField, P: np.ndarray) -> np.ndarray:
    """(S, arity) gradient block, with the same fallback as _batch_value."""
    S = P.shape[1]
    m = field.arity
    if field.grad_fn is not None:
        try:
            g = np.asarray(field.grad_fn(P), dtype=float)
            if g.shape == (m,):
                return np.broadcast_to(g, (S, m)).copy()
            if g.shape == (m, S):
                return g.T.copy()
        except Exception:
            pass
    return np.array([field.grad(P[:, j]) for j in range(S)], dtype=float)


def _rhs(pde: QuasiLinearPDE, x, y, M, w, t):
    """Batched characteristic + variational right-hand side.

    Shapes: x (S, n), y (S,), M (S, n, n) = dx/dx0, w (S, n) = dy/dx0.
    """
    n = pde.n
    P = np.vstack([x.T, y[None, :], np.full((1, len(y)), t)])  # (n+2, S)
    avec = np.stack([_batch_value(ai, P) for ai in pde.a], axis=1)  # (S, n)
    bval = _batch_value(pde.b, P)  # (S,)
    agrad = np.stack([_batch_grad(ai, P) for ai in pde.a], axis=1)  # (S, n, n+2)
    bgrad = _batch_grad(pde.b, P)  # (S, n+2)
    ax = agrad[:, :, :n]  # (S, n, n)
    ay = agrad[:, :, n]  # (S, n)
    bx = bgrad[:, :n]  # (S, n)
    by = bgrad[:, n]  # (S,)
    dM = ax @ M + ay[:, :, None] * w[:, None, :]
    dw = np.einsum("sji,sj->si", M, bx) + by[:, None] * w
    return avec, bval, dM, dw


def integrate_characteristics(
    pde: QuasiLinearPDE,
    x0_grid: Sequence,
    t_range,
    dt: float = 1e-3,
    blowup: float = 1e3,
) -> GeometricSolutionSheet:
    """Fixed-step RK4 over t in [t_range[0], t_range[1]], all strips at once."""
    t0, t1 = float(t_range[0]), float(t_range[1])
    steps = max(1, int(round((t1 - t0) / dt)))
    n = pde.n
    X0 = np.array([np.atleast_1d(np.asarray(x, dtype=float)) for x in x0_grid])
    S = len(X0)
    x = X0.copy()
    y = np.array([pde.phi.value(p) for p in X0])
    M = np.broadcast_to(np.eye(n), (S, n, n)).copy()
    w = np.array([pde.phi.grad(p) for p in X0])
    ts = [t0]
    xs_hist = [x.copy()]
    ys_hist = [y.copy()]
    det_hist = [np.linalg.det(M)]
    t = t0
    for _ in range(steps):
        k1 = _rhs(pde, x, y, M, w, t)
        k2 = _rhs(pde, x + dt / 2 * k1[0], y + dt / 2 * k1[1], M + dt / 2 * k1[2], w + dt / 2 * k1[3], t + dt / 2)
        k3 = _rhs(pde, x + dt / 2 * k2[0], y + dt / 2 * k2[1], M + dt / 2 * k2[2], w + dt / 2 * k2[3], t + dt / 2)
        k4 = _rhs(pde, x + dt * k3[0], y + dt * k3[1], M + dt * k3[2], w + dt * k3[3], t + dt)
        x = x + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        y = y + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        M = M + dt / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        w = w + dt / 6 * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
        t += dt
        if np.max(np.abs(x)) > blowup or np.max(np.abs(y)) > blowup:
            worst = int(np.argmax(np.max(np.abs(x), axis=1)))
            raise BlowUp(f"trajectory from x0={X0[worst]!r} exceeded {blowup} at t={t}")
        ts.append(t)
        xs_hist.append(x.copy())
        ys_hist.append(y.copy())
        det_hist.append(np.linalg.det(M))
    ts_arr = np.array(ts)
    XS = np.stack(xs_hist)  # (T, S, n)
    YS = np.stack(ys_hist)  # (T, S)
    DETS = np.stack(det_hist)  # (T, S)
    strips = [
        CharacteristicStrip(
            x0=X0[j], ts=ts_arr, xs=XS[:, j, :], ys=YS[:, j], dets=DETS[:, j]
        )
        for j in range(S)
    ]
    return GeometricSolutionSheet(pde=pde, strips=strips, dt=dt)


def breaking_time(sheet: GeometricSolutionSheet) -> Optional[float]:
    """Earliest t at which some strip's variational determinant crosses zero."""
    best = None
    for strip in sheet.strips:
        d = strip.dets
        sign_change = np.nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0]
        if sign_change.size == 0:
            continue
        i = int(sign_change[0])
        # root of the linear interpolant inside the bracketing step
        ta, tb = strip.ts[i], strip.ts[i + 1]
        da, db = d[i], d[i + 1]
        t_star = ta + (tb - ta) * da / (da - db)
        if best is None or t_star < best:
            best = t_star
    return best


def multivalued_count(sheet: GeometricSolutionSheet, x_hat: float, t: float) -> int:
    """Number of characteristics through position x_hat at time t (n = 1).

    Counted by bracketing sign changes of x(x0, t) - x_hat over the strip
    grid; fold tangencies are counted once.
    """
    if sheet.pde.n != 1:
        raise ValueError("multivalued counting is defined for n = 1")
    ts = sheet.strips[0].ts
    i = int(np.argmin(np.abs(ts - t)))
    vals = np.array([s.xs[i, 0] for s in sheet.strips]) - x_hat
    count = 0
    prev_sign = np.sign(vals[0])
    if prev_sign == 0:
        count += 1
    for v in vals[1:]:
        s = np.sign(v)
        if s == 0:
            count += 1
            prev_sign = 0
            continue
        if prev_sign != 0 and s != prev_sign:
            count += 1
        prev_sign = s
    return count


def sheet_values(sheet: GeometricSolutionSheet, t: float) -> np.ndarray:
    """(x, y) samples of the geometric solution at time t (n = 1)."""
    ts = sheet.strips[0].ts
    i = int(np.argmin(np.abs(ts - t)))
    return np.array([[s.xs[i, 0], s.ys[i]] for s in sheet.strips])


def tangency_check(
    pde: QuasiLinearPDE, level: ScalarField, samples: Sequence, on_tol: float = 1e-8
) -> float:
    """Maximum residual of the characteristic-field tangency condition
    f_t + sum_i a_i f_{x_i} + b f_y over samples of the level set f = 0."""
    worst = 0.0
    n = pde.n
    for p in samples:
        p = np.asarray(p, dtype=float)
        if abs(level.value(p)) > on_tol:
            continue
        g = level.grad(p)
        avec = np.array([ai.value(p) for ai in pde.a])
        bval = pde.b.value(p)
        resid = abs(g[n + 1] + avec @ g[:n] + bval * g[n])
        worst = max(worst, float(resid))
    return worst


def burgers(speed: float = 2.0) -> QuasiLinearPDE:
    """y_t + speed * y * y_x = 0 with y(0, x) = sin x."""
    import math

    a = ScalarField(
        arity=3,
        fn=lambda p: speed * p[1],
        grad_fn=lambda p: np.array([0.0, speed, 0.0]),
    )
    b = ScalarField(arity=3, fn=lambda p: 0.0, grad_fn=lambda p: np.zeros(3))
    phi = ScalarField(
        arity=1,
        fn=lambda p: math.sin(p[0]),
        grad_fn=lambda p: np.array([math.cos(p[0])]),
    )
    return QuasiLinearPDE(n=1, a=(a,), b=b, phi=phi)


def transport(speed: float = 1.0, datum: Optional[ScalarField] = None) -> QuasiLinearPDE:
    """y_t + speed * y_x = 0."""
    import math

    a = ScalarField(arity=3, fn=lambda p: speed, grad_fn=lambda p: np.zeros(3))
    b = ScalarField(arity=3, fn=lambda p: 0.0, grad_fn=lambda p: np.zeros(3))
    if datum is None:
        datum = ScalarField(
            arity=1,
            fn=lambda p: math.sin(p[0]),
            grad_fn=lambda p: np.array([math.cos(p[0])]),
        )
    return QuasiLinearPDE(n=1, a=(a,), b=b, phi=datum)
