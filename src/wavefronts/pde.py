"""Method of characteristics for time-dependent quasi-linear first-order PDEs.

The equation is  y_t + sum_i a_i(x, y, t) y_{x_i} - b(x, y, t) = 0  with
initial datum y(0, x) = phi(x).  Characteristics obey  x' = a, y' = b; the
variational system for d(x)/d(x0) is integrated alongside with the same RK4
steps so fold detection does not depend on grid spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BlowUp
from .fields import ScalarField
from .fronts import MEMBERSHIP_TOL

# integrate_characteristics raises BlowUp once |x| or |y| exceeds this
BLOWUP = 1e3


@dataclass(frozen=True)
class QuasiLinearPDE:
    """Coefficients a_1..a_n, b on (x_1..x_n, y, t) and initial datum phi(x)."""

    n: int
    a: Sequence[ScalarField]  # each arity n + 2, argument order (x..., y, t)
    b: ScalarField
    phi: ScalarField  # arity n


@dataclass
class GeometricSolutionSheet:
    pde: QuasiLinearPDE
    dt: float
    ts: np.ndarray  # (T,)
    xs: np.ndarray  # (T, S, n)
    ys: np.ndarray  # (T, S)
    dets: np.ndarray  # (T, S)


def _batch_value(field: ScalarField, P: np.ndarray) -> np.ndarray:
    """Evaluate ``field.fn`` on columns of P (arity, S), broadcastable to
    (S,); vectorized closures get the whole block, anything else falls back to
    a per-column loop."""
    S = P.shape[1]
    try:
        v = np.asarray(field.fn(P), dtype=float)
        if v.ndim == 0 or v.shape == (S,):
            return v
    except Exception:
        pass
    return np.array([field.fn(P[:, j]) for j in range(S)], dtype=float)


def _batch_grad(field: ScalarField, P: np.ndarray) -> np.ndarray:
    """Gradient rows (arity, S), or a constant gradient as an (arity, 1)
    view, with the same fallback as _batch_value."""
    S = P.shape[1]
    m = field.arity
    if field.grad_fn is not None:
        try:
            g = np.asarray(field.grad_fn(P), dtype=float)
            if g.shape == (m,):
                return g[:, None]
            if g.shape == (m, S):
                return g
        except Exception:
            pass
    return np.array([field.grad(P[:, j]) for j in range(S)], dtype=float).T


def _rhs(pde: QuasiLinearPDE, Z: np.ndarray, t: float, P: np.ndarray, out: np.ndarray) -> None:
    """Batched characteristic + variational right-hand side, written to ``out``.

    Z and out have one column per strip and the rows [x (n); y; M (n * n,
    row-major) = dx/dx0; w (n) = dy/dx0].  P is an (n + 2, S) work array for
    the field arguments (x, y, t).
    """
    n = pde.n
    P[: n + 1] = Z[: n + 1]
    P[n + 1] = t
    M = Z[n + 1 : n + 1 + n * n].reshape(n, n, -1)
    w = Z[n + 1 + n * n :]
    dM = out[n + 1 : n + 1 + n * n].reshape(n, n, -1)
    dw = out[n + 1 + n * n :]
    for i, ai in enumerate(pde.a):
        out[i] = _batch_value(ai, P)
        g = _batch_grad(ai, P)
        # dM_i. = sum_k a_i,x_k M_k. + a_i,y w
        np.multiply(g[n], w, out=dM[i])
        for k in range(n):
            dM[i] += g[k] * M[k]
    out[n] = _batch_value(pde.b, P)
    g = _batch_grad(pde.b, P)
    # dw_j = sum_i M_ij b_x_i + b_y w_j
    np.multiply(g[n], w, out=dw)
    for i in range(n):
        dw += M[i] * g[i]


def step_count(t_range, dt: float) -> int:
    """Number of fixed RK4 steps ``integrate_characteristics`` takes."""
    return max(1, int(round((float(t_range[1]) - float(t_range[0])) / dt)))


def integrate_characteristics(
    pde: QuasiLinearPDE,
    x0_grid: Sequence,
    t_range,
    dt: float = 1e-3,
) -> GeometricSolutionSheet:
    """Fixed-step RK4 over t in [t_range[0], t_range[1]], all strips at once.

    The state of all strips is one packed array (see ``_rhs``); the stages
    and the histories are preallocated and written in place.
    """
    t0 = float(t_range[0])
    steps = step_count(t_range, dt)
    n = pde.n
    X0 = np.array([np.atleast_1d(np.asarray(x, dtype=float)) for x in x0_grid])
    S = len(X0)
    Z = np.empty((2 * n + 1 + n * n, S))
    Z[:n] = X0.T
    Z[n] = [pde.phi.value(p) for p in X0]
    M = Z[n + 1 : n + 1 + n * n].reshape(n, n, S)
    M[...] = np.eye(n)[:, :, None]
    Z[n + 1 + n * n :] = np.array([pde.phi.grad(p) for p in X0]).T
    K1, K2, K3, K4, Zs = (np.empty_like(Z) for _ in range(5))
    P = np.empty((n + 2, S))

    ts = np.empty(steps + 1)
    XS = np.empty((steps + 1, S, n))
    YS = np.empty((steps + 1, S))
    DETS = np.empty((steps + 1, S))

    def record(i):
        XS[i] = Z[:n].T
        YS[i] = Z[n]
        DETS[i] = M[0, 0] if n == 1 else np.linalg.det(M.transpose(2, 0, 1))

    t = ts[0] = t0
    record(0)
    for step in range(1, steps + 1):
        _rhs(pde, Z, t, P, K1)
        np.multiply(K1, dt / 2, out=Zs)
        Zs += Z
        _rhs(pde, Zs, t + dt / 2, P, K2)
        np.multiply(K2, dt / 2, out=Zs)
        Zs += Z
        _rhs(pde, Zs, t + dt / 2, P, K3)
        np.multiply(K3, dt, out=Zs)
        Zs += Z
        _rhs(pde, Zs, t + dt, P, K4)
        # Z += dt / 6 * (K1 + 2 K2 + 2 K3 + K4)
        K2 *= 2
        K1 += K2
        K3 *= 2
        K1 += K3
        K1 += K4
        K1 *= dt / 6
        Z += K1
        t += dt
        if np.max(np.abs(Z[:n])) > BLOWUP or np.max(np.abs(Z[n])) > BLOWUP:
            worst = int(np.argmax(np.max(np.abs(Z[:n]), axis=0)))
            raise BlowUp(f"trajectory from x0={X0[worst]!r} exceeded {BLOWUP} at t={t}")
        ts[step] = t
        record(step)
    return GeometricSolutionSheet(pde=pde, dt=dt, ts=ts, xs=XS, ys=YS, dets=DETS)


def breaking_time(sheet: GeometricSolutionSheet) -> Optional[float]:
    """Earliest t at which some strip's variational determinant crosses zero."""
    d = sheet.dets
    pos, neg = d > 0, d < 0
    change = (pos[:-1] & neg[1:]) | (neg[:-1] & pos[1:])  # (T - 1, S)
    cols = np.flatnonzero(change.any(axis=0))
    if cols.size == 0:
        return None
    i = np.argmax(change[:, cols], axis=0)  # first sign change of each strip
    # root of the linear interpolant inside the bracketing step
    ta, tb = sheet.ts[i], sheet.ts[i + 1]
    da, db = d[i, cols], d[i + 1, cols]
    return float(np.min(ta + (tb - ta) * da / (da - db)))


def multivalued_count(sheet: GeometricSolutionSheet, x_hat: float, t: float) -> int:
    """Number of characteristics through position x_hat at time t (n = 1).

    Counted by bracketing sign changes of x(x0, t) - x_hat over the strip
    grid: each exact zero, and each change of sign between neighbouring
    nonzero samples (a NaN differs from everything, itself included), counts
    once; fold tangencies are counted once.
    """
    if sheet.pde.n != 1:
        raise ValueError("multivalued counting is defined for n = 1")
    i = int(np.argmin(np.abs(sheet.ts - t)))
    s = np.sign(sheet.xs[i, :, 0] - x_hat)
    changes = (s[1:] != s[:-1]) & (s[1:] != 0) & (s[:-1] != 0)
    return int(np.count_nonzero(s == 0) + np.count_nonzero(changes))


def sheet_values(sheet: GeometricSolutionSheet, t: float) -> np.ndarray:
    """(x, y) samples of the geometric solution at time t (n = 1)."""
    i = int(np.argmin(np.abs(sheet.ts - t)))
    return np.stack([sheet.xs[i, :, 0], sheet.ys[i]], axis=1)


def tangency_check(pde: QuasiLinearPDE, level: ScalarField, samples: Sequence) -> float:
    """Maximum residual of the characteristic-field tangency condition
    f_t + sum_i a_i f_{x_i} + b f_y over the samples within
    ``MEMBERSHIP_TOL`` of the level set f = 0."""
    worst = 0.0
    n = pde.n
    for p in samples:
        p = np.asarray(p, dtype=float)
        if abs(level.value(p)) > MEMBERSHIP_TOL:
            continue
        g = level.grad(p)
        avec = np.array([ai.value(p) for ai in pde.a])
        bval = pde.b.value(p)
        resid = abs(g[n + 1] + avec @ g[:n] + bval * g[n])
        worst = max(worst, float(resid))
    return worst


def _sine_datum_pde(a: ScalarField) -> QuasiLinearPDE:
    """y_t + a y_x = 0 with y(0, x) = sin x."""
    b = ScalarField(arity=3, fn=lambda p: 0.0, grad_fn=lambda p: np.zeros(3))
    phi = ScalarField(
        arity=1,
        fn=lambda p: math.sin(p[0]),
        grad_fn=lambda p: np.array([math.cos(p[0])]),
    )
    return QuasiLinearPDE(n=1, a=(a,), b=b, phi=phi)


def burgers(speed: float = 2.0) -> QuasiLinearPDE:
    """y_t + speed * y * y_x = 0 with y(0, x) = sin x."""
    return _sine_datum_pde(
        ScalarField(arity=3, fn=lambda p: speed * p[1], grad_fn=lambda p: np.array([0.0, speed, 0.0]))
    )


def transport() -> QuasiLinearPDE:
    """y_t + y_x = 0 with y(0, x) = sin x."""
    return _sine_datum_pde(ScalarField(arity=3, fn=lambda p: 1.0, grad_fn=lambda p: np.zeros(3)))
