"""Newton solving and pseudo-arclength continuation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DomainError,
    MaxIterations,
    RankDeficientSeed,
    SeedNotOnCurve,
    SingularJacobian,
)
from .fields import fd_jacobian
from .linalg import null_space, numerical_rank

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
SINGULAR_RATIO = 1e-12


def bracket_roots(h: Callable, params: Sequence[float], grid: Sequence[float]):
    """Roots in ``s`` of ``h(p, s) = 0`` along one line per parameter ``p``.

    ``h`` is elementwise: it takes two 1-D arrays of equal length and returns
    one value per pair.  It is called once on the whole (lines x grid) mesh
    and then once per bisection step on every bracket of every line, so at
    most 81 times whatever the number of lines and roots.  Along a
    line, an exact zero at a sample of the increasing ``grid`` (the last one
    included) is a root, and every sign change between neighbouring samples
    is refined by 80 bisection steps (the steps after every bracket's
    midpoint has rounded to one of its ends are skipped: they cannot change
    the result).

    Returns ``(line, roots)``: the index into ``params`` of each root's line,
    and the roots, ordered by line and increasing along each line.
    """
    params = np.asarray(params, dtype=float)
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(h(np.repeat(params, grid.size), np.tile(grid, params.size)), dtype=float)
    vals = vals.reshape(params.size, grid.size)
    zero_line, zero_at = np.nonzero(vals == 0.0)
    line, at = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0)
    a, b, fa = grid[at], grid[at + 1], vals[line, at]
    if line.size:
        p = params[line]
        for _ in range(80):
            m = 0.5 * (a + b)
            if np.all((m == a) | (m == b)):
                break
            fm = np.asarray(h(p, m), dtype=float)
            left = fa * fm <= 0
            a, b, fa = np.where(left, a, m), np.where(left, m, b), np.where(left, fa, fm)
    lines = np.concatenate([zero_line, line])
    roots = np.concatenate([grid[zero_at], 0.5 * (a + b)])
    order = np.lexsort((np.concatenate([zero_at, at]), lines))
    return lines[order], roots[order]


def dedup(points: Sequence, radius: float) -> List[int]:
    """Indices of a greedy keep-first cover of ``points``: a point is kept
    when it lies farther than ``radius`` from every point kept before it."""
    if len(points) == 0:
        return []
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    kept = [0]
    for i in range(1, len(pts)):
        if np.min(np.linalg.norm(pts[kept] - pts[i], axis=1)) > radius:
            kept.append(i)
    return kept


@dataclass(frozen=True)
class System:
    """A residual map that carries its Jacobian (exact, or central differences).

    Calling it evaluates the residual; ``jac(z)`` has one row per equation
    and one column per unknown.  The optional ``fused(z)`` returns both from
    one pass, bit for bit equal to the separate calls.  It is what
    ``newton_solve`` and ``continue_curve`` solve (see ``as_system``).
    """

    residual: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    fused: Optional[Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]] = None

    def __call__(self, z):
        return self.residual(z)

    def evaluate(self, z) -> Tuple[np.ndarray, np.ndarray]:
        """``(residual, Jacobian)`` at ``z``: one fused pass when there is one."""
        if self.fused is not None:
            return self.fused(z)
        return self.residual(z), self.jac(z)


def as_system(fn: Callable) -> System:
    """``fn`` itself if it is a ``System``, else ``fn`` with the central
    difference Jacobian ``fd_jacobian``."""
    if isinstance(fn, System):
        return fn
    return System(fn, lambda z: fd_jacobian(fn, z))


def _in_box(p: np.ndarray, box) -> bool:
    if box is None:
        return True
    return all(lo <= v <= hi for v, (lo, hi) in zip(p, box))


def newton_solve(
    system: Callable,
    seed,
    frozen: Sequence[int] = (),
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
    box=None,
    border=None,
):
    """Solve ``system(p) = 0`` from ``seed`` with some coordinates frozen.

    Under-determined steps use the least-norm update; frozen coordinates are
    never touched.  The Jacobian is the one ``as_system(system)`` carries:
    each iterate is one fused ``evaluate`` when the system has one, and
    otherwise the residual, with the Jacobian only when another step follows.

    With ``border = (tau, pred)`` this is Keller's pseudo-arclength corrector:
    it solves the bordered system ``[system(p); tau . (p - pred)] = 0``, whose
    Jacobian is ``[J; tau]``, and returns ``(p, J)`` with ``J`` the Jacobian of
    ``system`` at the solution.  Raises SingularJacobian, MaxIterations or
    DomainError.
    """
    p = np.asarray(seed, dtype=float).copy()
    m = p.size
    frozen = set(frozen)
    free = np.array([i for i in range(m) if i not in frozen], dtype=int)
    if free.size == 0:
        raise ValueError("all coordinates frozen")
    system = as_system(system)
    if border is not None:
        tau, pred = border
        bordered_res, bordered_J = np.empty(m), np.empty((m, m))
        bordered_J[-1] = tau
    for _ in range(max_iter):
        if system.fused is not None:
            res, J = system.evaluate(p)
        else:
            res, J = np.asarray(system(p), dtype=float), None
        if border is not None:
            bordered_res[:-1], bordered_res[-1] = res, tau @ (p - pred)
        r = res if border is None else bordered_res
        if r.size > free.size:
            raise ValueError("over-determined system: more equations than free unknowns")
        # the infinity norm below tol (never for a NaN), without array calls
        if all(abs(v) < tol for v in r.tolist()):
            if border is None:
                return p
            return p, np.asarray(system.jac(p) if J is None else J, dtype=float)
        J = np.asarray(system.jac(p) if J is None else J, dtype=float)
        if border is not None:
            bordered_J[:-1] = J
            J = bordered_J
        if frozen:
            J = J[:, free]
        # lstsq returns the singular values of J with the least-norm step
        step, _, _, s = np.linalg.lstsq(J, -r, rcond=None)
        if s.size == 0 or s[0] == 0.0 or s[min(r.size, free.size) - 1] < SINGULAR_RATIO * s[0]:
            raise SingularJacobian(f"singular Jacobian at {p!r}")
        if frozen:
            p = p.copy()
            p[free] += step
        else:
            p = p + step
        if not _in_box(p, box):
            raise DomainError(f"Newton iterate {p!r} left the box")
    raise MaxIterations(f"no convergence in {max_iter} iterations (residual {r!r})")


@dataclass
class Curve:
    """A traced solution chain.  ``points`` has one row per point."""

    points: np.ndarray
    closed: bool


def _tangent(J: np.ndarray, prev: Optional[np.ndarray]) -> np.ndarray:
    ns = null_space(J)
    if ns.shape[1] != 1:
        raise RankDeficientSeed("Jacobian null space is not one-dimensional")
    tau = ns[:, 0]
    if prev is not None and np.dot(tau, prev) < 0:
        tau = -tau
    return tau


def continue_curve(
    system: Callable,
    seed,
    step: float,
    max_points: int,
    box=None,
    seed_tol: float = 1e-6,
    residual_tol: float = 1e-8,
) -> Curve:
    """Pseudo-arclength predictor-corrector tracing of a 1-D solution set.

    ``system`` maps R^m -> R^(m-1).  Terminates on box exit, closure (return
    within step/2 of the seed after at least 10 points) or ``max_points``.
    The corrector is ``newton_solve`` on the bordered system ``[J(w); tau^T]``
    (Keller's pseudo-arclength corrector) with the Jacobian of
    ``as_system(system)``, and the next tangent is the null vector of the
    Jacobian it converged with.
    """
    system = as_system(system)
    z0 = np.asarray(seed, dtype=float).copy()
    res = np.asarray(system(z0), dtype=float)
    if res.size != z0.size - 1:
        raise ValueError("system must have exactly one fewer equation than unknowns")
    if np.linalg.norm(res, ord=np.inf) > seed_tol:
        raise SeedNotOnCurve(f"seed residual {np.linalg.norm(res, np.inf):.3e}")
    if numerical_rank(system.jac(z0)) < z0.size - 1:
        raise RankDeficientSeed(f"Jacobian rank-deficient at seed {z0!r}")
    # polish the seed onto the curve (least-norm correction)
    try:
        z0 = newton_solve(system, z0)
    except (SingularJacobian, MaxIterations):
        pass
    tau0 = _tangent(system.jac(z0), None)

    def march(direction: float):
        pts = []
        z = z0.copy()
        tau = tau0 * direction
        while len(pts) < max_points:
            h = step
            for _ in range(5):
                pred = z + h * tau
                try:
                    znew, J = newton_solve(system, pred, tol=residual_tol * 1e-2, border=(tau, pred))
                    break
                except (SingularJacobian, MaxIterations, DomainError):
                    h *= 0.5
            else:
                return pts, False
            if not _in_box(znew, box):
                return pts, False
            pts.append(znew)
            d = znew - z0  # np.linalg.norm(d) is sqrt(d @ d)
            if len(pts) >= 10 and math.sqrt(d @ d) <= step / 2:
                return pts, True
            # the tangent from the corrector's converged Jacobian
            tau = _tangent(J, tau)
            z = znew
        return pts, False

    fwd, closed = march(+1.0)
    if closed:
        points = [z0] + fwd
    else:
        bwd, closed_b = march(-1.0)
        if closed_b:
            points = [z0] + bwd
            closed = True
        else:
            points = list(reversed(bwd)) + [z0] + fwd
    return Curve(points=np.array(points), closed=closed)
