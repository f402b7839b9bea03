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
# continuation: the largest seed residual accepted
SEED_TOL = 1e-6


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

    ``evaluate(z)`` returns ``(residual, J)`` from one pass, ``J`` with one
    row per equation and one column per unknown; calling the system returns
    the residual alone.  It is what ``newton_solve`` and ``continue_curve``
    solve (see ``as_system``).
    """

    evaluate: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]

    def __call__(self, z):
        return self.evaluate(z)[0]


def as_system(fn: Callable) -> System:
    """``fn`` itself if it is a ``System``, else ``fn`` with the central
    difference Jacobian ``fd_jacobian``."""
    if isinstance(fn, System):
        return fn
    return System(lambda z: (np.asarray(fn(z), dtype=float), fd_jacobian(fn, z)))


def _in_box(p: np.ndarray, box) -> bool:
    if box is None:
        return True
    return all(lo <= v <= hi for v, (lo, hi) in zip(p, box))


def newton_solve(
    system: Callable,
    seed,
    frozen: Sequence[int] = (),
    max_iter: int = NEWTON_MAX_ITER,
    border=None,
):
    """Solve ``system(p) = 0`` to ``NEWTON_TOL`` in the infinity norm from
    ``seed`` with some coordinates frozen.

    Under-determined steps use the least-norm update; frozen coordinates are
    never touched.  Each iterate is one ``evaluate`` of ``as_system(system)``.

    With ``border = (tau, pred)`` this is Keller's pseudo-arclength corrector:
    it solves the bordered system ``[system(p); tau . (p - pred)] = 0``, whose
    Jacobian is ``[J; tau]``, and returns ``(p, J)`` with ``J`` the Jacobian of
    ``system`` at the solution.  Raises SingularJacobian or MaxIterations, and
    passes on the DomainError of a field whose box an iterate leaves.
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
        res, J = system.evaluate(p)
        if border is not None:
            bordered_res[:-1], bordered_res[-1] = res, tau @ (p - pred)
        r = res if border is None else bordered_res
        if r.size > free.size:
            raise ValueError("over-determined system: more equations than free unknowns")
        # the infinity norm below NEWTON_TOL (never for a NaN), without array calls
        if all(abs(v) < NEWTON_TOL for v in r.tolist()):
            if border is None:
                return p
            return p, J
        if border is not None:
            bordered_J[:-1] = J
            J = bordered_J
        if frozen:
            J = J[:, free]
        # lstsq returns the singular values of J with the least-norm step
        step, _, _, s = np.linalg.lstsq(J, -r, rcond=None)
        if s.size == 0 or s[0] == 0.0 or s[min(r.size, free.size) - 1] < SINGULAR_RATIO * s[0]:
            raise SingularJacobian(f"singular Jacobian at {p.tolist()}")
        if frozen:
            p = p.copy()
            p[free] += step
        else:
            p = p + step
    raise MaxIterations(f"no convergence in {max_iter} iterations (residual {r.tolist()})")


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
) -> Curve:
    """Pseudo-arclength predictor-corrector tracing of a 1-D solution set.

    ``system`` maps R^m -> R^(m-1).  A direction of the march ends on box
    exit, on a corrector failure, on a converged Jacobian whose null space is
    not one-dimensional (keeping the points traced so far), on closure
    (return within step/2 of the seed after at least 10 points) or at
    ``max_points``.
    The corrector is ``newton_solve`` on the bordered system ``[J(w); tau^T]``
    (Keller's pseudo-arclength corrector) with the Jacobian of
    ``as_system(system)``, and the next tangent is the null vector of the
    Jacobian it converged with.  The seed must lie within ``SEED_TOL`` of the
    curve; it is polished there first.
    """
    system = as_system(system)
    z0 = np.asarray(seed, dtype=float).copy()
    res, J = system.evaluate(z0)
    if res.size != z0.size - 1:
        raise ValueError("system must have exactly one fewer equation than unknowns")
    if np.linalg.norm(res, ord=np.inf) > SEED_TOL:
        raise SeedNotOnCurve(f"seed residual {np.linalg.norm(res, np.inf):.3e}")
    if numerical_rank(J) < z0.size - 1:
        raise RankDeficientSeed(f"Jacobian rank-deficient at seed {z0!r}")
    # polish the seed onto the curve (least-norm correction)
    try:
        z0 = newton_solve(system, z0)
    except (SingularJacobian, MaxIterations):
        pass
    tau0 = _tangent(system.evaluate(z0)[1], None)

    def march(direction: float):
        pts = []
        z = z0.copy()
        tau = tau0 * direction
        while len(pts) < max_points:
            h = step
            for _ in range(5):
                pred = z + h * tau
                try:
                    znew, J = newton_solve(system, pred, border=(tau, pred))
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
            # the tangent from the corrector's converged Jacobian; a rank
            # drop (a singular point of the curve) ends the march here
            try:
                tau = _tangent(J, tau)
            except RankDeficientSeed:
                return pts, False
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
