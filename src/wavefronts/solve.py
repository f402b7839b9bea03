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
from .fields import fd_jacobian, stack_rows
from .linalg import null_space, numerical_rank

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
SINGULAR_RATIO = 1e-12
# how each row of ``newton_batch`` ends, by index into OUTCOMES
CONVERGED, SINGULAR, MAX_ITERATIONS, LEFT_BOX = range(4)
OUTCOMES = ("converged", "singular", "max_iterations", "left_box")
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
    the residual alone.  An (N, m) stack of points gives both with a leading
    axis of N rows, and a row that leaves a field's box is NaN.  It is what
    ``newton_solve``, ``newton_batch`` and ``continue_curve`` solve (see
    ``as_system``).
    """

    evaluate: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]

    def __call__(self, z):
        return self.evaluate(z)[0]


def as_system(fn: Callable) -> System:
    """``fn`` itself if it is a ``System``, else ``fn`` with the central
    difference Jacobian ``fd_jacobian``.  ``fn`` need not broadcast, so a
    stack is evaluated row by row; a row whose call raises DomainError is
    NaN."""
    if isinstance(fn, System):
        return fn

    def evaluate(z):
        if np.ndim(z) == 2:
            return stack_rows(evaluate, z, (np.zeros(1), np.zeros((1, z.shape[1]))))
        return np.asarray(fn(z), dtype=float), fd_jacobian(fn, z)

    return System(evaluate)


def _in_box(p: np.ndarray, box) -> bool:
    if box is None:
        return True
    return all(lo <= v <= hi for v, (lo, hi) in zip(p, box))


def newton_solve(system: Callable, seed):
    """Solve ``system(p) = 0`` to ``NEWTON_TOL`` in the infinity norm from
    ``seed`` in at most ``NEWTON_MAX_ITER`` iterations.

    Under-determined steps use the least-norm update.  Each iterate is one
    ``evaluate`` of ``as_system(system)``.  Returns ``(p, J)`` with ``J`` the
    Jacobian of that converged ``evaluate``.  Raises SingularJacobian or
    MaxIterations, and passes on the DomainError of a field whose box an
    iterate leaves.
    """
    p = np.asarray(seed, dtype=float).copy()
    system = as_system(system)
    for _ in range(NEWTON_MAX_ITER):
        r, J = system.evaluate(p)
        if r.size > p.size:
            raise ValueError("over-determined system: more equations than unknowns")
        # the infinity norm below NEWTON_TOL (never for a NaN), without array calls
        if all(abs(v) < NEWTON_TOL for v in r.tolist()):
            return p, J
        # lstsq returns the singular values of J with the least-norm step
        step, _, _, s = np.linalg.lstsq(J, -r, rcond=None)
        if s.size == 0 or s[0] == 0.0 or s[r.size - 1] < SINGULAR_RATIO * s[0]:
            raise SingularJacobian(f"singular Jacobian at {p.tolist()}")
        p = p + step
    raise MaxIterations(f"no convergence in {NEWTON_MAX_ITER} iterations (residual {r.tolist()})")


def newton_batch(system: Callable, seeds: Sequence):
    """``newton_solve`` from every seed at once (a scalar seed is a
    1-vector): per iterate, one ``evaluate`` of the whole (N, m) stack and one
    stacked SVD of its running rows, which gives both the ``SINGULAR_RATIO``
    test and the least-norm step.

    Each row ends on its own under ``newton_solve``'s rules: it converges,
    its Jacobian is singular, it leaves the field's box (its residual is not
    finite) or it is still running after ``NEWTON_MAX_ITER`` evaluations.
    Rows keep their positions, so a system with data bound to each row (as
    ``critical_system`` with one x per row) is evaluated on the whole stack.

    Returns ``(P, R, J, outcome)``: the last iterate of each row, the
    residual and Jacobian each converged row converged with (NaN in the other
    rows) and each row's index into ``OUTCOMES``.
    """
    P = np.array([np.atleast_1d(np.asarray(s, dtype=float)) for s in seeds])
    N = len(P)
    outcome = np.full(N, MAX_ITERATIONS)
    if N == 0:
        return P.reshape(0, 0), np.zeros((0, 0)), np.zeros((0, 0, 0)), outcome
    system = as_system(system)
    running = np.arange(N)
    R = J = None
    for _ in range(NEWTON_MAX_ITER):
        r, Jr = system.evaluate(P)
        if r.shape[-1] > P.shape[-1]:
            raise ValueError("over-determined system: more equations than unknowns")
        if R is None:
            R, J = np.full(r.shape, np.nan), np.full(Jr.shape, np.nan)
        res = r[running]
        left = ~np.isfinite(res).all(axis=1)
        conv = (np.abs(res) < NEWTON_TOL).all(axis=1)
        outcome[running[left]] = LEFT_BOX
        outcome[running[conv]] = CONVERGED
        R[running[conv]], J[running[conv]] = res[conv], Jr[running[conv]]
        running, res = running[~(left | conv)], res[~(left | conv)]
        if running.size == 0:
            break
        U, s, Vt = np.linalg.svd(Jr[running], full_matrices=False)
        singular = (s[:, 0] == 0.0) | (s[:, -1] < SINGULAR_RATIO * s[:, 0])
        outcome[running[singular]] = SINGULAR
        ok = ~singular
        running, U, s, Vt, res = running[ok], U[ok], s[ok], Vt[ok], res[ok]
        # the least-norm step -V diag(1/s) U^T r; a step that overflows
        # leaves the box at the next evaluate, as lstsq's does
        with np.errstate(over="ignore", invalid="ignore"):
            P[running] -= np.einsum("nji,nj->ni", Vt, np.einsum("nij,ni->nj", U, res) / s)
        if running.size == 0:
            break
    return P, R, J, outcome


def project_to_set(system: Callable, seeds: Sequence) -> List[np.ndarray]:
    """Least-norm Newton projection of each seed (a scalar is a 1-vector)
    onto the solution set of ``system``, in seed order: one ``newton_batch``
    of all the seeds, which drops each seed whose row does not converge."""
    P, _, _, outcome = newton_batch(system, seeds)
    return list(P[outcome == CONVERGED])


def _bordered(system: System, tau: np.ndarray, pred: np.ndarray) -> System:
    """Keller's pseudo-arclength corrector system ``[system(w); tau . (w - pred)]``
    with the Jacobian ``[J; tau]``.  Both are written into two buffers
    allocated once, so the returned ``J[:-1]`` is the Jacobian of ``system``."""
    m = tau.size
    res, J = np.empty(m), np.empty((m, m))
    J[-1] = tau

    def evaluate(w):
        res[:-1], J[:-1] = system.evaluate(w)
        res[-1] = tau @ (w - pred)
        return res, J

    return System(evaluate)


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
    The corrector is ``newton_solve`` on ``_bordered`` (Keller's
    pseudo-arclength corrector) with the Jacobian of ``as_system(system)``,
    and the next tangent is the null vector of the Jacobian it converged
    with.  The seed must lie within ``SEED_TOL`` of the curve; it is polished
    there first, and its tangent comes from the polish's Jacobian.
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
        z0, J = newton_solve(system, z0)
    except (SingularJacobian, MaxIterations):
        pass
    tau0 = _tangent(J, None)

    def march(direction: float):
        pts = []
        z = z0.copy()
        tau = tau0 * direction
        while len(pts) < max_points:
            h = step
            for _ in range(5):
                pred = z + h * tau
                try:
                    znew, J = newton_solve(_bordered(system, tau, pred), pred)
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
                tau = _tangent(J[:-1], tau)
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
