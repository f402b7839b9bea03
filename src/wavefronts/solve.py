"""Newton solving and pseudo-arclength continuation.

Every solver takes a ``System``, a residual map that carries its Jacobian,
and reads both from its ``evaluate`` alone.  Every Newton iterate takes the
least-norm step of its Jacobian, so an (m-1) x m continuation system is
corrected with the Moore-Penrose inverse (Allgower & Georg, *Numerical
Continuation Methods*, 1990, ch. 3): the corrector solves the curve's own
equations from the predicted point, with no bordering row.  A 2 x 3
Jacobian, the plane fronts and caustics, takes its step, singular values
and null vector in closed form (``linalg.pinv_2x3``); any other takes one
SVD.  The corrector's last step also gives the next tangent, the null
vector of the Jacobian it read, whenever the Weyl and Wedin bounds certify
it against the converged Jacobian; so a traced plane point usually costs no
factorization at all, and any other one SVD.

A point is the list of its m floats, from ``ScalarField.jet`` through a
system's ``evaluate`` and ``newton_solve`` to the march of
``continue_curve``: a traced plane point is Python float arithmetic with
no array made, and any other makes one array of its Jacobian per Newton
step for the SVD.  A stack is an (N, m) array.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
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
from .fields import fd_jacobian  # noqa: F401  (perfbench/tracing.py wraps solve.fd_jacobian by name)
from .linalg import RANK_EPS, null_space, pinv_2x3
from .linalg import numerical_rank  # noqa: F401  (perfbench/tracing.py wraps solve.numerical_rank by name)

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
SINGULAR_RATIO = 1e-12
# newton_solve takes an SVD step without np.errstate when |r| < STEP_BOUND s_min
STEP_BOUND = 1e300
_PLAIN = contextlib.nullcontext()
# newton_batch steps a 1 x 1 J by r / J while every nonzero |J| is in this
# range, inside LAPACK's unscaled one [sqrt(safe min) / eps, its inverse] of
# about [6.7e-139, 1.5e138]: there the SVD's singular value is |J| exactly
EXACT_1X1 = (1e-138, 1e138)
# how each row of ``newton_batch`` ends, by index into OUTCOMES
CONVERGED, SINGULAR, MAX_ITERATIONS, LEFT_BOX = range(4)
OUTCOMES = ("converged", "singular", "max_iterations", "left_box")
# continuation: the largest seed residual accepted
SEED_TOL = 1e-6
# bracket_roots' ITP refinement: the truncation ITP_K1 w^2 / w0 (kappa_1 =
# ITP_K1 / w0, kappa_2 = 2) and the slack of ITP_N0 steps over bisection
ITP_K1 = 0.1
ITP_N0 = 2


def bracket_roots(h: Callable, params: Sequence[float], grid: Sequence[float]):
    """Roots in ``s`` of ``h(p, s) = 0`` along one line per parameter ``p``.

    ``h`` is elementwise: it takes two 1-D arrays of equal length and returns
    one value per pair.  Along a line, an exact zero at a sample of the
    finite, strictly increasing ``grid`` (the last one included) is a root,
    and every sign change between neighbouring samples is a bracket refined
    by the ITP method (Oliveira & Takahashi, *ACM TOMS* 47(1), 2020).  Each
    step evaluates one point per open bracket: the regula falsi point moved
    towards the midpoint by ``ITP_K1 w^2 / w0`` (w the bracket's width, w0
    its first) and by at least one ulp, or the midpoint when that point is
    not strictly inside or the bracket was not halved in the two steps
    before; projected so that no bracket is ever wider than 2^ITP_N0 times
    bisection's after as many steps.  The bracket keeps the half whose ends
    change sign (``fa * f <= 0`` on the signs of the values).  A bracket
    closes at an exact zero, the root as it is, or once its ends are
    adjacent floats, with root ``0.5 (a + b)``; one still open after 80
    steps returns its midpoint (a step or a multiple root at 0, where the
    float spacing becomes subnormal).

    ``h`` is called once on the whole (lines x grid) mesh and then once per
    step on the brackets still open, so at most 81 times whatever the number
    of lines and roots.  A smooth simple root closes in about ten steps, and
    no bracket takes more than ITP_N0 steps beyond bisection's.

    Returns ``(line, roots)``: the index into ``params`` of each root's line,
    and the roots, ordered by line and increasing along each line.  Raises
    ValueError, before calling ``h``, for a grid that is not finite and
    strictly increasing.
    """
    params = np.asarray(params, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if not np.isfinite(grid).all() or (np.diff(grid) <= 0).any():
        raise ValueError("bracket_roots: the grid must be finite and strictly increasing")
    vals = np.asarray(h(np.repeat(params, grid.size), np.tile(grid, params.size)), dtype=float)
    vals = vals.reshape(params.size, grid.size)
    zero_line, zero_at = np.nonzero(vals == 0.0)
    sign = np.sign(vals)  # a product of tiny values could underflow to 0
    line, at = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0)
    roots = np.empty(line.size)
    # the open brackets: their index into roots, line parameter, ends and
    # values, first width, and widths one and two steps back
    rows, p, a, b = np.arange(line.size), params[line], grid[at], grid[at + 1]
    fa, fb = vals[line, at], vals[line, at + 1]
    w0 = b - a
    w1 = w2 = np.full(line.size, np.inf)
    for step in range(80):
        m = 0.5 * (a + b)
        shut = (m == a) | (m == b)
        if shut.any():
            roots[rows[shut]] = m[shut]
            rows, p, a, b, fa, fb, w0, w1, w2, m = (v[~shut] for v in (rows, p, a, b, fa, fb, w0, w1, w2, m))
        if rows.size == 0:
            break
        w = b - a
        with np.errstate(all="ignore"):
            # regula falsi from the end with the smaller |h|, which keeps its
            # digits when the root is next to that end; then the truncation
            near = np.abs(fa) < np.abs(fb)
            x = np.where(near, a, b) - np.where(near, fa, fb) * (w / (fb - fa))
            d = np.maximum(ITP_K1 * w * (w / w0), np.abs(np.spacing(x)))
            x = np.where(d < np.abs(m - x), x + np.copysign(d, m - x), m)
        x = np.where((a < x) & (x < b) & (w <= 0.5 * w2), x, m)
        # the projection: after this step no wider than w0 2^(ITP_N0 - step - 1)
        r = np.maximum(np.ldexp(w0, ITP_N0 - 1 - step) - 0.5 * w, 0.0)
        x = np.minimum(np.maximum(x, m - r), m + r)
        fx = np.asarray(h(p, x), dtype=float)
        # fa * fx <= 0 on the signs, which no product underflow can flip
        left = np.sign(fa) * np.sign(fx) <= 0
        a, fa = np.where(left, a, x), np.where(left, fa, fx)
        b, fb = np.where(left, x, b), np.where(left, fx, fb)
        w1, w2 = w, w1
        zero = fx == 0.0
        if zero.any():
            roots[rows[zero]] = x[zero]
            rows, p, a, b, fa, fb, w0, w1, w2 = (v[~zero] for v in (rows, p, a, b, fa, fb, w0, w1, w2))
    roots[rows] = 0.5 * (a + b)
    lines = np.concatenate([zero_line, line])
    roots = np.concatenate([grid[zero_at], roots])
    order = np.lexsort((np.concatenate([zero_at, at]), lines))
    return lines[order], roots[order]


def dedup(points, radius: float) -> List[int]:
    """Indices of a greedy keep-first cover of ``points``: a point is kept
    when it lies farther than ``radius`` from every point kept before it, so
    one at exactly ``radius`` is dropped; a point that is not finite is never
    kept and keeps out nothing.

    ``points`` is a sequence of vectors (or scalars), or a (G, S, d) array of
    G groups of S points each covered on its own, with NaN rows for the
    points a group lacks; the indices are then into its G * S rows in group
    order.  One pass over the S positions covers every group at once: each
    group's kept points are packed in order into an inf-padded array, and
    the point at a position is measured against the kept points alone, by
    the square root of the least sum of squares (``np.linalg.norm``'s
    arithmetic, the root being monotone).  Time and memory are those of the
    points times the most points any group keeps.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim < 3:
        if len(pts) == 0:
            return []
        pts = pts.reshape(1, len(pts), -1)
    P = pts.transpose(1, 0, 2).copy()  # (S, G, d): one row per position
    S, G, d = P.shape
    kept = np.isfinite(P).all(axis=2)
    packed = np.full((S, G, d), np.inf)  # every distance to inf is inf
    # count: each group's kept points so far; m: the most of them
    count, groups, m = np.zeros(G, dtype=np.intp), np.arange(G), 0
    for p, k in zip(P, kept):
        if m:
            diff = packed[:m] - p
            diff *= diff
            k &= np.sqrt(np.add.reduce(diff, axis=2).min(axis=0)) > radius
        if k.any():
            packed[count, groups] = np.where(k[:, None], p, np.inf)
            count += k
            m = count.max()
    return np.flatnonzero(kept.T).tolist()


@dataclass(frozen=True)
class System:
    """A residual map that carries its Jacobian.

    ``evaluate(z)`` returns ``(residual, J)`` from one pass, ``J`` with one
    row per equation and one column per unknown.  A point ``z``, the list of
    its m floats, gives the residual as a list of floats and ``J`` as a list
    of row lists, which is what ``newton_solve`` and ``continue_curve``
    read.  An (N, m) stack of points gives both as arrays with a leading
    axis of N rows, each row what evaluating that row alone gives (to an
    ulp where a jet runs numpy's array arithmetic on the stack), and a row
    that leaves a field's box is NaN; ``newton_batch`` reads those.  The
    systems of a generating family (``critical_system``, ``front_system``,
    ``caustic_system``, ``pairing_system``) and of the ODE gallery read both
    from one field pass through ``fields.gather`` tables built once, with
    the same code for a point and a stack.

    ``rows(index)`` is the system to evaluate on the rows ``index`` of a
    stack, as ``newton_batch`` does with its running rows.  Rows that carry
    no data of their own make that the system itself; a system that binds
    data to each row is a ``RowSystem``.
    """

    evaluate: Callable[[object], Tuple[object, object]]

    def rows(self, index: np.ndarray) -> "System":
        """The system of the rows ``index``: this one, whose rows carry no data."""
        return self


@dataclass(frozen=True)
class RowSystem(System):
    """A System with data bound to each row of the stacks it evaluates, as
    ``critical_system`` with one x per row: ``take(index)`` is the system of
    the rows ``index`` alone, each with its own data, and it is what
    ``rows(index)`` returns."""

    take: Callable[[np.ndarray], System]

    def rows(self, index: np.ndarray) -> System:
        """The system of the rows ``index``, each with its own data."""
        return self.take(index)


def newton_solve(system: System, seed):
    """Solve the residual of ``system.evaluate(p)`` to ``NEWTON_TOL`` in the
    infinity norm from ``seed`` in at most ``NEWTON_MAX_ITER`` iterations.

    The iterates are lists of floats (``seed`` is any sequence of m
    numbers).  Each is one ``system.evaluate`` and the least-norm
    (Moore-Penrose) step with the ``SINGULAR_RATIO`` test on its Jacobian's
    extreme singular values: in closed form on Python floats for a 2 x 3
    Jacobian (``linalg.pinv_2x3``), else from one full SVD of one array of
    J.  Returns ``(p, J, last)`` with ``p`` the list of the solution's
    floats, ``J`` the Jacobian rows of that converged ``evaluate`` and
    ``last = (J_f, s_max, s_min, v)`` from the last step taken: the Jacobian
    rows of the iterate before ``p``, its largest and least singular values
    and its last right singular vector ``v`` as a list, the null vector of a
    wide J_f (None when ``seed`` itself converged).  Raises SingularJacobian
    or MaxIterations, and passes on the DomainError of a field whose box an
    iterate leaves.
    """
    p = list(map(float, seed))
    last = None
    for _ in range(NEWTON_MAX_ITER):
        r, J = system.evaluate(p)
        if len(r) > len(p):
            raise ValueError("over-determined system: more equations than unknowns")
        # the infinity norm below NEWTON_TOL (never for a NaN), in C
        if all(map(operator.gt, itertools.repeat(NEWTON_TOL), map(abs, r))):
            return p, J, last
        if len(r) == 2 and len(p) == 3:
            d, s_max, s_min, v = pinv_2x3(J, r)
        else:
            # one SVD gives the singular values and the least-norm step; its
            # full Vt also holds a null vector of a wide J, for the tangent
            U, s, Vt = np.linalg.svd(np.array(J, dtype=float))
            sv = s.tolist()
            s_max, s_min, v = sv[0], sv[-1], Vt[-1].tolist()
            # |d| <= |r| / s_min: a step that may overflow (or divide by a
            # zero s_min, refused below) is taken under errstate, and one
            # that overflows leaves the box at the next evaluate
            with _PLAIN if math.hypot(*r) < STEP_BOUND * s_min else np.errstate(all="ignore"):
                d = (Vt[: s.size].T @ ((U.T @ np.array(r, dtype=float)) / s)).tolist()
        if not (s_max > 0.0 and s_min >= SINGULAR_RATIO * s_max):
            raise SingularJacobian(f"singular Jacobian at {p}")
        p = [a - b for a, b in zip(p, d)]
        last = J, s_max, s_min, v
    raise MaxIterations(f"no convergence in {NEWTON_MAX_ITER} iterations (residual {r})")


def newton_batch(system: System, seeds: Sequence):
    """``newton_solve`` from every seed at once (a scalar seed is a
    1-vector): per iterate, one ``evaluate`` of the rows still running and
    one stacked SVD of them, which gives both the ``SINGULAR_RATIO`` test and
    the least-norm step.  A 1 x 1 Jacobian J has the one singular value |J|:
    its row is singular exactly where J = 0, or where J is not finite (which
    the SVD would refuse for the whole stack), and while every other |J|
    lies in ``EXACT_1X1`` the step is r / J with no SVD, the SVD's bit for
    bit.

    Each row ends on its own under ``newton_solve``'s rules: it converges,
    its Jacobian is singular, it leaves the field's box (its residual is not
    finite) or it is still running after ``NEWTON_MAX_ITER`` evaluations.  A
    row that has ended is not evaluated again: each iterate evaluates
    ``system.rows(running)`` on ``P[running]``, so a ``RowSystem`` (as
    ``critical_system`` with one x per row) evaluates each running row with
    its own data, and every row ends as it would in a whole-stack evaluate.

    Returns ``(P, R, J, outcome)``: the last iterate of each row, the
    residual and Jacobian each converged row converged with (NaN in the other
    rows) and each row's index into ``OUTCOMES``.
    """
    P = np.array([np.atleast_1d(np.asarray(s, dtype=float)) for s in seeds])
    N = len(P)
    outcome = np.full(N, MAX_ITERATIONS)
    if N == 0:
        return P.reshape(0, 0), np.zeros((0, 0)), np.zeros((0, 0, 0)), outcome
    running = np.arange(N)
    R = J = None
    for _ in range(NEWTON_MAX_ITER):
        res, Jr = system.rows(running).evaluate(P[running])
        if res.shape[-1] > P.shape[-1]:
            raise ValueError("over-determined system: more equations than unknowns")
        if R is None:
            R, J = np.full((N,) + res.shape[1:], np.nan), np.full((N,) + Jr.shape[1:], np.nan)
        left = ~np.isfinite(res).all(axis=1)
        conv = (np.abs(res) < NEWTON_TOL).all(axis=1)
        outcome[running[left]] = LEFT_BOX
        outcome[running[conv]] = CONVERGED
        R[running[conv]], J[running[conv]] = res[conv], Jr[conv]
        going = ~(left | conv)
        running, res, Jr = running[going], res[going], Jr[going]
        if running.size == 0:
            break
        exact = False
        if Jr.shape[1:] == (1, 1):
            # |J| is the one singular value: singular exactly where J = 0, or
            # where J is not finite, which the SVD would refuse for every row
            j = Jr[:, 0, 0]
            ok = np.isfinite(j) & (j != 0.0)
            if not ok.all():
                outcome[running[~ok]] = SINGULAR
                running, res, Jr, j = running[ok], res[ok], Jr[ok], j[ok]
            size = np.abs(j)
            exact = ((size >= EXACT_1X1[0]) & (size <= EXACT_1X1[1])).all()
        if exact:
            # the step r / J, the SVD's (+-r) / |J| bit for bit in EXACT_1X1
            with np.errstate(over="ignore"):
                P[running, 0] -= res[:, 0] / j
        else:
            U, s, Vt = np.linalg.svd(Jr, full_matrices=False)
            singular = (s[:, 0] == 0.0) | (s[:, -1] < SINGULAR_RATIO * s[:, 0])
            outcome[running[singular]] = SINGULAR
            ok = ~singular
            running, U, s, Vt, res = running[ok], U[ok], s[ok], Vt[ok], res[ok]
            # the least-norm step -V diag(1/s) U^T r; a step that overflows
            # leaves the box at the next evaluate, as newton_solve's does
            with np.errstate(over="ignore", invalid="ignore"):
                P[running] -= np.einsum("nji,nj->ni", Vt, np.einsum("nij,ni->nj", U, res) / s)
        if running.size == 0:
            break
    return P, R, J, outcome


def project_to_set(system: System, seeds: Sequence) -> List[np.ndarray]:
    """Least-norm Newton projection of each seed (a scalar is a 1-vector)
    onto the solution set of ``system``, in seed order: one ``newton_batch``
    of all the seeds, which drops each seed whose row does not converge."""
    P, _, _, outcome = newton_batch(system, seeds)
    return list(P[outcome == CONVERGED])


@dataclass
class Curve:
    """A traced solution chain.  ``points`` has one row per point."""

    points: np.ndarray
    closed: bool


def _tangent(J, last, prev: Optional[list]):
    """``(tau, reused)``: the unit null vector of the (m-1) x m Jacobian
    ``J`` (its row lists), as a list of floats oriented along ``prev``, and
    whether it is read from ``last``; RankDeficientSeed when
    ``numerical_rank(J) < m - 1``.

    ``last = (J_f, s_max, s_min, v)`` is from the corrector's last step, a
    nearby Jacobian J_f with null vector ``v``.  With d = ||J - J_f||_F,
    Weyl's inequality keeps every singular value of J within d of J_f's, so
    g = s_min - d bounds the least one of J from below, and the angle a
    between v and the null vector of J has sin a <= ||J v|| / g <= d / g
    (Wedin).  ``v`` is the tangent when ``g > RANK_EPS (s_max + d)``, so that
    ``numerical_rank(J)`` is m - 1, and ``d^2 <= RANK_EPS g^2``, so that
    1 - |cos a| <= sin^2 a <= RANK_EPS.  Otherwise it is the null vector of
    J itself: in closed form for a 2 x 3 J with a ``prev`` to orient it
    (``linalg.pinv_2x3``, rank 2 when its s_min > RANK_EPS s_max, the rule
    of ``numerical_rank``), else ``null_space(J)``, which also orients a
    seed's tangent.  All of it is float arithmetic, but ``null_space``.
    """
    tau = None
    if last is not None:
        J_f, s_max, s_min, v = last
        dd = 0.0
        for row, row_f in zip(J, J_f):
            for x, y in zip(row, row_f):
                e = x - y
                dd += e * e
        d = math.sqrt(dd)
        gap = s_min - d
        if gap > RANK_EPS * (s_max + d) and d * d <= RANK_EPS * gap * gap:
            tau = v
    reused = tau is not None
    if not reused:
        if prev is not None and len(J) == 2 and len(J[0]) == 3:
            _, s_max, s_min, tau = pinv_2x3(J, (0.0, 0.0))
            full = s_min > RANK_EPS * s_max
        else:
            ns = null_space(J)
            full = ns.shape[1] == 1
            tau = ns[:, 0].tolist() if full else None
        if not full:
            raise RankDeficientSeed("Jacobian null space is not one-dimensional")
    if prev is not None and sum(map(operator.mul, tau, prev)) < 0:
        tau = [-x for x in tau]
    return tau, reused


def continue_curve(system: System, seed, step: float, max_points: int) -> Curve:
    """Pseudo-arclength predictor-corrector tracing of a 1-D solution set.

    ``system`` maps R^m -> R^(m-1); its ``evaluate`` is the only domain
    rule.  A direction of the march ends, keeping its points, on the first of:

    - domain exit: DomainError from ``evaluate`` (a field's box, or any region
      the system refuses) at the step and its four halvings, so within about
      step/16 of the edge;
    - corrector failure: SingularJacobian or MaxIterations, in the same tries;
    - rank drop: the converged Jacobian's null space is not one-dimensional;
    - closure: a return within step/2 of the seed after at least 10 points;
    - ``max_points`` points in that direction.

    The predictor is second order, ``z + h tau + (h^2 / 2) c`` with ``c``
    the change of the unit tangent between the last two points per unit of
    their distance; it is Euler (``c = 0``) on the first step of each
    direction and after a tangent that ``_tangent`` did not read from the
    corrector's last step.  The corrector is ``newton_solve`` on ``system``
    itself from the predicted point (the Moore-Penrose corrector of Allgower
    & Georg): its least-norm steps land near the orthogonal foot of the
    predictor on the curve.  The next tangent is the null vector of the
    Jacobian it converged with: the null vector of the corrector's last step
    when ``_tangent`` certifies that it is ``null_space``'s answer to
    ``RANK_EPS``, else that of the converged Jacobian itself (in closed form
    for a 2 x 3 one), so a traced point usually costs one SVD, and none on a
    2 x 3 system.  Points, tangents and the predictor are lists of floats,
    and ``points`` is made once, at the end.  The seed must lie within
    ``SEED_TOL`` of the curve (else SeedNotOnCurve); it is polished there
    first, and its tangent comes from the polish under the same rule
    (RankDeficientSeed where the rank drops).
    """
    z0 = list(map(float, seed))
    res, J = system.evaluate(z0)
    if len(res) != len(z0) - 1:
        raise ValueError("system must have exactly one fewer equation than unknowns")
    if np.linalg.norm(res, ord=np.inf) > SEED_TOL:
        raise SeedNotOnCurve(f"seed residual {np.linalg.norm(res, np.inf):.3e}")
    # polish the seed onto the curve (least-norm correction)
    last = None
    try:
        z0, J, last = newton_solve(system, z0)
    except (SingularJacobian, MaxIterations):
        pass
    tau0, _ = _tangent(J, last, None)

    def march(direction: float):
        pts = []
        z = z0
        tau = [x * direction for x in tau0]
        curv = None  # (tau_i - tau_(i-1)) / |z_i - z_(i-1)|, once two points are known
        while len(pts) < max_points:
            h = step
            for _ in range(5):
                if curv is None:
                    pred = [a + h * b for a, b in zip(z, tau)]
                else:
                    hh = 0.5 * h * h
                    pred = [a + h * b + hh * c for a, b, c in zip(z, tau, curv)]
                try:
                    znew, J, last = newton_solve(system, pred)
                    break
                except (SingularJacobian, MaxIterations, DomainError):
                    h *= 0.5
            else:
                return pts, False
            pts.append(znew)
            if len(pts) >= 10 and math.dist(znew, z0) <= step / 2:
                return pts, True
            # the tangent at the corrector's converged point; a rank drop
            # (a singular point of the curve) ends the march here
            try:
                tau_new, reused = _tangent(J, last, tau)
            except RankDeficientSeed:
                return pts, False
            # the second-order term only from a certified tangent: where the
            # rank test is marginal (the degenerate t = 0 front slice) the
            # change of the tangent is noise
            if reused:
                dz = math.dist(znew, z)
                curv = [(a - b) / dz for a, b in zip(tau_new, tau)]
            else:
                curv = None
            z, tau = znew, tau_new
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
            points = bwd[::-1] + [z0] + fwd
    return Curve(points=np.array(points), closed=closed)
