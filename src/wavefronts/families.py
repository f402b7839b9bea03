"""Generating families F(q, x): rank criteria, critical sets and the induced
Lagrangian / graph-like unfolding maps."""

from __future__ import annotations

import ast as _pyast
import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence

import numpy as np

from . import expr as ex
from .errors import ChartFailure, FamilyFileError, FamilySizeError, NotOnSigmaStar
from .fields import ScalarField, field_from_expr, gather, jet_index
from .linalg import RANK_EPS, null_space, numerical_rank
from .solve import CONVERGED, RowSystem, System, dedup, newton_batch
from .solve import newton_solve  # noqa: F401  (perfbench/tracing.py wraps families.newton_solve by name)

DEDUP_RADIUS = 1e-6
# how far from the zero-critical set (value and dF/dq) a point may lie
# before nondegeneracy_check refuses it
ON_SIGMA_STAR_TOL = 1e-6
# the range of every variable of a family file without a ``domain``
FILE_DOMAIN = (-3.0, 3.0)
# the most variables k + n of a family file, checked before its box or
# expression is built (its Hessian has (k + n)^2 entries)
MAX_FILE_VARIABLES = 16


@dataclass(frozen=True)
class GeneratingFamily:
    """F(q, x) with k internal and n space variables.

    When the field's jet carries third partials they cover the k internal
    variables: ``d_z d2F/dq_a dq_b``, shape (k, k, k+n).
    """

    k: int
    n: int
    field: ScalarField  # arity k + n, variable order (q1..qk, x1..xn)
    name: str = ""
    seeds: tuple = ()

    def point(self, q, x) -> np.ndarray:
        """The float vector (q, x) of k + n entries; a scalar fills its part."""
        p = np.empty(self.k + self.n)
        p[: self.k] = q
        p[self.k :] = x
        return p

    def value(self, q, x) -> float:
        return self.field.value(self.point(q, x))

    def grad_q(self, q, x) -> np.ndarray:
        return self.field.grad(self.point(q, x))[: self.k]

    def grad_x(self, q, x) -> np.ndarray:
        return self.field.grad(self.point(q, x))[self.k :]

    def hess(self, q, x) -> np.ndarray:
        return self.field.hessian(self.point(q, x))

    def hess_qq(self, q, x) -> np.ndarray:
        return self.hess(q, x)[: self.k, : self.k]

    def delta_jacobian(self, q, x) -> np.ndarray:
        """k x (k+n) Jacobian of (dF/dq1 .. dF/dqk)."""
        return self.hess(q, x)[: self.k, :]


@dataclass(frozen=True)
class GraphLikeFamily:
    """The big family F(q, x) - t (unit factor fixed to 1)."""

    base: GeneratingFamily

    @property
    def k(self) -> int:
        return self.base.k


@dataclass(frozen=True)
class CriticalPoint:
    q: np.ndarray
    x: np.ndarray
    residual: float
    hess_q_det: float
    corank: int


@dataclass(frozen=True)
class LagrangianSample:
    x: np.ndarray
    p: np.ndarray
    source: CriticalPoint


@dataclass(frozen=True)
class GraphLikeSample:
    x: np.ndarray
    t: float
    p: np.ndarray
    source: CriticalPoint


def morse_family_check(fam: GeneratingFamily, q, x, eps: float = RANK_EPS) -> dict:
    """Rank test of the k x (k+n) Jacobian of dF/dq; pass iff rank == k."""
    J = fam.delta_jacobian(q, x)
    r = numerical_rank(J, eps)
    return {"pass": r == fam.k, "rank": r}


def morse_hypersurface_check(fam: GeneratingFamily, q, x, eps: float = RANK_EPS) -> dict:
    """Rank test of the (k+1) x (k+n) Jacobian of (F, dF/dq); pass iff rank == k+1."""
    _, g, H = fam.field.derivatives(fam.point(q, x))
    r = numerical_rank(np.vstack([g, H[: fam.k]]), eps)
    return {"pass": r == fam.k + 1, "rank": r}


def nondegeneracy_check(gl: GraphLikeFamily, q, x, t: float, eps: float = RANK_EPS) -> bool:
    """Non-degeneracy of the big family at a point of its zero-critical set
    (within ``ON_SIGMA_STAR_TOL``).

    Tests rank of [[0, dF/dx], [d2F/dq2, d2F/dxdq]] == k+1.
    """
    k = gl.k
    v, g, H = gl.base.field.derivatives(gl.base.point(q, x))
    if abs(v - t) > ON_SIGMA_STAR_TOL or np.linalg.norm(g[:k], np.inf) > ON_SIGMA_STAR_TOL:
        raise NotOnSigmaStar(f"point (q={q!r}, x={x!r}, t={t!r}) not on the zero-critical set")
    top = np.concatenate([np.zeros(k), g[k:]])
    return numerical_rank(np.vstack([top, H[:k]]), eps) == k + 1


def critical_system(fam: GeneratingFamily, x) -> System:
    """The k equations dF/dq = 0 in q at the fixed ``x``; the Jacobian is the
    (q, q) block of the field's Hessian, both read from one jet by index.
    ``x`` is one point, or one per row of the (N, k) stacks the system is
    evaluated on: then it is a ``RowSystem``, and ``rows(index)`` binds the
    x of the rows ``index``."""
    fld, k, m = fam.field, fam.k, fam.k + fam.n
    _, G, H, _ = jet_index(m, 0)
    point, residual, jacobian = gather(np.arange(m), None), gather(G[:k], None), gather(H[:k, :k], None)

    def bound(x):
        # one x: the tuple of its floats, joined to a point's q or to every row of a stack
        fixed = x if x.ndim == 2 else tuple(x.tolist())

        def evaluate(q):
            a = fld.jet(point(q, fixed), 0)
            return residual(a), jacobian(a)

        return RowSystem(evaluate, lambda index: bound(x[index])) if x.ndim == 2 else System(evaluate)

    return bound(np.atleast_1d(np.asarray(x, dtype=float)))


def solve_critical_set(fam: GeneratingFamily, x_grid: Sequence, q_seeds: Sequence) -> List[CriticalPoint]:
    """Newton-solve dF/dq = 0 at each grid x from each q seed: one
    ``newton_batch`` of ``critical_system`` over the whole (grid x, seed)
    stack.

    Non-converging seeds are skipped; duplicates at one x within
    ``DEDUP_RADIUS`` are merged by one grouped ``dedup`` of every x.  Each
    kept point's residual, det and corank come from the pass it converged
    with.  Output follows the deterministic grid order, and the seed order at
    each x.
    """
    k, S = fam.k, len(q_seeds)
    X = np.array([np.atleast_1d(np.asarray(x, dtype=float)) for x in x_grid]).reshape(-1, fam.n)
    if not S or not len(X):
        return []
    Q = np.array([np.atleast_1d(np.asarray(q, dtype=float)) for q in q_seeds]).reshape(S, k)
    P, R, H, outcome = newton_batch(critical_system(fam, np.repeat(X, S, axis=0)), np.tile(Q, (len(X), 1)))
    # one dedup of every x's converged rows, NaN in the others
    rows = dedup(np.where((outcome == CONVERGED)[:, None], P, np.nan).reshape(len(X), S, k), DEDUP_RADIUS)
    residual = np.abs(R[rows]).max(axis=1)
    # np.linalg.det, whose 1 x 1 answer can differ from h in the last bit
    det = np.linalg.det(H[rows])
    if k == 1:
        rank = H[rows, 0, 0] != 0.0  # numerical_rank's rule on the one singular value |h|
    else:
        s = np.linalg.svd(H[rows], compute_uv=False)
        rank = (s > RANK_EPS * s[:, :1]).sum(axis=1)  # numerical_rank's rule, row by row
    return [
        CriticalPoint(
            q=P[j], x=X[j // S], residual=float(residual[i]), hess_q_det=float(det[i]), corank=k - int(rank[i])
        )
        for i, j in enumerate(rows)
    ]


def shifted_family(fam: GeneratingFamily, t0: float) -> GeneratingFamily:
    """The family F - t0 (same variables); used to view a momentary slice of
    the graph-like family as a hypersurface family in its own right."""
    base = fam.field

    def jet_fn(v, with_third):
        jet = base.jet_fn(v, with_third)
        if isinstance(v, list):  # a point: a sequence of floats
            return [jet[0] - t0, *jet[1:]]
        jet[:, 0] -= t0  # the value entry of each row of a stacked jet
        return jet

    jet_fn.stacks = getattr(base.jet_fn, "stacks", False)
    fld = dataclasses.replace(base, fn=lambda p: base.fn(p) - t0, jet_fn=jet_fn)
    return GeneratingFamily(k=fam.k, n=fam.n, field=fld, name=f"{fam.name}-shift", seeds=fam.seeds)


def lagrangian_map(fam: GeneratingFamily, cp: CriticalPoint) -> LagrangianSample:
    return LagrangianSample(x=cp.x, p=fam.grad_x(cp.q, cp.x), source=cp)


def legendrian_unfolding_map(gl: GraphLikeFamily, cp: CriticalPoint) -> GraphLikeSample:
    fam = gl.base
    return GraphLikeSample(
        x=cp.x, t=fam.value(cp.q, cp.x), p=fam.grad_x(cp.q, cp.x), source=cp
    )


def rank_diagnostics(gl: GraphLikeFamily, cp: CriticalPoint) -> dict:
    """Ranks of the space/front projections and the least singular value of the
    cotangent projection, in an orthonormal chart of the critical set.

    With V the (k+n) x n tangent basis of C(F) = {dF/dq = 0}, the projections
    are read off its rows: the space projection x is ``V[k:]``, the front
    projection (x, F) adds ``gradF @ V`` and the cotangent projection (x, p)
    adds ``H[k:] @ V``, p = dF/dx.  One jet of the point's floats, one SVD
    for V and one stacked SVD of the three projections, each zero-padded to
    2n rows (zero rows add no singular value), give all three answers; the
    ranks are ``numerical_rank``'s rule.
    """
    fam = gl.base
    k, n, m = fam.k, fam.n, fam.k + fam.n
    a = np.array(fam.field.jet(cp.q.tolist() + cp.x.tolist(), 0))
    gradF, H = a[1 : m + 1], a[m + 1 :].reshape(m, m)
    V = null_space(H[:k])  # (k+n) x n tangent basis of C(F)
    if V.shape[1] != n:
        raise ChartFailure(
            f"critical set not a graph near (q={cp.q!r}, x={cp.x!r}): tangent dim {V.shape[1]}"
        )
    proj = np.zeros((3, 2 * n, n))
    proj[:, :n] = V[k:]
    proj[1, n] = gradF @ V
    proj[2, n:] = H[k:] @ V
    space, front, cotangent = np.linalg.svd(proj, compute_uv=False).tolist()
    return {
        "space_proj_rank": sum(v > RANK_EPS * space[0] for v in space),
        "front_proj_rank": sum(v > RANK_EPS * front[0] for v in front),
        "immersion_sigma_min": cotangent[-1],
    }


# ---------------------------------------------------------------------------
# Family files and the built-in catalog


def family_from_text(
    text: str,
    k: int,
    n: int,
    box=None,
    name: str = "",
    seeds: Sequence = (),
) -> GeneratingFamily:
    e = ex.parse_family(text, k, n)
    fld = field_from_expr(e, ex.family_variables(k, n), box=box, third_rows=k)
    return GeneratingFamily(k=k, n=n, field=fld, name=name, seeds=_check_seeds(seeds, k))


def _check_seeds(seeds: Sequence, k: int) -> tuple:
    """Seeds as length-k float vectors; FamilyFileError names the first bad one."""
    if not isinstance(seeds, (list, tuple, np.ndarray)):
        raise FamilyFileError(f"seeds must be a list of vectors, got {seeds!r}")
    out = []
    for i, s in enumerate(seeds):
        try:
            v = np.atleast_1d(np.asarray(s, dtype=float))
        except (TypeError, ValueError) as e:
            raise FamilyFileError(f"seed {i} {s!r} is not a vector of numbers") from e
        if v.ndim != 1 or v.size != k:
            raise FamilyFileError(f"seed {i} {s!r} has length {v.size}, expected k = {k}")
        out.append(v)
    return tuple(out)


def _parse_value(raw: str):
    raw = raw.strip()
    try:
        return _pyast.literal_eval(raw)
    except (ValueError, SyntaxError):
        return raw


def parse_family_file(text: str) -> dict:
    """Parse a key/value family file: k, n, expr, domain, seeds."""
    data = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FamilyFileError(f"line {lineno}: expected 'key = value'")
        key, raw = line.split("=", 1)
        data[key.strip()] = _parse_value(raw)
    for req in ("k", "n", "expr"):
        if req not in data:
            raise FamilyFileError(f"missing required key {req!r}")
    return data


def family_from_file(path) -> GeneratingFamily:
    data = parse_family_file(Path(path).read_text())
    k, n = data["k"], data["n"]
    if not all(type(v) is int for v in (k, n)):
        raise FamilyFileError(f"k and n must be integers, got k = {k!r}, n = {n!r}")
    if min(k, n) < 1 or k + n > MAX_FILE_VARIABLES:
        raise FamilySizeError(
            f"k and n must be at least 1 and k + n at most {MAX_FILE_VARIABLES}, got k = {k}, n = {n}"
        )
    box = tuple((float(lo), float(hi)) for lo, hi in data.get("domain", [FILE_DOMAIN] * (k + n)))
    if len(box) != k + n:
        raise FamilyFileError("domain must list one [lo, hi] per variable (q first, then x)")
    seeds = data.get("seeds", [])
    return family_from_text(
        str(data["expr"]), k, n, box=box, name=str(data.get("name", Path(path).stem)), seeds=seeds
    )


def catalog() -> dict:
    """Built-in polynomial families used across tests and the verify command."""
    box3 = ((-4.0, 4.0), (-6.0, 6.0), (-6.0, 6.0))
    fams = {
        "fold": family_from_text(
            "q1^2 + x1*q1 + x2", 1, 2, box=box3, name="fold", seeds=[[-1.0], [0.0], [1.0]]
        ),
        "cusp": family_from_text(
            "q1^4 + x1*q1^2 + x2*q1", 1, 2, box=box3, name="cusp",
            seeds=[[-1.5], [-0.5], [0.0], [0.5], [1.5]],
        ),
    }
    return fams
