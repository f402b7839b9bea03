"""Momentary fronts, the big front and the three discriminant components."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

from .errors import (
    DeltaNonEmptyForGraphLike,
    DomainError,
    MaxIterations,
    RankDeficientSeed,
    SeedNotOnCurve,
    SingularJacobian,
)
from .families import GeneratingFamily, GraphLikeFamily, solve_critical_set
from .linalg import adjugate, numerical_rank
from .solve import Curve, System, continue_curve, dedup, newton_solve

MEMBERSHIP_TOL = 1e-8
PAIR_MIN_SEPARATION = 1e-3


@dataclass
class FrontCurve:
    """One traced momentary front: x-projections with their source q."""

    t: float
    x: np.ndarray  # (N, n)
    q: np.ndarray  # (N, k)
    closed: bool


@dataclass
class PointCloud:
    x: np.ndarray  # (N, n)
    q: np.ndarray  # (N, k)
    chains: List[np.ndarray] = field(default_factory=list)  # per-chain x rows

    @staticmethod
    def empty(n: int, k: int) -> "PointCloud":
        return PointCloud(x=np.zeros((0, n)), q=np.zeros((0, k)))


@dataclass
class MaxwellPoint:
    x: np.ndarray
    q: np.ndarray
    q2: np.ndarray
    value: float


@dataclass
class DiscriminantDecomposition:
    caustic: PointCloud
    maxwell: List[MaxwellPoint]
    delta: np.ndarray  # (N, n)


def project_to_set(
    system: Callable, samples: Sequence, tol: float = 1e-10
) -> List[np.ndarray]:
    """Least-norm Newton projection of coarse samples onto a solution set."""
    out = []
    for s in samples:
        try:
            out.append(newton_solve(system, np.asarray(s, dtype=float), tol=tol))
        except (SingularJacobian, MaxIterations, DomainError):
            continue
    return out


def _near_chain(p: np.ndarray, chains: List[np.ndarray], radius: float) -> bool:
    for pts in chains:
        if pts.size and np.min(np.linalg.norm(pts - p, axis=1)) < radius:
            return True
    return False


def _trace_all(
    system: Callable,
    seeds: Sequence,
    step: float,
    max_points: int,
    box,
) -> List[Curve]:
    """Trace from each seed, skipping seeds already covered by earlier chains."""
    chains: List[Curve] = []
    raw: List[np.ndarray] = []
    skipped = 0
    for s in seeds:
        s = np.asarray(s, dtype=float)
        if _near_chain(s, raw, 2 * step):
            continue
        try:
            c = continue_curve(system, s, step=step, max_points=max_points, box=box)
        except (SeedNotOnCurve, RankDeficientSeed):
            skipped += 1
            continue
        chains.append(c)
        raw.append(c.points)
    return chains


def front_system(gl: GraphLikeFamily, t: float) -> System:
    """(k+1) equations (dF/dq, F - t) in z = (q, x).  The Jacobian is the q
    rows of the Hessian over the gradient of F."""
    fld, k = gl.base.field, gl.base.k
    return System(
        lambda z: np.concatenate([fld.grad(z)[:k], [fld.value(z) - t]]),
        lambda z: np.vstack([fld.hessian(z)[:k], fld.grad(z)]),
    )


def momentary_front(
    gl: GraphLikeFamily,
    t: float,
    seeds: Sequence,
    step: float = 0.02,
    max_points: int = 2000,
    box=None,
) -> List[FrontCurve]:
    """Trace the level-t front in (q, x) and project to x.

    ``seeds`` are coarse (q, x) samples; they are first projected onto the
    solution set.  For n >= 3 the projected points are returned unordered
    (one single-chain FrontCurve per component is not attempted).
    """
    fam = gl.base
    k, n = fam.k, fam.n
    system = front_system(gl, t)
    if box is None:
        box = fam.field.box
    projected = project_to_set(system, seeds)
    projected = [projected[i] for i in dedup(projected, 5 * step)]
    if n != 2:
        pts = np.array(projected) if projected else np.zeros((0, k + n))
        return [FrontCurve(t=t, x=pts[:, k:], q=pts[:, :k], closed=False)] if len(pts) else []
    out = []
    for c in _trace_all(system, projected, step, max_points, box):
        out.append(FrontCurve(t=t, x=c.points[:, k:], q=c.points[:, :k], closed=c.closed))
    return out


def big_front(
    gl: GraphLikeFamily,
    t_values: Sequence[float],
    seeds: Sequence,
    step: float = 0.02,
    max_points: int = 2000,
    box=None,
) -> List[FrontCurve]:
    out: List[FrontCurve] = []
    for t in t_values:
        out.extend(momentary_front(gl, t, seeds, step=step, max_points=max_points, box=box))
    return out


def caustic_system(fam: GeneratingFamily) -> System:
    """(k+1) equations (dF/dq, det d2F/dq2) in z = (q, x).

    The Jacobian's det row is ``d det H = tr(adj(H) dH)``, which stays defined
    on the caustic itself, where H = d2F/dq2 is singular.
    """
    fld, k = fam.field, fam.k

    def system(z):
        return np.concatenate([fld.grad(z)[:k], [np.linalg.det(fld.hessian(z)[:k, :k])]])

    def jac(z):
        H = fld.hessian(z)[:k]
        det_row = np.einsum("ba,abc->c", adjugate(H[:, :k]), fld.third(z)[:k, :k])
        return np.vstack([H, det_row])

    return System(system, jac)


def caustic(
    fam: GeneratingFamily,
    seeds: Sequence,
    step: float = 0.02,
    max_points: int = 2000,
    box=None,
) -> PointCloud:
    """x-projections of the traced degenerate-critical-point curve(s)."""
    k, n = fam.k, fam.n
    system = caustic_system(fam)
    if box is None:
        box = fam.field.box
    projected = project_to_set(system, seeds)
    projected = [projected[i] for i in dedup(projected, 5 * step)]
    xs, qs = [], []
    for c in _trace_all(system, projected, step, max_points, box):
        xs.append(c.points[:, k:])
        qs.append(c.points[:, :k])
    if not xs:
        return PointCloud.empty(n, k)
    return PointCloud(x=np.vstack(xs), q=np.vstack(qs), chains=xs)


def pairing_system(fam: GeneratingFamily) -> System:
    """(2k+1) equations (dF/dq(q, x), dF/dq(q', x), F(q, x) - F(q', x)) in
    w = (q, q', x), with the Jacobian built from the field's Hessian."""
    fld, k, n = fam.field, fam.k, fam.n

    def system(w):
        za, zb = np.concatenate([w[:k], w[2 * k :]]), w[k:]
        return np.concatenate([fld.grad(za)[:k], fld.grad(zb)[:k], [fld.value(za) - fld.value(zb)]])

    def jac(w):
        za, zb = np.concatenate([w[:k], w[2 * k :]]), w[k:]
        ga, gb = fld.grad(za), fld.grad(zb)
        Ha, Hb = fld.hessian(za)[:k], fld.hessian(zb)[:k]
        J = np.zeros((2 * k + 1, 2 * k + n))
        J[:k, :k], J[:k, 2 * k :] = Ha[:, :k], Ha[:, k:]
        J[k : 2 * k, k : 2 * k], J[k : 2 * k, 2 * k :] = Hb[:, :k], Hb[:, k:]
        J[2 * k] = np.concatenate([ga[:k], -gb[:k], ga[k:] - gb[k:]])
        return J

    return System(system, jac)


def maxwell_set(
    fam: GeneratingFamily,
    x_grid: Sequence,
    q_seeds: Sequence,
    value_window: float = 0.5,
    min_separation: float = PAIR_MIN_SEPARATION,
    value_tol: float = MEMBERSHIP_TOL,
    dedup_radius: float = 1e-4,
) -> List[MaxwellPoint]:
    """Pairs of distinct critical points with equal critical values.

    Critical sheets are discovered on the grid, candidate pairs with close
    values refined by least-norm Newton on the pairing equations.
    """
    k, n = fam.k, fam.n
    cps = solve_critical_set(fam, x_grid, q_seeds)
    by_x: dict = {}
    for cp in cps:
        by_x.setdefault(tuple(np.round(cp.x, 12)), []).append(cp)
    pairing = pairing_system(fam)
    out: List[MaxwellPoint] = []
    for group in by_x.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                a, b = group[i], group[j]
                if np.linalg.norm(a.q - b.q) < min_separation:
                    continue
                va, vb = fam.value(a.q, a.x), fam.value(b.q, b.x)
                if abs(va - vb) > value_window:
                    continue
                w0 = np.concatenate([a.q, b.q, a.x])
                try:
                    w = newton_solve(pairing, w0)
                except (SingularJacobian, MaxIterations, DomainError):
                    continue
                q, q2, x = w[:k], w[k : 2 * k], w[2 * k :]
                if np.linalg.norm(q - q2) < min_separation:
                    continue
                value = fam.value(q, x)
                if abs(value - fam.value(q2, x)) > value_tol:
                    continue
                out.append(MaxwellPoint(x=x, q=q, q2=q2, value=value))
    return [out[i] for i in dedup([p.x for p in out], dedup_radius)]


def delta_set(
    gl: GraphLikeFamily,
    t_values: Sequence[float],
    seeds: Sequence,
    step: float = 0.02,
    max_points: int = 2000,
    box=None,
    stall_ratio: float = 1e-6,
) -> np.ndarray:
    """Points where a traced level curve is regular but its x-projection stalls.

    Legendrian-singular samples (degenerate fiber Hessian) are excluded, so for
    graph-like families the result must be empty.
    """
    fam = gl.base
    k = fam.k
    hits = []
    for fc in big_front(gl, t_values, seeds, step=step, max_points=max_points, box=box):
        if len(fc.x) < 2:
            continue
        dz = np.linalg.norm(
            np.diff(np.hstack([fc.q, fc.x]), axis=0), axis=1
        )
        dx = np.linalg.norm(np.diff(fc.x, axis=0), axis=1)
        for i in np.nonzero(dx < stall_ratio * np.maximum(dz, 1e-300))[0]:
            H = fam.hess_qq(fc.q[i], fc.x[i])
            if numerical_rank(H) == k:
                hits.append(fc.x[i])
    return np.array(hits) if hits else np.zeros((0, fam.n))


def discriminant(
    gl: GraphLikeFamily,
    seeds: Sequence,
    x_grid: Sequence,
    q_seeds: Sequence,
    t_values: Sequence[float],
    step: float = 0.02,
    max_points: int = 2000,
    box=None,
) -> DiscriminantDecomposition:
    """Caustic plus Maxwell set; asserts the delta component is empty."""
    fam = gl.base
    ca = caustic(fam, seeds, step=step, max_points=max_points, box=box)
    mx = maxwell_set(fam, x_grid, q_seeds)
    de = delta_set(gl, t_values, seeds, step=step, max_points=max_points, box=box)
    if len(de):
        raise DeltaNonEmptyForGraphLike(f"{len(de)} delta points found for a graph-like family")
    return DiscriminantDecomposition(caustic=ca, maxwell=mx, delta=de)


# ---------------------------------------------------------------------------
# Polyline diagnostics used by invariants and tests


def detect_cusps(points: np.ndarray, angle: float = np.pi / 2) -> List[int]:
    """Indices where the discrete tangent turns by more than ``angle``."""
    if len(points) < 3:
        return []
    d = np.diff(points, axis=0)
    norms = np.linalg.norm(d, axis=1)
    keep = norms > 1e-14
    d, norms = d[keep], norms[keep]
    t = d / norms[:, None]
    dots = np.sum(t[:-1] * t[1:], axis=1)
    return [int(i) + 1 for i in np.nonzero(dots < np.cos(angle))[0]]


def polyline_self_intersections(points: np.ndarray) -> List[np.ndarray]:
    """Crossing points of non-adjacent segments of a 2-D polyline."""
    out = []
    m = len(points) - 1
    for i in range(m):
        p, r = points[i], points[i + 1] - points[i]
        for j in range(i + 2, m):
            if i == 0 and j == m - 1 and np.allclose(points[0], points[m]):
                continue
            q, s = points[j], points[j + 1] - points[j]
            denom = r[0] * s[1] - r[1] * s[0]
            if abs(denom) < 1e-14:
                continue
            d = q - p
            u = (d[0] * s[1] - d[1] * s[0]) / denom
            v = (d[0] * r[1] - d[1] * r[0]) / denom
            if 0 <= u <= 1 and 0 <= v <= 1:
                out.append(p + u * r)
    return out


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two point clouds."""
    if len(a) == 0 or len(b) == 0:
        return np.inf
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


# pairwise-distance blocks are processed in chunks of this many points to keep
# the (chunk, S, d) intermediates bounded for large clouds
_DIST_CHUNK = 512


def polyline_distances(points: np.ndarray, chains: Sequence[np.ndarray]) -> np.ndarray:
    """Distance from each point to the nearest segment of any chain."""
    points = np.asarray(points, dtype=float)
    best = np.full(len(points), np.inf)
    for chain in chains:
        chain = np.asarray(chain, dtype=float)
        if len(chain) == 0:
            continue
        if len(chain) == 1:
            d = np.linalg.norm(points - chain[0], axis=1)
            best = np.minimum(best, d)
            continue
        a = chain[:-1]  # (S, d)
        seg = chain[1:] - a
        seg_len2 = np.maximum(np.sum(seg**2, axis=1), 1e-300)
        for lo in range(0, len(points), _DIST_CHUNK):
            blk = points[lo : lo + _DIST_CHUNK]
            diff = blk[:, None, :] - a[None, :, :]  # (N, S, d)
            t = np.clip(np.einsum("nsd,sd->ns", diff, seg) / seg_len2, 0.0, 1.0)
            proj = a[None, :, :] + t[:, :, None] * seg[None, :, :]
            d = np.linalg.norm(blk[:, None, :] - proj, axis=2).min(axis=1)
            best[lo : lo + _DIST_CHUNK] = np.minimum(best[lo : lo + _DIST_CHUNK], d)
    return best


def min_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each point of ``a`` to the cloud ``b``."""
    if len(a) == 0:
        return np.zeros(0)
    if len(b) == 0:
        return np.full(len(a), np.inf)
    out = np.empty(len(a))
    for lo in range(0, len(a), _DIST_CHUNK):
        blk = a[lo : lo + _DIST_CHUNK]
        out[lo : lo + _DIST_CHUNK] = np.linalg.norm(
            blk[:, None, :] - b[None, :, :], axis=2
        ).min(axis=1)
    return out
