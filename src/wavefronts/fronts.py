"""Momentary fronts, the big front and the three discriminant components."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, groupby
from typing import Callable, List, Sequence

import numpy as np

from .errors import DeltaNonEmptyForGraphLike, DomainError, RankDeficientSeed, SeedNotOnCurve
from .families import GeneratingFamily, GraphLikeFamily, solve_critical_set
from .fields import jet_index
from .linalg import adjugate, numerical_rank
from .solve import Curve, System, continue_curve, dedup, project_to_set
from .solve import newton_solve  # noqa: F401  (perfbench/tracing.py wraps fronts.newton_solve by name)

PAIR_MIN_SEPARATION = 1e-3
# continuation: the arclength step and the point cap of each march direction
TRACE_STEP = 0.02
TRACE_MAX_POINTS = 2000
# delta_set: a traced step whose x-projection is shorter than this fraction
# of the step in (q, x) stalls
STALL_RATIO = 1e-6
# detect_cusps: the least turn of the discrete tangent at a cusp
CUSP_ANGLE = np.pi / 2


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
    chain: int  # the index of its traced chain; points come in chain order


@dataclass
class DiscriminantDecomposition:
    caustic: PointCloud
    maxwell: List[MaxwellPoint]
    delta: np.ndarray  # (N, n)


def _near_chain(p: np.ndarray, chains: List[np.ndarray], radius: float) -> bool:
    for pts in chains:
        if pts.size and np.min(np.linalg.norm(pts - p, axis=1)) < radius:
            return True
    return False


def _trace_all(system: Callable, seeds: Sequence, step: float, max_points: int) -> List[Curve]:
    """Trace from each seed, skipping seeds already covered by earlier chains
    and seeds that ``continue_curve`` refuses."""
    chains: List[Curve] = []
    for s in seeds:
        s = np.asarray(s, dtype=float)
        if _near_chain(s, [c.points for c in chains], 2 * step):
            continue
        try:
            chains.append(continue_curve(system, s, step=step, max_points=max_points))
        except (SeedNotOnCurve, RankDeficientSeed):
            pass
    return chains


def _trace_seeds(system: System, points: Sequence, step: float, max_points: int, n: int) -> List[Curve]:
    """Drop the points (already on the solution set of ``system``) within
    ``5 * step`` of one kept before, and trace the rest when the set is a
    curve (n = 2).  Otherwise the kept points are one unordered, open chain."""
    kept = [points[i] for i in dedup(points, 5 * step)]
    if n == 2:
        return _trace_all(system, kept, step, max_points)
    return [Curve(points=np.array(kept), closed=False)] if kept else []


def front_system(gl: GraphLikeFamily, t: float) -> System:
    """(k+1) equations (dF/dq, F - t) in z = (q, x).  The Jacobian is the q
    rows of the Hessian over the gradient of F; both are read from one jet by
    index, and ``t`` is subtracted from the value."""
    fld, k, m = gl.base.field, gl.base.k, gl.base.k + gl.base.n
    V, G, H, _ = jet_index(m, 0)
    res_at, jac_at = np.append(G[:k], V), np.vstack([H[:k], G])
    shift = np.append(np.zeros(k), t)  # x - 0.0 is x

    def evaluate(z):
        a = fld.jet(z, 0)
        return a.take(res_at, -1) - shift, a.take(jac_at, -1)

    return System(evaluate)


def momentary_front(gl: GraphLikeFamily, t: float, seeds: Sequence) -> List[FrontCurve]:
    """Trace the level-t front in (q, x) and project to x.

    ``seeds`` are coarse (q, x) samples; they are first projected onto the
    solution set.  For n != 2 the projected points are returned unordered
    (one single-chain FrontCurve per component is not attempted).
    """
    fam = gl.base
    k = fam.k
    system = front_system(gl, t)
    points = project_to_set(system, seeds)
    curves = _trace_seeds(system, points, TRACE_STEP, TRACE_MAX_POINTS, fam.n)
    return [FrontCurve(t=t, x=c.points[:, k:], q=c.points[:, :k], closed=c.closed) for c in curves]


def big_front(gl: GraphLikeFamily, t_values: Sequence[float], seeds: Sequence) -> List[FrontCurve]:
    out: List[FrontCurve] = []
    for t in t_values:
        out.extend(momentary_front(gl, t, seeds))
    return out


def caustic_system(fam: GeneratingFamily) -> System:
    """(k+1) equations (dF/dq, det d2F/dq2) in z = (q, x), read from one jet
    with the third partials.

    The Jacobian's det row is ``d det H = tr(adj(H) dH)``, which stays defined
    on the caustic itself, where H = d2F/dq2 is singular.  For k = 1 the
    determinant is the entry itself and the adjugate is 1, so the residual and
    the Jacobian are read from the jet by index alone.
    """
    fld, k, m = fam.field, fam.k, fam.k + fam.n
    _, G, H, T = jet_index(m, k)
    # for k >= 2 the det entry and its row are written over these
    res_at, jac_at = np.append(G[:k], H[0, 0]), np.vstack([H[:k], T[0, 0]])

    def evaluate(z):
        a = fld.jet(z, k)
        res, J = a.take(res_at, -1), a.take(jac_at, -1)
        if k > 1:
            Hqq = a.take(H[:k, :k], -1)
            with np.errstate(invalid="ignore"):  # a stacked row outside the box is NaN
                res[..., k] = np.linalg.det(Hqq)
                J[..., k, :] = np.einsum("...ba,...abc->...c", adjugate(Hqq), a.take(T, -1))
        return res, J

    return System(evaluate)


def caustic(
    fam: GeneratingFamily,
    seeds: Sequence,
    step: float = TRACE_STEP,
    max_points: int = TRACE_MAX_POINTS,
) -> PointCloud:
    """x-projections of the traced degenerate-critical-point curve(s); for
    n != 2 the projected points, unordered, as one chain."""
    k, n = fam.k, fam.n
    system = caustic_system(fam)
    curves = _trace_seeds(system, project_to_set(system, seeds), step, max_points, n)
    if not curves:
        return PointCloud.empty(n, k)
    xs = [c.points[:, k:] for c in curves]
    return PointCloud(x=np.vstack(xs), q=np.vstack([c.points[:, :k] for c in curves]), chains=xs)


def pairing_system(fam: GeneratingFamily) -> System:
    """(2k+1) equations (dF/dq(q, x), dF/dq(q', x), F(q, x) - F(q', x)) in
    w = (q, q', x), with the Jacobian built from the field's Hessian.

    Each entry is ``ab[plus] - ab[minus]`` on the two jets of one evaluate
    and a +0.0 and a -0.0 after them: ``x - (+0.0)`` is ``x``, ``-0.0 - y``
    is ``-y`` and ``(+0.0) - (+0.0)`` a structural zero, so every entry,
    signed zeros included, is the one direct assignment gives.
    """
    fld, k, n = fam.field, fam.k, fam.n
    V, G, H, _ = jet_index(k + n, 0)
    b = H[-1, -1] + 1  # the second jet's offset: the first ends at its last Hessian entry
    pz, mz = 2 * b, 2 * b + 1  # the +0.0 and the -0.0
    zeros = np.full((k, k), pz)
    res_plus, res_minus = np.concatenate([G[:k], b + G[:k], [V]]), np.append(np.full(2 * k, pz), b + V)
    jac_plus = np.vstack([
        np.hstack([H[:k, :k], zeros, H[:k, k:]]),
        np.hstack([zeros, b + H[:k, :k], b + H[:k, k:]]),
        np.concatenate([G[:k], np.full(k, mz), G[k:]]),
    ])
    jac_minus = np.full(jac_plus.shape, pz)
    jac_minus[2 * k, k:] = b + G  # -dF/dq(q') and the x gradient difference
    at_a = np.r_[:k, 2 * k : 2 * k + n]  # (q, x) in w

    def evaluate(w):
        tail = np.zeros(w.shape[:-1] + (2,))
        tail[..., 1] = -0.0
        ab = np.concatenate([fld.jet(w.take(at_a, -1), 0), fld.jet(w[..., k:], 0), tail], axis=-1)
        return ab.take(res_plus, -1) - ab.take(res_minus, -1), ab.take(jac_plus, -1) - ab.take(jac_minus, -1)

    return System(evaluate)


def maxwell_set(
    fam: GeneratingFamily,
    x_grid: Sequence,
    q_seeds: Sequence,
) -> List[MaxwellPoint]:
    """Pairs of distinct critical points with equal critical values, in chain
    order, each with the index of its chain.

    Every two critical points at one grid x at least ``PAIR_MIN_SEPARATION``
    apart seed ``pairing_system`` in w = (q, q', x), which is traced as the
    caustic is (``_trace_seeds``) on its ordered half: the points whose
    sheets are that far apart and where q comes before q' lexicographically.
    A projected seed is swapped to (q', q, x) when that puts q first.  A
    chain ends at the edge of the ordered half (a merge q = q') as it ends at
    the edge of the field's box: through the DomainError raised there.
    """
    k, n = fam.k, fam.n
    seeds = [
        np.concatenate([a.q, b.q, a.x])
        for _, group in groupby(solve_critical_set(fam, x_grid, q_seeds), key=lambda cp: tuple(cp.x))
        for a, b in combinations(group, 2)
        if np.linalg.norm(a.q - b.q) >= PAIR_MIN_SEPARATION
    ]

    def kept(w):
        v = w.tolist()
        q, q2 = v[:k], v[k : 2 * k]
        return math.dist(q, q2) >= PAIR_MIN_SEPARATION and q < q2

    pairing, swap = pairing_system(fam), np.r_[k : 2 * k, :k, 2 * k : 2 * k + n]

    def ordered_half(w):
        if not kept(w):
            raise DomainError(f"pair {w.tolist()} is outside the ordered half")
        return pairing.evaluate(w)

    pairs = [v for w in project_to_set(pairing, seeds) for v in (w, w[swap]) if kept(v)]
    curves = _trace_seeds(System(ordered_half), pairs, TRACE_STEP, TRACE_MAX_POINTS, n)
    at_a = np.r_[:k, 2 * k : 2 * k + n]  # (q, x) in w
    return [
        MaxwellPoint(x=w[2 * k :], q=w[:k], q2=w[k : 2 * k], value=fam.field.value(w[at_a]), chain=i)
        for i, c in enumerate(curves) for w in c.points
    ]


def delta_set(gl: GraphLikeFamily, t_values: Sequence[float], seeds: Sequence) -> np.ndarray:
    """Points where a traced level curve is regular but its x-projection stalls.

    Legendrian-singular samples (degenerate fiber Hessian) are excluded, so for
    graph-like families the result must be empty.
    """
    fam = gl.base
    k = fam.k
    hits = []
    for fc in big_front(gl, t_values, seeds):
        if len(fc.x) < 2:
            continue
        dz = np.linalg.norm(
            np.diff(np.hstack([fc.q, fc.x]), axis=0), axis=1
        )
        dx = np.linalg.norm(np.diff(fc.x, axis=0), axis=1)
        for i in np.nonzero(dx < STALL_RATIO * np.maximum(dz, 1e-300))[0]:
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
) -> DiscriminantDecomposition:
    """Caustic plus Maxwell set; asserts the delta component is empty."""
    fam = gl.base
    ca = caustic(fam, seeds)
    mx = maxwell_set(fam, x_grid, q_seeds)
    de = delta_set(gl, t_values, seeds)
    if len(de):
        raise DeltaNonEmptyForGraphLike(f"{len(de)} delta points found for a graph-like family")
    return DiscriminantDecomposition(caustic=ca, maxwell=mx, delta=de)


# ---------------------------------------------------------------------------
# Polyline diagnostics: the gallery's self-intersections, the point-to-chain
# distances the benchmark and tests measure, and the tests' cusp heuristic


def detect_cusps(points: np.ndarray) -> List[int]:
    """Indices where the discrete tangent turns by more than ``CUSP_ANGLE``."""
    if len(points) < 3:
        return []
    d = np.diff(points, axis=0)
    norms = np.linalg.norm(d, axis=1)
    keep = norms > 1e-14
    d, norms = d[keep], norms[keep]
    t = d / norms[:, None]
    dots = np.sum(t[:-1] * t[1:], axis=1)
    return [int(i) + 1 for i in np.nonzero(dots < np.cos(CUSP_ANGLE))[0]]


# Point-segment and segment-segment pairs are evaluated in blocks of about
# this many, so no intermediate grows with (points x segments) or (segments^2).
_PAIR_BLOCK = 1 << 17


def polyline_self_intersections(points: np.ndarray) -> List[np.ndarray]:
    """Crossing points of non-adjacent segments of a 2-D polyline, in the
    order of a double loop over the first segment and then the second.

    Pairs whose cross product is below 1e-14 in magnitude are skipped, and so
    is the first-last pair of a closed polyline.
    """
    points = np.asarray(points, dtype=float)
    m = len(points) - 1
    if m < 3:
        return []
    p, r = points[:-1], points[1:] - points[:-1]
    closed = np.allclose(points[0], points[m])
    out: List[np.ndarray] = []
    rows = max(1, _PAIR_BLOCK // m)
    for i0 in range(0, m, rows):
        pair = np.arange(m)[None, :] >= np.arange(i0, min(i0 + rows, m))[:, None] + 2
        if closed and i0 == 0:
            pair[0, m - 1] = False
        i, j = np.nonzero(pair)
        i += i0
        ri, sj = r[i], r[j]
        denom = ri[:, 0] * sj[:, 1] - ri[:, 1] * sj[:, 0]
        keep = ~(np.abs(denom) < 1e-14)
        i, ri, sj, denom = i[keep], ri[keep], sj[keep], denom[keep]
        d = p[j[keep]] - p[i]
        u = (d[:, 0] * sj[:, 1] - d[:, 1] * sj[:, 0]) / denom
        v = (d[:, 0] * ri[:, 1] - d[:, 1] * ri[:, 0]) / denom
        hit = (0 <= u) & (u <= 1) & (0 <= v) & (v <= 1)
        out.extend(p[i[hit]] + u[hit, None] * ri[hit])
    return out


def polyline_distances(points: np.ndarray, chains: Sequence[np.ndarray]) -> np.ndarray:
    """Distance from each point to the nearest segment of any chain (a
    one-point chain is a point); ``inf`` when there is no chain."""
    points = np.asarray(points, dtype=float)
    chains = [np.asarray(c, dtype=float) for c in chains if len(c)]
    if not chains:
        return np.full(len(points), np.inf)
    a = np.vstack([c[:-1] if len(c) > 1 else c for c in chains])
    b = np.vstack([c[1:] if len(c) > 1 else c for c in chains])
    return _nearest_segments(points, a, b)


def _expand(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated ranges ``starts[i] : starts[i] + counts[i]``."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)


def _plane(v: np.ndarray) -> np.ndarray:
    """The first two coordinates of each row (a zero second one for 1-D rows)."""
    return v[:, :2] if v.shape[1] >= 2 else np.column_stack([v[:, 0], np.zeros(len(v))])


def _nearest_segments(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact distance from each point to the nearest segment ``[a_s, b_s]``.

    Segments are registered in every cell of a uniform grid (over the first
    two coordinates) that their bounding box overlaps.  Each point visits the
    occupied cells around its own, ring by ring, skipping cells whose box is
    farther than the best distance found so far, and stops once the next
    ring's lower bound exceeds it.  A point outside the grid starts from the
    nearest cell and adds its distance to the grid's box to the bound in
    quadrature.  Each pair's distance is the brute-force formula, so the
    result is the minimum over all segments.
    """
    best = np.full(len(points), np.inf)
    if len(points) == 0:
        return best
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return best * np.nan  # as the brute-force minimum over a NaN distance
    seg = b - a
    seg_len2 = np.maximum(np.sum(seg**2, axis=1), 1e-300)
    grid = _SegmentGrid(_plane(a), _plane(b))
    h, size = grid.h, grid.size

    def lower(q, occ):
        """Lower ``best[q]`` to the distance from point ``q`` to each segment
        of cell ``occ`` (one record per point and cell), ``_PAIR_BLOCK`` pairs
        at a time."""
        counts = grid.count[occ]
        ends = np.cumsum(counts)
        r0 = 0
        while r0 < len(counts):
            done = ends[r0 - 1] if r0 else 0
            r1 = max(r0 + 1, int(np.searchsorted(ends, done + _PAIR_BLOCK, side="right")))
            pq = np.repeat(q[r0:r1], counts[r0:r1])
            s = grid.members[_expand(grid.start[occ[r0:r1]], counts[r0:r1])]
            p, sa, ss = points[pq], a[s], seg[s]
            t = np.clip(np.einsum("pd,pd->p", p - sa, ss) / seg_len2[s], 0.0, 1.0)
            np.minimum.at(best, pq, np.linalg.norm(p - (sa + t[:, None] * ss), axis=1))
            r0 = r1

    finite = np.isfinite(points).all(axis=1)
    best[~finite] = np.nan
    xy = np.where(finite[:, None], _plane(points) - grid.lo, 0.0)  # grid coordinates
    inside = np.clip(xy, 0.0, grid.hi - grid.lo)
    outside2 = np.sum((xy - inside) ** 2, axis=1)
    cell = np.minimum(np.floor(inside / h).astype(np.int64), size - 1)
    reach = np.max(np.concatenate([cell, size - 1 - cell], axis=1), axis=1)
    slack = 1e-6 * h  # for rounding in the cell arithmetic, far below any real gap

    active = np.flatnonzero(finite)
    ring = 0
    while active.size:
        step = max(1, _PAIR_BLOCK // (8 * ring + 1))
        for first in range(0, active.size, step):
            q = active[first : first + step]
            pos, occ = grid.ring(cell[q], ring)
            q, box = q[pos], grid.cells[occ] * h
            gap = np.maximum(np.maximum(box - xy[q], xy[q] - box - h), 0.0)
            near = np.sqrt(np.sum(gap**2, axis=1)) - slack <= best[q]
            lower(q[near], occ[near])
        # cells not visited yet are at least ``ring`` whole cells away
        bound = np.sqrt(outside2[active] + (ring * h) ** 2) - slack
        active = active[(best[active] > bound) & (reach[active] > ring)]
        ring += 1
    return best


class _SegmentGrid:
    """Uniform grid buckets of 2-D segments, stored by occupied cell.

    The cell size starts at about four cells per segment over the bounding
    box (or per segment along a flat one) and doubles until the segments'
    bounding boxes register at most four cells per segment on average.
    ``cells`` holds the (x, y) index of each occupied cell in row-major
    order, and ``members[start[c] : start[c] + count[c]]`` its segments.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        lo_s, hi_s = np.minimum(a, b), np.maximum(a, b)
        self.lo, self.hi = lo_s.min(axis=0), hi_s.max(axis=0)
        ext, n_seg = self.hi - self.lo, len(a)
        h = max(0.5 * math.sqrt(ext[0] * ext[1] / n_seg), ext.max() / n_seg) or 1.0
        while True:
            c_lo = np.floor((lo_s - self.lo) / h).astype(np.int64)
            span = np.floor((hi_s - self.lo) / h).astype(np.int64) - c_lo + 1
            per_seg = span[:, 0] * span[:, 1]
            if per_seg.sum() <= 4 * n_seg:
                break
            h *= 2
        self.h = h
        self.size = np.floor(ext / h).astype(np.int64) + 1
        nx, ny = self.size
        owner = np.repeat(np.arange(n_seg), per_seg)
        # the j-th cell of a segment's box, row by row
        dy, dx = np.divmod(_expand(np.zeros(n_seg, dtype=np.int64), per_seg), np.repeat(span[:, 0], per_seg))
        key = np.repeat(c_lo[:, 1] * nx + c_lo[:, 0], per_seg) + dy * nx + dx
        order = np.argsort(key)
        key = key[order]
        self.start = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
        self.count = np.diff(np.append(self.start, len(key)))
        self.row_keys, self.members = key[self.start], owner[order]
        self.cells = np.column_stack([self.row_keys % nx, self.row_keys // nx])
        col_keys = self.cells[:, 0] * ny + self.cells[:, 1]
        self.by_col = np.argsort(col_keys)
        self.col_keys = col_keys[self.by_col]

    def ring(self, centre: np.ndarray, ring: int):
        """Occupied cells at Chebyshev distance ``ring`` from each centre cell:
        ``(position of the centre, occupied cell index)`` per pair."""
        nx, ny = self.size
        cx, cy = centre[:, 0], centre[:, 1]
        # the two rows span the full width; the two columns leave out the corners
        sides = [(cy - ring, cx - ring, cx + ring, False)]
        if ring:
            sides += [(cy + ring, cx - ring, cx + ring, False),
                      (cx - ring, cy - ring + 1, cy + ring - 1, True),
                      (cx + ring, cy - ring + 1, cy + ring - 1, True)]
        pos, occ = [], []
        for fixed, first, last, column in sides:
            n_along, n_fixed, keys = (ny, nx, self.col_keys) if column else (nx, ny, self.row_keys)
            first, last = np.maximum(first, 0), np.minimum(last, n_along - 1)
            lo = np.searchsorted(keys, fixed * n_along + first)
            hi = np.searchsorted(keys, fixed * n_along + last, side="right")
            count = np.where((fixed >= 0) & (fixed < n_fixed) & (first <= last), hi - lo, 0)
            idx = _expand(lo, count)
            pos.append(np.repeat(np.arange(len(centre)), count))
            occ.append(self.by_col[idx] if column else idx)
        return np.concatenate(pos), np.concatenate(occ)
