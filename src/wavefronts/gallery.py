"""The six normal-form integral diagrams for generic first-order ODEs:
momentary fronts, caustic / envelope / self-intersection data."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import expr as ex
from .errors import MaxIterations, SingularJacobian, UnknownGerm
from .fronts import polyline_self_intersections
from .solve import bracket_roots, dedup, newton_solve

_U = ("u1", "u2")

# gallery_front: the u2 samples scanned for roots of mu = t along each u1
# line, and the largest u2 jump that continues a branch
U2_SCAN = np.linspace(-3.0, 3.0, 400)
BRANCH_JUMP = 0.5
# gallery_discriminant: the chart grids of the caustic scan and the envelope
# parameters
CHART_GRID = np.linspace(-1.5, 1.5, 121)
ENVELOPE_GRID = np.linspace(-1.2, 1.2, 241)

_GERMS = {
    1: ("u2", ("u1", "u2"), "trivial"),
    2: ("2/3*u1^3 + u2", ("u1^2", "u2"), "regular"),
    3: ("u2 - 1/2*u1", ("u1", "u2^2"), "clairaut"),
    4: ("3/4*u1^4 + 1/2*u1^2*u2 + u2", ("u1^3 + u2*u1", "u2"), "regular"),
    5: ("u2", ("u1", "u2^3 + u1*u2"), "clairaut"),
    6: ("-3*u2^2 + 4*u1*u2 + u1", ("u1", "u2^3 + u1*u2^2"), "mixed"),
}

# Closed-form parametric envelopes of the front families (the delta data),
# one callable per branch, each mapping the branch parameter to (x, y).
_ENVELOPES = {
    3: [lambda s: np.array([s, 0.0])],
    5: [lambda s: np.array([-3 * s * s, -2 * s**3])],
    6: [lambda s: np.array([s, 0.0]), lambda s: np.array([s, 4 * s**3 / 27])],
}


@dataclass
class IntegralDiagram:
    germ_id: int
    kind: str
    mu: ex.Expr
    g: Tuple[ex.Expr, ex.Expr]
    mu_fn: Callable
    g_fn: Callable
    det_dg_fn: Callable

    def front_map(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(self.g_fn(u), dtype=float)


@dataclass
class GalleryFront:
    t: float
    branches: List[dict]  # each with keys "u" (N, 2) and "xy" (N, 2)

    @property
    def xy(self) -> np.ndarray:
        if not self.branches:
            return np.zeros((0, 2))
        return np.vstack([b["xy"] for b in self.branches])


@dataclass
class GalleryDiscriminant:
    caustic: np.ndarray  # (N, 2)
    maxwell: np.ndarray  # (N, 2)
    delta: np.ndarray  # (N, 2)


def gallery_family(germ_id: int, alpha: Optional[ex.Expr] = None) -> IntegralDiagram:
    """Build one of the six normal forms; ``alpha`` is an optional functional
    modulus, a polynomial in (v1, v2) composed with the front map."""
    if germ_id not in _GERMS:
        raise UnknownGerm(f"germ id {germ_id} (expected 1..6)")
    mu_text, g_texts, kind = _GERMS[germ_id]
    mu = ex.parse_expr(mu_text, _U)
    g = tuple(ex.parse_expr(s, _U) for s in g_texts)
    if alpha is not None and germ_id in (4, 5, 6):
        mu = ex.add(mu, alpha.subst({"v1": g[0], "v2": g[1]}))
    mu_fn = mu.compile(_U)
    g_fns = tuple(c.compile(_U) for c in g)
    # det of the Jacobian of the front map, symbolically
    det = ex.sub(
        ex.mul(g[0].diff("u1"), g[1].diff("u2")),
        ex.mul(g[0].diff("u2"), g[1].diff("u1")),
    )
    det_fn = det.compile(_U)
    return IntegralDiagram(
        germ_id=germ_id,
        kind=kind,
        mu=mu,
        g=g,
        mu_fn=mu_fn,
        g_fn=lambda u: np.array([g_fns[0](u), g_fns[1](u)]),
        det_dg_fn=det_fn,
    )


def gallery_front(diagram: IntegralDiagram, t: float, u1_grid: Sequence[float]) -> GalleryFront:
    """Level set mu = t solved along grid lines and mapped by the front map.

    Roots are matched to branches by continuity in u2 across the u1 grid.
    """
    u1_grid = np.asarray(u1_grid, dtype=float)
    line, u2_roots = bracket_roots(lambda p, s: diagram.mu_fn(np.array([p, s])) - t, u1_grid, U2_SCAN)
    per_line = np.split(u2_roots, np.searchsorted(line, np.arange(1, len(u1_grid))))
    branches: List[List[np.ndarray]] = []
    open_tips: List[float] = []
    for u1, roots in zip(u1_grid, per_line):
        assigned = [False] * len(branches)
        new_tips = list(open_tips)
        for u2 in roots:
            best, best_d = None, BRANCH_JUMP
            for bi, tip in enumerate(open_tips):
                if assigned[bi]:
                    continue
                d = abs(u2 - tip)
                if d < best_d:
                    best, best_d = bi, d
            if best is None:
                branches.append([np.array([u1, u2])])
                assigned.append(True)
                new_tips.append(u2)
            else:
                branches[best].append(np.array([u1, u2]))
                assigned[best] = True
                new_tips[best] = u2
        open_tips = new_tips
    out = []
    for br in branches:
        u = np.array(br)
        out.append({"u": u, "xy": diagram.front_map(u.T).T})
    return GalleryFront(t=float(t), branches=out)


def _caustic_points(diagram: IntegralDiagram) -> np.ndarray:
    """Zero locus of det Dg along the rows and columns of the square
    ``CHART_GRID`` chart, mapped by the front map."""
    f, grid = diagram.det_dg_fn, CHART_GRID
    row, u2 = bracket_roots(lambda p, s: f(np.array([p, s])), grid, grid)
    col, u1 = bracket_roots(lambda p, s: f(np.array([s, p])), grid, grid)
    u = np.concatenate([np.column_stack([grid[row], u2]), np.column_stack([u1, grid[col]])])
    if not len(u):
        return np.zeros((0, 2))
    pts = diagram.front_map(u.T).T
    return pts[dedup(pts, 1e-9)]


def _maxwell_points(
    diagram: IntegralDiagram, t_values: Sequence[float], u1_grid: np.ndarray
) -> np.ndarray:
    """Equal-time front self-intersections, refined by Newton on the pairing
    equations g(u) = g(u'), mu(u) = mu(u') = t."""
    out = []
    for t in t_values:
        front = gallery_front(diagram, t, u1_grid)
        for br in front.branches:
            if len(br["xy"]) < 4:
                continue
            for hit in polyline_self_intersections(br["xy"]):
                u_all = br["u"]
                d = np.linalg.norm(br["xy"] - hit, axis=1)
                order = np.argsort(d)
                ua = u_all[order[0]]
                ub = None
                for idx in order[1:]:
                    if np.linalg.norm(u_all[idx] - ua) > 1e-2:
                        ub = u_all[idx]
                        break
                if ub is None:
                    continue

                def pairing(w):
                    u, v = w[:2], w[2:]
                    return np.concatenate(
                        [
                            diagram.front_map(u) - diagram.front_map(v),
                            [diagram.mu_fn(u) - t, diagram.mu_fn(v) - t],
                        ]
                    )

                try:
                    w = newton_solve(pairing, np.concatenate([ua, ub]))
                except (SingularJacobian, MaxIterations):
                    continue
                if np.linalg.norm(w[:2] - w[2:]) < 1e-3:
                    continue
                out.append(diagram.front_map(w[:2]))
    if not out:
        return np.zeros((0, 2))
    return np.array(out)[dedup(out, 1e-7)]


def envelope(diagram: IntegralDiagram, s_grid: Sequence[float]) -> np.ndarray:
    """Closed-form envelope of the front family, where one is defined."""
    branches = _ENVELOPES.get(diagram.germ_id)
    if not branches:
        return np.zeros((0, 2))
    return np.array([b(float(s)) for b in branches for s in s_grid])


def gallery_discriminant(diagram: IntegralDiagram, t_values: Sequence[float]) -> GalleryDiscriminant:
    """Caustic (critical values of the front map), envelope data and
    equal-time self-intersections for one normal form.

    Components reported per germ: (4) caustic + maxwell, (5) delta,
    (6) caustic + delta, per-germ front geometry otherwise empty.
    """
    gid = diagram.germ_id
    empty = np.zeros((0, 2))
    ca = _caustic_points(diagram) if gid in (4, 6) else empty
    mx = _maxwell_points(diagram, t_values, np.linspace(-1.6, 1.6, 321)) if gid == 4 else empty
    de = envelope(diagram, ENVELOPE_GRID) if gid in (3, 5, 6) else empty
    return GalleryDiscriminant(caustic=ca, maxwell=mx, delta=de)
