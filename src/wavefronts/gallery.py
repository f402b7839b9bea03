"""The six normal-form integral diagrams for generic first-order ODEs:
momentary fronts, caustic / envelope / self-intersection data.

A momentary front is one ``fronts.FrontCurve`` per traced chain of mu = t,
as for a generating family: ``x`` the front-map image, ``q`` the chart u."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import expr as ex
from . import fields
from . import fronts as _fronts
from .errors import DomainError, UnknownGerm
# perfbench/tracing.py patches gallery.polyline_self_intersections by name
from .fronts import FrontCurve, polyline_self_intersections
from .solve import System, bracket_roots, dedup, project_to_set
from .solve import newton_solve  # noqa: F401  (perfbench/tracing.py wraps gallery.newton_solve by name)

_U = ("u1", "u2")

# gallery_front: the u2 samples of the seed scan for roots of mu = t along
# each u1 line; its ends are the u2 sides of the box the fronts are traced in
U2_SEEDS = np.linspace(-3.0, 3.0, 61)
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
    det_dg_fn: Callable
    # u -> (mu, mu_u1, mu_u2, g1, g2, dg1/du1, dg1/du2, dg2/du1, dg2/du2), one
    # flat call, elementwise: a point's floats, or one array per coordinate row
    jet_fn: Callable

    def front_map(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(self.jet_fn(u)[3:5], dtype=float)


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
    dg = [[c.diff(v) for v in _U] for c in g]
    # det of the Jacobian of the front map, symbolically: the caustic scan
    # evaluates it alone on a whole chart mesh
    det = ex.sub(ex.mul(dg[0][0], dg[1][1]), ex.mul(dg[0][1], dg[1][0]))
    return IntegralDiagram(
        germ_id=germ_id,
        kind=kind,
        mu=mu,
        g=g,
        mu_fn=mu.compile(_U),
        det_dg_fn=det.compile(_U),
        jet_fn=ex.compile_nested([mu, *(mu.diff(v) for v in _U), *g, *dg[0], *dg[1]], _U),
    )


def _level_system(diagram: IntegralDiagram, t: float, box) -> System:
    """mu(u) - t, one equation in u = (u1, u2) on the chart ``box``, with the
    gradient of mu as its Jacobian, read from the flat jet at a point;
    DomainError outside the box."""
    jet = diagram.jet_fn
    residual, jacobian = fields.gather([0], [9]), fields.gather([[1, 2]], None)  # t after the 9 entries
    tail = (t,)

    def evaluate(u):
        if not all(lo <= v <= hi for v, (lo, hi) in zip(u, box)):
            raise DomainError(f"point {list(u)} exits the chart box")
        a = jet(u)
        return residual(a, tail), jacobian(a)

    return System(evaluate)


def gallery_front(diagram: IntegralDiagram, t: float, u1_grid: Sequence[float]) -> List[FrontCurve]:
    """The level set mu = t traced by continuation and mapped by the front map.

    Seeds are the roots of mu = t along the ``u1_grid`` lines at the
    ``U2_SEEDS`` samples; the chains are traced in the box
    ``[u1_grid[0], u1_grid[-1]] x [U2_SEEDS[0], U2_SEEDS[-1]]`` (its system's
    domain) with the spacing of ``u1_grid`` as the step.  Each chain, in
    arclength order, is one ``FrontCurve``: its chart points u as ``q`` and
    their front-map image as ``x``.
    """
    u1_grid = np.asarray(u1_grid, dtype=float)
    line, u2 = bracket_roots(lambda p, s: diagram.mu_fn(np.array([p, s])) - t, u1_grid, U2_SEEDS)
    box = ((u1_grid[0], u1_grid[-1]), (U2_SEEDS[0], U2_SEEDS[-1]))
    step = float(u1_grid[1] - u1_grid[0])
    # a cap on each direction of a chain: one point per step x step cell of the box
    max_points = int((box[0][1] - box[0][0]) * (box[1][1] - box[1][0]) / step**2)
    chains = _fronts._trace_all(_level_system(diagram, t, box), np.column_stack([u1_grid[line], u2]), step, max_points)
    return [FrontCurve(t=float(t), x=diagram.front_map(c.points.T).T, q=c.points, closed=c.closed) for c in chains]


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


def _pairing_system(diagram: IntegralDiagram, t: float) -> System:
    """g(u) - g(v), mu(u) - t, mu(v) - t: four equations in w = (u, v), with
    the exact Jacobian ``[[Dg(u), -Dg(v)], [grad mu(u), 0], [0, grad mu(v)]]``,
    read from the two flat jets and the constants (0.0, -0.0, t) after them
    as ``families``' pairing system reads its jets."""
    jet = fields.flat_jet(diagram.jet_fn)
    # the second jet's entries start at 9, and 18, 19, 20 are 0.0, -0.0, t
    b, pz, mz, tt = 9, 18, 19, 20
    residual = fields.gather([3, 4, 0, b], [b + 3, b + 4, tt, tt])
    jacobian = fields.gather(
        [[5, 6, mz, mz], [7, 8, mz, mz], [1, 2, pz, pz], [pz, pz, b + 1, b + 2]],
        [[pz, pz, b + 5, b + 6], [pz, pz, b + 7, b + 8], [pz, pz, pz, pz], [pz, pz, pz, pz]],
    )
    sheet_u, sheet_v = fields.gather([0, 1], None), fields.gather([2, 3], None)
    tail = (0.0, -0.0, t)

    def evaluate(w):
        ab = (jet(sheet_u(w)), jet(sheet_v(w)), tail)
        return residual(*ab), jacobian(*ab)

    return System(evaluate)


def _maxwell_points(diagram: IntegralDiagram, fronts: Sequence[FrontCurve]) -> np.ndarray:
    """Equal-time self-intersections of the traced fronts, each refined by
    one Newton solve of the pairing equations g(u) = g(v), mu(u) = mu(v) = t
    from the two nearest chain points that are not chain neighbours.  The
    seeds of each run of consecutive fronts with one t are solved together."""
    out = []
    for t, group in itertools.groupby(fronts, key=lambda fc: fc.t):
        seeds = []
        for fc in group:
            for hit in polyline_self_intersections(fc.x):
                order = np.argsort(np.linalg.norm(fc.x - hit, axis=1))
                other = order[np.abs(order - order[0]) > 1]
                if other.size:
                    seeds.append(np.concatenate([fc.q[order[0]], fc.q[other[0]]]))
        for w in project_to_set(_pairing_system(diagram, t), seeds):
            if np.linalg.norm(w[:2] - w[2:]) >= 1e-3:
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


def gallery_discriminant(diagram: IntegralDiagram, fronts: Sequence[FrontCurve]) -> GalleryDiscriminant:
    """Caustic (critical values of the front map), envelope data and the
    equal-time self-intersections of the given fronts of one normal form.

    Components reported per germ: (4) caustic + maxwell, (5) delta,
    (6) caustic + delta, per-germ front geometry otherwise empty.
    """
    gid = diagram.germ_id
    empty = np.zeros((0, 2))
    ca = _caustic_points(diagram) if gid in (4, 6) else empty
    mx = _maxwell_points(diagram, fronts) if gid == 4 else empty
    de = envelope(diagram, ENVELOPE_GRID) if gid in (3, 5, 6) else empty
    return GalleryDiscriminant(caustic=ca, maxwell=mx, delta=de)
