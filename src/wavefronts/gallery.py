"""The six normal-form integral diagrams (g, mu) for generic first-order
ODEs: momentary fronts g({mu = t}), caustic / delta / self-intersection data.

A momentary front is one ``fronts.FrontCurve`` per traced chain of mu = t,
as for a generating family: ``x`` the front-map image, ``q`` the chart u.
The caustic and the delta split g({det Dg = 0}) by the rank of [Dg; dmu]."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import expr as ex
from . import fields
from . import fronts as _fronts
from .errors import DomainError, UnknownGerm
from .linalg import RANK_EPS
# perfbench/tracing.py patches gallery.polyline_self_intersections by name
from .fronts import FrontCurve, polyline_self_intersections
from .solve import System, bracket_roots, dedup, project_to_set
from .solve import newton_solve  # noqa: F401  (perfbench/tracing.py wraps gallery.newton_solve by name)

_U = ("u1", "u2")

# gallery_front: the u2 samples of the seed scan for roots of mu = t along
# each u1 line; its ends are the u2 sides of the box the fronts are traced in
U2_SEEDS = np.linspace(-3.0, 3.0, 61)
# gallery_discriminant: both axes of the det Dg scan
CHART_GRID = np.linspace(-1.5, 1.5, 121)

_GERMS = {
    1: ("u2", ("u1", "u2"), "trivial"),
    2: ("2/3*u1^3 + u2", ("u1^2", "u2"), "regular"),
    3: ("u2 - 1/2*u1", ("u1", "u2^2"), "clairaut"),
    4: ("3/4*u1^4 + 1/2*u1^2*u2 + u2", ("u1^3 + u2*u1", "u2"), "regular"),
    5: ("u2", ("u1", "u2^3 + u1*u2"), "clairaut"),
    6: ("-3*u2^2 + 4*u1*u2 + u1", ("u1", "u2^3 + u1*u2^2"), "mixed"),
}

# the germs whose normal form takes a functional modulus alpha
_MODULATED = (4, 5, 6)


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
    modulus, a polynomial in (v1, v2) composed with the front map (ValueError
    on a germ not in ``_MODULATED``)."""
    if germ_id not in _GERMS:
        raise UnknownGerm(f"germ id {germ_id} (expected 1..6)")
    if alpha is not None and germ_id not in _MODULATED:
        raise ValueError(f"germ {germ_id} takes no functional modulus (only germs {_MODULATED} do)")
    mu_text, g_texts, kind = _GERMS[germ_id]
    mu = ex.parse_expr(mu_text, _U)
    g = tuple(ex.parse_expr(s, _U) for s in g_texts)
    if alpha is not None:
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
    read = fields.gather(([0], [9]), ([[1, 2]], None), 9, {9: t})  # t at the position after the 9 entries

    def evaluate(u):
        if not all(lo <= v <= hi for v, (lo, hi) in zip(u, box)):
            raise DomainError(f"point {list(u)} exits the chart box")
        return read(jet(u))

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


def _singular_image(diagram: IntegralDiagram) -> Tuple[np.ndarray, np.ndarray]:
    """``(caustic, delta)``: the front-map image of S = {det Dg = 0}, scanned
    along the rows and columns of the square ``CHART_GRID`` chart (an image
    within 1e-9 of an earlier one dropped), split by one rank rule.  The
    front through a point of S is singular exactly when dmu vanishes on
    ker Dg, that is when [Dg; dmu] has rank 1 (``numerical_rank``'s rule):
    those points are the caustic, the others the delta.  A modulus alpha
    adds d(alpha o g), a combination of the rows of Dg, to dmu, so it moves
    neither S nor the split."""
    # det Dg compiles to one number where it is constant (germ 1)
    f, grid = diagram.det_dg_fn, CHART_GRID
    det = lambda u1, u2: np.broadcast_to(f(np.array([u1, u2])), u1.shape)
    row, u2 = bracket_roots(det, grid, grid)
    col, u1 = bracket_roots(lambda p, s: det(s, p), grid, grid)
    u = np.concatenate([np.column_stack([grid[row], u2]), np.column_stack([u1, grid[col]])])
    jet = np.array(np.broadcast_arrays(*diagram.jet_fn(u.T)), dtype=float)
    jet = jet[:, dedup(jet[3:5].T, 1e-9)]
    # the rows dg1, dg2 and dmu of each kept point
    s = np.linalg.svd(jet[[5, 6, 7, 8, 1, 2]].T.reshape(-1, 3, 2), compute_uv=False)
    cusp = s[:, 1] <= RANK_EPS * s[:, 0]
    return jet[3:5, cusp].T, jet[3:5, ~cusp].T


def _pairing_system(diagram: IntegralDiagram, t: float) -> System:
    """g(u) - g(v), mu(u) - t, mu(v) - t: four equations in w = (u, v), with
    the exact Jacobian ``[[Dg(u), -Dg(v)], [grad mu(u), 0], [0, grad mu(v)]]``,
    read from the two flat jets and the constants (0.0, -0.0, t) as
    ``fronts.pairing_system`` reads its jets."""
    jet = fields.flat_jet(diagram.jet_fn)
    # the second jet's entries start at 9, and 18, 19, 20 are the positions of 0.0, -0.0, t
    b, pz, mz, tt = 9, 18, 19, 20
    read = fields.gather(
        ([3, 4, 0, b], [b + 3, b + 4, tt, tt]),
        (
            [[5, 6, mz, mz], [7, 8, mz, mz], [1, 2, pz, pz], [pz, pz, b + 1, b + 2]],
            [[pz, pz, b + 5, b + 6], [pz, pz, b + 7, b + 8], [pz, pz, pz, pz], [pz, pz, pz, pz]],
        ),
        b,
        {pz: 0.0, mz: -0.0, tt: t},
    )

    def evaluate(w):
        # the two chart points u and v of w
        if isinstance(w, np.ndarray):
            return read(jet(w[..., :2]), jet(w[..., 2:]))
        return read(jet(w[:2]), jet(w[2:]))

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


def gallery_discriminant(diagram: IntegralDiagram, fronts: Sequence[FrontCurve]) -> GalleryDiscriminant:
    """Caustic and delta of one normal form (``_singular_image``'s, in scan
    order, not ordered into chains) and the equal-time self-intersections of
    ``fronts``."""
    caustic, delta = _singular_image(diagram)
    return GalleryDiscriminant(caustic=caustic, maxwell=_maxwell_points(diagram, fronts), delta=delta)
