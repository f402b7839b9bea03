"""Parametric curves and surfaces: curvature, evolutes, parallels and the
distance-squared generating families.

Sign conventions (normative for this package):

* plane curves are parameterized so that ``normal(u)`` is the *outward*
  normal (rightward of the travel direction; outward for the counterclockwise
  catalog parameterizations);
* ``PlaneCurve.curvature`` returns the counterclockwise-signed curvature
  ``(x'y'' - y'x'') / |X'|^3`` (positive for convex CCW curves);
* parallels are ``X + r * normal``, so negative ``r`` offsets inward;
* the evolute is the center of curvature ``X - (1/kappa) * normal``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateMetric
from .families import GeneratingFamily, GraphLikeFamily, critical_system
from .fields import ScalarField
from .fronts import PAIR_MIN_SEPARATION
from .solve import bracket_roots, dedup, project_to_set
from .solve import newton_solve  # noqa: F401  (perfbench/tracing.py wraps geometry.newton_solve by name)

# evolutes skip samples whose |curvature| is below this
MIN_KAPPA = 1e-10
# the distance-squared family's box is [-U_SPAN, U_SPAN] in each chart variable
U_SPAN = 30.0
# tangent_sphere_check: the least tolerance on |X(u) - v|^2 - r^2
RADIUS_TOL = 1e-8
# the largest |X'| whose cube curvature takes: a hair under the cube root of
# the largest float, so every cube at or below it is finite
MAX_SPEED = float(np.finfo(float).max) ** (1 / 3)
# the largest |x'| and |y'| whose squared norm normal takes: half the square
# root of the largest float, so the two squares and their sum stay finite
MAX_NORMAL_ENTRY = math.sqrt(float(np.finfo(float).max)) / 2


class PlaneCurve:
    """A regular parametric curve in R^2 with closed-form derivatives.

    Every method takes a float parameter, giving a point of shape (2,) (a
    float for ``curvature``), or a 1-D array of parameters, giving one row
    (one value) per sample.
    """

    ambient = 2
    periodic: Optional[float] = None
    # optional third derivative ``d3(u)``; with it the distance-squared family
    # carries the third partials its caustic Jacobian needs
    d3: Optional[Callable[[float], np.ndarray]] = None

    def point(self, u):
        raise NotImplementedError

    def d1(self, u):
        raise NotImplementedError

    def d2(self, u):
        raise NotImplementedError

    def normal(self, u):
        d = self.d1(u).T
        fast = np.abs(d).max(axis=0) > MAX_NORMAL_ENTRY
        if np.count_nonzero(fast):
            raise DegenerateMetric(f"|X'|^2 overflows at u={np.extract(fast, u)[0]}")
        n = np.array([d[1], -d[0]]).T
        square = (n[..., None, :] @ n[..., :, None])[..., 0]
        vanishing = ~(square > 0.0)
        if np.count_nonzero(vanishing):
            raise DegenerateMetric(f"|X'|^2 is not positive at u={np.extract(vanishing, u)[0]}")
        return n / np.sqrt(square)

    def curvature(self, u):
        d, dd = self.d1(u).T, self.d2(u).T
        speed = np.hypot(d[0], d[1])
        fast = speed > MAX_SPEED
        if np.count_nonzero(fast):
            raise DegenerateMetric(f"|X'|^3 overflows at u={np.extract(fast, u)[0]}")
        cube = speed**3
        vanishing = cube < 1e-14
        if np.count_nonzero(vanishing):
            raise DegenerateMetric(f"vanishing speed at u={np.extract(vanishing, u)[0]}")
        return (d[0] * dd[1] - d[1] * dd[0]) / cube

    def evolute_point(self, u):
        return self.point(u) - (1.0 / self.curvature(u))[..., None] * self.normal(u)


@dataclass
class Ellipse(PlaneCurve):
    a: float = 2.0
    b: float = 1.0

    def __post_init__(self):
        self.periodic = 2 * math.pi

    def point(self, u):
        return np.array([self.a * np.cos(u), self.b * np.sin(u)]).T

    def d1(self, u):
        return np.array([-self.a * np.sin(u), self.b * np.cos(u)]).T

    def d2(self, u):
        return -self.point(u)

    def d3(self, u):
        return -self.d1(u)


class Circle(Ellipse):
    """The ellipse with both semi-axes equal to ``radius``."""

    def __init__(self, radius: float = 1.0):
        super().__init__(a=radius, b=radius)


@dataclass
class Parabola(PlaneCurve):
    """The graph y = c * u^2, parameterized left to right."""

    c: float = 1.0

    def point(self, u):
        return np.array([u, self.c * u * u]).T

    def d1(self, u):
        return np.array([np.ones_like(u, dtype=float), 2 * self.c * u]).T

    def d2(self, u):
        return np.zeros(np.shape(u) + (2,)) + [0.0, 2 * self.c]

    def d3(self, u):
        return np.zeros(np.shape(u) + (2,))


class Surface:
    """A regular parametric surface in R^3 with derivatives up to order 2."""

    ambient = 3

    def point(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def du(self, u: np.ndarray) -> np.ndarray:
        """(2, 3) array of first partials."""
        raise NotImplementedError

    def d2(self, u: np.ndarray) -> np.ndarray:
        """(2, 2, 3) array of second partials."""
        raise NotImplementedError

    def normal(self, u: np.ndarray) -> np.ndarray:
        J = self.du(u)
        n = np.cross(J[0], J[1])
        norm = np.linalg.norm(n)
        if norm < 1e-14:
            raise DegenerateMetric(f"degenerate chart at u={u!r}")
        return n / norm

    def fundamental_forms(self, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        J = self.du(u)
        n = self.normal(u)
        I = J @ J.T
        S = self.d2(u)
        II = np.array([[S[i, j] @ n for j in range(2)] for i in range(2)])
        return I, II

    def principal_curvatures(self, u: np.ndarray) -> np.ndarray:
        I, II = self.fundamental_forms(u)
        if abs(np.linalg.det(I)) < 1e-14:
            raise DegenerateMetric(f"first fundamental form degenerate at u={u!r}")
        shape_op = np.linalg.solve(I, II)
        k = np.sort(np.real(np.linalg.eigvals(shape_op)))
        return k


@dataclass
class Ellipsoid(Surface):
    a: float = 1.0
    b: float = 1.0
    c: float = 1.0

    def point(self, u):
        phi, theta = u
        return np.array(
            [
                self.a * math.sin(phi) * math.cos(theta),
                self.b * math.sin(phi) * math.sin(theta),
                self.c * math.cos(phi),
            ]
        )

    def du(self, u):
        phi, theta = u
        return np.array(
            [
                [self.a * math.cos(phi) * math.cos(theta), self.b * math.cos(phi) * math.sin(theta), -self.c * math.sin(phi)],
                [-self.a * math.sin(phi) * math.sin(theta), self.b * math.sin(phi) * math.cos(theta), 0.0],
            ]
        )

    def d2(self, u):
        phi, theta = u
        s, c = math.sin(phi), math.cos(phi)
        st, ct = math.sin(theta), math.cos(theta)
        dpp = np.array([-self.a * s * ct, -self.b * s * st, -self.c * c])
        dpt = np.array([-self.a * c * st, self.b * c * ct, 0.0])
        dtt = np.array([-self.a * s * ct, -self.b * s * st, 0.0])
        return np.array([[dpp, dpt], [dpt, dtt]])


class Sphere(Ellipsoid):
    """The ellipsoid with all three semi-axes equal to ``radius``."""

    def __init__(self, radius: float = 1.0):
        super().__init__(a=radius, b=radius, c=radius)


# ---------------------------------------------------------------------------
# Operations


def evolute_samples(curve: PlaneCurve, u_grid: Sequence):
    """``(u, points)``: the samples of ``u_grid`` with ``|kappa| >= MIN_KAPPA``
    and their evolute points, one row per kept sample."""
    u = np.asarray(u_grid, dtype=float).reshape(-1)
    u = u[~(np.abs(curve.curvature(u)) < MIN_KAPPA)]
    return u, curve.evolute_point(u)


def evolute(surface, u_grid: Sequence) -> np.ndarray:
    """Focal points X + (1/kappa) * n per chart sample, with kappa the least
    principal curvature of a surface; zero-curvature samples are skipped."""
    if isinstance(surface, PlaneCurve):
        return evolute_samples(surface, u_grid)[1]
    pts = []
    for u in u_grid:
        u = np.asarray(u, dtype=float)
        k = surface.principal_curvatures(u)[0]
        if abs(k) < MIN_KAPPA:
            continue
        pts.append(surface.point(u) + surface.normal(u) / k)
    return np.array(pts) if pts else np.zeros((0, surface.ambient))


def parallels(surface, r_values: Sequence[float], u_grid: Sequence) -> List[Tuple[float, np.ndarray]]:
    """Offset polylines (P_r(u), r); for surfaces an unordered point set per r."""
    if isinstance(surface, PlaneCurve):
        u = np.asarray(u_grid, dtype=float).reshape(-1)
        X, N = surface.point(u), surface.normal(u)
    else:
        us = [np.asarray(u, float) for u in u_grid]
        X = np.array([surface.point(u) for u in us])
        N = np.array([surface.normal(u) for u in us])
    return [(float(r), X + r * N) for r in r_values]


def parallel_cusps(curve: PlaneCurve, r: float, u_grid: Sequence) -> List[np.ndarray]:
    """Singular points of the offset at distance r: solutions of
    1 + r * kappa(u) = 0, bracketed between grid samples by ``bracket_roots``."""
    _, roots = bracket_roots(lambda p, u: 1.0 + p * curve.curvature(u), [r], u_grid)
    return list(curve.point(roots) + r * curve.normal(roots))


def distance_squared_family(surface) -> Tuple[GeneratingFamily, GraphLikeFamily]:
    """The family D(u, v) = |X(u) - v|^2 with closed-form derivatives.

    A plane curve's ``jet_fn`` is written out on floats (``_plane_curve_jet``)
    and, when the curve has a ``d3``, carries the third partials d_z D_uu.  A
    surface's evaluates X, X' and X'' once for the value, the gradient and
    the Hessian; it has no third partials, so its caustic Jacobian uses
    central differences of the Hessian (``ScalarField.jet``).
    """
    if isinstance(surface, PlaneCurve):
        k, n = 1, 2
        fn, jet_fn = _plane_curve_jet(surface)
        origin = surface.point(0.0)
    else:
        k, n = 2, 3
        m = k + n

        def fn(p):
            d = surface.point(p[:k]) - p[k:]
            return float(d @ d)

        def jet_fn(point, with_third):
            p = np.array(point)
            u, v = p[:k], p[k:]
            d, J, S = surface.point(u) - v, surface.du(u), surface.d2(u)
            out = np.zeros(1 + m + m * m)
            out[0] = d @ d
            out[1 : k + 1] = 2 * J @ d
            out[k + 1 : m + 1] = -2 * d
            H = out[m + 1 :].reshape(m, m)
            for i in range(k):
                for j in range(k):
                    H[i, j] = 2 * (S[i, j] @ d + J[i] @ J[j])
            H[:k, k:] = -2 * J
            H[k:, :k] = H[:k, k:].T
            H[k:, k:] = 2 * np.eye(n)
            return out.tolist()

        origin = surface.point(np.zeros(k))
    extent = max(np.abs(origin).max(), 1.0) * 4 + 4
    box = ((-U_SPAN, U_SPAN),) * k + ((-extent, extent),) * n
    field = ScalarField(arity=k + n, fn=fn, box=box, jet_fn=jet_fn)
    fam = GeneratingFamily(k=k, n=n, field=field, name=f"dist2-{type(surface).__name__.lower()}")
    return fam, GraphLikeFamily(base=fam)


def _plane_curve_jet(curve: PlaneCurve):
    """``(fn, jet_fn)`` of D(u, v) = |X(u) - v|^2 for a plane curve, on
    Python floats from one X, X', X'' (and X''') per call: the jet is the
    value, the gradient, the Hessian and, with ``with_third`` and a ``d3``,
    the third partials (d_u, d_v1, d_v2) of D_uu = 2 (X'' . (X - v) + X' . X')."""
    point, d1, d2, d3 = curve.point, curve.d1, curve.d2, curve.d3

    def offset(u, v1, v2):
        x, y = point(u).tolist()
        return x - v1, y - v2

    def fn(p):
        dx, dy = offset(*p)
        return dx * dx + dy * dy

    def jet_fn(v, with_third):
        u = v[0]
        dx, dy = offset(*v)
        (ax, ay), (bx, by) = d1(u).tolist(), d2(u).tolist()
        jet = [
            dx * dx + dy * dy,
            2.0 * (ax * dx + ay * dy), -2.0 * dx, -2.0 * dy,
            2.0 * (bx * dx + by * dy + ax * ax + ay * ay), -2.0 * ax, -2.0 * ay,
            -2.0 * ax, 2.0, 0.0,
            -2.0 * ay, 0.0, 2.0,
        ]
        if with_third and d3 is not None:
            cx, cy = d3(u).tolist()
            jet += [2.0 * (cx * dx + cy * dy + 3.0 * (ax * bx + ay * by)), -2.0 * bx, -2.0 * by]
        return jet

    return fn, jet_fn


def tangent_sphere_check(
    surface,
    v,
    r: float,
    u_grid: Sequence,
) -> dict:
    """All chart points where the sphere of radius r about v is tangent to the
    surface, to within ``max(RADIUS_TOL, 1e-10 r^2)`` in r^2; ``multiple``
    flags two or more tangency points at least ``PAIR_MIN_SEPARATION`` apart."""
    v = np.asarray(v, dtype=float)
    fam, _ = distance_squared_family(surface)
    tol = max(RADIUS_TOL, 1e-10 * r * r)
    critical = project_to_set(critical_system(fam, v), u_grid)
    found = [u for u in critical if abs(fam.value(u, v) - r * r) <= tol]
    hits = [found[i] for i in dedup(found, PAIR_MIN_SEPARATION)]
    multiple = len(hits) >= 2
    return {"tangency_points": hits, "multiple": multiple}
