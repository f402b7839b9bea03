import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefronts import families, fronts, geometry
from wavefronts.errors import DegenerateMetric, DomainError, NonFiniteValue
from wavefronts.fields import fd_jacobian


def test_circle_curvature_and_normal():
    c = geometry.Circle(radius=2.0)
    assert c.curvature(0.7) == pytest.approx(0.5)
    # outward normal for the counterclockwise parameterization
    n = c.normal(0.0)
    assert n == pytest.approx([1.0, 0.0])


def test_circle_evolute_is_center():
    c = geometry.Circle(radius=2.0)
    for u in np.linspace(0, 2 * np.pi, 7):
        assert c.evolute_point(u) == pytest.approx([0.0, 0.0], abs=1e-12)


def test_ellipse_evolute_cusps():
    e = geometry.Ellipse(a=2.0, b=1.0)
    # (a^2-b^2)/a on the x-axis, -(a^2-b^2)/b on the y-axis
    assert e.evolute_point(0.0) == pytest.approx([1.5, 0.0])
    assert e.evolute_point(np.pi) == pytest.approx([-1.5, 0.0])
    assert e.evolute_point(np.pi / 2) == pytest.approx([0.0, -3.0])
    assert e.evolute_point(3 * np.pi / 2) == pytest.approx([0.0, 3.0])


def test_parabola_vertex_curvature():
    p = geometry.Parabola(c=1.0)
    assert p.curvature(0.0) == pytest.approx(2.0)
    assert p.evolute_point(0.0) == pytest.approx([0.0, 0.5])


def test_parallels_offset_distance():
    c = geometry.Circle(radius=2.0)
    (r, pts), = geometry.parallels(c, [-0.5], np.linspace(0, 2 * np.pi, 9))
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.5)


def test_parallel_cusps_on_evolute():
    e = geometry.Ellipse(a=2.0, b=1.0)
    u_fine = np.linspace(0, 2 * np.pi, 4001)
    ev = np.array([e.evolute_point(u) for u in u_fine])
    found = 0
    for r in (-0.6, -1.2, -2.5):
        for p in geometry.parallel_cusps(e, r, np.linspace(0, 2 * np.pi, 720)):
            found += 1
            assert fronts.polyline_distances(np.array([p]), [ev])[0] < 1e-3
    assert found >= 4


def test_sphere_principal_curvatures():
    s = geometry.Sphere(radius=2.0)
    k = s.principal_curvatures(np.array([1.0, 0.5]))
    assert np.allclose(np.abs(k), 0.5, atol=1e-10)


# chart samples (phi, theta) away from the poles phi = 0, pi, where the chart degenerates
SPHERE_CHART = [np.array([phi, theta]) for phi in np.linspace(0.3, 2.8, 6) for theta in np.linspace(0.0, 6.0, 5)]


def test_sphere_evolute_is_the_centre():
    # both principal curvatures are -1/2 with the outward normal: every focal point is the centre
    pts = geometry.evolute(geometry.Sphere(radius=2.0), SPHERE_CHART)
    assert pts.shape == (len(SPHERE_CHART), 3)
    assert np.abs(pts).max() < 1e-12


def test_sphere_parallels_are_concentric_spheres():
    offs = geometry.parallels(geometry.Sphere(radius=2.0), [0.5, -1.0], SPHERE_CHART)
    assert [r for r, _ in offs] == [0.5, -1.0]
    for (r, pts), dist in zip(offs, (2.5, 1.0)):
        assert pts.shape == (len(SPHERE_CHART), 3)
        assert np.abs(np.linalg.norm(pts, axis=1) - dist).max() < 1e-12


def test_ellipsoid_evolute_has_one_focal_point_per_sample():
    # no principal curvature of an ellipsoid vanishes, so no sample is skipped
    pts = geometry.evolute(geometry.Ellipsoid(a=2.0, b=1.5, c=1.0), SPHERE_CHART)
    assert pts.shape == (len(SPHERE_CHART), 3)
    assert np.isfinite(pts).all()


def test_degenerate_chart_raises():
    s = geometry.Sphere(radius=1.0)
    with pytest.raises(DegenerateMetric):
        s.normal(np.array([0.0, 0.3]))  # pole chart degeneracy


def test_curvature_refuses_a_speed_whose_cube_overflows():
    # at the bound the cube is finite; past it curvature raises, where the
    # cube would be inf and the curvature a silent 0
    assert math.isfinite(geometry.MAX_SPEED**3)
    edge = geometry.Parabola(c=1.0)  # |X'(u)| = hypot(1, 2u)
    u = np.array([0.0, geometry.MAX_SPEED / 2 * (1 - 1e-15)])
    assert np.isfinite(edge.curvature(u)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for curve, u in [(geometry.Ellipse(a=1e110, b=1.0), 0.3), (edge, np.array([0.0, 1e103]))]:
            with pytest.raises(DegenerateMetric, match="overflows"):
                curve.curvature(u)


def test_normal_refuses_a_speed_whose_square_overflows():
    # at the bound the normal is the unit one; past it normal and parallels
    # raise, where the squared norm would be inf and every normal 0
    edge = geometry.Parabola(c=1.0)  # X'(u) = (1, 2u)
    u = np.array([0.0, geometry.MAX_NORMAL_ENTRY / 2 * (1 - 1e-15)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n = edge.normal(u)
        assert np.allclose(n, [[0.0, -1.0], [1.0, 0.0]], rtol=0.0, atol=1e-15)
        for curve, u in [(geometry.Ellipse(a=1e160, b=1.0), 0.3), (edge, np.array([0.0, 1e154]))]:
            with pytest.raises(DegenerateMetric, match=r"\|X'\|\^2 overflows"):
                curve.normal(u)
        with pytest.raises(DegenerateMetric, match="overflows at u=0.5"):
            geometry.parallels(geometry.Ellipse(a=1e160, b=1.0), [-1.0, 1.0], [0.0, 0.5, 1.0])


def test_normal_refuses_a_speed_whose_square_underflows():
    # |X'|^2 underflows to 0 on a tiny ellipse: the offsets would be -inf and NaN
    tiny = geometry.Ellipse(a=1e-170, b=1e-170)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateMetric, match=r"\|X'\|\^2 is not positive at u=0.0$"):
            geometry.parallels(tiny, [-1.0, 1.0], [0.0, 0.5, 1.0])


def test_distance_squared_family_is_morse():
    e = geometry.Ellipse(a=2.0, b=1.0)
    fam, gl = geometry.distance_squared_family(e)
    assert fam.k == 1 and fam.n == 2
    rng = np.random.default_rng(3)
    for _ in range(25):
        u = rng.uniform(0, 2 * np.pi)
        v = rng.uniform(-3, 3, 2)
        assert families.morse_family_check(fam, [u], v)["pass"]


def test_distance_squared_gradients_closed_form():
    e = geometry.Ellipse(a=2.0, b=1.0)
    fam, _ = geometry.distance_squared_family(e)
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = np.concatenate([[rng.uniform(0, 6)], rng.uniform(-3, 3, 2)])
        assert np.allclose(fam.field.grad(p), fd_jacobian(fam.field.fn, p)[0], rtol=1e-6, atol=1e-6)
        assert np.allclose(fam.field.hessian(p), fd_jacobian(fam.field.grad, p), rtol=1e-4, atol=1e-4)


def test_caustic_of_distance_family_is_evolute():
    e = geometry.Ellipse(a=2.0, b=1.0)
    fam, _ = geometry.distance_squared_family(e)
    seeds = []
    for u in np.linspace(0, 2 * np.pi, 24):
        p, n = e.point(u), e.normal(u)
        seeds.append(np.array([u, *(p - 1.0 * n)]))
    cloud = fronts.caustic(fam, seeds, step=0.05, max_points=400)
    assert len(cloud.x) > 100
    u_fine = np.linspace(0, 2 * np.pi, 8001)
    ev = np.array([e.evolute_point(u) for u in u_fine])
    assert fronts.polyline_distances(cloud.x, ev[:, None]).max() < 2e-3


def test_momentary_fronts_of_distance_family_are_circles_for_circle(monkeypatch):
    monkeypatch.setattr(fronts, "TRACE_STEP", 0.05)
    monkeypatch.setattr(fronts, "TRACE_MAX_POINTS", 300)
    c = geometry.Circle(radius=1.0)
    fam, gl = geometry.distance_squared_family(c)
    # level t of the distance-squared family around center v: radius sqrt(t)
    seeds = [np.array([u, 0.0, 0.0]) for u in np.linspace(0, 2 * np.pi, 8)]
    # fronts live in v-space: critical points of u at |X(u)-v|^2 = t
    curves = fronts.momentary_front(gl, 0.25, seeds)
    pts = np.vstack([fc.x for fc in curves])
    radii = np.linalg.norm(pts, axis=1)
    # tangency circles around the origin at distance 0.5 inside or 1.5 outside
    assert np.all(
        (np.abs(radii - 0.5) < 1e-6) | (np.abs(radii - 1.5) < 1e-6)
    )


def test_tangent_sphere_check_circle_center():
    c = geometry.Circle(radius=1.0)
    res = geometry.tangent_sphere_check(
        c, v=[0.0, 0.0], r=1.0, u_grid=np.linspace(0, 2 * np.pi, 12, endpoint=False)
    )
    assert res["multiple"]
    assert len(res["tangency_points"]) >= 3


def test_tangent_sphere_check_generic_point(monkeypatch):
    e = geometry.Ellipse(a=2.0, b=1.0)
    # a point just inside the ellipse on the x-axis touches with its nearest
    # point only, at the right radius
    v = [1.0, 0.0]
    u_grid = np.linspace(0, 2 * np.pi, 24, endpoint=False)
    d_min = min(np.linalg.norm(e.point(u) - np.array(v)) for u in np.linspace(0, 2 * np.pi, 2000))
    # the grid minimum carries O(du^2) radius error, so loosen the radius gate
    monkeypatch.setattr(geometry, "RADIUS_TOL", 1e-4)
    res = geometry.tangent_sphere_check(e, v=v, r=d_min, u_grid=u_grid)
    assert len(res["tangency_points"]) >= 1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=30))
def test_curve_methods_take_arrays(us):
    u = np.array(us)
    for curve in (geometry.Circle(radius=1.5), geometry.Ellipse(a=2.0, b=0.7), geometry.Parabola(c=0.6)):
        for name in ("point", "d1", "d2", "d3", "normal", "curvature", "evolute_point"):
            method = getattr(curve, name)
            rows = np.array([method(float(x)) for x in u])
            assert rows.shape == method(u).shape
            assert np.allclose(method(u), rows, rtol=1e-12, atol=1e-12), (curve, name)


@settings(max_examples=200, deadline=None)
@given(u=st.floats(-geometry.U_SPAN, geometry.U_SPAN))
def test_point_jet_is_the_array_methods(u):
    # the float jet that the distance-squared family reads, against the
    # array methods of the sampled paths: within 1 ulp per entry
    for curve in (geometry.Circle(radius=1.5), geometry.Ellipse(a=2.0, b=0.7), geometry.Parabola(c=0.6)):
        jet = curve.point_jet(u)
        assert all(type(x) is float for x in jet)
        ref = np.concatenate([curve.point(u), curve.d1(u), curve.d2(u), curve.d3(u)])
        assert len(jet) == ref.size == 8
        assert (np.abs(np.array(jet) - ref) <= np.spacing(np.abs(ref))).all(), (curve, u)


def test_distance_squared_jet_leaves_no_math_error():
    # u = inf is outside the box and u = nan passes it: neither reaches
    # math.cos as a ValueError
    fld = geometry.distance_squared_family(geometry.Ellipse(a=2.0, b=1.0))[0].field
    for third in (0, 1):
        with pytest.raises(DomainError):
            fld.jet([math.inf, 0.0, 0.0], third)
        with pytest.raises(NonFiniteValue):
            fld.jet([math.nan, 0.0, 0.0], third)
    with pytest.raises(DomainError):
        fld.value([math.inf, 0.0, 0.0])
    with pytest.raises(NonFiniteValue):
        fld.value([math.nan, 0.0, 0.0])


def test_flat_parabola_has_an_empty_evolute():
    flat = geometry.Parabola(c=0.0)
    u, pts = geometry.evolute_samples(flat, np.linspace(-1.0, 1.0, 11))
    assert u.shape == (0,) and pts.shape == (0, 2)
    assert geometry.evolute(flat, np.linspace(-1.0, 1.0, 11)).shape == (0, 2)
    assert geometry.parallel_cusps(flat, -0.5, np.linspace(-1.0, 1.0, 11)) == []
