import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefronts.errors import (
    MaxIterations,
    RankDeficientSeed,
    SeedNotOnCurve,
    SingularJacobian,
)
from wavefronts import cli, fields, fronts, solve
from wavefronts.solve import System, as_system, bracket_roots, continue_curve, dedup, fd_jacobian, newton_solve


def circle(z):
    return np.array([z[0] ** 2 + z[1] ** 2 - 1.0])


def circle_jac(z):
    return np.array([[2 * z[0], 2 * z[1]]])


@pytest.fixture
def no_fd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fd_jacobian called although a Jacobian was given")

    monkeypatch.setattr(solve, "fd_jacobian", refuse)


def test_fd_jacobian_linear_system_exact():
    A = np.array([[2.0, -1.0], [0.5, 3.0]])
    J = fd_jacobian(lambda z: A @ z, np.array([0.3, -0.7]))
    assert J == pytest.approx(A, abs=1e-9)


def test_bracket_roots_exact_zeros_and_sign_changes():
    grid = np.linspace(-1.0, 2.0, 7)  # samples at -1, -0.5, 0, ..., 2
    calls = []

    def h(p, s):
        calls.append(len(s))
        return (s - p) * (s * s - 2.0)

    # line 0: an exact zero at an interior sample (0); line 1: one at the last
    # sample (2); every line: the sign change at sqrt(2), bisected to machine
    # precision; roots come ordered by line, then increasing
    line, roots = bracket_roots(h, [0.0, 2.0, 5.0], grid)
    assert line.tolist() == [0, 0, 1, 1, 2]
    assert roots[[0, 3]].tolist() == [0.0, 2.0]
    assert np.abs(roots[[1, 2, 4]] - np.sqrt(2.0)).max() < 1e-12
    # one call on the (lines x grid) mesh, then one per bisection step on
    # all three brackets; steps stop once no bracket can shrink any more
    assert calls[0] == 21 and set(calls[1:]) == {3} and 50 <= len(calls) <= 81
    line, roots = bracket_roots(lambda p, s: s * s + p, [1.0], grid)
    assert line.size == roots.size == 0


def _bracket_roots_scalar(h, grid):
    """Reference: the one-line scalar loop, one call of ``h`` per sample."""
    vals = np.array([h(s) for s in grid])
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        elif vals[i] * vals[i + 1] < 0:
            a, b, fa = float(grid[i]), float(grid[i + 1]), vals[i]
            for _ in range(80):
                m = 0.5 * (a + b)
                fm = h(m)
                if fa * fm <= 0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append(0.5 * (a + b))
    if len(vals) and vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return roots


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12), st.floats(-1.5, 1.5)), min_size=1, max_size=6),
    st.integers(2, 13),
)
def test_bracket_roots_matches_the_scalar_loop(lines, n):
    # cubic (s - g[i]) (s - g[j]) (s - c): exact zeros at grid samples (the
    # last one included when i or j is n - 1), double roots, sign changes
    grid = np.linspace(-1.0, 1.0, n)
    coef = np.array([[grid[min(i, n - 1)], grid[min(j, n - 1)], c] for i, j, c in lines])

    def h(p, s):
        r = coef[np.asarray(p, dtype=int)]
        return (s - r[..., 0]) * (s - r[..., 1]) * (s - r[..., 2])

    line, roots = bracket_roots(h, np.arange(len(lines)), grid)
    for k in range(len(lines)):
        ref = _bracket_roots_scalar(lambda s: h(k, s), grid)
        got = roots[line == k]
        assert len(got) == len(ref)
        assert np.all(np.abs(got - ref) <= 1e-12)
        exact = [r for r in ref if r in grid]
        assert all(r in got for r in exact)


def test_dedup_keeps_first_and_drops_at_radius():
    pts = [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.0, 0.5], [2.0, 0.0], [1.9, 0.0]]
    # points 1 and 3 sit exactly at the radius from point 0 and are dropped;
    # point 2 is tested against kept points only; point 5 is near point 4
    assert dedup(pts, 0.5) == [0, 2, 4]
    assert dedup(pts, 0.05) == [0, 1, 2, 3, 4, 5]
    # keep-first: reversing the input keeps a different cover
    assert dedup(np.array(pts)[::-1], 0.5) == [0, 2, 3]
    assert dedup([], 1.0) == []


def test_newton_quadratic():
    root = newton_solve(lambda z: np.array([z[0] ** 2 - 2.0]), np.array([1.0]))
    assert root[0] == pytest.approx(np.sqrt(2.0), abs=1e-10)


def test_newton_underdetermined_least_norm():
    # one equation, two unknowns: stays near the seed
    z = newton_solve(circle, np.array([2.0, 0.0]))
    assert circle(z)[0] == pytest.approx(0.0, abs=1e-10)
    assert abs(z[1]) < 1e-8


def test_newton_frozen_coordinates():
    z = newton_solve(
        lambda z: np.array([z[0] ** 2 - z[1]]), np.array([1.0, 4.0]), frozen=[1]
    )
    assert z[1] == 4.0
    assert z[0] == pytest.approx(2.0, abs=1e-9)


def test_newton_singular_jacobian():
    # residual 1 but identically-zero Jacobian row at the seed
    with pytest.raises(SingularJacobian):
        newton_solve(
            lambda z: np.array([z[0] ** 2 + z[1] ** 2 + 1.0]), np.array([0.0, 0.0])
        )


def test_newton_max_iterations():
    with pytest.raises((MaxIterations, SingularJacobian)):
        newton_solve(lambda z: np.array([z[0] ** 2 + 1.0]), np.array([1.0]), max_iter=8)


def test_continuation_traces_unit_circle():
    c = continue_curve(circle, np.array([1.0, 0.0]), step=0.05, max_points=500)
    assert c.closed
    radii = np.linalg.norm(c.points, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-8
    # about 2*pi / 0.05 ~ 126 points
    assert 100 <= len(c.points) <= 150


def test_continuation_residuals_small():
    c = continue_curve(circle, np.array([0.0, 1.0]), step=0.02, max_points=1000)
    res = np.array([circle(p)[0] for p in c.points])
    assert np.max(np.abs(res)) < 1e-8


def test_continuation_seed_not_on_curve():
    with pytest.raises(SeedNotOnCurve):
        continue_curve(circle, np.array([2.0, 2.0]), step=0.05, max_points=10)


def test_continuation_rank_deficient_seed():
    # gradient of z1^2 + z2^2 vanishes at the origin, which lies on the zero set
    sys = lambda z: np.array([z[0] ** 2 + z[1] ** 2])
    with pytest.raises(RankDeficientSeed):
        continue_curve(sys, np.array([0.0, 0.0]), step=0.05, max_points=10)


def test_continuation_stops_at_box():
    line = lambda z: np.array([z[1]])
    c = continue_curve(
        line,
        np.array([0.0, 0.0]),
        step=0.1,
        max_points=500,
        box=((-1.0, 1.0), (-1.0, 1.0)),
    )
    assert not c.closed
    assert np.all(np.abs(c.points[:, 0]) <= 1.0 + 1e-9)
    assert len(c.points) >= 15


def test_corrector_uses_the_given_jacobian(no_fd):
    system = System(lambda z: (circle(z), circle_jac(z)))
    c = continue_curve(system, np.array([1.0, 0.0]), step=0.05, max_points=500)
    assert c.closed
    assert np.max(np.abs(np.linalg.norm(c.points, axis=1) - 1.0)) < 1e-8


def test_plain_callable_is_its_fd_system():
    def fn(z):
        return np.array([z[0] ** 2 + z[1] ** 3 - 1.0, np.sin(z[0]) - z[1]])

    seed = np.array([0.9, 0.4])
    res, J = as_system(fn).evaluate(seed)
    assert np.array_equal(res, fn(seed)) and np.array_equal(J, fd_jacobian(fn, seed))
    assert newton_solve(fn, seed).tobytes() == newton_solve(as_system(fn), seed).tobytes()


def test_caustic_scene_uses_exact_jacobians(no_fd, capsys):
    assert cli.run(["caustic", "--family", "cusp"]) == 0
    assert "caustic: 809 points" in capsys.readouterr().out


# Field passes per traced point: a call of ``value``, ``grad``, ``hessian`` or
# ``third``, or one ``derivatives`` jet.  With a residual pass and a
# Jacobian pass per Newton iterate and one more Jacobian for the tangent it
# was 19.5 on the caustic scene and 20.9 on the front scene; one fused pass
# per iterate, with the tangent from the converged Jacobian, makes about 6.
FIELD_CALLS_PER_POINT = 8


def _field_passes(argv, monkeypatch):
    """Field passes and traced points of one CLI run."""
    calls = [0]
    for name in ("value", "grad", "hessian", "third", "derivatives"):
        method = getattr(fields.ScalarField, name)

        def counted(self, *args, _method=method, **kwargs):
            calls[0] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(fields.ScalarField, name, counted)
    traced = [0]
    trace = fronts.continue_curve

    def counted_trace(*args, **kwargs):
        curve = trace(*args, **kwargs)
        traced[0] += len(curve.points)
        return curve

    monkeypatch.setattr(fronts, "continue_curve", counted_trace)
    assert cli.run(argv) == 0
    return calls[0], traced[0]


def test_caustic_scene_field_calls_per_point(monkeypatch, capsys):
    calls, traced = _field_passes(["caustic", "--family", "cusp"], monkeypatch)
    assert traced == 809
    assert calls / traced < FIELD_CALLS_PER_POINT


def test_front_scene_field_calls_per_point(monkeypatch, capsys):
    calls, traced = _field_passes(["front", "--family", "cusp", "--t", "0.5"], monkeypatch)
    assert traced == 930
    assert calls / traced < FIELD_CALLS_PER_POINT
