import importlib.util
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefronts.errors import (
    DomainError,
    MaxIterations,
    RankDeficientSeed,
    SeedNotOnCurve,
    SingularJacobian,
)
from wavefronts import cli, families, fields, fronts, geometry, solve
from wavefronts.fields import fd_jacobian
from wavefronts.linalg import RANK_EPS, null_space, numerical_rank, pinv_2x3
from wavefronts.families import critical_system, family_from_text, solve_critical_set
from wavefronts.solve import (
    CONVERGED,
    LEFT_BOX,
    MAX_ITERATIONS,
    OUTCOMES,
    SINGULAR,
    System,
    bracket_roots,
    continue_curve,
    dedup,
    newton_batch,
    newton_solve,
    project_to_set,
)


def circle(z):
    return np.array([z[0] ** 2 + z[1] ** 2 - 1.0])


def circle_jac(z):
    return np.array([[2 * z[0], 2 * z[1]]])


CIRCLE = System(lambda z: (circle(z), circle_jac(z)))


def fd_system(fn):
    """``fn`` with its central-difference Jacobian, for a residual whose
    exact Jacobian is not worth writing out."""
    return System(lambda z: (np.asarray(fn(z), dtype=float), fd_jacobian(fn, z)))


@pytest.fixture
def no_fd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fd_jacobian called although a Jacobian was given")

    monkeypatch.setattr(fields, "fd_jacobian", refuse)


def test_fd_jacobian_linear_system_exact():
    A = np.array([[2.0, -1.0], [0.5, 3.0]])
    J = fd_jacobian(lambda z: A @ z, np.array([0.3, -0.7]))
    assert J == pytest.approx(A, abs=1e-9)


def test_numerical_rank_of_an_empty_matrix_is_zero():
    assert numerical_rank(np.zeros((0, 3))) == numerical_rank([]) == 0
    assert numerical_rank([[1.0, 0.0], [0.0, 1e-9]]) == 1


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
    # one call on the (lines x grid) mesh, then one per refinement step on
    # the brackets still open, so the sizes never grow; bisection took 50+
    assert calls[0] == 21 and calls[1] == 3 and len(calls) <= 15
    assert all(n >= m for n, m in zip(calls[1:], calls[2:]))
    line, roots = bracket_roots(lambda p, s: s * s + p, [1.0], grid)
    assert line.size == roots.size == 0


def _bracket_roots_scalar(h, grid):
    """Reference: the one-line scalar loop, one call of ``h`` per sample.
    Its sign tests multiply signs, as a product of two values can underflow."""
    vals = np.array([h(s) for s in grid])
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        elif np.sign(vals[i]) * np.sign(vals[i + 1]) < 0:
            a, b, fa = float(grid[i]), float(grid[i + 1]), vals[i]
            for _ in range(80):
                m = 0.5 * (a + b)
                fm = h(m)
                if np.sign(fa) * np.sign(fm) <= 0:
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
        # the exact zeros at samples; a bisected root can also round onto a
        # sample next to a root one ulp away, which a step may hit exactly
        exact = [r for r in ref if r in grid and h(k, r) == 0.0]
        assert all(r in got for r in exact)


def _one_ulp(h, r):
    """``h`` changes sign across the float ``r``, or is 0 next to it."""
    lo, hi = h(np.nextafter(r, -np.inf)), h(np.nextafter(r, np.inf))
    return lo == 0.0 or hi == 0.0 or np.sign(lo) != np.sign(hi)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12), st.floats(-1.5, 1.5)), min_size=1, max_size=6),
    st.integers(2, 13),
)
def test_bracket_roots_brackets_every_sign_change_to_one_ulp(lines, n):
    # the cubics of the scalar-loop test; a root that is not an exact zero at
    # a sample came from a sign change, and its bracket closed on adjacent
    # floats or at an exact zero
    grid = np.linspace(-1.0, 1.0, n)
    coef = np.array([[grid[min(i, n - 1)], grid[min(j, n - 1)], c] for i, j, c in lines])

    def h(p, s):
        r = coef[np.asarray(p, dtype=int)]
        return (s - r[..., 0]) * (s - r[..., 1]) * (s - r[..., 2])

    line, roots = bracket_roots(h, np.arange(len(lines)), grid)
    for k, r in zip(line, roots):
        if not (r in grid and h(k, r) == 0.0):
            assert _one_ulp(lambda s: h(k, s), r), (k, r)


ADVERSARIAL_LINES = {
    # name: (h(s), grid, the one root)
    "step": (lambda s: np.sign(s - 0.3), np.linspace(-1.0, 1.0, 12), 0.3),
    "steep": (lambda s: np.tanh(1e8 * (s - 0.3)), np.linspace(-1.0, 1.0, 12), 0.3),
    "flat": (lambda s: (s - 1.0 / 3.0) ** 9, np.linspace(-1.0, 2.0, 12), 1.0 / 3.0),
    "zero at a sample": (lambda s: s, np.linspace(-1.0, 2.0, 13), 0.0),
    "zero hit by a step": (lambda s: s, np.linspace(-1.0, 2.0, 12), 0.0),
    "around 0": (np.expm1, np.linspace(-1.0, 2.0, 12), 0.0),
    "steep around 0": (lambda s: np.tanh(1e8 * s), np.linspace(-1.0, 2.0, 12), 0.0),
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL_LINES))
def test_bracket_roots_adversarial_lines_end_within_81_calls_to_one_ulp(name):
    f, grid, root = ADVERSARIAL_LINES[name]
    calls = []

    def h(p, s):
        calls.append(len(s))
        return f(s)

    _, roots = bracket_roots(h, [0.0], grid)
    assert len(calls) <= 81 and roots.size == 1
    assert _one_ulp(f, roots[0]) and abs(roots[0] - root) <= 4 * np.spacing(root)
    if root == 0.0:
        assert roots[0] == 0.0  # an exact zero is returned as is



@pytest.mark.parametrize("name", sorted(ADVERSARIAL_LINES))
def test_bracket_roots_steps_keep_the_bisection_safeguards(name):
    # rebuild the one bracket from the points h was called at: a step after
    # two that did not halve it evaluates the midpoint, and the bracket is
    # never wider than 2^ITP_N0 times bisection's after as many steps
    f, grid, _ = ADVERSARIAL_LINES[name]
    xs = []

    def h(p, s):
        xs.append(s.copy())
        return f(s)

    bracket_roots(h, [0.0], grid)
    vals = f(grid)
    at = int(np.argmax(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
    a, b = grid[at], grid[at + 1]
    widths = [b - a]
    for k, (x,) in enumerate(xs[1:]):
        if k >= 2 and widths[-1] > 0.5 * widths[-3]:
            assert x == 0.5 * (a + b), (k, x, a, b)
        if np.sign(f(a)) * np.sign(f(x)) <= 0:
            b = x
        else:
            a = x
        widths.append(b - a)
        # up to the rounding of the projected point to a float
        assert widths[-1] <= np.ldexp(widths[0], solve.ITP_N0 - k - 1) + np.spacing(max(abs(a), abs(b)))


@pytest.mark.parametrize("f", [np.sign, lambda s: s**3])
def test_bracket_roots_around_0_without_a_simple_root_stops_at_the_cap(f):
    # a step or a triple root at 0: the floats near 0 are too dense for 80
    # steps; the bracket ends no wider than 2^ITP_N0 times bisection's, so
    # its midpoint lies within half of that of the root
    grid = np.linspace(-1.0, 2.0, 12)
    calls = []

    def h(p, s):
        calls.append(len(s))
        return f(s)

    _, roots = bracket_roots(h, [0.0], grid)
    assert len(calls) == 81 and abs(roots[0]) <= np.ldexp(grid[1] - grid[0], solve.ITP_N0 - 81)


def test_bracket_roots_tiny_values_keep_their_sign_change():
    # neighbouring samples of +-1e-201: their product underflows to -0.0
    def h(p, s):
        return 1e-200 * (s - 0.3)

    _, roots = bracket_roots(h, [0.0], np.linspace(-1.0, 1.0, 12))
    assert roots.size == 1 and _one_ulp(lambda s: h(0.0, s), roots[0])


@pytest.mark.parametrize(
    "grid",
    [
        np.linspace(1.0, -1.0, 11),  # decreasing
        np.array([-1.0, 0.0, 0.0, 1.0]),  # a repeated sample
        np.where(np.arange(11) == 3, np.nan, np.linspace(-1.0, 1.0, 11)),
        np.array([-np.inf, 0.0, 1.0]),
    ],
)
def test_bracket_roots_refuses_a_grid_not_finite_and_increasing(grid):
    def h(p, s):
        raise AssertionError("h called on a bad grid")

    with pytest.raises(ValueError, match="strictly increasing"):
        bracket_roots(h, [0.0], grid)


def test_parallel_cusps_of_the_scan_ellipse_take_at_most_15_calls(monkeypatch):
    # the benchmark's ellipses (a in [1.95, 2.05], b in [0.95, 1.05]) at its
    # 1,441 samples; bisection took 46 calls per offset
    calls = []

    def counted(h, params, grid):
        def hc(p, s):
            calls[-1] += 1
            return h(p, s)

        calls.append(0)
        return solve.bracket_roots(hc, params, grid)

    monkeypatch.setattr(geometry, "bracket_roots", counted)
    u = np.linspace(0.0, 2 * np.pi, 1441)
    for a, b in [(1.95, 0.95), (2.0, 1.0), (2.05, 1.05), (1.95, 1.05), (2.05, 0.95)]:
        e = geometry.Ellipse(a=a, b=b)
        for r in np.linspace(-3.05, -0.85, 60):
            assert len(geometry.parallel_cusps(e, r, u)) == 4
    assert len(calls) == 300 and max(calls) <= 15


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
    root, J, _ = newton_solve(fd_system(lambda z: np.array([z[0] ** 2 - 2.0])), np.array([1.0]))
    assert root[0] == pytest.approx(np.sqrt(2.0), abs=1e-10)
    assert J[0, 0] == pytest.approx(2 * np.sqrt(2.0), abs=1e-6)


def test_newton_underdetermined_least_norm():
    # one equation, two unknowns: stays near the seed
    z, _, _ = newton_solve(CIRCLE, np.array([2.0, 0.0]))
    assert circle(z)[0] == pytest.approx(0.0, abs=1e-10)
    assert abs(z[1]) < 1e-8


def test_newton_returns_the_converged_jacobian():
    for seed in ([2.0, 0.0], [0.3, 0.4], [1.0, 0.0]):
        p, J, last = newton_solve(CIRCLE, np.array(seed))
        assert J.tobytes() == CIRCLE.evaluate(p)[1].tobytes()
        if seed == [1.0, 0.0]:  # on the circle: no step, no factorization
            assert last is None
            continue
        # the Jacobian of the iterate before p with its extreme singular
        # values and its last right singular vector, which spans the null
        # space of J_f
        J_f, s_max, s_min, v = last
        assert J_f.tobytes() != J.tobytes() and s_max == s_min and np.shape(v) == (2,)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
        assert s_max == pytest.approx(np.linalg.norm(J_f), rel=1e-14)
        assert np.abs(J_f @ v).max() < 1e-14 * s_max


def test_newton_frozen_coordinates():
    # dF/dq = 3 q^2 - 3 x: the critical system is solved in q at the fixed x
    fam = family_from_text("q1^3 - 3*x1*q1", 1, 1)
    q, J, _ = newton_solve(critical_system(fam, 4.0), np.array([1.0]))
    assert np.shape(J) == (1, 1)
    assert q[0] == pytest.approx(2.0, abs=1e-9)
    (cp,) = solve_critical_set(fam, [4.0], [[1.0]])
    assert cp.x[0] == 4.0
    assert cp.q[0] == pytest.approx(2.0, abs=1e-9)


def test_newton_singular_jacobian():
    # residual 1 but identically-zero Jacobian row at the seed
    with pytest.raises(SingularJacobian):
        newton_solve(fd_system(lambda z: np.array([z[0] ** 2 + z[1] ** 2 + 1.0])), np.array([0.0, 0.0]))


def test_newton_max_iterations(monkeypatch):
    monkeypatch.setattr(solve, "NEWTON_MAX_ITER", 8)
    with pytest.raises((MaxIterations, SingularJacobian)):
        newton_solve(fd_system(lambda z: np.array([z[0] ** 2 + 1.0])), np.array([1.0]))


def test_project_to_set_drops_failed_seeds_and_takes_scalars():
    # z^2 = 2 from scalar seeds; the seed 0 has a singular Jacobian
    points = project_to_set(System(lambda z: (z**2 - 2.0, 2 * z[..., None])), [1.0, 0.0, -3.0, np.array([5.0])])
    assert len(points) == 3 and all(p.shape == (1,) for p in points)
    assert [float(p[0]) for p in points] == pytest.approx([np.sqrt(2.0), -np.sqrt(2.0), np.sqrt(2.0)], abs=1e-10)


def test_continuation_traces_unit_circle():
    c = continue_curve(CIRCLE, np.array([1.0, 0.0]), step=0.05, max_points=500)
    assert c.closed
    radii = np.linalg.norm(c.points, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-8
    # about 2*pi / 0.05 ~ 126 points
    assert 100 <= len(c.points) <= 150


def test_continuation_residuals_small():
    c = continue_curve(CIRCLE, np.array([0.0, 1.0]), step=0.02, max_points=1000)
    res = np.array([circle(p)[0] for p in c.points])
    assert np.max(np.abs(res)) < 1e-8


def test_continuation_seed_not_on_curve():
    with pytest.raises(SeedNotOnCurve):
        continue_curve(CIRCLE, np.array([2.0, 2.0]), step=0.05, max_points=10)


def test_continuation_rank_deficient_seed():
    # gradient of z1^2 + z2^2 vanishes at the origin, which lies on the zero set
    sys = fd_system(lambda z: np.array([z[0] ** 2 + z[1] ** 2]))
    with pytest.raises(RankDeficientSeed):
        continue_curve(sys, np.array([0.0, 0.0]), step=0.05, max_points=10)


def test_continuation_ends_where_the_system_leaves_its_domain():
    # the circle of radius 1.2 crosses the square [-1, 1]^2 in four arcs; a
    # system that raises DomainError outside the square traces one of them,
    # and the step halvings bring each end within step/16 of the edge
    def evaluate(z):
        if np.abs(z).max() > 1.0:
            raise DomainError(f"{z} is outside the square")
        z = np.array(z)
        return [z @ z - 1.44], (2 * z[None, :]).tolist()

    step = 0.05
    c = continue_curve(System(evaluate), np.full(2, 1.2 / np.sqrt(2)), step=step, max_points=500)
    assert not c.closed
    assert len(c.points) >= 10
    assert np.abs(c.points).max() <= 1.0
    for end in c.points[[0, -1]]:
        assert 1.0 - np.abs(end).max() <= step / 16


def test_continuation_evaluates_once_per_chain_outside_newton(monkeypatch):
    # the seed check is the only evaluate outside a Newton solve: the seed
    # tangent comes from the Jacobian of the polish
    outside, depth = [0], [0]

    def evaluate(z):
        outside[0] += depth[0] == 0
        return circle(z), circle_jac(z)

    newton = solve.newton_solve

    def counted(*args):
        depth[0] += 1
        try:
            return newton(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(solve, "newton_solve", counted)
    c = continue_curve(System(evaluate), np.array([1.0, 0.0]), step=0.05, max_points=500)
    assert c.closed
    assert outside[0] == 1


def test_corrector_uses_the_given_jacobian(no_fd):
    c = continue_curve(CIRCLE, np.array([1.0, 0.0]), step=0.05, max_points=500)
    assert c.closed
    assert np.max(np.abs(np.linalg.norm(c.points, axis=1) - 1.0)) < 1e-8


def test_caustic_scene_uses_exact_jacobians(no_fd, capsys):
    assert cli.run(["caustic", "--family", "cusp"]) == 0
    assert "caustic: 808 points" in capsys.readouterr().out


# Field passes per traced point: a call of ``value``, ``grad`` or ``hessian``,
# or one ``jet`` (``derivatives`` is views of one).  With a residual pass and
# a Jacobian pass per Newton iterate and one more Jacobian for the tangent it
# was 19.5 on the caustic scene and 20.9 on the front scene; one fused pass
# per iterate, with the tangent from the converged Jacobian, made 3.49 and
# 2.65, and the second-order predictor, after which the corrector mostly
# converges in one step, makes 3.11 and 2.17.
FIELD_CALLS_PER_POINT = 4
# SVDs per traced point, every ``np.linalg.svd`` of the run counted: one per
# corrector step and one per ``null_space`` tangent made 2.47 on the caustic
# scene and 2.61 on the front scene; the tangent read from the corrector's
# last SVD and the second-order predictor made 1.09 and 1.13, and the closed
# form of the 2 x 3 step and tangent (linalg.pinv_2x3) makes 0.019 and 0.034.
SVD_CALLS_PER_POINT = 1.3


def _field_passes(argv, monkeypatch):
    """Field passes, SVD calls and traced points of one CLI run."""
    calls, svds = [0], [0]
    for name in ("value", "grad", "hessian", "jet"):
        method = getattr(fields.ScalarField, name)

        def counted(self, *args, _method=method, **kwargs):
            calls[0] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(fields.ScalarField, name, counted)
    svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        svds[0] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    traced = [0]
    trace = fronts.continue_curve

    def counted_trace(*args, **kwargs):
        curve = trace(*args, **kwargs)
        traced[0] += len(curve.points)
        return curve

    monkeypatch.setattr(fronts, "continue_curve", counted_trace)
    assert cli.run(argv) == 0
    return calls[0], svds[0], traced[0]


def test_caustic_scene_field_calls_per_point(monkeypatch, capsys):
    calls, _, traced = _field_passes(["caustic", "--family", "cusp"], monkeypatch)
    assert traced == 808
    assert calls / traced < FIELD_CALLS_PER_POINT


def test_front_scene_field_calls_per_point(monkeypatch, capsys):
    calls, _, traced = _field_passes(["front", "--family", "cusp", "--t", "0.5"], monkeypatch)
    assert traced == 932
    assert calls / traced < FIELD_CALLS_PER_POINT


@pytest.mark.parametrize(
    "argv", [["caustic", "--family", "cusp"], ["front", "--family", "cusp", "--t", "0.5"]], ids=["caustic", "front"]
)
def test_scene_svd_calls_per_point(argv, monkeypatch, capsys):
    _, svds, traced = _field_passes(argv, monkeypatch)
    assert svds / traced < SVD_CALLS_PER_POINT


# --- the tangent read from the corrector's last step


def _orthogonal(rng, m):
    return np.linalg.qr(rng.standard_normal((m, m)))[0]


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(2, 5),
    exponents=st.lists(st.floats(-12.0, 0.0), min_size=4, max_size=4),
    scale=st.floats(-14.0, -1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_certified_tangent_is_the_null_vector_of_a_full_rank_jacobian(m, exponents, scale, seed):
    # J_f with singular values 10^e spread over 12 decades, and J = J_f + dJ
    # with every entry of dJ of size 10^scale / 2 to 10^scale: whenever
    # _tangent reuses J_f's factorization, Weyl's inequality has certified
    # that J passes the rank test and Wedin's bound that Vt[-1] is
    # null_space(J)'s tangent to RANK_EPS in 1 - |cos|
    rng = np.random.default_rng(seed)
    s = np.sort(10.0 ** np.array(exponents[: m - 1]))[::-1]
    J_f = _orthogonal(rng, m - 1) @ np.diag(s) @ _orthogonal(rng, m)[: m - 1]
    dJ = 10.0**scale * rng.uniform(0.5, 1.0, J_f.shape) * rng.choice([-1.0, 1.0], J_f.shape)
    J = J_f + dJ
    _, s_f, Vt = np.linalg.svd(J_f)
    try:
        tau, reused = solve._tangent(J, (J_f, s_f[0], s_f[-1], Vt[-1]), None)
    except RankDeficientSeed:
        reused = False
    if reused:
        assert numerical_rank(J) == m - 1
        assert tau.tobytes() == Vt[-1].tobytes()
        assert 1.0 - abs(np.dot(tau, null_space(J)[:, 0])) <= RANK_EPS


def test_an_uncertified_tangent_takes_the_exact_rank_test():
    J_f = np.diag([1.0, 1e-6, 0.0])[:2]
    _, s, Vt = np.linalg.svd(J_f)
    last = J_f, s[0], s[-1], Vt[-1]
    # a tiny move keeps both bounds: the tangent is Vt[-1]
    tau, reused = solve._tangent(J_f + 1e-15, last, None)
    assert reused and np.abs(tau).tolist() == [0.0, 0.0, 1.0]
    # d = 1e-9 keeps the rank certified, but the angle bound d / g is 1e-3
    J = J_f.copy()
    J[1, 2] = 1e-9
    tau, reused = solve._tangent(J, last, None)
    assert not reused and np.array(tau).tobytes() == null_space(J)[:, 0].tobytes()
    # a move of the size of s_min: null_space(J) decides the rank, 2 then 1
    J[1, 2] = 1e-6
    tau, reused = solve._tangent(J, last, None)
    assert not reused and np.array(tau).tobytes() == null_space(J)[:, 0].tobytes()
    J[1, 1] = J[1, 2] = 0.0
    with pytest.raises(RankDeficientSeed):
        solve._tangent(J, last, None)
    # no factorization (the corrector took no step): the exact path
    tau, reused = solve._tangent(J_f + 1e-15, None, None)
    assert not reused


def test_a_plane_tangent_reads_the_closed_form():
    # a 2 x 3 ``last`` as newton_solve makes it, from pinv_2x3: the certified
    # tangent is its null vector as it is; an uncertified one with a previous
    # tangent is the closed-form null vector of J under numerical_rank's rule
    J_f = np.diag([1.0, 1e-6, 0.0])[:2]
    _, s_max, s_min, v = pinv_2x3(J_f.tolist(), (0.0, 0.0))
    last = J_f, s_max, s_min, v
    tau, reused = solve._tangent(J_f + 1e-15, last, None)
    assert reused and np.array(tau).tobytes() == np.array(v).tobytes()
    J = J_f.copy()
    J[1, 2] = 1e-9
    prev = np.array([0.1, 0.0, -1.0])
    tau, reused = solve._tangent(J, last, prev)
    assert not reused and np.dot(tau, prev) > 0
    assert 1.0 - abs(np.dot(tau, null_space(J)[:, 0])) <= 1e-15
    # the rank rule on either side of RANK_EPS, and on an exact rank 1
    for small, rank in ((1.1 * RANK_EPS, 2), (0.9 * RANK_EPS, 1), (0.0, 1)):
        J = np.diag([1.0, small, 0.0])[:2]
        assert numerical_rank(J) == rank
        if rank == 2:
            assert not solve._tangent(J, last, prev)[1]
        else:
            with pytest.raises(RankDeficientSeed):
                solve._tangent(J, last, prev)


@pytest.mark.parametrize(
    "argv",
    [["caustic", "--family", "cusp"], ["front", "--family", "cusp", "--t", "0.5"], ["maxwell", "--family", "cusp"]],
    ids=["caustic", "front", "maxwell"],
)
def test_reused_tangents_agree_with_the_null_space_of_the_converged_jacobian(argv, monkeypatch, capsys):
    gaps, tangent = [], solve._tangent

    def checked(J, last, prev):
        tau, reused = tangent(J, last, prev)
        if reused:
            gaps.append(1.0 - abs(np.dot(tau, null_space(J)[:, 0])))
        return tau, reused

    monkeypatch.setattr(solve, "_tangent", checked)
    assert cli.run(argv) == 0
    assert len(gaps) > 300 and max(gaps) < 1e-8


# --- the stacked solver against newton_solve, row by row

CUSP = families.catalog()["cusp"]  # box q in [-4, 4], x in [-6, 6]^2
FOLD = families.catalog()["fold"]
DROPS = {SingularJacobian: SINGULAR, MaxIterations: MAX_ITERATIONS, DomainError: LEFT_BOX}


def _scalar_rows(systems, seeds):
    """``(outcome, point or None)`` of ``newton_solve`` on each seed with its
    own system."""
    out = []
    for system, seed in zip(systems, seeds):
        try:
            out.append((CONVERGED, newton_solve(system, seed)[0]))
        except tuple(DROPS) as e:
            out.append((DROPS[type(e)], None))
    return out


def _assert_rows_agree(stacked, systems, seeds):
    P, R, J, outcome = newton_batch(stacked, seeds)
    scalar = _scalar_rows(systems, seeds)
    assert [OUTCOMES[o] for o in outcome] == [OUTCOMES[o] for o, _ in scalar]
    kept = [p for o, p in scalar if o == CONVERGED]
    projected = project_to_set(stacked, seeds)
    assert len(projected) == len(kept)
    for a, b, p in zip(projected, kept, P[outcome == CONVERGED]):
        assert np.abs(a - b).max() <= 1e-12 and np.array_equal(a, p)
    return outcome


def _whole_stack_newton_batch(system, seeds, running_log):
    """The batched Newton that evaluates the whole stack on every iterate,
    logging the rows still running before each evaluate: the reference for
    ``newton_batch``, which evaluates only those rows."""
    P = np.array([np.atleast_1d(np.asarray(s, dtype=float)) for s in seeds])
    outcome = np.full(len(P), MAX_ITERATIONS)
    running = np.arange(len(P))
    R = J = None
    for _ in range(solve.NEWTON_MAX_ITER):
        running_log.append(running.copy())
        r, Jr = system.evaluate(P)
        if R is None:
            R, J = np.full(r.shape, np.nan), np.full(Jr.shape, np.nan)
        res = r[running]
        left = ~np.isfinite(res).all(axis=1)
        conv = (np.abs(res) < solve.NEWTON_TOL).all(axis=1)
        outcome[running[left]] = LEFT_BOX
        outcome[running[conv]] = CONVERGED
        R[running[conv]], J[running[conv]] = res[conv], Jr[running[conv]]
        running, res = running[~(left | conv)], res[~(left | conv)]
        if running.size == 0:
            break
        U, s, Vt = np.linalg.svd(Jr[running], full_matrices=False)
        singular = (s[:, 0] == 0.0) | (s[:, -1] < solve.SINGULAR_RATIO * s[:, 0])
        outcome[running[singular]] = SINGULAR
        ok = ~singular
        running, U, s, Vt, res = running[ok], U[ok], s[ok], Vt[ok], res[ok]
        with np.errstate(over="ignore", invalid="ignore"):
            P[running] -= np.einsum("nji,nj->ni", Vt, np.einsum("nij,ni->nj", U, res) / s)
        if running.size == 0:
            break
    return P, R, J, outcome


def _logged(system, rows_log):
    """``system`` as a RowSystem that logs the rows of each ``rows`` call and
    checks that the stack evaluated has exactly those rows."""

    def take(index):
        rows_log.append(index.copy())
        sub = system.rows(index)

        def evaluate(z):
            assert len(z) == len(index)
            return sub.evaluate(z)

        return System(evaluate)

    return solve.RowSystem(system.evaluate, take)


def _assert_running_rows_are_the_whole_stack(system, seeds):
    """``newton_batch`` gives the whole-stack loop's ``(P, R, J, outcome)``
    bit for bit; returns the outcomes."""
    ref_log, rows_log = [], []
    ref = _whole_stack_newton_batch(system, seeds, ref_log)
    got = newton_batch(_logged(system, rows_log), seeds)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    # iterate i evaluates exactly the rows still running
    assert len(rows_log) == len(ref_log)
    assert all(np.array_equal(a, b) for a, b in zip(rows_log, ref_log))
    return got[3]


# q and x inside the box, or one coordinate pushed outside it
CRITICAL_ROW = st.one_of(
    st.tuples(st.floats(-4.0, 4.0), st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
    st.tuples(st.floats(4.5, 6.0), st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
    st.tuples(st.floats(-4.0, 4.0), st.floats(6.5, 8.0), st.floats(-6.0, 6.0)),
    # q = 0 at x1 = 0: on the cusp dF/dq = x2 with d2F/dq2 = 0, exactly singular unless x2 = 0
    st.tuples(st.just(0.0), st.just(0.0), st.floats(-6.0, 6.0)),
)


@pytest.mark.parametrize("fam", [CUSP, FOLD], ids=["cusp", "fold"])
@settings(max_examples=60, deadline=None)
@given(rows=st.lists(CRITICAL_ROW, min_size=1, max_size=10), max_iter=st.sampled_from([1, 2, 3, 50]))
def test_stacked_critical_solve_matches_newton_solve_row_by_row(fam, rows, max_iter):
    rows = np.array(rows)
    Q, X = rows[:, :1], rows[:, 1:]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solve, "NEWTON_MAX_ITER", max_iter)
        _assert_rows_agree(critical_system(fam, X), [critical_system(fam, x) for x in X], Q)
        _assert_running_rows_are_the_whole_stack(critical_system(fam, X), Q)


# The front and pairing systems have more unknowns than equations, and a
# seed far from their solution sets can take a path through nearly singular
# Jacobians, where the ulp-level differences between the stacked SVD step and
# lstsq grow; these seeds lie within 0.1 of a point of the set.
NEAR = st.lists(st.floats(-0.1, 0.1), min_size=4, max_size=4)


@settings(max_examples=60, deadline=None)
@given(
    t=st.floats(-2.0, 0.5),
    rows=st.lists(st.tuples(st.floats(0.4, 1.6), st.booleans(), NEAR), min_size=1, max_size=8),
    outside=st.booleans(),
    max_iter=st.sampled_from([1, 2, 50]),
)
def test_stacked_front_and_pairing_solves_match_newton_solve_row_by_row(t, rows, outside, max_iter):
    gl = families.GraphLikeFamily(base=CUSP)
    fronts_seeds, pair_seeds = [], []
    for q, flip, d in rows:
        q = -q if flip else q
        # the front point at q with F = t and dF/dq = 0, and the Maxwell pair
        # (q, -q) over x = (-2 q^2, 0)
        x1 = -(t + 3 * q**4) / q**2
        fronts_seeds.append(np.array([q, x1, -(4 * q**3 + 2 * x1 * q)]) + d[:3])
        pair_seeds.append(np.array([q, -q, -2 * q * q, 0.0]) + d)
    if outside:
        fronts_seeds.append(np.array([4.5, -1.0, 0.0]))
        pair_seeds.append(np.array([0.5, 4.5, -0.5, 0.0]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solve, "NEWTON_MAX_ITER", max_iter)
        for system, seeds in ((fronts.front_system(gl, t), fronts_seeds), (fronts.pairing_system(CUSP), pair_seeds)):
            _assert_rows_agree(system, [system] * len(seeds), seeds)
            _assert_running_rows_are_the_whole_stack(system, seeds)


def test_newton_batch_accounts_for_every_seed(monkeypatch):
    # one seed of each outcome on the cusp at x = (0, x2): a converging seed,
    # an exactly singular one (q = 0 with x2 != 0), one leaving the box and
    # one still running after NEWTON_MAX_ITER = 3 evaluations
    seeds = [[1.1807344], [0.0], [4.5], [-3.9]]
    X = [[-3.0, 0.5], [0.0, 1.0], [-3.0, 0.5], [-3.0, 0.5]]
    monkeypatch.setattr(solve, "NEWTON_MAX_ITER", 3)
    outcome = _assert_rows_agree(critical_system(CUSP, X), [critical_system(CUSP, x) for x in X], seeds)
    assert [OUTCOMES[o] for o in outcome] == ["converged", "singular", "left_box", "max_iterations"]
    # the rows that have ended are not evaluated again, with the same result
    assert np.array_equal(_assert_running_rows_are_the_whole_stack(critical_system(CUSP, X), seeds), outcome)
    counts = np.bincount(outcome, minlength=len(OUTCOMES))
    assert counts[CONVERGED] + counts[SINGULAR] + counts[MAX_ITERATIONS] + counts[LEFT_BOX] == len(seeds)


def _quadratic_rows(coefs) -> System:
    """The 1 x 1 RowSystem r(p) = (a p + b) p + c, J = 2 a p + b with one
    (a, b, c) per row.  A row whose r or J is not finite has left the box (a
    NaN residual), so that the stacked SVD of the reference never sees one."""
    coefs = np.asarray(coefs, dtype=float).reshape(-1, 3)

    def evaluate(P):
        a, b, c = coefs.T
        p = P[:, 0]
        with np.errstate(all="ignore"):
            r, j = (a * p + b) * p + c, 2 * a * p + b
        r[~(np.isfinite(r) & np.isfinite(j))] = np.nan
        return r[:, None], j[:, None, None]

    return solve.RowSystem(evaluate, lambda index: _quadratic_rows(coefs[index]))


# zero, tiny and huge coefficients and seeds, so that J = 0 exactly, J lies
# at either end of solve.EXACT_1X1 or beyond it, and a step r / J overflows
EXTREME = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-138, -3e-138, 1.0, -3.0, 1e138, -1e138, 1e300, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-10.0, 10.0),
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(EXTREME, EXTREME, EXTREME, EXTREME), min_size=1, max_size=8),
       max_iter=st.sampled_from([1, 2, 50]))
def test_one_by_one_newton_steps_are_the_stacked_svd_steps(rows, max_iter):
    rows = np.array(rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solve, "NEWTON_MAX_ITER", max_iter)
        _assert_running_rows_are_the_whole_stack(_quadratic_rows(rows[:, :3]), rows[:, 3:])


@pytest.mark.parametrize("extra, svds", [(None, 0), (1e-200, 1), (3e140, 1)])
def test_one_by_one_rows_reach_every_outcome(extra, svds, monkeypatch):
    # J = 0 at the seed, a step of 1e200 / 1e-130 that overflows and leaves
    # the box, a converging row and one still running after two iterates;
    # an SVD only for the iterate whose |J| leaves solve.EXACT_1X1
    rows = [(1.0, 0.0, -1.0, 0.0), (0.0, 1e-130, -1e200, 0.0), (0.0, 2.0, -1.0, 0.0), (1.0, 0.0, -2.0, 1.0)]
    if extra is not None:
        rows.append((0.0, extra, -1.0, 0.0))  # r = J p - 1 with |J| outside EXACT_1X1
    coefs, seeds = np.array(rows)[:, :3], np.array(rows)[:, 3:]
    calls, svd = [], np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(solve, "NEWTON_MAX_ITER", 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "svd", counted)
        P, R, J, outcome = newton_batch(_quadratic_rows(coefs), seeds)
    assert len(calls) == svds
    assert [OUTCOMES[o] for o in outcome[:4]] == ["singular", "left_box", "converged", "max_iterations"]
    assert np.array_equal(outcome, _assert_running_rows_are_the_whole_stack(_quadratic_rows(coefs), seeds))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_running_row_with_a_non_finite_jacobian_ends_singular(bad):
    # r = p - 1 with J = 1, but J is `bad` on the second row: a stacked SVD
    # refuses the whole batch (LinAlgError) or steps by NaN
    def evaluate(P):
        J = np.ones((len(P), 1, 1))
        J[index_of_bad(P)] = bad
        return P - 1.0, J

    def index_of_bad(P):
        return P[:, 0] == 5.0

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        P, R, J, outcome = newton_batch(System(evaluate), [[0.0], [5.0], [3.0]])
    assert [OUTCOMES[o] for o in outcome] == ["converged", "singular", "converged"]
    assert P[1, 0] == 5.0 and np.isnan(R[1]).all() and np.isnan(J[1]).all()
    assert np.array_equal(P[[0, 2], 0], [1.0, 1.0])


def _overflow_system() -> System:
    """r(p) = J p + (0, -1e10) with J = diag(1e-290, 1e-300), which passes
    SINGULAR_RATIO; a non-finite point leaves the box (DomainError for a
    point, a NaN row for a stack)."""
    J = np.diag([1e-290, 1e-300])

    def evaluate(p):
        point = isinstance(p, list)  # a point is the list of its floats
        P = np.atleast_2d(p)
        bad = ~np.isfinite(P).all(axis=1)
        if point and bad[0]:
            raise DomainError(f"point {p} leaves the box")
        R = np.full(P.shape, np.nan)
        R[~bad] = P[~bad] @ J.T + np.array([0.0, -1e10])
        Js = np.where(bad[:, None, None], np.nan, J)
        return (R[0].tolist(), Js[0].tolist()) if point else (R, Js)

    return System(evaluate)


def test_an_overflowing_newton_step_leaves_the_box_without_a_warning():
    # the first step from 0 is 1e10 / 1e-300 = 1e310, which overflows: both
    # solvers end at the next evaluate, which leaves the box
    system = _overflow_system()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            newton_solve(system, [0.0, 0.0])
        outcome = newton_batch(system, [[0.0, 0.0]])[3]
    assert [OUTCOMES[o] for o in outcome] == ["left_box"]


def _plane_overflow_system() -> System:
    """The 2 x 3 twin of ``_overflow_system``: r(p) = J p + (0, -1e10) with
    J = [diag(1e-290, 1e-300) | 0], whose least-norm step from 0 is 1e310."""
    J = np.array([[1e-290, 0.0, 0.0], [0.0, 1e-300, 0.0]])

    def evaluate(p):
        if not np.isfinite(p).all():
            raise DomainError(f"point {p} leaves the box")
        return (J @ p + np.array([0.0, -1e10])).tolist(), J.tolist()

    return System(evaluate)


def test_an_overflowing_plane_step_leaves_the_box_without_a_warning():
    # the closed-form step overflows to inf on Python floats, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            newton_solve(_plane_overflow_system(), [0.0, 0.0, 0.0])


def test_a_safe_svd_step_takes_no_errstate(monkeypatch):
    # a 3 x 4 system, the size of the Maxwell pairing, on the SVD path: every
    # step is far below STEP_BOUND, so newton_solve never enters np.errstate
    entered = [0]
    errstate = np.errstate

    def counted(**kwargs):
        entered[0] += 1
        return errstate(**kwargs)

    monkeypatch.setattr(np, "errstate", counted)
    def evaluate(z):
        z = np.array(z)
        return [z @ z - 1.0, z[0] - 0.5, z[1] - z[2]], [(2 * z).tolist(), [1, 0, 0, 0], [0, 1, -1, 0]]

    system = System(evaluate)
    p, _, last = newton_solve(system, [1.0, 1.0, 1.0, 1.0])
    assert np.abs(system.evaluate(p)[0]).max() < solve.NEWTON_TOL and last is not None
    assert entered[0] == 0


PLANE_JACOBIANS = dict(
    log_ratio=st.floats(-14.0, 0.0),
    log_scale=st.floats(-100.0, 100.0),
    r=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)


def _plane_jacobian(log_ratio, log_scale, seed, twice=None):
    """A random 2 x 3 J with singular values 10^log_scale (1, 10^log_ratio);
    with ``twice``, one of exact rank 1 or 0 instead: a random row of size
    10^log_scale and ``twice`` times it (an exact product)."""
    rng = np.random.default_rng(seed)
    if twice is None:
        s = 10.0**log_scale * np.array([1.0, 10.0**log_ratio])
        return _orthogonal(rng, 2) @ np.diag(s) @ _orthogonal(rng, 3)[:2]
    a = 10.0**log_scale * rng.standard_normal(3)
    return np.array([a, twice * a])


def _step_tolerance(ulps, kappa, r, s_min):
    """``ulps`` eps kappa |r| / s_min, the first-order perturbation of the
    least-norm step under a backward error of ``ulps`` ulps of s_max; |r| by
    hypot, which does not underflow, 1e-290 for a subnormal r and 1e-320 for
    a subnormal step."""
    return ulps * np.finfo(float).eps * kappa * (math.hypot(*r) + 1e-290) / s_min + 1e-320


@settings(max_examples=300, deadline=None)
@given(rank_one=st.sampled_from([None, 2.0, -0.5, 0.0]), **PLANE_JACOBIANS)
def test_the_plane_closed_form_is_the_svd(log_ratio, log_scale, r, rank_one, seed):
    # pinv_2x3 against np.linalg.svd over 200 decades of scale, with
    # s_min / s_max down to 1e-14, or of exact rank 1 or 0.  The tolerances
    # are LAPACK's: where the two singular values nearly coincide, its own
    # error reaches 18 ulps of s_max in them and 34 in the step (measured
    # against 40-digit mpmath, where the closed form stays within 2, as the
    # test below checks), so they agree to 32 ulps of s_max, and the step and
    # the null vector (up to sign) within the first-order perturbation of 64
    # and 8 ulps, eps kappa |r| / s_min and eps kappa
    eps = np.finfo(float).eps
    J = _plane_jacobian(log_ratio, log_scale, seed, rank_one)
    d, s_max, s_min, v = pinv_2x3(J, r)
    U, s, Vt = np.linalg.svd(J)
    assert abs(s_max - s[0]) <= 32 * eps * s[0]
    assert abs(s_min - s[1]) <= 32 * eps * s[0]
    # the SINGULAR_RATIO verdict, wherever rounding cannot decide it
    if abs(s[1] - solve.SINGULAR_RATIO * s[0]) > 32 * eps * s[0]:
        assert (s_min < solve.SINGULAR_RATIO * s_max) == (s[1] < solve.SINGULAR_RATIO * s[0])
    if rank_one is not None:
        assert s_min == 0.0 and d is None and v is None
        return
    kappa = s[0] / s[1]
    assert np.abs(v - np.copysign(1.0, np.dot(v, Vt[-1])) * Vt[-1]).max() <= 8 * eps * kappa
    step = Vt[:2].T @ ((U.T @ np.array(r)) / s)
    assert np.abs(d - step).max() <= _step_tolerance(64, kappa, r, s[1])


@settings(max_examples=100, deadline=None)
@given(**PLANE_JACOBIANS)
def test_the_plane_closed_form_is_exact_to_a_few_ulps(log_ratio, log_scale, r, seed):
    # pinv_2x3 against the same formulas and M^T (M M^T)^-1 r in 40-digit
    # arithmetic on the same J: the singular values within 4 ulps of s_max,
    # the step and the null vector within the perturbation of 4 ulps
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    J = _plane_jacobian(log_ratio, log_scale, seed)
    d, s_max, s_min, v = pinv_2x3(J, r)
    with mp.workdps(40):
        M = mp.matrix(J.tolist())
        a, b = M[0, :], M[1, :]
        n = [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
        aa, bb, ab, nn = (mp.fsum(x * y for x, y in zip(u, w)) for u, w in ((a, a), (b, b), (a, b), (n, n)))
        big = mp.sqrt((aa + bb + mp.sqrt((aa - bb) ** 2 + 4 * ab * ab)) / 2)
        small = mp.sqrt(nn) / big
        step = np.array([float(x) for x in M.T * (M * M.T) ** -1 * mp.matrix(r)])
        null = np.array([float(x / mp.sqrt(nn)) for x in n])
        big, small = float(big), float(small)
    assert abs(s_max - big) <= 4 * eps * big
    assert abs(s_min - small) <= 4 * eps * big
    kappa = big / small
    assert np.abs(v - np.copysign(1.0, np.dot(v, null)) * null).max() <= 4 * eps * kappa
    assert np.abs(d - step).max() <= _step_tolerance(4, kappa, r, small)


def test_solve_critical_set_reads_the_converged_pass(monkeypatch):
    # each kept point's residual, det and corank come from the Jacobian it
    # converged with: no field pass after the solve
    xs = [np.array([-3.0, 0.5]), np.array([1.0, 0.2]), np.array([-1.0, 0.0])]
    cps = solve_critical_set(CUSP, xs, CUSP.seeds)
    calls = [0]
    jet = fields.ScalarField.jet

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return jet(self, *args, **kwargs)

    monkeypatch.setattr(fields.ScalarField, "jet", counted)
    again = solve_critical_set(CUSP, xs, CUSP.seeds)
    assert calls[0] <= solve.NEWTON_MAX_ITER
    assert [len([c for c in cps if tuple(c.x) == tuple(x)]) for x in xs] == [3, 1, 3]
    for a, b in zip(cps, again):
        assert np.array_equal(a.q, b.q) and np.array_equal(a.x, b.x)
        _, g, H = CUSP.field.derivatives(CUSP.point(a.q, a.x))
        assert a.residual == pytest.approx(abs(g[0]), abs=1e-14)
        assert a.hess_q_det == pytest.approx(H[0, 0], rel=1e-13)
        assert a.corank == 0


def _keep_first(points, radius):
    """The greedy keep-first cover as a loop over the points."""
    kept = []
    for i, p in enumerate(points):
        if not kept or np.min(np.linalg.norm(np.array([points[j] for j in kept]) - p, axis=1)) > radius:
            kept.append(i)
    return kept


# on a lattice of step 0.25 many pairs lie exactly 0.5 = DEDUP_ORACLE_RADIUS apart
DEDUP_ORACLE_RADIUS = 0.5
LATTICE = st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.integers(1, 3), size=st.integers(1, 8), groups=st.integers(1, 5))
def test_grouped_dedup_is_dedup_of_each_group(data, d, size, groups):
    point = st.one_of(
        st.lists(LATTICE, min_size=d, max_size=d),  # clusters and points at exactly the radius
        st.lists(st.floats(-1.0, 1.5), min_size=d, max_size=d),
        st.none(),  # a row that did not converge
    )
    rows = data.draw(st.lists(st.lists(point, min_size=size, max_size=size), min_size=groups, max_size=groups))
    pts = np.array([[[np.nan] * d if p is None else p for p in group] for group in rows])
    expected = []
    for g, group in enumerate(pts):
        finite = [i for i, p in enumerate(group) if np.isfinite(p).all()]
        flat = dedup(group[finite], DEDUP_ORACLE_RADIUS) if finite else []
        assert flat == _keep_first(group[finite], DEDUP_ORACLE_RADIUS)
        expected += [g * size + finite[j] for j in flat]
    assert dedup(pts, DEDUP_ORACLE_RADIUS) == expected


def test_grouped_dedup_memory_is_linear_in_the_points():
    # 64 groups of 256 points on 121 lattice sites, radius below the spacing:
    # a pairwise (G, S, S) table would be 16 times the points' bytes
    pts = np.random.default_rng(5).uniform(-0.5, 0.5, (64, 256, 2)).round(1)
    tracemalloc.start()
    try:
        got = dedup(pts, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * pts.nbytes
    assert got == [g * 256 + j for g, group in enumerate(pts) for j in dedup(group, 0.05)]


def _per_x_critical_set(fam, xs, seeds):
    """``solve_critical_set`` as one batched solve and one dedup per grid x."""
    out = []
    for x in xs:
        P, R, H, outcome = newton_batch(critical_system(fam, x), seeds)
        found = np.flatnonzero(outcome == CONVERGED)
        for j in found[dedup(P[found], families.DEDUP_RADIUS)]:
            s = np.linalg.svd(H[j], compute_uv=False)
            rank = int((s > RANK_EPS * s[0]).sum())
            out.append((P[j], x, np.abs(R[j]).max(), np.linalg.det(H[j : j + 1])[0], fam.k - rank))
    return out


# the catalog families and the family files under tools/
FAMILY_FILES = (Path(__file__).resolve().parents[1] / "tools").glob("*.fam")
CRITICAL_SET_FAMILIES = {**families.catalog(), **{path.name: families.family_from_file(path) for path in FAMILY_FILES}}


@pytest.mark.parametrize("name", sorted(CRITICAL_SET_FAMILIES))
def test_solve_critical_set_is_the_per_x_loop(name):
    fam = CRITICAL_SET_FAMILIES[name]
    rng = np.random.default_rng(23)
    lo, hi = np.array(fam.field.box).T
    xs = rng.uniform(lo[fam.k :], hi[fam.k :], (60, fam.n))
    # repeated x rows and seeds, so that every x has duplicates to merge
    xs = np.vstack([xs, xs[:5]])
    seeds = list(fam.seeds) or [rng.uniform(-1.5, 1.5, fam.k) for _ in range(6)]
    seeds += seeds[:2]
    got = solve_critical_set(fam, xs, seeds)
    expected = _per_x_critical_set(fam, xs, seeds)
    assert len(got) == len(expected) > 0
    for cp, (q, x, residual, det, corank) in zip(got, expected):
        assert np.array_equal(cp.q, q) and np.array_equal(cp.x, x)
        assert (cp.residual, cp.hess_q_det, cp.corank) == (residual, det, corank)


def test_solve_critical_set_is_the_per_x_loop_on_a_seedless_grid():
    # a family file has no seeds: the CLI's q seeds are the density^k grid
    fam = CRITICAL_SET_FAMILIES["caustic_k2.fam"]
    xs, seeds = cli.x_grid_and_q_seeds(fam, 12)
    assert not fam.seeds and fam.k == 2 and len(xs) == len(seeds) == 144
    got = solve_critical_set(fam, xs, seeds)
    expected = _per_x_critical_set(fam, xs, seeds)
    assert len(got) == len(expected) > len(xs)
    for cp, (q, x, residual, det, corank) in zip(got, expected):
        assert np.array_equal(cp.q, q) and np.array_equal(cp.x, x)
        assert (cp.residual, cp.hess_q_det, cp.corank) == (residual, det, corank)


# --- tools/layer_times.py: the per-layer timings of one traced point, the critical set, one RK4 step and one CSV row


def test_layer_times_prints_every_layer(capsys):
    path = Path(__file__).resolve().parents[1] / "tools" / "layer_times.py"
    spec = importlib.util.spec_from_file_location("layer_times", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--repeat", "1"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[0] for line in lines] == [
        "jet", "evaluate", "evaluate_stack4", "pinv_2x3", "newton_solve", "traced_point", "critical_solve",
        "rank_diagnostics", "rk4_step", "emit_row",
    ]
    assert all(float(line[1]) > 0.0 and line[2] == "1" for line in lines)


# --- tools/bench_pairs.py: the per-op table printed after the metric table


def test_bench_pairs_prints_the_per_op_table(capsys):
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    run = {"values": {"wall_s": 1.0}, "op_median_s": {"parallels": 0.08, "evolute": 0.01}}
    runs = [
        (run, {"values": {"wall_s": 0.9}, "op_median_s": {"parallels": 0.06, "evolute": 0.01}}),
        ({"values": {"wall_s": 1.2}, "op_median_s": {"parallels": 0.1, "burgers": 0.2}},
         {"correct": False, "error": "exit 1"}),
    ]
    ops = module.summarize_ops(runs)
    module.print_summary(module.summarize([{"name": "wall_s", "better": "lower"}], runs))
    module.print_ops(ops)
    out = capsys.readouterr().out
    table = out[out.index("\nop "):].split("\n")[1:]
    assert table[0].split() == ["op", "parent", "median", "s", "change", "median", "s", "ratio"]
    assert [line.split() for line in table[1:] if line] == [
        ["burgers", "0.2", "-", "-"],  # no change run has it
        ["evolute", "0.01", "0.01", "1.000"],
        ["parallels", "0.09", "0.06", "0.667"],
    ]
    assert out.index("wall_s") < out.index("\nop ")
