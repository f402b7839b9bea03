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
from wavefronts import cli, families, fields, fronts, solve
from wavefronts.families import critical_system, family_from_text, solve_critical_set
from wavefronts.solve import (
    CONVERGED,
    LEFT_BOX,
    MAX_ITERATIONS,
    OUTCOMES,
    SINGULAR,
    System,
    as_system,
    bracket_roots,
    continue_curve,
    dedup,
    fd_jacobian,
    newton_batch,
    newton_solve,
    project_to_set,
)


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
    root, J = newton_solve(lambda z: np.array([z[0] ** 2 - 2.0]), np.array([1.0]))
    assert root[0] == pytest.approx(np.sqrt(2.0), abs=1e-10)
    assert J[0, 0] == pytest.approx(2 * np.sqrt(2.0), abs=1e-6)


def test_newton_underdetermined_least_norm():
    # one equation, two unknowns: stays near the seed
    z, _ = newton_solve(circle, np.array([2.0, 0.0]))
    assert circle(z)[0] == pytest.approx(0.0, abs=1e-10)
    assert abs(z[1]) < 1e-8


def test_newton_returns_the_converged_jacobian():
    system = System(lambda z: (circle(z), circle_jac(z)))
    for seed in ([2.0, 0.0], [0.3, 0.4], [1.0, 0.0]):
        p, J = newton_solve(system, np.array(seed))
        assert J.tobytes() == system.evaluate(p)[1].tobytes()


def test_newton_frozen_coordinates():
    # dF/dq = 3 q^2 - 3 x: the critical system is solved in q at the fixed x
    fam = family_from_text("q1^3 - 3*x1*q1", 1, 1)
    q, J = newton_solve(critical_system(fam, 4.0), np.array([1.0]))
    assert J.shape == (1, 1)
    assert q[0] == pytest.approx(2.0, abs=1e-9)
    (cp,) = solve_critical_set(fam, [4.0], [[1.0]])
    assert cp.x[0] == 4.0
    assert cp.q[0] == pytest.approx(2.0, abs=1e-9)


def test_newton_singular_jacobian():
    # residual 1 but identically-zero Jacobian row at the seed
    with pytest.raises(SingularJacobian):
        newton_solve(
            lambda z: np.array([z[0] ** 2 + z[1] ** 2 + 1.0]), np.array([0.0, 0.0])
        )


def test_newton_max_iterations(monkeypatch):
    monkeypatch.setattr(solve, "NEWTON_MAX_ITER", 8)
    with pytest.raises((MaxIterations, SingularJacobian)):
        newton_solve(lambda z: np.array([z[0] ** 2 + 1.0]), np.array([1.0]))


def test_project_to_set_drops_failed_seeds_and_takes_scalars():
    # z^2 = 2 from scalar seeds; the seed 0 has a singular Jacobian
    points = project_to_set(lambda z: z**2 - 2.0, [1.0, 0.0, -3.0, np.array([5.0])])
    assert len(points) == 3 and all(p.shape == (1,) for p in points)
    assert [float(p[0]) for p in points] == pytest.approx([np.sqrt(2.0), -np.sqrt(2.0), np.sqrt(2.0)], abs=1e-10)


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
    (p, J), (p_fd, J_fd) = newton_solve(fn, seed), newton_solve(as_system(fn), seed)
    assert p.tobytes() == p_fd.tobytes() and J.tobytes() == J_fd.tobytes()


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


def test_newton_batch_accounts_for_every_seed(monkeypatch):
    # one seed of each outcome on the cusp at x = (0, x2): a converging seed,
    # an exactly singular one (q = 0 with x2 != 0), one leaving the box and
    # one still running after NEWTON_MAX_ITER = 3 evaluations
    seeds = [[1.1807344], [0.0], [4.5], [-3.9]]
    X = [[-3.0, 0.5], [0.0, 1.0], [-3.0, 0.5], [-3.0, 0.5]]
    monkeypatch.setattr(solve, "NEWTON_MAX_ITER", 3)
    outcome = _assert_rows_agree(critical_system(CUSP, X), [critical_system(CUSP, x) for x in X], seeds)
    assert [OUTCOMES[o] for o in outcome] == ["converged", "singular", "left_box", "max_iterations"]
    counts = np.bincount(outcome, minlength=len(OUTCOMES))
    assert counts[CONVERGED] + counts[SINGULAR] + counts[MAX_ITERATIONS] + counts[LEFT_BOX] == len(seeds)


def test_solve_critical_set_reads_the_converged_pass(monkeypatch):
    # each kept point's residual, det and corank come from the Jacobian it
    # converged with: no field pass after the solve
    xs = [np.array([-3.0, 0.5]), np.array([1.0, 0.2]), np.array([-1.0, 0.0])]
    cps = solve_critical_set(CUSP, xs, CUSP.seeds)
    calls = [0]
    derivatives = fields.ScalarField.derivatives

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return derivatives(self, *args, **kwargs)

    monkeypatch.setattr(fields.ScalarField, "derivatives", counted)
    again = solve_critical_set(CUSP, xs, CUSP.seeds)
    assert calls[0] <= solve.NEWTON_MAX_ITER
    assert [len([c for c in cps if tuple(c.x) == tuple(x)]) for x in xs] == [3, 1, 3]
    for a, b in zip(cps, again):
        assert np.array_equal(a.q, b.q) and np.array_equal(a.x, b.x)
        _, g, H, _ = CUSP.field.derivatives(CUSP.point(a.q, a.x))
        assert a.residual == pytest.approx(abs(g[0]), abs=1e-14)
        assert a.hess_q_det == pytest.approx(H[0, 0], rel=1e-13)
        assert a.corank == 0
