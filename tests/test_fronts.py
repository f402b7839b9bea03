from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefronts import families, fronts, solve
from wavefronts.cli import DEFAULT_SEED_DENSITY, phase_seeds, run, x_grid_and_q_seeds
from wavefronts.errors import RankDeficientSeed


@pytest.fixture(scope="module")
def cusp():
    return families.catalog()["cusp"]


@pytest.fixture(scope="module")
def cusp_gl(cusp):
    return families.GraphLikeFamily(base=cusp)


@pytest.fixture(scope="module")
def seeds(cusp):
    return phase_seeds(cusp, 4)


def test_k2_caustic_is_the_cusp_caustic():
    # F = q1^4 + x1 q1^2 + x2 q1 + q2^2 adds a Morse square to the cusp, so its
    # caustic, traced through det d2F/dq2 and its adjugate row, is the cusp's
    path = Path(__file__).resolve().parents[1] / "tools" / "caustic_k2.fam"
    fam = families.family_from_file(path)
    cloud = fronts.caustic(fam, phase_seeds(fam, DEFAULT_SEED_DENSITY))
    x1, x2 = cloud.x.T
    assert len(cloud.x) == 808 and len(cloud.chains) == 1
    assert np.abs(8 * x1**3 + 27 * x2**2).max() <= 1e-8
    assert np.abs(cloud.q[:, 1]).max() <= 1e-12
    assert x1.min() < -4.9 and np.abs(x2).max() > 5.99  # out to the x2 = +-6 edges


def test_momentary_front_points_satisfy_equations(cusp, cusp_gl, seeds, monkeypatch):
    monkeypatch.setattr(fronts, "TRACE_MAX_POINTS", 500)
    curves = fronts.momentary_front(cusp_gl, 1.0, seeds)
    assert curves
    for fc in curves:
        for q, x in zip(fc.q, fc.x):
            assert abs(cusp.value(q, x) - 1.0) < 1e-8
            assert np.linalg.norm(cusp.grad_q(q, x), np.inf) < 1e-8


def test_front_slice_keeps_chains_that_meet_a_rank_drop(cusp, cusp_gl, monkeypatch):
    # the t = 0 slice of the cusp's big front from the CLI's density-8 seeds:
    # a rank drop of the front system's Jacobian in mid-march ends that
    # direction of the march and keeps the points traced so far
    marched, thrown = [0], []
    tangent, trace = solve._tangent, fronts.continue_curve

    def counted_tangent(J, last, prev):
        marched[0] += prev is not None
        return tangent(J, last, prev)

    def watched_trace(*args, **kwargs):
        marched[0] = 0
        try:
            return trace(*args, **kwargs)
        except RankDeficientSeed:
            thrown.append(marched[0])
            raise

    monkeypatch.setattr(solve, "_tangent", counted_tangent)
    monkeypatch.setattr(fronts, "continue_curve", watched_trace)
    curves = fronts.momentary_front(cusp_gl, 0.0, phase_seeds(cusp, 8))
    assert [m for m in thrown if m > 0] == []
    assert curves
    for fc in curves:
        assert max(abs(cusp.value(q, x)) for q, x in zip(fc.q, fc.x)) < 1e-10


def test_big_front_stacks_slices(cusp_gl, seeds, monkeypatch):
    monkeypatch.setattr(fronts, "TRACE_MAX_POINTS", 300)
    curves = fronts.big_front(cusp_gl, [0.5, 1.0], seeds)
    ts = {fc.t for fc in curves}
    assert ts == {0.5, 1.0}


def test_caustic_matches_cusp_oracle(cusp, seeds):
    cloud = fronts.caustic(cusp, seeds, max_points=800)
    assert len(cloud.x) >= 200
    x = cloud.x
    res = np.abs(8 * x[:, 0] ** 3 + 27 * x[:, 1] ** 2) / np.maximum(1.0, np.abs(x[:, 0]) ** 3)
    assert res.max() < 1e-6


def test_cusps_of_fronts_lie_on_caustic(cusp, cusp_gl, seeds, monkeypatch):
    cloud = fronts.caustic(cusp, seeds, max_points=800)
    monkeypatch.setattr(fronts, "TRACE_STEP", 0.01)
    monkeypatch.setattr(fronts, "TRACE_MAX_POINTS", 1500)
    monkeypatch.setattr(fronts, "CUSP_ANGLE", np.pi / 2)
    hits = 0
    for fc in fronts.momentary_front(cusp_gl, 0.3, seeds):
        for i in fronts.detect_cusps(fc.x):
            hits += 1
            assert fronts.polyline_distances(fc.x[i : i + 1], cloud.chains)[0] < 2e-2
    assert hits >= 2


def test_maxwell_double_well(cusp):
    # along x2 = 0, x1 < 0 the two outer wells have equal depth by symmetry
    xg = [np.array([x1, 0.0]) for x1 in np.linspace(-3.5, -1.0, 6)]
    pts = fronts.maxwell_set(cusp, xg, [[-1.5], [0.0], [1.5]])
    assert len(pts) >= 5
    for p in pts:
        assert abs(p.x[1]) < 1e-8  # the maxwell set is the negative x1-axis
        assert p.x[0] < 0
        assert abs(cusp.value(p.q, p.x) - cusp.value(p.q2, p.x)) < 1e-8
        assert np.linalg.norm(p.q - p.q2) > 1e-3


def test_maxwell_absent_for_fold():
    fold = families.catalog()["fold"]
    xg = [np.array([x1, x2]) for x1 in (-2.0, 0.0, 2.0) for x2 in (-2.0, 0.0, 2.0)]
    assert fronts.maxwell_set(fold, xg, [[-1.0], [0.0], [1.0]]) == []


def _assert_covers_half_line(x, c):
    """Rows ``x = (x1, x2)`` lie on the Maxwell stratum ``{x2 = c, x1 < 0}``
    of a shifted cusp and cover ``x1`` in [-5, -0.1] with no gap above two
    trace steps."""
    assert len(x) and np.all(np.abs(x[:, 1] - c) < 1e-8) and np.all(x[:, 0] < 0)
    x1 = np.sort(x[:, 0])
    assert x1[0] <= -5 and x1[-1] >= -0.1
    assert np.diff(x1).max() <= 2 * fronts.TRACE_STEP


def test_maxwell_cli_defaults_trace_the_cusp_stratum(tmp_path):
    # the default 8 x 8 grid has no row on x2 = 0: the stratum is traced from
    # pairs of critical points whose values differ
    csv = tmp_path / "maxwell.csv"
    assert run(["maxwell", "--family", "cusp", "--csv", str(csv)]) == 0
    x = np.loadtxt(csv, delimiter=",", skiprows=1, usecols=(1, 2), ndmin=2)
    _assert_covers_half_line(x, 0.0)


@pytest.mark.parametrize("shift, c", [("- 37/100*q1", 0.37), ("+ 13/10*q1", -1.3)])
def test_maxwell_traces_shifted_cusp_strata(cusp, shift, c):
    # q1^4 + x1*q1^2 + (x2 - c)*q1: the stratum is the half-line x2 = c, x1 < 0
    fam = families.family_from_text(
        f"q1^4 + x1*q1^2 + x2*q1 {shift}", 1, 2, box=cusp.field.box, seeds=cusp.seeds
    )
    pts = fronts.maxwell_set(fam, *x_grid_and_q_seeds(fam, DEFAULT_SEED_DENSITY))
    _assert_covers_half_line(np.array([p.x for p in pts]), c)
    for p in pts:
        assert abs(fam.value(p.q, p.x) - fam.value(p.q2, p.x)) < 1e-8
        assert p.q[0] < p.q2[0]  # no mirrored copy (q', q, x) is kept


def _count_traced(monkeypatch):
    """A list that gets the point count of every chain ``fronts`` traces."""
    traced, trace = [], fronts.continue_curve

    def counted(*args, **kwargs):
        curve = trace(*args, **kwargs)
        traced.append(len(curve.points))
        return curve

    monkeypatch.setattr(fronts, "continue_curve", counted)
    return traced


def test_maxwell_cli_defaults_trace_no_mirror_image(monkeypatch, capsys):
    traced = _count_traced(monkeypatch)
    assert run(["maxwell", "--family", "cusp"]) == 0
    assert "maxwell set: 337 points" in capsys.readouterr().out
    assert sum(traced) == 337


def test_maxwell_chain_ends_at_a_merge_it_steps_over(cusp, monkeypatch):
    # from x = (-2.5, 0) the pairing chain through w = (q, q', x) crosses the
    # merge q = q' at x = 0 with no point within 1e-3 of it, so no rank drop
    # stops it there
    s = np.sqrt(1.25)
    plain = solve.continue_curve(
        fronts.pairing_system(cusp), [-s, s, -2.5, 0.0], fronts.TRACE_STEP, fronts.TRACE_MAX_POINTS
    )
    split = plain.points[:, 1] - plain.points[:, 0]
    assert np.abs(split).min() > 1e-3 and (split < 0).any()
    traced = _count_traced(monkeypatch)
    pts = fronts.maxwell_set(cusp, [np.array([-2.5, 0.0])], [[-1.5], [0.0], [1.5]])
    assert sum(traced) == len(pts) > 300
    assert all(p.q[0] < p.q2[0] for p in pts)
    assert max(p.x[0] for p in pts) > -fronts.TRACE_STEP**2  # x1 = -(q' - q)^2 / 2 at the merge end


def test_maxwell_double_well_off_n_2():
    # n = 1: the pairing equations have isolated solutions, here x1 = 0, q = -1, q' = 1
    fam = families.family_from_text("q1^4 - 2*q1^2 + x1*q1", 1, 1, box=((-3, 3), (-3, 3)))
    pts = fronts.maxwell_set(fam, *x_grid_and_q_seeds(fam, DEFAULT_SEED_DENSITY))
    assert len(pts) == 1
    assert abs(pts[0].x[0]) < 1e-8
    assert pts[0].q == pytest.approx([-1.0]) and pts[0].q2 == pytest.approx([1.0])


def test_maxwell_cli_defaults_fold_has_none(capsys):
    assert run(["maxwell", "--family", "fold"]) == 0
    assert "maxwell set: 0 points" in capsys.readouterr().out


def test_delta_empty_for_graph_like(cusp_gl, seeds, monkeypatch):
    monkeypatch.setattr(fronts, "TRACE_MAX_POINTS", 400)
    de = fronts.delta_set(cusp_gl, [-1.0, 0.5], seeds)
    assert len(de) == 0


def test_discriminant_decomposition(cusp, cusp_gl, seeds, monkeypatch):
    monkeypatch.setattr(fronts, "TRACE_MAX_POINTS", 400)
    xg = [np.array([x1, 0.0]) for x1 in np.linspace(-3.5, -1.5, 4)]
    dec = fronts.discriminant(cusp_gl, seeds, xg, [[-1.5], [0.0], [1.5]], t_values=[0.5])
    assert len(dec.caustic.x) > 50
    assert len(dec.maxwell) >= 3
    assert len(dec.delta) == 0


def test_front_branches_cross_on_maxwell_point(cusp, cusp_gl, seeds, monkeypatch):
    # the two wells have equal value -x1^2/4 on the negative x1-axis, so the
    # t = -1 front branches must both pass through (-2, 0)
    monkeypatch.setattr(fronts, "TRACE_STEP", 0.01)
    monkeypatch.setattr(fronts, "TRACE_MAX_POINTS", 1500)
    curves = fronts.momentary_front(cusp_gl, -1.0, seeds)
    assert len(curves) >= 2
    target = np.array([[-2.0, 0.0]])
    near = [fronts.polyline_distances(target, fc.x[:, None])[0] for fc in curves]
    assert sorted(near)[1] < 1e-2  # at least two branches hit the crossing


@pytest.mark.parametrize("tracer", ["momentary_front", "big_front", "delta_set", "discriminant"])
def test_tracers_read_the_trace_cap_when_they_run(cusp_gl, seeds, monkeypatch, tracer):
    # the points of every chain continue_curve returns, at the default cap and
    # at a cap of 20 set after import
    traced = _count_traced(monkeypatch)
    xg = [np.array([x1, 0.0]) for x1 in np.linspace(-3.5, -1.5, 4)]
    run_tracer = {
        "momentary_front": lambda: fronts.momentary_front(cusp_gl, 0.5, seeds),
        "big_front": lambda: fronts.big_front(cusp_gl, [0.5], seeds),
        "delta_set": lambda: fronts.delta_set(cusp_gl, [0.5], seeds),
        "discriminant": lambda: fronts.discriminant(cusp_gl, seeds, xg, [[-1.5], [0.0], [1.5]], [0.5]),
    }[tracer]

    def points(cap):
        monkeypatch.setattr(fronts, "TRACE_MAX_POINTS", cap)
        traced.clear()
        run_tracer()
        return sum(traced)

    full = points(fronts.TRACE_MAX_POINTS)
    assert points(20) < full


def test_polyline_self_intersections_figure_x():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    hits = fronts.polyline_self_intersections(pts)
    assert len(hits) == 1
    assert hits[0] == pytest.approx([0.5, 0.5])


def test_detect_cusps_right_angle_polyline(monkeypatch):
    monkeypatch.setattr(fronts, "CUSP_ANGLE", np.pi / 4)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    assert fronts.detect_cusps(pts) == [1]
    assert fronts.detect_cusps(np.array([[0, 0], [1, 0], [2, 0]])) == []


def test_hausdorff_and_polyline_distance():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 1.0], [1.0, 1.0]])
    # the Hausdorff distance of two clouds, each a list of one-point chains
    hausdorff = max(fronts.polyline_distances(a, b[:, None]).max(), fronts.polyline_distances(b, a[:, None]).max())
    assert hausdorff == pytest.approx(1.0)
    d = fronts.polyline_distances(np.array([[0.5, 0.3]]), [a])
    assert d[0] == pytest.approx(0.3)


def _polyline_distances_brute(points, chains):
    """Reference: every point against every segment of every chain."""
    best = np.full(len(points), np.inf)
    for chain in chains:
        if len(chain) == 0:
            continue
        if len(chain) == 1:
            best = np.minimum(best, np.linalg.norm(points - chain[0], axis=1))
            continue
        a, seg = chain[:-1], chain[1:] - chain[:-1]
        seg_len2 = np.maximum(np.sum(seg**2, axis=1), 1e-300)
        diff = points[:, None, :] - a[None, :, :]
        t = np.clip(np.einsum("nsd,sd->ns", diff, seg) / seg_len2, 0.0, 1.0)
        proj = a[None, :, :] + t[:, :, None] * seg[None, :, :]
        best = np.minimum(best, np.linalg.norm(points[:, None, :] - proj, axis=2).min(axis=1))
    return best


def _self_intersections_double_loop(points):
    """Reference: the double loop over segment pairs."""
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


# vertices drawn from a small pool repeat, so chains get zero-length segments
_coord = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
_pool = st.lists(st.tuples(_coord, _coord), min_size=1, max_size=6)


@st.composite
def _chains_and_points(draw):
    pool = np.array(draw(_pool))
    chains = [
        pool[draw(st.lists(st.integers(0, len(pool) - 1), max_size=12))].reshape(-1, 2)
        for _ in range(draw(st.integers(0, 4)))
    ]
    scale = draw(st.sampled_from([1.0, 1e-3, 50.0, 1e4]))  # 1e4: points many cells away
    points = np.array(draw(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=20))) * scale
    return points, chains


@settings(max_examples=150, deadline=None)
@given(_chains_and_points())
def test_polyline_distances_match_brute_force(case):
    points, chains = case
    got = fronts.polyline_distances(points, chains)
    ref = _polyline_distances_brute(points, chains)
    assert got.shape == ref.shape
    assert np.array_equal(np.isinf(got), np.isinf(ref))
    fin = np.isfinite(ref)
    assert np.all(np.abs(got[fin] - ref[fin]) <= 1e-12 * np.maximum(1.0, ref[fin]))
    # a cloud is a set of one-point chains
    cloud = np.vstack([c for c in chains if len(c)] or [np.zeros((0, 2))])
    ref = _polyline_distances_brute(points, [cloud[i : i + 1] for i in range(len(cloud))])
    assert np.array_equal(fronts.polyline_distances(points, cloud[:, None]), ref)


def test_polyline_distances_dense_chain_off_and_on_the_curve():
    rng = np.random.default_rng(7)
    u = np.linspace(0.0, 2 * np.pi, 2001)
    chain = np.column_stack([2 * np.cos(u) ** 3, np.sin(u) ** 3])
    points = np.vstack([chain[::7] + 1e-9, rng.uniform(-3, 3, (300, 2)), rng.uniform(-1e5, 1e5, (20, 2))])
    chains = [chain, chain[:3], chain[100:101]]
    got, ref = fronts.polyline_distances(points, chains), _polyline_distances_brute(points, chains)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, ref))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=30),
    st.booleans(),
    st.floats(0.0, 1.0),
)
def test_self_intersections_match_the_double_loop(verts, close, jitter):
    # integer vertices give collinear, touching and repeated segments; the
    # jitter moves one vertex off the lattice
    pts = np.array(verts, dtype=float).reshape(-1, 2)
    if len(pts):
        pts[len(pts) // 2] += jitter
        if close:
            pts = np.vstack([pts, pts[:1]])
    got = fronts.polyline_self_intersections(pts)
    ref = _self_intersections_double_loop(pts)
    assert len(got) == len(ref)
    assert all(np.array_equal(g, r) for g, r in zip(got, ref))
