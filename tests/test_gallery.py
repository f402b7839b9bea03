import numpy as np
import pytest

from wavefronts import expr as ex
from wavefronts import fronts, gallery
from wavefronts.errors import UnknownGerm

U1 = np.linspace(-1.4, 1.4, 141)


def _xy(curves):
    """The front-map points of all chains of one front, stacked."""
    return np.vstack([fc.x for fc in curves])


def test_unknown_germ():
    with pytest.raises(UnknownGerm):
        gallery.gallery_family(7)


@pytest.mark.parametrize("germ", [1, 2, 3])
def test_modulus_on_a_germ_that_takes_none_is_refused(germ):
    with pytest.raises(ValueError, match="no functional modulus"):
        gallery.gallery_family(germ, ex.parse_expr("v1", ("v1", "v2")))


def test_germ_formulas_exact():
    d2 = gallery.gallery_family(2)
    assert str(d2.mu) == "2/3*u1^3 + u2"
    assert [str(c) for c in d2.g] == ["u1^2", "u2"]
    d5 = gallery.gallery_family(5)
    assert str(d5.mu) == "u2"
    assert [str(c) for c in d5.g] == ["u1", "u2^3 + u1*u2"]


def test_kinds():
    kinds = {i: gallery.gallery_family(i).kind for i in range(1, 7)}
    assert kinds == {
        1: "trivial",
        2: "regular",
        3: "clairaut",
        4: "regular",
        5: "clairaut",
        6: "mixed",
    }


def test_front_preimages_on_level_set():
    d4 = gallery.gallery_family(4)
    for fc in gallery.gallery_front(d4, 0.2, U1):
        for u in fc.q:
            assert abs(d4.mu_fn(u) - 0.2) < 1e-10


def test_trivial_germ_front_is_horizontal_line():
    d1 = gallery.gallery_family(1)
    curves = gallery.gallery_front(d1, 0.7, U1)
    assert len(curves) == 1
    xy = curves[0].x
    assert np.allclose(xy[:, 1], 0.7, atol=1e-12)
    step = U1[1] - U1[0]
    assert xy[:, 0].min() <= U1[0] + step and xy[:, 0].max() >= U1[-1] - step


def test_germ6_front_folding_back_in_u1_is_two_chains():
    # the level set is a hyperbola; each branch turns back in u1 once
    d6 = gallery.gallery_family(6)
    assert len(gallery.gallery_front(d6, 0.3, np.linspace(-1.6, 1.6, 161))) == 2


@pytest.mark.parametrize("germ", range(1, 7))
@pytest.mark.parametrize("t", [-0.3, 0.0, 0.2])
def test_front_chains_lie_on_the_level_set_in_the_chart(germ, t):
    # the chart box is the level system's domain: every level curve here runs
    # out of it, so each chain ends within one step of its edge, as a
    # family's chain ends at its field's box
    d = gallery.gallery_family(germ)
    curves = gallery.gallery_front(d, t, U1)
    step = U1[1] - U1[0]
    lo, hi = np.array([U1[0], -3.0]), np.array([U1[-1], 3.0])
    assert curves
    for fc in curves:
        u = fc.q
        assert fc.t == t and not fc.closed
        assert np.abs(d.mu_fn(u.T) - t).max() < 1e-10
        assert np.linalg.norm(np.diff(u, axis=0), axis=1).max() <= 1.5 * step
        assert np.all((lo <= u) & (u <= hi))
        for end in u[[0, -1]]:
            assert min(np.min(end - lo), np.min(hi - end)) <= step
        assert np.allclose(fc.x, d.front_map(u.T).T)


def test_germ2_front_is_semicubical():
    d2 = gallery.gallery_family(2)
    for t in (0.0, 0.4):
        xy = _xy(gallery.gallery_front(d2, t, U1))
        assert np.abs((xy[:, 1] - t) ** 2 - (4 / 9) * xy[:, 0] ** 3).max() < 1e-10


def test_germ5_front_is_straight_line():
    d5 = gallery.gallery_family(5)
    t = 0.3
    xy = _xy(gallery.gallery_front(d5, t, U1))
    assert np.abs(xy[:, 1] - (t**3 + xy[:, 0] * t)).max() < 1e-10


def test_germ5_fronts_have_no_cusps(monkeypatch):
    monkeypatch.setattr(fronts, "CUSP_ANGLE", np.pi / 2)
    d5 = gallery.gallery_family(5)
    for t in np.linspace(-0.8, 0.8, 9):
        for fc in gallery.gallery_front(d5, t, U1):
            assert fronts.detect_cusps(fc.x) == []


def test_germ4_cusp_birth_across_zero(monkeypatch):
    monkeypatch.setattr(fronts, "CUSP_ANGLE", np.pi / 2)
    d4 = gallery.gallery_family(4)

    def cusp_count(t):
        return sum(
            len(fronts.detect_cusps(fc.x))
            for fc in gallery.gallery_front(d4, t, np.linspace(-1.0, 1.0, 401))
        )

    assert cusp_count(0.1) == 0
    assert cusp_count(-0.1) == 2


# Closed-form oracles of the discriminant components, per germ: the component
# the det Dg scan fills (the other is empty), the residual of its curve
# equation at an image point (relative for the semicubics) with its bound, and
# its branches, each s -> (chart preimage u, image (x, y)).
ORACLES = {
    2: ("caustic", lambda x, y: np.abs(x), 1e-12, [lambda s: ((0 * s, s), (0 * s, s))]),
    3: ("delta", lambda x, y: np.abs(y), 1e-12, [lambda s: ((s, 0 * s), (s, 0 * s))]),
    4: (
        "caustic",
        lambda x, y: np.abs(27 * x**2 + 4 * y**3) / np.maximum(1.0, np.abs(y) ** 3),
        1e-6,
        [lambda s: ((s, -3 * s**2), (-2 * s**3, -3 * s**2))],
    ),
    5: (
        "delta",
        lambda x, y: np.abs(4 * x**3 + 27 * y**2) / np.maximum(1.0, np.abs(x) ** 3),
        1e-6,
        [lambda s: ((-3 * s**2, s), (-3 * s**2, -2 * s**3))],
    ),
    6: (
        "delta",
        lambda x, y: np.minimum(np.abs(y), np.abs(y - 4 * x**3 / 27)),
        1e-12,
        [lambda s: ((s, 0 * s), (s, 0 * s)), lambda s: ((s, -2 * s / 3), (s, 4 * s**3 / 27))],
    ),
}


def _check_oracle(germ, alpha=None):
    """Membership and coverage both ways: every computed point of the
    germ's component lies on its closed form, and every closed-form point
    whose chart preimage lies in ``CHART_GRID``'s box is within two grid
    steps of a computed point.  Returns the discriminant."""
    name, residual, bound, branches = ORACLES[germ]
    disc = gallery.gallery_discriminant(gallery.gallery_family(germ, alpha), [])
    got = getattr(disc, name)
    assert len(got) > 50
    assert residual(got[:, 0], got[:, 1]).max() < bound
    grid = gallery.CHART_GRID
    for branch in branches:
        u, xy = branch(np.linspace(grid[0], grid[-1], 601))
        inside = np.all((grid[0] <= np.array(u)) & (np.array(u) <= grid[-1]), axis=0)
        oracle = np.column_stack(xy)[inside]
        gap = np.linalg.norm(oracle[:, None] - got[None], axis=2).min(axis=1)
        assert gap.max() <= 2 * (grid[1] - grid[0])
    return disc


def test_germ2_caustic_is_y_axis():
    # the cusps of the semicubical fronts (s^2, t - 2 s^3 / 3) at s = 0
    assert len(_check_oracle(2).delta) == 0


def test_germ4_caustic_semicubical():
    assert len(_check_oracle(4).delta) == 0


def test_germ5_envelope_semicubical():
    assert len(_check_oracle(5).caustic) == 0


def test_germ4_maxwell_on_negative_y_axis():
    d4 = gallery.gallery_family(4)
    u1 = np.linspace(-1.6, 1.6, 81)
    traced = [fc for t in np.linspace(-0.5, -0.05, 10) for fc in gallery.gallery_front(d4, t, u1)]
    mx = gallery.gallery_discriminant(d4, traced).maxwell
    assert len(mx) >= 5
    assert np.abs(mx[:, 0]).max() < 1e-6
    assert np.all(mx[:, 1] < 0)


def test_germ6_delta_branches():
    # the delta is the two branches y = 0 and y = 4 x^3 / 27; where they
    # cross, at the origin, dmu vanishes on ker Dg, the one caustic point
    ca = _check_oracle(6).caustic
    assert len(ca) <= 1 and np.abs(ca).max(initial=0.0) < 1e-12


def test_germ3_envelope_is_x_axis():
    assert len(_check_oracle(3).caustic) == 0


def test_germ1_components_empty():
    d1 = gallery.gallery_family(1)
    disc = gallery.gallery_discriminant(d1, gallery.gallery_front(d1, 0.0, U1))
    assert len(disc.caustic) == 0
    assert len(disc.maxwell) == 0
    assert len(disc.delta) == 0


def test_loglog_exponent_three_halves():
    d4 = gallery.gallery_family(4)
    ca = gallery.gallery_discriminant(d4, []).caustic
    keep = (np.abs(ca[:, 0]) > 1e-4) & (np.abs(ca[:, 1]) > 1e-4)
    lx = np.log(np.abs(ca[keep, 0]))
    ly = np.log(np.abs(ca[keep, 1]))
    slope = np.polyfit(ly, lx, 1)[0]  # |x| ~ |y|^{3/2}
    assert slope == pytest.approx(1.5, abs=0.02)


def test_functional_modulus_keeps_discriminant_shape():
    alpha = ex.parse_expr("1/10*v1 + 1/20*v2^2", ("v1", "v2"))
    d4 = gallery.gallery_family(4, alpha)
    # alpha adds d(alpha o g), a combination of the rows of Dg, to dmu: the
    # caustic and the delta are those without it
    for germ in (4, 5, 6):
        plain = gallery.gallery_discriminant(gallery.gallery_family(germ), [])
        moved = _check_oracle(germ, alpha)
        assert np.array_equal(plain.caustic, moved.caustic) and np.array_equal(plain.delta, moved.delta)
    # the fronts do move
    base = _xy(gallery.gallery_front(gallery.gallery_family(4), 0.2, U1))
    moved = _xy(gallery.gallery_front(d4, 0.2, U1))
    gap = max(fronts.polyline_distances(base, moved[:, None]).max(), fronts.polyline_distances(moved, base[:, None]).max())
    assert gap > 1e-3  # the Hausdorff distance of the two point clouds
