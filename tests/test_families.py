import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefronts import families
from wavefronts.errors import ChartFailure, FamilyFileError, NotOnSigmaStar
from wavefronts.linalg import null_space, numerical_rank

RNG = np.random.default_rng(7)


@pytest.fixture(scope="module")
def cusp():
    return families.catalog()["cusp"]


@pytest.fixture(scope="module")
def fold():
    return families.catalog()["fold"]


def test_family_from_text_evaluates(cusp):
    assert cusp.value([1.0], [2.0, 3.0]) == pytest.approx(1 + 2 + 3)
    assert cusp.grad_q([1.0], [2.0, 3.0]) == pytest.approx([4 + 4 + 3])
    assert cusp.grad_x([1.0], [2.0, 3.0]) == pytest.approx([1.0, 1.0])


def test_morse_family_check_passes_generically(fold, cusp):
    for fam in (fold, cusp):
        for _ in range(30):
            q = RNG.uniform(-2, 2, 1)
            x = RNG.uniform(-4, 4, 2)
            assert families.morse_family_check(fam, q, x)["pass"]


def test_morse_hypersurface_check_fails_at_cusp_degenerate_point(cusp):
    # F, dF/dq and dF/dx all vanish at q=0 on the x2=0 slice
    res = families.morse_hypersurface_check(cusp, [0.0], [1.0, 0.0])
    assert not res["pass"]
    assert res["rank"] == 1


def test_shifted_family_restores_hypersurface_rank(cusp):
    # away from the degenerate stratum, F - t0 has full Delta* rank on Sigma*
    q, x = np.array([0.7]), np.array([1.0, -2.296])
    # put the point on the critical set first
    from wavefronts.fields import fd_jacobian
    from wavefronts.solve import System, newton_solve

    def grad_q(z):
        return cusp.grad_q(z[:1], np.array([1.0, z[1]]))

    z, _, _ = newton_solve(System(lambda z: (grad_q(z), fd_jacobian(grad_q, z))), np.array([0.7, -2.3]))
    q = z[:1]
    x = np.array([1.0, z[1]])
    t0 = cusp.value(q, x)
    sh = families.shifted_family(cusp, t0)
    assert sh.value(q, x) == pytest.approx(0.0, abs=1e-9)
    assert families.morse_hypersurface_check(sh, q, x)["pass"]


def test_nondegeneracy_requires_sigma_star(cusp):
    gl = families.GraphLikeFamily(base=cusp)
    with pytest.raises(NotOnSigmaStar):
        families.nondegeneracy_check(gl, [0.5], [1.0, 1.0], t=99.0)


def test_solve_critical_set_cusp_counts(cusp):
    # inside the cusp region (4 x1^3 + 27 x2^2 < 0 scaled) there are 3 sheets
    inside = families.solve_critical_set(cusp, [np.array([-3.0, 0.5])], [[-1.5], [0.0], [1.5]])
    assert len(inside) == 3
    outside = families.solve_critical_set(cusp, [np.array([3.0, 0.5])], [[-1.5], [0.0], [1.5]])
    assert len(outside) == 1
    for cp in inside + outside:
        assert cp.residual < 1e-9


def test_critical_point_corank_on_caustic(cusp):
    # x on the fold line of the cusp caustic: 8 x1^3 + 27 x2^2 = 0
    x1 = -1.5
    x2 = np.sqrt(-8 * x1**3 / 27)
    cps = families.solve_critical_set(cusp, [np.array([x1, x2])], [[-1.0], [0.0], [1.0]])
    # the double root splits at sqrt(newton_tol) scale, so the 1 x 1 fiber
    # Hessian is near zero only to that accuracy
    assert any(abs(cusp.hess_qq(cp.q, cp.x)[0, 0]) < 1e-3 for cp in cps)


def test_lagrangian_and_unfolding_maps(cusp):
    cps = families.solve_critical_set(cusp, [np.array([-3.0, 0.5])], [[1.5]])
    cp = cps[0]
    lag = families.lagrangian_map(cusp, cp)
    assert lag.p == pytest.approx([cp.q[0] ** 2, cp.q[0]])
    gl = families.GraphLikeFamily(base=cusp)
    s = families.legendrian_unfolding_map(gl, cp)
    assert s.t == pytest.approx(cusp.value(cp.q, cp.x))
    assert s.p == pytest.approx(lag.p)


def test_rank_diagnostics_immersion(cusp):
    gl = families.GraphLikeFamily(base=cusp)
    cps = families.solve_critical_set(cusp, [np.array([-3.0, 0.5])], [[1.5], [0.0], [-1.5]])
    for cp in cps:
        d = families.rank_diagnostics(gl, cp)
        assert d["immersion_sigma_min"] > 1e-6
        # space-singular iff front-singular
        assert (d["space_proj_rank"] < cusp.n) == (d["front_proj_rank"] < cusp.n)


def _four_svd_rank_diagnostics(gl, cp):
    """``rank_diagnostics`` as one SVD per answer: the null space, the two
    ranks by ``numerical_rank`` and the cotangent projection's singular
    values, from the derivatives of the concatenated point."""
    fam = gl.base
    k = fam.k
    _, gradF, H = fam.field.derivatives(np.concatenate([cp.q, cp.x]))
    V = null_space(H[:k])
    d_space = V[k:]
    sv = np.linalg.svd(np.vstack([d_space, H[k:] @ V]), compute_uv=False)
    return {
        "space_proj_rank": numerical_rank(d_space),
        "front_proj_rank": numerical_rank(np.vstack([d_space, gradF @ V])),
        "immersion_sigma_min": float(sv[-1]),
    }


@pytest.mark.parametrize("name", ["cusp", "fold"])
@settings(max_examples=60, deadline=None)
@given(x=st.tuples(st.floats(-4.8, 4.8), st.floats(-4.8, 4.8)))
def test_rank_diagnostics_is_the_four_svd_reference(name, x):
    fam = families.catalog()[name]
    gl = families.GraphLikeFamily(base=fam)
    for cp in families.solve_critical_set(fam, [x], fam.seeds):
        got, want = families.rank_diagnostics(gl, cp), _four_svd_rank_diagnostics(gl, cp)
        assert got.keys() == want.keys()
        assert (got["space_proj_rank"], got["front_proj_rank"]) == (want["space_proj_rank"], want["front_proj_rank"])
        assert type(got["space_proj_rank"]) is int and type(got["immersion_sigma_min"]) is float
        assert math.isclose(got["immersion_sigma_min"], want["immersion_sigma_min"], rel_tol=1e-12)


def test_rank_diagnostics_refuses_a_critical_set_that_is_not_a_graph():
    # dF/dq = 3 q^2 + x1^2 + x2^2 has a zero gradient at the origin, where
    # the critical set's tangent space is all of R^3
    fam = families.family_from_text("q1^3 + (x1^2 + x2^2)*q1", 1, 2, box=((-1, 1),) * 3)
    cp = families.CriticalPoint(q=np.zeros(1), x=np.zeros(2), residual=0.0, corank=1)
    with pytest.raises(ChartFailure, match="tangent dim 3"):
        families.rank_diagnostics(families.GraphLikeFamily(base=fam), cp)


@pytest.mark.parametrize(
    "k, n, q, x",
    [
        (1, 2, 0.5, [1.0, -2.0]),
        (1, 2, [0.5], np.array([1.0, -2.0])),
        (1, 2, np.float64(-0.0), (3, 4)),
        (1, 1, [2], 7),
        (2, 1, np.array([1.5, -2.5]), 0.25),
    ],
)
def test_point_is_the_concatenation_of_q_and_x(k, n, q, x):
    fam = families.GeneratingFamily(k=k, n=n, field=families.catalog()["cusp"].field)
    p = fam.point(q, x)
    want = np.concatenate([np.atleast_1d(np.asarray(q, float)), np.atleast_1d(np.asarray(x, float))])
    assert p.dtype == want.dtype and p.shape == want.shape
    assert np.array_equal(p, want) and np.array_equal(np.signbit(p), np.signbit(want))


def test_family_file_round_trip(tmp_path):
    p = tmp_path / "fam.txt"
    p.write_text(
        "# a comment\n"
        "k = 1\n"
        "n = 2\n"
        "expr = q1^2 + x1*q1 + x2\n"
        "domain = [[-4, 4], [-6, 6], [-6, 6]]\n"
        "seeds = [[-1.0], [1.0]]\n"
    )
    fam = families.family_from_file(p)
    assert fam.k == 1 and fam.n == 2
    assert fam.value([1.0], [1.0, 1.0]) == pytest.approx(3.0)
    assert len(fam.seeds) == 2


def test_family_file_missing_key(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("k = 1\nn = 2\n")
    with pytest.raises(FamilyFileError):
        families.family_from_file(p)


def test_family_file_bad_line(tmp_path):
    p = tmp_path / "bad2.txt"
    p.write_text("k : 1\n")
    with pytest.raises(FamilyFileError):
        families.family_from_file(p)


@pytest.mark.parametrize(
    "seeds, message",
    [
        ("[[0.5, 1.0], [1.0, 2.0]]", r"seed 0 .* length 2, expected k = 1"),
        ("[[0.5], [1.0, 2.0]]", r"seed 1 .* length 2, expected k = 1"),
        ("[[0.5], ['a']]", r"seed 1 .* not a vector of numbers"),
        ("5", "seeds must be a list"),
    ],
)
def test_family_file_seed_length_must_be_k(tmp_path, seeds, message):
    p = tmp_path / "badseeds.txt"
    p.write_text(f"k = 1\nn = 2\nexpr = q1^4 + x1*q1^2 + x2*q1\nseeds = {seeds}\n")
    with pytest.raises(FamilyFileError, match=message):
        families.family_from_file(p)
    with pytest.raises(FamilyFileError, match="seed"):
        families.family_from_text("q1^4 + x1*q1^2 + x2*q1", 1, 2, seeds=[[0.0], [1.0, 2.0]])
