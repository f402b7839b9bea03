"""Exact Jacobians of the generating-family systems against central differences."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefronts import families, fields, fronts, gallery, geometry
from wavefronts.errors import DomainError, NonFiniteValue
from wavefronts.fields import ScalarField, fd_jacobian, jet_index
from wavefronts.linalg import adjugate
from wavefronts.solve import System

# a k = 2 family: its caustic row goes through the adjugate of a 2 x 2 H_qq
K2_TEXT = "q1^3 + q2^3 + x1*q1*q2 + x2*(q1 + q2) + q1^2*q2"
K2_BOX = ((-3.0, 3.0), (-3.0, 3.0), (-8.0, 8.0), (-8.0, 8.0))


def _dist2(curve):
    return geometry.distance_squared_family(curve)[0]


def _third(fld, z, r):
    """The (r, r, m) third partials of ``fld`` at a point or a stack ``z``,
    read from ``jet(z, r)``."""
    return fld.jet(z, r)[..., jet_index(z.shape[-1], r)[3]]


class Cubic(geometry.PlaneCurve):
    """The graph y = u^3 / 3, a plane curve without ``d3``: its closed-form
    jet stops at the Hessian, so its caustic differences the Hessian."""

    def point(self, u):
        return np.array([u, u**3 / 3]).T

    def d1(self, u):
        return np.array([np.ones_like(u, dtype=float), u * u]).T

    def d2(self, u):
        return np.array([np.zeros_like(u, dtype=float), 2 * u]).T


FAMILIES = {
    "cusp": families.catalog()["cusp"],
    "fold": families.catalog()["fold"],
    "k2": families.family_from_text(K2_TEXT, 2, 2, box=K2_BOX),
    "circle": _dist2(geometry.Circle(radius=1.5)),
    "ellipse": _dist2(geometry.Ellipse(a=2.0, b=1.0)),
    "parabola": _dist2(geometry.Parabola(c=1.0)),
    "cubic": _dist2(Cubic()),
    # a surface: its jet has no third partials, so the caustic differences the Hessian
    "sphere": _dist2(geometry.Sphere(radius=1.0)),
}

# sampling ranges for (q, x), inside every box with room for the FD probes
Q_RANGE = {
    "cusp": 2.0, "fold": 2.0, "k2": 2.5, "circle": 3.5, "ellipse": 3.5, "parabola": 2.0, "cubic": 2.0, "sphere": 3.0
}
X_RANGE = 5.0

# points where det H_qq = 0 exactly (checked below)
SINGULAR = {
    "cusp": [0.5, -1.5, 0.3],  # 12 q^2 + 2 x1 = 0
    "k2": [1.0, 1.5, 7.0, 0.5],  # H_qq = [[6 q1 + 2 q2, x1 + 2 q1], [x1 + 2 q1, 6 q2]] = 9 * ones
    "circle": [0.7, 0.0, 0.0],  # D_uu = 2 X . v
    "parabola": [0.0, 0.3, 0.5],  # D_uu = 2 (2 (c u^2 - v2) + 1 + 4 c^2 u^2)
}


SYSTEMS = ["front", "caustic", "critical", "pairing"]


def _system(fam, name, w):
    """System ``name`` of ``fam`` and its unknowns at w = (q, x), or
    w = (q, q', x) for the pairing system: the critical system is the q
    equations at the fixed x."""
    if name == "critical":
        return families.critical_system(fam, w[fam.k :]), w[: fam.k]
    gl = families.GraphLikeFamily(base=fam)
    systems = {
        "front": fronts.front_system(gl, 0.3),
        "caustic": fronts.caustic_system(fam),
        "pairing": fronts.pairing_system(fam),
    }
    return systems[name], w


def _agree(system, z):
    assert isinstance(system, System)
    res, J = system.evaluate(z)
    fd = fd_jacobian(lambda u: system.evaluate(u)[0], z)
    assert J.shape == fd.shape == (res.size, z.size)
    assert np.abs(J - fd).max() <= 1e-6 * max(1.0, np.abs(J).max())


def _pairing_point(fam, z):
    return np.concatenate([z[: fam.k], z[: fam.k] + 0.5, z[fam.k :]])


def _point(fam_name, fam, unit, pairing):
    k, n = fam.k, fam.n
    q_span, nq = Q_RANGE[fam_name], (2 * k if pairing else k)
    u = np.asarray(unit[: nq + n])
    return np.concatenate([q_span * (2 * u[:nq] - 1), X_RANGE * (2 * u[nq:] - 1)])


@pytest.mark.parametrize("system_name", SYSTEMS)
@pytest.mark.parametrize("fam_name", sorted(FAMILIES))
@settings(max_examples=40, deadline=None)
@given(unit=st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7))
def test_exact_jacobian_matches_fd(fam_name, system_name, unit):
    fam = FAMILIES[fam_name]
    _agree(*_system(fam, system_name, _point(fam_name, fam, unit, system_name == "pairing")))


@pytest.mark.parametrize("fam_name", sorted(SINGULAR))
def test_exact_jacobian_on_the_caustic(fam_name):
    fam = FAMILIES[fam_name]
    z = np.array(SINGULAR[fam_name])
    H = fam.field.hessian(z)[: fam.k, : fam.k]
    assert np.linalg.det(H) == 0.0
    for name in SYSTEMS:
        # the pairing system gets a second sheet q' = q + 0.5
        _agree(*_system(fam, name, _pairing_point(fam, z) if name == "pairing" else z))


# relative tolerance of an opaque field's FD Jacobians against the exact ones;
# the caustic's det row differences the FD Hessian once more
OPAQUE_TOL = {"front": 1e-5, "critical": 1e-5, "pairing": 1e-5, "caustic": 2e-2}


def test_opaque_families_get_field_fd_jacobians():
    cusp = FAMILIES["cusp"]
    opaque = families.GeneratingFamily(k=1, n=2, field=ScalarField(3, cusp.field.fn, box=cusp.field.box))
    for z in ([0.7, -1.2, 0.4], SINGULAR["cusp"], [-1.1, 0.8, -2.5]):
        z = np.array(z)
        for name in SYSTEMS:
            w = _pairing_point(cusp, z) if name == "pairing" else z
            system, u = _system(opaque, name, w)
            assert isinstance(system, System)
            exact, u = _system(cusp, name, w)
            J = exact.evaluate(u)[1]
            assert np.abs(system.evaluate(u)[1] - J).max() <= OPAQUE_TOL[name] * max(1.0, np.abs(J).max())


# --- one ``derivatives`` jet per ``System.evaluate``


def _per_order(fam, name, w):
    """The residual and Jacobian of system ``name`` at ``w``, assembled from the
    field's per-order methods ``value``, ``grad`` and ``hessian``, and the
    third partials of ``jet``."""
    fld, k = fam.field, fam.k
    if name == "pairing":
        za, zb = np.concatenate([w[:k], w[2 * k :]]), w[k:]
        ga, gb, Ha, Hb = fld.grad(za), fld.grad(zb), fld.hessian(za)[:k], fld.hessian(zb)[:k]
        J = np.zeros((2 * k + 1, w.size))
        J[:k, :k], J[:k, 2 * k :] = Ha[:, :k], Ha[:, k:]
        J[k : 2 * k, k : 2 * k], J[k : 2 * k, 2 * k :] = Hb[:, :k], Hb[:, k:]
        J[2 * k] = np.concatenate([ga[:k], -gb[:k], ga[k:] - gb[k:]])
        return np.concatenate([ga[:k], gb[:k], [fld.value(za) - fld.value(zb)]]), J
    g, H = fld.grad(w), fld.hessian(w)
    if name == "critical":
        return g[:k], H[:k, :k]
    if name == "front":
        return np.append(g[:k], fld.value(w) - 0.3), np.vstack([H[:k], g])
    Hqq, T = H[:k, :k], _third(fld, w, k)
    if k == 1:
        return np.append(g[:k], Hqq[0, 0]), np.vstack([H[:k], T[0, 0]])
    row = np.einsum("ba,abc->c", adjugate(Hqq), T[:k, :k])
    return np.append(g[:k], np.linalg.det(Hqq)), np.vstack([H[:k], row])


@pytest.mark.parametrize("system_name", SYSTEMS)
@pytest.mark.parametrize("fam_name", sorted(FAMILIES))
@settings(max_examples=40, deadline=None)
@given(unit=st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7))
def test_fused_evaluate_is_the_separate_calls(fam_name, system_name, unit):
    fam = FAMILIES[fam_name]
    z = _point(fam_name, fam, unit, system_name == "pairing")
    system, u = _system(fam, system_name, z)
    res, J = system.evaluate(u)
    ref_res, ref_J = _per_order(fam, system_name, z)
    assert np.array_equal(res, ref_res) and np.array_equal(J, ref_J)


@pytest.mark.parametrize("fam_name", sorted(SINGULAR))
def test_fused_evaluate_on_the_caustic(fam_name):
    fam = FAMILIES[fam_name]
    z = np.array(SINGULAR[fam_name])
    for name in SYSTEMS:
        w = _pairing_point(fam, z) if name == "pairing" else z
        system, u = _system(fam, name, w)
        res, J = system.evaluate(u)
        ref_res, ref_J = _per_order(fam, name, w)
        assert np.array_equal(res, ref_res) and np.array_equal(J, ref_J)


@pytest.mark.parametrize("fam_name", sorted(FAMILIES))
def test_derivatives_are_the_separate_methods(fam_name):
    fld, k = FAMILIES[fam_name].field, FAMILIES[fam_name].k
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = np.concatenate([rng.uniform(-2.0, 2.0, k), rng.uniform(-X_RANGE, X_RANGE, fld.arity - k)])
        v, g, H = fld.derivatives(z)
        assert v == fld.value(z) and type(v) is float
        assert np.array_equal(g, fld.grad(z)) and np.array_equal(H, fld.hessian(z))
        # the jet with third partials starts with the same value, gradient and Hessian
        a, s = fld.jet(z, k), 1 + fld.arity + fld.arity**2
        assert np.array_equal(a[:s], fld.jet(z, 0)) and _third(fld, z, k).shape == (k, k, fld.arity)


@pytest.mark.parametrize("fam_name", ["cusp", "ellipse"])
def test_fused_path_raises_domain_error_outside_the_box(fam_name):
    fam = FAMILIES[fam_name]
    z = np.zeros(fam.k + fam.n)
    z[-1] = fam.field.box[-1][1] + 0.25
    for method in (fam.field.value, fam.field.derivatives):
        with pytest.raises(DomainError):
            method(z)
    for name in SYSTEMS:
        system, u = _system(fam, name, _pairing_point(fam, z) if name == "pairing" else z)
        with pytest.raises(DomainError):
            system.evaluate(u)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_fused_path_raises_non_finite_value():
    # x1^400 overflows at x1 = 10, and so do its derivatives
    fam = families.family_from_text(
        "q1^4 + x1*q1^2 + x2*q1 + x1^400", 1, 2, box=((-4.0, 4.0), (-20.0, 20.0), (-6.0, 6.0))
    )
    z = np.array([0.5, 10.0, 1.0])
    for method in (fam.field.value, fam.field.grad, fam.field.derivatives):
        with pytest.raises(NonFiniteValue):
            method(z)
    for name in SYSTEMS:
        system, u = _system(fam, name, _pairing_point(fam, z) if name == "pairing" else z)
        with pytest.raises(NonFiniteValue):
            system.evaluate(u)
    # the distance-squared jet: |X(u) - v|^2 overflows while its gradient does not
    # (in a v box wide enough to reach it)
    ellipse = geometry.distance_squared_family(geometry.Ellipse(a=2.0, b=1.0))[0].field
    wide = dataclasses.replace(ellipse, box=ellipse.box[:1] + ((-1e300, 1e300),) * 2)
    z = np.array([0.3, 1e200, 0.0])
    for method in (wide.value, wide.derivatives):
        with pytest.raises(NonFiniteValue):
            method(z)


@pytest.mark.parametrize("fam_name", ["cusp", "ellipse"])
def test_shifted_family_shifts_the_fused_value(fam_name):
    fam, t0 = FAMILIES[fam_name], 0.37
    shifted = families.shifted_family(fam, t0).field
    rng = np.random.default_rng(11)
    for _ in range(10):
        z = np.concatenate([rng.uniform(-2.0, 2.0, fam.k), rng.uniform(-X_RANGE, X_RANGE, fam.n)])
        (v, g, H), T = shifted.derivatives(z), _third(shifted, z, fam.k)
        (v0, g0, H0), T0 = fam.field.derivatives(z), _third(fam.field, z, fam.k)
        assert v == v0 - t0 == shifted.value(z)
        assert np.array_equal(g, g0) and np.array_equal(H, H0) and np.array_equal(T, T0)


def test_derivatives_fallbacks_are_the_separate_methods():
    # no jet (an opaque field), and a jet without third partials (a surface)
    cusp = FAMILIES["cusp"]
    opaque = ScalarField(3, cusp.field.fn, box=cusp.field.box)
    sphere = _dist2(geometry.Sphere(radius=1.0)).field
    for fld, z in ((opaque, np.array([0.7, -1.2, 0.4])), (sphere, np.array([0.7, 0.4, 0.3, -0.2, 0.5]))):
        (v, g, H), T = fld.derivatives(z), _third(fld, z, 2)
        assert v == fld.value(z)
        assert np.array_equal(g, fld.grad(z)) and np.array_equal(H, fld.hessian(z))
        # the (2, 2) block of the central differences of the whole Hessian
        m = z.size
        full = fd_jacobian(lambda p: fld.hessian(p).ravel(), z).reshape(m, m, m)
        assert np.array_equal(T, full[:2, :2]) and T.shape == (2, 2, m)


def test_opaque_caustic_differences_only_the_third_block_it_uses(monkeypatch):
    cusp = FAMILIES["cusp"]
    calls = {"all": 0, "third": 0}
    in_third = [False]

    def fn(p):
        calls["all"] += 1
        calls["third"] += in_third[0]
        return cusp.field.fn(p)

    opaque = families.GeneratingFamily(k=1, n=2, field=ScalarField(3, fn, box=cusp.field.box))
    # seeds on the caustic (q, -6 q^2, 8 q^3)
    seeds = [np.array([q, -6 * q * q, 8 * q**3]) for q in (-0.9, -0.3, 0.5)]
    fd_third = fields.ScalarField._fd_third

    def trace(full):
        def counted(self, p, r):
            in_third[0] = True
            try:
                # ``full``: the whole (m, m, m) difference; the caustic slices its block
                return fd_third(self, p, p.size if full else r)
            finally:
                in_third[0] = False

        monkeypatch.setattr(fields.ScalarField, "_fd_third", counted)
        calls.update(all=0, third=0)
        cloud = fronts.caustic(opaque, seeds, step=0.05, max_points=40)
        return cloud, dict(calls)

    block, block_calls = trace(full=False)
    full, full_calls = trace(full=True)
    assert len(block.x) > 100
    assert np.array_equal(block.x, full.x) and np.array_equal(block.q, full.q)
    assert 5 * block_calls["third"] <= full_calls["third"]
    assert block_calls["all"] < full_calls["all"]


def test_surface_caustic_evaluate_makes_one_jet_pass_before_its_fd_hessians():
    # one jet, then the Hessian at p +- h e_c for each of the 5 coordinates
    sphere = FAMILIES["sphere"]
    calls = []

    def counted(p, with_third):
        calls.append(with_third)
        return sphere.field.jet_fn(p, with_third)

    fam = dataclasses.replace(sphere, field=dataclasses.replace(sphere.field, jet_fn=counted))
    z = np.array([0.7, 0.4, 0.3, -0.2, 0.5])
    res, J = fronts.caustic_system(fam).evaluate(z)
    assert len(calls) == 11
    ref_res, ref_J = _per_order(sphere, "caustic", z)
    assert np.array_equal(res, ref_res) and np.array_equal(J, ref_J)


# --- stacks: one ``evaluate`` over a leading batch axis


@pytest.mark.parametrize("system_name", SYSTEMS)
@pytest.mark.parametrize("fam_name", sorted(FAMILIES))
def test_stacked_evaluate_is_the_rows(fam_name, system_name):
    # a generated jet answers the stack in one pass, whose powers numpy may
    # round differently from Python's by an ulp, and a stacked einsum or det
    # may sum in another order
    fam = FAMILIES[fam_name]
    rng = np.random.default_rng(5)
    Z = np.array([_point(fam_name, fam, rng.uniform(0.0, 1.0, 7), system_name == "pairing") for _ in range(12)])
    Z[3, -1] = fam.field.box[-1][1] + 0.25  # one row outside the box
    if system_name == "critical":
        system, U = families.critical_system(fam, Z[:, fam.k :]), Z[:, : fam.k]
    else:
        system, U = _system(fam, system_name, Z[0])[0], Z
    res, J = system.evaluate(U)
    assert res.shape[0] == J.shape[0] == len(Z)
    for i, z in enumerate(Z):
        row, u = _system(fam, system_name, z)
        if i == 3:
            assert np.isnan(res[i]).all()
            with pytest.raises(DomainError):
                row.evaluate(u)
            continue
        for a, b in zip((res[i], J[i]), row.evaluate(u)):
            assert np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(b).max())


@pytest.mark.parametrize("fam_name", ["cusp", "k2", "ellipse"])
def test_shifted_family_shifts_the_value_of_every_stacked_row(fam_name):
    fam, t0 = FAMILIES[fam_name], 0.37
    shifted = families.shifted_family(fam, t0).field
    rng = np.random.default_rng(12)
    Z = np.column_stack([rng.uniform(-2.0, 2.0, (6, fam.k)), rng.uniform(-X_RANGE, X_RANGE, (6, fam.n))])
    (v, g, H), T = shifted.derivatives(Z), _third(shifted, Z, fam.k)
    (v0, g0, H0), T0 = fam.field.derivatives(Z), _third(fam.field, Z, fam.k)
    assert np.array_equal(v, v0 - t0)
    assert np.array_equal(g, g0) and np.array_equal(H, H0) and np.array_equal(T, T0)
    for i, z in enumerate(Z):
        row = (*shifted.derivatives(z), _third(shifted, z, fam.k))
        for a, b in zip((v[i], g[i], H[i], T[i]), row):
            assert np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(b).max())


# --- the gathers: every field-built System reads its residual and Jacobian
# from the jet by index; the reference assembles them from ``derivatives``

K2_FILE = families.family_from_file(Path(__file__).resolve().parents[1] / "tools" / "caustic_k2.fam")
GATHER_FAMILIES = {"cusp": FAMILIES["cusp"], "k2-file": K2_FILE, "ellipse": FAMILIES["ellipse"]}


def _assembled(fam, name, W):
    """Residual and Jacobian of system ``name`` at ``W`` (a point or a
    stack, with x fixed per row for the critical system), assembled from the
    parts of ``derivatives`` by assignment."""
    fld, k, n = fam.field, fam.k, fam.n
    rows = W.shape[:-1]
    if name == "pairing":
        va, ga, Ha = fld.derivatives(np.concatenate([W[..., :k], W[..., 2 * k :]], axis=-1))
        vb, gb, Hb = fld.derivatives(W[..., k:])
        res, J = np.empty(rows + (2 * k + 1,)), np.zeros(rows + (2 * k + 1, 2 * k + n))
        res[..., :k], res[..., k : 2 * k], res[..., 2 * k] = ga[..., :k], gb[..., :k], va - vb
        J[..., :k, :k], J[..., :k, 2 * k :] = Ha[..., :k, :k], Ha[..., :k, k:]
        J[..., k : 2 * k, k : 2 * k], J[..., k : 2 * k, 2 * k :] = Hb[..., :k, :k], Hb[..., :k, k:]
        J[..., 2 * k, :k], J[..., 2 * k, k : 2 * k] = ga[..., :k], -gb[..., :k]
        J[..., 2 * k, 2 * k :] = ga[..., k:] - gb[..., k:]
        return res, J
    v, g, H = fld.derivatives(W)
    if name == "critical":
        return g[..., :k], H[..., :k, :k]
    res, J = np.empty(rows + (k + 1,)), np.empty(rows + (k + 1, k + n))
    res[..., :k], J[..., :k, :] = g[..., :k], H[..., :k, :]
    if name == "front":
        res[..., k], J[..., k, :] = v - 0.3, g
    elif k == 1:  # det H_qq is the entry itself, and its row d H_qq
        res[..., k], J[..., k, :] = H[..., 0, 0], _third(fld, W, k)[..., 0, 0, :]
    else:
        with np.errstate(invalid="ignore"):
            res[..., k] = np.linalg.det(H[..., :k, :k])
            J[..., k, :] = np.einsum("...ba,...abc->...c", adjugate(H[..., :k, :k]), _third(fld, W, k))
    return res, J


def _same(a, b):
    """Equal entry for entry, signed zeros included, and NaN where ``b`` is."""
    nan = np.isnan(b)
    return np.array_equal(np.isnan(a), nan) and np.array_equal(a[~nan], b[~nan]) and np.array_equal(
        np.signbit(a[~nan]), np.signbit(b[~nan])
    )


@pytest.mark.parametrize("system_name", SYSTEMS)
@pytest.mark.parametrize("fam_name", sorted(GATHER_FAMILIES))
def test_gathered_evaluate_is_the_assembled_parts(fam_name, system_name):
    fam = GATHER_FAMILIES[fam_name]
    k = fam.k
    rng = np.random.default_rng(23)
    Z = np.array([_point("cusp", fam, rng.uniform(0.0, 1.0, 7), system_name == "pairing") for _ in range(6)])
    Z[2, -1] = fam.field.box[-1][1] + 0.25  # one row outside the box
    Z[4, : -fam.n], Z[4, -1] = 0.0, 0.0  # dF/dq = 0 at q = 0 (and q' = 0): -dF/dq(q') is -0.0
    for W in (Z[0], Z[4], Z):
        if system_name == "critical":
            system, U = families.critical_system(fam, W[..., k:]), W[..., :k]
        else:
            system, U = _system(fam, system_name, W)[0], W
        res, J = system.evaluate(U)
        ref_res, ref_J = _assembled(fam, system_name, W)
        assert res.shape == ref_res.shape and J.shape == ref_J.shape
        assert _same(res, ref_res) and _same(J, ref_J)
    assert np.isnan(res[2]).all()  # the stack's row outside the box
    # a point given as the list of its floats gives lists of the same floats
    for W in (Z[0], Z[4]):
        if system_name == "critical":
            system, u = families.critical_system(fam, W[k:]), W[:k].tolist()
        else:
            system, u = _system(fam, system_name, W)[0], W.tolist()
        res, J = system.evaluate(u)
        assert type(res) is list and type(J) is list and all(type(row) is list for row in J)
        ref_res, ref_J = _assembled(fam, system_name, W)
        assert _same(np.array(res, dtype=float), ref_res) and _same(np.array(J, dtype=float), ref_J)


def _cofactor_adjugate(A):
    """adj(A)[j, i] = (-1)^(i+j) det(A without row i and column j), one
    ``det`` call per minor."""
    k = A.shape[-1]
    adj = np.empty(A.shape)
    for i in range(k):
        for j in range(k):
            minor = np.delete(np.delete(A, i, axis=-2), j, axis=-1)
            adj[..., j, i] = (-1) ** (i + j) * np.linalg.det(minor)
    return adj


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_adjugate_is_the_cofactor_definition(k):
    rng = np.random.default_rng(k)
    A = rng.standard_normal((7, k, k))
    A[1] = np.outer(A[1, 0], A[1, -1])  # rank 1: singular for k >= 2
    A[2] = 0.0
    adj = adjugate(A)
    assert adj.shape == A.shape
    assert np.array_equal(adj, _cofactor_adjugate(A))
    for a, m in zip(adj, A):
        assert np.array_equal(adjugate(m), a)  # one matrix is the stack's row
        assert np.abs(a @ m - np.linalg.det(m) * np.eye(k)).max() <= 1e-12 * max(1.0, np.abs(m).max() ** k)


# --- a point's evaluate against its row of a stack, for every family system
# and the gallery's: the same floats, signed zeros included, and DomainError
# where the stack's row has NaN entries.  The stack's jets are taken row by
# row, each through the point jet; a stacking expression jet runs numpy's
# array powers, which may round an ulp apart from Python's (see
# ``test_stacked_evaluate_is_the_rows``).


def _row_by_row(fam):
    """``fam`` with a jet that answers a stack row by row, as a field whose
    jet does not stack does."""
    jet_fn = fam.field.jet_fn
    return dataclasses.replace(fam, field=dataclasses.replace(fam.field, jet_fn=lambda v, third: jet_fn(v, third)))


ROW_FAMILIES = {
    "cusp": _row_by_row(FAMILIES["cusp"]),  # k = 1: the caustic row is the third partials
    "k2-file": _row_by_row(K2_FILE),  # k = 2: det and adjugate
    "ellipse": FAMILIES["ellipse"],  # the plane-curve jet does not stack
}
# a unit coordinate: 10% past either end of the box, or its middle, which is
# 0 in the symmetric boxes (dF/dq = 0 at q = 0 makes the pairing's -0.0)
UNIT = st.one_of(st.floats(-0.1, 1.1), st.just(0.5))


def _bits(listed, row):
    return np.array(listed, dtype=float).tobytes() == row.tobytes()


@pytest.mark.parametrize("system_name", SYSTEMS)
@pytest.mark.parametrize("fam_name", sorted(ROW_FAMILIES))
@settings(max_examples=40, deadline=None)
@given(units=st.lists(st.lists(UNIT, min_size=7, max_size=7), min_size=1, max_size=5), t=st.floats(-2.0, 2.0))
def test_point_evaluate_is_its_row_of_the_stack(fam_name, system_name, units, t):
    fam = ROW_FAMILIES[fam_name]
    k, n = fam.k, fam.n
    box = fam.field.box
    if system_name == "pairing":  # w = (q, q', x), q' in the box of q
        box = box[:k] + box[:k] + box[k:]
    Z = np.array([[lo + u * (hi - lo) for u, (lo, hi) in zip(unit, box)] for unit in units])
    if system_name == "critical":
        rows = [(families.critical_system(fam, z[k:]), z[:k]) for z in Z]
        R, J = families.critical_system(fam, Z[:, k:]).evaluate(Z[:, :k])
    else:
        system = {
            "front": fronts.front_system(families.GraphLikeFamily(base=fam), t),
            "caustic": fronts.caustic_system(fam),
            "pairing": fronts.pairing_system(fam),
        }[system_name]
        rows = [(system, z) for z in Z]
        R, J = system.evaluate(Z)
    for i, (row, z) in enumerate(rows):
        try:
            res, jac = row.evaluate(z.tolist())
        except DomainError:  # a pairing row has a NaN jet for each sheet outside the box
            assert np.isnan(R[i]).any() and np.isnan(J[i]).any()
            continue
        assert type(res) is list and all(type(r) is list for r in jac)
        assert _bits(res, R[i]) and _bits(jac, J[i])


def _rowwise(closure):
    """A diagram jet that answers coordinate rows column by column, through
    the point closure on Python floats."""

    def jet(v):
        if isinstance(v, list):
            return closure(v)
        return tuple(np.array(e, dtype=float) for e in zip(*(closure(c) for c in np.asarray(v).T.tolist())))

    return jet


@pytest.mark.parametrize("germ", range(1, 7))
@settings(max_examples=30, deadline=None)
@given(
    units=st.lists(st.lists(st.floats(-0.1, 1.1), min_size=4, max_size=4), min_size=1, max_size=5),
    t=st.floats(-1.0, 1.0),
)
def test_gallery_point_evaluate_is_its_row_of_the_stack(germ, units, t):
    diagram = gallery.gallery_family(germ)
    diagram = dataclasses.replace(diagram, jet_fn=_rowwise(diagram.jet_fn))
    chart = ((-1.5, 1.5), (-1.5, 1.5))
    W = np.array([[lo + u * (hi - lo) for u, (lo, hi) in zip(unit, chart * 2)] for unit in units])
    # the pairing system has a stacked evaluate
    pairing = gallery._pairing_system(diagram, t)
    R, J = pairing.evaluate(W)
    for w, r, j in zip(W, R, J):
        res, jac = pairing.evaluate(w.tolist())
        assert type(res) is list and all(type(row) is list for row in jac)
        assert _bits(res, r) and _bits(jac, j)
    # the level system answers points only: mu - t and grad mu, from the
    # rows of the stacked flat jet, and DomainError outside its chart box
    level, box = gallery._level_system(diagram, t, ((-1.2, 1.2), (-1.2, 1.2))), ((-1.2, 1.2),) * 2
    U = W[:, :2]
    A = fields.flat_jet(diagram.jet_fn)(U)
    for u, a in zip(U, A):
        if not all(lo <= x <= hi for x, (lo, hi) in zip(u, box)):
            with pytest.raises(DomainError):
                level.evaluate(u.tolist())
            continue
        res, jac = level.evaluate(u.tolist())
        assert _bits(res, a[:1] - t) and _bits(jac, a[None, 1:3])
