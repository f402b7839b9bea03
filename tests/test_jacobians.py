"""Exact Jacobians of the generating-family systems against central differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefronts import families, fronts, geometry
from wavefronts.fields import field_from_callable, fd_jacobian
from wavefronts.solve import System

# a k = 2 family: its caustic row goes through the adjugate of a 2 x 2 H_qq
K2_TEXT = "q1^3 + q2^3 + x1*q1*q2 + x2*(q1 + q2) + q1^2*q2"
K2_BOX = ((-3.0, 3.0), (-3.0, 3.0), (-8.0, 8.0), (-8.0, 8.0))


def _dist2(curve):
    return geometry.distance_squared_family(curve)[0]


FAMILIES = {
    "cusp": families.catalog()["cusp"],
    "fold": families.catalog()["fold"],
    "k2": families.family_from_text(K2_TEXT, 2, 2, box=K2_BOX),
    "circle": _dist2(geometry.Circle(radius=1.5)),
    "ellipse": _dist2(geometry.Ellipse(a=2.0, b=1.0)),
    "parabola": _dist2(geometry.Parabola(c=1.0)),
}

# sampling ranges for (q, x), inside every box with room for the FD probes
Q_RANGE = {"cusp": 2.0, "fold": 2.0, "k2": 2.5, "circle": 3.5, "ellipse": 3.5, "parabola": 2.0}
X_RANGE = 5.0

# points where det H_qq = 0 exactly (checked below)
SINGULAR = {
    "cusp": [0.5, -1.5, 0.3],  # 12 q^2 + 2 x1 = 0
    "k2": [1.0, 1.5, 7.0, 0.5],  # H_qq = [[6 q1 + 2 q2, x1 + 2 q1], [x1 + 2 q1, 6 q2]] = 9 * ones
    "circle": [0.7, 0.0, 0.0],  # D_uu = 2 X . v
    "parabola": [0.0, 0.3, 0.5],  # D_uu = 2 (2 (c u^2 - v2) + 1 + 4 c^2 u^2)
}


def _systems(fam):
    gl = families.GraphLikeFamily(base=fam)
    return {
        "front": fronts.front_system(gl, 0.3),
        "caustic": fronts.caustic_system(fam),
        "critical": families.critical_system(fam),
        "pairing": fronts.pairing_system(fam),
    }


def _agree(system, z):
    assert isinstance(system, System)
    J = system.jac(z)
    fd = fd_jacobian(system, z)
    assert J.shape == fd.shape == (np.size(system(z)), z.size)
    assert np.abs(J - fd).max() <= 1e-6 * max(1.0, np.abs(J).max())


def _point(fam_name, fam, unit, pairing):
    k, n = fam.k, fam.n
    q_span, nq = Q_RANGE[fam_name], (2 * k if pairing else k)
    u = np.asarray(unit[: nq + n])
    return np.concatenate([q_span * (2 * u[:nq] - 1), X_RANGE * (2 * u[nq:] - 1)])


@pytest.mark.parametrize("system_name", ["front", "caustic", "critical", "pairing"])
@pytest.mark.parametrize("fam_name", sorted(FAMILIES))
@settings(max_examples=40, deadline=None)
@given(unit=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
def test_exact_jacobian_matches_fd(fam_name, system_name, unit):
    fam = FAMILIES[fam_name]
    system = _systems(fam)[system_name]
    _agree(system, _point(fam_name, fam, unit, system_name == "pairing"))


@pytest.mark.parametrize("fam_name", sorted(SINGULAR))
def test_exact_jacobian_on_the_caustic(fam_name):
    fam = FAMILIES[fam_name]
    z = np.array(SINGULAR[fam_name])
    H = fam.field.hessian(z)[: fam.k, : fam.k]
    assert np.linalg.det(H) == 0.0
    k = fam.k
    for name, system in _systems(fam).items():
        # the pairing system gets a second sheet q' = q + 0.5
        _agree(system, np.concatenate([z[:k], z[:k] + 0.5, z[k:]]) if name == "pairing" else z)


# relative tolerance of an opaque field's FD Jacobians against the exact ones;
# the caustic's det row differences the FD Hessian once more
OPAQUE_TOL = {"front": 1e-5, "critical": 1e-5, "pairing": 1e-5, "caustic": 2e-2}


def test_opaque_families_get_field_fd_jacobians():
    cusp = FAMILIES["cusp"]
    opaque = families.GeneratingFamily(k=1, n=2, field=field_from_callable(cusp.field.fn, 3, box=cusp.field.box))
    exact = _systems(cusp)
    for z in ([0.7, -1.2, 0.4], SINGULAR["cusp"], [-1.1, 0.8, -2.5]):
        z = np.array(z)
        for name, system in _systems(opaque).items():
            assert isinstance(system, System)
            w = np.concatenate([z[:1], z[:1] + 0.5, z[1:]]) if name == "pairing" else z
            J = exact[name].jac(w)
            assert np.abs(system.jac(w) - J).max() <= OPAQUE_TOL[name] * max(1.0, np.abs(J).max())
    # surfaces have no third partials: the caustic differences the Hessian
    systems = _systems(_dist2(geometry.Sphere(radius=1.0)))
    for name in ("front", "caustic", "critical"):
        _agree(systems[name], np.array([0.7, 0.4, 0.3, -0.2, 0.5]))
