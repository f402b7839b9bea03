import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefronts import expr as ex
from wavefronts import families, geometry
from wavefronts.errors import DomainError, NonFiniteValue
from wavefronts.fields import ScalarField, field_from_expr, jet_index

from conftest import field_catalog

RNG = np.random.default_rng(42)


def test_expr_field_gradient_and_hessian():
    e = ex.parse_expr("q1^3 + q1*x1 + x1^2", ("q1", "x1"))
    f = field_from_expr(e, ("q1", "x1"), third_rows=1)
    p = np.array([1.5, -0.5])
    assert f.value(p) == pytest.approx(1.5**3 - 0.75 + 0.25)
    assert f.grad(p) == pytest.approx([3 * 1.5**2 - 0.5, 1.5 - 1.0])
    assert np.allclose(f.hessian(p), [[9.0, 1.0], [1.0, 2.0]])
    # d/dq1 and d/dx1 of d2f/dq1^2 = 6 q1
    assert f.jet(p, 1)[jet_index(2, 1)[3]].tolist() == [[[6.0, 0.0]]]
    # without third rows the jet stops after the Hessian
    assert len(field_from_expr(e, ("q1", "x1")).jet_fn(p.tolist(), True)) == 1 + 2 + 4


def test_third_without_third_fn_differences_the_hessian():
    e = ex.parse_expr("q1^4 + x1*q1^2 + x2*q1", ("q1", "x1", "x2"))
    exact = field_from_expr(e, ("q1", "x1", "x2"), third_rows=1)
    fd = field_from_expr(e, ("q1", "x1", "x2"))
    for p in ([0.7, -1.2, 0.4], [0.5, -1.5, 0.3], [-1.1, 0.8, -2.5]):
        T = fd.jet(np.array(p), 3)[jet_index(3, 3)[3]]
        assert T.shape == (3, 3, 3)
        assert np.abs(T[:1, :1] - exact.jet(np.array(p), 1)[jet_index(3, 1)[3]]).max() <= 1e-6


@pytest.mark.parametrize("name", sorted(field_catalog()))
def test_fd_matches_closed_form_catalog(name):
    fld = field_catalog()[name]
    fd = ScalarField(arity=fld.arity, fn=fld.fn)  # strip the closed forms
    for _ in range(100):
        p = RNG.uniform(-2, 2, fld.arity)
        assert np.allclose(fd.grad(p), fld.grad(p), rtol=1e-6, atol=1e-6)


def test_fd_hessian_symmetric():
    fd = ScalarField(2, lambda p: np.sin(p[0]) * p[1] ** 2)
    H = fd.hessian(np.array([0.7, 1.3]))
    assert H == pytest.approx(H.T)
    assert H[0, 1] == pytest.approx(2 * 1.3 * np.cos(0.7), rel=1e-5)


def test_hessian_differentiates_closed_form_gradient():
    # a closed-form gradient: the Hessian is one FD pass over grad_fn
    fld = ScalarField(
        arity=2,
        fn=lambda p: np.sin(p[0]) * p[1] ** 2,
        grad_fn=lambda p: np.array([np.cos(p[0]) * p[1] ** 2, 2 * np.sin(p[0]) * p[1]]),
    )
    x, y = 0.7, 1.3
    exact = [[-np.sin(x) * y**2, 2 * np.cos(x) * y], [2 * np.cos(x) * y, 2 * np.sin(x)]]
    assert fld.hessian(np.array([x, y])) == pytest.approx(np.array(exact), abs=1e-8)


def test_box_violation_raises():
    fld = ScalarField(1, lambda p: p[0] ** 2, box=((-1.0, 1.0),))
    with pytest.raises(DomainError):
        fld.value([2.0])
    # FD probes need margin inside the box edge
    with pytest.raises(DomainError):
        fld.grad([1.0])


BOX = ((-1.0, 1.0), (-2.0, 0.5), (0.0, 3.0))
# box edges and points just inside and outside them
COORD = st.sampled_from([-2.0, -1.0, -1.0 + 1e-5, 0.0, 0.5 - 1e-5, 0.5, 1.0, 1.0 + 1e-5, 3.0, 3.5])


@settings(max_examples=300, deadline=None)
@given(p=st.lists(COORD, min_size=3, max_size=3), fd_margin=st.booleans())
def test_box_check_matches_array_reference(p, fd_margin):
    p = np.array(p)
    margin = 1e-5 * np.maximum(1.0, np.abs(p)) if fd_margin else 0.0
    lo, hi = np.array([b[0] for b in BOX]), np.array([b[1] for b in BOX])
    outside = bool(np.any(p - margin < lo) or np.any(p + margin > hi))
    fld = ScalarField(arity=3, fn=lambda q: 0.0, box=BOX)
    try:
        fld._check_box(p, margin)
    except DomainError:
        assert outside
    else:
        assert not outside


@pytest.mark.filterwarnings("ignore:divide by zero")
def test_non_finite_detected():
    fld = ScalarField(1, lambda p: 1.0 / p[0])
    with pytest.raises(NonFiniteValue):
        fld.value([0.0])


CUSP_VARS = ("q1", "x1", "x2")
CUSP_BOX = ((-4.0, 4.0), (-6.0, 6.0), (-6.0, 6.0))


def test_stacked_derivatives_are_the_rows():
    generated = field_from_expr(ex.parse_expr("q1^4 + x1*q1^2 + x2*q1", CUSP_VARS), CUSP_VARS, CUSP_BOX, 1)
    opaque = ScalarField(3, generated.fn, box=CUSP_BOX)
    P = np.column_stack([RNG.uniform(-3, 3, 8), RNG.uniform(-5, 5, (8, 2))])
    P[2, 0], P[5, 2] = 4.5, -6.5  # two rows outside the box
    third = jet_index(3, 1)[3]
    for fld in (generated, opaque):
        parts = (*fld.derivatives(P), fld.jet(P, 1)[:, third])
        assert [a.shape for a in parts] == [(8,), (8, 3), (8, 3, 3), (8, 1, 1, 3)]
        for i, p in enumerate(P):
            if i in (2, 5):
                assert all(np.isnan(a[i]).all() for a in parts)
                continue
            for a, b in zip(parts, (*fld.derivatives(p), fld.jet(p, 1)[third])):
                # numpy's elementwise powers may round by an ulp apart from
                # Python's; the FD rows are the 1-D calls themselves
                assert np.abs(a[i] - b).max() <= (1e-13 if fld is generated else 0.0) * max(1.0, np.abs(b).max())
    assert len(generated.derivatives(P)) == 3


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_stacked_non_finite_row_inside_the_box_raises():
    # x1^400 overflows at x1 = 10 inside the box, and is not evaluated outside it
    text = "q1^2 + x1^400"
    fld = field_from_expr(ex.parse_expr(text, ("q1", "x1")), ("q1", "x1"), ((-4.0, 4.0), (-20.0, 20.0)))
    outside = np.array([[0.5, 1.0], [0.5, 30.0]])
    assert np.isnan(fld.derivatives(outside)[0][1]) and np.isfinite(fld.derivatives(outside)[0][0])
    with pytest.raises(NonFiniteValue):
        fld.derivatives(np.array([[0.5, 1.0], [0.5, 10.0]]))


# the catalog, every family file under tools/ and one with rational and
# decimal constants: compiled jets with their third partials
TOOLS = Path(__file__).resolve().parents[1] / "tools"
JET_FAMILIES = {
    **families.catalog(),
    **{path.stem: families.family_from_file(path) for path in sorted(TOOLS.glob("*.fam"))},
    "rational": families.family_from_text(
        "2/7*q1^5 - 0.3*x1*q1^3 + 5/2*q2^2*q1 + x2*q2 - 3/11*x1^2*q2^3 + 1/3", 2, 2, box=((-3.0, 3.0),) * 4
    ),
}


@pytest.mark.parametrize("name", sorted(JET_FAMILIES))
@settings(max_examples=60, deadline=None)
@given(unit=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
def test_float_jet_is_the_numpy_scalar_jet(name, unit):
    # a point's jet runs the compiled closure on Python floats; on numpy
    # scalars (the stack's elementwise path aside) it rounds the same
    fld = JET_FAMILIES[name].field
    v = [lo + u * (hi - lo) for u, (lo, hi) in zip(unit, fld.box)]
    floats = fld.jet_fn(v, True)
    scalars = fld.jet_fn([np.float64(x) for x in v], True)
    assert all(type(x) in (float, int) for x in floats)
    assert np.array(floats, dtype=float).tobytes() == np.array(scalars, dtype=float).tobytes()
    assert fld.jet(np.array(v), JET_FAMILIES[name].k).tobytes() == np.array(floats, dtype=float).tobytes()


# --- a point's jet is the list of its floats: the same entries, bit for bit,
# and the same errors at the same points as the array jet

_OVERFLOW_BOX = ((-4.0, 4.0), (-8.0, 8.0), (-6.0, 6.0))
_OVERFLOW = ex.parse_expr("q1^4 + x1*q1^2 + x2*q1 + x1^400", CUSP_VARS)  # x1^400 overflows from |x1| ~ 5.9
_ELLIPSE = geometry.distance_squared_family(geometry.Ellipse(a=2.0, b=1.0))[0].field
POINT_JET_FIELDS = {
    # closed-form third partials, and the same field differencing its Hessian for them
    "expr": field_from_expr(_OVERFLOW, CUSP_VARS, _OVERFLOW_BOX, 1),
    "expr-fd-third": field_from_expr(_OVERFLOW, CUSP_VARS, _OVERFLOW_BOX),
    # the plane-curve distance field, in a v box wide enough for |X(u) - v|^2 to overflow
    "ellipse": dataclasses.replace(_ELLIPSE, box=_ELLIPSE.box[:1] + ((-1e300, 1e300),) * 2),
}


def _jet_or_error(fld, point, third):
    try:
        return fld.jet(point, third)
    except (DomainError, NonFiniteValue) as e:
        return type(e)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("name", sorted(POINT_JET_FIELDS))
@settings(max_examples=80, deadline=None)
@given(
    # a tenth of the box past each end, so some points leave it
    unit=st.lists(st.floats(-0.1, 1.1), min_size=3, max_size=3),
    log_scale=st.floats(-1.5, 0.0),
    third=st.sampled_from([0, 1]),
)
def test_point_jet_is_the_array_jet(name, unit, log_scale, third):
    fld = POINT_JET_FIELDS[name]
    # the ellipse's v spans 600 decades: scale it down to reach every size
    scale = [1.0] + [10.0 ** (300 * log_scale)] * 2 if name == "ellipse" else [1.0] * 3
    v = [s * (lo + u * (hi - lo)) for s, u, (lo, hi) in zip(scale, unit, fld.box)]
    listed, array = _jet_or_error(fld, v, third), _jet_or_error(fld, np.array(v), third)
    if isinstance(array, type):
        assert listed is array
        return
    assert type(listed) is list and len(listed) == array.size == 13 + 3 * third
    assert np.array(listed, dtype=float).tobytes() == array.tobytes()
