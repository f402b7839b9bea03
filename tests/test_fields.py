import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefronts import expr as ex
from wavefronts.errors import DomainError, NonFiniteValue
from wavefronts.fields import ScalarField, catalog, field_from_expr

RNG = np.random.default_rng(42)


def test_expr_field_gradient_and_hessian():
    e = ex.parse_expr("q1^3 + q1*x1 + x1^2", ("q1", "x1"))
    f = field_from_expr(e, ("q1", "x1"), third_rows=1)
    p = np.array([1.5, -0.5])
    assert f.value(p) == pytest.approx(1.5**3 - 0.75 + 0.25)
    assert f.grad(p) == pytest.approx([3 * 1.5**2 - 0.5, 1.5 - 1.0])
    assert np.allclose(f.hessian(p), [[9.0, 1.0], [1.0, 2.0]])
    # d/dq1 and d/dx1 of d2f/dq1^2 = 6 q1
    assert f.third(p).tolist() == [[[6.0, 0.0]]]
    # without third rows the jet stops after the Hessian
    assert field_from_expr(e, ("q1", "x1")).jet_fn(p, True).size == 1 + 2 + 4


def test_third_without_third_fn_differences_the_hessian():
    e = ex.parse_expr("q1^4 + x1*q1^2 + x2*q1", ("q1", "x1", "x2"))
    exact = field_from_expr(e, ("q1", "x1", "x2"), third_rows=1)
    fd = field_from_expr(e, ("q1", "x1", "x2"))
    for p in ([0.7, -1.2, 0.4], [0.5, -1.5, 0.3], [-1.1, 0.8, -2.5]):
        T = fd.third(p)
        assert T.shape == (3, 3, 3)
        assert np.abs(T[:1, :1] - exact.third(p)).max() <= 1e-6


@pytest.mark.parametrize("name", sorted(catalog()))
def test_fd_matches_closed_form_catalog(name):
    fld = catalog()[name]
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
