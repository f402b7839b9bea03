import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefronts import pde
from wavefronts.errors import BlowUp
from wavefronts.fields import ScalarField


def _curved_pde():
    """x' = 2y, y' = y: characteristics bend, so RK4 truncation is visible."""
    a = ScalarField(3, lambda p: 2 * p[1], lambda p: np.array([0.0, 2.0, 0.0]))
    b = ScalarField(3, lambda p: p[1], lambda p: np.array([0.0, 1.0, 0.0]))
    phi = ScalarField(1, lambda p: math.sin(p[0]), lambda p: np.array([math.cos(p[0])]))
    return pde.QuasiLinearPDE(n=1, a=(a,), b=b, phi=phi)


def _strips(sheet):
    """``(x0, xs, ys, dets)`` of each strip: its start and its columns of the
    sheet's histories."""
    return zip(sheet.xs[0], sheet.xs.transpose(1, 0, 2), sheet.ys.T, sheet.dets.T)


def test_transport_shifts_datum():
    eq = pde.transport()
    sheet = pde.integrate_characteristics(eq, np.linspace(0, 2 * np.pi, 20), (0, 0.5), dt=1e-2)
    for x0, xs, ys, dets in _strips(sheet):
        assert xs[-1, 0] == pytest.approx(x0[0] + 0.5, abs=1e-10)
        assert ys[-1] == pytest.approx(math.sin(x0[0]), abs=1e-12)
        assert dets[-1] == pytest.approx(1.0, abs=1e-10)


def test_burgers_characteristics_are_lines():
    eq = pde.burgers()
    sheet = pde.integrate_characteristics(eq, [0.5, 1.5], (0, 0.3), dt=1e-3)
    for x0, xs, _, dets in _strips(sheet):
        y0 = math.sin(x0[0])
        assert xs[-1, 0] == pytest.approx(x0[0] + 2 * y0 * 0.3, abs=1e-9)
        # variational determinant is 1 + 2 t cos(x0)
        assert dets[-1] == pytest.approx(1 + 2 * 0.3 * math.cos(x0[0]), abs=1e-8)


@pytest.mark.parametrize("speed", [1.8, 2.0, 2.2])
def test_breaking_time_oracle(speed):
    eq = pde.burgers(speed)
    sheet = pde.integrate_characteristics(
        eq, np.linspace(0, 2 * np.pi, 400), (0, 1.0), dt=1e-3
    )
    t_star = pde.breaking_time(sheet)
    # the earliest fold is at x0 = pi, where 1 + speed * t * cos(x0) = 0
    assert t_star == pytest.approx(1 / speed, abs=5e-5)


def test_no_breaking_before_fold():
    eq = pde.burgers()
    sheet = pde.integrate_characteristics(eq, np.linspace(0, 2 * np.pi, 50), (0, 0.4), dt=1e-3)
    assert pde.breaking_time(sheet) is None


def test_multivalued_count_after_breaking():
    eq = pde.burgers()
    sheet = pde.integrate_characteristics(
        eq, np.linspace(0, 2 * np.pi, 400), (0, 1.0), dt=1e-3
    )
    assert pde.multivalued_count(sheet, math.pi, 0.8) == 3
    assert pde.multivalued_count(sheet, math.pi, 0.3) == 1


def test_rk4_fourth_order_convergence():
    eq = _curved_pde()
    x0 = [0.5, 1.0, 2.0]

    def err(dt):
        sheet = pde.integrate_characteristics(eq, x0, (0, 0.4), dt=dt)
        worst = 0.0
        for start, xs, _, _ in _strips(sheet):
            y0 = math.sin(start[0])
            exact = start[0] + 2 * y0 * (math.exp(0.4) - 1)
            worst = max(worst, abs(xs[-1, 0] - exact))
        return worst

    assert err(0.02) / err(0.01) >= 12.0


def test_blowup_guard():
    a = ScalarField(3, lambda p: p[0] ** 2, lambda p: np.array([2 * p[0], 0.0, 0.0]))
    b = ScalarField(3, lambda p: 0.0, lambda p: np.zeros(3))
    phi = ScalarField(1, lambda p: 0.0, lambda p: np.zeros(1))
    eq = pde.QuasiLinearPDE(n=1, a=(a,), b=b, phi=phi)
    with pytest.raises(BlowUp):
        pde.integrate_characteristics(eq, [3.0], (0, 2.0), dt=1e-3)


def test_tangency_of_geometric_solution():
    # y - sin(x - t) = 0 solves y_t + y_x = 0 with datum sin
    eq = pde.transport()
    level = ScalarField(
        3,
        lambda p: p[1] - math.sin(p[0] - p[2]),
        lambda p: np.array([-math.cos(p[0] - p[2]), 1.0, math.cos(p[0] - p[2])]),
    )
    samples = [
        np.array([x, math.sin(x - t), t])
        for x in np.linspace(0, 6, 12)
        for t in np.linspace(0, 1, 5)
    ]
    assert pde.tangency_check(eq, level, samples) < 1e-10


def test_sheet_values_single_valued_early():
    eq = pde.burgers()
    sheet = pde.integrate_characteristics(eq, np.linspace(0, 2 * np.pi, 60), (0, 0.2), dt=1e-2)
    vals = pde.sheet_values(sheet, 0.2)
    order = np.argsort(vals[:, 0])
    assert np.all(np.diff(vals[order, 0]) > -1e-12)


def _burgers_2d(axis):
    """y_t + y y_{x_axis} = 0 in two space variables, y(0, x) = sin x_axis."""
    grad_y = np.zeros(4)
    grad_y[2] = 1.0
    zero = ScalarField(4, lambda p: 0.0, lambda p: np.zeros(4))
    wave = ScalarField(4, lambda p: p[2], lambda p: grad_y)
    a = (wave, zero) if axis == 0 else (zero, wave)
    dphi = np.eye(2)[axis]
    phi = ScalarField(2, lambda p: math.sin(p[axis]), lambda p: math.cos(p[axis]) * dphi)
    return pde.QuasiLinearPDE(n=2, a=a, b=zero, phi=phi)


@pytest.mark.parametrize("axis", [0, 1])
def test_two_space_variables_fold_at_the_closed_form(axis):
    eq = _burgers_2d(axis)
    grid = np.linspace(0, 2 * np.pi, 40)
    x0 = [(u, v) if axis == 0 else (v, u) for u in grid for v in (-1.0, 0.5)]
    sheet = pde.integrate_characteristics(eq, x0, (0, 1.2), dt=1e-3)
    ts = sheet.ts
    for start, xs, _, dets in _strips(sheet):
        u, v = start[axis], start[1 - axis]
        # x_axis = u + t sin u, the other coordinate stays, det dx/dx0 = 1 + t cos u
        assert np.allclose(xs[:, axis], u + ts * math.sin(u), rtol=0, atol=1e-12)
        assert np.array_equal(xs[:, 1 - axis], np.full_like(ts, v))
        assert np.allclose(dets, 1 + ts * math.cos(u), rtol=0, atol=1e-12)
    folds = [-1 / math.cos(u) for u in grid if math.cos(u) < 0]
    assert pde.breaking_time(sheet) == pytest.approx(min(folds), abs=1e-9)


def test_variational_term_in_x():
    # x' = x: x = x0 e^t and det dx/dx0 = e^t
    a = ScalarField(3, lambda p: p[0], lambda p: np.array([1.0, 0.0, 0.0]))
    b = ScalarField(3, lambda p: 0.0, lambda p: np.zeros(3))
    phi = ScalarField(1, lambda p: 0.0, lambda p: np.zeros(1))
    sheet = pde.integrate_characteristics(pde.QuasiLinearPDE(n=1, a=(a,), b=b, phi=phi), [-1.0, 2.0], (0, 1.0), dt=1e-2)
    assert np.allclose(sheet.dets, np.exp(sheet.ts)[:, None], rtol=1e-9, atol=0)
    assert np.allclose(sheet.xs[:, :, 0], np.exp(sheet.ts)[:, None] * [-1.0, 2.0], rtol=1e-9, atol=0)


def _loop_multivalued_count(vals):
    """The per-sample rule ``multivalued_count`` applies to ``x(x0, t) - x_hat``."""
    count = 0
    prev_sign = np.sign(vals[0])
    if prev_sign == 0:
        count += 1
    for v in vals[1:]:
        s = np.sign(v)
        if s == 0:
            count += 1
            prev_sign = 0
            continue
        if prev_sign != 0 and s != prev_sign:
            count += 1
        prev_sign = s
    return count


# runs of exact zeros, NaN, tiny and ordinary values
_SAMPLE = st.one_of(st.sampled_from([0.0, -0.0, math.nan, 5e-324, -5e-324]), st.floats(-3.0, 3.0))


@settings(max_examples=300, deadline=None)
@given(
    runs=st.lists(st.tuples(_SAMPLE, st.integers(1, 4)), min_size=1, max_size=40),
    x_hat=st.sampled_from([0.0, 0.5, -1.0]),
)
def test_multivalued_count_is_the_per_sample_loop(runs, x_hat):
    xs = np.array([v for v, repeat in runs for _ in range(repeat)])
    S = xs.size
    sheet = pde.GeometricSolutionSheet(
        pde=pde.transport(), dt=1.0, ts=np.array([0.0, 1.0]),
        xs=np.stack([np.zeros(S), xs])[:, :, None], ys=np.zeros((2, S)), dets=np.zeros((2, S)),
    )
    assert pde.multivalued_count(sheet, x_hat, 0.9) == _loop_multivalued_count(xs - x_hat)
