import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefronts import pde
from wavefronts.errors import BlowUp, DomainError, NonFiniteValue, SliceNotKept
from wavefronts.expr import parse_expr
from wavefronts.fields import ScalarField, field_from_expr
from wavefronts.pde import BlockField


def _curved_pde():
    """x' = 2y, y' = y: characteristics bend, so RK4 truncation is visible."""
    a = BlockField(3, lambda p: 2 * p[1], lambda p: np.array([0.0, 2.0, 0.0]))
    b = BlockField(3, lambda p: p[1], lambda p: np.array([0.0, 1.0, 0.0]))
    phi = BlockField(1, lambda p: np.sin(p[0]), lambda p: np.cos(p[:1]))
    return pde.QuasiLinearPDE(n=1, a=(a,), b=b, phi=phi)


def _step_times(t_end, dt):
    """Every step's time, accumulated in order as the integrator's running t."""
    return np.concatenate(([0.0], np.cumsum(np.full(pde.step_count((0, t_end), dt), dt))))


def _strips(sheet):
    """``(x0, xs, ys, dets)`` of each strip: its start (the slice kept first,
    at t = 0) and its columns of the kept slices."""
    return zip(sheet.xs[0], sheet.xs.transpose(1, 0, 2), sheet.ys.T, sheet.dets.T)


def test_transport_shifts_datum():
    eq = pde.transport()
    sheet = pde.integrate_characteristics(eq, np.linspace(0, 2 * np.pi, 20), (0, 0.5), 1e-2, [0, 0.5])
    for x0, xs, ys, dets in _strips(sheet):
        assert xs[-1, 0] == pytest.approx(x0[0] + 0.5, abs=1e-10)
        assert ys[-1] == pytest.approx(math.sin(x0[0]), abs=1e-12)
        assert dets[-1] == pytest.approx(1.0, abs=1e-10)


def test_burgers_characteristics_are_lines():
    eq = pde.burgers()
    sheet = pde.integrate_characteristics(eq, [0.5, 1.5], (0, 0.3), 1e-3, [0, 0.3])
    for x0, xs, _, dets in _strips(sheet):
        y0 = math.sin(x0[0])
        assert xs[-1, 0] == pytest.approx(x0[0] + 2 * y0 * 0.3, abs=1e-9)
        # variational determinant is 1 + 2 t cos(x0)
        assert dets[-1] == pytest.approx(1 + 2 * 0.3 * math.cos(x0[0]), abs=1e-8)


@pytest.mark.parametrize("speed", [1.8, 2.0, 2.2])
def test_breaking_time_oracle(speed):
    eq = pde.burgers(speed)
    sheet = pde.integrate_characteristics(eq, np.linspace(0, 2 * np.pi, 400), (0, 1.0), 1e-3, [1.0])
    t_star = pde.breaking_time(sheet)
    # the earliest fold is at x0 = pi, where 1 + speed * t * cos(x0) = 0
    assert t_star == pytest.approx(1 / speed, abs=5e-5)


def test_no_breaking_before_fold():
    eq = pde.burgers()
    sheet = pde.integrate_characteristics(eq, np.linspace(0, 2 * np.pi, 50), (0, 0.4), 1e-3, [0.4])
    assert pde.breaking_time(sheet) is None


def test_multivalued_count_after_breaking():
    eq = pde.burgers()
    sheet = pde.integrate_characteristics(eq, np.linspace(0, 2 * np.pi, 400), (0, 1.0), 1e-3, [0.8, 0.3])
    assert pde.multivalued_count(sheet, math.pi, 0.8) == 3
    assert pde.multivalued_count(sheet, math.pi, 0.3) == 1


def test_rk4_fourth_order_convergence():
    eq = _curved_pde()
    x0 = [0.5, 1.0, 2.0]

    def err(dt):
        sheet = pde.integrate_characteristics(eq, x0, (0, 0.4), dt, [0, 0.4])
        worst = 0.0
        for start, xs, _, _ in _strips(sheet):
            y0 = math.sin(start[0])
            exact = start[0] + 2 * y0 * (math.exp(0.4) - 1)
            worst = max(worst, abs(xs[-1, 0] - exact))
        return worst

    assert err(0.02) / err(0.01) >= 12.0


def test_blowup_guard():
    a = BlockField(3, lambda p: p[0] ** 2, lambda p: np.stack([2 * p[0], 0 * p[0], 0 * p[0]]))
    b = BlockField(3, lambda p: 0.0, lambda p: np.zeros(3))
    phi = BlockField(1, lambda p: 0.0, lambda p: np.zeros(1))
    eq = pde.QuasiLinearPDE(n=1, a=(a,), b=b, phi=phi)
    with pytest.raises(BlowUp):
        pde.integrate_characteristics(eq, [3.0], (0, 2.0), 1e-3, [2.0])


def test_nan_state_is_refused_not_reported_as_no_fold():
    # a = sqrt(x - 1) is NaN on the strip from 0.5, where |x| stays far below
    # BLOWUP; its fold time would read NaN, "no fold"
    root = lambda p: np.sqrt(p[0] - 1)
    a = BlockField(3, root, lambda p: np.stack([0.5 / root(p), 0 * p[0], 0 * p[0]]))
    # the same gradient beside a finite speed: x and y stay finite, det does not
    a_det = BlockField(3, lambda p: 0 * p[0], a.grad_fn)
    b = BlockField(3, lambda p: 0.0, lambda p: np.zeros(3))
    phi = BlockField(1, lambda p: np.sin(p[0]), lambda p: np.cos(p[:1]))
    for speed in (a, a_det):
        eq = pde.QuasiLinearPDE(n=1, a=(speed,), b=b, phi=phi)
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteValue, match=r"x0=array\(\[0\.5\]\) .* t=0\.01$"):
            pde.integrate_characteristics(eq, [0.5, 2.0], (0, 0.1), 1e-2, [0.1])


@pytest.mark.parametrize("missing", ["a[0]", "b", "phi"])
def test_field_without_grad_fn_is_refused_by_name(missing):
    fields = {
        "a[0]": BlockField(3, lambda p: p[1], lambda p: np.array([0.0, 1.0, 0.0])),
        "b": BlockField(3, lambda p: 0.0, lambda p: np.zeros(3)),
        "phi": BlockField(1, lambda p: np.sin(p[0]), lambda p: np.cos(p[:1])),
    }
    # a family's field: a jet on points, with no gradient on blocks
    names = ("x1", "y", "t") if missing != "phi" else ("x1",)
    fields[missing] = field_from_expr(parse_expr(names[0], names), names)
    with pytest.raises(ValueError, match=rf"^{re.escape(missing)} is not a BlockField"):
        pde.QuasiLinearPDE(n=1, a=(fields["a[0]"],), b=fields["b"], phi=fields["phi"])


@pytest.mark.parametrize("boxed", ["a[0]", "b"])
def test_boxed_coefficient_is_refused_by_name(boxed):
    # the RK4 steps never check a coefficient's box: an a boxed to x in
    # [0, 1] would carry a strip from x0 = 3.0 on with no DomainError
    fields = {
        "a[0]": BlockField(3, lambda p: p[1], lambda p: np.array([0.0, 1.0, 0.0])),
        "b": BlockField(3, lambda p: 0.0, lambda p: np.zeros(3)),
    }
    plain = dict(fields)
    fields[boxed] = BlockField(3, plain[boxed].fn, plain[boxed].grad_fn, box=((0.0, 1.0), (-9.0, 9.0), (-9.0, 9.0)))
    # the datum's box is checked at the strip starts, so phi may have one
    phi = BlockField(1, lambda p: np.sin(p[0]), lambda p: np.cos(p[:1]), box=((-5.0, 5.0),))
    with pytest.raises(ValueError, match=rf"^{re.escape(boxed)} has a domain box"):
        pde.QuasiLinearPDE(n=1, a=(fields["a[0]"],), b=fields["b"], phi=phi)
    pde.QuasiLinearPDE(n=1, a=(plain["a[0]"],), b=plain["b"], phi=phi)


def test_tangency_of_geometric_solution():
    # y - sin(x - t) = 0 solves y_t + y_x = 0 with datum sin; expressions are
    # polynomials, so the level set is a jet written out
    def jet_fn(v, with_third):
        x, y, t = v
        s, c = math.sin(x - t), math.cos(x - t)
        return [y - s, -c, 1.0, c, s, 0.0, -s, 0.0, 0.0, 0.0, -s, 0.0, s]

    eq = pde.transport()
    level = ScalarField(3, lambda p: p[1] - math.sin(p[0] - p[2]), jet_fn)
    samples = [
        np.array([x, math.sin(x - t), t])
        for x in np.linspace(0, 6, 12)
        for t in np.linspace(0, 1, 5)
    ]
    for p in samples:
        assert abs(level.value(p)) < 1e-12
        # the characteristic field (a, b, 1) is tangent to the level set
        g = level.grad(p)
        assert abs(g[2] + eq.a[0].fn(p) * g[0] + eq.b.fn(p) * g[1]) < 1e-10


def test_sheet_values_single_valued_early():
    eq = pde.burgers()
    sheet = pde.integrate_characteristics(eq, np.linspace(0, 2 * np.pi, 60), (0, 0.2), 1e-2, [0.2])
    vals = pde.sheet_values(sheet, 0.2)
    order = np.argsort(vals[:, 0])
    assert np.all(np.diff(vals[order, 0]) > -1e-12)


def _burgers_2d(axis):
    """y_t + y y_{x_axis} = 0 in two space variables, y(0, x) = sin x_axis."""
    grad_y = np.zeros(4)
    grad_y[2] = 1.0
    zero = BlockField(4, lambda p: 0.0, lambda p: np.zeros(4))
    wave = BlockField(4, lambda p: p[2], lambda p: grad_y)
    a = (wave, zero) if axis == 0 else (zero, wave)
    dphi = np.eye(2)[axis][:, None]
    phi = BlockField(2, lambda p: np.sin(p[axis]), lambda p: np.cos(p[axis]) * dphi)
    return pde.QuasiLinearPDE(n=2, a=a, b=zero, phi=phi)


@pytest.mark.parametrize("axis", [0, 1])
def test_two_space_variables_fold_at_the_closed_form(axis):
    eq = _burgers_2d(axis)
    grid = np.linspace(0, 2 * np.pi, 40)
    x0 = [(u, v) if axis == 0 else (v, u) for u in grid for v in (-1.0, 0.5)]
    sheet = pde.integrate_characteristics(eq, x0, (0, 1.2), 1e-3, _step_times(1.2, 1e-3))
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
    a = BlockField(3, lambda p: p[0], lambda p: np.array([1.0, 0.0, 0.0]))
    b = BlockField(3, lambda p: 0.0, lambda p: np.zeros(3))
    phi = BlockField(1, lambda p: 0.0, lambda p: np.zeros(1))
    eq = pde.QuasiLinearPDE(n=1, a=(a,), b=b, phi=phi)
    sheet = pde.integrate_characteristics(eq, [-1.0, 2.0], (0, 1.0), 1e-2, _step_times(1.0, 1e-2))
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
        pde=pde.transport(), dt=1.0, ts=np.array([0.0, 0.9]),
        xs=np.stack([np.zeros(S), xs])[:, :, None], ys=np.zeros((2, S)), dets=np.zeros((2, S)),
        folds=np.full(S, np.nan),
    )
    assert pde.multivalued_count(sheet, x_hat, 0.9) == _loop_multivalued_count(xs - x_hat)


def _history_folds(ts, dets):
    """Each strip's first fold time by the rule ``breaking_time`` applied to
    the whole (T, S) determinant history before the sheet was streamed, NaN
    where det keeps its sign."""
    pos, neg = dets > 0, dets < 0
    change = (pos[:-1] & neg[1:]) | (neg[:-1] & pos[1:])  # (T - 1, S)
    cols = np.flatnonzero(change.any(axis=0))
    folds = np.full(dets.shape[1], np.nan)
    i = np.argmax(change[:, cols], axis=0)  # first sign change of each strip
    ta, tb = ts[i], ts[i + 1]
    da, db = dets[i, cols], dets[i + 1, cols]
    folds[cols] = ta + (tb - ta) * da / (da - db)
    return folds


def _assert_streamed_folds_are_the_history_rule(eq, x0, t_end, dt):
    sheet = pde.integrate_characteristics(eq, x0, (0, t_end), dt, _step_times(t_end, dt))
    expected = _history_folds(sheet.ts, sheet.dets)
    assert np.array_equal(sheet.folds, expected, equal_nan=True)
    t_star = pde.breaking_time(sheet)
    if np.isnan(expected).all():
        assert t_star is None
    else:
        assert t_star == float(np.min(expected[~np.isnan(expected)]))  # bit for bit


@pytest.mark.parametrize("speed", [1.8, 2.0, 2.2])
def test_streamed_folds_are_the_history_rule_for_burgers(speed):
    _assert_streamed_folds_are_the_history_rule(pde.burgers(speed), np.linspace(0, 2 * np.pi, 400), 1.0, 1e-3)


@pytest.mark.parametrize("axis", [0, 1])
def test_streamed_folds_are_the_history_rule_in_two_space_variables(axis):
    grid = np.linspace(0, 2 * np.pi, 40)
    x0 = [(u, v) if axis == 0 else (v, u) for u in grid for v in (-1.0, 0.5)]
    _assert_streamed_folds_are_the_history_rule(_burgers_2d(axis), x0, 1.2, 1e-3)


@settings(max_examples=40, deadline=None)
@given(
    x0=st.lists(st.floats(0.0, 2 * np.pi), min_size=1, max_size=30),
    speed=st.sampled_from([1.0, 2.0, 3.0]),
)
def test_streamed_folds_are_the_history_rule_on_drawn_grids(x0, speed):
    # t_end = 0.6: a strip folds only where cos(x0) < -1 / (0.6 speed), so
    # most draws mix strips that fold with strips that do not
    _assert_streamed_folds_are_the_history_rule(pde.burgers(speed), x0, 0.6, 1e-2)


def test_streamed_sheet_peak_memory_is_per_strip():
    x0 = np.linspace(0, 2 * np.pi, 6000)
    tracemalloc.start()
    try:
        sheet = pde.integrate_characteristics(pde.burgers(), x0, (0, 0.7), 1e-3, [0.7])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (701, 6000) histories of x, y and det took about 101 MB
    assert peak < 10 * 2**20
    assert pde.breaking_time(sheet) == pytest.approx(0.5, abs=5e-5)


def test_only_kept_slices_are_answered():
    sheet = pde.integrate_characteristics(pde.burgers(), np.linspace(0, 2 * np.pi, 50), (0, 1.0), 1e-2, [0.8])
    assert pde.multivalued_count(sheet, math.pi, 0.8) == 3
    for t in (0.79, 1.0, 5.0, -2.0):
        with pytest.raises(SliceNotKept):
            pde.multivalued_count(sheet, math.pi, t)
        with pytest.raises(SliceNotKept):
            pde.sheet_values(sheet, t)


@pytest.mark.parametrize("t_range, keep", [((0.3, 0.7), [0.7]), ((0, 0.7), [0.8]), ((0, 0.7), [-0.1])])
def test_datum_at_zero_and_kept_times_inside_the_window(t_range, keep):
    with pytest.raises(ValueError):
        pde.integrate_characteristics(pde.burgers(), [1.0], t_range, 1e-2, keep)


def test_datum_block_checks_raise_the_per_point_errors():
    a = BlockField(3, lambda p: p[1], lambda p: np.array([0.0, 1.0, 0.0]))
    b = BlockField(3, lambda p: 0.0, lambda p: np.zeros(3))
    boxed = BlockField(1, lambda p: np.sin(p[0]), lambda p: np.cos(p[:1]), box=((0.0, 1.0),))
    with pytest.raises(DomainError, match=r"strip start \[2\.0\] exits"):
        pde.integrate_characteristics(pde.QuasiLinearPDE(1, (a,), b, boxed), [0.5, 2.0, 3.0], (0, 0.1), 1e-2, [0.1])
    pole = BlockField(1, lambda p: 1 / p[0], lambda p: -1 / p[:1] ** 2)
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteValue, match=r"array\(\[0\.\]\)"):
        pde.integrate_characteristics(pde.QuasiLinearPDE(1, (a,), b, pole), [1.0, 0.0], (0, 0.1), 1e-2, [0.1])


def test_blowup_names_the_strip_whose_y_crosses():
    # y' = y^2 from y0 = 1 / x0: the strip from 0.5 blows up at t = 0.5, while
    # x stays at x0 and the strip from 2.0 has the larger |x|
    a = BlockField(3, lambda p: 0.0, lambda p: np.zeros(3))
    b = BlockField(3, lambda p: p[1] ** 2, lambda p: np.stack([0 * p[0], 2 * p[1], 0 * p[0]]))
    phi = BlockField(1, lambda p: 1 / p[0], lambda p: -1 / p[:1] ** 2)
    eq = pde.QuasiLinearPDE(n=1, a=(a,), b=b, phi=phi)
    with pytest.raises(BlowUp, match=r"x0=array\(\[0\.5\]\) exceeded 1000\.0 at t=0\.5"):
        pde.integrate_characteristics(eq, [0.5, 2.0], (0, 1.0), 1e-3, [1.0])


def _full_row_rhs(eq, Z, out, work):
    """The right-hand side on the rows [M; w; x; y; t], every row written."""
    n = eq.n
    P = Z[n * n + n :]
    M = Z[: n * n].reshape(n, n, -1)
    w = Z[n * n : n * n + n]
    dM = out[: n * n].reshape(n, n, -1)
    dw = out[n * n : n * n + n]
    for i, ai in enumerate(eq.a):
        out[n * n + n + i] = ai.fn(P)
        g = ai.grad_fn(P)
        np.multiply(g[n], w, out=dM[i])
        for k in range(n):
            dM[i] += np.multiply(g[k], M[k], out=work)
    out[-1] = eq.b.fn(P)
    g = eq.b.grad_fn(P)
    np.multiply(g[n], w, out=dw)
    for i in range(n):
        dw += np.multiply(M[i], g[i], out=work)


def _full_row_characteristics(eq, x0_grid, t_range, dt, keep):
    """The RK4 loop that advances every row of the state on every step: the
    reference for ``integrate_characteristics``, which advances only M and x
    while b is a constant zero.  Returns ``(xs, ys, dets, folds)``."""
    steps = pde.step_count(t_range, dt)
    ts = np.concatenate(([0.0], np.cumsum(np.full(steps, dt))))
    keep = np.asarray(keep, dtype=float).reshape(-1)
    rows = {}
    for r, t_keep in enumerate(keep):
        rows.setdefault(int(np.argmin(np.abs(ts - t_keep))), []).append(r)
    n = eq.n
    X0 = np.asarray(x0_grid, dtype=float).reshape(-1, n)
    S = len(X0)
    Z, Zs = np.empty((2 * n + 2 + n * n, S)), np.empty((2 * n + 2 + n * n, S))
    state, stage = Z[:-1], Zs[:-1]
    M, x, y, xy = Z[: n * n].reshape(n, n, S), Z[n * n + n : -2], Z[-2], Z[n * n + n : -1]
    M[...] = np.eye(n)[:, :, None]
    x[...] = X0.T
    y[...], Z[n * n : n * n + n] = pde._datum(eq.phi, X0)
    K1, K2, K3, K4 = (np.empty_like(state) for _ in range(4))
    work = np.empty((n, S))
    XS, YS, DETS = np.empty((keep.size, S, n)), np.empty((keep.size, S)), np.empty((keep.size, S))
    folds = np.full(S, np.nan)
    unfolded = np.ones(S, dtype=bool)

    def det():
        return M[0, 0].copy() if n == 1 else np.linalg.det(M.transpose(2, 0, 1))

    def record(step, d):
        for r in rows.get(step, ()):
            XS[r], YS[r], DETS[r] = x.T, y, d

    d = det()
    record(0, d)
    for step in range(1, steps + 1):
        t = ts[step - 1]
        Z[-1] = t
        _full_row_rhs(eq, Z, K1, work)
        np.multiply(K1, dt / 2, out=stage)
        stage += state
        Zs[-1] = t + dt / 2
        _full_row_rhs(eq, Zs, K2, work)
        np.multiply(K2, dt / 2, out=stage)
        stage += state
        _full_row_rhs(eq, Zs, K3, work)
        np.multiply(K3, dt, out=stage)
        stage += state
        Zs[-1] = t + dt
        _full_row_rhs(eq, Zs, K4, work)
        K2 *= 2
        K1 += K2
        K3 *= 2
        K1 += K3
        K1 += K4
        K1 *= dt / 6
        state += K1
        big = np.max(np.abs(xy))
        if big > pde.BLOWUP:
            worst = int(np.argmax(np.max(np.abs(xy), axis=0)))
            raise BlowUp(f"trajectory from x0={X0[worst]!r} exceeded {pde.BLOWUP} at t={ts[step]}")
        d_next = det()
        change = np.sign(d) * np.sign(d_next)
        if np.isnan(big + np.min(change)):
            worst = int(np.argmax(np.isnan(xy).any(axis=0) | np.isnan(d_next)))
            raise NonFiniteValue(f"trajectory from x0={X0[worst]!r} is NaN at t={ts[step]}")
        i = np.flatnonzero((change < 0) & unfolded)
        folds[i] = ts[step - 1] + (ts[step] - ts[step - 1]) * d[i] / (d[i] - d_next[i])
        unfolded[i] = False
        record(step, d_next)
        d = d_next
    return XS, YS, DETS, folds


def _outcome(integrate, *args):
    """What ``integrate(*args)`` returns, or the type and text of its error."""
    try:
        return integrate(*args)
    except (BlowUp, NonFiniteValue) as e:
        return type(e), str(e)


def _assert_the_full_row_sheet(eq, x0, t_range, dt, keep, monkeypatch):
    """``integrate_characteristics`` gives the reference's sheet bit for bit,
    signs of zero included, or its error; returns the ``full`` flag of each
    ``_rhs`` call it made, and for each pruned call whether it wrote no
    product into ``work`` (every one of a's x-gradient entries an exact 0)."""
    calls, skipped = [], []
    rhs = pde._rhs

    def logged(eq, Z, out, work, full):
        calls.append(full)
        work.fill(_UNWRITTEN)
        try:
            return rhs(eq, Z, out, work, full)
        finally:
            if not full:
                skipped.append(bool((work == _UNWRITTEN).all()))

    monkeypatch.setattr(pde, "_rhs", logged)
    want = _outcome(_full_row_characteristics, eq, x0, t_range, dt, keep)
    sheet = _outcome(pde.integrate_characteristics, eq, x0, t_range, dt, keep)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert sheet == want
        return calls, skipped
    for got, ref in zip((sheet.xs, sheet.ys, sheet.dets, sheet.folds), want):
        assert np.array_equal(got, ref, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
    return calls, skipped


# a value no product of the scenes below writes into ``_rhs``'s work array
_UNWRITTEN = -1.2345e-300


def _t_switch_b():
    """b is a 0-d 0.0 before t = 0.05 and a 0-d 1.0 from then on."""
    return BlockField(3, lambda p: 0.0 if p[2][0] < 0.05 else 1.0, lambda p: np.zeros(3))


def _overflowing_m():
    """x' = 1000 sin x: the strip from 0 stays put while dx/dx0 = e^{1000 t}
    overflows, and the full rows' w takes 0 * inf."""
    a = BlockField(3, lambda p: 1000 * np.sin(p[0]), lambda p: np.stack([1000 * np.cos(p[0]), 0 * p[0], 0 * p[0]]))
    b = BlockField(3, lambda p: 0.0, lambda p: np.zeros(3))
    phi = BlockField(1, lambda p: np.sin(p[0]), lambda p: np.cos(p[:1]))
    return pde.QuasiLinearPDE(n=1, a=(a,), b=b, phi=phi)


def _overflowing_stage_m():
    """x' = c(t) y from y0 = sin 0 = 0, so x stays 0, with c = 1.5e308 at
    t = 0 and 0 after: one step of dt = 3 takes dx/dx0 = 1 + c t at its
    first stage, where K1 = c w = c, to 1 + 1.5 c, which overflows.  The
    full rows' later stages take 0 * inf = NaN there; leaving that product
    out would give a finite dx/dx0 at t = 3."""
    a = BlockField(
        3,
        lambda p: (1.5e308 if p[2][0] == 0.0 else 0.0) * p[1],
        lambda p: np.array([0.0, 1.5e308 if p[2][0] == 0.0 else 0.0, 0.0]),
    )
    b = BlockField(3, lambda p: 0.0, lambda p: np.zeros(3))
    phi = BlockField(1, lambda p: np.sin(p[0]), lambda p: np.cos(p[:1]))
    return pde.QuasiLinearPDE(n=1, a=(a,), b=b, phi=phi)


_GRID = np.linspace(0, 2 * np.pi, 40)
_GRID_2D = {axis: [(u, v) if axis == 0 else (v, u) for u in _GRID for v in (-1.0, 0.5)] for axis in (0, 1)}


@pytest.mark.parametrize(
    "case",
    ["burgers-6000", "transport", "burgers-2d-0", "burgers-2d-1", "x-prime-x", "curved", "b-switches-on",
     "m-overflows", "stage-m-overflows", "negative-zero-datum"],
)
def test_pruned_rows_give_the_full_row_sheet(case, monkeypatch):
    # the sheet, folds or error of integrate_characteristics, whose pruned
    # stages leave out a's zero x-gradient products, are the full-product
    # loop's bit for bit
    zero = BlockField(3, lambda p: 0.0, lambda p: np.zeros(3))
    sine = BlockField(1, lambda p: np.sin(p[0]), lambda p: np.cos(p[:1]))
    x_prime_x = BlockField(3, lambda p: p[0], lambda p: np.array([1.0, 0.0, 0.0]))
    eq, x0, t_end, dt, pruned = {
        "burgers-6000": (pde.burgers(), np.linspace(0, 2 * np.pi, 6000), 0.7, 1e-3, True),
        "transport": (pde.transport(), _GRID, 1.0, 1e-2, True),
        "burgers-2d-0": (_burgers_2d(0), _GRID_2D[0], 1.2, 1e-2, True),
        "burgers-2d-1": (_burgers_2d(1), _GRID_2D[1], 1.2, 1e-2, True),
        "x-prime-x": (pde.QuasiLinearPDE(1, (x_prime_x,), zero, sine), [-1.0, 2.0], 1.0, 1e-2, True),
        "curved": (_curved_pde(), _GRID, 1.0, 1e-2, False),
        "b-switches-on": (pde.QuasiLinearPDE(1, pde.burgers().a, _t_switch_b(), sine), _GRID, 1.0, 1e-2, False),
        "m-overflows": (_overflowing_m(), [0.0], 2.0, 1e-2, False),
        "stage-m-overflows": (_overflowing_stage_m(), [0.0], 3.0, 3.0, False),
        "negative-zero-datum": (pde.burgers(), [-0.0, 0.0, 1.0], 1.0, 1e-2, None),
    }[case]
    keep = _step_times(t_end, dt)[:: max(1, pde.step_count((0, t_end), dt) // 7)]
    with np.errstate(over="ignore", invalid="ignore"):
        calls, skipped = _assert_the_full_row_sheet(eq, x0, (0, t_end), dt, keep, monkeypatch)
    # every pruned call leaves out every product, but where a's x-gradient
    # is not an exact zero: x' = x, and m-overflows' gradient rows per strip
    assert skipped == [case not in ("x-prime-x", "m-overflows")] * len(skipped)
    if pruned is None:  # a -0.0 in the datum: every row from the start
        assert all(calls)
    elif pruned:
        assert not any(calls)
    else:  # a pruned run, given up at a stage, then every row from the datum
        given_up = calls.index(True)
        assert given_up > 0 and calls == [False] * given_up + [True] * (len(calls) - given_up)
