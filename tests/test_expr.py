import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefronts import expr as ex
from wavefronts.errors import ConstantOutOfRange, ExprSyntaxError, UndeclaredVariable

V = ("q1", "x1", "x2")


def ev(e, *vals):
    return e.compile(V)(np.array(vals, dtype=float))


def test_parse_and_evaluate_polynomial():
    e = ex.parse_expr("q1^4 + x1*q1^2 + x2*q1", V)
    assert ev(e, 2.0, 3.0, -1.0) == pytest.approx(16 + 12 - 2)


def test_rational_coefficients_kept_exact():
    e = ex.parse_expr("2/3*q1^3", V)
    assert isinstance(e, ex.Mul)
    assert e.left == ex.Num(Fraction(2, 3))
    assert ev(e, 3.0, 0.0, 0.0) == pytest.approx(18.0)


def test_decimal_literal():
    e = ex.parse_expr("0.5*q1", V)
    assert ev(e, 4.0, 0.0, 0.0) == pytest.approx(2.0)


def test_unary_minus_and_precedence():
    e = ex.parse_expr("-q1^2 + 2*x1", V)
    assert ev(e, 3.0, 5.0, 0.0) == pytest.approx(-9 + 10)


def test_differentiation_product_and_power():
    e = ex.parse_expr("q1^4 + x1*q1^2 + x2*q1", V)
    d = e.diff("q1")
    assert ev(d, 2.0, 3.0, -1.0) == pytest.approx(4 * 8 + 6 * 2 - 1)
    assert ev(e.diff("x1"), 2.0, 3.0, -1.0) == pytest.approx(4.0)
    assert ev(e.diff("x2"), 2.0, 3.0, -1.0) == pytest.approx(2.0)


def test_substitution_composes():
    e = ex.parse_expr("v1^2 + v2", ("v1", "v2"))
    g1 = ex.parse_expr("q1 + x1", V)
    g2 = ex.parse_expr("x2", V)
    composed = e.subst({"v1": g1, "v2": g2})
    assert ev(composed, 1.0, 2.0, 5.0) == pytest.approx(9 + 5)


def test_undeclared_variable():
    with pytest.raises(UndeclaredVariable):
        ex.parse_expr("q1 + y", V)


@pytest.mark.parametrize("bad", ["q1 +", "(q1", "q1^-2", "q1 ** 2", "3.5/2"])
def test_syntax_errors_carry_offsets(bad):
    with pytest.raises(ExprSyntaxError) as ei:
        ex.parse_expr(bad, V)
    assert ei.value.offset >= 0


# more digits than Python's int and Fraction convert (4,300 by default)
LONG = "9" * 5000


@pytest.mark.parametrize(
    "text, offset",
    [(f"q1^{LONG}", 3), (f"q1 + {LONG}*x1", 5), (f"q1 + 1/{LONG}", 5), (f"q1 + 0.{LONG}", 5), ("q1 + 1/0", 5)],
)
def test_out_of_range_literals_are_syntax_errors(text, offset):
    with pytest.raises(ExprSyntaxError) as ei:
        ex.parse_expr(text, V)
    assert ei.value.offset == offset


@pytest.mark.parametrize(
    "text, offset", [("q1^1001", 3), ("(q1^20)^51", 8), ("(q1^0)^1001", 7), ("x1 + (2*(q1^10 + x1))^101", 22)]
)
def test_nested_exponents_past_max_power_are_syntax_errors(text, offset):
    assert ex.MAX_POWER == 1000
    with pytest.raises(ExprSyntaxError) as ei:
        ex.parse_expr(text, V)
    assert ei.value.offset == offset


@pytest.mark.parametrize("text", ["x1^400", "q1^1000", "(q1^20)^50", "q1^400*x1^600", "2^1000*q1", "(3/2)^1000*q1"])
def test_powers_up_to_max_power_parse_and_compile(text):
    ex.parse_expr(text, V).compile(V)


@pytest.mark.parametrize(
    "text", ["2^1000*2^1000*q1", "1" + "0" * 400 + "*q1", "q1 + 1" + "0" * 400 + "/3", "(10/3)^700 + q1", "x1*(2^1000*2^24)"]
)
def test_constants_outside_the_float_range_are_named_at_compile(text):
    e = ex.parse_expr(text, V)
    with pytest.raises(ConstantOutOfRange):
        e.compile(V)


def test_printer_round_trips():
    for text in ["q1^4 + x1*q1^2 + x2*q1", "-q1 + 2/3*x1", "(q1 + x1)*(q1 - x2)"]:
        e = ex.parse_expr(text, V)
        again = ex.parse_expr(str(e), V)
        for _ in range(5):
            p = np.random.default_rng(0).uniform(-2, 2, 3)
            assert e.compile(V)(p) == pytest.approx(again.compile(V)(p))


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(-5, 5),
    b=st.integers(-5, 5),
    c=st.integers(1, 4),
    x=st.floats(-2, 2, allow_nan=False),
)
def test_derivative_matches_finite_difference(a, b, c, x):
    e = ex.parse_expr(f"({a})*q1^{c} + ({b})*q1", ("q1",))
    f = e.compile(("q1",))
    d = e.diff("q1").compile(("q1",))
    h = 1e-6 * max(1.0, abs(x))
    fd = (f(np.array([x + h])) - f(np.array([x - h]))) / (2 * h)
    assert d(np.array([x])) == pytest.approx(fd, abs=1e-4)
