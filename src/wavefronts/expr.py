"""Polynomial expression trees with exact rational coefficients.

Grammar (normative for family files and CLI expression arguments)::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := var | rational | '(' expr ')'

Rational literals are ``123``, ``2/3`` or ``0.5``; all are kept exact
(`fractions.Fraction`) until evaluation, which converts to float.  The product
of nested exponents, as ``6`` in ``(q1^2)^3``, is at most ``MAX_POWER``, and
every variable-free part of a compiled expression lies in the float range.
"""

from __future__ import annotations

import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import ConstantOutOfRange, ExprSyntaxError, UndeclaredVariable

# far above the degree of any family a float evaluation resolves, and far
# below the exponents whose exact constants or derivatives cost seconds
MAX_POWER = 1000


class Expr:
    """Base class for AST nodes. Nodes are immutable and compare structurally."""

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError

    def subst(self, mapping: dict) -> "Expr":
        raise NotImplementedError

    def variables(self) -> set:
        raise NotImplementedError

    def _code(self, index: dict) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return _print(self, leading=True)

    def compile(self, var_order: Sequence[str]) -> Callable:
        """Compile to a fast ``f(v) -> float`` over a flat argument vector."""
        return compile_nested(self, var_order)


@dataclass(frozen=True)
class Num(Expr):
    value: Fraction

    def diff(self, var):
        return Num(Fraction(0))

    def subst(self, mapping):
        return self

    def variables(self):
        return set()

    def _code(self, index):
        v = self.value
        if v.denominator == 1:
            return f"({v.numerator})"
        return f"({v.numerator}/{v.denominator})"


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def diff(self, var):
        return Num(Fraction(1 if var == self.name else 0))

    def subst(self, mapping):
        return mapping.get(self.name, self)

    def variables(self):
        return {self.name}

    def _code(self, index):
        return f"v[{index[self.name]}]"


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr

    def diff(self, var):
        return add(self.left.diff(var), self.right.diff(var))

    def subst(self, mapping):
        return add(self.left.subst(mapping), self.right.subst(mapping))

    def variables(self):
        return self.left.variables() | self.right.variables()

    def _code(self, index):
        return f"({self.left._code(index)} + {self.right._code(index)})"


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr

    def diff(self, var):
        return sub(self.left.diff(var), self.right.diff(var))

    def subst(self, mapping):
        return sub(self.left.subst(mapping), self.right.subst(mapping))

    def variables(self):
        return self.left.variables() | self.right.variables()

    def _code(self, index):
        return f"({self.left._code(index)} - {self.right._code(index)})"


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr

    def diff(self, var):
        return add(
            mul(self.left.diff(var), self.right),
            mul(self.left, self.right.diff(var)),
        )

    def subst(self, mapping):
        return mul(self.left.subst(mapping), self.right.subst(mapping))

    def variables(self):
        return self.left.variables() | self.right.variables()

    def _code(self, index):
        return f"({self.left._code(index)} * {self.right._code(index)})"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def diff(self, var):
        if self.exponent == 0:
            return Num(Fraction(0))
        return mul(
            mul(Num(Fraction(self.exponent)), pow_(self.base, self.exponent - 1)),
            self.base.diff(var),
        )

    def subst(self, mapping):
        return pow_(self.base.subst(mapping), self.exponent)

    def variables(self):
        return self.base.variables()

    def _code(self, index):
        return f"({self.base._code(index)} ** {self.exponent})"


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr

    def diff(self, var):
        return neg(self.operand.diff(var))

    def subst(self, mapping):
        return neg(self.operand.subst(mapping))

    def variables(self):
        return self.operand.variables()

    def _code(self, index):
        return f"(-{self.operand._code(index)})"


_ZERO = Num(Fraction(0))
_ONE = Num(Fraction(1))


def _is_zero(e):
    return isinstance(e, Num) and e.value == 0


def _is_one(e):
    return isinstance(e, Num) and e.value == 1


def add(a: Expr, b: Expr) -> Expr:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_zero(b):
        return a
    if _is_zero(a):
        return neg(b)
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_zero(a) or _is_zero(b):
        return _ZERO
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return Mul(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def pow_(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return base
    if isinstance(base, Num):
        return Num(base.value**exponent)
    return Pow(base, exponent)


# ---------------------------------------------------------------------------
# Printing

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _print(e: Expr, leading: bool = False) -> str:
    return _pp(e, _PREC_ADD, leading)


def _pp(e: Expr, ctx: int, leading: bool) -> str:
    if isinstance(e, Num):
        v = e.value
        body = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        if v < 0:
            body = body if leading and ctx == _PREC_ADD else f"({body})"
        return body
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = _pp(e.operand, _PREC_MUL, False)
        return f"-{inner}" if leading and ctx == _PREC_ADD else f"(-{inner})"
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        s = f"{_pp(e.left, _PREC_ADD, leading)} {op} {_pp(e.right, _PREC_MUL, False)}"
        return s if ctx <= _PREC_ADD else f"({s})"
    if isinstance(e, Mul):
        s = f"{_pp(e.left, _PREC_MUL, False)}*{_pp(e.right, _PREC_POW, False)}"
        return s if ctx <= _PREC_MUL else f"({s})"
    if isinstance(e, Pow):
        s = f"{_pp(e.base, _PREC_ATOM, False)}^{e.exponent}"
        return s if ctx <= _PREC_POW else f"({s})"
    raise TypeError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?(?:/\d+)?)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^()]))"
)


def _literal(convert: Callable, val: str, off: int):
    """``convert(val)`` for a numeric literal at offset ``off``.  A literal with
    more digits than Python converts, or a zero denominator, is an
    ExprSyntaxError."""
    try:
        return convert(val)
    except ZeroDivisionError:
        raise ExprSyntaxError("zero denominator in rational literal", off) from None
    except ValueError:
        raise ExprSyntaxError(f"numeric literal of {len(val)} characters is too long", off) from None


class _Parser:
    def __init__(self, text: str, variables: Iterable[str]):
        self.text = text
        self.variables = set(variables)
        self.pos = 0
        self.tokens = []
        self._tokenize()
        self.i = 0

    def _tokenize(self):
        pos = 0
        n = len(self.text)
        while pos < n:
            if self.text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(self.text, pos)
            if not m or m.start() != pos:
                raise ExprSyntaxError(f"unexpected character {self.text[pos]!r}", pos)
            if m.lastgroup == "number":
                self.tokens.append(("number", m.group("number"), pos))
            elif m.lastgroup == "ident":
                self.tokens.append(("ident", m.group("ident"), pos))
            else:
                self.tokens.append(("op", m.group("op"), pos))
            pos = m.end()
        self.tokens.append(("eof", "", n))

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, off = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"trailing input {val!r}", off)
        return e

    def expr(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            node: Expr = Neg(self.term())
        else:
            node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                node = Mul(node, self.factor())
            else:
                return node

    def factor(self) -> Expr:
        node = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, off = self.advance()
            if kind != "number" or not val.isdigit():
                raise ExprSyntaxError("expected unsigned integer exponent", off)
            exponent = _literal(int, val, off)
            if max(exponent, 1) * _power(node) > MAX_POWER:
                raise ExprSyntaxError(f"nested exponents multiply to more than {MAX_POWER}", off)
            return Pow(node, exponent)
        return node

    def base(self) -> Expr:
        kind, val, off = self.advance()
        if kind == "number":
            if "/" in val and "." in val:
                raise ExprSyntaxError("decimal numerator in rational literal", off)
            return Num(_literal(Fraction, val, off))
        if kind == "ident":
            if val not in self.variables:
                raise UndeclaredVariable(val)
            return Var(val)
        if kind == "op" and val == "(":
            e = self.expr()
            kind, val, off = self.advance()
            if not (kind == "op" and val == ")"):
                raise ExprSyntaxError("expected ')'", off)
            return e
        raise ExprSyntaxError(f"expected variable, number or '(', got {val!r}", off)


def _power(e: Expr) -> int:
    """The largest product of nested exponents in ``e`` (an exponent 0
    counts as 1)."""
    if isinstance(e, Pow):
        return max(e.exponent, 1) * _power(e.base)
    if isinstance(e, Neg):
        return _power(e.operand)
    if isinstance(e, (Add, Sub, Mul)):
        return max(_power(e.left), _power(e.right))
    return 1


def parse_expr(text: str, variables: Iterable[str]) -> Expr:
    """Parse ``text`` over the declared variable names."""
    return _Parser(text, variables).parse()


def family_variables(k: int, n: int) -> list:
    return [f"q{i + 1}" for i in range(k)] + [f"x{j + 1}" for j in range(n)]


def parse_family(text: str, k: int, n: int) -> Expr:
    """Parse a generating-family expression in variables q1..qk, x1..xn."""
    return parse_expr(text, family_variables(k, n))


def compile_nested(exprs, var_order: Sequence[str]) -> Callable:
    """Compile an expression, or a nested list of them, to one fused closure.

    ``f(v)`` returns a float for a single expression and nested tuples of the
    same shape as ``exprs`` otherwise, so a whole gradient or Hessian costs one
    Python call.
    """
    index = {name: i for i, name in enumerate(var_order)}

    def code(e) -> str:
        if isinstance(e, Expr):
            missing = e.variables() - set(index)
            if missing:
                raise UndeclaredVariable(sorted(missing)[0])
            _constant(e)
            return e._code(index)
        return "(" + "".join(code(item) + ", " for item in e) + ")"

    return eval("lambda v: " + code(exprs), {})  # noqa: S307


_OPERATORS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def _constant(e: Expr):
    """The value of ``e`` when it has no variables, else None, computed with
    the Python operations of its compiled code: exact integers, and floats
    from a rational literal on.  Raises ConstantOutOfRange at the first
    variable-free part that is not a finite float."""
    try:
        if isinstance(e, Var):
            return None
        if isinstance(e, Num):
            v = e.value
            c = v.numerator if v.denominator == 1 else v.numerator / v.denominator
        elif isinstance(e, Neg):
            c = _constant(e.operand)
            c = None if c is None else -c
        elif isinstance(e, Pow):
            c = _constant(e.base)
            c = None if c is None else c**e.exponent
        else:
            a, b = _constant(e.left), _constant(e.right)
            c = None if a is None or b is None else _OPERATORS[type(e)](a, b)
        if c is None or abs(c) <= sys.float_info.max:
            return c
    except OverflowError:
        pass
    text = str(e)
    raise ConstantOutOfRange(f"constant {text if len(text) <= 60 else text[:57] + '...'} is outside the float range")

