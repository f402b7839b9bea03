"""Truncated-jet linear algebra: stability and determinacy checks for
polynomial germs via exact ranks over Q of monomial-basis spans."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from . import expr as ex
from .errors import NotSingularGerm
from .linalg import numerical_rank  # noqa: F401  (perfbench/tracing.py wraps jets.numerical_rank by name)

Monomial = Tuple[int, ...]
Poly = Dict[Monomial, Fraction]
Row = Dict[int, Fraction]  # sparse coordinates {basis index: coefficient}


def expand(e: ex.Expr, variables: Sequence[str], degree: int) -> Poly:
    """Expand an expression tree into {exponent tuple: coefficient}, keeping
    the monomials of total degree at most ``degree``.  Products drop the
    monomials above it as they form them, so a high power costs no more
    than its low-degree part; the kept coefficients are exact, since no
    monomial above the cut is a factor of one below it."""
    index = {v: i for i, v in enumerate(variables)}
    m = len(variables)

    def walk(node) -> Poly:
        if isinstance(node, ex.Num):
            return {(0,) * m: node.value} if node.value != 0 else {}
        if isinstance(node, ex.Var):
            exp = [0] * m
            exp[index[node.name]] = 1
            return {tuple(exp): Fraction(1)}
        if isinstance(node, ex.Neg):
            return {k: -c for k, c in walk(node.operand).items()}
        if isinstance(node, (ex.Add, ex.Sub)):
            left, right = walk(node.left), walk(node.right)
            sign = 1 if isinstance(node, ex.Add) else -1
            out = dict(left)
            for k, c in right.items():
                out[k] = out.get(k, Fraction(0)) + sign * c
            return {k: c for k, c in out.items() if c != 0}
        if isinstance(node, ex.Mul):
            return poly_mul(walk(node.left), walk(node.right), degree)
        if isinstance(node, ex.Pow):
            base = walk(node.base)
            out: Poly = {(0,) * m: Fraction(1)}
            for _ in range(node.exponent):
                out = poly_mul(out, base, degree)
            return out
        raise TypeError(f"unknown node {node!r}")

    return walk(e)


def poly_mul(a: Poly, b: Poly, degree: int) -> Poly:
    """The product of ``a`` and ``b`` without its monomials of total degree
    above ``degree``."""
    out: Poly = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(i + j for i, j in zip(ka, kb))
            if sum(k) > degree:
                continue
            out[k] = out.get(k, Fraction(0)) + ca * cb
    return {k: c for k, c in out.items() if c != 0}


def mono_shift(p: Poly, mono: Monomial) -> Poly:
    return {tuple(i + j for i, j in zip(k, mono)): c for k, c in p.items()}


def _monomials(m: int, d: int) -> Iterator[Monomial]:
    """Exponent tuples of m variables with sum d, lexicographically descending."""
    if m == 0:
        if d == 0:
            yield ()
        return
    for e in range(d, -1, -1):
        for rest in _monomials(m - 1, d - e):
            yield (e,) + rest


@dataclass(frozen=True)
class JetSpace:
    """Polynomials of degree <= degree in the given variables, with a
    graded-lexicographic monomial basis."""

    variables: Tuple[str, ...]
    degree: int

    @cached_property
    def basis(self) -> List[Monomial]:
        m = len(self.variables)
        return [mono for d in range(self.degree + 1) for mono in _monomials(m, d)]

    @cached_property
    def index(self) -> Dict[Monomial, int]:
        return {mono: i for i, mono in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return math.comb(len(self.variables) + self.degree, self.degree)

    def project(self, p: Poly) -> Row:
        """Sparse coordinates; monomials above the degree bound are dropped."""
        idx = self.index
        return {idx[k]: c for k, c in p.items() if k in idx}

    def monomial_name(self, mono: Monomial) -> str:
        parts = []
        for v, e in zip(self.variables, mono):
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append(f"{v}^{e}")
        return "*".join(parts) if parts else "1"


def row_echelon(rows: Iterable[Row]) -> Dict[int, Row]:
    """Exact row echelon form over Q of sparse rows.

    Each row is reduced against the pivot rows, keyed by their highest basis
    index and scaled to 1 there; a row that does not reduce to zero becomes a
    new pivot.  The number of pivots is the rank of the rows.
    """
    pivots: Dict[int, Row] = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = max(row)
            c = row[lead]
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = {j: v / c for j, v in row.items()}
                break
            for j, v in piv.items():
                r = row.get(j, 0) - c * v
                if r:
                    row[j] = r
                else:
                    del row[j]
    return pivots


@dataclass
class VersalityReport:
    passes: bool
    codimension_defect: int
    witnesses: List[str]


def _check_singular(fpoly: Poly, m: int):
    """Refuse a germ with a constant or a linear term: ``fpoly`` needs only
    its monomials of degree at most 1."""
    zero = (0,) * m
    if fpoly.get(zero, Fraction(0)) != 0:
        raise NotSingularGerm("germ does not vanish at the origin")
    for k, c in fpoly.items():
        if sum(k) == 1 and c != 0:
            raise NotSingularGerm("germ has non-zero gradient at the origin")


def _span_report(space: JetSpace, rows: Iterable[Row]) -> VersalityReport:
    """Verdict on whether the rows span the jet space.  The witnesses are the
    non-pivot basis monomials in basis order: the standard monomials of the
    span, which complement it."""
    pivots = row_echelon(rows)
    witnesses = [space.monomial_name(b) for i, b in enumerate(space.basis) if i not in pivots]
    return VersalityReport(passes=not witnesses, codimension_defect=len(witnesses), witnesses=witnesses)


def _multiples(space: JetSpace, p: Poly) -> Iterator[Row]:
    """Rows of m * p over all basis monomials m of the jet space."""
    if p:
        for mono in space.basis:
            yield space.project(mono_shift(p, mono))


def _jacobian_rows(space: JetSpace, qvars: Sequence[str], f: ex.Expr) -> List[Row]:
    """Rows of m * df/dq_i over all basis monomials m of the jet space."""
    return [row for v in qvars for row in _multiples(space, expand(f.diff(v), space.variables, space.degree))]


def lagrangian_stability_check(
    f: ex.Expr,
    dfdx: Sequence[ex.Expr],
    ell: int,
    variables: Sequence[str],
) -> VersalityReport:
    """Does {m * df/dq_i} + span{dF/dx_j at 0} + constants fill the jet space?

    The affirmative answer is the infinitesimal-versality form of stability
    of the unfolding whose initial velocities are ``dfdx``.
    """
    qvars = tuple(variables)
    _check_singular(expand(f, qvars, 1), len(qvars))
    space = JetSpace(qvars, ell)
    rows = _jacobian_rows(space, qvars, f)
    for g in dfdx:
        rows.append(space.project(expand(g, qvars, ell)))
    const: Poly = {(0,) * len(qvars): Fraction(1)}
    rows.append(space.project(const))
    return _span_report(space, rows)


def _determinacy_report(f: ex.Expr, qvars: Sequence[str], ell: int) -> VersalityReport:
    """Span of {m * df/dq_i} + {m * f}; its witnesses are the standard
    monomials of the local algebra up to degree ``ell``."""
    space = JetSpace(tuple(qvars), ell)
    rows = _jacobian_rows(space, qvars, f)
    rows.extend(_multiples(space, expand(f, qvars, ell)))
    return _span_report(space, rows)


def k_determinacy_dimension(
    f: ex.Expr,
    ell: int,
    variables: Sequence[str],
) -> float:
    """Codimension of {m * df/dq_i} + {m * f} in the jet space (the local
    algebra dimension, counting the constant class).

    Returns ``float('inf')`` when the defect still grows from degree ``ell``
    to ``ell + 1`` — a non-isolated singularity at any finite truncation.
    """
    qvars = tuple(variables)
    _check_singular(expand(f, qvars, 1), len(qvars))
    d0 = _determinacy_report(f, qvars, ell).codimension_defect
    d1 = _determinacy_report(f, qvars, ell + 1).codimension_defect
    if d1 > d0:
        return float("inf")
    return d0


def sp_plus_versality_check(
    f: ex.Expr,
    dfdx: Sequence[ex.Expr],
    ell: int,
    variables: Sequence[str],
) -> VersalityReport:
    """Versality of the time-extended unfolding: in the (q, t) jet space the
    span of {m * df/dq_i}, {m * (f - t)}, the initial velocities and constants
    must be everything."""
    qvars = tuple(variables)
    _check_singular(expand(f, qvars, 1), len(qvars))
    allvars = qvars + ("t",)
    space = JetSpace(allvars, ell)
    rows = _jacobian_rows(space, qvars, f)
    rows.extend(_multiples(space, expand(ex.sub(f, ex.Var("t")), allvars, ell)))
    for g in dfdx:
        rows.append(space.project(expand(g, allvars, ell)))
    const: Poly = {(0,) * len(allvars): Fraction(1)}
    rows.append(space.project(const))
    return _span_report(space, rows)
