"""Truncated-jet linear algebra: stability and determinacy checks for
polynomial germs via monomial-basis rank computations."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import expr as ex
from .errors import NotSingularGerm
from .linalg import RANK_EPS, numerical_rank

Monomial = Tuple[int, ...]
Poly = Dict[Monomial, Fraction]


def expand(e: ex.Expr, variables: Sequence[str]) -> Poly:
    """Expand an expression tree into {exponent tuple: coefficient}."""
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
            return poly_mul(walk(node.left), walk(node.right))
        if isinstance(node, ex.Pow):
            base = walk(node.base)
            out: Poly = {(0,) * m: Fraction(1)}
            for _ in range(node.exponent):
                out = poly_mul(out, base)
            return out
        raise TypeError(f"unknown node {node!r}")

    return walk(e)


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(i + j for i, j in zip(ka, kb))
            out[k] = out.get(k, Fraction(0)) + ca * cb
    return {k: c for k, c in out.items() if c != 0}


def mono_shift(p: Poly, mono: Monomial) -> Poly:
    return {tuple(i + j for i, j in zip(k, mono)): c for k, c in p.items()}


@dataclass(frozen=True)
class JetSpace:
    """Polynomials of degree <= degree in the given variables, with a
    graded-lexicographic monomial basis."""

    variables: Tuple[str, ...]
    degree: int

    @property
    def basis(self) -> List[Monomial]:
        m = len(self.variables)
        out = []
        for d in range(self.degree + 1):
            level = [
                e
                for e in itertools.product(range(d + 1), repeat=m)
                if sum(e) == d
            ]
            out.extend(sorted(level, reverse=True))
        return out

    @property
    def dim(self) -> int:
        return math.comb(len(self.variables) + self.degree, self.degree)

    def project(self, p: Poly) -> np.ndarray:
        """Coefficient vector; monomials above the degree bound are dropped."""
        idx = {mono: i for i, mono in enumerate(self.basis)}
        v = np.zeros(len(idx))
        for k, c in p.items():
            if sum(k) <= self.degree:
                v[idx[k]] = float(c)
        return v

    def monomial_name(self, mono: Monomial) -> str:
        parts = []
        for v, e in zip(self.variables, mono):
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append(f"{v}^{e}")
        return "*".join(parts) if parts else "1"


@dataclass
class VersalityReport:
    passes: bool
    codimension_defect: int
    witnesses: List[str]


def _q_variables(f: ex.Expr, dfdx: Sequence[ex.Expr], explicit=None) -> Tuple[str, ...]:
    if explicit is not None:
        return tuple(explicit)
    names = set(f.variables())
    for g in dfdx:
        names |= g.variables()
    if not names:
        raise NotSingularGerm("germ has no variables")
    return tuple(sorted(names))

def _check_singular(fpoly: Poly, m: int):
    zero = (0,) * m
    if fpoly.get(zero, Fraction(0)) != 0:
        raise NotSingularGerm("germ does not vanish at the origin")
    for k, c in fpoly.items():
        if sum(k) == 1 and c != 0:
            raise NotSingularGerm("germ has non-zero gradient at the origin")


def _span_report(space: JetSpace, rows: List[np.ndarray], eps: float) -> VersalityReport:
    dim = space.dim
    A = np.array([r for r in rows if np.any(r != 0.0)])
    if A.size == 0:
        return VersalityReport(False, dim, [space.monomial_name(b) for b in space.basis])
    rank = numerical_rank(A, eps)
    defect = dim - rank
    witnesses: List[str] = []
    if defect:
        # residual of each basis direction against the row space
        _, s, vt = np.linalg.svd(A)
        r = int(np.sum(s > eps * s[0])) if s.size and s[0] > 0 else 0
        V = vt[:r]
        res = 1.0 - np.sum(V**2, axis=0)
        order = np.argsort(-res)[:defect]
        witnesses = [space.monomial_name(space.basis[i]) for i in sorted(order)]
    return VersalityReport(passes=defect == 0, codimension_defect=defect, witnesses=witnesses)


def _jacobian_rows(
    space: JetSpace, qvars: Sequence[str], f: ex.Expr
) -> List[np.ndarray]:
    """Vectors of m * df/dq_i over all basis monomials m of the jet space."""
    rows = []
    for v in qvars:
        dpoly = expand(f.diff(v), space.variables)
        if not dpoly:
            continue
        for mono in space.basis:
            rows.append(space.project(mono_shift(dpoly, mono)))
    return rows


def lagrangian_stability_check(
    f: ex.Expr,
    dfdx: Sequence[ex.Expr],
    ell: int,
    variables: Optional[Sequence[str]] = None,
    eps: float = RANK_EPS,
) -> VersalityReport:
    """Does {m * df/dq_i} + span{dF/dx_j at 0} + constants fill the jet space?

    The affirmative answer is the infinitesimal-versality form of stability
    of the unfolding whose initial velocities are ``dfdx``.
    """
    qvars = _q_variables(f, dfdx, variables)
    fpoly = expand(f, qvars)
    _check_singular(fpoly, len(qvars))
    space = JetSpace(tuple(qvars), ell)
    rows = _jacobian_rows(space, qvars, f)
    for g in dfdx:
        rows.append(space.project(expand(g, qvars)))
    const: Poly = {(0,) * len(qvars): Fraction(1)}
    rows.append(space.project(const))
    return _span_report(space, rows, eps)


def _determinacy_defect(f: ex.Expr, qvars: Sequence[str], ell: int, eps: float) -> int:
    space = JetSpace(tuple(qvars), ell)
    rows = _jacobian_rows(space, qvars, f)
    fpoly = expand(f, qvars)
    for mono in space.basis:
        rows.append(space.project(mono_shift(fpoly, mono)))
    A = np.array([r for r in rows if np.any(r != 0.0)])
    rank = numerical_rank(A, eps) if A.size else 0
    return space.dim - rank


def k_determinacy_dimension(
    f: ex.Expr,
    ell: int,
    variables: Optional[Sequence[str]] = None,
    eps: float = RANK_EPS,
) -> float:
    """Codimension of {m * df/dq_i} + {m * f} in the jet space (the local
    algebra dimension, counting the constant class).

    Returns ``float('inf')`` when the defect still grows from degree ``ell``
    to ``ell + 1`` — a non-isolated singularity at any finite truncation.
    """
    qvars = _q_variables(f, (), variables)
    _check_singular(expand(f, qvars), len(qvars))
    d0 = _determinacy_defect(f, qvars, ell, eps)
    d1 = _determinacy_defect(f, qvars, ell + 1, eps)
    if d1 > d0:
        return float("inf")
    return d0


def sp_plus_versality_check(
    f: ex.Expr,
    dfdx: Sequence[ex.Expr],
    ell: int,
    variables: Optional[Sequence[str]] = None,
    eps: float = RANK_EPS,
) -> VersalityReport:
    """Versality of the time-extended unfolding: in the (q, t) jet space the
    span of {m * df/dq_i}, {m * (f - t)}, the initial velocities and constants
    must be everything."""
    qvars = _q_variables(f, dfdx, variables)
    fpoly = expand(f, qvars)
    _check_singular(fpoly, len(qvars))
    allvars = tuple(qvars) + ("t",)
    space = JetSpace(allvars, ell)
    rows = _jacobian_rows(space, qvars, f)
    fbar = expand(ex.sub(f, ex.Var("t")), allvars)
    for mono in space.basis:
        rows.append(space.project(mono_shift(fbar, mono)))
    for g in dfdx:
        rows.append(space.project(expand(g, allvars)))
    const: Poly = {(0,) * len(allvars): Fraction(1)}
    rows.append(space.project(const))
    return _span_report(space, rows, eps)
