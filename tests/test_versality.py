import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefronts import expr as ex
from wavefronts import jets
from wavefronts.errors import NotSingularGerm

Q1 = ("q1",)
Q2 = ("q1", "q2")


def p(text, variables=Q1):
    return ex.parse_expr(text, variables)


# Germ catalog: one-variable corank-1 singularities q^(mu+1) with their
# standard unfoldings (initial velocities q^(mu-1), ..., q) and some broken
# ones missing a direction.
CASES = [
    ("q1^2", [], True),
    ("q1^2", ["q1"], True),
    ("q1^3", ["q1"], True),
    ("q1^3", [], False),
    ("q1^4", ["q1^2", "q1"], True),
    ("q1^4", ["q1^2"], False),
    ("q1^4", ["q1"], False),
    ("q1^5", ["q1^3", "q1^2", "q1"], True),
    ("q1^5", ["q1^3", "q1"], False),
    ("q1^5", ["q1^2", "q1"], False),
]


def test_jet_space_dimensions():
    assert jets.JetSpace(Q1, 6).dim == 7
    assert jets.JetSpace(Q2, 3).dim == math.comb(2 + 3, 3)
    assert len(jets.JetSpace(Q2, 4).basis) == jets.JetSpace(Q2, 4).dim


def test_jet_space_projection_exact():
    space = jets.JetSpace(Q2, 3)
    poly = jets.expand(p("2*q1^2*q2 - 1/2*q1 + 3", Q2), Q2)
    v = space.project(poly)
    names = [space.monomial_name(b) for b in space.basis]
    assert v[names.index("1")] == 3.0
    assert v[names.index("q1")] == -0.5
    assert v[names.index("q1^2*q2")] == 2.0


def test_expand_multiplies_correctly():
    a = jets.expand(p("q1 + q2", Q2), Q2)
    sq = jets.poly_mul(a, a)
    assert sq[(2, 0)] == 1 and sq[(1, 1)] == 2 and sq[(0, 2)] == 1


def test_a3_standard_unfolding_passes():
    rep = jets.lagrangian_stability_check(p("q1^4"), [p("q1^2"), p("q1")], 6, variables=Q1)
    assert rep.passes and rep.codimension_defect == 0


def test_a3_deficient_unfolding_witness():
    rep = jets.lagrangian_stability_check(p("q1^4"), [p("q1^2")], 6, variables=Q1)
    assert not rep.passes
    assert rep.codimension_defect == 1
    assert rep.witnesses == ["q1"]


def test_morse_point_needs_no_unfolding():
    rep = jets.lagrangian_stability_check(p("q1^2"), [], 6, variables=Q1)
    assert rep.passes


def test_not_singular_inputs_rejected():
    with pytest.raises(NotSingularGerm):
        jets.lagrangian_stability_check(p("q1^2 + 1"), [], 4, variables=Q1)
    with pytest.raises(NotSingularGerm):
        jets.lagrangian_stability_check(p("q1^2 + q1"), [], 4, variables=Q1)
    with pytest.raises(NotSingularGerm):
        jets.k_determinacy_dimension(p("q1"), 4, variables=Q1)


@pytest.mark.parametrize("mu", [1, 2, 3, 4, 5])
def test_a_mu_determinacy_dimension(mu):
    f = p(f"q1^{mu + 1}")
    assert jets.k_determinacy_dimension(f, 2 * (mu + 1), variables=Q1) == mu


def test_determinacy_examples():
    assert jets.k_determinacy_dimension(p("q1^3"), 6, variables=Q1) == 2
    assert jets.k_determinacy_dimension(p("q1^2 + q2^2", Q2), 6, variables=Q2) == 1


def test_non_isolated_singularity_flagged_infinite():
    f = p("q1^2*q2^2", Q2)
    assert jets.k_determinacy_dimension(f, 6, variables=Q2) == float("inf")


def test_sp_plus_examples():
    assert jets.sp_plus_versality_check(p("q1^3"), [p("q1")], 6, variables=Q1).passes
    assert not jets.sp_plus_versality_check(p("q1^3"), [], 6, variables=Q1).passes


@pytest.mark.parametrize("f_text,dfdx_texts,expected", CASES)
def test_stability_equivalence_catalog(f_text, dfdx_texts, expected):
    f = p(f_text)
    dfdx = [p(s) for s in dfdx_texts]
    lag = jets.lagrangian_stability_check(f, dfdx, 8, variables=Q1)
    sp = jets.sp_plus_versality_check(f, dfdx, 8, variables=Q1)
    assert lag.passes == sp.passes == expected


@pytest.mark.parametrize("f_text,dfdx_texts,expected", CASES[:6])
def test_monotone_in_jet_degree(f_text, dfdx_texts, expected):
    f = p(f_text)
    dfdx = [p(s) for s in dfdx_texts]
    at8 = jets.lagrangian_stability_check(f, dfdx, 8, variables=Q1).passes
    at9 = jets.lagrangian_stability_check(f, dfdx, 9, variables=Q1).passes
    assert at8 == at9 == expected


def test_two_variable_d4_germ():
    # q1^3 - q1 q2^2 with the standard velocities spans
    f = p("q1^3 - q1*q2^2", Q2)
    good = jets.lagrangian_stability_check(
        f, [p(s, Q2) for s in ("q1^2 + q2^2", "q1", "q2")], 6, variables=Q2
    )
    assert good.passes
    bad = jets.lagrangian_stability_check(f, [p("q1", Q2), p("q2", Q2)], 6, variables=Q2)
    assert not bad.passes


def test_rescaled_d4_is_exact():
    f = p("q1^3 + 1/1000000000*q2^3", Q2)
    dfdx = [p(s, Q2) for s in ("q1", "q2", "q1*q2")]
    assert jets.lagrangian_stability_check(f, dfdx, 10, variables=Q2).passes
    assert jets.sp_plus_versality_check(f, dfdx, 10, variables=Q2).passes
    assert jets.k_determinacy_dimension(f, 10, variables=Q2) == 4


def test_rescaled_a3_is_exact():
    f = p("1/1000000000*q1^4")
    dfdx = [p("q1^2"), p("q1")]
    assert jets.lagrangian_stability_check(f, dfdx, 8, variables=Q1).passes
    assert jets.sp_plus_versality_check(f, dfdx, 8, variables=Q1).passes
    assert jets.k_determinacy_dimension(f, 8, variables=Q1) == 3


def test_d4_determinacy_complement_is_its_local_algebra_basis():
    # Arnold, Gusein-Zade & Varchenko, vol. 1: Q(D4) = <1, q1, q2, q1*q2>
    rep = jets._determinacy_report(p("q1^3 + q2^3", Q2), Q2, 6)
    assert rep.witnesses == ["1", "q1", "q2", "q1*q2"]


@st.composite
def _row_sets(draw):
    """A jet space in 2-3 variables and rows of integer polynomials in it,
    some of them integer combinations of the others."""
    m = draw(st.integers(2, 3))
    space = jets.JetSpace(("a", "b", "c")[:m], draw(st.integers(1, 3)))
    term = st.tuples(st.sampled_from(space.basis), st.integers(-3, 3).filter(bool))
    polys = draw(st.lists(st.lists(term, min_size=1, max_size=4), min_size=1, max_size=8))
    rows = [{space.index[mono]: Fraction(c) for mono, c in poly} for poly in polys]
    for coeffs in draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)), max_size=3)):
        combo = {}
        for c, row in zip(coeffs, rows):
            for j, v in row.items():
                combo[j] = combo.get(j, 0) + c * v
        rows.append({j: v for j, v in combo.items() if v})
    return space, rows


def _dense(space, rows):
    return [[row.get(j, 0) for j in range(space.dim)] for row in rows]


@settings(max_examples=150, deadline=None)
@given(_row_sets())
def test_row_echelon_rank_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    space, rows = case
    assert len(jets.row_echelon(rows)) == sympy.Matrix(_dense(space, rows)).rank()
    # the witnesses complement the span
    rep = jets._span_report(space, rows)
    names = [space.monomial_name(b) for b in space.basis]
    units = [{names.index(w): Fraction(1)} for w in rep.witnesses]
    assert rep.codimension_defect == len(units) == space.dim - len(jets.row_echelon(rows))
    assert sympy.Matrix(_dense(space, rows + units)).rank() == space.dim
