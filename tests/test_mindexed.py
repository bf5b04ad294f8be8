"""Wronskian construction of the multi-indexed polynomials.

Pinned low-order cases are written out by hand (degree-1 denominators,
the two quartic two-seed denominators and their factored special cases),
and the closed-form leading coefficients / degree formulas / parameter-
shift identities are checked against the constructed polynomials over a
battery of index sets.
"""

from fractions import Fraction

import pytest

from mipoly.exact import ParamPoint, Poly, RatFunc, pochhammer
from mipoly.families import (
    GenericityViolation,
    classical_poly,
    delta_shift,
    twisted,
)
from mipoly.gauged import wronskian
from mipoly.mindexed import (
    HALF,
    DegenerateLeading,
    IndexSet,
    check_genericity,
    mi_poly,
    mj_function,
    p_leading,
    pi_factor,
    plusdelta_constant,
    seed_functions,
    xi_leading,
    xi_poly,
    _xi_exponents,
)

from oracles import GaugedFn

F = Fraction

L_SETS = [
    IndexSet("L", (1,), ()),
    IndexSet("L", (2,), ()),
    IndexSet("L", (), (1,)),
    IndexSet("L", (), (2,)),
    IndexSet("L", (1, 2), ()),
    IndexSet("L", (1,), (1,)),
    IndexSet("L", (1,), (2,)),
    IndexSet("L", (2,), (1,)),
    IndexSet("L", (), (1, 2)),
    IndexSet("L", (1, 2, 3), ()),
    IndexSet("L", (1, 3), (2,)),
]
J_SETS = [IndexSet("J", D.type1, D.type2) for D in L_SETS]

LG = ParamPoint("L", g=F(7, 3))
JG = ParamPoint("J", g=F(7, 3), h=F(9, 4))


def test_index_set_validation():
    D = IndexSet("L", (3, 1), (2,))
    assert D.type1 == (1, 3)          # sorted on construction
    assert (D.s1, D.s2, D.size) == (2, 1, 3)
    assert D.ell == 6 - 3 + 4
    assert D.entries() == [("I", 1), ("I", 3), ("II", 2)]
    assert D.drop(1) == IndexSet("L", (1,), (2,))
    assert D.label() == "1I,3I,2II"
    with pytest.raises(ValueError):
        IndexSet("H", (1,), ())
    with pytest.raises(ValueError):
        IndexSet("L", (1, 1), ())
    with pytest.raises(ValueError):
        IndexSet("L", (-1,), ())


def test_index_set_parse():
    assert IndexSet.parse("L", "1I,2II") == IndexSet("L", (1,), (2,))
    assert IndexSet.parse("J", " 3II, 1I ,2I") == IndexSet("J", (1, 2), (3,))
    assert IndexSet.parse("L", "") == IndexSet("L", (), ())
    with pytest.raises(ValueError):
        IndexSet.parse("L", "1III")
    with pytest.raises(ValueError):
        IndexSet.parse("L", "x2I")


def test_family_mismatch_rejected():
    with pytest.raises(ValueError):
        xi_poly(LG, IndexSet("J", (1,), ()))


def test_empty_index_set_is_classical():
    D = IndexSet("L", (), ())
    assert xi_poly(LG, D) == Poly.one()
    for n in range(5):
        assert mi_poly(LG, D, n) == classical_poly(LG, n)
        assert pi_factor(LG, D, n) == 1
    DJ = IndexSet("J", (), ())
    assert xi_poly(JG, DJ) == Poly.one()
    assert mi_poly(JG, DJ, 3) == classical_poly(JG, 3)


@pytest.mark.parametrize("g", [F(7, 3), F(2)])
def test_single_type1_laguerre_pinned(g):
    pp = ParamPoint("L", g=g)
    D = IndexSet("L", (1,), ())
    assert xi_poly(pp, D) == Poly([g + F(1, 2), 1])
    assert mi_poly(pp, D, 0) == Poly([-(g + F(3, 2)), -1])
    assert mi_poly(pp, D, 1) == \
        Poly([-(g + F(1, 2)) * (g + F(5, 2)), 0, 1])
    for n in range(6):
        assert pi_factor(pp, D, n) == 4 * (n + g + F(3, 2))


def test_single_seed_jacobi_is_twisted_classical():
    # with one seed the Wronskian collapses and Xi is the seed polynomial
    for v in (1, 2, 3):
        assert xi_poly(JG, IndexSet("J", (v,), ())) == \
            classical_poly(twisted(JG, "I"), v)
        assert xi_poly(JG, IndexSet("J", (), (v,))) == \
            classical_poly(twisted(JG, "II"), v)


def _laguerre_two_seed_quartic(g):
    return Poly([
        pochhammer(g - F(5, 2), 4),
        2 * pochhammer(g - F(5, 2), 2) * (2 * g + 1),
        (g - F(5, 2)) * (6 * g - 1),
        2 * (2 * g - 3),
        1,
    ])


@pytest.mark.parametrize("g", [F(7, 3), F(1, 4), F(3)])
def test_laguerre_two_seed_quartic(g):
    pp = ParamPoint("L", g=g)
    xi = xi_poly(pp, IndexSet("L", (1,), (2,)))
    assert -2 * xi == _laguerre_two_seed_quartic(g)


@pytest.mark.parametrize("g,factored", [
    (F(-1, 2), Poly([0, 0, 1]) * Poly([-2, 1]) * Poly([-6, 1])),
    (F(3, 2), Poly([0, 0, 1]) * Poly([-8, 0, 1])),
    (F(5, 2), Poly([0, 0, 0, 1]) * Poly([4, 1])),
    (F(-13, 2), Poly([-6, 1]) ** 3 * Poly([-14, 1])),
])
def test_laguerre_quartic_degenerate_factorizations(g, factored):
    pp = ParamPoint("L", g=g)
    xi = xi_poly(pp, IndexSet("L", (1,), (2,)))
    assert -2 * xi == factored
    assert -2 * xi == _laguerre_two_seed_quartic(g)


@pytest.mark.parametrize("g,h", [(F(7, 3), F(9, 4)), (F(5, 2), F(2, 3))])
def test_jacobi_two_seed_quartic(g, h):
    a, b = g + h, g - h
    pp = ParamPoint("J", g=g, h=h)
    xi = xi_poly(pp, IndexSet("J", (1,), (2,)))
    expect = Poly([
        a ** 3 * (a - 4) + 2 * a * a * (b - 3) - 4 * a * (b - 5)
        - (b - 3) * (b - 1),
        4 * (a - 1) * (b - 1) * (a * (a - 2) + b - 3),
        2 * (b - 1) * (a * (a - 2) * (3 * b - 4) + (b + 4) * (b - 3)),
        4 * (a - 1) * (b - 3) * (b - 1) * b,
        (b - 4) * (b - 3) * (b - 1) * (b + 2),
    ])
    assert 64 * xi == expect


@pytest.mark.parametrize("pp,sets", [(LG, L_SETS), (JG, J_SETS)],
                         ids=["L", "J"])
def test_degrees_and_leading_coefficients(pp, sets):
    for D in sets:
        xi = xi_poly(pp, D)
        assert xi.degree == D.ell, D.label()
        assert xi.lc() == xi_leading(pp, D), D.label()
        for n in range(4):
            p = mi_poly(pp, D, n)
            assert p.degree == D.ell + n, (D.label(), n)
            assert p.lc() == p_leading(pp, D, n), (D.label(), n)


@pytest.mark.parametrize("pp,sets", [(LG, L_SETS), (JG, J_SETS)],
                         ids=["L", "J"])
def test_lowest_state_is_shifted_denominator(pp, sets):
    # P_{D,0} at lambda equals a constant times Xi_D at lambda + delta
    for D in sets:
        lhs = mi_poly(pp, D, 0)
        rhs = plusdelta_constant(pp, D) * xi_poly(delta_shift(pp), D)
        assert lhs == rhs, D.label()


def test_plusdelta_constants_pinned():
    assert plusdelta_constant(LG, IndexSet("L", (1,), ())) == -1
    g = LG.g
    assert plusdelta_constant(LG, IndexSet("L", (), (2,))) == g - F(5, 2)
    h = JG.h
    assert plusdelta_constant(JG, IndexSet("J", (1,), ())) == \
        (h - F(3, 2)) / 2


def test_genericity_battery_params():
    for D in L_SETS:
        check_genericity(LG, D, 10)
        check_genericity(delta_shift(LG), D, 10)
    for D in J_SETS:
        check_genericity(JG, D, 10)
        check_genericity(delta_shift(JG), D, 10)


def test_genericity_failures_at_special_parameters():
    D = IndexSet("L", (1,), (2,))
    # pi_D hits zero at finite n when g - 5/2 is a nonpositive integer
    with pytest.raises(GenericityViolation):
        check_genericity(ParamPoint("L", g=F(-1, 2)), D, 10)   # pi(3) = 0
    with pytest.raises(GenericityViolation):
        check_genericity(ParamPoint("L", g=F(3, 2)), D, 10)    # pi(1) = 0
    with pytest.raises(GenericityViolation):
        check_genericity(ParamPoint("L", g=F(5, 2)), D, 10)    # c^P_0 = 0
    with pytest.raises(GenericityViolation):
        check_genericity(ParamPoint("L", g=F(-13, 2)), D, 10)  # pi(9) = 0


def test_degenerate_leading_detected():
    # at g = 5/2 the n = 0 member degenerates to the zero polynomial
    pp = ParamPoint("L", g=F(5, 2))
    D = IndexSet("L", (1,), (2,))
    with pytest.raises(DegenerateLeading):
        mi_poly(pp, D, 0)
    assert mi_poly(pp, D, 0, check_leading=False).is_zero()
    # Xi itself keeps full degree there
    assert xi_poly(pp, D).degree == 4


def test_mj_functions_exist_and_reduce():
    # for a single seed, m_1 is the bare gauge factor (Xi of empty set = 1)
    D = IndexSet("L", (1,), ())
    m1 = mj_function(LG, D, 0)
    assert m1 == mj_function(LG, D, 0)
    assert xi_poly(LG, D.drop(0)) == Poly.one()
    seeds = seed_functions(LG, D)
    assert len(seeds) == 1


def test_pi_factor_products():
    D = IndexSet("J", (1,), (2,))
    for n in range(4):
        expect = ((4 * n * (n + JG.g + JG.h)
                   + 4 * (JG.g + F(3, 2)) * (JG.h - F(3, 2)))
                  * (4 * n * (n + JG.g + JG.h)
                     + 4 * (JG.g - F(5, 2)) * (JG.h + F(5, 2))))
        assert pi_factor(JG, D, n) == expect


@pytest.mark.parametrize("pp", [LG, JG], ids=["L", "J"])
@pytest.mark.parametrize("label", ["", "1I", "1I,2II", "1I,3I,2II"])
def test_mi_poly_replay_matches_full_wronskian(pp, label):
    # mi_poly applies the cached numerators of the seeds to P_n;
    # the oracle is the whole Wronskian times the gauge
    _check_against_full_wronskian(pp, IndexSet.parse(pp.family, label), True)


@pytest.mark.parametrize("pp,label", [
    (ParamPoint("L", g=F(-1, 2)), "1I,2II"),
    (ParamPoint("J", g=F(7, 3), h=F(4, 3)), "1I,3I"),
    (ParamPoint("J", g=F(7, 3), h=F(10, 3)), "2II"),
], ids=["L-half", "J-g-h=1", "J-g-h=-1"])
def test_mi_poly_matches_full_wronskian_at_degenerate_points(pp, label):
    # points where leading coefficients vanish (L g = -1/2) or g - h is
    # an integer (J); the cofactors still give the full Wronskian
    _check_against_full_wronskian(pp, IndexSet.parse(pp.family, label), False)


def _check_against_full_wronskian(pp, D, check_leading):
    seeds = seed_functions(pp, D)
    for n in range(41):
        exps, (num,), den = wronskian(seeds + [((0, 0, 0, 0),
                                                 classical_poly(pp, n))])
        w = GaugedFn(*exps, r=RatFunc(num, den))
        assert mi_poly(pp, D, n, check_leading=check_leading) \
            == (w * GaugedFn(*_xi_exponents(pp, D, HALF))).as_poly(), n
