"""Recurrence coefficients: direct expansion vs. conjugated-operator route.

The two routes are computationally independent -- one never leaves the
deformed basis, the other conjugates through the classical family -- so
their agreement over a battery of index sets, seed polynomials Y and
degrees n is a strong correctness check on every layer below.  On top of
that, the degree-1 denominator examples have fully explicit closed-form
coefficients which both routes must reproduce, and inadmissible X's must
fail loudly (NotPolynomial from the operator route, NonzeroRemainder from
the direct route).
"""

import sys
from fractions import Fraction

import pytest

from mipoly.exact import ETA, ParamPoint, Poly, differentiate, pochhammer
from mipoly.diffop import DiffOp
from mipoly.families import GenericityViolation
from mipoly.gauged import NotPolynomial
from mipoly.mindexed import (
    DegenerateLeading,
    IndexSet,
    check_genericity,
    mi_poly,
    pi_factor,
    xi_poly,
)
from mipoly.recurrence import (
    NonzeroRemainder,
    expand_in_deformed,
    in_deformed_span,
    recurrence_direct,
    recurrence_order,
    recurrence_via_theta,
    theta_from_x,
    theta_op,
    x_from_y,
)

from oracles import span_solve_deformed

F = Fraction

LG = ParamPoint("L", g=F(7, 3))
JG = ParamPoint("J", g=F(7, 3), h=F(9, 4))

SEED_YS = [Poly.one(), ETA, Poly([1, 0, 1])]

L_SETS = [
    IndexSet("L", (1,), ()),
    IndexSet("L", (), (2,)),
    IndexSet("L", (1, 2), ()),
    IndexSet("L", (1,), (2,)),
    IndexSet("L", (), (1, 2)),
]
J_SETS = [IndexSet("J", D.type1, D.type2) for D in L_SETS]


def test_x_from_y_pinned():
    # single type I Laguerre seed, Y = 1: X = eta (eta + 2g + 1) / 2
    g = LG.g
    X = x_from_y(LG, IndexSet("L", (1,), ()), Poly.one())
    assert X == F(1, 2) * ETA * Poly([2 * g + 1, 1])
    # single type I Jacobi seed, Y = 1, a = g + h, b = g - h:
    # X = eta ((b + 2) eta + 2 (a - 1)) / 4
    a, b = JG.g + JG.h, JG.g - JG.h
    X = x_from_y(JG, IndexSet("J", (1,), ()), Poly.one())
    assert X == F(1, 4) * ETA * Poly([2 * (a - 1), b + 2])
    with pytest.raises(ValueError):
        x_from_y(LG, L_SETS[0], Poly.zero())


@pytest.mark.parametrize("g", [F(7, 3), F(11, 4)])
def test_theta_pinned_single_laguerre_seed(g):
    pp = ParamPoint("L", g=g)
    theta = theta_op(pp, IndexSet("L", (1,), ()), Poly.one())
    gp = g + F(1, 2)
    expect = DiffOp([
        Poly([0, 4 * (g + F(3, 2)) ** 2, 2 * (g + F(7, 2))]),
        Poly([0, -4 * gp * (gp + 1), 2 * g - 3, 2]),
        Poly([0, 0, -4 * gp, -2]),
    ])
    assert theta == expect


@pytest.mark.parametrize("pp,D", [
    (LG, IndexSet("L", (1,), ())),
    (LG, IndexSet("L", (2,), ())),
    (JG, IndexSet("J", (1,), ())),
    (JG, IndexSet("J", (2,), ())),
], ids=["L:1I", "L:2I", "J:1I", "J:2I"])
@pytest.mark.parametrize("Y", SEED_YS, ids=["1", "eta", "eta2+1"])
def test_theta_single_type1_seed_reduction(pp, D, Y):
    # for one type I seed Theta collapses to an explicit second-order form
    d1 = D.type1[0]
    xi = xi_poly(pp, D)
    dxi = differentiate(xi)
    X = x_from_y(pp, D, Y)
    if pp.family == "L":
        g = pp.g
        quarter = DiffOp([
            -(d1 + g + F(1, 2)) * X - ETA * (xi + dxi) * Y,
            Poly([g + F(1, 2), -1]) * X + ETA * xi * Y,
            ETA * X,
        ])
    else:
        g, h = pp.g, pp.h
        a, b = g + h, g - h
        one_m = Poly([1, 0, -1])  # 1 - eta^2
        quarter = DiffOp([
            (d1 * (d1 + 1 + b) - (g + F(1, 2)) * (h - F(1, 2))) * X
            + ((h - F(1, 2)) * Poly([1, -1]) * xi - one_m * dxi) * Y,
            -Poly([b, a + 1]) * X + one_m * xi * Y,
            one_m * X,
        ])
    assert theta_op(pp, D, Y) == quarter.left_mul(-4)


# -- membership ------------------------------------------------------------


@pytest.mark.parametrize("pp,sets", [(LG, L_SETS), (JG, J_SETS)],
                         ids=["L", "J"])
def test_span_membership(pp, sets):
    for D in sets:
        for n in range(5):
            assert in_deformed_span(pp, D, mi_poly(pp, D, n)), (D.label(), n)
        X = x_from_y(pp, D, ETA)
        assert in_deformed_span(pp, D, X * mi_poly(pp, D, 2)), D.label()
        if D.ell > 0:
            assert not in_deformed_span(pp, D, Poly.one()), D.label()
            assert not in_deformed_span(pp, D, ETA), D.label()
    # the empty index set spans everything
    D0 = IndexSet(pp.family, (), ())
    assert in_deformed_span(pp, D0, Poly([3, 1, 2]))


def test_span_test_passes_a_polynomial_outside_the_span():
    # at L g=-1/2, D = 1I: Xi = eta, P_(D,0) = -1 - eta, P_(D,1) = eta^2,
    # so eta P_(D,0) = -eta - eta^2 is no combination of them, yet
    # Htilde of it is the polynomial -4 - 4 eta^2
    pp, D = ParamPoint("L", g=F(-1, 2)), IndexSet.parse("L", "1I")
    check_genericity(pp, D, 2)
    q = ETA * mi_poly(pp, D, 0)
    assert in_deformed_span(pp, D, q)
    with pytest.raises(NonzeroRemainder, match=r"residue Poly\(1\) of degree 0"):
        expand_in_deformed(pp, D, q)


# -- the two routes agree --------------------------------------------------


@pytest.mark.parametrize("pp,sets", [(LG, L_SETS), (JG, J_SETS)],
                         ids=["L", "J"])
def test_direct_and_theta_routes_agree(pp, sets):
    for D in sets:
        for Y in SEED_YS:
            L = recurrence_order(D, Y)
            theta = None
            for n in range(4):
                direct = recurrence_direct(pp, D, Y, n)
                via = recurrence_via_theta(pp, D, Y, n)
                assert direct == via, (D.label(), Y, n)
                assert all(-L <= k <= L for k in direct), (D.label(), Y, n)
                # extremal coefficients survive at generic parameters
                assert direct[L] != 0
                if n - L >= 0:
                    assert direct[-L] != 0


def test_recurrence_order_values():
    assert recurrence_order(IndexSet("L", (1,), ()), Poly.one()) == 2
    assert recurrence_order(IndexSet("L", (1,), (2,)), ETA) == 6
    assert recurrence_order(IndexSet("J", (1, 2), ()), Poly([1, 0, 1])) == 5


def _laguerre_rnk(g, n):
    return {
        2: F(1, 2) * (n + 1) * (n + 2),
        1: -(n + 1) * (2 * g + 2 * n + 3),
        0: F(24 * n * n, 8) + F(4 * (10 * g + 11) * n, 8)
           + (2 * g + 1) * (6 * g + 13) / 8,
        -1: -F(1, 2) * (2 * g + 2 * n - 1) * (2 * g + 2 * n + 3),
        -2: F(1, 8) * (2 * g + 2 * n - 3) * (2 * g + 2 * n + 3),
    }


@pytest.mark.parametrize("g", [F(7, 3), F(9, 2)])
def test_closed_form_coefficients_single_laguerre_seed(g):
    pp = ParamPoint("L", g=g)
    D = IndexSet("L", (1,), ())
    for n in range(5):
        want = {k: v for k, v in _laguerre_rnk(g, n).items() if n + k >= 0}
        assert recurrence_direct(pp, D, Poly.one(), n) == want, n
        assert recurrence_via_theta(pp, D, Poly.one(), n) == want, n


def _jacobi_rnk(g, h, n):
    a, b = g + h, g - h
    return {
        2: (n + 1) * (n + 2) * (b + 2) * pochhammer(a + n, 2)
           * (2 * h + 2 * n - 3)
           / (pochhammer(a + 2 * n, 4) * (2 * h + 2 * n + 1)),
        1: (n + 1) * (a - 1) * (a + n) * (2 * g + 2 * n + 3)
           * (2 * h + 2 * n - 3)
           / (pochhammer(a + 2 * n - 1, 3) * (a + 2 * n + 3)),
        0: (b + 2) / (4 * pochhammer(a + 2 * n - 2, 2)
                      * pochhammer(a + 2 * n + 1, 2))
           * (-b * (b + 4) * (2 * n * (a + n) - (a - 2) * (a - 1))
              + (a + 2 * n - 1) * (a + 2 * n + 1)
              * (2 * n * (a + n) - (a - 2) * (2 * a - 1))),
        -1: (a - 1) * (2 * g + 2 * n - 1) * (2 * g + 2 * n + 3)
            * pochhammer(h + n - F(3, 2), 2)
            / ((a + 2 * n - 3) * pochhammer(a + 2 * n - 1, 3)),
        -2: (b + 2) * (2 * g + 2 * n - 3) * (2 * g + 2 * n + 3)
            * pochhammer(h + n - F(3, 2), 2)
            / (4 * pochhammer(a + 2 * n - 3, 4)),
    }


@pytest.mark.parametrize("g,h", [(F(7, 3), F(9, 4)), (F(5, 2), F(2, 3))])
def test_closed_form_coefficients_single_jacobi_seed(g, h):
    pp = ParamPoint("J", g=g, h=h)
    D = IndexSet("J", (1,), ())
    for n in range(5):
        want = {k: v for k, v in _jacobi_rnk(g, h, n).items() if n + k >= 0}
        assert recurrence_direct(pp, D, Poly.one(), n) == want, n
        assert recurrence_via_theta(pp, D, Poly.one(), n) == want, n


# -- inadmissible inputs fail loudly ---------------------------------------


def test_inadmissible_x_raises_not_polynomial():
    D = IndexSet("L", (1,), ())
    with pytest.raises(NotPolynomial):
        theta_from_x(LG, D, ETA)
    # the first coefficient left with a denominator is named, reduced
    DJ = IndexSet("J", (1,), (2,))
    with pytest.raises(NotPolynomial) as info:
        theta_from_x(JG, DJ, Poly([0, 0, 1]))
    assert str(info.value) == (
        "coefficient of d^0 has denominator Poly(63218401/67650625 + "
        "-702932008/67650625*eta + 514586252/13530125*eta^2 + "
        "-3421870168/67650625*eta^3 + 1277684902/67650625*eta^4 + "
        "117268568/9664375*eta^5 + -91259612/9664375*eta^6 + "
        "-344/1175*eta^7 + 1*eta^8); X is not admissible for 1I,2II")


@pytest.mark.parametrize("pp,label", [(LG, "1I,3I,2II"), (JG, "1I,2II")],
                         ids=["L:1I,3I,2II", "J:1I,2II"])
def test_admissible_theta_reads_no_coefficient(pp, label, monkeypatch):
    # admissibility is read off Theta's lowest-terms denominator: an
    # admissible X never builds the rational coefficients
    def forbidden(self):
        raise AssertionError("an admissible Theta must not read coeffs")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("mipoly"):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    monkeypatch.setattr(DiffOp, "coeffs", property(forbidden))
    theta = theta_op(pp, IndexSet.parse(pp.family, label), Poly.one())
    assert theta.is_polynomial() and theta.order > 0


def test_inadmissible_product_leaves_remainder():
    D = IndexSet("L", (1,), ())
    q = ETA * mi_poly(LG, D, 0)
    with pytest.raises(NonzeroRemainder):
        expand_in_deformed(LG, D, q)
    with pytest.raises(NonzeroRemainder):
        span_solve_deformed(LG, D, q, 6)


def test_span_solve_matches_ladder_when_generic():
    D = IndexSet("L", (1,), (2,))
    X = x_from_y(LG, D, Poly.one())
    q = X * mi_poly(LG, D, 2)
    assert span_solve_deformed(LG, D, q, 9) == expand_in_deformed(LG, D, q)


# -- degenerate parameters: closure survives, ladders do not ----------------


@pytest.mark.parametrize("g,bad_n", [
    (F(-1, 2), 3), (F(3, 2), 1), (F(5, 2), 0), (F(-13, 2), 9),
])
def test_degenerate_parameters_closure(g, bad_n):
    pp = ParamPoint("L", g=g)
    D = IndexSet("L", (1,), (2,))
    Y = Poly.one()
    X = x_from_y(pp, D, Y)
    L = recurrence_order(D, Y)
    for n in {0, 1, bad_n}:
        q = X * mi_poly(pp, D, n, check_leading=False)
        sol = span_solve_deformed(pp, D, q, n + L)
        total = Poly.zero()
        for m, c in sol.items():
            total = total + c * mi_poly(pp, D, m, check_leading=False)
        assert total == q, (g, n)


def test_degenerate_parameter_vanishing_member():
    # At g = -1/2 the member with pi_D(3) = 0 is identically zero: the
    # operator route returns an empty expansion for it (the vanishing
    # channel never reaches the division), the leading-coefficient ladder
    # refuses, and neighbouring relations close without the lost term.
    pp = ParamPoint("L", g=F(-1, 2))
    D = IndexSet("L", (1,), (2,))
    assert pi_factor(pp, D, 3) == 0
    assert mi_poly(pp, D, 3, check_leading=False).is_zero()
    assert recurrence_via_theta(pp, D, Poly.one(), 3) == {}
    with pytest.raises(DegenerateLeading):
        recurrence_direct(pp, D, Poly.one(), 3)
    coeffs = recurrence_via_theta(pp, D, Poly.one(), 2)
    assert 1 not in coeffs  # the n + k = 3 term is gone
    lhs = x_from_y(pp, D, Poly.one()) * mi_poly(pp, D, 2)
    rhs = Poly.zero()
    for k, c in coeffs.items():
        rhs = rhs + c * mi_poly(pp, D, 2 + k, check_leading=False)
    assert lhs == rhs


# -- integrality of the normalized operator --------------------------------


def _assert_integer_coeffs(op: DiffOp, scale: int, label):
    for i, c in enumerate(op.coeffs):
        p = (scale * c).as_poly()
        for coeff in p.coeffs:
            assert coeff.denominator == 1, (label, i, coeff)


# With X = int_0^eta Xi Y (Y = 1) the operator's coefficient denominators
# stay bounded over all integer parameters: 120 clears every one for the
# Laguerre pair below and 960 for the Jacobi pair (minimal uniform
# constants, found by scanning g in [-8, 8] resp. (g, h) in [-3, 8]^2).


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_integrality_laguerre_two_seed(g):
    pp = ParamPoint("L", g=F(g))
    theta = theta_op(pp, IndexSet("L", (1,), (2,)), Poly.one())
    _assert_integer_coeffs(theta, 120, f"g={g}")


@pytest.mark.parametrize("g,h", [(7, 2), (3, 6), (3, 7), (8, 2)])
def test_integrality_jacobi_two_seed(g, h):
    pp = ParamPoint("J", g=F(g), h=F(h))
    theta = theta_op(pp, IndexSet("J", (1,), (2,)), Poly.one())
    _assert_integer_coeffs(theta, 960, f"g={g},h={h}")
