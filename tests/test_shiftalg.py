"""Index-shift matrices: faithfulness, powers, and the matrix route.

The columns of eta-multiplication (tridiagonal, from the three-term
recurrence) and of differentiation (strictly degree-lowering) must
reproduce the honest basis expansions of eta P_n and P_n' -- that oracle
never touches the matrix layer.  On top sit the commutator identity on
every column, the closed-form power formulas, the order-reversal of
the operator-to-matrix translation, and finally the matrix route to the
recurrence coefficients, which has to agree entrywise with the direct
expansion route (the acceptance battery checks every route against the
explicit closed-form tables).
"""

import sys
from fractions import Fraction

import pytest

from mipoly.diffop import DiffOp
from mipoly.exact import ETA, ParamPoint, Poly, differentiate
from mipoly.families import (
    classical_poly,
    expand_in_classical,
    jacobi_ank,
    recurrence_abc,
    schrodinger_c1,
    schrodinger_c2,
)
from mipoly.mindexed import IndexSet
import mipoly.shiftalg as shiftalg
from mipoly.recurrence import (recurrence_direct, recurrence_order, theta_op,
                               x_from_y)
from mipoly.shiftalg import (
    DecompositionFailure,
    NormalOrderedShift,
    OpMatrix,
    banded_column,
    bnk_value,
    collapsing_shift,
    column_action,
    delta_matrix,
    delta_power_column,
    flat_map,
    gamma_matrix,
    gamma_power_column,
    normal_form,
    recurrence_bispectral,
)
from mipoly.verify import (commutator_check, power_formulas_check,
                           star_identities_check)

from oracles import matrix_add, op_add, op_derivative

F = Fraction

HERMITE = ParamPoint("H")
LAGUERRES = [ParamPoint("L", g=F(7, 3)), ParamPoint("L", g=F(1, 2)),
             ParamPoint("L", g=F(5, 4)), ParamPoint("L", g=F(3))]
# keep g - h away from integers: the twisted families degenerate there
JACOBIS = [ParamPoint("J", g=F(7, 3), h=F(9, 4)),
           ParamPoint("J", g=F(5, 2), h=F(2, 3)),
           ParamPoint("J", g=F(13, 4), h=F(7, 2)),
           ParamPoint("J", g=F(7, 2), h=F(1, 3))]
ALL_PARAMS = [HERMITE] + LAGUERRES + JACOBIS

LG = ParamPoint("L", g=F(7, 3))
JG = ParamPoint("J", g=F(7, 3), h=F(9, 4))


def _scalar(c):
    return OpMatrix(lambda n: {n: F(c)} if c else {})


IDENTITY = _scalar(1)


# -- faithfulness against basis-expansion oracles ---------------------------


@pytest.mark.parametrize("pp", ALL_PARAMS)
def test_eta_action_matches_expansion(pp):
    mat = delta_matrix(pp)
    for n in range(11):
        want = expand_in_classical(pp, ETA * classical_poly(pp, n))
        assert mat.column(n) == want, n


@pytest.mark.parametrize("pp", ALL_PARAMS)
def test_derivative_action_matches_expansion(pp):
    mat = gamma_matrix(pp)
    for n in range(11):
        want = expand_in_classical(pp, differentiate(classical_poly(pp, n)))
        assert mat.column(n) == want, n


def test_hermite_eta_column_pinned():
    # eta H_1 = 1/2 H_2 + H_0
    assert delta_matrix(HERMITE).column(1) == {2: F(1, 2), 0: F(1)}


def test_laguerre_derivative_entries_all_minus_one():
    mat = gamma_matrix(LG)
    for n in range(9):
        assert mat.column(n) == {m: -1 for m in range(n)}


def test_jacobi_first_subdiagonal_pinned():
    a, b = JG.g - F(1, 2), JG.h - F(1, 2)
    mat = gamma_matrix(JG)
    for n in range(1, 9):
        want = (n + a + b + 1) / 2 * jacobi_ank(a, b, n - 1, 0)
        assert mat.column(n)[n - 1] == want


# -- commutator and cross terms ----------------------------------------------


@pytest.mark.parametrize("pp", ALL_PARAMS)
def test_commutator_checks_pass(pp):
    for name, ok, detail in commutator_check(pp, 20):
        assert ok, (name, detail)


@pytest.mark.parametrize("pp", [HERMITE, LG, JG], ids=["H", "L", "J"])
def test_commutator_holds_past_any_window(pp):
    # untruncated columns: the bracket is the identity as far out as
    # one reads, here n <= 30
    report = commutator_check(pp, 30)
    assert [name for name, _, _ in report] == ["commutator_window",
                                               "cross_terms_vanish"]
    for name, ok, detail in report:
        assert ok, (name, detail)
    assert report[0].detail == f"{pp}; columns n <= 30"


def test_hermite_commutator_exact_everywhere():
    # no collapse correction at all (C_0 = 0): the bracket is the
    # identity on any expansion, not only on a basis column
    d, g = delta_matrix(HERMITE), gamma_matrix(HERMITE)
    bracket = g * d - d * g
    col = {0: F(2), 3: F(-1), 7: F(1, 3), 12: F(5)}
    assert bracket.apply(col) == col


@pytest.mark.parametrize("pp", ALL_PARAMS)
def test_b11_vanishes(pp):
    assert bnk_value(pp, 1, 1) == 0


# -- normal-ordered shift calculus -------------------------------------------


def test_constant_shift_is_translation():
    f = Poly([1, -3, 0, 2])
    s = NormalOrderedShift(Poly([F(5, 2)]))
    assert s.apply(f) == f.compose(Poly([F(5, 2), 1]))


def test_collapsing_shift_evaluates():
    f = Poly([4, 0, 1])  # f(n) = n^2 + 4
    assert collapsing_shift(1).apply(f) == Poly([5])
    assert collapsing_shift(3).apply(f) == Poly([13])


def test_star_composes_applications():
    s1 = NormalOrderedShift(Poly([1, 2]))
    s2 = NormalOrderedShift(Poly([0, 0, 1]))
    f = Poly([2, 1, 1])
    assert s1.star(s2).apply(f) == s1.apply(s2.apply(f))


def test_star_identity_suite():
    for name, ok, detail in star_identities_check(seed=7, trials=10):
        assert ok, (name, detail)


# -- closed-form powers -------------------------------------------------------


@pytest.mark.parametrize("pp", [HERMITE, LG, JG])
def test_power_formulas_agree(pp):
    for name, ok, detail in power_formulas_check(pp, 10):
        assert ok, (name, detail)


def test_delta_power_base_case():
    for n in range(7):
        col = delta_power_column(LG, 1, n)
        assert col[n + 1] == recurrence_abc(LG, n)[0]
        assert col == delta_matrix(LG).column(n)


def test_hermite_derivative_cube_pinned():
    for n in range(10):
        want = {n - 3: 8 * n * (n - 1) * (n - 2)} if n >= 3 else {}
        assert gamma_power_column(HERMITE, 3, n) == want


def test_laguerre_derivative_square_pinned():
    for n in range(10):
        assert gamma_power_column(LG, 2, n) == {n - k: k - 1
                                                for k in range(2, n + 1)}


# -- the operator-to-matrix translation ---------------------------------------


@pytest.mark.parametrize("pp", [HERMITE, LG, JG])
def test_flat_map_of_generators(pp):
    flat_eta = flat_map(DiffOp([ETA]), pp)
    flat_d = flat_map(op_derivative(), pp)
    for n in range(9):
        assert flat_eta.column(n) == delta_matrix(pp).column(n), n
        assert flat_d.column(n) == gamma_matrix(pp).column(n), n


@pytest.mark.parametrize("pp", [HERMITE, LG, JG])
def test_translation_reverses_products(pp):
    # d o eta translates to mat(eta) mat(d) + 1; the same-order product
    # is off by the identity, the reversed one agrees
    d_op, eta_op = op_derivative(), DiffOp([ETA])
    flat_fg = flat_map(d_op.compose(eta_op), pp)
    dmat, gmat = delta_matrix(pp), gamma_matrix(pp)
    same_order = dmat * gmat
    for n in range(9):
        assert flat_fg.column(n) == \
            matrix_add(same_order, IDENTITY).column(n), n
        assert flat_fg.column(n) != same_order.column(n), n
        assert flat_fg.column(n) == (gmat * dmat).column(n), n


@pytest.mark.parametrize("pp", [HERMITE, LG, JG])
def test_flat_map_action_matches_operator(pp):
    # quadratic-coefficient operator applied two ways
    theta = DiffOp([Poly([0, 2, 1]), Poly([3, 0, 0, 1]), Poly([1, 1])])
    flat = flat_map(theta, pp)
    for n in range(12):
        image = theta.apply(classical_poly(pp, n)).as_poly()
        assert flat.column(n) == expand_in_classical(pp, image), n


def _product_flat(theta, pp):
    """Reference: sum_j (sum_i F_ij mat(eta)^i) mat(d)^j by products of
    column maps, the eta-polynomial by Horner."""
    delta, gamma = delta_matrix(pp), gamma_matrix(pp)
    total, gpow = _scalar(0), IDENTITY
    for j, cj in enumerate(theta.poly_coeffs()):
        if j > 0:
            gpow = gamma * gpow
        if cj.is_zero():
            continue
        inner = _scalar(cj.coeffs[-1])
        for coeff in reversed(cj.coeffs[:-1]):
            inner = matrix_add(delta * inner, _scalar(coeff))
        total = matrix_add(total, inner * gpow)
    return total


@pytest.mark.parametrize("pp", [LG, JG])
def test_column_action_matches_dense_products(pp):
    # two-seed Theta: the column action packed by flat_map must agree
    # with the products of the eta- and derivative columns
    D = IndexSet(pp.family, (1,), (2,))
    theta = theta_op(pp, D, x_from_y(pp, D, Poly.one()))
    flat, product = flat_map(theta, pp), _product_flat(theta, pp)
    for n in range(10):
        assert flat.column(n) == product.column(n), n


# -- recurrence coefficients from the matrix route ----------------------------


def test_matrix_route_returns_whole_column(monkeypatch):
    # an operator wider than the recurrence order: its outer entries
    # surface as extra keys instead of being cut to |k| <= L
    D = IndexSet("L", (1,), ())
    X = x_from_y(LG, D, Poly.one())
    assert X.degree == 2
    monkeypatch.setattr(shiftalg, "theta_op",
                        lambda pp, D, X: DiffOp([ETA ** 3]))
    got = recurrence_bispectral(LG, D, X, 4)
    assert {-3, 3} <= set(got)
    assert got != recurrence_direct(LG, D, X, 4)


@pytest.mark.parametrize("pp", [LG, JG])
def test_empty_set_reduces_to_three_term_recurrence(pp):
    D = IndexSet(pp.family, (), ())
    for n in range(5):
        A, B, C = recurrence_abc(pp, n)
        want = {k: v for k, v in ((1, A), (0, B), (-1, C))
                if v != 0 and n + k >= 0}
        assert recurrence_bispectral(pp, D, ETA, n) == want


# -- the bispectral normal form and the banded route --------------------------


BANDED_CASES = [  # (index set, Y, nmax): 1-3 seeds, Y in {1, eta, 1 + eta^2}
    ("1I", Poly([1, 0, 1]), 40),
    ("2II", ETA, 40),
    ("1I,2II", Poly.one(), 40),
    ("1I,3I,2II", Poly.one(), 20),
]


@pytest.mark.parametrize("pp", [LG, JG], ids=["L", "J"])
@pytest.mark.parametrize("label,Y,nmax", BANDED_CASES,
                         ids=[case[0] for case in BANDED_CASES])
def test_banded_columns_equal_column_action(pp, label, Y, nmax):
    D = IndexSet.parse(pp.family, label)
    theta = theta_op(pp, D, x_from_y(pp, D, Y))
    for n in range(nmax + 1):
        assert banded_column(theta, pp, n) == column_action(theta, pp, n), n


@pytest.mark.parametrize("pp", [LG, JG], ids=["L", "J"])
@pytest.mark.parametrize("label,Y", [("1I", ETA), ("1I,2II", Poly([1, 0, 1]))],
                         ids=["1I", "1I,2II"])
def test_normal_form_recomposes_theta(pp, label, Y):
    # sum_b (u_b + v_b K) H0^b rebuilt with DiffOp.compose is Theta again
    D = IndexSet.parse(pp.family, label)
    theta = theta_op(pp, D, x_from_y(pp, D, Y))
    u, v = normal_form(theta, pp)
    c1, c2 = schrodinger_c1(pp), schrodinger_c2(pp)
    h0, k = DiffOp([0, c1, c2]), DiffOp([0, c2])
    total, power = DiffOp(), DiffOp.identity()
    for b in range(len(u)):
        total = op_add(total, power.left_mul(u[b]))
        if b < len(v):
            total = op_add(total, k.compose(power).left_mul(v[b]))
        power = h0.compose(power)
    assert total == theta
    L = recurrence_order(D, Y)
    assert {p.degree for p in u} == {L} and {p.degree for p in v} == {L - 1}


@pytest.mark.parametrize("pp", [LG, JG])
def test_k_column_matches_expansion(pp):
    c2 = schrodinger_c2(pp)
    for m in range(12):
        want = expand_in_classical(
            pp, c2 * differentiate(classical_poly(pp, m)))
        assert shiftalg._k_column(pp, m) == want, m


def test_normal_form_of_a_multiplication():
    assert normal_form(DiffOp([ETA ** 3]), LG) == ((ETA ** 3,), ())


@pytest.mark.parametrize("pp,divisor", [(LG, "Poly(1*eta)"),
                                        (JG, "Poly(1 + -1*eta^2)")])
def test_decomposition_failure_names_order_and_divisor(pp, divisor):
    with pytest.raises(DecompositionFailure) as info:
        normal_form(DiffOp([0, Poly.one()]), pp)
    assert str(info.value) == (
        f"order 1: F_1 = Poly(1) is not divisible by c_2^1 = {divisor}")


def test_matrix_route_is_derivative_free(monkeypatch):
    # the banded route reads Theta and A_m, B_m, C_m, E_m only: no
    # derivative expansion and none of the other routes' expansions
    D = IndexSet("J", (1,), (2,))
    X = x_from_y(JG, D, ETA)
    theta_op(JG, D, X)                       # built before the patches

    def forbidden(*args, **kwargs):
        raise AssertionError("the matrix route must not call this")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("mipoly."):
            for name in ("cnk", "classical_poly", "expand_in_classical",
                         "mi_poly"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
    got = [recurrence_bispectral(JG, D, X, n) for n in range(6)]
    monkeypatch.undo()
    assert got == [recurrence_direct(JG, D, X, n) for n in range(6)]
