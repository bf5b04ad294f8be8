"""Forward/backward intertwining operators and the deformed Hamiltonian."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipoly.exact import ETA, ParamPoint, Poly, RatFunc, poly_divmod
from mipoly.families import classical_poly, energy
from mipoly import diffop
from mipoly.diffop import (
    DenominatorEscape,
    DiffOp,
    backward_apply_via_wronskian,
    backward_op,
    backward_step_eigen,
    forward_op,
    forward_step_eigen,
    htilde_op,
    single_step_backward,
    single_step_forward,
)
from mipoly.families import delta_shift
from mipoly.gauged import NotPolynomial
from mipoly.mindexed import (
    IndexSet,
    _seed_wronskian,
    mi_poly,
    mj_function,
    pi_factor,
    xi_poly,
)
from mipoly.recurrence import theta_op

from oracles import op_add, op_derivative, op_sub

F = Fraction

LG = ParamPoint("L", g=F(7, 3))
JG = ParamPoint("J", g=F(7, 3), h=F(9, 4))

L_SETS = [
    IndexSet("L", (1,), ()),
    IndexSet("L", (), (2,)),
    IndexSet("L", (1, 2), ()),
    IndexSet("L", (1,), (2,)),
    IndexSet("L", (), (1, 2)),
    IndexSet("L", (1, 3), (2,)),
]
J_SETS = [IndexSet("J", D.type1, D.type2) for D in L_SETS]

CASES = [(LG, D) for D in L_SETS] + [(JG, D) for D in J_SETS]
CASE_IDS = [f"{pp.family}:{D.label()}" for pp, D in CASES]


# -- DiffOp algebra --------------------------------------------------------

small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=3)


@st.composite
def small_ops(draw):
    ncoeffs = draw(st.integers(min_value=1, max_value=3))
    coeffs = [Poly(draw(st.lists(small_rationals, min_size=0, max_size=3)))
              for _ in range(ncoeffs)]
    return DiffOp(coeffs)


@st.composite
def small_poly(draw):
    return Poly(draw(st.lists(small_rationals, min_size=0, max_size=4)))


@given(small_ops(), small_ops(), small_poly())
@settings(max_examples=60)
def test_compose_is_application_order(S, T, q):
    assert S.compose(T).apply(q) == S.apply(T.apply(q).as_poly()
                                            if T.apply(q).is_polynomial()
                                            else T.apply(q))


@given(small_ops(), small_ops(), small_ops())
@settings(max_examples=40)
def test_compose_associative(S, T, U):
    assert S.compose(T).compose(U) == S.compose(T.compose(U))


def test_derivative_times_eta_commutator():
    # d o eta - eta o d = 1
    d = op_derivative()
    eta = DiffOp([ETA])
    assert op_sub(d.compose(eta), eta.compose(d)) == DiffOp.identity()


def test_normal_ordering_closed_form():
    # d^j o eta^i = sum_r r! C(i,r) C(j,r) eta^(i-r) d^(j-r)
    import math
    for i in range(4):
        for j in range(4):
            lhs = op_derivative(j).compose(DiffOp([ETA ** i])) \
                if j else DiffOp([ETA ** i])
            expect = DiffOp([])
            for r in range(min(i, j) + 1):
                a = math.factorial(r) * math.comb(i, r) * math.comb(j, r)
                term = DiffOp([Poly.zero()] * (j - r) + [ETA ** (i - r) * a])
                expect = op_add(expect, term)
            assert lhs == expect, (i, j)


def test_apply_and_left_mul():
    op = DiffOp([Poly([1]), ETA])   # 1 + eta d/deta
    q = Poly([0, 0, 3])             # 3 eta^2
    assert op.apply(q) == RatFunc(Poly([0, 0, 9]))
    assert op.left_mul(2).apply(q) == RatFunc(Poly([0, 0, 18]))
    assert DiffOp.identity().apply(q) == RatFunc(q)


def test_common_denominator_is_canonical():
    # 1/eta + 2/(eta (eta + 1)) d, once over its reduced monic
    # denominator, once over a non-monic, non-reduced one
    reduced = DiffOp([Poly([1, 1]), 2], Poly([0, 1, 1]))
    extra = Poly([2, 0, 1]) * 3
    explicit = DiffOp([Poly([1, 1]) * extra, 2 * extra],
                      Poly([0, 1, 1]) * extra)
    assert reduced == explicit
    assert hash(reduced) == hash(explicit)
    assert explicit.den == Poly([0, 1, 1])
    assert explicit.coeffs == (RatFunc(Poly.one(), ETA),
                               RatFunc(Poly([2]), Poly([0, 1, 1])))


# -- the Wronskian-built operators ----------------------------------------


def test_forward_op_single_seed_pinned():
    # for one type I Laguerre seed: Fhat = xi d/deta - (xi + xi')
    g = LG.g
    D = IndexSet("L", (1,), ())
    xi = Poly([g + F(1, 2), 1])
    assert forward_op(LG, D) == DiffOp([Poly([-(g + F(3, 2)), -1]), xi])


def test_backward_op_single_seed_pinned():
    # Bhat = -(4 eta / xi) d/deta - 4 (g + 1/2)/xi
    g = LG.g
    D = IndexSet("L", (1,), ())
    xi = Poly([g + F(1, 2), 1])
    assert backward_op(LG, D) == DiffOp(
        [Poly.const(-4 * (g + F(1, 2))), -4 * ETA], xi)


def test_trivial_index_set_gives_identity():
    assert forward_op(LG, IndexSet("L", (), ())) == DiffOp.identity()
    assert backward_op(JG, IndexSet("J", (), ())) == DiffOp.identity()


@pytest.mark.parametrize("pp,D", CASES, ids=CASE_IDS)
def test_operator_denominators(pp, D):
    # Fhat and Theta are polynomial; Bhat's one denominator divides Xi^M
    assert forward_op(pp, D).den == Poly.one()
    assert theta_op(pp, D, Poly.one()).den == Poly.one()
    _, rem = poly_divmod(xi_poly(pp, D) ** D.size, backward_op(pp, D).den)
    assert rem.is_zero()


@pytest.mark.parametrize("pp,D", CASES, ids=CASE_IDS)
def test_forward_intertwining(pp, D):
    fhat = forward_op(pp, D)
    assert fhat.is_polynomial()
    assert fhat.order == D.size
    for n in range(5):
        got = fhat.apply(classical_poly(pp, n))
        assert got == RatFunc(mi_poly(pp, D, n)), n


def test_seed_numerators_and_fhat_are_one_operator():
    # P_(D,n) reads the bordered Wronskian's numerators R_k, Fhat the
    # wronskian_rows minors: equal as operators, not only on P_n, n <= 5
    from mipoly import cli
    cases = cli._deformed_cases(max(len(cli._L_POOL), len(cli._J_POOL)))
    cases.append((JG, IndexSet.parse("J", "1I,2I,4I,2II")))
    for pp, D in cases:
        assert DiffOp(_seed_wronskian(pp, D)) == forward_op(pp, D), \
            (str(pp), D.label())


@pytest.mark.parametrize("pp,D", CASES, ids=CASE_IDS)
def test_backward_intertwining(pp, D):
    bhat = backward_op(pp, D)
    for n in range(5):
        got = bhat.apply(mi_poly(pp, D, n))
        assert got == RatFunc(pi_factor(pp, D, n) * classical_poly(pp, n)), n


@pytest.mark.parametrize("pp,D", CASES, ids=CASE_IDS)
def test_compositions_are_pi_times_identity(pp, D):
    fhat, bhat = forward_op(pp, D), backward_op(pp, D)
    bf = bhat.compose(fhat)
    fb = fhat.compose(bhat)
    for n in range(4):
        Pn = classical_poly(pp, n)
        assert bf.apply(Pn) == RatFunc(pi_factor(pp, D, n) * Pn)
        PDn = mi_poly(pp, D, n)
        assert fb.apply(PDn) == RatFunc(pi_factor(pp, D, n) * PDn)


@pytest.mark.parametrize("pp,D", CASES, ids=CASE_IDS)
def test_hamiltonian_eigen_relation(pp, D):
    H = htilde_op(pp, D)
    for n in range(5):
        PDn = mi_poly(pp, D, n)
        assert H.apply(PDn) == RatFunc(energy(pp, n) * PDn), n


@pytest.mark.parametrize("pp,D", CASES, ids=CASE_IDS)
def test_hamiltonian_intertwines_with_forward(pp, D):
    # H_D o Fhat = Fhat o H_classical as operators
    trivial = IndexSet(pp.family, (), ())
    fhat = forward_op(pp, D)
    assert htilde_op(pp, D).compose(fhat) == fhat.compose(htilde_op(pp, trivial))


@pytest.mark.parametrize("pp,D", CASES, ids=CASE_IDS)
def test_backward_matches_wronskian_form(pp, D):
    # the cofactor expansion agrees with the unexpanded Wronskian on
    # arbitrary polynomials, not only on the P_{D,n}
    bhat = backward_op(pp, D)
    for q in (Poly.one(), ETA, Poly([3, -2, 1]), Poly([0, 0, 0, 0, 1]),
              Poly([F(1, 3), F(7, 2)])):
        assert backward_apply_via_wronskian(pp, D, q) == bhat.apply(q)


@pytest.mark.parametrize("pp", [LG, JG], ids=["L", "J"])
def test_backward_op_builds_no_wronskian_minor(pp, monkeypatch):
    # Bhat is the dual seeds' bordered Wronskian; only the Xi's it is
    # built from (cached first) and verify's Wronskian form take a minor
    D = IndexSet.parse(pp.family, "1I,3I,2II")
    xi_poly(pp, D)
    for j in range(D.size):
        mj_function(pp, D, j)

    def forbidden(*args, **kwargs):
        raise AssertionError("backward_op must not take a Wronskian minor")

    with monkeypatch.context() as m:
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("mipoly") \
                    and hasattr(module, "wronskian_rows"):
                m.setattr(module, "wronskian_rows", forbidden)
        backward_op.cache_clear()
        bhat = backward_op(pp, D)
    probe = Poly([3, -2, 1])
    assert backward_apply_via_wronskian(pp, D, probe) == bhat.apply(probe)
    for n in range(4):
        PDn = mi_poly(pp, D, n)
        assert backward_apply_via_wronskian(pp, D, PDn) == bhat.apply(PDn), n


@pytest.mark.parametrize("pp, label", [(LG, "1I"), (LG, "1I,2II"),
                                       (JG, "1I,2II")])
@pytest.mark.parametrize("shift, error", [(-1, DenominatorEscape),
                                          (F(1, 2), NotPolynomial)])
def test_backward_op_refuses_a_gauge_left_over(pp, label, shift, error,
                                               monkeypatch):
    # a rho_B exponent off by -1 leaves a power of the gauge base below
    # Xi^M; off by 1/2 it leaves a fractional gauge
    D = IndexSet.parse(pp.family, label)
    const, exps = diffop._rho_backward(pp, D)
    slot = 1 if pp.family == "L" else 2
    exps = exps[:slot] + (exps[slot] + shift,) + exps[slot + 1:]
    monkeypatch.setattr(diffop, "_rho_backward", lambda *_: (const, exps))
    backward_op.cache_clear()
    with pytest.raises(error) as info:
        backward_op(pp, D)
    if error is DenominatorEscape:
        assert f"Xi^{D.size} for {label}" in str(info.value)
    else:   # the exponents print as "p/q", not as Fraction reprs
        assert "1/2" in str(info.value)
        assert "Fraction(" not in str(info.value)


@pytest.mark.parametrize("pp,D", CASES, ids=CASE_IDS)
def test_single_step_ladder(pp, D):
    down = single_step_forward(pp, D)
    up = single_step_backward(pp, D)
    pp_up = delta_shift(pp)
    for n in range(1, 5):
        lhs = down.apply(mi_poly(pp, D, n))
        rhs = forward_step_eigen(pp, n) * mi_poly(pp_up, D, n - 1)
        assert lhs == RatFunc(rhs), n
        lhs = up.apply(mi_poly(pp_up, D, n - 1))
        rhs = backward_step_eigen(pp, n - 1) * mi_poly(pp, D, n)
        assert lhs == RatFunc(rhs), n
    # eigenvalue factorization: f_n b_{n-1} = E_n
    for n in range(1, 6):
        assert forward_step_eigen(pp, n) * backward_step_eigen(pp, n - 1) \
            == energy(pp, n)


@pytest.mark.parametrize("pp,D", CASES, ids=CASE_IDS)
def test_single_step_factorizes_hamiltonian(pp, D):
    B_then_F = single_step_backward(pp, D).compose(single_step_forward(pp, D))
    assert B_then_F == htilde_op(pp, D)
