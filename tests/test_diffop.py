"""Forward/backward intertwining operators and the deformed Hamiltonian."""

import functools
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipoly.checks import agree
from mipoly.exact import ETA, ParamPoint, Poly, RatFunc, poly_divmod
from mipoly import diffop, verify
from mipoly.diffop import (
    DenominatorEscape,
    DiffOp,
    backward_apply_via_wronskian,
    backward_op,
    forward_op,
    htilde_op,
    single_step_backward,
    single_step_forward,
)
from mipoly.gauged import NotPolynomial
from mipoly.mindexed import (IndexSet, _seed_wronskian, mi_poly, mj_function,
                             xi_poly)
from mipoly.recurrence import theta_op, x_from_y

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
    for i in range(5):
        for j in range(5):
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
    assert theta_op(pp, D, x_from_y(pp, D, Poly.one())).den == Poly.one()
    _, rem = poly_divmod(xi_poly(pp, D) ** D.size, backward_op(pp, D).den)
    assert rem.is_zero()


@functools.lru_cache(maxsize=None)
def _registry_cases(pp, D):
    """verify's intertwining and ladder cases for one case, n <= 4."""
    return verify.intertwining_cases(pp, D, 4) + verify.ladder_cases(pp, D, 4)


def _registry_holds(pp, D, *identities):
    """The registry's cases whose where starts with one of identities
    pass; a failure names the first witness.  The identities themselves
    are stated once, in the registry."""
    check = agree(D.label(), str(pp), [
        case for case in _registry_cases(pp, D)
        if case[0].startswith(identities)])
    assert check.ok, check.detail


@pytest.mark.parametrize("pp,D", CASES, ids=CASE_IDS)
def test_forward_intertwining(pp, D):
    fhat = forward_op(pp, D)
    assert fhat.is_polynomial()
    assert fhat.order == D.size
    _registry_holds(pp, D, "Fhat P_")


def test_seed_numerators_and_fhat_are_one_operator():
    # P_(D,n) reads the bordered Wronskian's numerators R_k, Fhat the
    # wronskian_rows minors: equal as operators, not only on P_n, n <= 5
    cases = verify.deformed_cases(max(len(verify.L_POOL), len(verify.J_POOL)))
    cases.append((JG, IndexSet.parse("J", "1I,2I,4I,2II")))
    for pp, D in cases:
        assert DiffOp(_seed_wronskian(pp, D)) == forward_op(pp, D), \
            (str(pp), D.label())


@pytest.mark.parametrize("pp,D", CASES, ids=CASE_IDS)
def test_backward_intertwining(pp, D):
    # Bhat P_(D,n) = pi_D(n) P_n, expanded and in its Wronskian form
    _registry_holds(pp, D, "Bhat P_(D,")


@pytest.mark.parametrize("pp,D", CASES, ids=CASE_IDS)
def test_compositions_are_pi_times_identity(pp, D):
    _registry_holds(pp, D, "Bhat Fhat P_", "Fhat Bhat P_")


@pytest.mark.parametrize("pp,D", CASES, ids=CASE_IDS)
def test_hamiltonian_eigen_relation(pp, D):
    _registry_holds(pp, D, "H P_")


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
    # F_D, B_D and the factorization f_n b_(n-1) = E_n
    _registry_holds(pp, D, "F_D P_", "B_D P_", "f_")


@pytest.mark.parametrize("pp,D", CASES, ids=CASE_IDS)
def test_single_step_factorizes_hamiltonian(pp, D):
    B_then_F = single_step_backward(pp, D).compose(single_step_forward(pp, D))
    assert B_then_F == htilde_op(pp, D)
