"""Gauged-function calculus and Wronskian determinants.

The Wronskian oracle here is deliberately independent of the engine: it
differentiates columns directly and expands the determinant by the Leibniz
permutation sum over GaugedFn arithmetic (every permutation term carries
the same total gauge, so the sum is well-defined), with no gauge
factoring, no denominator clearing and no Bareiss elimination.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipoly.exact import ETA, Poly, RatFunc
from mipoly.gauged import (
    GaugedFn,
    GaugeMismatch,
    NotPolynomial,
    det_poly,
    det_ratfunc,
    numerator_ladder,
    poly_wronskian,
    wronskian,
    wronskian_identities_check,
    wronskian_rows,
)

small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def small_polys(draw, max_degree=3, nonzero=False):
    coeffs = draw(st.lists(small_rationals, min_size=0, max_size=max_degree + 1))
    p = Poly(coeffs)
    if nonzero and p.is_zero():
        p = Poly([1, draw(small_rationals)])
    return p


@st.composite
def gauged_fns(draw):
    a = draw(st.integers(min_value=-1, max_value=2))
    b = draw(small_rationals)
    c = draw(small_rationals)
    d = draw(small_rationals)
    num = draw(small_polys(max_degree=2, nonzero=True))
    return GaugedFn(a, b, c, d, RatFunc(num))


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def wronskian_oracle(fs, orders):
    """Leibniz-sum Wronskian: no gauge factoring, no Bareiss."""
    if not fs:
        return GaugedFn()
    kmax = max(orders)
    cols = []
    for f in fs:
        ladder = [f]
        for _ in range(kmax):
            ladder.append(ladder[-1].deriv())
        cols.append(ladder)
    total = GaugedFn(r=RatFunc(Poly.zero()))
    for perm in itertools.permutations(range(len(fs))):
        term = GaugedFn()
        for i, k in enumerate(orders):
            term = term * cols[perm[i]][k]
        total = total + term * _perm_sign(perm)
    return total


def det_oracle(M):
    """Leibniz determinant over RatFunc."""
    m = len(M)
    total = RatFunc(Poly.zero())
    for perm in itertools.permutations(range(m)):
        term = RatFunc(Poly.const(_perm_sign(perm)))
        for i in range(m):
            term = term * M[i][perm[i]]
        total = total + term
    return total


# -- GaugedFn calculus ---------------------------------------------------


@given(gauged_fns(), gauged_fns())
@settings(max_examples=60)
def test_product_rule(f, g):
    assert (f * g).deriv() == f.deriv() * g + f * g.deriv()


@given(gauged_fns())
def test_second_derivative_two_ways(f):
    w, _, [(g, qs)] = numerator_ladder([f], 2)
    assert f.deriv().deriv() == GaugedFn(*g, r=RatFunc(qs[2], w ** 2))


@given(st.lists(gauged_fns(), min_size=1, max_size=3),
       st.integers(min_value=0, max_value=3))
@settings(deadline=None)
def test_derivative_ladder_matches_repeated_deriv(fs, k):
    # f^(i) = G q_i / w^i with one w shared by all columns
    w, _, columns = numerator_ladder(fs, k)
    for f, (g, qs) in zip(fs, columns):
        h = f
        for i in range(k + 1):
            assert GaugedFn(*g, r=RatFunc(qs[i], w ** i)) == h
            h = h.deriv()


def test_residual_outside_the_gauge_is_rejected():
    # 1/(eta - 3) is no power of eta, (1-eta)/2 or (1+eta)/2
    f = GaugedFn(b=Fraction(1, 2), r=RatFunc(Poly.one(), Poly([-3, 1])))
    with pytest.raises(NotPolynomial):
        wronskian_rows([f, GaugedFn(r=ETA)], [0, 1])


def test_fractional_power_derivative():
    # d/deta eta^(1/2) = (1/2) eta^(-1/2)
    f = GaugedFn(b=Fraction(1, 2))
    expect = GaugedFn(b=Fraction(-1, 2), r=RatFunc(Poly.const(Fraction(1, 2))))
    assert f.deriv() == expect


def test_normal_form_folds_integer_exponents():
    f = GaugedFn(b=Fraction(5, 2))
    assert f.b == Fraction(1, 2)
    assert f.r == RatFunc(ETA * ETA)
    g = GaugedFn(b=Fraction(-3, 2))
    assert g.b == Fraction(1, 2)
    assert g.r == RatFunc(Poly.one(), ETA * ETA)
    # ((1+eta)/2)^2 folds to a polynomial residual
    h = GaugedFn(d=2)
    assert h.is_gaugeless()
    assert h.as_poly() == Poly([Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)])


def test_gauge_mismatch_raises():
    with pytest.raises(GaugeMismatch):
        GaugedFn(a=1) + GaugedFn(b=Fraction(1, 2))
    # identical gauges add fine
    s = GaugedFn(a=1, r=Poly([1, 1])) + GaugedFn(a=1, r=Poly([2]))
    assert s == GaugedFn(a=1, r=Poly([3, 1]))


def test_extraction_errors():
    with pytest.raises(NotPolynomial):
        GaugedFn(a=1).as_ratfunc()
    with pytest.raises(NotPolynomial):
        GaugedFn(r=RatFunc(Poly.one(), ETA)).as_poly()
    assert GaugedFn(r=Poly([1, 2])).as_poly() == Poly([1, 2])


def test_zero_is_canonical():
    z = GaugedFn(a=3, b=Fraction(1, 2), r=RatFunc(Poly.zero()))
    assert z.is_zero() and z.gauge() == (0, 0, 0, 0)
    assert z + GaugedFn(a=1) == GaugedFn(a=1)


# -- determinants ----------------------------------------------------------


@given(st.lists(st.lists(small_polys(max_degree=2), min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(max_examples=40)
def test_bareiss_matches_leibniz(rows):
    assert RatFunc(det_poly(rows)) == det_oracle([[RatFunc(p) for p in row]
                                                  for row in rows])


def test_det_needs_pivot_swap():
    Z, I = Poly.zero(), Poly.one()
    assert det_poly([[Z, I], [I, Z]]) == Poly([-1])
    M = [[Z, I, Z], [I, Z, Z], [Z, Z, I]]
    assert det_poly(M) == Poly([-1])
    assert det_poly([[Z, Z], [Z, I]]) == Poly.zero()


def test_det_ratfunc_with_denominators():
    one_over_eta = RatFunc(Poly.one(), ETA)
    M = [[one_over_eta, RatFunc(Poly.one())],
         [RatFunc(Poly.one()), RatFunc(ETA * ETA)]]
    assert det_ratfunc(M) == RatFunc(Poly([-1, 1]))
    # singular: (1/eta) * eta - 1 * 1 = 0
    N = [[one_over_eta, RatFunc(Poly.one())],
         [RatFunc(Poly.one()), RatFunc(ETA)]]
    assert det_ratfunc(N).is_zero()


# -- Wronskians ------------------------------------------------------------


@given(st.lists(gauged_fns(), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_wronskian_matches_leibniz_oracle(fs):
    assert wronskian(fs) == wronskian_oracle(fs, list(range(len(fs))))


@given(st.lists(gauged_fns(), min_size=2, max_size=3), st.data())
@settings(max_examples=15, deadline=None)
def test_wronskian_rows_matches_oracle(fs, data):
    orders = data.draw(st.lists(st.integers(min_value=0, max_value=3),
                                min_size=len(fs), max_size=len(fs),
                                unique=True))
    assert wronskian_rows(fs, orders) == wronskian_oracle(fs, orders)


@given(st.lists(gauged_fns(), min_size=2, max_size=3))
@settings(max_examples=15, deadline=None)
def test_wronskian_column_swap_antisymmetry(fs):
    swapped = [fs[1], fs[0]] + list(fs[2:])
    assert wronskian(swapped) == wronskian(fs) * (-1)


def test_wronskian_edge_cases():
    assert wronskian([]) == GaugedFn()
    f = GaugedFn(a=1, r=Poly([0, 2]))
    assert wronskian([f]) == f


def test_wronskian_pinned_values():
    one = GaugedFn(r=Poly.one())
    eta = GaugedFn(r=ETA)
    assert wronskian([one, eta]).as_poly() == Poly.one()
    assert wronskian([eta, one]).as_poly() == Poly([-1])
    # W[e^eta, e^(2 eta)] = e^(3 eta)
    w = wronskian([GaugedFn(a=1), GaugedFn(a=2)])
    assert w == GaugedFn(a=3)
    # W[eta^(1/2), eta^(3/2)] = eta
    w = wronskian([GaugedFn(b=Fraction(1, 2)), GaugedFn(b=Fraction(3, 2))])
    assert w.as_poly() == ETA


def test_wronskian_rows_length_check():
    with pytest.raises(ValueError):
        wronskian_rows([GaugedFn()], [0, 1])


# -- determinant identities --------------------------------------------------


@given(st.lists(small_polys(), min_size=1, max_size=3),
       small_polys(nonzero=True))
@settings(max_examples=30, deadline=None)
def test_wronskian_common_factor(fs, g):
    lhs = poly_wronskian([g * f for f in fs])
    assert lhs == g ** len(fs) * poly_wronskian(fs)


@given(st.lists(small_polys(), min_size=0, max_size=2),
       small_polys(), small_polys())
@settings(max_examples=30, deadline=None)
def test_wronskian_nested_pair(fs, g, h):
    lhs = poly_wronskian([poly_wronskian(fs + [g]),
                          poly_wronskian(fs + [h])])
    assert lhs == poly_wronskian(fs) * poly_wronskian(fs + [g, h])


@given(st.lists(small_polys(), min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_wronskian_variable_change(fs):
    # eta = x^2, so each x-derivative costs a factor d eta/dx = 2x
    square = Poly([0, 0, 1])
    n = len(fs)
    lhs = poly_wronskian([f.compose(square) for f in fs])
    rhs = Poly([0, 2]) ** (n * (n - 1) // 2) \
        * poly_wronskian(fs).compose(square)
    assert lhs == rhs


@given(st.lists(small_polys(), min_size=2, max_size=3))
@settings(max_examples=25, deadline=None)
def test_wronskian_cofactor_minors(fs):
    n = len(fs)
    minors = [poly_wronskian(fs[:j] + fs[j + 1:]) for j in range(n)]
    sign = (-1) ** (n * (n - 1) // 2)
    assert poly_wronskian(minors) == sign * poly_wronskian(fs) ** (n - 1)


def test_identity_suite_passes_and_is_deterministic():
    first = wronskian_identities_check(seed=42, trials=8)
    assert all(ok for _, ok, _ in first)
    assert [name for name, _, _ in first] == \
        ["common_factor", "nested_pair", "variable_change", "cofactor_minors"]
    assert wronskian_identities_check(seed=42, trials=8) == first
