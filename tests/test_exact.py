"""Ring/field laws for the exact substrate, plus pinned small examples.

The reference section checks Poly against plain Fraction-list arithmetic
written here, which shares nothing with the library's integer-content
representation.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipoly.exact import (
    ETA,
    NEG_INF,
    ParamPoint,
    Poly,
    RatFunc,
    differentiate,
    integrate_from_zero,
    pochhammer,
    poly_divmod,
    poly_gcd,
    poly_lcm,
    rat,
    rat_str,
)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12  # small but not degenerate
)


@st.composite
def polys(draw, max_degree=5):
    coeffs = draw(st.lists(rationals, min_size=0, max_size=max_degree + 1))
    return Poly(coeffs)


# -- Poly ring laws ------------------------------------------------------


@given(polys(), polys(), polys())
def test_mul_distributes_over_add(p, q, r):
    assert (p + q) * r == p * r + q * r


@given(polys(), polys())
def test_mul_commutes(p, q):
    assert p * q == q * p


@given(polys(), polys())
def test_degree_of_product_adds(p, q):
    d = (p * q).degree
    if p.is_zero() or q.is_zero():
        assert d == NEG_INF
    else:
        assert d == p.degree + q.degree


@given(polys())
def test_derivative_of_antiderivative(p):
    assert differentiate(integrate_from_zero(p)) == p
    assert integrate_from_zero(p)(0) == 0


@given(polys(), polys())
def test_divmod_reconstructs(a, b):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            poly_divmod(a, b)
        return
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


def test_divmod_zero_and_lower_degree_dividends():
    b = Poly([1, 0, 2])
    assert poly_divmod(Poly.zero(), b) == (Poly.zero(), Poly.zero())
    low = Poly([Fraction(1, 2), 3])
    assert poly_divmod(low, b) == (Poly.zero(), low)


@given(polys(max_degree=3), polys(max_degree=3), polys(max_degree=2))
def test_gcd_common_factor(p, q, g):
    # gcd(p*g, q*g) is divisible by g whenever g != 0
    if g.is_zero() or (p.is_zero() and q.is_zero()):
        return
    d = poly_gcd(p * g, q * g)
    _, r = poly_divmod(d, g)
    assert r.is_zero()
    assert d.lc() == 1  # monic


@given(polys(max_degree=3))
def test_eval_agrees_with_compose_const(p):
    x = Fraction(3, 7)
    assert p(x) == p.compose(Poly.const(x)).coeff(0)


@given(polys(max_degree=3), polys(max_degree=2))
def test_compose_is_ring_hom(p, q):
    inner = Poly([1, 2])  # eta -> 2 eta + 1
    assert (p * q).compose(inner) == p.compose(inner) * q.compose(inner)
    assert (p + q).compose(inner) == p.compose(inner) + q.compose(inner)


# -- against a Fraction-list reference -----------------------------------


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _trim(x + sign * y for x, y in zip(a, b))


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def ref_divmod(a, b):
    rem, q = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        f = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        q[shift] = f
        for i, y in enumerate(b):
            rem[shift + i] -= f * y
        rem = list(_trim(rem[:-1]))
    return _trim(q), _trim(rem)


def ref_monic(a):
    return tuple(x / a[-1] for x in a) if a else ()


def ref_gcd(a, b):
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def ref_deriv(a):
    return _trim(k * x for k, x in enumerate(a))[1:] if len(a) > 1 else ()


def ref_compose(a, inner):
    acc = ()
    for x in reversed(a):
        acc = ref_add(ref_mul(acc, inner), (x,))
    return acc


@given(polys(), polys())
def test_ring_ops_match_reference(p, q):
    a, b = p.coeffs, q.coeffs
    assert (p + q).coeffs == ref_add(a, b)
    assert (p - q).coeffs == ref_add(a, b, -1)
    assert (p * q).coeffs == ref_mul(a, b)
    assert differentiate(p).coeffs == ref_deriv(a)
    assert integrate_from_zero(p).coeffs == \
        _trim([0] + [c / (k + 1) for k, c in enumerate(a)])
    assert (p ** 3).coeffs == ref_mul(ref_mul(a, a), a)
    assert p.monic().coeffs == ref_monic(a)
    x = Fraction(-3, 7)
    assert p(x) == sum(c * x ** k for k, c in enumerate(a))


@given(polys(), polys(max_degree=3))
def test_divmod_matches_reference(p, q):
    if q.is_zero():
        return
    quo, rem = poly_divmod(p, q)
    assert (quo.coeffs, rem.coeffs) == ref_divmod(p.coeffs, q.coeffs)


@given(polys(max_degree=3), polys(max_degree=3), polys(max_degree=2))
@settings(max_examples=60)
def test_gcd_matches_reference_up_to_a_unit(p, q, g):
    a, b = (p * g).coeffs, (q * g).coeffs
    if not a and not b:
        return
    got = poly_gcd(p * g, q * g).coeffs
    want = ref_gcd(a, b)
    assert len(got) == len(want)
    assert all(x * want[-1] == y * got[-1] for x, y in zip(got, want))


@given(polys(max_degree=4), polys(max_degree=2))
@settings(max_examples=60)
def test_compose_matches_reference(p, inner):
    assert p.compose(inner).coeffs == ref_compose(p.coeffs, inner.coeffs)


@given(polys(), rationals.filter(lambda c: c != 0))
def test_canonical_form(p, c):
    scaled = Poly([c * x for x in p.coeffs])
    assert scaled * (1 / c) == p
    assert hash(scaled * (1 / c)) == hash(p)
    assert isinstance(p.coeffs, tuple)
    assert all(type(x) is Fraction for x in p.coeffs)
    if not p.is_zero():
        assert math.gcd(*p.ints) == 1 and p.ints[-1] > 0
        assert p.content * p.ints[-1] == p.lc()


def test_zero_forms():
    assert Poly([0, 0]).is_zero()
    assert Poly([0, 0]) == Poly.zero() == Poly([1, 2]) * 0
    assert hash(Poly([0, 0])) == hash(Poly())
    assert Poly([Fraction(0), Fraction(0, 5)]).coeffs == ()


def test_integer_parts_are_primitive():
    p = Poly([Fraction(-4, 3), Fraction(2, 9), Fraction(-2, 3)])
    assert p.ints == (6, -1, 3)
    assert p.content == Fraction(-2, 9)
    assert p.coeffs == (Fraction(-4, 3), Fraction(2, 9), Fraction(-2, 3))
    assert repr(p) == "Poly(-4/3 + 2/9*eta + -2/3*eta^2)"
    assert p.to_strings() == ["-4/3", "2/9", "-2/3"]


# -- RatFunc field laws --------------------------------------------------


@st.composite
def ratfuncs(draw):
    num = draw(polys(max_degree=3))
    den = draw(polys(max_degree=2))
    if den.is_zero():
        den = Poly.one()
    return RatFunc(num, den)


@given(ratfuncs(), ratfuncs())
def test_ratfunc_add_sub_roundtrip(f, g):
    assert (f + g) - g == f


@given(ratfuncs(), ratfuncs())
@settings(max_examples=50)
def test_ratfunc_mul_div_roundtrip(f, g):
    if g.is_zero():
        return
    assert (f * g) / g == f


@given(ratfuncs())
def test_ratfunc_normal_form(f):
    # denominator monic, gcd(num, den) trivial
    assert f.den.lc() == 1
    if not f.is_zero():
        assert poly_gcd(f.num, f.den).degree == 0


@given(ratfuncs(), ratfuncs())
@settings(max_examples=50)
def test_ratfunc_deriv_product_rule(f, g):
    assert (f * g).deriv() == f.deriv() * g + f * g.deriv()


def test_ratfunc_quotient_deriv():
    # d/deta (1/eta) = -1/eta^2
    f = RatFunc(Poly.one(), ETA)
    assert f.deriv() == RatFunc(Poly.const(-1), ETA * ETA)


# -- pinned examples -----------------------------------------------------


def test_small_products_and_gcds():
    assert Poly([1, 1]) * Poly([-1, 1]) == Poly([-1, 0, 1])
    assert poly_gcd(Poly([-1, 0, 1]), Poly([-1, 1])) == Poly([-1, 1])


def test_exact_quartic_division():
    # eta^2 (eta - 2)(eta - 6) divided by eta^2 leaves (eta - 2)(eta - 6)
    quartic = Poly([0, 0, 1]) * Poly([-2, 1]) * Poly([-6, 1])
    q, r = poly_divmod(quartic, Poly([0, 0, 1]))
    assert r.is_zero()
    assert q == Poly([-2, 1]) * Poly([-6, 1])


def test_antiderivative_of_linear_seed():
    # integral of eta + g + 1/2 from 0, at g = 2: eta^2/2 + 5 eta/2
    g = Fraction(2)
    p = Poly([g + Fraction(1, 2), 1])
    X = integrate_from_zero(p)
    assert X == Poly([0, g + Fraction(1, 2), Fraction(1, 2)])
    assert differentiate(X) == p


@given(polys(), st.integers(min_value=-30, max_value=30),
       st.integers(min_value=1, max_value=40))
def test_to_strings_matches_rat_str(p, n, d):
    # contents of every sign, integral ones and the zero polynomial
    for q in (p, p * Fraction(n, d), p * n, Poly.zero()):
        assert q.to_strings() == [rat_str(c) for c in q.coeffs]


def _pochhammer_by_fractions(x, n):
    out = Fraction(1)
    for i in range(n):
        out *= x + i
    return out


@pytest.mark.parametrize("x", [Fraction(7, 3), Fraction(-5, 4), Fraction(0),
                               Fraction(-3), Fraction(-17), Fraction(12),
                               Fraction(-9, 2)], ids=str)
def test_pochhammer_matches_fraction_product(x):
    for n in range(46):
        assert pochhammer(x, n) == _pochhammer_by_fractions(x, n), n
    if x.denominator == 1 and x <= 0:   # (x)_n passes through 0
        assert pochhammer(x, 1 - int(x)) == 0


def test_pochhammer_values():
    assert pochhammer(3, 2) == 12
    assert pochhammer(5, 0) == 1
    assert pochhammer(Fraction(2) - Fraction(5, 2), 4) == Fraction(-15, 16)
    with pytest.raises(ValueError):
        pochhammer(1, -1)


def test_lcm_contains_both():
    a, b = Poly([0, 1]), Poly([0, 0, 1])
    m = poly_lcm(a, b)
    for f in (a, b):
        _, r = poly_divmod(m, f)
        assert r.is_zero()
    assert m == Poly([0, 0, 1])


def test_rat_parsing_and_printing():
    assert rat("7/3") == Fraction(7, 3)
    assert rat_str(Fraction(7, 3)) == "7/3"
    assert rat_str(Fraction(4)) == "4"
    with pytest.raises(TypeError):
        rat(1.5)


def test_param_point_validation():
    ParamPoint("H")
    ParamPoint("L", g=Fraction(7, 3))
    ParamPoint("J", g=Fraction(7, 3), h=Fraction(9, 4))
    with pytest.raises(ValueError):
        ParamPoint("X", g=1)
    with pytest.raises(ValueError):
        ParamPoint("H", g=1)
    with pytest.raises(ValueError):
        ParamPoint("L")
    with pytest.raises(ValueError):
        ParamPoint("J", g=1)


def test_param_point_shift():
    pp = ParamPoint("J", g=Fraction(7, 3), h=Fraction(9, 4))
    q = pp.with_params(g=pp.g + 1, h=pp.h + 1)
    assert (q.g, q.h) == (Fraction(10, 3), Fraction(13, 4))
    assert pp.g == Fraction(7, 3)  # frozen, original untouched
