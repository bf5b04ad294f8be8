"""Gauged-function calculus and Wronskian determinants.

The Wronskian oracle here is deliberately independent of the engine: it
differentiates columns directly and expands the determinant by the Leibniz
permutation sum over GaugedFn arithmetic (every permutation term carries
the same total gauge, so the sum is well-defined), with no gauge
factoring, no denominator clearing and no Bareiss elimination.  It reads
the same (exponents, polynomial) columns the engine receives, as
GaugedFn(*exps, r=p), and an engine triple (exps, nums, den) is compared
as GaugedFn(*exps, r=nums/den).
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipoly.exact import ETA, Poly, RatFunc, _apply_nums, differentiate
from mipoly.gauged import (
    NotPolynomial,
    _bordered_det,
    _eliminate,
    _ladder,
    _poly_nums,
    bordered_wronskian,
    det_poly,
    det_ratfunc,
    numerator_ladder,
    poly_wronskian,
    wronskian,
    wronskian_identities_check,
    wronskian_rows,
)

from oracles import GaugedFn, GaugeMismatch

small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def small_polys(draw, max_degree=3, nonzero=False):
    coeffs = draw(st.lists(small_rationals, min_size=0, max_size=max_degree + 1))
    p = Poly(coeffs)
    if nonzero and p.is_zero():
        p = Poly([1, draw(small_rationals)])
    return p


@st.composite
def gauged_columns(draw):
    a = draw(st.integers(min_value=-1, max_value=2))
    b = draw(small_rationals)
    c = draw(small_rationals)
    d = draw(small_rationals)
    num = draw(small_polys(max_degree=2, nonzero=True))
    return (a, b, c, d), num


def as_fn(column):
    """The GaugedFn of a Wronskian column (exps, p)."""
    exps, p = column
    return GaugedFn(*exps, r=p)


def triple_fn(triple):
    """The GaugedFn of a one-numerator Wronskian triple (exps, [num], den)."""
    exps, (num,), den = triple
    return GaugedFn(*exps, r=RatFunc(num, den))


gauged_fns = gauged_columns().map(as_fn)


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def wronskian_oracle(fs, orders):
    """Leibniz-sum Wronskian of columns (exps, p): no gauge factoring, no
    Bareiss."""
    if not fs:
        return GaugedFn()
    kmax = max(orders)
    cols = []
    for f in fs:
        ladder = [as_fn(f)]
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


@given(gauged_fns, gauged_fns)
@settings(max_examples=60)
def test_product_rule(f, g):
    assert (f * g).deriv() == f.deriv() * g + f * g.deriv()


@given(small_polys(max_degree=6), small_polys(nonzero=True),
       st.integers(min_value=0, max_value=5))
def test_plain_column_ladder_is_scaled_derivatives(p, w, m):
    # with E = 0 the ladder is q_k = w^k p^(k): what bordered_wronskian's
    # cofactor expansion relies on
    qs, dk = _ladder(p, Poly.zero(), w, m), p
    for k in range(m + 1):
        assert qs[k] == w ** k * dk, k
        dk = differentiate(dk)


@given(gauged_columns())
def test_second_derivative_two_ways(f):
    w, _, [(g, qs)] = numerator_ladder([f], 2)
    assert as_fn(f).deriv().deriv() == GaugedFn(*g, r=RatFunc(qs[2], w ** 2))


@given(st.lists(gauged_columns(), min_size=1, max_size=3),
       st.integers(min_value=0, max_value=3))
@settings(deadline=None)
def test_derivative_ladder_matches_repeated_deriv(fs, k):
    # f^(i) = G q_i / w^i with one w shared by all columns
    w, _, columns = numerator_ladder(fs, k)
    for f, (g, qs) in zip(fs, columns):
        h = as_fn(f)
        for i in range(k + 1):
            assert GaugedFn(*g, r=RatFunc(qs[i], w ** i)) == h
            h = h.deriv()


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
    # ((1-eta)/2)^(-1) cancels against the numerator 1 - eta
    assert GaugedFn(c=-1, r=Poly([1, -1])) == GaugedFn(r=Poly.const(2))
    # ((1+eta)/2)^(-2) cancels once against 1 + eta; a denominator is left
    k = GaugedFn(d=Fraction(-3, 2), r=Poly([1, 1]))
    assert k.d == Fraction(1, 2)
    assert k.r == RatFunc(Poly.const(4), Poly([1, 1]))


def test_gauge_mismatch_raises():
    with pytest.raises(GaugeMismatch, match=r"\(1, 0, 0, 0\) and \(0, 1/2,"):
        GaugedFn(a=1) + GaugedFn(b=Fraction(1, 2))
    # identical gauges add fine
    s = GaugedFn(a=1, r=Poly([1, 1])) + GaugedFn(a=1, r=Poly([2]))
    assert s == GaugedFn(a=1, r=Poly([3, 1]))


def test_extraction_errors():
    with pytest.raises(NotPolynomial,
                       match=r"^gauge \(1, 0, 0, 0\) does not reduce away$"):
        GaugedFn(a=1).as_ratfunc()
    with pytest.raises(NotPolynomial,
                       match=r"^gauge \(0, 1/2, 0, 0\) does not reduce away$"):
        GaugedFn(b=Fraction(1, 2)).as_ratfunc()
    with pytest.raises(NotPolynomial):
        GaugedFn(r=RatFunc(Poly.one(), ETA)).as_poly()
    assert GaugedFn(r=Poly([1, 2])).as_poly() == Poly([1, 2])


def test_poly_nums_names_what_is_left_over():
    with pytest.raises(NotPolynomial,
                       match=r"^gauge \(0, 1/2, 0, 0\) does not reduce away$"):
        _poly_nums(wronskian([((0, Fraction(1, 2), 0, 0), Poly.one())]))
    # ((1-eta)/2)^(-1): the monic denominator, as GaugedFn.as_poly names it
    with pytest.raises(NotPolynomial,
                       match=r"^denominator Poly\(-1 \+ 1\*eta\) remains$"):
        _poly_nums(wronskian([((0, 0, -1, 0), Poly.one())]))
    with pytest.raises(NotPolynomial,
                       match=r"^denominator Poly\(-1 \+ 1\*eta\) remains$"):
        GaugedFn(c=-1).as_poly()
    # a zero Wronskian carries no gauge, so it reads as the zero polynomial
    f = ((1, Fraction(1, 2), 0, 0), Poly([1, 2]))
    g = ((1, Fraction(1, 2), 0, 0), Poly([-2, -4]))
    assert _poly_nums(wronskian([f, g])) == [Poly.zero()]


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


def _rational_rows(rng, m):
    """m x m entries of degree <= 2; each row has its own denominators and
    is scaled by its own rational content."""
    rows = []
    for _ in range(m):
        den = rng.choice([1, 2, 3, 5, 7, 9])
        scale = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 4, 11]))
        rows.append([scale * Poly([Fraction(rng.randint(-5, 5),
                                            den * rng.randint(1, 3))
                                   for _ in range(rng.randint(1, 3))])
                     for _ in range(m)])
    return rows


@pytest.mark.parametrize("m,seed,corner", [
    (4, 0, False), (4, 1, True), (5, 2, False), (5, 3, True),
])
def test_bareiss_rational_rows_match_leibniz(m, seed, corner):
    rows = _rational_rows(random.Random(seed), m)
    if corner:
        rows[0][0] = Poly.zero()   # the first pivot needs a row swap
    det = det_poly(rows)
    assert not det.is_zero()
    assert RatFunc(det) == det_oracle([[RatFunc(p) for p in row]
                                       for row in rows])


def test_bareiss_singular_after_pivot_swap():
    rows = _rational_rows(random.Random(4), 4)
    rows[0][0] = Poly.zero()
    rows[3] = [Fraction(-2, 3) * p for p in rows[1]]   # other content, same row
    assert not rows[1][0].is_zero()
    assert det_poly(rows).is_zero()
    assert det_oracle([[RatFunc(p) for p in row] for row in rows]).is_zero()


@pytest.mark.parametrize("seed,swap_at", [(5, 0), (6, 1), (7, 2)])
def test_bordered_replay_through_swaps(seed, swap_at):
    # one elimination of a 4 x 3 block whose pivot at step swap_at needs a
    # row swap, replayed for several last columns (a Wronskian seed block
    # never swaps: its leading minors are the Wronskians of the first
    # seeds, so the swap path is checked on generic rows)
    rng = random.Random(seed)
    rows = _rational_rows(rng, 4)
    block = [row[:3] for row in rows]
    if swap_at == 0:
        block[0][0] = Poly.zero()
    else:   # make the leading (swap_at + 1)-minor vanish
        block[swap_at] = [Fraction(3, 2) * p for p in block[swap_at - 1]]
    elimination = _eliminate(block)
    assert elimination[1][swap_at][0] is not None
    for trial in range(3):
        column = [row[3] for row in _rational_rows(rng, 4)]
        full = [b + [c] for b, c in zip(block, column)]
        det = _bordered_det(elimination, column)
        assert not det.is_zero()
        assert det == det_poly(full)
        assert RatFunc(det) == det_oracle([[RatFunc(p) for p in row]
                                           for row in full])


def test_bordered_replay_of_a_dependent_block():
    rows = _rational_rows(random.Random(8), 4)
    block = [row[:3] for row in rows]
    for row in block:
        row[2] = Fraction(-5, 7) * row[0]
    elimination = _eliminate(block)
    assert elimination[1] is None
    assert _bordered_det(elimination, [row[3] for row in rows]).is_zero()


@given(st.lists(gauged_columns(), min_size=0, max_size=3),
       st.lists(small_polys(), min_size=1, max_size=3),
       st.tuples(st.integers(min_value=-1, max_value=1), small_rationals,
                 small_rationals, small_rationals))
@settings(max_examples=25, deadline=None)
def test_bordered_wronskian_is_wronskian_times_gauge(fs, ps, gauge):
    # one elimination of the f_j; its numerators applied to several plain
    # last columns, over its denominator and times the gauge left over
    exps, nums, den = bordered_wronskian(fs, gauge)
    for p in ps:
        want = wronskian_oracle(fs + [((0, 0, 0, 0), p)],
                                list(range(len(fs) + 1))) * GaugedFn(*gauge)
        assert GaugedFn(*exps, r=RatFunc(_apply_nums(nums, p), den)) == want


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


@given(st.lists(gauged_columns(), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_wronskian_matches_leibniz_oracle(fs):
    assert triple_fn(wronskian(fs)) \
        == wronskian_oracle(fs, list(range(len(fs))))


@given(st.lists(gauged_columns(), min_size=2, max_size=3), st.data())
@settings(max_examples=15, deadline=None)
def test_wronskian_rows_matches_oracle(fs, data):
    orders = data.draw(st.lists(st.integers(min_value=0, max_value=3),
                                min_size=len(fs), max_size=len(fs),
                                unique=True))
    assert triple_fn(wronskian_rows(fs, orders)) \
        == wronskian_oracle(fs, orders)
    # a compensating gauge passed in is the oracle times that gauge
    gauge = data.draw(st.tuples(st.integers(min_value=-1, max_value=1),
                                small_rationals, small_rationals,
                                small_rationals))
    assert triple_fn(wronskian_rows(fs, orders, gauge)) \
        == wronskian_oracle(fs, orders) * GaugedFn(*gauge)


@given(st.lists(gauged_columns(), min_size=2, max_size=3))
@settings(max_examples=15, deadline=None)
def test_wronskian_column_swap_antisymmetry(fs):
    swapped = [fs[1], fs[0]] + list(fs[2:])
    assert triple_fn(wronskian(swapped)) == triple_fn(wronskian(fs)) * (-1)


def test_wronskian_edge_cases():
    assert triple_fn(wronskian([])) == GaugedFn()
    f = ((1, 0, 0, 0), Poly([0, 2]))
    assert triple_fn(wronskian([f])) == as_fn(f)


def test_wronskian_pinned_values():
    one = ((0, 0, 0, 0), Poly.one())
    eta = ((0, 0, 0, 0), ETA)
    assert _poly_nums(wronskian([one, eta])) == [Poly.one()]
    assert _poly_nums(wronskian([eta, one])) == [Poly([-1])]
    # W[e^eta, e^(2 eta)] = e^(3 eta)
    w = wronskian([((1, 0, 0, 0), Poly.one()), ((2, 0, 0, 0), Poly.one())])
    assert triple_fn(w) == GaugedFn(a=3)
    # W[eta^(1/2), eta^(3/2)] = eta
    w = wronskian([((0, Fraction(1, 2), 0, 0), Poly.one()),
                   ((0, Fraction(3, 2), 0, 0), Poly.one())])
    assert _poly_nums(w) == [ETA]


def test_wronskian_rows_length_check():
    with pytest.raises(ValueError):
        wronskian_rows([((0, 0, 0, 0), Poly.one())], [0, 1])


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
