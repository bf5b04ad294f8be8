"""Classical family data against independent series oracles.

The polynomials here are rebuilt from scratch via their hypergeometric
series (no three-term recurrence), and every closed-form coefficient the
package ships -- recurrence data, derivative expansions, energies,
virtual-state data -- is checked against those series or against a direct
basis expansion.
"""

import inspect
import sys
from fractions import Fraction

import pytest

from mipoly.exact import ETA, ParamPoint, Poly, differentiate, pochhammer
from mipoly.families import (
    GenericityViolation,
    classical_poly,
    cnk,
    delta_shift,
    energy,
    expand_in_classical,
    jacobi_ank,
    leading_coeff,
    recurrence_abc,
    schrodinger_c1,
    schrodinger_c2,
    seed,
    shifted_params,
    twisted,
    virtual_energy,
    virtual_leading,
)

from oracles import GaugedFn

F = Fraction


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def hermite_series(n):
    total = Poly.zero()
    for m in range(n // 2 + 1):
        c = F((-1) ** m * _fact(n), _fact(m) * _fact(n - 2 * m))
        total = total + c * Poly([0, 2]) ** (n - 2 * m)
    return total


def laguerre_series(alpha, n):
    total = Poly.zero()
    for k in range(n + 1):
        c = F((-1) ** k, 1) * pochhammer(alpha + k + 1, n - k) / (
            _fact(n - k) * _fact(k))
        total = total + Poly([0] * k + [c])
    return total


def jacobi_series(alpha, beta, n):
    lo = Poly([F(-1, 2), F(1, 2)])   # (eta-1)/2
    hi = Poly([F(1, 2), F(1, 2)])    # (eta+1)/2
    total = Poly.zero()
    for s in range(n + 1):
        c = (pochhammer(alpha + s + 1, n - s) / _fact(n - s)) * (
            pochhammer(n + beta - s + 1, s) / _fact(s))
        total = total + c * lo ** s * hi ** (n - s)
    return total


HERMITE = ParamPoint("H")
LAGUERRES = [ParamPoint("L", g=g) for g in (F(7, 3), F(1, 2), F(5, 4), F(3))]
# keep g - h away from the integers: the type I/II twists send
# alpha + beta to +-(g - h) - 1, and integer values there make the
# closed-form recurrence coefficients degenerate (0/0)
JACOBIS = [ParamPoint("J", g=g, h=h)
           for g, h in ((F(7, 3), F(9, 4)), (F(5, 2), F(2, 3)),
                        (F(13, 4), F(7, 2)), (F(7, 2), F(1, 3)))]


def series_poly(pp, n):
    if pp.family == "H":
        return hermite_series(n)
    if pp.family == "L":
        return laguerre_series(pp.g - F(1, 2), n)
    return jacobi_series(pp.g - F(1, 2), pp.h - F(1, 2), n)


@pytest.mark.parametrize("pp", [HERMITE] + LAGUERRES + JACOBIS,
                         ids=lambda pp: f"{pp.family}-{pp.g}-{pp.h}")
def test_three_term_recurrence_matches_series(pp):
    for n in range(9):
        assert classical_poly(pp, n) == series_poly(pp, n)
    # and the closed-form A, B, C really do advance the series polynomials
    for n in range(8):
        A, B, C = recurrence_abc(pp, n)
        lhs = ETA * series_poly(pp, n)
        rhs = (A * series_poly(pp, n + 1) + B * series_poly(pp, n)
               + C * series_poly(pp, n - 1) if n else
               A * series_poly(pp, 1) + B * series_poly(pp, 0))
        assert lhs == rhs


def test_cold_classical_poly_recursion_stays_shallow():
    # each P_n comes from the cached P_(n-1), P_(n-2); a cold call at a
    # high n must not recurse n levels deep
    pp = ParamPoint("L", g=F(11, 7))   # a point no other test builds
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 250)
    try:
        p = classical_poly(pp, 300)
    finally:
        sys.setrecursionlimit(limit)
    assert p.degree == 300 and p.lc() == leading_coeff(pp, 300)


@pytest.mark.parametrize("pp", [HERMITE] + LAGUERRES + JACOBIS,
                         ids=lambda pp: f"{pp.family}-{pp.g}-{pp.h}")
def test_leading_coefficients(pp):
    for n in range(9):
        p = classical_poly(pp, n)
        assert p.degree == n
        assert p.lc() == leading_coeff(pp, n)


@pytest.mark.parametrize("pp", [HERMITE] + LAGUERRES + JACOBIS,
                         ids=lambda pp: f"{pp.family}-{pp.g}-{pp.h}")
def test_first_connection_coefficient(pp):
    # A_n c_{n+1,1} = n + 1, uniformly in the family
    for n in range(8):
        A, _, _ = recurrence_abc(pp, n)
        assert A * cnk(pp, n + 1, 1) == n + 1


@pytest.mark.parametrize("pp", [HERMITE] + LAGUERRES + JACOBIS,
                         ids=lambda pp: f"{pp.family}-{pp.g}-{pp.h}")
def test_derivative_expansion(pp):
    # d/deta P_n = sum_k c_{n,k} P_{n-k}; oracle is a direct basis expansion
    for n in range(8):
        dP = differentiate(classical_poly(pp, n))
        expanded = expand_in_classical(pp, dP)
        for k in range(1, n + 1):
            assert expanded.get(n - k, F(0)) == cnk(pp, n, k), (n, k)
        assert cnk(pp, n, 0) == 0
        assert cnk(pp, n, n + 1) == 0


@pytest.mark.parametrize("g, h", [(F(7, 3), F(9, 4)), (F(-1), F(-1)),
                                  (F(-1, 2), F(3, 2))])
def test_jacobi_cnk_row_matches_each_entry(g, h):
    # cnk reads a cached row; each entry, and whether it raises, is that
    # of its own O(k) product, also where a denominator elsewhere in the
    # row vanishes (g = h = -1 has a + b = -3)
    pp = ParamPoint("J", g=g, h=h)
    a, b = g - F(1, 2), h - F(1, 2)
    for n in range(1, 10):
        for k in range(1, n + 1):
            try:
                want = (n + a + b + 1) / 2 * jacobi_ank(a, b, n - 1, k - 1)
            except GenericityViolation as exc:
                with pytest.raises(GenericityViolation, match=str(exc)):
                    cnk(pp, n, k)
            else:
                assert cnk(pp, n, k) == want, (n, k)
    if g == -1:
        # the sweep of row 5 meets the vanishing alpha_2 denominator, yet
        # c_{5,1} = (5 + a + b + 1)/2 alpha_4 = 3/2 * 7
        assert cnk(pp, 5, 1) == F(21, 2)


def test_laguerre_derivative_and_index_shift():
    # d/deta L_n^(a) = -L_{n-1}^(a+1)  and  L_{n-1}^(a) + L_n^(a-1) = L_n^(a)
    for pp in LAGUERRES:
        up = ParamPoint("L", g=pp.g + 1)
        down = ParamPoint("L", g=pp.g - 1)
        for n in range(1, 8):
            assert differentiate(classical_poly(pp, n)) == \
                -1 * classical_poly(up, n - 1)
            assert classical_poly(pp, n - 1) + classical_poly(down, n) == \
                classical_poly(pp, n)


def test_jacobi_derivative_and_index_shifts():
    for pp in JACOBIS:
        a, b = pp.g - F(1, 2), pp.h - F(1, 2)
        up = ParamPoint("J", g=pp.g + 1, h=pp.h + 1)
        for n in range(1, 8):
            # d/deta P_n^(a,b) = (n+a+b+1)/2 P_{n-1}^(a+1,b+1)
            assert differentiate(classical_poly(pp, n)) == \
                (n + a + b + 1) / 2 * classical_poly(up, n - 1)
            # index-lowering in a single parameter
            ga = ParamPoint("J", g=pp.g - 1, h=pp.h)
            gb = ParamPoint("J", g=pp.g, h=pp.h - 1)
            assert (2 * n + a + b) * classical_poly(ga, n) == \
                (n + a + b) * classical_poly(pp, n) - \
                (n + b) * classical_poly(pp, n - 1)
            assert (2 * n + a + b) * classical_poly(gb, n) == \
                (n + a + b) * classical_poly(pp, n) + \
                (n + a) * classical_poly(pp, n - 1)


def test_jacobi_connection_closed_forms():
    # a_{n,k} for k <= 4 against the recursion-free closed forms
    for a, b in ((F(7, 6), F(3, 4)), (F(1, 2), F(5, 2)), (F(3), F(2))):
        s = a + b
        for n in range(4, 8):
            assert jacobi_ank(a, b, n, 0) == \
                pochhammer(2 * n + s + 1, 2) / pochhammer(n + s + 1, 2)
            assert jacobi_ank(a, b, n, 1) == \
                (b - a) * (2 * n + s - 1) * (2 * n + s + 1) / pochhammer(n + s, 3)
            assert jacobi_ank(a, b, n, 2) == \
                (2 * n + s - 3) * (2 * n + s) * \
                ((n + a) * (n + b) + (a - b) ** 2 - 1) / pochhammer(n + s - 1, 4)
            assert jacobi_ank(a, b, n, 3) == \
                (b - a) * (2 * n + s - 5) * (2 * n + s - 1) * \
                (2 * (n + s) * (n - 1) + a * (a + 1) + b * (b + 1) - 2) / \
                pochhammer(n + s - 2, 5)
            assert jacobi_ank(a, b, n, 4) == \
                (2 * n + s - 7) * (2 * n + s - 2) * (
                    5 * (a - b) ** 4
                    + 10 * (a - b) ** 2 * (4 * n * (n + s - 2)
                                           + (s + 1) * (s - 5) + 3)
                    + (2 * n + s - 6) * (2 * n + s - 4)
                    * (2 * n + s) * (2 * n + s + 2)
                ) / (16 * pochhammer(n + s - 3, 6))


@pytest.mark.parametrize("pp", [HERMITE] + LAGUERRES + JACOBIS,
                         ids=lambda pp: f"{pp.family}-{pp.g}-{pp.h}")
def test_shift_compatibility_identity(pp):
    # A_n c_{n+1,k+1} - A_{n-k-1} c_{n,k+1} + (B_n - B_{n-k}) c_{n,k}
    #   + C_n c_{n-1,k-1} - C_{n-k+1} c_{n,k-1} = 0   for 1 <= k <= n
    for n in range(8):
        An, Bn, _ = recurrence_abc(pp, n)
        _, _, Cn = recurrence_abc(pp, n)
        for k in range(1, n + 1):
            Ank, _, _ = recurrence_abc(pp, n - k - 1)
            _, Bnk, _ = recurrence_abc(pp, n - k)
            _, _, Cnk1 = recurrence_abc(pp, n - k + 1)
            total = (An * cnk(pp, n + 1, k + 1)
                     - Ank * cnk(pp, n, k + 1)
                     + (Bn - Bnk) * cnk(pp, n, k)
                     + Cn * cnk(pp, n - 1, k - 1)
                     - Cnk1 * cnk(pp, n, k - 1))
            assert total == 0, (pp.family, n, k)


# -- Schroedinger-side data: eigenvalues and virtual states ---------------


def apply_gauged_hamiltonian(pp, f: GaugedFn) -> GaugedFn:
    """-4 (c_2 f'' + c_1 f'), with full gauged derivatives."""
    c2 = schrodinger_c2(pp)
    c1 = schrodinger_c1(pp)
    df = f.deriv()
    return (df.deriv() * c2 + df * c1) * (-4)


@pytest.mark.parametrize("pp", LAGUERRES + JACOBIS,
                         ids=lambda pp: f"{pp.family}-{pp.g}-{pp.h}")
def test_classical_eigenfunctions(pp):
    for n in range(7):
        P = GaugedFn(r=classical_poly(pp, n))
        assert apply_gauged_hamiltonian(pp, P) == P * energy(pp, n)


@pytest.mark.parametrize("pp", LAGUERRES + JACOBIS,
                         ids=lambda pp: f"{pp.family}-{pp.g}-{pp.h}")
@pytest.mark.parametrize("vtype", ["I", "II"])
def test_virtual_states_are_eigenfunctions(pp, vtype):
    # the seeds solve the same gauged equation at negative energy
    for v in range(5):
        exps, p = seed(pp, vtype, v)
        phi = GaugedFn(*exps, r=p)
        assert apply_gauged_hamiltonian(pp, phi) == \
            phi * virtual_energy(pp, vtype, v), (pp.family, vtype, v)


@pytest.mark.parametrize("pp", LAGUERRES + JACOBIS,
                         ids=lambda pp: f"{pp.family}-{pp.g}-{pp.h}")
@pytest.mark.parametrize("vtype", ["I", "II"])
def test_virtual_leading_coefficients(pp, vtype):
    half = F(1, 2)
    for v in range(5):
        # strip the definitional gauge to expose the polynomial part
        exps, p = seed(pp, vtype, v)
        phi = GaugedFn(*exps, r=p)
        if pp.family == "L":
            bare = phi * (GaugedFn(a=-1) if vtype == "I"
                          else GaugedFn(b=pp.g - half))
        else:
            bare = phi * (GaugedFn(d=pp.h - half) if vtype == "I"
                          else GaugedFn(c=pp.g - half))
        p = bare.as_poly()
        assert p.degree == v
        assert p.lc() == virtual_leading(pp, vtype, v)


def test_virtual_energies_pinned():
    pp = ParamPoint("L", g=F(7, 3))
    assert virtual_energy(pp, "I", 1) == -4 * (F(7, 3) + 1 + F(1, 2))
    assert virtual_energy(pp, "II", 2) == -4 * (F(7, 3) - 2 - F(1, 2))
    pj = ParamPoint("J", g=F(7, 3), h=F(9, 4))
    assert virtual_energy(pj, "I", 1) == \
        -4 * (F(7, 3) + F(3, 2)) * (F(9, 4) - F(3, 2))
    assert virtual_energy(pj, "II", 1) == \
        -4 * (F(7, 3) - F(3, 2)) * (F(9, 4) + F(3, 2))


def test_parameter_maps():
    pp = ParamPoint("L", g=F(7, 3))
    assert twisted(pp, "I") == pp
    assert twisted(pp, "II").g == 1 - F(7, 3)
    assert delta_shift(pp).g == F(10, 3)
    assert shifted_params(pp, 2, 1).g == F(7, 3) + 1
    pj = ParamPoint("J", g=F(7, 3), h=F(9, 4))
    assert twisted(pj, "I") == ParamPoint("J", g=F(7, 3), h=1 - F(9, 4))
    assert twisted(pj, "II") == ParamPoint("J", g=1 - F(7, 3), h=F(9, 4))
    assert delta_shift(pj, 2) == ParamPoint("J", g=F(13, 3), h=F(17, 4))
    assert shifted_params(pj, 1, 2) == \
        ParamPoint("J", g=F(7, 3) - 1, h=F(9, 4) + 1)


def test_energies_pinned():
    assert energy(ParamPoint("L", g=F(7, 3)), 3) == 12
    assert energy(ParamPoint("J", g=F(7, 3), h=F(9, 4)), 2) == \
        8 * (2 + F(7, 3) + F(9, 4))
    with pytest.raises(ValueError):
        energy(ParamPoint("H"), 1)


def test_genericity_violation_raised():
    bad = ParamPoint("J", g=F(1, 2), h=F(1, 2))  # alpha + beta = 0
    with pytest.raises(GenericityViolation):
        recurrence_abc(bad, 0)
    degenerate = ParamPoint("J", g=F(-1), h=F(-2))  # c_2 = 0
    with pytest.raises(GenericityViolation):
        expand_in_classical(degenerate, Poly([0, 0, 1]))


def test_hermite_has_no_schrodinger_data():
    with pytest.raises(ValueError):
        seed(ParamPoint("H"), "I", 0)
    with pytest.raises(ValueError):
        virtual_energy(ParamPoint("H"), "I", 0)
    with pytest.raises(ValueError):
        seed(ParamPoint("L", g=F(1, 2)), "III", 0)
