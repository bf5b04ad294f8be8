"""Xi_D and P_{D,n} against sympy's Wronskian of the classical seeds.

An oracle outside the library's arithmetic: the seeds are sympy's own
``assoc_laguerre``/``jacobi`` polynomials times their gauges, the
Wronskian is ``sympy.wronskian``, and the compensating gauge is cancelled
by sympy's simplification.  Only the compared values come from mipoly.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from mipoly.exact import ParamPoint  # noqa: E402
from mipoly.mindexed import IndexSet, mi_poly, xi_poly  # noqa: E402

x = sympy.Symbol("x")
HALF = sympy.Rational(1, 2)
G, H = sympy.Rational(7, 3), sympy.Rational(9, 4)


def _seeds(family, D):
    """The virtual-state seeds, type I first, and the classical P_n."""
    a = G - HALF
    if family == "L":
        seeds = ([sympy.exp(x) * sympy.assoc_laguerre(v, a, -x) for v in D.type1]
                 + [x ** (HALF - G) * sympy.assoc_laguerre(v, -a, x)
                    for v in D.type2])
        return seeds, lambda n: sympy.assoc_laguerre(n, a, x)
    b = H - HALF
    seeds = ([((1 + x) / 2) ** (HALF - H) * sympy.jacobi(v, a, -b, x)
              for v in D.type1]
             + [((1 - x) / 2) ** (HALF - G) * sympy.jacobi(v, -a, b, x)
                for v in D.type2])
    return seeds, lambda n: sympy.jacobi(n, a, b, x)


def _gauge(family, D, shift):
    """The factor that strips the Wronskian to a polynomial."""
    s1, s2 = D.s1, D.s2
    if family == "L":
        return sympy.exp(-s1 * x) * x ** ((s1 + G + shift) * s2)
    return (((1 - x) / 2) ** ((s1 + G + shift) * s2)
            * ((1 + x) / 2) ** ((s2 + H + shift) * s1))


def _coeffs(expr):
    """Ascending Fraction coefficients of an expression that is a polynomial."""
    expr = sympy.cancel(sympy.together(sympy.powsimp(sympy.expand(expr))))
    cs = sympy.Poly(expr, x).all_coeffs()[::-1]
    return tuple(Fraction(int(c.p), int(c.q)) for c in cs)


@pytest.mark.parametrize("family,indices", [
    ("L", "2II"), ("L", "1I,2II"), ("J", "1I"), ("J", "1I,2II"),
])
def test_xi_and_members_match_sympy_wronskian(family, indices):
    pp = ParamPoint(family, g=Fraction(7, 3),
                    h=Fraction(9, 4) if family == "J" else None)
    D = IndexSet.parse(family, indices)
    seeds, classical = _seeds(family, D)
    xi = _coeffs(sympy.wronskian(seeds, x) * _gauge(family, D, -HALF))
    assert xi == xi_poly(pp, D).coeffs
    for n in range(4):
        w = sympy.wronskian(seeds + [classical(n)], x)
        assert _coeffs(w * _gauge(family, D, HALF)) == mi_poly(pp, D, n).coeffs, n
