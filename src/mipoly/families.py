"""Classical Hermite/Laguerre/Jacobi data and the virtual-state seeds.

Polynomials are generated from the three-term recurrence

    eta P_n = A_n P_{n+1} + B_n P_n + C_n P_{n-1},    P_0 = 1, P_{<0} = 0,

with the coefficient convention A_{-1} = 0 (this overrides the closed
form; it matters for Hermite, whose A_n is constant).  Parameters are
(g, h) with alpha = g - 1/2 and beta = h - 1/2:

* 'H' -- physicists' Hermite, no parameters,
* 'L' -- Laguerre L_n^(alpha),
* 'J' -- Jacobi P_n^(alpha, beta).

Besides the recurrence data the module knows, per family: the leading
coefficient c_n; the derivative expansion d/deta P_n = sum_k c_{n,k}
P_{n-k}; the eigenvalue E_n; and for Laguerre/Jacobi the two kinds of
virtual-state seeds (type I and type II, as (gauge exponents,
polynomial) Wronskian columns), their twisted parameter maps, virtual
energies and leading coefficients, and the parameter shifts lambda ->
lambda + delta and lambda -> lambda^{[s1, s2]} used by the construction
of multi-indexed families.

Division by zero in a closed-form coefficient (possible for Jacobi when
2n + alpha + beta hits a nonpositive integer, or when a parameter choice
kills a leading coefficient) raises :class:`GenericityViolation` rather
than silently producing nonsense.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .exact import ETA, ParamPoint, Poly, pochhammer


class GenericityViolation(ValueError):
    """A parameter point fails a nonvanishing requirement."""


def alpha_of(pp: ParamPoint) -> Fraction:
    if pp.family not in ("L", "J"):
        raise ValueError("alpha is defined for Laguerre/Jacobi only")
    return pp.g - Fraction(1, 2)


def beta_of(pp: ParamPoint) -> Fraction:
    if pp.family != "J":
        raise ValueError("beta is defined for Jacobi only")
    return pp.h - Fraction(1, 2)


def _nonzero(x: Fraction, what: str) -> Fraction:
    if x == 0:
        raise GenericityViolation(f"{what} vanishes")
    return x


@functools.lru_cache(maxsize=None)
def recurrence_abc(pp: ParamPoint, n: int) -> Tuple[Fraction, Fraction, Fraction]:
    """(A_n, B_n, C_n) of the three-term recurrence; A_{-1} = 0 by fiat."""
    if n < 0:
        return Fraction(0), Fraction(0), Fraction(0)
    if pp.family == "H":
        return Fraction(1, 2), Fraction(0), Fraction(n)
    if pp.family == "L":
        a = alpha_of(pp)
        return Fraction(-(n + 1)), 2 * n + a + 1, -(n + a)
    a, b = alpha_of(pp), beta_of(pp)
    s = a + b
    A = 2 * (n + 1) * (n + s + 1) / _nonzero(
        (2 * n + s + 1) * (2 * n + s + 2), f"A_{n} denominator")
    B = (b * b - a * a) / _nonzero(
        (2 * n + s) * (2 * n + s + 2), f"B_{n} denominator")
    C = 2 * (n + a) * (n + b) / _nonzero(
        (2 * n + s) * (2 * n + s + 1), f"C_{n} denominator")
    return A, B, C


#: A cold P_n first builds P_(n - _STRIDE), so the recursion through the
#: cache stays about n / _STRIDE + _STRIDE calls deep.
_STRIDE = 64


@functools.lru_cache(maxsize=None)
def classical_poly(pp: ParamPoint, n: int) -> Poly:
    """P_n from the three-term recurrence (zero for n < 0).

    One step from the cached P_(n-1) and P_(n-2), so the sequence up to
    n costs n steps in all.
    """
    if n < 0:
        return Poly.zero()
    if n == 0:
        return Poly.one()
    if n > _STRIDE:
        classical_poly(pp, n - _STRIDE)
    m = n - 1
    prev, cur = classical_poly(pp, m - 1), classical_poly(pp, m)
    A, B, C = recurrence_abc(pp, m)
    return (ETA * cur - B * cur - C * prev) * (1 / _nonzero(A, f"A_{m}"))


def leading_coeff(pp: ParamPoint, n: int) -> Fraction:
    """c_n, the eta^n coefficient of P_n."""
    if n < 0:
        raise ValueError("leading coefficient needs n >= 0")
    if pp.family == "H":
        return Fraction(2) ** n
    if pp.family == "L":
        return Fraction((-1) ** n, math.factorial(n))
    return pochhammer(n + pp.g + pp.h, n) / (Fraction(2) ** n * math.factorial(n))


def energy(pp: ParamPoint, n: int) -> Fraction:
    """Eigenvalue E_n of the gauged Hamiltonian acting on P_n."""
    if pp.family == "L":
        return Fraction(4 * n)
    if pp.family == "J":
        return 4 * n * (n + pp.g + pp.h)
    raise ValueError("energies are defined for Laguerre/Jacobi only")


def c_factor(pp: ParamPoint) -> Fraction:
    """The constant c_F relating forward operators to their gauged form."""
    if pp.family == "L":
        return Fraction(2)
    if pp.family == "J":
        return Fraction(-4)
    raise ValueError("c_F is defined for Laguerre/Jacobi only")


def schrodinger_c2(pp: ParamPoint) -> Poly:
    """c_2(eta): coefficient of the second-derivative term."""
    if pp.family == "L":
        return ETA
    if pp.family == "J":
        return Poly([1, 0, -1])
    raise ValueError("c_2 is defined for Laguerre/Jacobi only")


def schrodinger_c1(pp: ParamPoint) -> Poly:
    """c_1(eta, lambda) at this parameter point."""
    if pp.family == "L":
        return Poly([pp.g + Fraction(1, 2), -1])
    if pp.family == "J":
        return Poly([pp.h - pp.g, -(pp.g + pp.h + 1)])
    raise ValueError("c_1 is defined for Laguerre/Jacobi only")


def delta_shift(pp: ParamPoint, steps: int = 1) -> ParamPoint:
    """lambda + steps * delta (delta = 1 for L, (1, 1) for J)."""
    if pp.family == "L":
        return pp.with_params(g=pp.g + steps)
    if pp.family == "J":
        return pp.with_params(g=pp.g + steps, h=pp.h + steps)
    raise ValueError("delta shift is defined for Laguerre/Jacobi only")


def shifted_params(pp: ParamPoint, s1: int, s2: int) -> ParamPoint:
    """lambda^{[s1, s2]} = lambda + s1*deltatilde_I + s2*deltatilde_II."""
    if pp.family == "L":
        return pp.with_params(g=pp.g + s1 - s2)
    if pp.family == "J":
        return pp.with_params(g=pp.g + s1 - s2, h=pp.h - s1 + s2)
    raise ValueError("parameter shifts are defined for Laguerre/Jacobi only")


def twisted(pp: ParamPoint, vtype: str) -> ParamPoint:
    """The twist taking classical parameters to seed parameters."""
    _check_vtype(vtype)
    if pp.family == "L":
        if vtype == "I":
            return pp
        return pp.with_params(g=1 - pp.g)
    if pp.family == "J":
        if vtype == "I":
            return pp.with_params(g=pp.g, h=1 - pp.h)
        return pp.with_params(g=1 - pp.g, h=pp.h)
    raise ValueError("twists are defined for Laguerre/Jacobi only")


def _check_vtype(vtype: str) -> None:
    if vtype not in ("I", "II"):
        raise ValueError(f"virtual state type must be 'I' or 'II', got {vtype!r}")


def virtual_energy(pp: ParamPoint, vtype: str, v: int) -> Fraction:
    """Etilde_v for a type I/II virtual state."""
    _check_vtype(vtype)
    half = Fraction(1, 2)
    if pp.family == "L":
        if vtype == "I":
            return -4 * (pp.g + v + half)
        return -4 * (pp.g - v - half)
    if pp.family == "J":
        if vtype == "I":
            return -4 * (pp.g + v + half) * (pp.h - v - half)
        return -4 * (pp.g - v - half) * (pp.h + v + half)
    raise ValueError("virtual energies are defined for Laguerre/Jacobi only")


def virtual_leading(pp: ParamPoint, vtype: str, v: int) -> Fraction:
    """Leading coefficient ctilde_v of the polynomial part of a seed."""
    _check_vtype(vtype)
    if pp.family == "L":
        if vtype == "I":
            # c_v at twisted parameters times the sign of the eta -> -eta flip
            return Fraction(1, math.factorial(v))
        return leading_coeff(twisted(pp, "II"), v)
    if pp.family == "J":
        return leading_coeff(twisted(pp, vtype), v)
    raise ValueError("virtual seeds are defined for Laguerre/Jacobi only")


def seed(pp: ParamPoint, vtype: str, v: int) -> Tuple[tuple, Poly]:
    """The virtual-state seed function phi_v as a Wronskian column
    ((a, b, c, d), p), phi_v = e^(a eta) eta^b ((1-eta)/2)^c ((1+eta)/2)^d p:

    Laguerre:  I)  e^eta L_v^(alpha)(-eta)
               II) eta^(1/2 - g) L_v^(-alpha)(eta)
    Jacobi:    I)  ((1+eta)/2)^(1/2 - h) P_v^(alpha, -beta)(eta)
               II) ((1-eta)/2)^(1/2 - g) P_v^(-alpha, beta)(eta)
    """
    _check_vtype(vtype)
    if v < 0:
        raise ValueError("seed index must be >= 0")
    half = Fraction(1, 2)
    if pp.family == "L":
        if vtype == "I":
            return (1, 0, 0, 0), classical_poly(pp, v).compose(Poly([0, -1]))
        return (0, half - pp.g, 0, 0), classical_poly(twisted(pp, "II"), v)
    if pp.family == "J":
        if vtype == "I":
            return (0, 0, 0, half - pp.h), classical_poly(twisted(pp, "I"), v)
        return (0, 0, half - pp.g, 0), classical_poly(twisted(pp, "II"), v)
    raise ValueError("virtual seeds are defined for Laguerre/Jacobi only")


def cnk(pp: ParamPoint, n: int, k: int) -> Fraction:
    """Coefficient c_{n,k} in d/deta P_n = sum_{k=1}^{n} c_{n,k} P_{n-k}."""
    if k < 1 or k > n:
        return Fraction(0)
    if pp.family == "H":
        return Fraction(2 * n) if k == 1 else Fraction(0)
    if pp.family == "L":
        return Fraction(-1)
    row = _jacobi_cnk_row(pp, n)
    if row is not None:
        return row[k - 1]
    a, b = alpha_of(pp), beta_of(pp)
    return (n + a + b + 1) / 2 * jacobi_ank(a, b, n - 1, k - 1)


@functools.lru_cache(maxsize=None)
def _jacobi_cnk_row(pp: ParamPoint, n: int) -> Optional[Tuple[Fraction, ...]]:
    """(c_{n,1}, ..., c_{n,n}) for Jacobi, from one O(n) sweep of a_{n-1,k}.

    The sweep is jacobi_ank's recursion run once through k = n - 1, so
    it meets every denominator of the row.  When one of them vanishes it
    returns None and cnk falls back to the entry's own O(k) product,
    which raises only if a denominator on that entry's path vanishes.
    """
    a, b = alpha_of(pp), beta_of(pp)
    alph, bet, gam = _jacobi_ratios(a, b)
    m = n - 1
    try:
        row, bk, ck = [alph(m)], 1, 0
        for k in range(1, m + 1):
            bk, ck = bet(m - k + 1) * bk + ck, gam(m - k + 1) * bk
            row.append(alph(m - k) * bk)
    except GenericityViolation:
        return None
    scale = (n + a + b + 1) / 2
    return tuple(scale * x for x in row)


def _jacobi_ratios(a: Fraction, b: Fraction):
    """alpha_m, beta_m, gamma_m of the a_{n,k} recursion, as functions of m."""
    s = a + b

    def alph(m):
        return (2 * m + s + 1) * (2 * m + s + 2) / _nonzero(
            (m + s + 1) * (m + s + 2), "alpha_n denominator")

    def bet(m):
        return (b - a) * (2 * m + s + 1) / _nonzero(
            (m + s + 2) * (2 * m + s), "beta_n denominator")

    def gam(m):
        return (m + a) * (m + b) * (2 * m + s + 2) / _nonzero(
            (m + s + 1) * (m + s + 2) * (2 * m + s), "gamma_n denominator")

    return alph, bet, gam


def jacobi_ank(a: Fraction, b: Fraction, n: int, k: int) -> Fraction:
    """a_{n,k}: coefficient of P_{n-k}^(a,b) in P_n^(a+1,b+1)."""
    if k < 0 or k > n:
        return Fraction(0)
    alph, bet, gam = _jacobi_ratios(a, b)
    if k == 0:
        return alph(n)
    bk, ck = bet(n), gam(n)
    for j in range(1, k):
        bk, ck = bet(n - j) * bk + ck, gam(n - j) * bk
    return alph(n - k) * bk


def expand_in_classical(pp: ParamPoint, q: Poly) -> Dict[int, Fraction]:
    """Coefficients of q in the basis {P_0, P_1, ...}, by degree descent."""
    out: Dict[int, Fraction] = {}
    rem = q
    while not rem.is_zero():
        n = rem.degree
        cn = _nonzero(leading_coeff(pp, n), f"c_{n}")
        coeff = rem.lc() / cn
        out[n] = coeff
        rem = rem - coeff * classical_poly(pp, n)
        assert rem.is_zero() or rem.degree < n
    return out
