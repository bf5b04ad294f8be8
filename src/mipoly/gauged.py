"""Gauged functions and exact Wronskians.

A :class:`GaugedFn` is a prefactor

    e^(a*eta) * eta^b * ((1-eta)/2)^c * ((1+eta)/2)^d

(the *gauge*; a an integer, b, c, d rationals) times a rational-function
residual.  The class is closed under d/d eta -- differentiation keeps the
gauge and maps the residual r to

    a*r + (b/eta) r - (c/(1-eta)) r + (d/(1+eta)) r + r'

-- and under multiplication (gauges add, residuals multiply).  Instances
are kept in a normal form where the integer parts of b, c, d are folded
into the residual (by exact division by the linear base, no gcd), so b,
c, d always lie in [0, 1); equality and hashing are then componentwise.
Addition requires identical gauges and raises :class:`GaugeMismatch`
otherwise.

Wronskians.  For columns f_1, ..., f_m the determinant

    W[f_1, ..., f_m] = det( d^i/deta^i f_j )_{0<=i<m}

is computed exactly from polynomial numerators.  Each column is written
as a raw gauge G_j times a polynomial p_j (the negative integer powers
the normal form keeps in the residual denominator go back into the
exponents; any other denominator raises :class:`NotPolynomial`).  With
w the product of the linear factors eta, eta - 1, eta + 1 that some G_j
carries, E_j = w G_j'/G_j is a polynomial and every derivative is

    f_j^(k) = G_j q_{j,k} / w^k,   q_{j,0} = p_j,
    q_{j,k+1} = w q_{j,k}' + (E_j - k w') q_{j,k}

(``numerator_ladder``).  The Wronskian is then (prod_j G_j) det(q) /
w^(sum of the row orders): one fraction-free Bareiss determinant of
polynomials (``det_poly``), with no denominator clearing and no gcd per
derivative; the power of w goes back into the gauge exponents.
``wronskian_rows`` takes an arbitrary list of derivative orders for the
rows, which is what the operator minors downstream need.

The classical determinant identities the construction leans on --
common-factor scaling, the nested-pair product, behaviour under a change
of variable, and the collapse of the matrix of cofactor minors -- are
bundled into a seeded self-check suite (``wronskian_identities_check``)
so the command-line ``verify`` command and the acceptance battery can
re-run them on demand.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import List, Sequence, Tuple

from .exact import (
    ETA,
    Poly,
    RatFunc,
    differentiate,
    poly_divmod,
    poly_lcm,
    rat,
)


class GaugeMismatch(ValueError):
    """Adding gauged functions whose gauges differ."""


class NotPolynomial(ValueError):
    """A quantity that must be polynomial has a nontrivial denominator or gauge."""


_HALF_MINUS = Poly([Fraction(1, 2), Fraction(-1, 2)])  # (1-eta)/2
_HALF_PLUS = Poly([Fraction(1, 2), Fraction(1, 2)])    # (1+eta)/2


def _fold(base: Poly, exponent: Fraction, r: RatFunc):
    """Split exponent = frac + int, multiply base^int into r, return (frac, r).

    base is linear, so cancelling it against r is exact division by base,
    repeated while it goes through; no gcd is needed.
    """
    n = math.floor(exponent)
    if n:
        # cancel base from num (n < 0) or den (n > 0) while it divides;
        # what is left of base^|n| joins the other side
        top, bottom = (r.num, r.den) if n < 0 else (r.den, r.num)
        k = abs(n)
        while k and not top.is_zero():
            q, rem = poly_divmod(top, base)
            if not rem.is_zero():
                break
            top, k = q, k - 1
        bottom = bottom * base ** k
        if n > 0:
            top, bottom = bottom, top
        r = RatFunc._reduced(top, bottom)
    return exponent - n, r


class GaugedFn:
    __slots__ = ("a", "b", "c", "d", "r")

    def __init__(self, a=0, b=0, c=0, d=0, r=None):
        r = RatFunc.of(1 if r is None else r)
        if not isinstance(a, int):
            ra = rat(a)
            if ra.denominator != 1:
                raise ValueError("exponential gauge exponent must be an integer")
            a = int(ra)
        b, r = _fold(ETA, rat(b), r)
        c, r = _fold(_HALF_MINUS, rat(c), r)
        d, r = _fold(_HALF_PLUS, rat(d), r)
        if r.is_zero():
            a, b, c, d = 0, Fraction(0), Fraction(0), Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "r", r)

    @staticmethod
    def from_poly(p: Poly) -> "GaugedFn":
        return GaugedFn(r=RatFunc(p))

    def gauge(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def is_zero(self) -> bool:
        return self.r.is_zero()

    # -- arithmetic -----------------------------------------------------
    def __mul__(self, other) -> "GaugedFn":
        if isinstance(other, GaugedFn):
            return GaugedFn(self.a + other.a, self.b + other.b,
                            self.c + other.c, self.d + other.d,
                            self.r * other.r)
        return GaugedFn(self.a, self.b, self.c, self.d, self.r * RatFunc.of(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaugedFn":
        if isinstance(other, GaugedFn):
            return GaugedFn(self.a - other.a, self.b - other.b,
                            self.c - other.c, self.d - other.d,
                            self.r / other.r)
        return GaugedFn(self.a, self.b, self.c, self.d, self.r / RatFunc.of(other))

    def __add__(self, other) -> "GaugedFn":
        if not isinstance(other, GaugedFn):
            other = GaugedFn(r=RatFunc.of(other))
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.gauge() != other.gauge():
            raise GaugeMismatch(
                f"cannot add gauges {self.gauge()} and {other.gauge()}")
        return GaugedFn(self.a, self.b, self.c, self.d, self.r + other.r)

    __radd__ = __add__

    def __neg__(self) -> "GaugedFn":
        return GaugedFn(self.a, self.b, self.c, self.d, -self.r)

    def __sub__(self, other) -> "GaugedFn":
        if not isinstance(other, GaugedFn):
            other = GaugedFn(r=RatFunc.of(other))
        return self + (-other)

    def deriv(self) -> "GaugedFn":
        r = self.r
        out = r.deriv()
        if self.a:
            out = out + r * self.a
        if self.b:
            out = out + r * RatFunc(Poly.const(self.b), ETA)
        if self.c:
            out = out - r * RatFunc(Poly.const(self.c), Poly([1, -1]))
        if self.d:
            out = out + r * RatFunc(Poly.const(self.d), Poly([1, 1]))
        return GaugedFn(self.a, self.b, self.c, self.d, out)

    # -- extraction -----------------------------------------------------
    def is_gaugeless(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def as_ratfunc(self) -> RatFunc:
        if not self.is_gaugeless():
            raise NotPolynomial(f"gauge {self.gauge()} does not reduce away")
        return self.r

    def as_poly(self) -> Poly:
        r = self.as_ratfunc()
        if not r.is_polynomial():
            raise NotPolynomial(f"denominator {r.den!r} remains")
        return r.num

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaugedFn):
            return NotImplemented
        return self.gauge() == other.gauge() and self.r == other.r

    def __hash__(self) -> int:
        return hash(("GaugedFn", self.gauge(), self.r))

    def __repr__(self) -> str:
        return (f"GaugedFn(a={self.a}, b={self.b}, c={self.c}, d={self.d}, "
                f"r={self.r!r})")


# The monic linear factors of the gauge bases eta, (1-eta)/2, (1+eta)/2,
# one per exponent slot b, c, d, with factor = const * base.
_LINEAR = ((ETA, 1), (Poly([-1, 1]), -2), (Poly([1, 1]), 2))


def _raw_gauge(f: GaugedFn) -> Tuple[tuple, Poly]:
    """f = e^(a eta) eta^b ((1-eta)/2)^c ((1+eta)/2)^d p: ((a, b, c, d), p).

    The normal form folds negative integer exponents into the residual
    denominator; they go back into the exponents here.
    """
    exps = [f.b, f.c, f.d]
    num, den = f.r.num, f.r.den
    for slot, (factor, const) in enumerate(_LINEAR):
        while den.degree > 0:
            q, rem = poly_divmod(den, factor)
            if not rem.is_zero():
                break
            den = q
            exps[slot] -= 1
            num = num * Fraction(1, const)
    if den.degree > 0:
        raise NotPolynomial(
            f"residual denominator {den!r} is not a gauge factor")
    return (f.a, *exps), num


def numerator_ladder(fs: Sequence[GaugedFn], kmax: int):
    """Polynomial numerators of the derivatives of gauged columns.

    Returns (w, present, columns).  Each column is (G, [q_0, ..., q_kmax])
    with f^(k) = G q_k / w^k and G a raw gauge (a, b, c, d).  w is the
    product of the linear factors eta, eta - 1, eta + 1 that some G
    carries; present[s] says whether the factor of slot s (b, c, d) is in
    w.  E = w G'/G is then a polynomial, and q_{k+1} = w q_k' + (E - k w') q_k.
    """
    split = [_raw_gauge(f) for f in fs]
    present = [any(g[s + 1] for g, _ in split) for s in range(3)]
    w = Poly.one()
    for (factor, _), there in zip(_LINEAR, present):
        if there:
            w = w * factor
    dw = differentiate(w)
    columns = []
    for g, p in split:
        E = g[0] * w
        for s, (factor, _) in enumerate(_LINEAR):
            if g[s + 1]:
                E = E + g[s + 1] * poly_divmod(w, factor)[0]
        qs = [p]
        for k in range(kmax):
            q = qs[-1]
            qs.append(w * differentiate(q) + (E - k * dw) * q)
        columns.append((g, qs))
    return w, present, columns


def det_poly(M: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a polynomial matrix, fraction-free Bareiss."""
    m = len(M)
    if m == 0:
        return Poly.one()
    if m == 1:
        return M[0][0]
    if m == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    A = [list(row) for row in M]
    sign = 1
    prev = Poly.one()
    for k in range(m - 1):
        if A[k][k].is_zero():
            for i in range(k + 1, m):
                if not A[i][k].is_zero():
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return Poly.zero()
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                num = A[i][j] * A[k][k] - A[i][k] * A[k][j]
                q, rem = poly_divmod(num, prev)
                assert rem.is_zero(), "Bareiss exact division failed"
                A[i][j] = q
            A[i][k] = Poly.zero()
        prev = A[k][k]
    d = A[m - 1][m - 1]
    return d if sign == 1 else -d


def det_ratfunc(M: Sequence[Sequence[RatFunc]]) -> RatFunc:
    """Determinant of a rational-function matrix.

    Clears denominators with one LCM per column, takes the polynomial
    determinant, and divides the column multipliers back out.  Wronskians
    do not use it (their entries are polynomial numerators over powers of
    one w); it stays a public name because the benchmark (BENCHMARK.json,
    perfbench/) declares its self time.
    """
    m = len(M)
    if m == 0:
        return RatFunc(Poly.one())
    clear = []
    for j in range(m):
        L = Poly.one()
        for i in range(m):
            L = poly_lcm(L, M[i][j].den)
        clear.append(L)
    P = []
    for i in range(m):
        row = []
        for j in range(m):
            q, rem = poly_divmod(clear[j], M[i][j].den)
            assert rem.is_zero()
            row.append(M[i][j].num * q)
        P.append(row)
    det = det_poly(P)
    denom = Poly.one()
    for L in clear:
        denom = denom * L
    return RatFunc(det, denom)


def wronskian_rows(fs: Sequence[GaugedFn], orders: Sequence[int]) -> GaugedFn:
    """det( d^orders[i] f_j ) with one row per requested derivative order.

    Needs len(orders) == len(fs).  The empty Wronskian is 1.
    """
    m = len(fs)
    if len(orders) != m:
        raise ValueError("need as many derivative orders as columns")
    if m == 0:
        return GaugedFn()
    _, present, columns = numerator_ladder(fs, max(orders))
    det = det_poly([[qs[k] for _, qs in columns] for k in orders])
    # (prod G_j) det / w^S, with 1/w^S moved into the gauge exponents
    S = sum(orders)
    exps = [sum(g[i] for g, _ in columns) for i in range(4)]
    scale = Fraction(1)
    for s, (_, const) in enumerate(_LINEAR):
        if present[s]:
            exps[s + 1] -= S
            scale /= Fraction(const) ** S
    return GaugedFn(*exps, r=det * scale)


def wronskian(fs: Sequence[GaugedFn]) -> GaugedFn:
    """Classical Wronskian W[f_1, ..., f_m]."""
    return wronskian_rows(fs, list(range(len(fs))))


# -- seeded identity suite ---------------------------------------------------

Report = List[Tuple[str, bool, str]]


def _random_poly(rng: random.Random, max_degree: int,
                 nonzero: bool = False) -> Poly:
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
              for _ in range(rng.randint(0, max_degree) + 1)]
    p = Poly(coeffs)
    if nonzero and p.is_zero():
        p = p + Poly.one()
    return p


def poly_wronskian(fs: Sequence[Poly]) -> Poly:
    """Wronskian of plain polynomials (gaugeless columns)."""
    return wronskian([GaugedFn.from_poly(f) for f in fs]).as_poly()


def wronskian_identities_check(seed: int = 0, trials: int = 12) -> Report:
    """Exercise the four determinant identities on random polynomials.

    Per trial: up to four columns of degree <= 5.  Returns one
    (name, ok, detail) row per identity; everything is exact, so ok is
    a genuine identity check, not a tolerance.
    """
    rng = random.Random(seed)
    report: Report = []

    def run(name, one_trial):
        for i in range(trials):
            if not one_trial():
                report.append((name, False, f"instance {i} failed"))
                return
        report.append((name, True, f"{trials} seeded instances"))

    def common_factor():
        # W[g f_1, ..., g f_n] = g^n W[f_1, ..., f_n]
        n = rng.randint(1, 4)
        fs = [_random_poly(rng, 5) for _ in range(n)]
        g = _random_poly(rng, 5, nonzero=True)
        return poly_wronskian([g * f for f in fs]) == \
            g ** n * poly_wronskian(fs)

    def nested_pair():
        # W[ W[f..., g], W[f..., h] ] = W[f...] W[f..., g, h]
        n = rng.randint(0, 3)
        fs = [_random_poly(rng, 5) for _ in range(n)]
        g = _random_poly(rng, 5)
        h = _random_poly(rng, 5)
        lhs = poly_wronskian([poly_wronskian(fs + [g]),
                              poly_wronskian(fs + [h])])
        return lhs == poly_wronskian(fs) * poly_wronskian(fs + [g, h])

    def variable_change():
        # under eta = x^2 the Wronskian picks up (d eta/dx)^(n(n-1)/2)
        n = rng.randint(1, 4)
        fs = [_random_poly(rng, 5) for _ in range(n)]
        square = Poly([0, 0, 1])
        lhs = poly_wronskian([f.compose(square) for f in fs])
        rhs = Poly([0, 2]) ** (n * (n - 1) // 2) \
            * poly_wronskian(fs).compose(square)
        return lhs == rhs

    def cofactor_minors():
        # the Wronskian of the n omit-one-column minors collapses to a
        # power of the full Wronskian (up to the triangular sign)
        n = rng.randint(2, 4)
        fs = [_random_poly(rng, 5) for _ in range(n)]
        minors = [poly_wronskian(fs[:j] + fs[j + 1:]) for j in range(n)]
        sign = (-1) ** (n * (n - 1) // 2)
        return poly_wronskian(minors) == sign * poly_wronskian(fs) ** (n - 1)

    run("common_factor", common_factor)
    run("nested_pair", nested_pair)
    run("variable_change", variable_change)
    run("cofactor_minors", cofactor_minors)
    return report
