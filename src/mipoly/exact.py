"""Exact rational scalars and univariate polynomial arithmetic.

Everything in this package is computed over the rationals; no floats
anywhere.  ``Rational`` is the standard-library :class:`~fractions.Fraction`
(arbitrary precision, gcd-normalized, positive denominator -- exactly the
invariants we need).  On top of it sit

* :class:`Poly` -- a dense univariate polynomial in the variable ``eta``,
  stored as a coefficient tuple in ascending degree with no trailing zeros.
  The zero polynomial has degree ``NEG_INF`` (a sentinel, never ``-1``), so
  degree bookkeeping in the Wronskian/recurrence layers stays honest.
* :class:`RatFunc` -- a quotient of two Polys kept in normal form:
  gcd(num, den) = 1 and den monic.  Closed under +, -, *, / and d/d eta.
  The Wronskian and operator layers keep polynomial numerators over
  explicit denominators and build a RatFunc only for a result, so
  RatFunc arithmetic mostly serves the gauged calculus and the test
  oracles; its sum is the plain cross-multiplied quotient, normalized.
* :class:`ParamPoint` -- the parameter point (family tag plus g, h) that
  every family-dependent construction receives.  It is a dumb frozen
  record; genericity of a parameter point is enforced where it is
  checkable, by the layers that know the index sets.

Module-level helpers provide the calculus bits used everywhere downstream:
``differentiate``, ``integrate_from_zero`` (antiderivative vanishing at 0),
``poly_divmod``/``poly_gcd`` (exact division with remainder, monic gcd) and
the Pochhammer symbol ``(x)_n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Rational = Fraction

#: Degree of the zero polynomial.  Compares smaller than every int.
NEG_INF = float("-inf")

ScalarLike = Union[int, str, Fraction]


def rat(x: ScalarLike) -> Fraction:
    """Coerce an int, "p/q" string, or Fraction to an exact Rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def rat_str(x: Fraction) -> str:
    """Serialize a Rational as "p/q" ("p" when the denominator is 1)."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class Poly:
    """Dense univariate polynomial over Rational, coefficients ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly([1])

    @staticmethod
    def const(c: ScalarLike) -> "Poly":
        return Poly([c])

    @staticmethod
    def monomial(c: ScalarLike, k: int) -> "Poly":
        return Poly([0] * k + [rat(c)])

    # -- structure ----------------------------------------------------
    @property
    def degree(self):
        """Degree as an int, or NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def lc(self) -> Fraction:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    # -- ring operations ----------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero() or other.is_zero():
                return Poly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        c = rat(other)
        return Poly([c * a for a in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: ScalarLike) -> Fraction:
        """Evaluate by Horner's rule."""
        x = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        """Polynomial composition self(inner(eta))."""
        acc = Poly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly.const(c)
        return acc

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = 1 / self.lc()
        return Poly([c * inv for c in self.coeffs])

    # -- misc ----------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("Poly", self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(rat_str(c))
            elif k == 1:
                terms.append(f"{rat_str(c)}*eta")
            else:
                terms.append(f"{rat_str(c)}*eta^{k}")
        return "Poly(" + " + ".join(terms) + ")"

    def to_strings(self) -> list:
        """JSON form: coefficient strings, ascending degree."""
        return [rat_str(c) for c in self.coeffs]


#: The variable itself, and common constants.
ETA = Poly([0, 1])
ONE = Poly([1])
ZERO = Poly()


def differentiate(p: Poly) -> Poly:
    """d/d eta, coefficient-wise."""
    return Poly([k * c for k, c in enumerate(p.coeffs)][1:])


def integrate_from_zero(p: Poly) -> Poly:
    """Antiderivative with zero constant term: result(0) = 0."""
    return Poly([Fraction(0)] + [c / (k + 1) for k, c in enumerate(p.coeffs)])


def poly_divmod(a: Poly, b: Poly) -> tuple:
    """Exact division with remainder: a = q*b + r, deg r < deg b."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a.coeffs) - len(b.coeffs) + 1, 0)
    rem = list(a.coeffs)           # no trailing zeros: rem[-1] is the lead
    binv = 1 / b.lc()
    db = len(b.coeffs) - 1
    while len(rem) - 1 >= db:
        shift = len(rem) - 1 - db
        factor = rem[-1] * binv
        q[shift] = factor
        for i, c in enumerate(b.coeffs):
            rem[shift + i] -= factor * c
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return Poly(q), Poly(rem)


def _int_coeffs(p: Poly) -> list:
    """Scale to integer coefficients (content is irrelevant to the gcd)."""
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    out = [int(c * den) for c in p.coeffs]
    g = 0
    for c in out:
        g = math.gcd(g, c)
    return [c // g for c in out] if g > 1 else out


def _prem(u: list, v: list) -> list:
    """Pseudo-remainder of integer coefficient lists (deg u >= deg v)."""
    u = list(u)
    dv = len(v) - 1
    lv = v[-1]
    while u and len(u) - 1 >= dv:
        lead = u[-1]
        u = [c * lv for c in u]
        shift = len(u) - len(v)
        for i, c in enumerate(v):
            u[shift + i] -= lead * c
        while u and u[-1] == 0:
            u.pop()
    return u


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd, via a primitive pseudo-remainder sequence over Z.

    Plain Euclid over Q blows up the Fraction coefficients; clearing to
    integers and dividing each remainder by its content keeps them tame.
    """
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    u, v = _int_coeffs(a), _int_coeffs(b)
    if len(u) < len(v):
        u, v = v, u
    while v:
        r = _prem(u, v)
        if r:
            g = 0
            for c in r:
                g = math.gcd(g, c)
            r = [c // g for c in r]
        u, v = v, r
    return Poly(u).monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    """Monic lcm.  No construction calls it; it stays a public name because
    the benchmark (BENCHMARK.json, perfbench/) declares its call count."""
    if a.is_zero() or b.is_zero():
        return Poly()
    g = poly_gcd(a, b)
    q, r = poly_divmod(a * b, g)
    assert r.is_zero()
    return q.monic()


def pochhammer(x: ScalarLike, n: int) -> Fraction:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1); (x)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    x = rat(x)
    out = Fraction(1)
    for i in range(n):
        out *= x + i
    return out


class RatFunc:
    """Rational function num/den in normal form (den monic, gcd = 1)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, str, Fraction)):
            num = Poly.const(num)
        if den is None:
            den = Poly.one()
        elif isinstance(den, (int, str, Fraction)):
            den = Poly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly.zero(), Poly.one()
        else:
            if den.degree > 0:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num, _ = poly_divmod(num, g)
                    den, _ = poly_divmod(den, g)
            lc = den.lc()
            if lc != 1:
                num = num * (1 / lc)
                den = den * (1 / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def from_poly(p: Poly) -> "RatFunc":
        return RatFunc(p)

    @classmethod
    def of(cls, x) -> "RatFunc":
        """x itself if it is a RatFunc, else the RatFunc of a Poly or scalar."""
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (Poly, int, str, Fraction)):
            return cls(x)
        raise TypeError(f"cannot interpret {x!r} as a rational function")

    @classmethod
    def _reduced(cls, num: Poly, den: Poly) -> "RatFunc":
        """Fast path when num/den are already known to be coprime."""
        self = object.__new__(cls)
        if num.is_zero():
            num, den = Poly.zero(), Poly.one()
        else:
            lc = den.lc()
            if lc != 1:
                num = num * (1 / lc)
                den = den * (1 / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == Poly.one()

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: denominator {self.den!r}")
        return self.num

    def __add__(self, other) -> "RatFunc":
        other = RatFunc.of(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc._reduced(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-RatFunc.of(other))

    def __rsub__(self, other) -> "RatFunc":
        return RatFunc.of(other) + (-self)

    def __mul__(self, other):
        try:
            other = RatFunc.of(other)
        except TypeError:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RF_ZERO
        n1, d2 = _cross_reduce(self.num, other.den)
        n2, d1 = _cross_reduce(other.num, self.den)
        return RatFunc._reduced(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = RatFunc.of(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        if self.is_zero():
            return RF_ZERO
        n1, n2 = _cross_reduce(self.num, other.num)
        d1, d2 = _cross_reduce(self.den, other.den)
        return RatFunc._reduced(n1 * d2, d1 * n2)

    def __rtruediv__(self, other) -> "RatFunc":
        return RatFunc.of(other) / self

    def deriv(self) -> "RatFunc":
        """Quotient rule; the result is renormalized."""
        return RatFunc(
            differentiate(self.num) * self.den - self.num * differentiate(self.den),
            self.den * self.den,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash(("RatFunc", self.num, self.den))

    def __repr__(self) -> str:
        if self.is_polynomial():
            return f"RatFunc({self.num!r})"
        return f"RatFunc({self.num!r} / {self.den!r})"


def _cross_reduce(a: Poly, b: Poly) -> tuple:
    """(a/g, b/g) for g = gcd(a, b)."""
    g = poly_gcd(a, b)
    if g.degree <= 0:
        return a, b
    qa, _ = poly_divmod(a, g)
    qb, _ = poly_divmod(b, g)
    return qa, qb


RF_ZERO = RatFunc(Poly.zero())
RF_ONE = RatFunc(Poly.one())


@dataclass(frozen=True)
class ParamPoint:
    """Parameter point: family tag 'H' | 'L' | 'J' plus g (L, J) and h (J).

    alpha = g - 1/2 and beta = h - 1/2 conversions are centralized in the
    families layer; everything else speaks (g, h).
    """

    family: str
    g: Optional[Fraction] = None
    h: Optional[Fraction] = None

    def __post_init__(self):
        if self.family not in ("H", "L", "J"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.g is not None:
            object.__setattr__(self, "g", rat(self.g))
        if self.h is not None:
            object.__setattr__(self, "h", rat(self.h))
        if self.family == "H" and (self.g is not None or self.h is not None):
            raise ValueError("Hermite takes no parameters")
        if self.family == "L" and (self.g is None or self.h is not None):
            raise ValueError("Laguerre takes exactly the parameter g")
        if self.family == "J" and (self.g is None or self.h is None):
            raise ValueError("Jacobi takes parameters g and h")

    def with_params(self, g=None, h=None) -> "ParamPoint":
        if self.family == "H":
            return self
        if self.family == "L":
            return ParamPoint("L", g=self.g if g is None else rat(g))
        return ParamPoint("J",
                          g=self.g if g is None else rat(g),
                          h=self.h if h is None else rat(h))

    def __str__(self) -> str:
        """Message form: the family, then g and h as p/q ("J g=7/3 h=9/4")."""
        return " ".join([self.family] + [
            f"{name}={rat_str(v)}" for name, v in (("g", self.g), ("h", self.h))
            if v is not None])
