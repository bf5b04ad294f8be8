"""Exact rational scalars and univariate polynomial arithmetic.

Everything in this package is computed over the rationals; no floats
anywhere.  ``Rational`` is the standard-library :class:`~fractions.Fraction`
(arbitrary precision, gcd-normalized, positive denominator), and it is
the scalar type of every public value.  On top of it sit

* :class:`Poly` -- a dense univariate polynomial in the variable ``eta``,
  stored as one rational content times a tuple of primitive integer
  coefficients (ascending, no trailing zeros, gcd 1, positive lead; the
  sign and every denominator live in the content).  The form is
  canonical, so equality and hashing are structural.  The ring
  operations run over Z on the integer parts with one content operation
  each: a product of primitive parts is primitive (Gauss's lemma), so
  ``*`` and ``**`` need no gcd at all; ``+``/``-`` form one integer linear
  combination and divide out its gcd.  ``coeffs``, ``coeff``, ``lc`` and
  evaluation hand out Fractions, built on demand; ``to_strings`` prints
  the coefficients from the integer parts, with no Fraction.  The zero polynomial has degree ``NEG_INF`` (a sentinel,
  never ``-1``), so degree bookkeeping in the Wronskian/recurrence layers
  stays honest.
* :class:`RatFunc` -- a quotient of two Polys kept in normal form:
  gcd(num, den) = 1 and den monic, by ``_lowest``, as a DiffOp's
  numerators are.  Closed under +, -, *, / and d/d eta.
  The Wronskian and operator layers keep polynomial numerators over
  explicit denominators and build a RatFunc only for a result, so
  RatFunc arithmetic mostly serves the gauged calculus and the test
  oracles; its sum is the plain cross-multiplied quotient, normalized.
* :class:`ParamPoint` -- the parameter point (family tag plus g, h) that
  every family-dependent construction receives.  It is a dumb frozen
  record (a :class:`FrozenRecord`, the slotted base that the index set
  and the shift records share); genericity of a parameter point is
  enforced where it is checkable, by the layers that know the index
  sets.

Module-level helpers provide the calculus bits used everywhere downstream:
``differentiate``, ``integrate_from_zero`` (antiderivative vanishing at 0),
``poly_divmod``/``poly_gcd`` (division with remainder over Z, exact
whenever the quotient has integer coefficients; monic gcd by a primitive
remainder sequence) and the Pochhammer symbol ``(x)_n``.  The private
``_imul``/``_ilin``/``_idivmod``/``_to_ints`` work on bare integer
coefficient lists; the Bareiss determinant in ``gauged`` uses them
directly, and ``_apply_nums`` (sum_i nums[i] q^(i)) is the one
application of polynomial numerators, for P_{D,n} and for DiffOp.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple, Union

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
    """Dense univariate polynomial over Rational: content * sum ints[k] eta^k.

    ``ints`` is a tuple of integers, ascending, with no trailing zeros,
    gcd 1 and a positive last entry; ``content`` is a Fraction that
    carries the sign and every denominator (0 for the zero polynomial,
    whose ``ints`` is empty).  The form is canonical, so equality and
    hashing compare the two fields.
    """

    __slots__ = ("ints", "content")

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        cs = [rat(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs],
                  Fraction(1, den))

    def _set(self, ints: list, content: Fraction) -> None:
        """Store content * ints in canonical form."""
        while ints and not ints[-1]:
            ints.pop()
        if not ints:
            content = Fraction(0)
        else:
            g = math.gcd(*ints)
            if ints[-1] < 0:
                g = -g
            if g != 1:
                ints = [c // g for c in ints]
                content = content * g
        self.ints = tuple(ints)
        self.content = content

    @classmethod
    def _make(cls, ints: list, content: Fraction) -> "Poly":
        """content * ints for any integer list ints."""
        self = object.__new__(cls)
        self._set(ints, content)
        return self

    @classmethod
    def _of(cls, ints: tuple, content: Fraction) -> "Poly":
        """content * ints when ints is already primitive with a positive lead."""
        self = object.__new__(cls)
        self.ints = ints
        self.content = content if ints else Fraction(0)
        return self

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "Poly":
        return ZERO

    @staticmethod
    def one() -> "Poly":
        return ONE

    @staticmethod
    def const(c: ScalarLike) -> "Poly":
        return Poly([c])

    # -- structure ----------------------------------------------------
    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending (built on each access)."""
        return tuple(self.content * c for c in self.ints)

    @property
    def degree(self):
        """Degree as an int, or NEG_INF for the zero polynomial."""
        return len(self.ints) - 1 if self.ints else NEG_INF

    def is_zero(self) -> bool:
        return not self.ints

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.ints):
            return self.content * self.ints[k]
        return Fraction(0)

    def lc(self) -> Fraction:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.content * self.ints[-1] if self.ints else Fraction(0)

    # -- ring operations ----------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        return _combine(self, other, 1)

    def __neg__(self) -> "Poly":
        return Poly._of(self.ints, -self.content)

    def __sub__(self, other: "Poly") -> "Poly":
        return _combine(self, other, -1)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.ints or not other.ints:
                return ZERO
            # Gauss's lemma: the product of primitive parts is primitive
            return Poly._of(tuple(_imul(self.ints, other.ints)),
                            self.content * other.content)
        c = rat(other)
        return Poly._of(self.ints, self.content * c) if c else ZERO

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        if n == 0:
            return ONE
        result, base, k = None, self.ints, n
        while True:
            if k & 1:
                result = base if result is None else _imul(result, base)
            k >>= 1
            if not k:
                break
            base = _imul(base, base)
        return Poly._of(tuple(result), self.content ** n)

    def __call__(self, x: ScalarLike) -> Fraction:
        """Evaluate by Horner's rule, homogenized over Z: x = p/q."""
        x = rat(x)
        if not self.ints:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        acc, qk = self.ints[-1], 1
        for c in reversed(self.ints[:-1]):
            qk *= q
            acc = acc * p + c * qk
        return self.content * Fraction(acc, qk)

    def compose(self, inner: "Poly") -> "Poly":
        """Polynomial composition self(inner(eta)).

        With inner = (p/q) I, Horner runs over Z on p I and the powers of
        q, and the content takes 1/q^deg once.
        """
        if not self.ints or not inner.ints:
            return Poly.const(self.coeff(0))
        p, q = inner.content.numerator, inner.content.denominator
        scaled = [p * c for c in inner.ints]
        acc, qk = [self.ints[-1]], 1
        for c in reversed(self.ints[:-1]):
            qk *= q
            acc = _imul(acc, scaled)
            acc[0] += c * qk
        return Poly._make(acc, self.content / qk)

    def monic(self) -> "Poly":
        if not self.ints:
            return self
        return Poly._of(self.ints, Fraction(1, self.ints[-1]))

    # -- misc ----------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.ints == other.ints
                and self.content == other.content)

    def __hash__(self) -> int:
        return hash(("Poly", self.ints, self.content))

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
        """JSON form: coefficient strings, ascending degree.

        Each coefficient n x / d (content n/d) is put in lowest terms as
        (n x / g) / (d / g) with g = gcd(x, d), with no Fraction built;
        the text is what ``rat_str`` gives.
        """
        n, d = self.content.numerator, self.content.denominator
        out = []
        for x in self.ints:
            g = math.gcd(x, d)
            out.append(str(n * x // g) if g == d else f"{n * x // g}/{d // g}")
        return out


#: The variable itself, and common constants.
ZERO = Poly()
ONE = Poly([1])
ETA = Poly([0, 1])


# -- integer coefficient lists ---------------------------------------------
# Ascending lists of ints with no trailing zeros ([] is zero); they carry
# the ring operations below the content.


def _imul(a: Sequence[int], b: Sequence[int]) -> list:
    """Product of integer coefficient lists."""
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    n = len(a)
    out = [0] * (n + len(b) - 1)
    for i, c in enumerate(b):
        if c:
            out[i:i + n] = [o + c * x for o, x in zip(out[i:i + n], a)]
    return out


def _ilin(a: Sequence[int], x: int, b: Sequence[int], y: int) -> list:
    """x a + y b for integer coefficient lists, trailing zeros dropped."""
    if len(a) < len(b):
        a, x, b, y = b, y, a, x
    n = len(b)
    out = [x * c + y * d for c, d in zip(a, b)]
    out += [x * c for c in a[n:]]
    while out and not out[-1]:
        out.pop()
    return out


def _idivmod(a: Sequence[int], b: Sequence[int]) -> tuple:
    """(q, r, s) with s a = q b + r over Z, deg r < deg b and s > 0.

    Long division that scales the remainder by the least factor that
    makes the next quotient coefficient an integer, so s = 1 whenever the
    quotient lies in Z[eta] -- always when b divides a and b is primitive
    (Gauss's lemma), or when b has a unit lead.
    """
    rem, q, s = list(a), [0] * max(len(a) - len(b) + 1, 0), 1
    db, lead_b = len(b) - 1, b[-1]
    while len(rem) > db:
        lead = rem[-1]
        f, m = divmod(lead, lead_b)
        if m:
            t = abs(lead_b) // math.gcd(lead, lead_b)
            rem = [c * t for c in rem]
            q = [c * t for c in q]
            s *= t
            f = lead * t // lead_b
        shift = len(rem) - 1 - db
        q[shift] = f
        rem[shift:] = [r - f * c for r, c in zip(rem[shift:], b)]
        while rem and not rem[-1]:
            rem.pop()
    return q, rem, s


def _combine(p: Poly, other: Poly, sign: int) -> Poly:
    """p + sign * other: one integer linear combination over the contents."""
    if not other.ints:
        return p
    if not p.ints:
        return other if sign == 1 else -other
    n1, d1 = p.content.numerator, p.content.denominator
    n2, d2 = sign * other.content.numerator, other.content.denominator
    g = math.gcd(n1, n2)
    den = d1 // math.gcd(d1, d2) * d2
    return Poly._make(_ilin(p.ints, n1 // g * (den // d1),
                            other.ints, n2 // g * (den // d2)),
                      Fraction(g, den))


def _to_ints(polys: Sequence[Poly]) -> Tuple[list, Fraction]:
    """Integer coefficient lists A and one unit u with polys[i] = u A[i].

    u is the gcd of the numerators over the lcm of the denominators of
    the contents (1 when every poly is zero).
    """
    contents = [p.content for p in polys if p.ints] or [Fraction(1)]
    g = math.gcd(*(c.numerator for c in contents))
    den = math.lcm(*(c.denominator for c in contents))
    return [[p.content.numerator // g * (den // p.content.denominator) * x
             for x in p.ints] for p in polys], Fraction(g, den)


def _apply_nums(nums: Sequence[Poly], q: Poly) -> Poly:
    """sum_i nums[i] q^(i), over Z: the nums up to deg q as integer lists
    over one unit (``_to_ints``), q's derivatives taken on its integer
    part, and one content for the sum, with no gcd per term."""
    lists, unit = _to_ints(nums[:len(q.ints)])
    ints, acc = list(q.ints), []
    for i, num in enumerate(lists):
        if i:   # ints is now the i-th derivative of q's integer part
            ints = [k * c for k, c in enumerate(ints[1:], 1)]
        if num:
            acc = _ilin(acc, 1, _imul(num, ints), 1)
    return Poly._make(acc, unit * q.content)


def differentiate(p: Poly) -> Poly:
    """d/d eta, coefficient-wise."""
    return Poly._make([k * c for k, c in enumerate(p.ints[1:], 1)], p.content)


def integrate_from_zero(p: Poly) -> Poly:
    """Antiderivative with zero constant term: result(0) = 0."""
    den = math.lcm(*range(1, len(p.ints) + 1))
    return Poly._make([0] + [c * (den // k) for k, c in enumerate(p.ints, 1)],
                      p.content / den)


def poly_divmod(a: Poly, b: Poly) -> tuple:
    """Exact division with remainder: a = q*b + r, deg r < deg b."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q, r, s = _idivmod(a.ints, b.ints)
    return (Poly._make(q, a.content / (b.content * s)),
            Poly._make(r, a.content / s))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd, via a primitive remainder sequence over Z.

    Plain Euclid over Q blows up the coefficients; the integer parts are
    already primitive, and dividing each remainder by its own gcd keeps
    them tame.
    """
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    u, v = a.ints, b.ints
    if len(u) < len(v):
        u, v = v, u
    while v:
        r = _idivmod(u, v)[1]
        if r:
            g = math.gcd(*r)
            r = [c // g for c in r]
        u, v = v, r
    return Poly._make(list(u), Fraction(1)).monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    """Monic lcm.  No construction calls it; it stays a public name because
    the benchmark (BENCHMARK.json, perfbench/) declares its call count."""
    if a.is_zero() or b.is_zero():
        return Poly()
    g = poly_gcd(a, b)
    q, r = poly_divmod(a * b, g)
    assert r.is_zero()
    return q.monic()


def _lowest(nums: list, den: Poly) -> Tuple[Tuple[Poly, ...], Poly]:
    """nums/den in lowest terms: trailing zeros dropped, the factor den
    shares with every numerator cancelled (no gcd while den divides them)
    and den monic; all numerators zero give ((), 1)."""
    while nums and nums[-1].is_zero():
        nums.pop()
    if not nums:
        return (), ONE
    g = den
    for n in nums:
        if g.degree <= 0:
            break
        if not poly_divmod(n, g)[1].is_zero():
            g = poly_gcd(g, n)
    if g.degree > 0:
        nums = [poly_divmod(n, g)[0] for n in nums]
        den = poly_divmod(den, g)[0]
    inv = 1 / den.lc()
    if inv != 1:
        nums = [n * inv for n in nums]
        den = den * inv
    return tuple(nums), den


def pochhammer(x: ScalarLike, n: int) -> Fraction:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1); (x)_0 = 1.

    With x = p/q, the product runs over Z: prod (p + i q) / q^n.
    """
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    x = rat(x)
    p, q = x.numerator, x.denominator
    return Fraction(math.prod(range(p, p + n * q, q)), q ** n)


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
        nums, den = _lowest([num], den)
        num = nums[0] if nums else ZERO
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

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


class FrozenRecord:
    """Immutable record over its ``__slots__``, set once in ``__init__``.

    Equality, hashing and ``repr`` go by the tuple of fields, as for a
    frozen dataclass; the hash is taken once, since records key every
    cache.  Assigning or deleting a field raises AttributeError.
    """

    __slots__ = ("_hash",)

    def _set_fields(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", hash(values))

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._hash == other._hash and \
                self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"


class ParamPoint(FrozenRecord):
    """Parameter point: family tag 'H' | 'L' | 'J' plus g (L, J) and h (J).

    alpha = g - 1/2 and beta = h - 1/2 conversions are centralized in the
    families layer; everything else speaks (g, h).
    """

    __slots__ = ("family", "g", "h")

    def __init__(self, family: str, g: Optional[ScalarLike] = None,
                 h: Optional[ScalarLike] = None):
        if family not in ("H", "L", "J"):
            raise ValueError(f"unknown family {family!r}")
        g = None if g is None else rat(g)
        h = None if h is None else rat(h)
        if family == "H" and (g is not None or h is not None):
            raise ValueError("Hermite takes no parameters")
        if family == "L" and (g is None or h is not None):
            raise ValueError("Laguerre takes exactly the parameter g")
        if family == "J" and (g is None or h is None):
            raise ValueError("Jacobi takes parameters g and h")
        self._set_fields(family, g, h)

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
