"""Oracles the tests compare the library against; no command runs them.

Gauged functions.  A :class:`GaugedFn` is a gauge

    e^(a*eta) * eta^b * ((1-eta)/2)^c * ((1+eta)/2)^d

times a rational-function residual, kept by ``gauged._fold`` with b, c, d
in [0, 1), so equality and hashing are componentwise.  The class is
closed under d/d eta -- differentiation keeps the gauge and maps the
residual r to

    a*r + (b/eta) r - (c/(1-eta)) r + (d/(1+eta)) r + r'

-- and under multiplication (gauges add, residuals multiply); addition
requires identical gauges and raises :class:`GaugeMismatch`.  It is the
calculus of the Leibniz-sum Wronskian oracle in ``test_gauged`` and of the
gauged Hamiltonian in ``test_families``.

Span solving.  ``span_solve_deformed`` expands a polynomial in
{P_{D,m}} as an exact linear system, skipping identically-zero basis
members, so it stays usable at parameter points where leading
coefficients degenerate and ``recurrence.expand_in_deformed``'s
elimination ladder is not.

Operators.  ``op_add``, ``op_neg`` and ``op_sub`` are the sum,
negation and difference of ``diffop.DiffOp``s over the product of their
denominators, and ``op_derivative`` is d^order, for the operator
identities of ``test_diffop``, ``test_shiftalg`` and ``test_acceptance``.
``matrix_add`` is the sum of two ``shiftalg.OpMatrix`` column maps, for
the product references of ``test_shiftalg``.

Closed forms.  ``laguerre_single_seed_row`` and ``jacobi_single_seed_row``
are the r_(n,k) of the single seed 1I with Y = 1, written out by hand,
which every route must reproduce.  ``laguerre_two_seed_quartic`` and
``jacobi_two_seed_quartic`` are -2 Xi and 64 Xi of the set 1I,2II, and
``LAGUERRE_QUARTIC_FACTORIZATIONS`` the points where the first factors
over the rationals.

Cold caches.  ``clear_library_caches`` empties every ``lru_cache`` of the
loaded ``mipoly`` modules, for tests that count or trace a cold run.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from typing import Dict, List

from mipoly.diffop import DiffOp
from mipoly.exact import ParamPoint, Poly, RatFunc, pochhammer, rat
from mipoly.gauged import _LINEAR, _fold, _gaugeless, _poly_nums, gauge_str
from mipoly.mindexed import IndexSet, mi_poly
from mipoly.recurrence import NonzeroRemainder
from mipoly.shiftalg import OpMatrix


# -- gauged functions --------------------------------------------------------


class GaugeMismatch(ValueError):
    """Adding gauged functions whose gauges differ."""


class GaugedFn:
    __slots__ = ("a", "b", "c", "d", "r")

    def __init__(self, a=0, b=0, c=0, d=0, r=None):
        r = RatFunc.of(1 if r is None else r)
        if not isinstance(a, int):
            ra = rat(a)
            if ra.denominator != 1:
                raise ValueError("exponential gauge exponent must be an integer")
            a = int(ra)
        (a, b, c, d), (num,), den = _fold((a, rat(b), rat(c), rat(d)),
                                          [r.num], r.den)
        r = RatFunc._reduced(num, den)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "r", r)

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

    def __add__(self, other) -> "GaugedFn":
        if not isinstance(other, GaugedFn):
            other = GaugedFn(r=RatFunc.of(other))
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.gauge() != other.gauge():
            raise GaugeMismatch(
                f"cannot add gauges {gauge_str(self.gauge())} and "
                f"{gauge_str(other.gauge())}")
        return GaugedFn(self.a, self.b, self.c, self.d, self.r + other.r)

    __radd__ = __add__

    def deriv(self) -> "GaugedFn":
        r = self.r
        out = r.deriv()
        if self.a:
            out = out + r * self.a
        # base^e has the log-derivative e/factor (factor monic, linear)
        for e, (factor, _) in zip((self.b, self.c, self.d), _LINEAR):
            if e:
                out = out + r * RatFunc(Poly.const(e), factor)
        return GaugedFn(self.a, self.b, self.c, self.d, out)

    # -- extraction -----------------------------------------------------
    def is_gaugeless(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def as_ratfunc(self) -> RatFunc:
        _gaugeless((self.gauge(), [self.r.num], self.r.den))
        return self.r

    def as_poly(self) -> Poly:
        return _poly_nums((self.gauge(), [self.r.num], self.r.den))[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaugedFn):
            return NotImplemented
        return self.gauge() == other.gauge() and self.r == other.r

    def __hash__(self) -> int:
        return hash(("GaugedFn", self.gauge(), self.r))

    def __repr__(self) -> str:
        return (f"GaugedFn(a={self.a}, b={self.b}, c={self.c}, d={self.d}, "
                f"r={self.r!r})")


# -- span solving ------------------------------------------------------------


def span_solve_deformed(pp: ParamPoint, D: IndexSet, q: Poly,
                        mmax: int) -> Dict[int, Fraction]:
    """Solve q = sum a_m P_{D,m} exactly (degenerate-parameter safe)."""
    indices: List[int] = []
    cols: List[Poly] = []
    for m in range(mmax + 1):
        p = mi_poly(pp, D, m, check_leading=False)
        if not p.is_zero():
            indices.append(m)
            cols.append(p)
    nrows = max([q.degree + 1] + [p.degree + 1 for p in cols]
                ) if (cols or not q.is_zero()) else 1
    A = [[p.coeff(i) for p in cols] for i in range(nrows)]
    b = [q.coeff(i) for i in range(nrows)]
    sol = _solve_exact(A, b)
    if sol is None:
        raise NonzeroRemainder(
            f"no expansion of the given polynomial in the first "
            f"{mmax + 1} deformed basis members for {D.label()}")
    return {indices[j]: sol[j] for j in range(len(indices)) if sol[j] != 0}


def _solve_exact(A: List[List[Fraction]], b: List[Fraction]):
    """Gaussian elimination over Q; None if inconsistent, 0 for free vars."""
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if M[i][c] != 0), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(nrows):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if M[i][ncols] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = M[i][ncols]
    return sol


# -- operators ---------------------------------------------------------------


def op_add(S: DiffOp, T: DiffOp) -> DiffOp:
    """S + T, over the product of the denominators when they differ."""
    a, b, den = S.nums, T.nums, S.den
    if T.den != den:
        a = [n * T.den for n in a]
        b = [n * den for n in b]
        den = den * T.den
    return DiffOp([x + y for x, y in
                   itertools.zip_longest(a, b, fillvalue=Poly.zero())], den)


def op_derivative(order: int = 1) -> DiffOp:
    """d^order/deta^order."""
    return DiffOp([0] * order + [1])


def matrix_add(S: OpMatrix, T: OpMatrix) -> OpMatrix:
    """S + T, column by column, zero entries dropped."""
    def column(n: int) -> Dict[int, Fraction]:
        out = dict(S.column(n))
        for m, v in T.column(n).items():
            out[m] = out.get(m, 0) + v
        return {m: v for m, v in sorted(out.items()) if v}
    return OpMatrix(column)


def op_neg(S: DiffOp) -> DiffOp:
    return DiffOp([-n for n in S.nums], S.den)


def op_sub(S: DiffOp, T: DiffOp) -> DiffOp:
    return op_add(S, op_neg(T))


def laguerre_two_seed_quartic(g: Fraction) -> Poly:
    """-2 Xi of L 1I,2II: eta^4 + 2(2g-3) eta^3 + (g-5/2)(6g-1) eta^2
    + 2 (g-5/2)_2 (2g+1) eta + (g-5/2)_4."""
    return Poly([
        pochhammer(g - Fraction(5, 2), 4),
        2 * pochhammer(g - Fraction(5, 2), 2) * (2 * g + 1),
        (g - Fraction(5, 2)) * (6 * g - 1),
        2 * (2 * g - 3),
        1,
    ])


# (g, -2 Xi of L 1I,2II) where the quartic factors over the rationals
LAGUERRE_QUARTIC_FACTORIZATIONS = [
    (Fraction(-1, 2), Poly([0, 0, 1]) * Poly([-2, 1]) * Poly([-6, 1])),
    (Fraction(3, 2), Poly([0, 0, 1]) * Poly([-8, 0, 1])),
    (Fraction(5, 2), Poly([0, 0, 0, 1]) * Poly([4, 1])),
    (Fraction(-13, 2), Poly([-6, 1]) ** 3 * Poly([-14, 1])),
]


def jacobi_two_seed_quartic(g: Fraction, h: Fraction) -> Poly:
    """64 Xi of J 1I,2II, written in a = g + h and b = g - h."""
    a, b = g + h, g - h
    return Poly([
        a ** 3 * (a - 4) + 2 * a * a * (b - 3) - 4 * a * (b - 5)
        - (b - 3) * (b - 1),
        4 * (a - 1) * (b - 1) * (a * (a - 2) + b - 3),
        2 * (b - 1) * (a * (a - 2) * (3 * b - 4) + (b + 4) * (b - 3)),
        4 * (a - 1) * (b - 3) * (b - 1) * b,
        (b - 4) * (b - 3) * (b - 1) * (b + 2),
    ])


def laguerre_single_seed_row(g: Fraction, n: int) -> Dict[int, Fraction]:
    """r_(n,k), n + k >= 0, for L at g, D = 1I and Y = 1."""
    row = {
        2: Fraction(1, 2) * (n + 1) * (n + 2),
        1: -(n + 1) * (2 * g + 2 * n + 3),
        0: Fraction(1, 8) * (24 * n * n + 4 * (10 * g + 11) * n
                             + (2 * g + 1) * (6 * g + 13)),
        -1: -Fraction(1, 2) * (2 * g + 2 * n - 1) * (2 * g + 2 * n + 3),
        -2: Fraction(1, 8) * (2 * g + 2 * n - 3) * (2 * g + 2 * n + 3),
    }
    return {k: v for k, v in row.items() if n + k >= 0}


def jacobi_single_seed_row(g: Fraction, h: Fraction,
                           n: int) -> Dict[int, Fraction]:
    """r_(n,k), n + k >= 0, for J at (g, h), D = 1I and Y = 1."""
    a, b, P = g + h, g - h, pochhammer
    row = {
        2: (n + 1) * (n + 2) * (b + 2) * P(a + n, 2) * (2 * h + 2 * n - 3)
           / (P(a + 2 * n, 4) * (2 * h + 2 * n + 1)),
        1: (n + 1) * (a - 1) * (a + n) * (2 * g + 2 * n + 3)
           * (2 * h + 2 * n - 3) / (P(a + 2 * n - 1, 3) * (a + 2 * n + 3)),
        0: (b + 2) / (4 * P(a + 2 * n - 2, 2) * P(a + 2 * n + 1, 2))
           * (-b * (b + 4) * (2 * n * (a + n) - (a - 2) * (a - 1))
              + (a + 2 * n - 1) * (a + 2 * n + 1)
              * (2 * n * (a + n) - (a - 2) * (2 * a - 1))),
        -1: (a - 1) * (2 * g + 2 * n - 1) * (2 * g + 2 * n + 3)
            * P(h + n - Fraction(3, 2), 2)
            / ((a + 2 * n - 3) * P(a + 2 * n - 1, 3)),
        -2: (b + 2) * (2 * g + 2 * n - 3) * (2 * g + 2 * n + 3)
            * P(h + n - Fraction(3, 2), 2) / (4 * P(a + 2 * n - 3, 4)),
    }
    return {k: v for k, v in row.items() if n + k >= 0}


def clear_library_caches():
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("mipoly"):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
