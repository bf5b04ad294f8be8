"""Multi-indexed polynomials as Wronskians of virtual-state seeds.

An :class:`IndexSet` D picks type I seeds d_1^I < ... < d_{s1}^I and
type II seeds d_1^II < ... < d_{s2}^II (strictly increasing within each
type).  Writing M = s1 + s2 for the total number of seeds and mu_1, ...,
mu_M for the seed functions (type I first, then type II), the denominator
polynomial and the polynomial family are

    Xi_D     ~  W[mu_1, ..., mu_M]            (times a compensating gauge)
    P_{D,n}  ~  W[mu_1, ..., mu_M, P_n]       (times a compensating gauge)

where the gauges are the explicit prefactors below that strip the
Wronskians down to honest polynomials of degrees

    ell(D) = sum_j d_j - M(M-1)/2 + 2 s1 s2      and      ell(D) + n.

The seeds are (gauge exponents, polynomial) columns.  Each gauge's
exponents (``_xi_exponents``) are passed into the Wronskian itself, so
no gauged product is taken afterwards; ``gauged._poly_nums`` reads the
polynomials off the folded triple it returns.

The second Wronskian is linear in its last column, so times its gauge

    P_{D,n} = sum_{k=0}^{M} R_k(eta) P_n^(k),

with polynomial R_k that depend on the seeds alone: the numerators of
``gauged.bordered_wronskian``, built once per (point, index set).  Each
P_{D,n} is then one ``exact._apply_nums``, M integer derivatives of P_n
and M + 1 products.  The differential operator Fhat of ``diffop``
realises the same map, but its coefficients come from ``wronskian_rows``
minors (passed the same gauge), so ``verify``'s Fhat P_n = P_{D,n}
compares two independent constructions.

Closed forms for the leading coefficients of Xi_D and P_{D,n}, for the
eigenvalue factor pi_D(n) = prod_j (E_n - Etilde_{d_j}), and for the
dual seed functions m_j entering the backward operator are provided and
cross-checked against the constructions in the test-suite.

An index set is *generic* at a parameter point when pi_D(n) and the two
leading coefficients stay nonzero through the working range of n;
``check_genericity`` enforces that and raises
:class:`~mipoly.families.GenericityViolation`.  A constructed polynomial
whose degree falls short of the predicted one raises
:class:`DegenerateLeading` unless the caller opts out (the degenerate
parameter studies do).
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import List, Sequence, Tuple

from .exact import FrozenRecord, ParamPoint, Poly, _apply_nums
from .families import (
    GenericityViolation,
    classical_poly,
    energy,
    leading_coeff,
    seed,
    twisted,
    virtual_energy,
    virtual_leading,
)
from .gauged import Column, _poly_nums, bordered_wronskian, wronskian_rows


class DegenerateLeading(ValueError):
    """A constructed polynomial lost its expected leading term."""


_TOKEN = re.compile(r"^(\d+)(I{1,2})$")


class IndexSet(FrozenRecord):
    """Virtual-state index set; type1/type2 are the I/II seed indices."""

    __slots__ = ("family", "type1", "type2")

    def __init__(self, family: str, type1: Sequence[int] = (),
                 type2: Sequence[int] = ()):
        if family not in ("L", "J"):
            raise ValueError("index sets exist for families 'L' and 'J'")
        sorted_entries = []
        for name, entries in (("type1", tuple(type1)), ("type2", tuple(type2))):
            if any((not isinstance(v, int)) or v < 0 for v in entries):
                raise ValueError(f"{name} entries must be integers >= 0")
            if len(set(entries)) != len(entries):
                raise ValueError(f"repeated index in {name}: {entries}")
            sorted_entries.append(tuple(sorted(entries)))
        self._set_fields(family, *sorted_entries)

    @classmethod
    def parse(cls, family: str, text: str) -> "IndexSet":
        """Parse "1I,2II,3I" style index lists."""
        t1, t2 = [], []
        text = text.strip()
        if text:
            for token in text.split(","):
                m = _TOKEN.match(token.strip())
                if not m:
                    raise ValueError(f"bad index token {token!r}")
                v, kind = int(m.group(1)), m.group(2)
                (t1 if kind == "I" else t2).append(v)
        return cls(family, tuple(t1), tuple(t2))

    @property
    def s1(self) -> int:
        return len(self.type1)

    @property
    def s2(self) -> int:
        return len(self.type2)

    @property
    def size(self) -> int:
        return self.s1 + self.s2

    @property
    def ell(self) -> int:
        M = self.size
        return (sum(self.type1) + sum(self.type2)
                - M * (M - 1) // 2 + 2 * self.s1 * self.s2)

    def entries(self) -> List[Tuple[str, int]]:
        """All seeds in Wronskian column order: type I first, then II."""
        return [("I", v) for v in self.type1] + [("II", v) for v in self.type2]

    def drop(self, j: int) -> "IndexSet":
        """The index set with the j-th seed (column order) removed."""
        ents = self.entries()
        del ents[j]
        return IndexSet(self.family,
                        tuple(v for t, v in ents if t == "I"),
                        tuple(v for t, v in ents if t == "II"))

    def label(self) -> str:
        return ",".join(f"{v}{t}" for t, v in self.entries())


def _check(pp: ParamPoint, D: IndexSet) -> None:
    if pp.family != D.family:
        raise ValueError(
            f"index set family {D.family!r} does not match {pp.family!r}")


def seed_functions(pp: ParamPoint, D: IndexSet) -> List[Column]:
    """The seeds mu_j as columns; a seed whose polynomial fails names it."""
    _check(pp, D)
    out = []
    for t, v in D.entries():
        try:
            out.append(seed(pp, t, v))
        except GenericityViolation as exc:
            raise GenericityViolation(
                f"seed {v}{t} at its twisted point {twisted(pp, t)}: {exc}"
            ) from None
    return out


def _xi_exponents(pp: ParamPoint, D: IndexSet, shift: Fraction) -> tuple:
    """The compensating gauge's exponents (a, b, c, d); shift = -1/2 for
    Xi_D, +1/2 for P_{D,n}."""
    s1, s2 = D.s1, D.s2
    if pp.family == "L":
        return -s1, (s1 + pp.g + shift) * s2, 0, 0
    return 0, 0, (s1 + pp.g + shift) * s2, (s2 + pp.h + shift) * s1


HALF = Fraction(1, 2)


def _degree_mismatch(name: str, p: Poly, want: int | str, D: IndexSet) -> str:
    if p.is_zero():   # its degree is NEG_INF, which would print as -inf
        return f"{name} is identically zero (expected degree {want}) " \
            f"for {D.label()}"
    return f"{name} degree {p.degree} != {want} for {D.label()}"


@functools.lru_cache(maxsize=None)
def xi_poly(pp: ParamPoint, D: IndexSet, check_leading: bool = True) -> Poly:
    """The denominator polynomial Xi_D, of degree ell(D)."""
    _check(pp, D)
    xi = _poly_nums(wronskian_rows(seed_functions(pp, D), list(range(D.size)),
                                   _xi_exponents(pp, D, -HALF)))[0]
    if check_leading and xi.degree != D.ell:
        raise DegenerateLeading(_degree_mismatch("Xi", xi, f"ell = {D.ell}", D))
    return xi


@functools.lru_cache(maxsize=None)
def _seed_wronskian(pp: ParamPoint, D: IndexSet) -> Tuple[Poly, ...]:
    """The polynomial R_k with W[mu_1, ..., mu_M, p] times the P_{D,n}
    gauge = sum_k R_k p^(k), built once per (point, index set).

    A gauge or denominator left over raises NotPolynomial.
    """
    return tuple(_poly_nums(bordered_wronskian(seed_functions(pp, D),
                                               _xi_exponents(pp, D, HALF))))


@functools.lru_cache(maxsize=None)
def mi_poly(pp: ParamPoint, D: IndexSet, n: int,
            check_leading: bool = True) -> Poly:
    """The multi-indexed polynomial P_{D,n}, of degree ell(D) + n.

    P_n goes through the cached numerators of the seeds:
    sum_k R_k P_n^(k), with no determinant and no gauge work per n.
    """
    _check(pp, D)
    if n < 0:
        return Poly.zero()
    p = _apply_nums(_seed_wronskian(pp, D), classical_poly(pp, n))
    if check_leading and p.degree != D.ell + n:
        raise DegenerateLeading(
            _degree_mismatch(f"P_(D,{n})", p, D.ell + n, D))
    return p


@functools.lru_cache(maxsize=None)
def _virtual_energies(pp: ParamPoint, D: IndexSet) -> Tuple[Fraction, ...]:
    """Etilde_{d_j} of every seed, once per (point, index set)."""
    return tuple(virtual_energy(pp, t, v) for t, v in D.entries())


@functools.lru_cache(maxsize=None)
def pi_factor(pp: ParamPoint, D: IndexSet, n: int) -> Fraction:
    """pi_D(n) = prod_j (E_n - Etilde_{d_j})."""
    _check(pp, D)
    out = Fraction(1)
    En = energy(pp, n)
    for e in _virtual_energies(pp, D):
        out *= En - e
    return out


@functools.lru_cache(maxsize=None)
def xi_leading(pp: ParamPoint, D: IndexSet) -> Fraction:
    """Closed form for the eta^ell coefficient of Xi_D."""
    _check(pp, D)
    out = Fraction(1)
    for t, v in D.entries():
        out *= virtual_leading(pp, t, v)
    for ds in (D.type1, D.type2):
        for j in range(len(ds)):
            for k in range(j + 1, len(ds)):
                out *= ds[k] - ds[j]
    if pp.family == "L":
        out *= (-1) ** (D.s1 * D.s2)
    else:
        for dj in D.type1:
            for dk in D.type2:
                out *= (pp.g - pp.h + dj - dk) / 4
    return out


@functools.lru_cache(maxsize=None)
def p_leading(pp: ParamPoint, D: IndexSet, n: int) -> Fraction:
    """Closed form for the eta^(ell + n) coefficient of P_{D,n}."""
    out = xi_leading(pp, D) * leading_coeff(pp, n)
    if pp.family == "L":
        out *= (-1) ** D.s1
        for d in D.type2:
            out *= pp.g + n - d - HALF
    else:
        for d in D.type1:
            out *= (pp.h + n - d - HALF) / 2
        for d in D.type2:
            out *= -(pp.g + n - d - HALF) / 2
    return out


def mj_function(pp: ParamPoint, D: IndexSet, j: int) -> Column:
    """The dual seed m_j entering the backward Wronskian (column order j),
    as the column (gauge exponents, Xi of D without seed j)."""
    _check(pp, D)
    t, _ = D.entries()[j]
    sub = xi_poly(pp, D.drop(j))
    s1, s2 = D.s1, D.s2
    if pp.family == "L":
        if t == "I":
            return (0, -(s1 - s2 + pp.g - HALF), 0, 0), sub
        return (1, 0, 0, 0), sub
    if t == "I":
        return (0, 0, -(s1 - s2 + pp.g - HALF), 0), sub
    return (0, 0, 0, -(s2 - s1 + pp.h - HALF)), sub


def plusdelta_constant(pp: ParamPoint, D: IndexSet) -> Fraction:
    """The constant A in P_{D,0}(lambda) = A * Xi_D(lambda + delta)."""
    _check(pp, D)
    out = Fraction(1)
    if pp.family == "L":
        out *= (-1) ** D.s1
        for d in D.type2:
            out *= pp.g - d - HALF
    else:
        out *= Fraction(1, 2 ** D.s1) * Fraction(1, (-2) ** D.s2)
        for d in D.type1:
            out *= pp.h - d - HALF
        for d in D.type2:
            out *= pp.g - d - HALF
    return out


def check_genericity(pp: ParamPoint, D: IndexSet, nmax: int) -> None:
    """Require pi_D(n), c^Xi and c^P nonzero through n = nmax."""
    if xi_leading(pp, D) == 0:
        raise GenericityViolation(f"leading coefficient of Xi vanishes "
                                  f"for {D.label()} at {pp}")
    for n in range(nmax + 1):
        if pi_factor(pp, D, n) == 0:
            raise GenericityViolation(
                f"pi_D({n}) = 0 for {D.label()} at {pp}")
        if p_leading(pp, D, n) == 0:
            raise GenericityViolation(
                f"leading coefficient of P_(D,{n}) vanishes "
                f"for {D.label()} at {pp}")

