"""Recurrence coefficients through shift operators on the degree index.

Multiplication by eta and differentiation both act on a classical family
{P_n} purely through index shifts: the three-term recurrence writes
eta P_n over P_{n+1}, P_n, P_{n-1}, and the derivative expansion writes
P_n' over lower members.  Every polynomial-coefficient operator
sum_{i,j} F_ij eta^i d^j in (eta, d/deta) therefore acts on a basis
expansion through these two actions alone -- a route to the recurrence
coefficients that never touches the deformed polynomials, nor any
polynomial in eta.

The matrix route uses the bispectral structure of Theta: it acts on
{P_n} by a finite band.  Three operators generate that action,

    H0 = c_2 d^2 + c_1 d      diagonal:    H0 P_m = -(E_m/4) P_m,
    eta                       tridiagonal: A_m, B_m, C_m,
    K  = c_2 d = ([H0, eta] - c_1)/2   tridiagonal, from A_m, B_m, C_m, E_m,

and ``normal_form`` writes Theta = sum_b (u_b(eta) + v_b(eta) K) H0^b by
top-down division: the order-2b coefficient gives u_b = F_2b / c_2^b,
the order-(2b+1) one v_b = F_(2b+1) / c_2^(b+1); the multiple of H0^b or
K H0^b is subtracted and the next order follows.  A nonzero remainder
raises :class:`DecompositionFailure` with the order, F_J and the divisor.
Column n of Theta's action is then U_n(eta) e_n + V_n(eta) (K e_n) with
U_n = sum_b lambda_n^b u_b, V_n = sum_b lambda_n^b v_b and
lambda_n = -E_n/4: two Horner passes in the eta-action on a column of
width at most 2L + 1 (``banded_column``), with no derivative action.  So
the route reads only Theta's coefficients and the classical index data,
never the other routes' expansions.

The dense column action (``column_action``) serves every other
operator, such as d alone, which has no band: it applies the derivative
action j times to the basis vector e_n, then sum_i F_ij (eta-action)^i
by Horner, and adds over j.  Both actions are exact on sparse columns,
so nothing is truncated and no matrix is assembled.  Composition of
index-shift actions reverses order under the matrix translation: if S
and T act on the family and ST means "T first", then the matrix of ST is
mat(T) @ mat(S), which is why the eta-powers sit to the left of the
derivative powers.

The index-shift matrices (``OpMatrix``) are these actions seen as
column maps: ``column(n)`` is the whole expansion of Op P_n, never
truncated, and S * T applies S to each column of T ("T first", as for
matrices).  ``delta_matrix`` and ``gamma_matrix`` are the eta- and
derivative actions and ``flat_map`` the column action of any operator;
the commutator and power-formula checks read them column by column, for
any n, with no window to track.

The normal-ordered shift layer implements substitution
operators f(n) |-> f(n + g(n)) on polynomials in the index, with their
star-product composition law.  It exists to verify the shift calculus
(composition identities, collapse to evaluation, commutator cross
terms) on explicit functions, independently of any matrix truncation.
The ``*_check`` functions return ``checks.Check`` rows with witnesses.
"""
from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, Dict, Iterable, Tuple

from .checks import Report, agree
from .diffop import DiffOp
from .exact import (
    ONE,
    ZERO,
    FrozenRecord,
    ParamPoint,
    Poly,
    poly_divmod,
)
from .families import (
    GenericityViolation,
    cnk,
    energy,
    recurrence_abc,
    schrodinger_c1,
    schrodinger_c2,
)
from .mindexed import IndexSet, pi_factor
from .recurrence import theta_op


# -- normal-ordered shifts on polynomials in the index -----------------------

_N = Poly([0, 1])  # the index variable


class NormalOrderedShift(FrozenRecord):
    """Substitution operator f(n) |-> f(n + g(n)) for polynomial g."""

    __slots__ = ("displacement",)

    def __init__(self, displacement: Poly):
        self._set_fields(displacement)

    def apply(self, f: Poly) -> Poly:
        return f.compose(_N + self.displacement)

    def star(self, other: "NormalOrderedShift") -> "NormalOrderedShift":
        """Composition law: self after other, again a substitution."""
        g1, g2 = self.displacement, other.displacement
        return NormalOrderedShift(g1 + g2.compose(_N + g1))


def collapsing_shift(j: int) -> NormalOrderedShift:
    """Displacement -(n + j): sends any f(n) to the constant f(-j)."""
    return NormalOrderedShift(Poly([-j, -1]))


# -- commutator cross terms --------------------------------------------------


def bnk_value(pp: ParamPoint, n: int, k: int) -> Fraction:
    """Cross-term coefficient of the eta/derivative action commutator.

    The bracket of the two index actions reproduces the identity up to
    these coefficients (and one collapse term that annihilates every
    basis member); each must vanish identically.
    """
    A_n, B_n, C_n = recurrence_abc(pp, n)
    A_low = recurrence_abc(pp, n - k - 1)[0]
    B_low = recurrence_abc(pp, n - k)[1]
    C_low = recurrence_abc(pp, n - k + 1)[2]
    return (A_n * cnk(pp, n + 1, k + 1) - A_low * cnk(pp, n, k + 1)
            + (B_n - B_low) * cnk(pp, n, k)
            + C_n * cnk(pp, n - 1, k - 1) - C_low * cnk(pp, n, k - 1))


def cross_term_cases(pp: ParamPoint, nmax: int):
    """(b(n,k), 0, value) cases for 1 <= k <= n <= nmax."""
    return ((f"b({n},{k})", 0, bnk_value(pp, n, k))
            for n in range(1, nmax + 1) for k in range(1, n + 1))


def commutator_check(pp: ParamPoint, nmax: int) -> Report:
    """The two faces of [derivative-action, eta-action] = identity."""
    d, g = delta_matrix(pp), gamma_matrix(pp)
    bracket = g * d - d * g
    return [agree("commutator_window", f"{pp}; columns n <= {nmax}",
                  ((f"column {n}", {n: 1}, bracket.column(n))
                   for n in range(nmax + 1))),
            agree("cross_terms_vanish", f"{pp}; n <= {nmax}",
                  cross_term_cases(pp, nmax))]


def star_identities_check(seed: int = 0, trials: int = 10) -> Report:
    """Substitution-calculus identities on explicit polynomials."""
    import random                                  # deterministic, seeded
    rng = random.Random(seed)

    def rand_poly(deg: int) -> Poly:
        return Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                     for _ in range(deg + 1)])

    a, b = Fraction(3, 2), Fraction(-5, 3)
    ca, cb = NormalOrderedShift(Poly([a])), NormalOrderedShift(Poly([b]))
    oj = NormalOrderedShift(Poly([-b, -1]))
    fixed = [
        ("constants_add", f"a={a}, b={b}", Poly([a + b]), ca.star(cb)),
        ("collapse_absorbs_left", "constant then collapse", oj.displacement,
         ca.star(oj)),
        ("collapse_shifts_right", "collapse then constant",
         Poly([-(b - a), -1]), oj.star(ca)),
        ("collapse_absorbs_collapse", "j=2, k=5",
         collapsing_shift(5).displacement,
         collapsing_shift(2).star(collapsing_shift(5)))]
    out = [agree(name, detail, [("displacement", want, got.displacement)])
           for name, detail, want, got in fixed]

    assoc, composition, absorb = [], [], []
    for i in range(trials):
        s1, s2, s3 = (NormalOrderedShift(rand_poly(2)) for _ in range(3))
        f = rand_poly(3)
        assoc.append((f"trial {i}", s1.star(s2).star(s3).displacement,
                      s1.star(s2.star(s3)).displacement))
        composition.append((f"trial {i}", s1.apply(s2.apply(f)),
                            s1.star(s2).apply(f)))
        j, k = rng.randint(1, 6), rng.randint(1, 6)
        absorb.append((f"trial {i}, j={j}, k={k}", collapsing_shift(k).apply(f),
                       collapsing_shift(j).star(collapsing_shift(k)).apply(f)))
    return out + [
        agree("star_associative", f"seed {seed}; {trials} random triples",
              assoc),
        agree("star_matches_composition",
              f"seed {seed}; {trials} random pairs", composition),
        agree("collapse_action_absorbs", f"seed {seed}; {trials} random j,k",
              absorb)]


# -- closed forms for powers of the two actions ------------------------------


def delta_power_column(pp: ParamPoint, i: int, n: int) -> Column:
    """Column n of the i-th power of the eta-action, by its three-term
    path recursion: paths[k] sums the weights of the paths from row n to
    row n + k."""
    if i < 0:
        raise ValueError("power must be >= 0")
    paths = {0: Fraction(1)}
    for _ in range(i):
        paths = {k: paths.get(k - 1, 0) * recurrence_abc(pp, n + k - 1)[0]
                 + paths.get(k, 0) * recurrence_abc(pp, n + k)[1]
                 + paths.get(k + 1, 0) * recurrence_abc(pp, n + k + 1)[2]
                 for k in range(-i, i + 1)}
    return {n + k: v for k, v in sorted(paths.items()) if v and n + k >= 0}


def _compositions(total: int, parts: int):
    """Ordered tuples of positive integers with the given sum."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def gamma_power_column(pp: ParamPoint, j: int, n: int) -> Column:
    """Column n of the j-th power of the derivative action, by its nested
    sum: row n - k sums c_(n,k_1) c_(n-k_1,k_2) ... over the compositions
    k_1 + ... + k_j = k."""
    if j < 0:
        raise ValueError("power must be >= 0")
    if j == 0:
        return {n: Fraction(1)}
    out: Column = {}
    for k1 in range(j, n + 1):
        total = Fraction(0)
        for comp in _compositions(k1, j):
            factor = Fraction(1)
            at = n
            for part in comp:
                factor *= cnk(pp, at, part)
                if not factor:
                    break
                at -= part
            total += factor
        if total:
            out[n - k1] = total
    return out


def power_formulas_check(pp: ParamPoint, nmax: int) -> Report:
    """Closed-form power columns against repeated products: powers 1 to 3,
    columns n <= nmax."""
    out: Report = []
    d, g = delta_matrix(pp), gamma_matrix(pp)
    dprod, gprod = d, g
    detail = f"{pp}; columns n <= {nmax}"
    for i in range(1, 4):
        out.append(agree(f"eta_power_{i}", detail,
                         ((f"column {n}", dprod.column(n),
                           delta_power_column(pp, i, n))
                          for n in range(nmax + 1))))
        out.append(agree(f"derivative_power_{i}", detail,
                         ((f"column {n}", gprod.column(n),
                           gamma_power_column(pp, i, n))
                          for n in range(nmax + 1))))
        dprod, gprod = d * dprod, g * gprod
    return out


# -- operators in (eta, d/deta) as index-shift actions -----------------------

Column = Dict[int, Fraction]   # basis expansion: m -> coefficient of P_m


def _combine(terms: Iterable[Tuple[Fraction, Column]]) -> Column:
    """sum c * col over the (c, col) terms, zero entries dropped."""
    out: Column = {}
    for c, col in terms:
        for m, v in col.items():
            out[m] = out.get(m, 0) + c * v
    return {m: v for m, v in sorted(out.items()) if v}


def _eta_column(pp: ParamPoint, col: Column) -> Column:
    """eta-multiplication: eta P_m = A_m P_{m+1} + B_m P_m + C_m P_{m-1}."""
    out: Column = {}
    for m, v in col.items():
        A, B, C = recurrence_abc(pp, m)
        for row, c in ((m + 1, A), (m, B), (m - 1, C)):
            if c and row >= 0:
                out[row] = out.get(row, 0) + v * c
    return out


def _derivative_column(pp: ParamPoint, col: Column) -> Column:
    """Differentiation: P_m' = sum_{k=1}^{m} c_{m,k} P_{m-k}."""
    out: Column = {}
    for m, v in col.items():
        for k in range(1, m + 1):
            c = cnk(pp, m, k)
            if c:
                out[m - k] = out.get(m - k, 0) + v * c
    return out


def _horner(pp: ParamPoint, coeffs, base: Column) -> Column:
    """p(eta) applied to the expansion `base`, p = sum_i coeffs[i] eta^i,
    by Horner in the eta-action."""
    acc = {m: coeffs[-1] * v for m, v in base.items()}
    for coeff in reversed(coeffs[:-1]):
        acc = _eta_column(pp, acc)
        if coeff:
            for m, v in base.items():
                acc[m] = acc.get(m, 0) + coeff * v
    return acc


def column_action(theta: DiffOp, pp: ParamPoint, n: int) -> Column:
    """Expansion of theta P_n over {P_m}, nonzero entries only.

    Writes theta = sum_{i,j} F_ij eta^i d^j; the derivative action runs
    j times on e_n, then sum_i F_ij eta^i by Horner in the eta-action.
    """
    terms = []
    dcol: Column = {n: Fraction(1)}
    for j, cj in enumerate(theta.poly_coeffs()):
        if j > 0:
            dcol = _derivative_column(pp, dcol)
            if not dcol:
                break
        if not cj.is_zero():
            terms.append((1, _horner(pp, cj.coeffs, dcol)))
    return _combine(terms)


# -- index-shift actions as column maps --------------------------------------


class OpMatrix:
    """An operator's action on {P_n}, column by column.

    ``column(n)`` is the whole expansion of Op P_n over {P_m}, with zero
    entries dropped.  S * T is "T first", as for matrices: its column n
    is S applied to column n of T.  Sums and products are lazy, so a
    column is computed when it is read.
    """

    __slots__ = ("column",)

    def __init__(self, column: Callable[[int], Column]):
        self.column = column

    def apply(self, col: Column) -> Column:
        """The action on the expansion `col`."""
        return _combine((v, self.column(m)) for m, v in col.items())

    def __mul__(self, other: "OpMatrix") -> "OpMatrix":
        return OpMatrix(lambda n: self.apply(other.column(n)))

    def __add__(self, other: "OpMatrix") -> "OpMatrix":
        return OpMatrix(lambda n: _combine(
            ((1, self.column(n)), (1, other.column(n)))))

    def __sub__(self, other: "OpMatrix") -> "OpMatrix":
        return OpMatrix(lambda n: _combine(
            ((1, self.column(n)), (-1, other.column(n)))))


@functools.lru_cache(maxsize=None)
def delta_matrix(pp: ParamPoint) -> OpMatrix:
    """eta-multiplication: tridiagonal, from the three-term recurrence."""
    return OpMatrix(lambda n: _eta_column(pp, {n: Fraction(1)}))


@functools.lru_cache(maxsize=None)
def gamma_matrix(pp: ParamPoint) -> OpMatrix:
    """Differentiation: strictly degree-lowering."""
    return OpMatrix(lambda n: _derivative_column(pp, {n: Fraction(1)}))


def flat_map(theta: DiffOp, pp: ParamPoint) -> OpMatrix:
    """A polynomial-coefficient operator's action, by ``column_action``."""
    return OpMatrix(functools.partial(column_action, theta, pp))


# -- the bispectral normal form ----------------------------------------------


class DecompositionFailure(ArithmeticError):
    """An operator is not of the form sum_b (u_b(eta) + v_b(eta) K) H0^b."""


@functools.lru_cache(maxsize=None)
def _normal_basis(pp: ParamPoint, order: int) -> Tuple[Poly, ...]:
    """Coefficients of H0^b (order 2b) or K H0^b (order 2b + 1).

    Its leading coefficient is c_2^b or c_2^(b+1).
    """
    if order == 0:
        return (ONE,)
    if order % 2:
        left, prev = DiffOp([ZERO, schrodinger_c2(pp)]), order - 1
    else:
        left = DiffOp([ZERO, schrodinger_c1(pp), schrodinger_c2(pp)])
        prev = order - 2
    return left.compose(DiffOp(_normal_basis(pp, prev))).poly_coeffs()


@functools.lru_cache(maxsize=None)
def normal_form(theta: DiffOp, pp: ParamPoint) -> Tuple[Tuple[Poly, ...], ...]:
    """(u, v) with theta = sum_b (u_b(eta) + v_b(eta) K) H0^b.

    Top-down division: the order-J coefficient F_J of what is left is
    divided by the leading coefficient of the basis element of order J,
    which gives u_(J/2) (J even) or v_((J-1)/2) (J odd); that multiple
    of the basis element is subtracted and the order drops.  A nonzero
    remainder raises DecompositionFailure.
    """
    rem = list(theta.poly_coeffs())
    u = [ZERO] * ((len(rem) + 1) // 2)
    v = [ZERO] * (len(rem) // 2)
    while rem:
        order = len(rem) - 1
        basis = _normal_basis(pp, order)
        q, r = poly_divmod(rem[order], basis[order])
        if not r.is_zero():
            raise DecompositionFailure(
                f"order {order}: F_{order} = {rem[order]!r} is not divisible "
                f"by c_2^{(order + 1) // 2} = {basis[order]!r}")
        (v if order % 2 else u)[order // 2] = q
        rem = [f - q * e for f, e in zip(rem, basis)]
        while rem and rem[-1].is_zero():
            rem.pop()
    return tuple(u), tuple(v)


def _k_column(pp: ParamPoint, m: int) -> Column:
    """K P_m = c_2 P_m' over {P_(m-1), P_m, P_(m+1)}.

    From [H0, eta] = 2K + c_1, with H0 P_m = lambda_m P_m for
    lambda_m = -E_m/4 and c_1 = c10 + c11 eta.
    """
    c1 = schrodinger_c1(pp)
    c10, c11 = c1.coeff(0), c1.coeff(1)
    A, B, C = recurrence_abc(pp, m)
    lam = -energy(pp, m) / 4
    entries = ((m + 1, A * (-energy(pp, m + 1) / 4 - lam - c11)),
               (m, -(c10 + c11 * B)),
               (m - 1, C * (-energy(pp, m - 1) / 4 - lam - c11)))
    return {row: c / 2 for row, c in entries if c and row >= 0}


def banded_column(theta: DiffOp, pp: ParamPoint, n: int) -> Column:
    """Expansion of theta P_n over {P_m} from the normal form of theta.

    Column n is U_n(eta) e_n + V_n(eta) (K e_n) with
    U_n = sum_b lambda_n^b u_b and V_n = sum_b lambda_n^b v_b: two Horner
    passes in the eta-action, on columns at most 2 deg U_n + 1 wide.
    """
    lam = -energy(pp, n) / 4
    terms = []
    for polys, base in zip(normal_form(theta, pp),
                           ({n: Fraction(1)}, _k_column(pp, n))):
        p = ZERO
        for poly in reversed(polys):
            p = p * lam + poly
        if base and not p.is_zero():
            terms.append((1, _horner(pp, p.coeffs, base)))
    return _combine(terms)


def recurrence_bispectral(pp: ParamPoint, D: IndexSet, Y: Poly,
                          n: int) -> Dict[int, Fraction]:
    """r_{n,k} read off the banded index-shift action of Theta.

    Column n of the action expands the operator image of P_n over the
    classical family (``banded_column``); dividing each row m by the
    eigenvalue product at m yields the recurrence coefficients.  Every
    nonzero entry of the column is returned, so an entry outside
    |k| <= L shows up as a disagreement with the other routes instead of
    being dropped.  Like ``recurrence_via_theta`` it relies on
    ``check_genericity``: a row m with pi_D(m) = 0 has the entry
    pi_D(m) r_{n,m-n} = 0, so its term is dropped and the pi == 0 guard
    never fires (L g=-13/2, D = 1I,2II, n = 0 omits r_{0,5} = 27).
    """
    out: Dict[int, Fraction] = {}
    for m, v in banded_column(theta_op(pp, D, Y), pp, n).items():
        pi = pi_factor(pp, D, m)
        if pi == 0:
            raise GenericityViolation(
                f"pi_D({m}) = 0; cannot divide the matrix route "
                f"for {D.label()}")
        out[m - n] = v / pi
    return out
