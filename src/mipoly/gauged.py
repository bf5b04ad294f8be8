"""Exact Wronskians of gauged columns.

A *gauge* is the prefactor

    e^(a*eta) * eta^b * ((1-eta)/2)^c * ((1+eta)/2)^d

with a an integer and b, c, d rationals.  A Wronskian column is the pair
((a, b, c, d), p) of a gauge's exponents and a polynomial p
(``Column``); ``families.seed`` and ``mindexed.mj_function`` build the
seeds and dual seeds in that form.  Every Wronskian returns one folded
triple (exps, nums, den): the gauge of exps times nums/den, with b, c, d
in [0, 1).  ``_fold`` moves the integer parts of b, c, d into nums/den
by exact division by the linear bases (no gcd), and all-zero nums carry
no gauge.  ``_poly_nums`` reads the numerators of a triple that must be
polynomial and raises :class:`NotPolynomial` if a gauge or a
denominator is left over (``_gaugeless`` checks the gauge alone).

Gauges.  The bases eta, (1-eta)/2, (1+eta)/2 of b, c, d are one table,
``_LINEAR``, read by the ladder, the determinant's gauge and the fold
(and by ``GaugedFn.deriv``, the gauged-function calculus of the tests'
oracles in ``tests/oracles.py``).  Both Wronskian entry points,
``wronskian_rows`` and ``bordered_wronskian``, take the compensating
gauge and add its exponents to the determinant's, so no caller
multiplies a gauge on afterwards.

Wronskians.  For columns f_1, ..., f_m the determinant

    W[f_1, ..., f_m] = det( d^i/deta^i f_j )_{0<=i<m}

is computed exactly from polynomial numerators.  Each column is its
gauge G_j times its polynomial p_j.  With w the product of the linear
factors eta, eta - 1, eta + 1 that some G_j carries, E_j = w G_j'/G_j
is a polynomial and every derivative is

    f_j^(k) = G_j q_{j,k} / w^k,   q_{j,0} = p_j,
    q_{j,k+1} = w q_{j,k}' + (E_j - k w') q_{j,k}

(``numerator_ladder``).  The Wronskian is then (prod_j G_j) det(q) /
w^(sum of the row orders): one fraction-free Bareiss determinant of
polynomials (``det_poly``), with no denominator clearing and no gcd per
derivative; the power of w goes back into the gauge exponents.  The
Bareiss pivots and row swaps depend on all columns but the last, so the
elimination of those is recorded once (``_eliminate``) and a last column
is replayed through the record alone (``_bordered_det``).
``wronskian_rows`` takes an arbitrary list of derivative orders for the
rows, which is what the minors of ``diffop``'s Fhat need.

Bordered Wronskians.  A plain polynomial p as the last column has the
ladder q_k = w^k p^(k), and the determinant is linear in that column, so

    G W[f_1, ..., f_m, p] = sum_k R_k p^(k),   R_k = G scale C_k w^k,

with C_k = det [block | e_k] the cofactor of row k.
``bordered_wronskian`` replays the m + 1 unit columns once, folds G into
the R_k and returns them as polynomial numerators over one den, with the
gauge left over.  From the seeds they give each P_{D,n} in ``mindexed``,
from the dual seeds the backward operator Bhat in ``diffop``.

``poly_wronskian`` is the Wronskian of plain polynomials.  ``verify``'s
seeded ``wronskian`` suite checks with it the classical determinant
identities the construction leans on: common-factor scaling, the
nested-pair product, a change of variable and the cofactor minors.  The
rows live in ``verify``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Tuple

from .exact import (
    ETA,
    ONE,
    Poly,
    RatFunc,
    _idivmod,
    _ilin,
    _imul,
    _to_ints,
    differentiate,
    poly_divmod,
    poly_lcm,
    rat_str,
)


class NotPolynomial(ValueError):
    """A quantity that must be polynomial has a nontrivial denominator or gauge."""


def gauge_str(exps: Sequence) -> str:
    """Gauge exponents (a, b, c, d) as "(a, b, c, d)" in "p/q" form."""
    return f"({', '.join(rat_str(e) for e in exps)})"


# A column ((a, b, c, d), p): the gauge of those exponents times p.
Column = Tuple[tuple, Poly]

# The gauge bases eta, (1-eta)/2, (1+eta)/2 of the slots b, c, d, each as
# its monic linear factor and a constant, with factor = const * base.
_LINEAR = ((ETA, 1), (Poly([-1, 1]), -2), (Poly([1, 1]), 2))


def _fold(exps: Sequence, nums: Sequence[Poly], den: Poly):
    """Fold the integer parts of exps' b, c, d into the fraction nums/den.

    Per slot, base^n (n the integer part) first cancels against the other
    side -- den for n > 0, nums for n < 0 -- by exact division by the
    linear base, while the base divides every polynomial there; whatever
    power is left multiplies its own side.  Returns (exps, nums, den) with
    b, c, d in [0, 1); all-zero nums carry no gauge.
    """
    exps, nums, dens = list(exps), list(nums), [den]
    for s, (factor, const) in enumerate(_LINEAR, 1):
        n = math.floor(exps[s])
        if not n:
            continue
        exps[s] -= n
        own, other = (nums, dens) if n > 0 else (dens, nums)
        base, k = factor * Fraction(1, const), abs(n)
        while k:
            split = [poly_divmod(p, base) for p in other]
            if any(not rem.is_zero() for _, rem in split):
                break
            other[:], k = [q for q, _ in split], k - 1
        own[:] = [p * base ** k for p in own]
    if all(p.is_zero() for p in nums):
        exps = [0, 0, 0, 0]
    return exps, nums, dens[0]


def _gaugeless(fraction) -> Tuple[list, Poly]:
    """(nums, den) of a folded triple whose gauge must reduce away."""
    exps, nums, den = fraction
    if any(exps):
        raise NotPolynomial(f"gauge {gauge_str(exps)} does not reduce away")
    return nums, den


def _poly_nums(fraction) -> list:
    """The numerators of a folded triple that must be polynomials: a
    gauge or a denominator left over raises NotPolynomial."""
    nums, den = _gaugeless(fraction)
    if den.degree > 0:
        raise NotPolynomial(f"denominator {den * (1 / den.lc())!r} remains")
    return nums


def numerator_ladder(fs: Sequence[Column], kmax: int):
    """Polynomial numerators of the derivatives of gauged columns.

    Returns (w, present, columns).  Each column is (G, [q_0, ..., q_kmax])
    with f^(k) = G q_k / w^k for the column f = (G, p), G its gauge
    exponents (a, b, c, d).  w is the product of the linear factors eta,
    eta - 1, eta + 1 that some G carries; present[s] says whether the
    factor of slot s (b, c, d) is in w.  E = w G'/G is then a polynomial,
    and q_{k+1} = w q_k' + (E - k w') q_k.
    """
    present = [any(g[s + 1] for g, _ in fs) for s in range(3)]
    w = Poly.one()
    for (factor, _), there in zip(_LINEAR, present):
        if there:
            w = w * factor
    columns = []
    for g, p in fs:
        E = g[0] * w
        for s, (factor, _) in enumerate(_LINEAR):
            if g[s + 1]:
                E = E + g[s + 1] * poly_divmod(w, factor)[0]
        columns.append((g, _ladder(p, E, w, kmax)))
    return w, present, columns


def _ladder(p: Poly, E: Poly, w: Poly, kmax: int) -> list:
    """[q_0, ..., q_kmax] with q_0 = p and q_{k+1} = w q_k' + (E - k w') q_k."""
    dw = differentiate(w)
    qs = [p]
    for k in range(kmax):
        q = qs[-1]
        qs.append(w * differentiate(q) + (E - k * dw) * q)
    return qs


def _eliminate(block: Sequence[Sequence[Poly]]):
    """Fraction-free Bareiss over Z on an m x (m-1) polynomial block.

    The pivots and row swaps of det [block | c] depend on the block
    alone, so this records them once for ``_bordered_det``: the row
    contents, then per step the swap (or None), the pivot, the
    multipliers of the rows below and the previous pivot.  Steps is None
    when the block has dependent columns, so every such determinant is 0.
    """
    rows = [_to_ints(row) for row in block]
    A, scales = [a for a, _ in rows], [s for _, s in rows]
    m = len(A)
    steps, prev = [], [1]
    for k in range(m - 1):
        swap = None
        if not A[k][k]:
            swap = next((i for i in range(k + 1, m) if A[i][k]), None)
            if swap is None:
                return scales, None
            A[k], A[swap] = A[swap], A[k]
        pivot, row_k = A[k][k], A[k]
        steps.append((swap, pivot, [row[k] for row in A[k + 1:]], prev))
        for row_i in A[k + 1:]:
            row_i[k + 1:] = [_bareiss(row_i[j], pivot, row_i[k], row_k[j], prev)
                             for j in range(k + 1, m - 1)]
        prev = pivot
    return scales, steps


def _bareiss(a_ij: list, pivot: list, a_ik: list, a_kj: list, prev: list) -> list:
    """(a_ij pivot - a_ik a_kj) / prev, an exact division over Z."""
    num = _ilin(_imul(a_ij, pivot), 1, _imul(a_ik, a_kj), -1)
    if prev == [1]:
        return num
    num, rem, s = _idivmod(num, prev)
    assert s == 1 and not rem, "Bareiss exact division failed"
    return num


def _bordered_det(elimination, column: Sequence[Poly]) -> Poly:
    """det [block | column] from ``_eliminate(block)``: one column's replay."""
    scales, steps = elimination
    if not column:
        return Poly.one()
    if steps is None:
        return Poly.zero()
    x, scale = _to_ints([p * (1 / s) for p, s in zip(column, scales)])
    for k, (swap, pivot, multipliers, prev) in enumerate(steps):
        if swap is not None:
            x[k], x[swap] = x[swap], x[k]
            scale = -scale
        x[k + 1:] = [_bareiss(x_i, pivot, a_ik, x[k], prev)
                     for x_i, a_ik in zip(x[k + 1:], multipliers)]
    for s in scales:
        scale *= s
    return Poly._make(x[-1], scale)


def det_poly(M: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a polynomial matrix, fraction-free Bareiss over Z.

    Each row is scaled by its content (the gcd of the numerators over the
    lcm of the denominators of its entries' contents), which leaves an
    integer polynomial matrix; Bareiss runs on it with exact integer
    division, and the product of the row contents is applied once.  The
    first m - 1 columns are eliminated by ``_eliminate`` and the last one
    replayed by ``_bordered_det``.
    """
    return _bordered_det(_eliminate([row[:-1] for row in M]),
                        [row[-1] for row in M])


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


def wronskian_rows(fs: Sequence[Column], orders: Sequence[int],
                   gauge: Sequence = (0, 0, 0, 0)):
    """G det( d^orders[i] f_j ), one row per derivative order, for the
    compensating gauge G of exponents gauge = (a, b, c, d), as the folded
    triple (exps, [num], den).

    Needs len(orders) == len(fs).  The empty Wronskian is 1.
    """
    m = len(fs)
    if len(orders) != m:
        raise ValueError("need as many derivative orders as columns")
    if m == 0:
        return _fold(gauge, [ONE], ONE)
    _, present, columns = numerator_ladder(fs, max(orders))
    det = det_poly([[qs[k] for _, qs in columns] for k in orders])
    exps, scale = _det_gauge(present, [g for g, _ in columns] + [gauge],
                             sum(orders))
    return _fold(exps, [det * scale], ONE)


def _det_gauge(present, gauges, S: int) -> Tuple[list, Fraction]:
    """(exponents, scale) with G W = e^a eta^b ((1-eta)/2)^c ((1+eta)/2)^d
    scale det for a determinant of ladder numerators of row orders summing
    to S: the product of the gauges (the columns' and G) over w^S, with
    1/w^S moved into the exponents of its gauge factors."""
    exps = [sum(g[i] for g in gauges) for i in range(4)]
    scale = Fraction(1)
    for s, (_, const) in enumerate(_LINEAR):
        if present[s]:
            exps[s + 1] -= S
            scale /= Fraction(const) ** S
    return exps, scale


def wronskian(fs: Sequence[Column]):
    """Classical Wronskian W[f_1, ..., f_m], as (exps, [num], den)."""
    return wronskian_rows(fs, list(range(len(fs))))


def bordered_wronskian(fs: Sequence[Column], gauge: Sequence):
    """p |-> G W[f_1, ..., f_m, p] on plain polynomials p, as numerators.

    G = e^(a eta) eta^b ((1-eta)/2)^c ((1+eta)/2)^d for gauge = (a, b, c, d).
    A plain p carries no gauge (E = 0), so its ladder is q_k = w^k p^(k),
    and expanding det [block | q] along its last column gives

        G W[f_1, ..., f_m, p] = sum_k R_k p^(k),  R_k = G scale C_k w^k,

    with C_k = det [block | e_k] the cofactor of row k.  The C_k come from
    replaying the m + 1 unit columns through one Bareiss elimination of
    the block, and the integer parts of G's exponents are folded into the
    R_k (``_fold`` over nums = R_k, den = 1).  Returns (exps, nums, den):
    G W[f_1, ..., f_m, p] = e^(a eta) eta^b ((1-eta)/2)^c ((1+eta)/2)^d
    sum_k nums[k] p^(k) / den for exps = (a, b, c, d) the gauge left over.
    """
    m = len(fs)
    w, present, columns = numerator_ladder(fs, m)
    elimination = _eliminate([[qs[k] for _, qs in columns]
                              for k in range(m + 1)])
    exps, scale = _det_gauge(present, [g for g, _ in columns] + [gauge],
                             m * (m + 1) // 2)
    zero = Poly.zero()
    rs = [_bordered_det(elimination,
                        [ONE if i == k else zero for i in range(m + 1)])
          * scale * w ** k for k in range(m + 1)]
    return _fold(exps, rs, ONE)


def poly_wronskian(fs: Sequence[Poly]) -> Poly:
    """Wronskian of plain polynomials (gaugeless columns)."""
    return _poly_nums(wronskian([((0, 0, 0, 0), f) for f in fs]))[0]
