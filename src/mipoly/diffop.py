"""Differential operators: forward/backward maps and the deformed Hamiltonian.

:class:`DiffOp` is an ordinary differential operator with one explicit
common denominator,

    (1/den) sum_i nums[i](eta) d^i,

built from polynomial numerators over one den and kept in lowest terms,
den monic, so equal operators have equal fields and the coefficients
are all polynomials iff den is constant (how Theta's admissibility is
read).  Application (``exact._apply_nums`` over den, as for each
P_{D,n}), composition (Leibniz on the numerators; the derivatives of
the right operand's coefficients come from ``gauged._ladder`` for the
gauge 1/den) and
left multiplication by a polynomial normalize once, at the end, by the
lowest-terms step RatFunc shares (``exact._lowest``).  ``coeffs`` gives
the reduced nums[i]/den.  No command adds operators; the sums the tests'
operator identities need are in ``tests/oracles.py``.

The two Wronskian-built operators intertwine the classical family P_n
with the multi-indexed family P_{D,n}:

* ``forward_op``  Fhat:  Fhat P_n = P_{D,n}.  Its coefficients come from
  expanding W[mu_1, ..., mu_M, *] along the last column -- the i-th
  coefficient is the (M+i)-signed minor over derivative rows {0..M}
  minus {i} -- each passed the compensating gauge of P_{D,n}.  They are
  guaranteed polynomials (den = 1); a leftover denominator or gauge
  raises :class:`~mipoly.gauged.NotPolynomial`.

* ``backward_op`` Bhat:  Bhat q = rho_B W[m_1, ..., m_M, q] =
  pi_D(n) P_n for q = P_{D,n}.  Its numerators over Xi_D^M are rho_B's
  constant times those of the dual seeds' ``gauged.bordered_wronskian``,
  passed rho_B's gauge.  A fractional gauge left over raises
  :class:`~mipoly.gauged.NotPolynomial`, a power of a gauge base left
  below Xi^M :class:`DenominatorEscape`.  Theta = Bhat o X o Fhat is
  composed over Xi^M with no gcd before the final lowest-terms step.
  ``backward_apply_via_wronskian`` is Bhat q unexpanded: the Wronskian
  of the m_j and the gaugeless column ((0, 0, 0, 0), q).

``htilde_op`` is the gauged Hamiltonian with H P_{D,n} = E_n P_{D,n},
with numerators over Xi:

    -1/4 H = (1/Xi) [ c_2 Xi d^2 + (c_1[shifted] Xi - 2 c_2 Xi') d
                      + c_2 Xi'' - c_1[shifted - delta] Xi' ]

with c_1 evaluated at lambda^{[s1, s2]}.  ``single_step_forward`` /
``single_step_backward`` are the first-order ladder operators shifting
lambda by delta, with eigenvalue factors f_n, b_n such that
f_n b_{n-1} = E_n, and B o F = H exactly as operators; F has numerators
over Xi and B over Xi(lambda + delta).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence, Tuple, Union

from .exact import (
    ONE,
    ParamPoint,
    Poly,
    RatFunc,
    _apply_nums,
    _lowest,
    differentiate,
)
from .families import (
    c_factor,
    delta_shift,
    schrodinger_c1,
    schrodinger_c2,
    shifted_params,
)
from .gauged import (_gaugeless, _ladder, _poly_nums, bordered_wronskian,
                     wronskian_rows)
from .mindexed import (
    HALF,
    IndexSet,
    _xi_exponents,
    mj_function,
    seed_functions,
    xi_poly,
)


class DenominatorEscape(ValueError):
    """Bhat's cofactors leave a power of a gauge base over Xi^M."""


class DiffOp:
    """(1/den) sum_i nums[i] d^i/deta^i in lowest terms, den monic.

    DiffOp(nums, den) is (1/den) sum_i nums[i] d^i for polynomial
    numerators (an int or Fraction is a constant) over one denominator.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: Sequence[Union[Poly, int, Fraction]] = (),
                 den: Poly = ONE):
        nums, den = _lowest([n if isinstance(n, Poly) else Poly.const(n)
                             for n in nums], den)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @staticmethod
    def identity() -> "DiffOp":
        return DiffOp([1])

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    @property
    def coeffs(self) -> Tuple[RatFunc, ...]:
        """The coefficients nums[i] / den, each in lowest terms."""
        return tuple(RatFunc(n, self.den) for n in self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def apply(self, q: Poly) -> RatFunc:
        return RatFunc(_apply_nums(self.nums, q), self.den)

    def left_mul(self, f: Poly) -> "DiffOp":
        """The operator q |-> f * (self q) for a polynomial f."""
        return DiffOp([f * n for n in self.nums], self.den)

    def compose(self, other: "DiffOp") -> "DiffOp":
        """self o other: (self.compose(other))(q) = self(other(q)).

        Leibniz on the numerators: with other = (1/t) sum_j b_j d^j, the
        derivatives (b_j/t)^(k) = beta_jk / t^(k+1) all go over
        t^(order + 1), so the product has the denominator
        self.den * t^(order + 1) until the final lowest-terms step.
        """
        if self.is_zero() or other.is_zero():
            return DiffOp()
        top, t = self.order, other.den
        # the gauge 1/t: w = t, E = -t', so q_(k+1) = t q_k' - (k+1) t' q_k
        dt = differentiate(t)
        ladders = [_ladder(b, -dt, t, top) for b in other.nums]
        tp = [Poly.one()]
        for _ in range(top + 1):
            tp.append(tp[-1] * t)
        out = [Poly.zero()] * (top + other.order + 1)
        for i, a in enumerate(self.nums):
            if a.is_zero():
                continue
            for j, betas in enumerate(ladders):
                for r in range(i + 1):
                    beta = betas[i - r]
                    if not beta.is_zero():
                        out[r + j] = out[r + j] + \
                            a * (math.comb(i, r) * beta) * tp[top - i + r]
        return DiffOp(out, self.den * tp[top + 1])

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def poly_coeffs(self) -> Tuple[Poly, ...]:
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: denominator {self.den!r}")
        return self.nums

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash(("DiffOp", self.nums, self.den))

    def __repr__(self) -> str:
        if self.is_zero():
            return "DiffOp(0)"
        bits = [f"({c!r}) d^{i}" for i, c in enumerate(self.coeffs)
                if not c.is_zero()]
        return "DiffOp[" + " + ".join(bits) + "]"


@functools.lru_cache(maxsize=None)
def forward_op(pp: ParamPoint, D: IndexSet) -> DiffOp:
    """Fhat with Fhat P_n = P_{D,n}; polynomial coefficients."""
    M = D.size
    if M == 0:
        return DiffOp.identity()
    columns, gauge = seed_functions(pp, D), _xi_exponents(pp, D, HALF)
    coeffs = []
    for i in range(M + 1):
        # row i's last-column cofactor; NotPolynomial if the gauge stays
        (minor,) = _poly_nums(wronskian_rows(
            columns, [k for k in range(M + 1) if k != i], gauge))
        coeffs.append(minor if (M + i) % 2 == 0 else -minor)
    return DiffOp(coeffs)


def _rho_backward(pp: ParamPoint, D: IndexSet) -> Tuple[Fraction, tuple]:
    """rho_B = const * e^(a eta) eta^b ((1-eta)/2)^c ((1+eta)/2)^d / Xi^M,
    as (const, (a, b, c, d))."""
    s, s1, s2 = D.size, D.s1, D.s2
    const = c_factor(pp) ** (2 * s) * (-1) ** (s * (s + 1) // 2)
    if pp.family == "L":
        return const, (-s2, s1 * (s1 + pp.g + HALF), 0, 0)
    return const, (0, 0, s1 * (s1 + pp.g + HALF), s2 * (s2 + pp.h + HALF))


@functools.lru_cache(maxsize=None)
def backward_op(pp: ParamPoint, D: IndexSet) -> DiffOp:
    """Bhat with Bhat P_{D,n} = pi_D(n) P_n: rho_B's constant times the
    dual seeds' cofactors R_k, over Xi^M."""
    M = D.size
    if M == 0:
        return DiffOp.identity()
    const, exps = _rho_backward(pp, D)
    nums, den = _gaugeless(bordered_wronskian(
        [mj_function(pp, D, j) for j in range(M)], exps))
    if den.degree > 0:
        raise DenominatorEscape(f"denominator {den!r} is left over "
                                f"Xi^{M} for {D.label()}")
    return DiffOp([const * n for n in nums], xi_poly(pp, D) ** M)


def backward_apply_via_wronskian(pp: ParamPoint, D: IndexSet,
                                 q: Poly) -> RatFunc:
    """rho_B W[m_1, ..., m_M, q], rho_B's gauge passed in: Bhat q unexpanded."""
    M = D.size
    if M == 0:
        return RatFunc(q)
    cols = [mj_function(pp, D, j) for j in range(M)] + [((0, 0, 0, 0), q)]
    const, exps = _rho_backward(pp, D)
    (num,), den = _gaugeless(wronskian_rows(cols, list(range(M + 1)), exps))
    return RatFunc(const * num, den * xi_poly(pp, D) ** M)


@functools.lru_cache(maxsize=None)
def htilde_op(pp: ParamPoint, D: IndexSet) -> DiffOp:
    """The gauged Hamiltonian: htilde_op P_{D,n} = E_n P_{D,n}."""
    xi = xi_poly(pp, D)
    dxi = differentiate(xi)
    c2 = schrodinger_c2(pp)
    lam = shifted_params(pp, D.s1, D.s2)
    c11 = schrodinger_c1(lam)
    c10 = schrodinger_c1(delta_shift(lam, -1))
    quarter = [c2 * differentiate(dxi) - c10 * dxi,
               c11 * xi - 2 * c2 * dxi,
               c2 * xi]
    return DiffOp([-4 * n for n in quarter], xi)


def single_step_forward(pp: ParamPoint, D: IndexSet) -> DiffOp:
    """F_D(lambda): maps P_{D,n}(lambda) to f_n P_{D,n-1}(lambda+delta)."""
    xi_up = xi_poly(delta_shift(pp), D)
    cF = c_factor(pp)
    return DiffOp([-cF * differentiate(xi_up), cF * xi_up], xi_poly(pp, D))


def single_step_backward(pp: ParamPoint, D: IndexSet) -> DiffOp:
    """B_D(lambda): maps P_{D,n-1}(lambda+delta) to b_{n-1} P_{D,n}(lambda)."""
    xi = xi_poly(pp, D)
    c2 = schrodinger_c2(pp)
    c1s = schrodinger_c1(shifted_params(pp, D.s1, D.s2))
    k = Fraction(-4) / c_factor(pp)
    return DiffOp([k * (c1s * xi - c2 * differentiate(xi)), k * c2 * xi],
                  xi_poly(delta_shift(pp), D))


def forward_step_eigen(pp: ParamPoint, n: int) -> Fraction:
    """f_n in F_D P_{D,n} = f_n P_{D,n-1}(lambda+delta)."""
    if pp.family == "L":
        return Fraction(-2)
    if pp.family == "J":
        return -2 * (n + pp.g + pp.h)
    raise ValueError("ladder factors are defined for Laguerre/Jacobi only")


def backward_step_eigen(pp: ParamPoint, n: int) -> Fraction:
    """b_n in B_D P_{D,n}(lambda+delta) = b_n P_{D,n+1}(lambda)."""
    if pp.family in ("L", "J"):
        return Fraction(-2 * (n + 1))
    raise ValueError("ladder factors are defined for Laguerre/Jacobi only")
