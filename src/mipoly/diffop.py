"""Differential operators: forward/backward maps and the deformed Hamiltonian.

:class:`DiffOp` is an ordinary differential operator with one explicit
common denominator,

    (1/den) sum_i nums[i](eta) d^i,

stored as polynomial numerators over a monic den in lowest terms (no
factor of den divides every numerator), so equal operators have equal
fields.  Application, composition (Leibniz on the numerators, with a
quotient-rule ladder for the derivatives of the right operand's
coefficients), sums and left multiplication work on the numerators and
normalize once, at the end.  ``coeffs`` and ``coeff(i)`` give the reduced
coefficients nums[i]/den as rational functions.

The two Wronskian-built operators intertwine the classical family P_n
with the multi-indexed family P_{D,n}:

* ``forward_op``  Fhat:  Fhat P_n = P_{D,n}.  Its coefficients come from
  expanding W[mu_1, ..., mu_M, *] along the last column -- the i-th
  coefficient is the (M+i)-signed minor over derivative rows {0..M}
  minus {i} -- times the same compensating gauge that makes P_{D,n} a
  polynomial.  The coefficients are guaranteed polynomials (den = 1); a
  leftover denominator raises :class:`~mipoly.gauged.NotPolynomial`.

* ``backward_op`` Bhat:  Bhat P_{D,n} = pi_D(n) P_n, built the same way
  from the dual seeds m_j with the prefactor rho_B carrying 1/Xi^M.  Its
  numerators are built over Xi_D^M directly, by exact division of Xi^M
  by each cofactor's denominator, so its one denominator divides Xi^M by
  construction; a cofactor denominator that does not divide Xi^M raises
  :class:`DenominatorEscape`.  Theta = Bhat o X o Fhat is then composed
  over Xi^M with no gcd before the final lowest-terms step.

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
import itertools
import math
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .exact import (
    ONE,
    ParamPoint,
    Poly,
    RatFunc,
    differentiate,
    poly_divmod,
    poly_gcd,
)
from .families import (
    c_factor,
    delta_shift,
    schrodinger_c1,
    schrodinger_c2,
    shifted_params,
)
from .gauged import GaugedFn, wronskian_rows
from .mindexed import (
    HALF,
    IndexSet,
    _xi_gauge,
    mj_function,
    seed_functions,
    xi_poly,
)


class DenominatorEscape(ValueError):
    """A backward-operator denominator is not a divisor of Xi^M."""


CoeffLike = Union[RatFunc, Poly, int, str, Fraction]


def _lowest(nums: List[Poly], den: Poly) -> Tuple[Tuple[Poly, ...], Poly]:
    """Drop trailing zeros, cancel the factor den shares with every
    numerator, and make den monic."""
    while nums and nums[-1].is_zero():
        nums.pop()
    if not nums:
        return (), Poly.one()
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


def _quotient_ladder(b: Poly, t: Poly, m: int) -> List[Poly]:
    """beta_0, ..., beta_m with (b/t)^(k) = beta_k / t^(k+1)."""
    out = [b]
    dt = differentiate(t)
    for k in range(m):
        beta = differentiate(out[-1])
        if not dt.is_zero():
            beta = t * beta - (k + 1) * dt * out[-1]
        out.append(beta)
    return out


class DiffOp:
    """(1/den) sum_i nums[i] d^i/deta^i in lowest terms, den monic.

    Built from a list of coefficients (RatFunc, Poly or scalars), over an
    optional extra denominator: DiffOp(coeffs, den) is
    sum_i (coeffs[i] / den) d^i.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Sequence[CoeffLike] = (), den: Poly = ONE):
        rs = [RatFunc.of(c) for c in coeffs]
        common = Poly.one()
        for r in rs:
            if not poly_divmod(common, r.den)[1].is_zero():
                common = common * r.den
        nums = [r.num * poly_divmod(common, r.den)[0] for r in rs]
        nums, common = _lowest(nums, common * den)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", common)

    @staticmethod
    def identity() -> "DiffOp":
        return DiffOp([1])

    @staticmethod
    def derivative(order: int = 1) -> "DiffOp":
        return DiffOp([0] * order + [1])

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    @property
    def coeffs(self) -> Tuple[RatFunc, ...]:
        """The coefficients nums[i] / den, each in lowest terms."""
        return tuple(RatFunc(n, self.den) for n in self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def coeff(self, i: int) -> RatFunc:
        if 0 <= i < len(self.nums):
            return RatFunc(self.nums[i], self.den)
        return RatFunc(Poly.zero())

    def apply(self, q: Poly) -> RatFunc:
        total = Poly.zero()
        for n in self.nums:
            if not n.is_zero():
                total = total + n * q
            q = differentiate(q)
        return RatFunc(total, self.den)

    def __add__(self, other: "DiffOp") -> "DiffOp":
        a, b, den = self.nums, other.nums, self.den
        if other.den != den:
            a = [n * other.den for n in a]
            b = [n * den for n in b]
            den = den * other.den
        return DiffOp([x + y for x, y in
                       itertools.zip_longest(a, b, fillvalue=Poly.zero())], den)

    def __neg__(self) -> "DiffOp":
        return DiffOp([-n for n in self.nums], self.den)

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def left_mul(self, f: CoeffLike) -> "DiffOp":
        """The operator q |-> f * (self q)."""
        g = RatFunc.of(f)
        return DiffOp([g.num * n for n in self.nums], self.den * g.den)

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
        ladders = [_quotient_ladder(b, t, top) for b in other.nums]
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


def _expansion_coeffs(columns, rho: GaugedFn, M: int) -> List[GaugedFn]:
    """Signed last-column cofactors of an (M+1)-row Wronskian, times rho."""
    out = []
    for i in range(M + 1):
        orders = [k for k in range(M + 1) if k != i]
        minor = wronskian_rows(columns, orders)
        out.append(minor * (rho if (M + i) % 2 == 0 else -rho))
    return out


@functools.lru_cache(maxsize=None)
def forward_op(pp: ParamPoint, D: IndexSet) -> DiffOp:
    """Fhat with Fhat P_n = P_{D,n}; polynomial coefficients."""
    M = D.size
    if M == 0:
        return DiffOp.identity()
    terms = _expansion_coeffs(seed_functions(pp, D), _xi_gauge(pp, D, HALF), M)
    # NotPolynomial if a gauge fails to cancel
    return DiffOp([term.as_poly() for term in terms])


def _rho_backward(pp: ParamPoint, D: IndexSet) -> GaugedFn:
    s, s1, s2 = D.size, D.s1, D.s2
    xi = xi_poly(pp, D)
    const = c_factor(pp) ** (2 * s) * (-1) ** (s * (s + 1) // 2)
    r = RatFunc(Poly.const(const), xi ** s)
    if pp.family == "L":
        return GaugedFn(a=-s2, b=s1 * (s1 + pp.g + HALF), r=r)
    return GaugedFn(c=s1 * (s1 + pp.g + HALF),
                    d=s2 * (s2 + pp.h + HALF), r=r)


@functools.lru_cache(maxsize=None)
def backward_op(pp: ParamPoint, D: IndexSet) -> DiffOp:
    """Bhat with Bhat P_{D,n} = pi_D(n) P_n; numerators over Xi^M."""
    M = D.size
    if M == 0:
        return DiffOp.identity()
    mjs = [mj_function(pp, D, j) for j in range(M)]
    xi_m = xi_poly(pp, D) ** M
    nums = []
    for term in _expansion_coeffs(mjs, _rho_backward(pp, D), M):
        r = term.as_ratfunc()
        q, rem = poly_divmod(xi_m, r.den)
        if not rem.is_zero():
            raise DenominatorEscape(
                f"denominator {r.den!r} does not divide Xi^{M} "
                f"for {D.label()}")
        nums.append(r.num * q)
    return DiffOp(nums, xi_m)


def backward_apply_via_wronskian(pp: ParamPoint, D: IndexSet,
                                 q: Poly) -> RatFunc:
    """rho_B * W[m_1, ..., m_M, q]: the unexpanded form of Bhat q."""
    M = D.size
    if M == 0:
        return RatFunc(q)
    cols = [mj_function(pp, D, j) for j in range(M)] + [GaugedFn(r=q)]
    w = wronskian_rows(cols, list(range(M + 1)))
    return (w * _rho_backward(pp, D)).as_ratfunc()


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
