"""Constant-coefficient recurrence relations for multi-indexed polynomials.

For a seed polynomial Y != 0, set

    X(eta) = integral_0^eta Xi_D(y) Y(y) dy,     L := deg X = ell(D) + deg Y + 1.

Multiplication by X then closes on the multi-indexed family:

    X P_{D,n} = sum_{k=-L}^{L} r_{n,k} P_{D,n+k}

with coefficients r_{n,k} that do not depend on eta.  Every route
reads X only, whether it was built from Y (``x_from_y``) or given as
it is (``--raw-X``).  Two of the three independent routes to the
r_{n,k} live here:

* the *direct* route expands X P_{D,n} in the basis {P_{D,m}} by leading
  coefficient elimination (``recurrence_direct``).  A nonzero residue
  after eliminating down to degree ell signals that the input was not in
  the span: :class:`NonzeroRemainder`;

* the *operator* route conjugates back to the classical family:
  Theta = Bhat o X o Fhat has polynomial coefficients exactly when X is
  admissible (otherwise :class:`~mipoly.gauged.NotPolynomial` -- this is
  the negative test), Theta P_n = sum_k r0_{n,k} P_{n+k} is read off in
  the classical basis, and r_{n,k} = r0_{n,k} / pi_D(n+k)
  (``recurrence_via_theta``).

The third route (the index-shift action of Theta) is in
:mod:`mipoly.shiftalg` and consumes the Theta built here; ``theta_op``
is cached, so both routes share one Theta per (point, index set, X).
Each divides its own column of Theta's action by pi_D through
``divide_by_pi``, which shares the division step but no result.

Membership of a polynomial in span{P_{D,n}} has a test without any
expansion: q in the span makes Htilde q a polynomial, that is

    Xi | Xi' (2 c_2 q' + c_1[shifted - delta] q) - Xi'' c_2 q

(``in_deformed_span``, which reads ``diffop.htilde_op``; the converse
can fail, see there).  For parameter points where leading coefficients
degenerate the elimination ladder is unusable; the tests expand there
with ``span_solve_deformed`` in ``tests/oracles.py``, an exact linear
system that skips identically-zero basis members.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Dict

from .diffop import DiffOp, backward_op, forward_op, htilde_op
from .exact import ParamPoint, Poly, integrate_from_zero
from .families import GenericityViolation, classical_poly, expand_in_classical
from .gauged import NotPolynomial
from .mindexed import IndexSet, mi_poly, pi_factor, xi_poly


class NonzeroRemainder(ValueError):
    """An expansion in the deformed basis left a nonzero residue."""


def x_from_y(pp: ParamPoint, D: IndexSet, Y: Poly) -> Poly:
    """X = integral from 0 of Xi_D * Y; the recurrence has order deg X."""
    if Y.is_zero():
        raise ValueError("the seed polynomial Y must be nonzero")
    return integrate_from_zero(xi_poly(pp, D) * Y)


def recurrence_order(D: IndexSet, Y: Poly) -> int:
    """L = ell(D) + deg Y + 1: the recurrence runs over |k| <= L."""
    if Y.is_zero():
        raise ValueError("the seed polynomial Y must be nonzero")
    return D.ell + Y.degree + 1


def in_deformed_span(pp: ParamPoint, D: IndexSet, q: Poly) -> bool:
    """Whether Htilde q is a polynomial, the span test for q.

    Htilde's numerators are over Xi, and the numerator of Htilde q is
    4 T mod Xi with T = Xi' (2 c_2 q' + c_1[shifted - delta] q)
    - Xi'' c_2 q, so this is the test Xi | T.  Every q in
    span{P_{D,n} : n >= 0} passes.  The converse can fail at a point
    check_genericity accepts: at L g=-1/2 with D = 1I (Xi = eta),
    q = eta P_(D,0) passes, yet expand_in_deformed leaves the residue 1
    below ell = 1.
    """
    return htilde_op(pp, D).apply(q).is_polynomial()


@functools.lru_cache(maxsize=None)
def theta_op(pp: ParamPoint, D: IndexSet, X: Poly) -> DiffOp:
    """Theta = Bhat o X o Fhat, demanding a constant lowest-terms
    denominator; only a failure reads the coefficients, to name one.

    Cached: one Theta serves the operator route, the matrix route and
    every row n.
    """
    op = backward_op(pp, D).compose(forward_op(pp, D).left_mul(X))
    if op.is_polynomial():
        return op
    i, c = next((i, c) for i, c in enumerate(op.coeffs)
                if not c.is_polynomial())
    raise NotPolynomial(f"coefficient of d^{i} has denominator {c.den!r}; "
                        f"X is not admissible for {D.label()}")


def expand_in_deformed(pp: ParamPoint, D: IndexSet, q: Poly) -> Dict[int, Fraction]:
    """Coefficients of q in {P_{D,m}}, by descending leading elimination."""
    out: Dict[int, Fraction] = {}
    rem = q
    while not rem.is_zero() and rem.degree >= D.ell:
        m = rem.degree - D.ell
        basis = mi_poly(pp, D, m)
        coeff = rem.lc() / basis.lc()
        out[m] = coeff
        rem = rem - coeff * basis
        assert rem.is_zero() or rem.degree < D.ell + m
    if not rem.is_zero():
        raise NonzeroRemainder(
            f"residue {rem!r} of degree {rem.degree} below ell = {D.ell} "
            f"for {D.label()}")
    return out


def recurrence_direct(pp: ParamPoint, D: IndexSet, X: Poly,
                      n: int) -> Dict[int, Fraction]:
    """r_{n,k} by expanding X P_{D,n} in the deformed basis."""
    expansion = expand_in_deformed(pp, D, X * mi_poly(pp, D, n))
    return {m - n: c for m, c in expansion.items()}


def divide_by_pi(pp: ParamPoint, D: IndexSet, n: int,
                 column: Dict[int, Fraction],
                 route: str) -> Dict[int, Fraction]:
    """r_{n,m-n} = column[m] / pi_D(m) for Theta P_n = sum_m column[m] P_m.

    The operator and matrix routes each divide their own column; a
    pi_D(m) = 0 raises GenericityViolation naming the route.
    """
    out: Dict[int, Fraction] = {}
    for m, c in column.items():
        pi = pi_factor(pp, D, m)
        if pi == 0:
            raise GenericityViolation(
                f"pi_D({m}) = 0; cannot divide the {route} route "
                f"for {D.label()}")
        out[m - n] = c / pi
    return out


def recurrence_via_theta(pp: ParamPoint, D: IndexSet, X: Poly,
                         n: int) -> Dict[int, Fraction]:
    """r_{n,k} = r0_{n,k} / pi_D(n+k) from the conjugated operator.

    Relies on ``check_genericity`` through n + L.  Where pi_D(m) = 0 but
    P_{D,m} != 0, Theta's entry r0_{n,m-n} = pi_D(m) r_{n,m-n} is 0, so
    the term is dropped and the pi == 0 guard never fires: at L g=-13/2,
    D = 1I,2II, n = 0 this route omits the direct route's r_{0,5} = 27.
    """
    image = theta_op(pp, D, X).apply(classical_poly(pp, n)).as_poly()
    return divide_by_pi(pp, D, n, expand_in_classical(pp, image), "operator")
