"""Sampled oracle for index sets of four and five seeds.

The symbolic battery stops at three seeds.  Here each P_(D,n) is checked
at one seeded random rational point eta0 against a Wronskian built from
scratch: every seed's Taylor series at eta0 in Fractions (its shifted
polynomial times the binomial series of its gauge), the
(M+1) x (M+1) matrix of derivatives, and a plain Gaussian determinant.
None of it shares Bareiss or the numerator ladder with ``gauged``.  At
the same point the operators are checked too: Fhat P_n = P_(D,n),
Bhat P_(D,n) = pi_D(n) P_n and Htilde P_(D,n) = E_n P_(D,n).
"""

import math
import random
from fractions import Fraction as F

import pytest

from mipoly.diffop import backward_op, forward_op, htilde_op
from mipoly.exact import ParamPoint
from mipoly.families import classical_poly, energy, twisted
from mipoly.mindexed import IndexSet, check_genericity, mi_poly, pi_factor

SETS = ["1I,2I,3I,4I", "1I,2I,4I,2II,3II", "2I,3I,5I,2II", "1I,3I,2II,4II",
        "2II,3II,4II,5II", "1I,2I,3I,2II,5II", "1I,4I,6I,3II"]
POINTS = {"L": [(F(7, 3), None), (F(12, 5), None), (F(9, 2), None)],
          "J": [(F(7, 3), F(9, 4)), (F(8, 3), F(7, 4)), (F(13, 4), F(10, 3))]}
MEMBERS = (0, 1, 3, 6)


def shifted(coeffs, x0, order):
    """Taylor coefficients of sum_j c_j eta^j at eta = x0 + t, to t^order."""
    return [sum(c * math.comb(j, k) * x0 ** (j - k)
                for j, c in enumerate(coeffs) if j >= k)
            for k in range(order + 1)]


def binomial_series(b, u, order):
    """(1 + u t)^b to t^order."""
    out = [F(1)]
    for k in range(1, order + 1):
        out.append(out[-1] * (b - k + 1) / k * u)
    return out


def times(s, t):
    return [sum(s[i] * t[k - i] for i in range(k + 1)) for k in range(len(s))]


def seed_series(pp, vtype, v, x0, order):
    """A seed over its gauge's value at x0, as a Taylor series at x0.

    The seeds as the paper writes them:
        L   I)  e^eta L_v^(alpha)(-eta)
            II) eta^(1/2 - g) L_v^(-alpha)(eta)
        J   I)  ((1+eta)/2)^(1/2 - h) P_v^(alpha, -beta)(eta)
            II) ((1-eta)/2)^(1/2 - g) P_v^(-alpha, beta)(eta)
    """
    coeffs = list(classical_poly(twisted(pp, vtype), v).coeffs)
    if pp.family == "L" and vtype == "I":
        coeffs = [(-1) ** j * c for j, c in enumerate(coeffs)]
        gauge = [F(1, math.factorial(k)) for k in range(order + 1)]
    elif pp.family == "L":
        gauge = binomial_series(F(1, 2) - pp.g, 1 / x0, order)
    elif vtype == "I":
        gauge = binomial_series(F(1, 2) - pp.h, 1 / (1 + x0), order)
    else:
        gauge = binomial_series(F(1, 2) - pp.g, -1 / (1 - x0), order)
    return times(gauge, shifted(coeffs, x0, order))


def determinant(rows):
    rows = [list(r) for r in rows]
    det = F(1)
    for i in range(len(rows)):
        pivot = next((r for r in range(i, len(rows)) if rows[r][i]), None)
        if pivot is None:
            return F(0)
        if pivot != i:
            rows[i], rows[pivot] = rows[pivot], rows[i]
            det = -det
        det *= rows[i][i]
        for r in range(i + 1, len(rows)):
            f = rows[r][i] / rows[i][i]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[i])]
    return det


def leftover_gauge(pp, D, x0):
    """The P_(D,n) gauge times the seeds' gauges: integer exponents only."""
    s1, s2 = D.s1, D.s2
    if pp.family == "L":
        return x0 ** (s2 * (s1 + 1))
    return (((1 - x0) / 2) ** (s2 * (s1 + 1))
            * ((1 + x0) / 2) ** (s1 * (s2 + 1)))


def at(op, x0, taylor):
    """op q at x0, from q's Taylor coefficients there."""
    total = sum(num(x0) * math.factorial(i) * taylor[i]
                for i, num in enumerate(op.nums))
    den = op.den(x0)
    assert den != 0
    return total / den


def cases():
    rng = random.Random(20151)
    for family in ("L", "J"):
        for label in SETS:
            g, h = rng.choice(POINTS[family])
            if family == "L":
                x0 = F(rng.randint(1, 90), rng.randint(7, 31))
            else:
                x0 = F(rng.randint(-29, 29), 31)
            yield pytest.param(ParamPoint(family, g=g, h=h),
                               IndexSet.parse(family, label), x0,
                               id=f"{family}-{label}")


@pytest.mark.parametrize("pp, D, x0", list(cases()))
def test_many_seed_members_match_a_fraction_wronskian(pp, D, x0):
    check_genericity(pp, D, max(MEMBERS))
    M = D.size
    assert M in (4, 5)
    columns = [seed_series(pp, t, v, x0, M) for t, v in D.entries()]
    fhat, bhat, H = forward_op(pp, D), backward_op(pp, D), htilde_op(pp, D)
    for n in MEMBERS:
        Pn = shifted(classical_poly(pp, n).coeffs, x0, M)
        matrix = [[math.factorial(i) * col[i] for col in columns + [Pn]]
                  for i in range(M + 1)]
        PDn = mi_poly(pp, D, n)
        want = PDn(x0)
        assert want != 0
        assert determinant(matrix) * leftover_gauge(pp, D, x0) == want, n
        assert at(fhat, x0, shifted(classical_poly(pp, n).coeffs, x0,
                                    len(fhat.nums))) == want, n
        assert at(bhat, x0, shifted(PDn.coeffs, x0, len(bhat.nums))) \
            == pi_factor(pp, D, n) * Pn[0], n
        assert at(H, x0, shifted(PDn.coeffs, x0, len(H.nums))) \
            == energy(pp, n) * want, n
