"""The registry of named checks: the seven suites that ``verify`` runs,
and every row builder they use.

Each suite takes explicit inputs (points or (point, index set) cases,
nmax, seed polynomials Y, seed, trials) and returns ``checks.Check``
rows; the library layers hold only the mathematics the rows read.
``SUITES`` binds each to ``verify``'s flags, and the acceptance battery
runs all seven over its own inputs.  ``diffop``'s ``ladder`` row is the
single-step Darboux-Crum chain, which shares no code with the M-step
Fhat and Bhat of its ``intertwining`` row.  A case that the construction
refuses (a vanishing member or pi_D, a Theta or Bhat that is not
polynomial) fails its own rows with the cause; any other exception is
a bug and crashes the suite.  The pools are kept generic: g and h off
the half-integers (those zero a leading coefficient for some seed) and,
for Jacobi, g - h off the integers so the twisted three-term
recurrences stay defined.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from .checks import Check, Report, agree, route_agreement, routes
from .diffop import (DenominatorEscape, backward_apply_via_wronskian,
                     backward_op, backward_step_eigen, forward_op,
                     forward_step_eigen, htilde_op, single_step_backward,
                     single_step_forward)
from .exact import ETA, ParamPoint, Poly, RatFunc, differentiate
from .families import (GenericityViolation, classical_poly, cnk, delta_shift,
                       energy, expand_in_classical, recurrence_abc)
from .gauged import NotPolynomial, poly_wronskian
from .mindexed import (DegenerateLeading, IndexSet, mi_poly, p_leading,
                       pi_factor, plusdelta_constant, xi_leading, xi_poly)
from .recurrence import recurrence_order, x_from_y
from .shiftalg import (NormalOrderedShift, bnk_value, collapsing_shift,
                       delta_matrix, delta_power_column, gamma_matrix,
                       gamma_power_column)

Case = Tuple[ParamPoint, IndexSet]

L_POOL = [Fraction(7, 3), Fraction(5, 4), Fraction(9, 2),
          Fraction(12, 5), Fraction(3)]
J_POOL = [(Fraction(7, 3), Fraction(9, 4)), (Fraction(8, 3), Fraction(7, 4)),
          (Fraction(13, 4), Fraction(10, 3)), (Fraction(16, 5), Fraction(9, 4)),
          (Fraction(18, 5), Fraction(4, 3))]

L_SETS = [IndexSet("L", (1,), ()), IndexSet("L", (), (2,)),
          IndexSet("L", (1, 2), ()), IndexSet("L", (1,), (2,))]
J_SETS = [IndexSet("J", (1,), ()), IndexSet("J", (), (2,)),
          IndexSet("J", (1, 2), ()), IndexSet("J", (1,), (2,))]


def sample_points(samples: int) -> List[ParamPoint]:
    """Hermite, then the first samples points of each pool."""
    pts = [ParamPoint("H")]
    pts += [ParamPoint("L", g=g) for g in L_POOL[:samples]]
    pts += [ParamPoint("J", g=g, h=h) for g, h in J_POOL[:samples]]
    return pts


def deformed_cases(samples: int) -> List[Case]:
    """The L and J sample points, each with every index set of its family."""
    return [(pp, D) for pp in sample_points(samples)[1:]
            for D in (L_SETS if pp.family == "L" else J_SETS)]


def set_label(pp: ParamPoint, D: IndexSet) -> str:
    """Check-row label of a point and an index set: J,1I,2II,g=7/3,h=9/4."""
    family, *params = str(pp).split(" ")
    return ",".join([family, D.label(), *params])


# what the construction raises at a degenerate case
DEGENERATE = (GenericityViolation, DegenerateLeading, NotPolynomial,
              DenominatorEscape)


def _row(name: str, detail: str, build: Callable[[], Check]) -> Check:
    """build()'s row; a case that raises one of DEGENERATE fails the row,
    named, with the exception as its witness."""
    try:
        return build()
    except DEGENERATE as exc:
        return Check(name, False, f"{detail}; {type(exc).__name__}: {exc}")


# -- the determinant identities ----------------------------------------------


def _random_poly(rng: random.Random, max_degree: int,
                 nonzero: bool = False) -> Poly:
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
              for _ in range(rng.randint(0, max_degree) + 1)]
    p = Poly(coeffs)
    if nonzero and p.is_zero():
        p = p + Poly.one()
    return p


def wronskian_identities_check(seed: int = 0, trials: int = 12) -> Report:
    """Exercise the four determinant identities on random polynomials.

    Per trial: up to four columns of degree <= 5.  Returns one check row
    per identity; everything is exact, so ok is a genuine identity
    check, not a tolerance.  Each trial gives (expected, actual).
    """
    rng = random.Random(seed)

    def common_factor():
        # W[g f_1, ..., g f_n] = g^n W[f_1, ..., f_n]
        n = rng.randint(1, 4)
        fs = [_random_poly(rng, 5) for _ in range(n)]
        g = _random_poly(rng, 5, nonzero=True)
        return g ** n * poly_wronskian(fs), poly_wronskian([g * f for f in fs])

    def nested_pair():
        # W[ W[f..., g], W[f..., h] ] = W[f...] W[f..., g, h]
        n = rng.randint(0, 3)
        fs = [_random_poly(rng, 5) for _ in range(n)]
        g = _random_poly(rng, 5)
        h = _random_poly(rng, 5)
        lhs = poly_wronskian([poly_wronskian(fs + [g]),
                              poly_wronskian(fs + [h])])
        return poly_wronskian(fs) * poly_wronskian(fs + [g, h]), lhs

    def variable_change():
        # under eta = x^2 the Wronskian picks up (d eta/dx)^(n(n-1)/2)
        n = rng.randint(1, 4)
        fs = [_random_poly(rng, 5) for _ in range(n)]
        square = Poly([0, 0, 1])
        lhs = poly_wronskian([f.compose(square) for f in fs])
        rhs = Poly([0, 2]) ** (n * (n - 1) // 2) \
            * poly_wronskian(fs).compose(square)
        return rhs, lhs

    def cofactor_minors():
        # the Wronskian of the n omit-one-column minors collapses to a
        # power of the full Wronskian (up to the triangular sign)
        n = rng.randint(2, 4)
        fs = [_random_poly(rng, 5) for _ in range(n)]
        minors = [poly_wronskian(fs[:j] + fs[j + 1:]) for j in range(n)]
        sign = (-1) ** (n * (n - 1) // 2)
        return sign * poly_wronskian(fs) ** (n - 1), poly_wronskian(minors)

    return [agree(trial.__name__, f"{trials} seeded instances",
                  ((f"instance {i}", *trial()) for i in range(trials)))
            for trial in (common_factor, nested_pair, variable_change,
                          cofactor_minors)]


# -- the suites over points and index sets -----------------------------------


def families(points: Sequence[ParamPoint], nmax: int) -> Report:
    report: Report = []
    for pp in points:
        P = functools.partial(classical_poly, pp)
        trr, deriv = [], []
        for n in range(nmax + 1):
            A, B, C = recurrence_abc(pp, n)
            trr.append((f"eta P_{n}", ETA * P(n),
                        A * P(n + 1) + B * P(n) + C * P(n - 1)))
            want = {n - k: cnk(pp, n, k) for k in range(1, n + 1)
                    if cnk(pp, n, k) != 0}
            deriv.append((f"P_{n}'", want,
                          expand_in_classical(pp, differentiate(P(n)))))
        report.append(agree(f"three_term[{pp}]", f"n <= {nmax}", trr))
        report.append(agree(f"derivative_expansion[{pp}]", f"n <= {nmax}",
                            deriv))
    return report


def construction_cases(pp: ParamPoint, D: IndexSet, nmax: int) -> list:
    """(where, expected, actual) of the degrees and leading coefficients
    of Xi and of each P_(D,n), n <= nmax, then of the lowest member as
    Xi at the shifted point."""
    xi = xi_poly(pp, D)
    cases = [("deg Xi", D.ell, xi.degree),
             ("lc Xi", xi_leading(pp, D), xi.lc())]
    for n in range(nmax + 1):
        p = mi_poly(pp, D, n)
        cases += [(f"deg P_(D,{n})", D.ell + n, p.degree),
                  (f"lc P_(D,{n})", p_leading(pp, D, n), p.lc())]
    cases.append(("P_(D,0)", plusdelta_constant(pp, D)
                  * xi_poly(delta_shift(pp), D), mi_poly(pp, D, 0)))
    return cases


def mindexed(cases: Sequence[Case], nmax: int) -> Report:
    report: Report = []
    detail = f"degrees, leadings, lowest member; n <= {nmax}"
    for pp, D in cases:
        name = f"construction[{set_label(pp, D)}]"
        report.append(_row(name, detail, lambda: agree(
            name, detail, construction_cases(pp, D, nmax))))
    return report


def _polynomial(f: RatFunc):
    """f as a polynomial; a rational f yields its failure text."""
    try:
        return f.as_poly()
    except ValueError as exc:
        return f"ValueError: {exc}"


def intertwining_cases(pp: ParamPoint, D: IndexSet, nmax: int) -> list:
    """(where, expected, actual) of Fhat, Bhat, both compositions, H and
    Bhat's Wronskian form on each P_n or P_(D,n), n <= nmax, then of the
    Wronskian form on a probe."""
    fhat, bhat, H = forward_op(pp, D), backward_op(pp, D), htilde_op(pp, D)
    bf, fb = bhat.compose(fhat), fhat.compose(bhat)
    cases = []
    for n in range(nmax + 1):
        Pn, PDn, pi = classical_poly(pp, n), mi_poly(pp, D, n), \
            pi_factor(pp, D, n)
        cases += [
            (f"Fhat P_{n}", PDn, _polynomial(fhat.apply(Pn))),
            (f"Bhat P_(D,{n})", pi * Pn, _polynomial(bhat.apply(PDn))),
            (f"Bhat Fhat P_{n}", pi * Pn, _polynomial(bf.apply(Pn))),
            (f"Fhat Bhat P_(D,{n})", pi * PDn, _polynomial(fb.apply(PDn))),
            (f"H P_(D,{n})", energy(pp, n) * PDn, _polynomial(H.apply(PDn))),
            (f"Bhat P_(D,{n}) by Wronskian", pi * Pn,
             _polynomial(backward_apply_via_wronskian(pp, D, PDn)))]
    probe = Poly([3, -2, 1])
    cases.append((f"Bhat {probe!r} by Wronskian", bhat.apply(probe),
                   backward_apply_via_wronskian(pp, D, probe)))
    return cases


def ladder_cases(pp: ParamPoint, D: IndexSet, nmax: int) -> list:
    """(where, expected, actual) of the single-step chain between
    P_(D,n)(lambda) and P_(D,n-1)(lambda+delta), 1 <= n <= nmax."""
    down, up = single_step_forward(pp, D), single_step_backward(pp, D)
    pp_up = delta_shift(pp)
    cases = []
    for n in range(1, nmax + 1):
        f_n, b_prev = forward_step_eigen(pp, n), backward_step_eigen(pp, n - 1)
        PDn, below = mi_poly(pp, D, n), mi_poly(pp_up, D, n - 1)
        cases += [
            (f"F_D P_(D,{n})", f_n * below, _polynomial(down.apply(PDn))),
            (f"B_D P_(D,{n - 1})(lambda+delta)", b_prev * PDn,
             _polynomial(up.apply(below))),
            (f"f_{n} b_{n - 1}", energy(pp, n), f_n * b_prev)]
    return cases


def diffop(cases: Sequence[Case], nmax: int) -> Report:
    report: Report = []
    for pp, D in cases:
        label = set_label(pp, D)
        for name, detail, rows in (
                (f"intertwining[{label}]",
                 f"forward/backward/compositions/eigen/Wronskian; "
                 f"n <= {nmax}", intertwining_cases),
                (f"ladder[{label}]", f"{pp}, {D.label()}; F_D, B_D and "
                 f"f_n b_(n-1) = E_n for 1 <= n <= {nmax}", ladder_cases)):
            report.append(_row(name, detail, lambda: agree(
                name, detail, rows(pp, D, nmax))))
    return report


def recurrence(cases: Sequence[Case], ys: Sequence[Poly], nmax: int) -> Report:
    report: Report = []
    for pp, D in cases:
        for Y in ys:
            L = recurrence_order(D, Y)
            name = f"routes[{set_label(pp, D)},degY={Y.degree}]"
            detail = (f"three routes agree, in the band |k| <= {L}, "
                      f"for n <= {nmax}")
            report.append(_row(name, detail, lambda: route_agreement(
                name, detail, routes(pp, D, x_from_y(pp, D, Y)), nmax,
                band=L)[1]))
    return report


# -- the shift calculus and the index-shift actions --------------------------


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


def shiftalg(points: Sequence[ParamPoint], nmax: int, seed: int,
             trials: int) -> Report:
    report = star_identities_check(seed=seed, trials=trials)
    for pp in points:
        report += commutator_check(pp, nmax)
        report += power_formulas_check(pp, nmax)
    return report


def cross_term_cases(pp: ParamPoint, nmax: int):
    """(b(n,k), 0, value) cases for 1 <= k <= n <= nmax."""
    return ((f"b({n},{k})", 0, bnk_value(pp, n, k))
            for n in range(1, nmax + 1) for k in range(1, n + 1))


def bnk(points: Sequence[ParamPoint], nmax: int) -> Report:
    return [agree(f"cross_terms[{pp}]",
                  f"b(n,k) = 0 for 1 <= k <= n <= {nmax}",
                  cross_term_cases(pp, nmax))
            for pp in points]


# each suite over verify's flags (samples, nmax, seed); the operator
# suites stop at n = 5, and the costlier ones take fewer points
SUITES: Dict[str, Callable[[int, int, int], Report]] = {
    "wronskian": lambda s, n, seed: wronskian_identities_check(seed, 10 * s),
    "families": lambda s, n, seed: families(sample_points(s), n),
    "mindexed": lambda s, n, seed: mindexed(deformed_cases(s), min(n, 5)),
    "diffop": lambda s, n, seed: diffop(deformed_cases(s), min(n, 5)),
    "recurrence": lambda s, n, seed: recurrence(
        deformed_cases(min(s, 2)), (Poly.one(), ETA), min(n, 5)),
    "shiftalg": lambda s, n, seed: shiftalg(
        sample_points(min(s, 2)), n, seed, 2 * s),
    "bnk": lambda s, n, seed: bnk(sample_points(min(s, 3)), n),
}


def run(suite: str, samples: int, nmax: int, seed: int) -> Tuple[dict, Report]:
    """The named suite, or every suite for "all": pass and fail counts per
    suite, and every row with its suite's name in front.  A suite that
    raises is one failed row."""
    summary: dict = {}
    checks: Report = []
    for name in list(SUITES) if suite == "all" else [suite]:
        try:
            rows = SUITES[name](samples, nmax, seed)
        except Exception as exc:  # a crashed suite is a failed suite
            rows = [Check("crashed", False, f"{type(exc).__name__}: {exc}")]
        summary[name] = {"pass": sum(1 for row in rows if row.ok),
                         "fail": sum(1 for row in rows if not row.ok)}
        checks += [row._replace(name=f"{name}/{row.name}") for row in rows]
    return summary, checks
