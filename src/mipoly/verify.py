"""The registry of named checks: the seven suites that ``verify`` runs.

Each suite takes explicit inputs (points or (point, index set) cases,
nmax, seed polynomials Y, seed, trials) and returns ``checks.Check``
rows.  ``SUITES`` binds each to ``verify``'s flags; the acceptance
battery runs ``recurrence``, ``diffop`` and ``mindexed`` over its own
index sets at n <= 8.  ``diffop``'s ``ladder`` row is the single-step
Darboux-Crum chain, which shares no code with the M-step Fhat and Bhat
of its ``intertwining`` row.  The pools are kept generic: g and h off
the half-integers (those zero a leading coefficient for some seed) and,
for Jacobi, g - h off the integers so the twisted three-term
recurrences stay defined.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from .checks import Check, Report, agree, route_agreement, y_routes
from .diffop import (backward_apply_via_wronskian, backward_op,
                     backward_step_eigen, forward_op, forward_step_eigen,
                     htilde_op, single_step_backward, single_step_forward)
from .exact import ETA, ParamPoint, Poly, RatFunc, differentiate
from .families import (classical_poly, cnk, delta_shift, energy,
                       expand_in_classical, recurrence_abc)
from .gauged import wronskian_identities_check
from .mindexed import (IndexSet, mi_poly, p_leading, pi_factor,
                       plusdelta_constant, xi_leading, xi_poly)
from .recurrence import recurrence_order
from .shiftalg import (commutator_check, cross_term_cases,
                       power_formulas_check, star_identities_check)

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


def mindexed(cases: Sequence[Case], nmax: int) -> Report:
    report: Report = []
    for pp, D in cases:
        xi = xi_poly(pp, D)
        checked = [("deg Xi", D.ell, xi.degree),
                   ("lc Xi", xi_leading(pp, D), xi.lc())]
        for n in range(nmax + 1):
            p = mi_poly(pp, D, n)
            checked += [(f"deg P_(D,{n})", D.ell + n, p.degree),
                        (f"lc P_(D,{n})", p_leading(pp, D, n), p.lc())]
        checked.append(("P_(D,0)", plusdelta_constant(pp, D)
                        * xi_poly(delta_shift(pp), D), mi_poly(pp, D, 0)))
        report.append(agree(f"construction[{set_label(pp, D)}]",
                            f"degrees, leadings, lowest member; n <= {nmax}",
                            checked))
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
        report.append(agree(
            f"intertwining[{label}]",
            f"forward/backward/compositions/eigen/Wronskian; n <= {nmax}",
            intertwining_cases(pp, D, nmax)))
        report.append(agree(
            f"ladder[{label}]", f"{pp}, {D.label()}; F_D, B_D and "
            f"f_n b_(n-1) = E_n for 1 <= n <= {nmax}",
            ladder_cases(pp, D, nmax)))
    return report


def recurrence(cases: Sequence[Case], ys: Sequence[Poly], nmax: int) -> Report:
    report: Report = []
    for pp, D in cases:
        for Y in ys:
            L = recurrence_order(D, Y)
            report.append(route_agreement(
                f"routes[{set_label(pp, D)},degY={Y.degree}]",
                f"three routes agree, in the band |k| <= {L}, "
                f"for n <= {nmax}",
                y_routes(pp, D, Y), nmax, band=L)[1])
    return report


def shiftalg(points: Sequence[ParamPoint], nmax: int, seed: int,
             trials: int) -> Report:
    report = star_identities_check(seed=seed, trials=trials)
    for pp in points:
        report += commutator_check(pp, nmax)
        report += power_formulas_check(pp, nmax)
    return report


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
