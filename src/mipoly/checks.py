"""Named checks: one row type, and ``agree``, which runs every (where,
expected, actual) case and names the failure count and first witness:
rationals as "p/q", polynomials by ``repr``, the zero polynomial's
degree as "none".  A row with no cases fails: it would check nothing.

``routes`` names the direct, operator and matrix routes of one X, and
``route_agreement`` is the row in which routes agree; ``recurrence``
and ``verify`` share both, and both import the operator layers only
when called, so ``construct`` never loads them.
"""

import functools
from fractions import Fraction
from typing import Any, Iterable, List, NamedTuple, Optional

from .exact import NEG_INF, rat_str


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


Report = List[Check]


def show(x: Any) -> str:
    if isinstance(x, Fraction):
        return rat_str(x)
    if isinstance(x, float) and x == NEG_INF:
        return "none (the zero polynomial)"
    if isinstance(x, dict):
        items = sorted(x.items())
        return "{" + ", ".join(f"{k}: {show(v)}" for k, v in items) + "}"
    return str(x)


def agree(name: str, detail: str, cases: Iterable[tuple]) -> Check:
    cases = list(cases)
    if not cases:
        return Check(name, False, f"{detail}; no cases checked")
    failed = [case for case in cases if case[1] != case[2]]
    if not failed:
        return Check(name, True, detail)
    where, expected, actual = failed[0]
    return Check(name, False,
                 f"{detail}; {len(failed)} of {len(cases)} cases fail, first "
                 f"at {where}: expected {show(expected)}, got {show(actual)}")


def routes(pp, D, X) -> List[tuple]:
    """(name, row of n) for the direct, operator and matrix routes of X."""
    from .recurrence import recurrence_direct, recurrence_via_theta
    from .shiftalg import recurrence_bispectral
    return [("direct", functools.partial(recurrence_direct, pp, D, X)),
            ("operator", functools.partial(recurrence_via_theta, pp, D, X)),
            ("matrix", functools.partial(recurrence_bispectral, pp, D, X))]


def route_agreement(name: str, detail: str, routes: List[tuple], nmax: int,
                    band: Optional[int] = None):
    """Rows of the first route for n <= nmax, and their agreement check.

    A later route that finds no polynomial Theta, or no normal form for
    it, yields its failure message as its row, the check's witness.  A
    residue in the first route's expansion ends the rows at that n, and
    the check fails naming the route, n and the residue.  With band L,
    each first-route row's nonzero k also run up to exactly L, and down
    to exactly -L once n >= L.
    """
    from .gauged import NotPolynomial
    from .recurrence import NonzeroRemainder
    from .shiftalg import DecompositionFailure
    (first_route, first), *others = routes
    rows, cases = [], []
    for n in range(nmax + 1):
        try:
            row = first(n)
        except NonzeroRemainder as exc:
            return rows, Check(name, False, f"{detail}; fails at n={n}, "
                               f"{first_route} route: NonzeroRemainder: {exc}")
        rows.append(row)
        for route, at in others:
            try:
                other = at(n)
            except (DecompositionFailure, NotPolynomial) as exc:
                other = f"{type(exc).__name__}: {exc}"
            cases.append((f"n={n}, {route} route", row, other))
        if band is not None:
            ks = [k for k, v in row.items() if v != 0]
            cases.append((f"n={n}, highest k", band, max(ks, default=None)))
            if n >= band:
                cases.append((f"n={n}, lowest k", -band,
                              min(ks, default=None)))
    return rows, agree(name, detail, cases)
