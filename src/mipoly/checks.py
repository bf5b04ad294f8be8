"""Named checks: one row type, and ``agree``, which runs every (where,
expected, actual) case and names the failure count and first witness:
rationals as "p/q", polynomials by ``repr``, the zero polynomial's
degree as "none".  A row with no cases fails: it would check nothing."""

from fractions import Fraction
from typing import Any, Iterable, List, NamedTuple

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
