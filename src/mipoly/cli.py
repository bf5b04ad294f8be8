"""Command-line interface.

Three subcommands.  ``construct`` builds the denominator polynomial and
the first members of a deformed family at an exact rational parameter
point, with genericity diagnostics.  ``recurrence`` derives the
1 + 2L-term constant-coefficient relation by the three independent
routes (direct expansion, conjugated operator, matrix realization),
cross-checks them, and compares against the shipped closed-form tables
when the configuration matches one of the built-in cases.  ``verify``
re-runs the seeded identity suites.

Every document is ``{config, results, checks, version}``; rationals are
rendered "p/q" (plain "p" for integers), polynomials as ascending
coefficient arrays, and output is byte-identical across runs for a
fixed configuration -- randomness is seeded, nothing is timestamped.
Exit status: 0 when every check passes, 1 when a mathematical check
fails, 2 when the configuration is unusable.  ``--format text`` prints
a terse summary instead of JSON; ``--latex FILE`` additionally writes
the main result as a LaTeX fragment (formatting only).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from importlib import resources
from typing import Dict, List, Optional, Tuple

from . import __version__
from .exact import ETA, ParamPoint, Poly, differentiate, rat_str
from .families import (
    GenericityViolation,
    classical_poly,
    cnk,
    delta_shift,
    energy,
    expand_in_classical,
    recurrence_abc,
)
from .gauged import NotPolynomial, wronskian_identities_check
from .mindexed import (
    DegenerateLeading,
    IndexSet,
    check_genericity,
    mi_poly,
    p_leading,
    pi_factor,
    plusdelta_constant,
    xi_leading,
    xi_poly,
)
from .diffop import backward_apply_via_wronskian, backward_op, forward_op, htilde_op
from .recurrence import (
    expand_in_deformed,
    recurrence_direct,
    recurrence_from_theta,
    recurrence_order,
    recurrence_via_theta,
    theta_from_x,
    x_from_y,
)
from .shiftalg import (
    bnk_value,
    commutator_check,
    power_formulas_check,
    recurrence_bispectral,
    star_identities_check,
)

Check = Dict[str, str]


class ConfigError(ValueError):
    """The command line could not be turned into a valid configuration."""


# -- shared plumbing ---------------------------------------------------------


def _parse_rat(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _parse_poly(text: str, flag: str) -> Poly:
    try:
        p = Poly([Fraction(c.strip()) for c in text.split(",")])
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{flag}: {exc}") from None
    if p.is_zero():
        raise ConfigError(f"{flag}: the zero polynomial is not usable here")
    return p


def _parse_point_and_set(args) -> Tuple[ParamPoint, IndexSet]:
    if args.family == "L" and args.h is not None:
        raise ConfigError("--h only applies to family J")
    if args.g is None:
        raise ConfigError("--g is required")
    if args.family == "J" and args.h is None:
        raise ConfigError("family J needs both --g and --h")
    g = _parse_rat(args.g, "--g")
    h = _parse_rat(args.h, "--h") if args.h is not None else None
    try:
        pp = ParamPoint(args.family, g=g, h=h)
        D = IndexSet.parse(args.family, args.indices)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return pp, D


def _check_counts(args) -> None:
    """Reject counts that would make every check pass vacuously."""
    if args.nmax < 0:
        raise ConfigError(f"--nmax must be >= 0, got {args.nmax}")
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")


def _check_row(name: str, ok: bool, detail: str) -> Check:
    return {"name": name, "status": "pass" if ok else "fail", "detail": detail}


def _all_pass(checks: List[Check]) -> bool:
    return all(c["status"] == "pass" for c in checks)


def _config_doc(args) -> dict:
    out = {"command": args.command, "format": args.format,
           "nmax": args.nmax, "samples": args.samples, "seed": args.seed}
    for key in ("family", "g", "h", "indices", "y", "raw_x", "suite"):
        if hasattr(args, key):
            out[key] = getattr(args, key)
    return out


def _document(args, results: dict, checks: List[Check]) -> dict:
    return {"config": _config_doc(args), "results": results,
            "checks": checks, "version": __version__}


def _load_golden(name: str) -> dict:
    path = resources.files("mipoly").joinpath(f"golden/{name}.json")
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _coeff_pairs(table: Dict[int, Fraction]) -> List[list]:
    return [[k, rat_str(v)] for k, v in sorted(table.items())]


# -- construct ---------------------------------------------------------------


def cmd_construct(args) -> Tuple[dict, int]:
    pp, D = _parse_point_and_set(args)
    checks: List[Check] = []
    results: dict = {"ell": D.ell, "indices": D.label()}
    try:
        xi = xi_poly(pp, D, check_leading=False)
        results["xi"] = xi.to_strings()
        results["xi_leading"] = rat_str(xi_leading(pp, D))
        degrees_ok = xi.degree == D.ell
        members = []
        for n in range(args.nmax + 1):
            p = mi_poly(pp, D, n, check_leading=False)
            members.append({
                "n": n,
                "coeffs": p.to_strings(),
                "predicted_leading": rat_str(p_leading(pp, D, n)),
                "pi": rat_str(pi_factor(pp, D, n)),
            })
            degrees_ok = degrees_ok and p.degree == D.ell + n
        results["members"] = members
        checks.append(_check_row(
            "expected_degrees", degrees_ok,
            f"deg Xi = {D.ell} and deg P_n = {D.ell} + n through n = {args.nmax}"))
        try:
            check_genericity(pp, D, args.nmax)
            checks.append(_check_row(
                "genericity", True,
                f"pi(n) and leading coefficients nonzero through n = {args.nmax}"))
        except GenericityViolation as exc:
            checks.append(_check_row("genericity", False, str(exc)))
    except GenericityViolation as exc:
        # construction itself can die at non-generic parameters
        checks.append(_check_row("genericity", False, str(exc)))

    if pp.family == "L" and D == IndexSet("L", (1,), (2,)):
        golden = _load_golden("degenerate_quartics")
        want = golden["xi"].get(rat_str(pp.g))
        if want is not None:
            checks.append(_check_row(
                "degenerate_factorization", results.get("xi") == want,
                f"known factorization at g = {rat_str(pp.g)}"))

    return _document(args, results, checks), 0 if _all_pass(checks) else 1


# -- recurrence --------------------------------------------------------------


def _matching_golden(pp: ParamPoint, D: IndexSet, Y: Poly) -> Optional[dict]:
    for name in ("laguerre_single_seed", "jacobi_single_seed"):
        gold = _load_golden(name)
        if gold["family"] != pp.family or gold["indices"] != D.label():
            continue
        if Fraction(gold["g"]) != pp.g:
            continue
        if gold["h"] is not None and Fraction(gold["h"]) != pp.h:
            continue
        if gold["y"] != Y.to_strings():
            continue
        return gold
    return None


def _row_doc(n: int, table: Dict[int, Fraction]) -> dict:
    return {"n": n, "coeffs": _coeff_pairs(table)}


def cmd_recurrence(args) -> Tuple[dict, int]:
    pp, D = _parse_point_and_set(args)
    checks: List[Check] = []
    results: dict = {"indices": D.label()}

    if args.raw_x is not None:
        X = _parse_poly(args.raw_x, "--raw-X")
        results["x"] = X.to_strings()
        try:
            theta = theta_from_x(pp, D, X)
        except NotPolynomial as exc:
            checks.append(_check_row(
                "x_admissible", False, f"NotPolynomial: {exc}"))
            return _document(args, results, checks), 1
        checks.append(_check_row(
            "x_admissible", True, "conjugated operator is polynomial"))
        results["order"] = X.degree
        try:
            rows = []
            agree = True
            for n in range(args.nmax + 1):
                direct = {m - n: c for m, c in
                          expand_in_deformed(pp, D,
                                             X * mi_poly(pp, D, n)).items()}
                via = recurrence_from_theta(pp, D, theta, n)
                agree = agree and direct == via
                rows.append(_row_doc(n, direct))
            results["rows"] = rows
            checks.append(_check_row(
                "route_agreement", agree,
                f"direct and operator routes for n <= {args.nmax}"))
        except (GenericityViolation, DegenerateLeading) as exc:
            checks.append(_check_row("genericity", False, str(exc)))
        return _document(args, results, checks), 0 if _all_pass(checks) else 1

    Y = _parse_poly(args.y, "--y")
    try:
        X = x_from_y(pp, D, Y)
        L = recurrence_order(D, Y)
        results["x"] = X.to_strings()
        results["order"] = L
        rows = []
        agree = True
        for n in range(args.nmax + 1):
            direct = recurrence_direct(pp, D, Y, n)
            via = recurrence_via_theta(pp, D, Y, n)
            matrix = recurrence_bispectral(pp, D, Y, n)
            agree = agree and direct == via == matrix
            rows.append(_row_doc(n, direct))
        results["rows"] = rows
        checks.append(_check_row(
            "route_agreement", agree,
            f"direct, operator and matrix routes for n <= {args.nmax}"))
    except (GenericityViolation, DegenerateLeading) as exc:
        checks.append(_check_row("genericity", False, str(exc)))
        return _document(args, results, checks), 1

    gold = _matching_golden(pp, D, Y)
    if gold is not None:
        upto = min(args.nmax, max(r["n"] for r in gold["rows"]))
        ok = all(rows[n]["coeffs"] == gold["rows"][n]["coeffs"]
                 for n in range(upto + 1))
        results["golden"] = "pass" if ok else "fail"
        checks.append(_check_row(
            "golden", ok, f"closed-form table rows n <= {upto}"))

    return _document(args, results, checks), 0 if _all_pass(checks) else 1


# -- verify ------------------------------------------------------------------

# parameter pools for the seeded suites: kept generic -- g and h off the
# half-integers (those zero a leading coefficient for some seed) and, for
# Jacobi, g - h off the integers so the twisted three-term recurrences
# stay defined
_L_POOL = [Fraction(7, 3), Fraction(5, 4), Fraction(9, 2),
           Fraction(12, 5), Fraction(3)]
_J_POOL = [(Fraction(7, 3), Fraction(9, 4)), (Fraction(8, 3), Fraction(7, 4)),
           (Fraction(13, 4), Fraction(10, 3)), (Fraction(16, 5), Fraction(9, 4)),
           (Fraction(18, 5), Fraction(4, 3))]

_L_SETS = [IndexSet("L", (1,), ()), IndexSet("L", (), (2,)),
           IndexSet("L", (1, 2), ()), IndexSet("L", (1,), (2,))]
_J_SETS = [IndexSet("J", (1,), ()), IndexSet("J", (), (2,)),
           IndexSet("J", (1, 2), ()), IndexSet("J", (1,), (2,))]

Report = List[Tuple[str, bool, str]]


def _sample_points(samples: int) -> List[ParamPoint]:
    pts = [ParamPoint("H")]
    pts += [ParamPoint("L", g=g) for g in _L_POOL[:samples]]
    pts += [ParamPoint("J", g=g, h=h) for g, h in _J_POOL[:samples]]
    return pts


def _deformed_cases(samples: int) -> List[Tuple[ParamPoint, IndexSet]]:
    cases = []
    for g in _L_POOL[:samples]:
        pp = ParamPoint("L", g=g)
        cases += [(pp, D) for D in _L_SETS]
    for g, h in _J_POOL[:samples]:
        pp = ParamPoint("J", g=g, h=h)
        cases += [(pp, D) for D in _J_SETS]
    return cases


def _point_label(pp: ParamPoint, sep: str = " ",
                 D: Optional[IndexSet] = None) -> str:
    """Check-row label of a point: L g=7/3, or J,1I,2II,g=7/3,h=9/4 with
    sep "," and an index set."""
    parts = [pp.family] + ([D.label()] if D is not None else [])
    parts += [f"{name}={rat_str(v)}" for name, v in (("g", pp.g), ("h", pp.h))
              if v is not None]
    return sep.join(parts)


def _suite_wronskian(args) -> Report:
    return wronskian_identities_check(seed=args.seed, trials=10 * args.samples)


def _suite_families(args) -> Report:
    report: Report = []
    for pp in _sample_points(args.samples):
        ok_trr = True
        ok_deriv = True
        for n in range(args.nmax + 1):
            A, B, C = recurrence_abc(pp, n)
            lhs = ETA * classical_poly(pp, n)
            rhs = (A * classical_poly(pp, n + 1) + B * classical_poly(pp, n)
                   + C * classical_poly(pp, n - 1))
            ok_trr = ok_trr and lhs == rhs
            dP = differentiate(classical_poly(pp, n))
            want = {n - k: cnk(pp, n, k) for k in range(1, n + 1)
                    if cnk(pp, n, k) != 0}
            ok_deriv = ok_deriv and expand_in_classical(pp, dP) == want
        label = _point_label(pp)
        report.append((f"three_term[{label}]", ok_trr, f"n <= {args.nmax}"))
        report.append((f"derivative_expansion[{label}]", ok_deriv,
                       f"n <= {args.nmax}"))
    return report


def _suite_mindexed(args) -> Report:
    report: Report = []
    nmax = min(args.nmax, 5)
    for pp, D in _deformed_cases(args.samples):
        ok = xi_poly(pp, D).degree == D.ell
        ok = ok and xi_poly(pp, D).lc() == xi_leading(pp, D)
        for n in range(nmax + 1):
            p = mi_poly(pp, D, n)
            ok = ok and p.degree == D.ell + n and p.lc() == p_leading(pp, D, n)
        ok = ok and mi_poly(pp, D, 0) == \
            plusdelta_constant(pp, D) * xi_poly(delta_shift(pp), D)
        report.append((f"construction[{_point_label(pp, ',', D)}]", ok,
                       f"degrees, leadings, lowest member; n <= {nmax}"))
    return report


def _suite_diffop(args) -> Report:
    report: Report = []
    nmax = min(args.nmax, 5)
    for pp, D in _deformed_cases(args.samples):
        fhat, bhat = forward_op(pp, D), backward_op(pp, D)
        H = htilde_op(pp, D)
        ok = True
        for n in range(nmax + 1):
            Pn, PDn = classical_poly(pp, n), mi_poly(pp, D, n)
            pi = pi_factor(pp, D, n)
            ok = ok and fhat.apply(Pn).as_poly() == PDn
            ok = ok and bhat.apply(PDn).as_poly() == pi * Pn
            ok = ok and H.apply(PDn).as_poly() == energy(pp, n) * PDn
        ok = ok and backward_apply_via_wronskian(pp, D, Poly([3, -2, 1])) \
            == bhat.apply(Poly([3, -2, 1]))
        report.append((f"intertwining[{_point_label(pp, ',', D)}]", ok,
                       f"forward/backward/eigen; n <= {nmax}"))
    return report


def _suite_recurrence(args) -> Report:
    report: Report = []
    nmax = min(args.nmax, 5)
    for pp, D in _deformed_cases(min(args.samples, 2)):
        for Y in (Poly.one(), ETA):
            ok = True
            for n in range(nmax + 1):
                direct = recurrence_direct(pp, D, Y, n)
                ok = ok and direct == recurrence_via_theta(pp, D, Y, n)
                ok = ok and direct == recurrence_bispectral(pp, D, Y, n)
            label = f"{_point_label(pp, ',', D)},degY={Y.degree}"
            report.append((f"routes[{label}]", ok,
                           f"three routes agree for n <= {nmax}"))
    return report


def _suite_shiftalg(args) -> Report:
    report: Report = list(star_identities_check(seed=args.seed,
                                                trials=2 * args.samples))
    for pp in _sample_points(min(args.samples, 2)):
        size = args.nmax + 6
        report += commutator_check(pp, size, nmax=args.nmax)
        report += power_formulas_check(pp, size)
    return report


def _suite_bnk(args) -> Report:
    report: Report = []
    for pp in _sample_points(min(args.samples, 3)):
        bad = [(n, k) for n in range(args.nmax + 1)
               for k in range(1, n + 1) if bnk_value(pp, n, k) != 0]
        report.append((f"cross_terms[{_point_label(pp)}]", not bad,
                       f"b(n,k) = 0 for 1 <= k <= n <= {args.nmax}"
                       + (f"; first violation {bad[0]}" if bad else "")))
    return report


_SUITES = {
    "wronskian": _suite_wronskian,
    "families": _suite_families,
    "mindexed": _suite_mindexed,
    "diffop": _suite_diffop,
    "recurrence": _suite_recurrence,
    "shiftalg": _suite_shiftalg,
    "bnk": _suite_bnk,
}


def cmd_verify(args) -> Tuple[dict, int]:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    checks: List[Check] = []
    summary: dict = {}
    for name in names:
        try:
            rows = _SUITES[name](args)
        except Exception as exc:  # a crashed suite is a failed suite
            rows = [("crashed", False, f"{type(exc).__name__}: {exc}")]
        summary[name] = {"pass": sum(1 for _, ok, _ in rows if ok),
                         "fail": sum(1 for _, ok, _ in rows if not ok)}
        checks += [_check_row(f"{name}/{row}", ok, detail)
                   for row, ok, detail in rows]
    results = {"suites": summary}
    return _document(args, results, checks), 0 if _all_pass(checks) else 1


# -- rendering ---------------------------------------------------------------


def _latex_rat(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    sign = "-" if x < 0 else ""
    return f"{sign}\\tfrac{{{abs(x.numerator)}}}{{{x.denominator}}}"


def _latex_poly(coeffs: List[str], var: str = "\\eta") -> str:
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[k])
        if c == 0:
            continue
        if k == 0:
            body = _latex_rat(abs(c))
        else:
            mag = "" if abs(c) == 1 else _latex_rat(abs(c))
            power = var if k == 1 else f"{var}^{{{k}}}"
            body = f"{mag}{power}"
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    head_sign, head = terms[0]
    out = ("-" if head_sign == "-" else "") + head
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


def _latex_render(doc: dict) -> str:
    cfg, res = doc["config"], doc["results"]
    lines = [f"% mipoly {cfg['command']} v{doc['version']}"]
    if cfg["command"] == "construct" and "xi" in res:
        lines.append("\\begin{align*}")
        lines.append(f"  \\Xi(\\eta) &= {_latex_poly(res['xi'])} \\\\")
        for row in res["members"]:
            lines.append(f"  P_{{{row['n']}}}(\\eta) &= "
                         f"{_latex_poly(row['coeffs'])} \\\\")
        lines.append("\\end{align*}")
    elif cfg["command"] == "recurrence" and "rows" in res:
        lines.append("\\begin{align*}")
        if "x" in res:
            lines.append(f"  X(\\eta) &= {_latex_poly(res['x'])} \\\\")
        for row in res["rows"]:
            body = ", \\quad ".join(
                f"r_{{{row['n']},{k}}} = {_latex_rat(Fraction(v))}"
                for k, v in row["coeffs"])
            lines.append(f"  & {body} \\\\")
        lines.append("\\end{align*}")
    else:
        lines.append("\\begin{tabular}{lrr}")
        lines.append("suite & pass & fail \\\\")
        for name, counts in res.get("suites", {}).items():
            lines.append(f"{name} & {counts['pass']} & {counts['fail']} \\\\")
        lines.append("\\end{tabular}")
    return "\n".join(lines)


def _text_render(doc: dict) -> str:
    lines = [f"mipoly {doc['config']['command']} v{doc['version']}"]
    for check in doc["checks"]:
        lines.append(f"{check['status'].upper():4} {check['name']}"
                     f" -- {check['detail']}")
    return "\n".join(lines)


def _emit(doc: dict, args) -> None:
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif args.format == "text":
        print(_text_render(doc))
    else:
        print(_latex_render(doc))
    if args.latex:
        with open(args.latex, "w", encoding="utf-8") as fh:
            fh.write(_latex_render(doc) + "\n")


# -- entry points ------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nmax", type=int, default=8,
                   help="largest member index n (default 8)")
    p.add_argument("--samples", type=int, default=5,
                   help="parameter samples per suite (default 5)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized checks (default 0)")
    p.add_argument("--format", choices=("json", "text", "latex"),
                   default="json")
    p.add_argument("--latex", metavar="FILE", default=None,
                   help="also write a LaTeX fragment to FILE")


def _add_family(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=("L", "J"), required=True)
    p.add_argument("--g", metavar="p/q", default=None)
    p.add_argument("--h", metavar="p/q", default=None)
    p.add_argument("--indices", default="",
                   help='index list like "1I,2II"; empty for the classical family')


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mipoly",
        description="multi-indexed orthogonal polynomials and their "
                    "recurrence relations, in exact arithmetic")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct",
                       help="denominator polynomial and first members")
    _add_family(c)
    _add_common(c)

    r = sub.add_parser("recurrence",
                       help="constant-coefficient relation by three routes")
    _add_family(r)
    r.add_argument("--y", default="1", metavar="c0,c1,...",
                   help="ascending coefficients of the seed polynomial Y")
    r.add_argument("--raw-X", dest="raw_x", default=None, metavar="c0,c1,...",
                   help="bypass Y and test this X directly")
    _add_common(r)

    v = sub.add_parser("verify", help="run the seeded identity suites")
    v.add_argument("--suite", choices=tuple(_SUITES) + ("all",),
                   default="all")
    _add_common(v)
    return parser


_COMMANDS = {
    "construct": cmd_construct,
    "recurrence": cmd_recurrence,
    "verify": cmd_verify,
}


_VALUE_FLAGS = {"--g", "--h", "--y", "--raw-X"}


def _glue_negative_values(argv: List[str]) -> List[str]:
    """Turn ["--g", "-1/2"] into ["--g=-1/2"] so argparse keeps the value."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) \
                and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_glue_negative_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_counts(args)
        doc, code = _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"mipoly: {exc}", file=sys.stderr)
        return 2
    _emit(doc, args)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main())
