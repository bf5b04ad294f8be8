"""Command-line interface.

Three subcommands.  ``construct`` builds the denominator polynomial and
the first members of a deformed family at an exact rational parameter
point, with genericity diagnostics.  ``recurrence`` builds X once, from
``--y`` or as the parsed ``--raw-X``, sets L = deg X, checks genericity
through n = nmax + L, derives the 1 + 2L-term constant-coefficient
relation by the routes of ``checks.routes`` (direct expansion,
conjugated operator, matrix realization; a raw X takes the first two)
in one loop, cross-checks them, and compares against the shipped
closed-form tables when the configuration matches one of the built-in
cases.  ``verify`` runs the seeded suites of the check registry,
``mipoly.verify``, which the acceptance tests run too; this module only
binds them to the flags.

Every document is ``{config, results, checks, version}``; rationals are
rendered "p/q" (plain "p" for integers), polynomials as ascending
coefficient arrays, and output is byte-identical across runs for a
fixed configuration -- randomness is seeded, nothing is timestamped.
Every check is a ``checks.Check`` row; a failing one names its first
witness (``checks.agree``).  Exit status: 0 when every check passes, 1
when a mathematical check fails, 2 when the configuration is unusable
or the ``--latex FILE`` fragment (formatting only, written before
stdout) cannot be written, and ``STDOUT_CLOSED`` (141) when stdout is
closed before the output is written whole; that run prints no
traceback.  ``--format text`` prints a terse summary.

The command line is one table of long flags per subcommand, matched
by ``_flag``: ``--flag value`` or ``--flag=value``, a value may start
with "-", a flag named in full beats any flag it is a prefix of, and
otherwise a unique prefix stands for its flag.  Any unusable command
line is a ``ConfigError`` (``mipoly: ...`` on stderr, exit 2, empty
stdout), also after ``-h``/``--help``, which otherwise prints the usage
text; so is a constant ``--raw-X`` (X' = 0, so Y = 0), as ``--y 0`` is.
Each subcommand imports the layers it runs: ``construct`` loads none of
``diffop``, ``recurrence`` or ``shiftalg``, and only ``verify`` loads
the registry.  A document holds a ``Poly`` wherever it prints a
polynomial (Xi, X, each construct member's P_(D,n)) and a
``Fraction`` for each recurrence coefficient r_(n,k): the JSON
encoder's default hook formats either when the writer reaches it, and
the LaTeX lines read the values themselves.  Every format, to stdout or
the ``--latex FILE`` handle, goes through one writer that writes once
``_BATCH`` characters have gathered, so no output is held whole.  The
golden tables are read with a plain ``open`` from the ``golden``
directory next to this module.

The ``mipoly`` console script, ``entry``, which ``python -m mipoly.cli``
runs too, freezes the collector once ``main()`` has returned, so
interpreter shutdown does not walk the objects that start-up and
imports made.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterable, Iterator, List, Optional, Tuple

from . import __version__
from .checks import Check, Report, agree, route_agreement, routes
from .exact import ParamPoint, Poly, rat_str
from .families import GenericityViolation
from .gauged import NotPolynomial
from .mindexed import (
    DegenerateLeading,
    IndexSet,
    check_genericity,
    mi_poly,
    p_leading,
    pi_factor,
    xi_leading,
    xi_poly,
)

class ConfigError(ValueError):
    """The command line could not be turned into a valid configuration."""


# -- shared plumbing ---------------------------------------------------------


def _parse_rat(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None
    except ZeroDivisionError:
        raise ConfigError(f"{flag}: zero denominator in {text!r}") from None


def _parse_poly(text: str, flag: str) -> Poly:
    p = Poly([_parse_rat(c.strip(), flag) for c in text.split(",")])
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


def _document(args, results: dict, checks: Report) -> Tuple[dict, int]:
    """The output document and the exit status its checks imply."""
    config = {k: v for k, v in vars(args).items() if k != "latex"}
    rows = [{"name": c.name, "status": "pass" if c.ok else "fail",
             "detail": c.detail} for c in checks]
    doc = {"config": config, "results": results, "checks": rows,
           "version": __version__}
    return doc, 0 if all(c.ok for c in checks) else 1


def _load_golden(name: str) -> dict:
    # the package data is installed unpacked next to this module; a plain
    # open spares each golden run the imports behind importlib.resources
    path = os.path.join(os.path.dirname(__file__), "golden", f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- construct ---------------------------------------------------------------


def cmd_construct(args) -> Tuple[dict, int]:
    pp, D = _parse_point_and_set(args)
    checks: Report = []
    results: dict = {"ell": D.ell, "indices": D.label()}
    try:
        xi = xi_poly(pp, D, check_leading=False)
        results["xi"] = xi
        results["xi_leading"] = rat_str(xi_leading(pp, D))
        degrees = [("deg Xi", D.ell, xi.degree)]
        members = []
        for n in range(args.nmax + 1):
            p = mi_poly(pp, D, n, check_leading=False)
            members.append({
                "n": n, "coeffs": p,
                "predicted_leading": rat_str(p_leading(pp, D, n)),
                "pi": rat_str(pi_factor(pp, D, n))})
            degrees.append((f"deg P_(D,{n})", D.ell + n, p.degree))
        results["members"] = members
        checks.append(agree(
            "expected_degrees",
            f"deg Xi = {D.ell} and deg P_n = {D.ell} + n through n = {args.nmax}",
            degrees))
        check_genericity(pp, D, args.nmax)
        checks.append(Check(
            "genericity", True,
            f"pi(n) and leading coefficients nonzero through n = {args.nmax}"))
    except GenericityViolation as exc:
        # the construction itself can die at non-generic parameters too
        checks.append(Check("genericity", False, str(exc)))

    if pp.family == "L" and D == IndexSet("L", (1,), (2,)):
        golden = _load_golden("degenerate_quartics")
        want = golden["xi"].get(rat_str(pp.g))
        if want is not None:
            got = results["xi"].to_strings() if "xi" in results else None
            checks.append(agree(
                "degenerate_factorization",
                f"known factorization at g = {rat_str(pp.g)}",
                [("Xi", want, got)]))

    return _document(args, results, checks)


# -- recurrence --------------------------------------------------------------


def _matching_golden(pp: ParamPoint, D: IndexSet, Y: Poly) -> Optional[dict]:
    """The closed-form table of the run's family, if the run is its case."""
    gold = _load_golden({"L": "laguerre_single_seed",
                         "J": "jacobi_single_seed"}[pp.family])
    if (gold["indices"] != D.label() or Fraction(gold["g"]) != pp.g
            or (gold["h"] is not None and Fraction(gold["h"]) != pp.h)
            or gold["y"] != Y.to_strings()):
        return None
    return gold


def cmd_recurrence(args) -> Tuple[dict, int]:
    # the operator layers load here, so that construct never pays for them
    from .recurrence import theta_op, x_from_y
    pp, D = _parse_point_and_set(args)
    raw = args.raw_x is not None
    checks: Report = []
    results: dict = {"indices": D.label()}
    try:
        if raw:
            X = results["x"] = _parse_poly(args.raw_x, "--raw-X")
            if X.degree < 1:
                # X' = 0 is Y = 0, which --y refuses too
                raise ConfigError("--raw-X: a constant X is not usable here")
            try:
                theta_op(pp, D, X)
            except NotPolynomial as exc:
                checks.append(Check("x_admissible", False,
                                    f"NotPolynomial: {exc}"))
                return _document(args, results, checks)
            checks.append(Check("x_admissible", True,
                                "conjugated operator is polynomial"))
        else:
            Y = _parse_poly(args.y, "--y")
            X = results["x"] = x_from_y(pp, D, Y)
        L = results["order"] = X.degree
        check_genericity(pp, D, args.nmax + L)
        # a raw X goes to the direct and operator routes only
        named = routes(pp, D, X)[:2 if raw else 3]
        *names, last = [name for name, _ in named]
        rows, agreement = route_agreement(
            "route_agreement", f"{', '.join(names)} and {last} routes for "
            f"n <= {args.nmax}", named, args.nmax)
    except (GenericityViolation, DegenerateLeading) as exc:
        checks.append(Check("genericity", False, str(exc)))
        return _document(args, results, checks)
    results["rows"] = [
        {"n": n, "coeffs": [[k, v] for k, v in sorted(row.items())]}
        for n, row in enumerate(rows)]
    checks.append(agreement)

    gold = None if raw else _matching_golden(pp, D, Y)
    if gold is not None:
        upto = min(args.nmax, max(r["n"] for r in gold["rows"]))
        golden = agree("golden", f"closed-form table rows n <= {upto}",
                       [(f"n={n}", gold["rows"][n]["coeffs"],
                         [[k, rat_str(v)]
                          for k, v in results["rows"][n]["coeffs"]])
                        for n in range(upto + 1)])
        results["golden"] = "pass" if golden.ok else "fail"
        checks.append(golden)

    return _document(args, results, checks)


# -- verify ------------------------------------------------------------------


def cmd_verify(args) -> Tuple[dict, int]:
    # the check registry, and the operator layers behind it, load here, so
    # that construct and recurrence never pay for them
    from .verify import run
    summary, checks = run(args.suite, args.samples, args.nmax, args.seed)
    return _document(args, {"suites": summary}, checks)


# -- rendering ---------------------------------------------------------------


def _latex_rat(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    sign = "-" if x < 0 else ""
    return f"{sign}\\tfrac{{{abs(x.numerator)}}}{{{x.denominator}}}"


def _latex_poly(p: Poly, var: str = "\\eta") -> str:
    out = ""
    for k, c in reversed(list(enumerate(p.coeffs))):
        if c == 0:
            continue
        mag = "" if k and abs(c) == 1 else _latex_rat(abs(c))
        power = "" if k == 0 else var if k == 1 else f"{var}^{{{k}}}"
        if out:
            out += f" {'-' if c < 0 else '+'} {mag}{power}"
        else:
            out = f"{'-' if c < 0 else ''}{mag}{power}"
    return out or "0"


def _latex_render(doc: dict) -> Iterator[str]:
    """The lines of verify's suite table, or of the formulas a construct
    or recurrence run got to, then one "% FAIL" comment per failing
    check."""
    cfg, res = doc["config"], doc["results"]
    yield f"% mipoly {cfg['command']} v{doc['version']}"
    if cfg["command"] == "verify":
        yield "\\begin{tabular}{lrr}"
        yield "suite & pass & fail \\\\"
        for name, counts in res["suites"].items():
            yield f"{name} & {counts['pass']} & {counts['fail']} \\\\"
        yield "\\end{tabular}"
        return
    if cfg["command"] == "construct" and "xi" in res:
        yield "\\begin{align*}"
        yield f"  \\Xi(\\eta) &= {_latex_poly(res['xi'])} \\\\"
        for row in res.get("members", ()):
            yield (f"  P_{{{row['n']}}}(\\eta) &= "
                   f"{_latex_poly(row['coeffs'])} \\\\")
        yield "\\end{align*}"
    elif cfg["command"] == "recurrence" and "rows" in res:
        yield "\\begin{align*}"
        if "x" in res:
            yield f"  X(\\eta) &= {_latex_poly(res['x'])} \\\\"
        for row in res["rows"]:
            body = ", \\quad ".join(
                f"r_{{{row['n']},{k}}} = {_latex_rat(v)}"
                for k, v in row["coeffs"])
            yield f"  & {body} \\\\"
        yield "\\end{align*}"
    for check in doc["checks"]:
        if check["status"] == "fail":
            yield f"% FAIL {check['name']} -- {check['detail']}"


def _text_render(doc: dict) -> Iterator[str]:
    yield f"mipoly {doc['config']['command']} v{doc['version']}"
    for check in doc["checks"]:
        yield (f"{check['status'].upper():4} {check['name']}"
               f" -- {check['detail']}")


def _formatted(x):
    """The encoder's default hook: a polynomial's coefficient strings or
    a rational's "p/q", built when the writer reaches it and dropped once
    written."""
    if isinstance(x, Poly):
        return x.to_strings()
    if isinstance(x, Fraction):
        return rat_str(x)
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _pieces(doc: dict, fmt: str) -> Iterator[str]:
    """doc in fmt, piece by piece: json.dumps(doc, indent=2,
    sort_keys=True) + "\\n" a token at a time, or the lines of text or
    LaTeX."""
    if fmt == "json":
        encoder = json.JSONEncoder(indent=2, sort_keys=True,
                                   default=_formatted)
        return itertools.chain(encoder.iterencode(doc), ["\n"])
    render = _text_render if fmt == "text" else _latex_render
    return (line + "\n" for line in render(doc))


# characters gathered per write: no output is held whole, and one write
# per piece would be one system call per piece on an unbuffered stdout
# (PYTHONUNBUFFERED)
_BATCH = 4096


def _write(pieces: Iterable[str], out) -> None:
    """Write the pieces to out in order, once at least _BATCH characters
    have gathered, so no write exceeds _BATCH plus one piece."""
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _BATCH:
            out.write("".join(batch))
            batch, size = [], 0
    if batch:
        out.write("".join(batch))


def _emit(doc: dict, args) -> None:
    if args.latex:
        try:
            with open(args.latex, "w", encoding="utf-8") as fh:
                _write(_pieces(doc, "latex"), fh)
        except OSError as exc:
            raise ConfigError(f"--latex: {exc}") from None
    _write(_pieces(doc, args.format), sys.stdout)


# -- entry points ------------------------------------------------------------


# (flag, default) per subcommand; the attribute is the flag in lower case
# with "_" for "-", and an int default makes the flag a count
_COMMON = (("nmax", 8), ("samples", 5), ("seed", 0), ("format", "json"),
           ("latex", None))
_FAMILY = (("family", None), ("g", None), ("h", None), ("indices", ""))
_COMMANDS = {
    "construct": (cmd_construct, _FAMILY + _COMMON),
    "recurrence": (cmd_recurrence,
                   _FAMILY + (("y", "1"), ("raw-X", None)) + _COMMON),
    "verify": (cmd_verify, (("suite", "all"),) + _COMMON),
}
# the suites of verify.SUITES, named here so that reading a command line
# loads no suite
_SUITE_NAMES = ("wronskian", "families", "mindexed", "diffop", "recurrence",
                "shiftalg", "bnk")
_CHOICES = {"family": ("L", "J"), "format": ("json", "text", "latex"),
            "suite": (*_SUITE_NAMES, "all")}
# smaller counts would make every check pass vacuously
_LEAST = {"nmax": 0, "samples": 1}

_USAGE = """\
usage: mipoly {construct,recurrence,verify} [options]   (exact arithmetic)
  construct   --family L|J --g p/q [--h p/q] [--indices 1I,2II]
              denominator polynomial and first members
  recurrence  --family L|J --g p/q [--h p/q] [--indices 1I,2II]
              [--y c0,c1,... (seed polynomial Y, default 1)]
              [--raw-X c0,c1,... (bypass Y and test this X)]
              constant-coefficient relation by three routes
  verify      [--suite wronskian|families|mindexed|diffop|recurrence|
              shiftalg|bnk|all (default)]  the seeded identity suites
every subcommand also takes [--nmax N (largest member index, default 8)]
  [--samples N (parameter samples per suite, default 5)]
  [--seed N (seed of the randomized checks, default 0)]
  [--format json|text|latex] [--latex FILE (also write a LaTeX fragment)]
Write --flag value or --flag=value, negative values too; a unique prefix
stands for its flag (--nm 4 is --nmax 4).  Lists are comma-separated;
an empty --indices is the classical family."""


def _flag(name: str, table) -> str:
    """The flag that --name stands for: itself, else its unique extension."""
    if name in table:
        return name
    hits = [flag for flag in table if flag.startswith(name)]
    if len(hits) != 1:
        raise ConfigError(f"option --{name} " + (
            "not a unique prefix" if hits else "not recognized"))
    return hits[0]


def _parse_args(argv: List[str]) -> Optional[SimpleNamespace]:
    """The subcommand and its flags as attributes; None asks for help."""
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    table = dict(_COMMANDS[command][1]) if command else {}
    given, words = {}, iter(argv[1:] if command else argv)
    # a help request still reads the whole line, so a malformed word after
    # it is an error, but the values after it are not checked
    helped = False
    for word in words:
        if word == "-h":
            helped = True
            continue
        if not word.startswith("--"):
            if command is None:
                break
            raise ConfigError(f"unexpected argument {word!r}")
        name, eq, value = word[2:].partition("=")
        flag = _flag(name, [*table, "help"])
        if flag == "help":
            if eq:
                raise ConfigError("option --help must not have an argument")
            helped = True
            continue
        # "--g -1/2": the word after a flag is its value, whatever it is
        value = value if eq else next(words, None)
        if value is None:
            raise ConfigError(f"option --{flag} requires argument")
        if helped:
            continue
        if isinstance(table[flag], int):
            try:
                value = int(value)
            except ValueError:
                raise ConfigError(f"--{flag}: not an integer: {value!r}") \
                    from None
            if value < _LEAST.get(flag, value):
                raise ConfigError(
                    f"--{flag} must be >= {_LEAST[flag]}, got {value}")
        elif value not in _CHOICES.get(flag, (value,)):
            raise ConfigError(f"--{flag}: {value!r} is not one of "
                              f"{', '.join(_CHOICES[flag])}")
        given[flag] = value
    if helped:
        return None
    if command is None:
        raise ConfigError("expected a subcommand: construct, recurrence "
                          "or verify (see mipoly --help)")
    values = {**table, **given}
    if values.get("family", "") is None:
        raise ConfigError("--family is required (L or J)")
    if {"y", "raw-X"} <= given.keys():
        raise ConfigError("--y and --raw-X cannot be combined")
    # verify's cross-term checks have no case at nmax 0
    if command == "verify" and values["nmax"] < 1:
        raise ConfigError(
            f"--nmax must be >= 1 for verify, got {values['nmax']}")
    return SimpleNamespace(command=command, **{
        flag.replace("-", "_").lower(): v for flag, v in values.items()})


# exit status when stdout is closed before the output is written whole:
# the shell's status for a writer whose reader left (128 + SIGPIPE)
STDOUT_CLOSED = 141


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            print(_USAGE)
            code = 0
        else:
            doc, code = _COMMANDS[args.command][0](args)
            _emit(doc, args)
        sys.stdout.flush()
    except ConfigError as exc:
        print(f"mipoly: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # what is still buffered goes to devnull at exit, so the
        # interpreter's final flush does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return STDOUT_CLOSED
    return code


def entry() -> None:
    """The ``mipoly`` console script: run ``main()`` and exit with its code.

    Stdout is flushed and the code fixed by then, so the collector is
    frozen first: every object alive moves to the permanent generation,
    which no collection examines, the ones at interpreter shutdown
    included.  ``main()`` alone leaves the collector as it was.
    """
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
