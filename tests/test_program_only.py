"""``src/mipoly`` holds the program: every function a command never enters
is named here, with what holds it.

A fixed list of command lines runs in-process under ``sys.setprofile``,
with every library cache cleared before each run, and the functions and
methods entered are compared with every ``def`` in the source files of
the package (lambdas and comprehensions aside).  A function that no run
enters fails the test unless ``NOT_ENTERED`` names it; an oracle the
tests compare against belongs in ``tests/oracles.py`` instead.  An entry
a run does enter is stale and fails the test too, so the list stays
short.
"""

import ast
import gc
import sys
from pathlib import Path

import pytest

import mipoly
from mipoly import cli

from oracles import clear_library_caches

# what may hold a function that no command enters; a ROADMAP item is
# named by its title, which a renumbering leaves as it is
EXPLICIT_COEFFICIENTS = "ROADMAP 'Explicit coefficients': RatFunc " \
    "arithmetic of the explicit r_(n,k)"
BOUNDARY_ZERO = "ROADMAP 'Name the boundary zero of Xi': Xi_D at the " \
    "boundary, and the span test"
BENCHMARK_REPAIR = "ROADMAP 'A compute workload ... and the benchmark " \
    "repair': benchmark names, deleted with their metrics"
DUNDER = "data-model dunder: repr, pickle, eq or hash"
GUARD = "guard: trips only where check_genericity or immutability " \
        "stops every command first"

NOT_ENTERED = {
    "diffop.DiffOp.__eq__": DUNDER,
    "diffop.DiffOp.__repr__": DUNDER,
    "exact.Poly.__call__": BOUNDARY_ZERO,
    "exact.poly_lcm": BENCHMARK_REPAIR,
    "exact.RatFunc.of": EXPLICIT_COEFFICIENTS,
    "exact.RatFunc._reduced": EXPLICIT_COEFFICIENTS,
    "exact.RatFunc.is_zero": EXPLICIT_COEFFICIENTS,
    "exact.RatFunc.__add__": EXPLICIT_COEFFICIENTS,
    "exact.RatFunc.__neg__": EXPLICIT_COEFFICIENTS,
    "exact.RatFunc.__sub__": EXPLICIT_COEFFICIENTS,
    "exact.RatFunc.__rsub__": EXPLICIT_COEFFICIENTS,
    "exact.RatFunc.__mul__": EXPLICIT_COEFFICIENTS,
    "exact.RatFunc.__truediv__": EXPLICIT_COEFFICIENTS,
    "exact.RatFunc.__rtruediv__": EXPLICIT_COEFFICIENTS,
    "exact.RatFunc.deriv": EXPLICIT_COEFFICIENTS,
    "exact.RatFunc.__hash__": DUNDER,
    "exact.RatFunc.__repr__": DUNDER,
    "exact._cross_reduce": EXPLICIT_COEFFICIENTS,
    "exact.FrozenRecord.__setattr__": GUARD,
    "exact.FrozenRecord.__delattr__": GUARD,
    "exact.FrozenRecord.__reduce__": DUNDER,
    "exact.FrozenRecord.__repr__": DUNDER,
    # cnk's fallback where the O(n) sweep meets a zero denominator
    "families.jacobi_ank": GUARD,
    # the message of a gauge that does not reduce away
    "gauged.gauge_str": GUARD,
    "gauged.det_ratfunc": BENCHMARK_REPAIR,
    # the message of a degree that the leading-coefficient formula missed
    "mindexed._degree_mismatch": GUARD,
    "recurrence.in_deformed_span": BOUNDARY_ZERO,
    "shiftalg.column_action": BENCHMARK_REPAIR,
    "shiftalg.flat_map": BENCHMARK_REPAIR,
}

L = ["--family", "L", "--g", "7/3"]
J = ["--family", "J", "--g", "7/3", "--h", "9/4"]


def _command_lines(latex: str):
    """(argv, exit status) pairs, the runs the trace covers; latex is the
    file --latex writes."""
    runs = [([command, *point, "--indices", indices, "--nmax", "1", *fmt], 0)
            for command in ("construct", "recurrence")
            for point in (L, J)
            for indices in ("1I", "1I,3I,2II")
            for fmt in (["--format", "json"], ["--format", "text"],
                        ["--format", "latex"], ["--latex", latex])]
    runs += [
        # the classical family, and both golden configurations
        (["construct", *L, "--indices", "", "--nmax", "1"], 0),
        (["recurrence", *J, "--indices", "", "--nmax", "1"], 0),
        (["recurrence", "--family", "L", "--g", "2", "--indices", "1I",
          "--nmax", "1"], 0),
        (["recurrence", *J, "--indices", "1I", "--nmax", "1"], 0),
        # admissible and inadmissible --raw-X, and the residue witness
        (["recurrence", *L, "--indices", "1I", "--raw-X", "0,17/6,1/2",
          "--nmax", "1"], 0),
        (["recurrence", *L, "--indices", "1I", "--raw-X", "0,1"], 1),
        (["recurrence", "--family", "L", "--g", "-1/2", "--indices", "1I",
          "--raw-X", "0,1", "--nmax", "2"], 1),
        # genericity failures and a failing degree check
        (["construct", "--family", "J", "--g", "7/3", "--h", "4/3",
          "--indices", "1I,2II", "--nmax", "2"], 1),
        (["construct", "--family", "L", "--g", "-1/2", "--indices",
          "1I,2II"], 1),
        (["recurrence", "--family", "L", "--g", "-3/2", "--indices",
          "2II"], 1),
        # unusable command lines
        (["construct", *L, "--bogus", "1"], 2),
        (["construct", "--g", "7/3"], 2),
        (["recurrence", *L, "--indices", "1I", "--y", "0,1",
          "--raw-X", "0,1"], 2),
        (["construct", *L, "--indices", "1I", "--latex", "."], 2),
        ([], 2),
        (["--help"], 0),
    ]
    runs += [(["verify", "--suite", "all", "--samples", "1", "--nmax", "2",
               "--format", fmt], 0) for fmt in ("json", "text", "latex")]
    return runs


def _defined():
    """{(path, first line): "module.qualname"} of every def in the package."""
    out = {}
    for path in sorted(Path(mipoly.__file__).resolve().parent.glob("*.py")):
        stack = [(compile(path.read_text(encoding="utf-8"), str(path),
                          "exec"), path.stem, False)]
        while stack:
            code, prefix, in_function = stack.pop()
            for const in code.co_consts:
                if not hasattr(const, "co_code") or \
                        const.co_name.startswith("<"):
                    continue
                function = bool(const.co_flags & 2)   # CO_NEWLOCALS: no class body
                name = prefix + (".<locals>." if in_function else ".") \
                    + const.co_name
                if function:
                    out[(path, const.co_firstlineno)] = name
                stack.append((const, name, function))
    return out


def test_every_function_in_src_is_entered_or_held(capsys, monkeypatch,
                                                  tmp_path):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    runs, codes = _command_lines(str(tmp_path / "out.tex")), []
    for argv, _ in runs:
        clear_library_caches()
        sys.setprofile(profile)
        try:
            codes.append(cli.main(argv))
        finally:
            sys.setprofile(None)
        capsys.readouterr()
    # the console script's entry point, once
    monkeypatch.setattr(sys, "argv", ["mipoly", "--help"])
    sys.setprofile(profile)
    try:
        with pytest.raises(SystemExit) as stop:
            cli.entry()
    finally:
        sys.setprofile(None)
        gc.unfreeze()   # entry() froze this process's objects on its way out
    capsys.readouterr()

    defined = _defined()
    reached = {defined.get((Path(c.co_filename).resolve(), c.co_firstlineno))
               for c in entered}
    names = set(defined.values())
    never = sorted(names - reached - set(NOT_ENTERED))
    assert not never, "entered by no command line and held by nothing " \
        f"(an oracle belongs in tests/oracles.py): {', '.join(never)}"
    stale = sorted(set(NOT_ENTERED) & reached) + \
        sorted(set(NOT_ENTERED) - names)
    assert not stale, f"NOT_ENTERED names a def a run enters, or none: {stale}"
    assert set(NOT_ENTERED.values()) <= {
        EXPLICIT_COEFFICIENTS, BOUNDARY_ZERO, BENCHMARK_REPAIR, DUNDER, GUARD}
    assert codes == [code for _, code in runs]
    assert stop.value.code == 0


# the library layers; the named checks built on them live in verify
LAYERS = ["exact", "families", "gauged", "mindexed", "diffop", "recurrence",
          "shiftalg"]


@pytest.mark.parametrize("layer", LAYERS)
def test_no_library_layer_imports_the_checks(layer):
    path = Path(mipoly.__file__).resolve().parent / f"{layer}.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}"
                            for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {"checks", ".checks", "mipoly.checks"} & imported, \
        f"{layer} imports the check rows"
