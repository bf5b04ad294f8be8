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

import gc
import sys
from pathlib import Path

import pytest

import mipoly
from mipoly import cli

# what may hold a function that no command enters
ITEM_1 = "ROADMAP item 1: RatFunc arithmetic of the explicit r_(n,k)"
ITEM_3 = "ROADMAP item 3: Xi_D at the boundary, and the span test"
ITEM_4 = "ROADMAP item 4: benchmark names, deleted with their metrics"
BATTERY = "perfbench/battery.py: the single-step ladders"
DUNDER = "data-model dunder: repr, pickle, eq or hash"
GUARD = "guard: trips only where check_genericity or immutability " \
        "stops every command first"

NOT_ENTERED = {
    "diffop.DiffOp.__eq__": DUNDER,
    "diffop.DiffOp.__repr__": DUNDER,
    "diffop.single_step_forward": BATTERY,
    "diffop.single_step_backward": BATTERY,
    "diffop.forward_step_eigen": BATTERY,
    "diffop.backward_step_eigen": BATTERY,
    "exact.Poly.__call__": ITEM_3,
    "exact.poly_lcm": ITEM_4,
    "exact.RatFunc.of": ITEM_1,
    "exact.RatFunc._reduced": ITEM_1,
    "exact.RatFunc.is_zero": ITEM_1,
    "exact.RatFunc.__add__": ITEM_1,
    "exact.RatFunc.__neg__": ITEM_1,
    "exact.RatFunc.__sub__": ITEM_1,
    "exact.RatFunc.__rsub__": ITEM_1,
    "exact.RatFunc.__mul__": ITEM_1,
    "exact.RatFunc.__truediv__": ITEM_1,
    "exact.RatFunc.__rtruediv__": ITEM_1,
    "exact.RatFunc.deriv": ITEM_1,
    "exact.RatFunc.__hash__": DUNDER,
    "exact.RatFunc.__repr__": DUNDER,
    "exact._cross_reduce": ITEM_1,
    "exact.FrozenRecord.__setattr__": GUARD,
    "exact.FrozenRecord.__delattr__": GUARD,
    "exact.FrozenRecord.__reduce__": DUNDER,
    "exact.FrozenRecord.__repr__": DUNDER,
    # cnk's fallback where the O(n) sweep meets a zero denominator
    "families.jacobi_ank": GUARD,
    # the message of a gauge that does not reduce away
    "gauged.gauge_str": GUARD,
    "gauged.det_ratfunc": ITEM_4,
    # the message of a degree that the leading-coefficient formula missed
    "mindexed._degree_mismatch": GUARD,
    "recurrence.in_deformed_span": ITEM_3,
    "shiftalg.column_action": ITEM_4,
    "shiftalg.OpMatrix.__add__": ITEM_4,
    "shiftalg.flat_map": ITEM_4,
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


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("mipoly") and module is not None:
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def test_every_function_in_src_is_entered_or_held(capsys, monkeypatch,
                                                  tmp_path):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    runs, codes = _command_lines(str(tmp_path / "out.tex")), []
    for argv, _ in runs:
        _clear_caches()
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
    assert set(NOT_ENTERED.values()) <= {ITEM_1, ITEM_3, ITEM_4, BATTERY,
                                         DUNDER, GUARD}
    assert codes == [code for _, code in runs]
    assert stop.value.code == 0
