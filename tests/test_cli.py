"""Command-line interface: documents, exit codes, golden comparisons.

Every invocation goes through main(argv) so the tests see exactly what a
shell user sees; stdout is parsed back as JSON and compared exactly.
"""

import gc
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest

import mipoly
import mipoly.mindexed as mindexed
import mipoly.recurrence as recurrence
import mipoly.shiftalg as shiftalg
from mipoly import cli, verify
from mipoly.checks import show
from mipoly.cli import main
from mipoly.diffop import DiffOp
from mipoly.exact import ParamPoint, Poly, rat_str
from mipoly.gauged import NotPolynomial
from mipoly.mindexed import IndexSet, _seed_wronskian, mi_poly
from mipoly.recurrence import recurrence_direct, theta_op, x_from_y

from oracles import GaugedFn, clear_library_caches


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def check_status(doc, name):
    rows = [c for c in doc["checks"] if c["name"] == name]
    assert rows, f"no check named {name}"
    return rows[0]["status"]


# -- construct ---------------------------------------------------------------


def test_construct_single_seed_pinned(capsys):
    code, doc = run_json(capsys, ["construct", "--family", "L", "--g", "7/3",
                                  "--indices", "1I", "--nmax", "2"])
    assert code == 0
    assert doc["results"]["xi"] == ["17/6", "1"]
    assert doc["results"]["ell"] == 1
    assert doc["results"]["members"][0]["coeffs"] == ["-23/6", "-1"]
    assert all(c["status"] == "pass" for c in doc["checks"])
    assert doc["version"]


def test_construct_empty_indices_is_classical(capsys):
    code, doc = run_json(capsys, ["construct", "--family", "L", "--g", "7/3",
                                  "--nmax", "3"])
    assert code == 0
    assert doc["results"]["xi"] == ["1"]
    assert doc["results"]["ell"] == 0
    # classical Laguerre P_1 at g = 7/3: (g + 1/2 + ... ) -- degree 1
    assert len(doc["results"]["members"]) == 4
    assert doc["results"]["members"][1]["coeffs"][-1] == "-1"
    assert doc["results"]["members"][1]["pi"] == "1"


@pytest.mark.parametrize("g", ["-1/2", "3/2", "5/2", "-13/2"])
def test_construct_degenerate_quartics(capsys, g):
    code, doc = run_json(capsys, ["construct", "--family", "L", "--g", g,
                                  "--indices", "1I,2II"])
    # the quartic factorization is exact, but the family itself is
    # non-generic at these parameters, so the command signals failure
    assert code == 1
    assert check_status(doc, "degenerate_factorization") == "pass"
    assert check_status(doc, "genericity") == "fail"
    assert len(doc["results"]["xi"]) == 5


def test_construct_names_degree_witness(capsys):
    code, doc = run_json(capsys, ["construct", "--family", "L", "--g", "-1/2",
                                  "--indices", "1I,2II"])
    assert code == 1
    row = [c for c in doc["checks"] if c["name"] == "expected_degrees"][0]
    assert row["status"] == "fail"
    assert "first at deg P_(D,3): expected 7," in row["detail"]
    assert "inf" not in row["detail"]


def test_construct_config_errors(capsys):
    assert main(["construct", "--family", "L", "--indices", "1I"]) == 2
    assert main(["construct", "--family", "L", "--g", "1/3",
                 "--h", "2"]) == 2
    assert main(["construct", "--family", "J", "--g", "1/3"]) == 2
    assert main(["construct", "--family", "L", "--g", "7/3",
                 "--indices", "1I,1I"]) == 2
    assert main(["construct", "--family", "L", "--g", "x"]) == 2
    assert main(["construct"]) == 2
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def test_construct_names_the_failing_seed(capsys):
    # alpha + beta = -1 at 2II's twisted point, where the three-term
    # recurrence of the seed's own polynomial is 0/0
    code, doc = run_json(capsys, ["construct", "--family", "J", "--g", "7/3",
                                  "--h", "4/3", "--indices", "1I,2II",
                                  "--nmax", "2"])
    assert code == 1
    row = [c for c in doc["checks"] if c["name"] == "genericity"][0]
    assert row["detail"] == ("seed 2II at its twisted point J g=-4/3 h=4/3: "
                             "A_0 denominator vanishes")


# -- the command line --------------------------------------------------------

_L_PAIR = ["construct", "--family", "L", "--indices", "1I,2II"]


@pytest.mark.parametrize("same, other", [
    (_L_PAIR + ["--g", "-1/2"], _L_PAIR + ["--g=-1/2"]),
    (_L_PAIR + ["--g", "7/3", "--nmax", "2"],
     _L_PAIR + ["--g", "7/3", "--nm", "2"]),
])
def test_flag_spellings_give_the_same_stdout(capsys, same, other):
    runs = []
    for argv in (same, other):
        runs.append((main(argv), capsys.readouterr().out))
    assert runs[0][1] and runs[0] == runs[1]


@pytest.mark.parametrize("argv", [
    _L_PAIR + ["--g", "7/3", "--s", "1"],           # ambiguous prefix
    _L_PAIR + ["--g", "7/3", "--bogus", "1"],
    _L_PAIR + ["--g", "7/3", "--nmax"],             # missing value
    _L_PAIR + ["--g", "7/3", "--format", "yaml"],
    _L_PAIR + ["--g", "7/3", "--nmax", "two"],
    ["construct", "--family", "H", "--g", "7/3"],
    ["construct", "--g", "7/3"],                  # no --family
    _L_PAIR + ["--g", "7/3", "stray"],
    _L_PAIR + ["--g", "7/3", "--help=1"],
    ["construct", "--help", "--bogus"],           # help reads the whole line
    ["construct", "-h", "stray"],
    ["construct", "-h", "--nmax"],
    ["-h", "--bogus"],
    ["--nmax", "2"],
    [],
    _L_PAIR + ["--g", "1/0"],
    ["recurrence", "--family", "L", "--g", "7/3", "--indices", "1I",
     "--y", "1,1/0"],
    ["recurrence", "--family", "L", "--g", "7/3", "--indices", "1I",
     "--y", "0,1", "--raw-X", "0,1"],
    ["recurrence", "--family", "L", "--g", "7/3", "--indices", "1I",
     "--raw-X", "0,1", "--y", "0,1"],
    ["verify", "--nmax", "0"],
    # X' = 0 is Y = 0, which --y 0 refuses too
    ["recurrence", "--family", "L", "--g", "7/3", "--indices", "1I",
     "--raw-X", "5"],
])
def test_unusable_command_lines_exit_2(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("mipoly: ") and err.count("\n") == 1


def test_zero_denominator_names_its_input(capsys):
    # not the Fraction(1, 0) repr, which hides what was typed
    assert main(_L_PAIR + ["--g", "1/0"]) == 2
    assert capsys.readouterr().err == \
        "mipoly: --g: zero denominator in '1/0'\n"


def test_y_and_raw_x_are_not_combined(capsys):
    # --raw-X bypasses Y, so a given --y would be silently ignored
    assert main(["recurrence", "--family", "L", "--g", "7/3", "--indices",
                 "1I", "--raw-X", "0,17/6,1/2", "--y=0,1"]) == 2
    assert capsys.readouterr().err == \
        "mipoly: --y and --raw-X cannot be combined\n"


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["construct", "-h"],
                                  ["recurrence", "--family", "L", "--he"],
                                  ["verify", "--h"],
                                  ["construct", "-h", "--nmax", "x"]])
def test_help_prints_usage(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: mipoly") and err == ""


# -- recurrence --------------------------------------------------------------


def test_recurrence_laguerre_golden(capsys):
    code, doc = run_json(capsys, ["recurrence", "--family", "L", "--g", "2",
                                  "--indices", "1I", "--nmax", "10"])
    assert code == 0
    assert doc["results"]["golden"] == "pass"
    assert doc["results"]["order"] == 2
    assert doc["results"]["x"] == ["0", "5/2", "1/2"]
    assert check_status(doc, "route_agreement") == "pass"
    assert doc["results"]["rows"][0]["coeffs"][0] == [0, "125/8"]


def test_recurrence_jacobi_golden(capsys):
    code, doc = run_json(capsys, ["recurrence", "--family", "J",
                                  "--g", "7/3", "--h", "9/4",
                                  "--indices", "1I", "--nmax", "4"])
    assert code == 0
    assert doc["results"]["golden"] == "pass"
    assert check_status(doc, "route_agreement") == "pass"


@pytest.mark.parametrize("point, table", [
    (["--family", "L", "--g", "2"], "laguerre_single_seed"),
    (["--family", "J", "--g", "7/3", "--h", "9/4"], "jacobi_single_seed"),
])
def test_recurrence_reads_only_its_familys_table(capsys, monkeypatch, point,
                                                 table):
    read, load = [], cli._load_golden
    monkeypatch.setattr(cli, "_load_golden",
                        lambda name: read.append(name) or load(name))
    code, doc = run_json(capsys, ["recurrence", *point, "--indices", "1I",
                                  "--nmax", "1"])
    assert code == 0 and doc["results"]["golden"] == "pass"
    assert read == [table]


def test_recurrence_golden_names_a_wrong_table_entry(capsys, monkeypatch):
    # one wrong closed-form entry, r_(3,-1), fails exactly its row
    load = cli._load_golden

    def wrong(name):
        table = load(name)
        table["rows"][3]["coeffs"][1][1] = "-117/4"
        return table

    monkeypatch.setattr(cli, "_load_golden", wrong)
    code, doc = run_json(capsys, ["recurrence", "--family", "L", "--g", "2",
                                  "--indices", "1I", "--nmax", "4"])
    assert code == 1
    assert doc["results"]["golden"] == "fail"
    assert check_status(doc, "route_agreement") == "pass"
    row = [c for c in doc["checks"] if c["name"] == "golden"][0]
    assert row["detail"] == (
        "closed-form table rows n <= 4; 1 of 5 cases fail, first at n=3: "
        "expected [[-2, '91/8'], [-1, '-117/4'], [0, '713/8'], [1, '-52'], "
        "[2, '10']], got [[-2, '91/8'], [-1, '-117/2'], [0, '713/8'], "
        "[1, '-52'], [2, '10']]")


def test_golden_tables_load_without_importlib_resources():
    # under -S no site module preloads anything, so sys.modules shows
    # what a golden recurrence run itself imports
    script = (
        "import sys\n"
        "from mipoly.cli import main\n"
        "code = main(['recurrence', '--family', 'L', '--g', '2',\n"
        "             '--indices', '1I', '--nmax', '12'])\n"
        "heavy = {'importlib.resources', 'pathlib', 'zipfile'}\n"
        "print(code, sorted(heavy & set(sys.modules)), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          env=_env_with_src(), capture_output=True, text=True,
                          timeout=60)
    assert proc.stderr == "0 []\n"
    assert json.loads(proc.stdout)["results"]["golden"] == "pass"


def test_recurrence_no_golden_for_other_parameters(capsys):
    code, doc = run_json(capsys, ["recurrence", "--family", "L",
                                  "--g", "7/3", "--indices", "1I",
                                  "--nmax", "2"])
    assert code == 0
    assert "golden" not in doc["results"]


def test_recurrence_raw_x_inadmissible(capsys):
    code, doc = run_json(capsys, ["recurrence", "--family", "L", "--g", "7/3",
                                  "--indices", "1I", "--raw-X", "0,1"])
    assert code == 1
    row = [c for c in doc["checks"] if c["name"] == "x_admissible"][0]
    assert row["status"] == "fail"
    assert row["detail"] == ("NotPolynomial: coefficient of d^0 has denominator "
                             "Poly(17/6 + 1*eta); X is not admissible for 1I")
    assert "rows" not in doc["results"]


def test_recurrence_raw_x_admissible_matches_y_route(capsys):
    # X = integral of Xi for D = {1I} at g = 7/3: (17/6) eta + eta^2/2
    code_x, doc_x = run_json(capsys, ["recurrence", "--family", "L",
                                      "--g", "7/3", "--indices", "1I",
                                      "--raw-X", "0,17/6,1/2", "--nmax", "5"])
    code_y, doc_y = run_json(capsys, ["recurrence", "--family", "L",
                                      "--g", "7/3", "--indices", "1I",
                                      "--y", "1", "--nmax", "5"])
    assert code_x == 0 and code_y == 0
    assert check_status(doc_x, "x_admissible") == "pass"
    assert doc_x["results"]["rows"] == doc_y["results"]["rows"]
    assert doc_x["results"]["order"] == doc_y["results"]["order"]


def test_recurrence_residue_in_the_direct_route_is_a_witness(capsys):
    # Theta is polynomial for X = eta at g = -1/2, yet X P_(D,0) leaves a
    # constant below ell = 1 in the deformed basis
    code, doc = run_json(capsys, ["recurrence", "--family", "L",
                                  "--g", "-1/2", "--indices", "1I",
                                  "--nmax", "2", "--raw-X", "0,1"])
    assert code == 1
    assert check_status(doc, "x_admissible") == "pass"
    row = [c for c in doc["checks"] if c["name"] == "route_agreement"][0]
    assert row["status"] == "fail"
    assert row["detail"].endswith(
        "fails at n=0, direct route: NonzeroRemainder: residue Poly(1) of "
        "degree 0 below ell = 1 for 1I")
    assert doc["results"]["rows"] == []


_DEGENERATE_POINTS = (
    [["--family", "L", "--g", g] for g in ("-1/2", "1/2", "7/3")]
    + [["--family", "J", "--g", g, "--h", h]
       for g, h in (("0", "-1/2"), ("7/3", "9/4"))])


def test_degenerate_grid_always_writes_a_document(capsys):
    # every run at degenerate and generic points, through both the Y and
    # the raw-X entry, ends in a document: exit 0 or 1, never a traceback
    for point in _DEGENERATE_POINTS:
        for indices in ("1I", "2II", "1I,2I", "1I,2II"):
            for route in (["--y", "1"], ["--raw-X", "0,1"]):
                argv = ["recurrence", *point, "--indices", indices,
                        "--nmax", "2", *route]
                code, doc = run_json(capsys, argv)
                assert code in (0, 1), argv
                assert doc["checks"], argv


def test_recurrence_builds_theta_once(capsys):
    theta_op.cache_clear()
    code, _ = run_json(capsys, ["recurrence", "--family", "L", "--g", "7/3",
                                "--indices", "1I,2II", "--y", "0,1",
                                "--nmax", "3"])
    assert code == 0
    assert theta_op.cache_info().misses == 1


def _counted(monkeypatch, module, name):
    """Patch module.name to count its calls; returns the list of calls."""
    calls, inner = [], getattr(module, name)

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_raw_x_builds_theta_once(capsys, monkeypatch):
    # the admissibility check and every operator row share one Theta
    clear_library_caches()
    composed = _counted(monkeypatch, DiffOp, "compose")
    code, _ = run_json(capsys, ["recurrence", "--family", "L", "--g", "7/3",
                                "--indices", "1I", "--raw-X", "0,17/6,1/2",
                                "--nmax", "3"])
    assert code == 0
    assert len(composed) == 1


def test_recurrence_builds_x_once(capsys, monkeypatch):
    # the document, Theta and every row of the direct route share one X
    import mipoly.recurrence as recurrence
    clear_library_caches()
    builds = _counted(monkeypatch, recurrence, "integrate_from_zero")
    code, _ = run_json(capsys, ["recurrence", "--family", "L", "--g", "7/3",
                                "--indices", "1I,2II", "--y", "0,1",
                                "--nmax", "3"])
    assert code == 0
    assert len(builds) == 1


def test_construct_takes_each_virtual_energy_once(capsys, monkeypatch):
    # pi_D(n) at every n reads the seeds' energies, computed once per set
    clear_library_caches()
    energies = _counted(monkeypatch, mindexed, "virtual_energy")
    code, _ = run_json(capsys, ["construct", "--family", "J", "--g", "7/3",
                                "--h", "9/4", "--indices", "1I,3I,2II",
                                "--nmax", "20"])
    assert code == 0
    assert len(energies) == 3


def test_recurrence_names_identically_zero_member(capsys):
    # P_(D,4) vanishes identically here; the genericity check through
    # nmax + L runs before any route and names the cause
    code, doc = run_json(capsys, ["recurrence", "--family", "L",
                                  "--g", "-3/2", "--indices", "2II"])
    assert code == 1
    row = [c for c in doc["checks"] if c["name"] == "genericity"][0]
    assert row["detail"] == "pi_D(4) = 0 for 2II at L g=-3/2"
    assert "inf" not in row["detail"]
    assert "rows" not in doc["results"]


def test_recurrence_gates_a_vanishing_pi_with_a_nonzero_member(capsys):
    # pi_D(5) = 0 while P_(D,5) != 0: Theta's entry there is
    # pi_D(5) r_(0,5) = 0, so the theta and matrix routes would drop the
    # direct route's r_(0,5) = 27 unnoticed; the genericity check stops
    # the run first
    code, doc = run_json(capsys, ["recurrence", "--family", "L",
                                  "--g", "-13/2", "--indices", "1I,2II",
                                  "--nmax", "0"])
    assert code == 1
    row = [c for c in doc["checks"] if c["name"] == "genericity"][0]
    assert row["detail"] == "pi_D(5) = 0 for 1I,2II at L g=-13/2"
    assert "rows" not in doc["results"]


def test_recurrence_names_route_witness(capsys, monkeypatch):
    real = shiftalg.recurrence_bispectral

    def perturbed(pp, D, X, n):
        row = real(pp, D, X, n)
        return {**row, 1: row[1] + 1} if n == 3 else row

    monkeypatch.setattr(shiftalg, "recurrence_bispectral", perturbed)
    code, doc = run_json(capsys, ["recurrence", "--family", "L", "--g", "7/3",
                                  "--indices", "1I", "--nmax", "4"])
    assert code == 1
    row = [c for c in doc["checks"] if c["name"] == "route_agreement"][0]
    assert row["status"] == "fail"
    pp, D = ParamPoint("L", g=F(7, 3)), IndexSet.parse("L", "1I")
    args = (pp, D, x_from_y(pp, D, Poly.one()), 3)
    assert row["detail"] == (
        "direct, operator and matrix routes for n <= 4; 1 of 10 cases fail, "
        f"first at n=3, matrix route: expected {show(real(*args))}, "
        f"got {show(perturbed(*args))}")
    assert [r["n"] for r in doc["results"]["rows"]] == [0, 1, 2, 3, 4]


def test_recurrence_decomposition_failure_is_a_witness(capsys, monkeypatch):
    # d alone has no normal form sum_b (u_b + v_b K) H0^b: the matrix
    # route fails as a route_agreement case, not as a traceback
    monkeypatch.setattr(shiftalg, "theta_op",
                        lambda pp, D, X: DiffOp([0, Poly.one()]))
    code = main(["recurrence", "--family", "L", "--g", "7/3",
                 "--indices", "1I", "--nmax", "2"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 1
    assert "Traceback" not in captured.err
    pp, D = ParamPoint("L", g=F(7, 3)), IndexSet.parse("L", "1I")
    want = recurrence_direct(pp, D, x_from_y(pp, D, Poly.one()), 0)
    assert [(c["name"], c["status"], c["detail"]) for c in doc["checks"]] == [
        ("route_agreement", "fail",
         "direct, operator and matrix routes for n <= 2; 3 of 6 cases fail, "
         f"first at n=0, matrix route: expected {show(want)}, got "
         "DecompositionFailure: order 1: F_1 = Poly(1) is not divisible "
         "by c_2^1 = Poly(1*eta)")]


def test_verify_decomposition_failure_is_a_witness(capsys, monkeypatch):
    monkeypatch.setattr(shiftalg, "theta_op",
                        lambda pp, D, X: DiffOp([0, Poly.one()]))
    code, doc = run_json(capsys, ["verify", "--suite", "recurrence",
                                  "--samples", "1", "--nmax", "1"])
    assert code == 1
    assert doc["checks"] and all(
        c["status"] == "fail" and c["name"].startswith("recurrence/routes[")
        and "matrix route" in c["detail"]
        and "got DecompositionFailure: order 1: F_1 = Poly(1)" in c["detail"]
        for c in doc["checks"])


@pytest.mark.parametrize("command", [
    ["construct", "--family", "L", "--g", "7/3", "--indices", "1I"],
    ["recurrence", "--family", "L", "--g", "7/3", "--indices", "1I"],
])
def test_negative_nmax_is_a_config_error(capsys, command):
    assert main(command + ["--nmax", "-1"]) == 2
    assert capsys.readouterr().out == ""


# -- verify ------------------------------------------------------------------


def test_verify_rejects_zero_samples(capsys):
    assert main(["verify", "--suite", "families", "--samples", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_verify_wronskian_seeded_deterministic(capsys):
    assert main(["verify", "--suite", "wronskian", "--seed", "42"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--suite", "wronskian", "--seed", "42"]) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["results"]["suites"]["wronskian"] == {"pass": 4, "fail": 0}


def test_verify_bnk(capsys):
    code, doc = run_json(capsys, ["verify", "--suite", "bnk",
                                  "--nmax", "12"])
    assert code == 0
    assert doc["results"]["suites"]["bnk"]["fail"] == 0


@pytest.mark.parametrize("suite, name", [
    ("bnk", "bnk/cross_terms[L g=7/3]"),
    ("shiftalg", "shiftalg/cross_terms_vanish"),
])
def test_verify_row_with_no_cases_fails(capsys, suite, name):
    # at nmax 0 there is no 1 <= k <= n <= 0: such a row checks nothing,
    # so it must not pass, and the command line refuses nmax 0 for verify
    # (construct and recurrence keep it)
    assert main(["verify", "--suite", suite, "--nmax", "0"]) == 2
    assert capsys.readouterr() == \
        ("", "mipoly: --nmax must be >= 1 for verify, got 0\n")
    rows = [row for row in verify.SUITES[suite](1, 0, 0)
            if f"{suite}/{row.name}" == name]
    assert rows and not any(row.ok for row in rows)
    assert all(row.detail.endswith("; no cases checked") for row in rows)


def test_verify_shiftalg_rows_name_their_point(capsys):
    # the row names repeat once per parameter point, so only the detail
    # can tell a failing row's point
    code, doc = run_json(capsys, ["verify", "--suite", "shiftalg",
                                  "--seed", "5"])
    assert code == 0
    rows = [(c["name"], c["detail"]) for c in doc["checks"]]
    assert len(set(rows)) == len(rows)
    points = [str(pp) for pp in verify.sample_points(2)]
    pointed = [detail.split("; ")[0] for name, detail in rows
               if name.startswith(("shiftalg/commutator", "shiftalg/cross",
                                   "shiftalg/eta_power",
                                   "shiftalg/derivative_power"))]
    assert pointed == [pp for pp in points for _ in range(8)]


def test_verify_names_power_witness(capsys, monkeypatch):
    # one wrong closed-form entry, for L at n = 5, fails exactly its row
    real = verify.gamma_power_column

    def perturbed(pp, j, n):
        col = dict(real(pp, j, n))
        if pp.family == "L" and j == 2 and n == 5:
            col[3] = col.get(3, 0) + 1
        return col

    monkeypatch.setattr(verify, "gamma_power_column", perturbed)
    code, doc = run_json(capsys, ["verify", "--suite", "shiftalg",
                                  "--samples", "1"])
    assert code == 1
    failed = [c for c in doc["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == ["shiftalg/derivative_power_2"]
    assert failed[0]["detail"].startswith(
        "L g=7/3; columns n <= 8; 1 of 9 cases fail, first at column 5: ")


def test_verify_families_and_mindexed(capsys):
    code, doc = run_json(capsys, ["verify", "--suite", "families",
                                  "--samples", "2", "--nmax", "6"])
    assert code == 0
    code, doc = run_json(capsys, ["verify", "--suite", "mindexed",
                                  "--samples", "2", "--nmax", "4"])
    assert code == 0
    assert doc["results"]["suites"]["mindexed"]["fail"] == 0


def test_verify_names_diffop_witness(capsys, monkeypatch):
    real = verify.energy
    monkeypatch.setattr(verify, "energy", lambda pp, n: real(pp, n) + 1)
    code, doc = run_json(capsys, ["verify", "--suite", "diffop",
                                  "--samples", "1", "--nmax", "2"])
    assert code == 1
    row = doc["checks"][0]
    assert row["name"] == "diffop/intertwining[L,1I,g=7/3]"
    # E_0 = 0, so H P_(D,0) = 0 against the perturbed 1 * P_(D,0)
    p0 = mi_poly(ParamPoint("L", g=F(7, 3)), IndexSet.parse("L", "1I"), 0)
    assert row["detail"].endswith(
        f"first at H P_(D,0): expected {p0!r}, got Poly(0)")


LG, L1 = ParamPoint("L", g=F(7, 3)), IndexSet.parse("L", "1I")


def test_verify_ladder_names_a_wrong_step_factor(monkeypatch):
    # f_3 off by one at every point fails the ladder row and only it
    real = verify.forward_step_eigen
    monkeypatch.setattr(verify, "forward_step_eigen",
                        lambda pp, n: real(pp, n) + (n == 3))
    intertwining, ladder = verify.diffop([(LG, L1)], 5)
    assert intertwining.ok and not ladder.ok
    assert ladder.name == "ladder[L,1I,g=7/3]"
    assert ladder.detail.startswith(
        "L g=7/3, 1I; F_D, B_D and f_n b_(n-1) = E_n for 1 <= n <= 5; "
        "2 of 15 cases fail, first at F_D P_(D,3): expected ")


def test_verify_routes_name_a_coefficient_out_of_band(monkeypatch):
    # every route moves r_(3,2) to k = 3: the routes still agree, so
    # only the band names the row's n
    def shifted(route):
        def at(pp, D, X, n):
            row = dict(route(pp, D, X, n))
            if n == 3:
                row[3] = row.pop(2)
            return row
        return at

    for module, name in ((recurrence, "recurrence_direct"),
                         (recurrence, "recurrence_via_theta"),
                         (shiftalg, "recurrence_bispectral")):
        monkeypatch.setattr(module, name, shifted(getattr(module, name)))
    (row,) = verify.recurrence([(LG, L1)], [Poly.one()], 4)
    assert row.detail == (
        "three routes agree, in the band |k| <= 2, for n <= 4; 1 of 18 "
        "cases fail, first at n=3, highest k: expected 2, got 3")


def test_verify_routes_name_a_theta_that_is_not_polynomial(monkeypatch):
    # the operator route's NotPolynomial is its row, as a
    # DecompositionFailure is the matrix route's, not a traceback
    def refused(pp, D, X):
        raise NotPolynomial("coefficient of d^0 has denominator Poly(1*eta)")

    monkeypatch.setattr(recurrence, "theta_op", refused)
    (row,) = verify.recurrence([(LG, L1)], [Poly.one()], 1)
    want = recurrence_direct(LG, L1, x_from_y(LG, L1, Poly.one()), 0)
    assert row.detail == (
        "three routes agree, in the band |k| <= 2, for n <= 1; 2 of 6 cases "
        f"fail, first at n=0, operator route: expected {show(want)}, got "
        "NotPolynomial: coefficient of d^0 has denominator Poly(1*eta)")


@pytest.mark.parametrize("suite", ["mindexed", "diffop", "recurrence"])
def test_verify_fails_a_degenerate_case_in_its_own_rows(suite):
    # P_(D,2) of 1I,2II vanishes at L g=1/2: that case fails each of its
    # rows with the cause, and the generic case after it still passes
    degenerate = (ParamPoint("L", g=F(1, 2)), IndexSet.parse("L", "1I,2II"))
    args = ([Poly.one()], 3) if suite == "recurrence" else (3,)
    rows = getattr(verify, suite)([degenerate, (LG, L1)], *args)
    failed, passed = rows[:len(rows) // 2], rows[len(rows) // 2:]
    for row in failed:
        assert not row.ok and "[L,1I,2II,g=1/2" in row.name
        assert row.detail.endswith(
            "; DegenerateLeading: P_(D,2) is identically zero (expected "
            "degree 6) for 1I,2II")
    assert passed and all(row.ok and "[L,1I,g=7/3" in row.name
                          for row in passed)


def test_verify_crashes_a_suite_on_any_other_exception(monkeypatch):
    def broken(pp, D):
        raise ZeroDivisionError("a bug, not a degenerate case")

    monkeypatch.setattr(verify, "xi_poly", broken)
    summary, rows = verify.run("mindexed", 1, 2, 0)
    assert summary == {"mindexed": {"pass": 0, "fail": 1}}
    assert rows == [("mindexed/crashed", False,
                     "ZeroDivisionError: a bug, not a degenerate case")]


def test_suite_choices_are_the_registry():
    # the command line names the suites without loading the registry
    usage = cli._USAGE.split("--suite ")[1].split(" (default)")[0]
    assert "".join(usage.split()).split("|") == [*verify.SUITES, "all"]
    assert cli._CHOICES["suite"] == (*verify.SUITES, "all")


def _clear_member_caches():
    mi_poly.cache_clear()
    _seed_wronskian.cache_clear()


def test_construct_does_not_read_fhat(capsys, monkeypatch):
    # P_(D,n) comes from gauged's own cofactors, never from diffop's
    # Fhat, so verify's Fhat P_n = P_(D,n) compares two constructions
    argv = ["construct", "--family", "J", "--g", "7/3", "--h", "9/4",
            "--indices", "1I,3I,2II", "--nmax", "20"]
    _clear_member_caches()
    assert main(argv) == 0
    want = capsys.readouterr().out

    def forbidden(*args, **kwargs):
        raise AssertionError("construct must not build Fhat")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("mipoly") \
                and hasattr(module, "forward_op"):
            monkeypatch.setattr(module, "forward_op", forbidden)
    _clear_member_caches()
    try:
        assert main(argv) == 0
        assert capsys.readouterr().out == want
    finally:
        _clear_member_caches()


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "J", "--g", "7/3", "--h", "9/4",
     "--indices", "1I,3I,2II", "--nmax", "3"],
    ["recurrence", "--family", "L", "--g", "7/3", "--indices", "1I,3I,2II",
     "--nmax", "1"],
    ["verify", "--suite", "diffop", "--samples", "1", "--nmax", "1"],
    ["verify", "--suite", "all", "--samples", "1", "--nmax", "1"],
])
def test_constructions_take_no_gauged_products(capsys, argv):
    # every compensating gauge is passed into its Wronskian and every
    # column is an (exponents, polynomial) pair, so no program path needs
    # a GaugedFn; its calculus lives with the tests' oracles, and no
    # module a command loads defines it or binds it under any name
    clear_library_caches()
    assert main(argv) == 0
    capsys.readouterr()
    holders = [name for name, module in list(sys.modules.items())
               if (name == "mipoly" or name.startswith("mipoly."))
               and module is not None
               and ("GaugedFn" in vars(module)
                    or any(obj is GaugedFn for obj in vars(module).values()))]
    assert holders == []


def test_verify_diffop_catches_a_corrupted_cofactor(monkeypatch):
    pp, D = ParamPoint("L", g=F(7, 3)), IndexSet.parse("L", "1I")

    def corrupted(pp, D):
        nums = list(_seed_wronskian(pp, D))
        nums[0] = 2 * nums[0]   # P_(D,0) = R_0
        return tuple(nums)

    # the command line refuses verify at nmax 0, so the registry runs
    # directly
    for nmax in (0, 2):
        _clear_member_caches()
        try:
            p0 = mi_poly(pp, D, 0)
            mi_poly.cache_clear()
            monkeypatch.setattr(mindexed, "_seed_wronskian", corrupted)
            # at n >= 1 the corrupted members leave the image of Fhat;
            # Bhat of them is no polynomial, a failing case of its own
            _, (row, *_) = verify.run("diffop", 1, nmax, 0)
        finally:
            monkeypatch.undo()
            _clear_member_caches()
        assert row.name == "diffop/intertwining[L,1I,g=7/3]" and not row.ok
        assert f"first at Fhat P_0: expected {2 * p0!r}, got {p0!r}" \
            in row.detail


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _env_with_src():
    """The environment, with this checkout's library first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mipoly.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _perfbench_module(name):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_digests_still_match(capsys):
    # every item either benchmark workload can draw, against the stdout
    # sha256 recorded in perfbench/digests.json: a change of
    # representation that alters output fails here first.  Each item
    # starts from empty caches, as a fresh interpreter does, so a field
    # formatted late that reads a cache no earlier step filled fails too
    workloads = _perfbench_module("workloads")
    digests = json.loads((Path(workloads.__file__).parent
                          / "digests.json").read_text())
    checked = 0
    for workload in ("recurrence-cli", "construct-cli"):
        for argv in workloads.cli_universe(workload):
            clear_library_caches()
            assert main(argv) == 0, argv
            out = capsys.readouterr().out.encode()
            assert hashlib.sha256(out).hexdigest() == \
                digests[workload][" ".join(argv)], argv
            checked += 1
    assert checked == sum(len(digests[w]) for w in digests) == 414


def test_benchmark_trace_finds_every_declared_figure(monkeypatch):
    # the per-layer metrics of BENCHMARK.json are read from the tracer's
    # figures by name: deleting or un-caching a function they pin must
    # fail here, not as a KeyError in a traced benchmark run
    monkeypatch.setattr(sys, "path", list(sys.path))   # run.py prepends
    before = set(sys.modules)
    try:
        run = _perfbench_module("run")
    finally:
        for name in set(sys.modules) - before:
            if name in ("workloads", "cli_item", "tracer"):
                del sys.modules[name]
    env = _env_with_src()
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py"), "recurrence",
         "--family", "J", "--g", "7/3", "--h", "9/4", "--indices", "1I",
         "--nmax", "2"], env=env, capture_output=True, text=True, check=True)
    last = proc.stderr.splitlines()[-1]
    assert last.startswith(run.TRACE_PREFIX)
    traced, plain = run.Pass(True), run.Pass(False)
    traced.add_trace(json.loads(last[len(run.TRACE_PREFIX):])["figures"])
    traced.wall_s = plain.wall_s = 1.0
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    metrics = run._layer_metrics([traced], [plain])
    assert sorted(metrics) == sorted(m["name"] for m in declared["per_layer"])


def test_verify_rejects_unknown_suite(capsys):
    assert main(["verify", "--suite", "sorcery"]) == 2
    capsys.readouterr()


# -- output formats ----------------------------------------------------------


def test_rationals_round_trip(capsys):
    _, doc = run_json(capsys, ["recurrence", "--family", "L", "--g", "2",
                               "--indices", "1I", "--nmax", "6"])
    seen = list(doc["results"]["x"])
    for row in doc["results"]["rows"]:
        seen += [v for _, v in row["coeffs"]]
    assert seen
    for s in seen:
        assert rat_str(F(s)) == s


def test_latex_unwritable_path_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "fragment.tex"
    code = main(["construct", "--family", "L", "--g", "7/3", "--indices", "1I",
                 "--nmax", "1", "--latex", str(target)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("mipoly: --latex: ")
    assert not target.exists()


def test_latex_fragment(capsys, tmp_path):
    target = tmp_path / "fragment.tex"
    code = main(["recurrence", "--family", "L", "--g", "2",
                 "--indices", "1I", "--nmax", "1",
                 "--latex", str(target)])
    capsys.readouterr()
    assert code == 0
    text = target.read_text()
    assert text.startswith("% mipoly recurrence")
    assert "r_{0,0} = \\tfrac{125}{8}" in text


@pytest.mark.parametrize("argv,comment", [
    (["construct", "--family", "J", "--g", "7/3", "--h", "4/3",
      "--indices", "1II"],
     "% FAIL genericity -- seed 1II at its twisted point J g=-4/3 h=4/3: "
     "A_0 denominator vanishes"),
    (["recurrence", "--family", "L", "--g", "7/3", "--indices", "1I",
      "--raw-X", "0,1"],
     "% FAIL x_admissible -- NotPolynomial: coefficient of d^0 has "
     "denominator Poly(17/6 + 1*eta); X is not admissible for 1I"),
], ids=["construct", "recurrence"])
def test_latex_of_a_failed_run_names_its_failures(capsys, tmp_path, argv,
                                                  comment):
    # no members or rows to typeset: the failing checks, not an empty
    # verify table, in both the printed and the written fragment
    target = tmp_path / "fragment.tex"
    code = main(argv + ["--format", "latex", "--latex", str(target)])
    out = capsys.readouterr().out
    assert code == 1
    want = f"% mipoly {argv[0]} v{mipoly.__version__}\n{comment}\n"
    assert out == want
    assert target.read_text() == want


def test_latex_of_a_construct_that_fails_after_xi(capsys, tmp_path):
    # Xi is built, then P_(D,1) hits a vanishing recurrence denominator:
    # the JSON has xi but no members, and the fragment typesets Xi alone
    argv = ["construct", "--family", "J", "--g", "-1", "--h", "2",
            "--indices", "1I", "--nmax", "1"]
    code, doc = run_json(capsys, argv)
    assert code == 1
    assert "xi" in doc["results"] and "members" not in doc["results"]
    target = tmp_path / "fragment.tex"
    code = main(argv + ["--format", "latex", "--latex", str(target)])
    out = capsys.readouterr().out
    assert code == 1
    want = (f"% mipoly construct v{mipoly.__version__}\n"
            "\\begin{align*}\n"
            "  \\Xi(\\eta) &= -\\tfrac{1}{2}\\eta \\\\\n"
            "\\end{align*}\n"
            "% FAIL genericity -- B_0 denominator vanishes\n")
    assert out == want
    assert target.read_text() == want


def test_text_format(capsys):
    code = main(["construct", "--family", "L", "--g", "7/3",
                 "--indices", "1I", "--format", "text", "--nmax", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("mipoly construct")
    assert "PASS" in out


_OPERATOR_LAYERS = ["mipoly.diffop", "mipoly.recurrence", "mipoly.shiftalg"]


def test_cold_import_skips_dataclasses():
    # every CLI call pays its imports; the records are plain slotted
    # classes, so dataclasses (and inspect behind it) stay unloaded; the
    # command line is matched against the flag table, so argparse,
    # locale, getopt and gettext do too; the operator layers load only
    # inside the commands that run them
    unwanted = ["dataclasses", "argparse", "locale", "getopt", "gettext",
                *_OPERATOR_LAYERS, "mipoly.verify"]
    script = ("import mipoly.cli, sys; "
              f"print({unwanted!r} & sys.modules.keys())")
    out = subprocess.run([sys.executable, "-c", script], env=_env_with_src(),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "set()"


def test_families_loads_no_wronskian_layer():
    # the seeds are plain (exponents, polynomial) pairs
    unwanted = ["mipoly.gauged", "mipoly.mindexed", *_OPERATOR_LAYERS]
    script = ("import mipoly.families, sys; "
              f"print({unwanted!r} & sys.modules.keys())")
    out = subprocess.run([sys.executable, "-c", script], env=_env_with_src(),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "set()"


def test_construct_runs_without_the_operator_layers():
    # nor does either command load the check registry
    script = f"""
import contextlib, io, sys
from mipoly.cli import main
family = ["--family", "J", "--g", "7/3", "--h", "9/4",
          "--indices", "1I,3I,2II"]
loaded = lambda: sorted({[*_OPERATOR_LAYERS, "mipoly.verify"]!r}
                        & sys.modules.keys())
with contextlib.redirect_stdout(io.StringIO()):
    built = main(["construct", *family, "--nmax", "20"]), loaded()
    ran = main(["recurrence", *family, "--nmax", "2"]), loaded()
print(built, ran)
"""
    out = subprocess.run([sys.executable, "-c", script], env=_env_with_src(),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == f"(0, []) (0, {_OPERATOR_LAYERS!r})"


def test_json_is_written_in_batches(monkeypatch):
    # larger than one batch: the text is json.dumps's, and every write
    # but the last holds at least _BATCH characters
    args = cli._parse_args(["construct", "--family", "L", "--g", "7/3",
                            "--indices", "1II,2II", "--nmax", "40"])
    doc, code = cli.cmd_construct(args)
    assert code == 0
    # json.dumps's encoder, with the writer's hook that formats polynomials
    encoder = json.JSONEncoder(indent=2, sort_keys=True,
                               default=cli._formatted)
    text = encoder.encode(doc) + "\n"
    assert len(text) > cli._BATCH
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
    cli._emit(doc, args)
    assert "".join(writes) == text
    assert len(writes) <= len(text) // cli._BATCH + 1


def test_construct_formats_each_member_when_the_writer_reaches_it(
        monkeypatch):
    # the checks go out in the first batch, and a member's coefficient
    # strings are built only when the writer reaches its row: at each
    # write, no member is formatted whose row the text so far does not begin
    pp, D = ParamPoint("L", g=F(7, 3)), IndexSet.parse("L", "1II,2II")
    events = []
    to_strings = Poly.to_strings

    def recorded(self):
        events.append(("strings", self))
        return to_strings(self)

    monkeypatch.setattr(Poly, "to_strings", recorded)
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(
        write=lambda text: events.append(("write", text)),
        flush=lambda: None))
    assert main(["construct", "--family", "L", "--g", "7/3", "--indices",
                 "1II,2II", "--nmax", "40"]) == 0
    monkeypatch.undo()
    members = [mi_poly(pp, D, n, check_leading=False) for n in range(41)]

    def rows_begun(text):
        start = text.find('"members": [')
        return 0 if start < 0 else text.count("{", start)

    written, formatted = "", 0
    for kind, what in events:
        if kind == "strings":
            formatted += any(what is p for p in members)
        else:
            if not written:   # the first batch holds every check
                assert what.startswith('{\n  "checks": [')
                assert '\n  "config": {' in what
            written += what
            assert formatted <= rows_begun(written), len(written)
    assert formatted == rows_begun(written) == len(members)


# sha256 of stdout for --format json, text and latex; --latex FILE writes
# the latex bytes to FILE and prints the json ones
_CONSTRUCT_PINNED = [
    (["--family", "L", "--g", "7/3", "--indices", "1II,2II", "--nmax", "40"],
     0, "ff3b57f5e1db66db47b0357d1934955c3f597ee5eb0a25dff0bf41676357ac8f",
     "6cc265d643876fe0e3a659af180fc940175825304fbed445587924f30eed1a8f",
     "19c5693cbe9a058aaf214b954ca5ceb34071d017a2aad076fb69fe7b9512d45f"),
    # members present, checks failing
    (["--family", "L", "--g", "-3/2", "--indices", "2II"],
     1, "b0d86c3dd804b38b816e5fc6daab2a7f5fe27bb93c04a2a3a35454b5a42f83f6",
     "c6f9953e1a4edd1294781a3777cb8e78ffeea2c5c5e73697367f7ef738af0baf",
     "82cf8c0796409dd2becabe9f9ff4615e3775a820db7311aced76c38a720faaa4"),
    # no members
    (["--family", "J", "--g", "-1", "--h", "2", "--indices", "1I",
      "--nmax", "1"],
     1, "e9fbc1c47190a5b59aebfd40a1f712b14a326f9162322ce070651d653cb57095",
     "92ef401a4124225b738cc3d8d686c98a56f487894051e2be440a49226c876670",
     "2e9ea274da3d855c629f5ddb15d550b4b21b4b3a1cea91e409a5e944a6a2e554"),
    # the golden factorization
    (["--family", "L", "--g", "-1/2", "--indices", "1I,2II"],
     1, "149b7e3f3428fb735f7c51f2e776e71dff026451c6b8ab584f0e9260660d871b",
     "f03f9d90d2e61e481f65348fb83b77aae3e051789c2cd8715489f8dccc441025",
     "3e2f4d501b8ed6ce3d3a90c61722b0733f2bfbb2850161d5ad0cf6ee6d286439"),
]


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _assert_pinned(capsys, tmp_path, argv, status, json_sha, text_sha,
                   latex_sha):
    clear_library_caches()
    for fmt, want in (("json", json_sha), ("text", text_sha),
                      ("latex", latex_sha)):
        assert main([*argv, "--format", fmt]) == status
        assert _sha(capsys.readouterr().out) == want, fmt
    target = tmp_path / "fragment.tex"
    assert main([*argv, "--latex", str(target)]) == status
    assert _sha(capsys.readouterr().out) == json_sha
    assert _sha(target.read_text()) == latex_sha


@pytest.mark.parametrize("argv,status,json_sha,text_sha,latex_sha",
                         _CONSTRUCT_PINNED, ids=["L-7/3", "L-3/2", "J-1",
                                                 "L-1/2"])
def test_construct_output_is_pinned(capsys, tmp_path, argv, status,
                                    json_sha, text_sha, latex_sha):
    _assert_pinned(capsys, tmp_path, ["construct", *argv], status,
                   json_sha, text_sha, latex_sha)


# the same forms for both golden recurrences, an inadmissible --raw-X, an
# admissible one, one whose direct route leaves a residue at a point the
# genericity check accepts, and every verify suite; both golden runs pass
# the same named checks, so their text is the same
_RECURRENCE_VERIFY_PINNED = [
    (["recurrence", "--family", "L", "--g", "2", "--indices", "1I"],
     0, "6da859ba8515ab103366027cf1914ff054fa7195ea680c6bdb33c94cd95c3e74",
     "a4279f47acc3a12d3d1a3be65f9ff4b77d7ed0ea83afef0aa88f955ecf28789d",
     "c409ecb3da3bdfe3f29fff0b5030549b680d556db12153831fdc20d64372e0c5"),
    (["recurrence", "--family", "J", "--g", "7/3", "--h", "9/4",
      "--indices", "1I"],
     0, "2ba82ed96737fc281f2c922c19943a6db3364400fda8d65c2f3fd6f4343aec18",
     "a4279f47acc3a12d3d1a3be65f9ff4b77d7ed0ea83afef0aa88f955ecf28789d",
     "eba7f769ace17935eaefd57246266d39b7395b8d914baea1885b871aa83ddcff"),
    (["recurrence", "--family", "L", "--g", "7/3", "--indices", "1I",
      "--raw-X", "0,1"],
     1, "d764b5c764094bc5405355847bf07d94ce577401624dcc77e7e07c38307ce1fd",
     "806fd263fd678456d32ef540dd42af428185784de695c65ffdf244e225c91a4e",
     "5ce046c049814e9787fc74f92ddc9a2ff23e97401ea52f9c53fd2221fbf860d4"),
    (["recurrence", "--family", "L", "--g", "7/3", "--indices", "1I",
      "--raw-X", "0,17/6,1/2", "--nmax", "5"],
     0, "d7f8f218f97a7fcda1f8cde0f45839df38e6a73fdfa121be05676bd5bf7460db",
     "e1b9b9d31eaf330084f4b7aa2d76d4d9333081504b5561911b5382c2de649db0",
     "d9121ae871e6f539a554e92f0940ae1d6329093db6e743c3d325287719327089"),
    (["recurrence", "--family", "L", "--g", "-1/2", "--indices", "1I",
      "--raw-X", "0,1", "--nmax", "2"],
     1, "94c253c0dd9ce138bc5bc8f676f335df8f7fadf63f7d873b8602a75e283b89ea",
     "a5f8b650688949c8442600793236d6caab5dfb77a4140c4b4918d6cc03bd7bc7",
     "b5e9c1495da952ea2284f6e5fcc6ad1a33e09c63d4f8e86c6bc2114447ca88d9"),
    (["verify", "--suite", "all", "--samples", "1", "--nmax", "2"],
     0, "48ee96b57718b7921d05c02a26154c8422e2205ee0eeecd1acf9d393a81647ad",
     "d7a98bacd791f532b832d70ac0d39ed1c460838398056a80fe42da7c9d17e248",
     "46ae26d5893a57b0c5cb3e04011651e9ec9232bb6515b8f96b24d3ed18c0f67b"),
]


@pytest.mark.parametrize("argv,status,json_sha,text_sha,latex_sha",
                         _RECURRENCE_VERIFY_PINNED,
                         ids=["L-golden", "J-golden", "raw-X",
                              "raw-X-admissible", "raw-X-residue",
                              "verify"])
def test_recurrence_and_verify_output_is_pinned(
        capsys, tmp_path, argv, status, json_sha, text_sha, latex_sha):
    _assert_pinned(capsys, tmp_path, argv, status, json_sha, text_sha,
                   latex_sha)


@pytest.mark.parametrize("fmt", ["json", "text", "latex", "file"])
def test_every_format_is_written_in_bounded_batches(monkeypatch, fmt):
    # every format and destination goes through one writer: its bytes are
    # the pinned ones, no write exceeds _BATCH plus the largest piece, and
    # the LaTeX fragment is never written whole
    argv, status, *shas = _CONSTRUCT_PINNED[0]
    want = dict(zip(["json", "text", "latex", "file"], [*shas, shas[2]]))
    args = cli._parse_args(["construct", *argv, "--format",
                            "json" if fmt == "file" else fmt])
    doc, code = cli.cmd_construct(args)
    assert code == status
    shown = "latex" if fmt == "file" else fmt
    largest = max(map(len, cli._pieces(doc, shown)))
    writes, stdout = [], []

    class Fragment:   # the --latex FILE handle
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def write(self, text):
            writes.append(text)

    if fmt == "file":
        args.latex = "fragment.tex"
        monkeypatch.setattr(cli, "open", lambda *a, **k: Fragment(),
                            raising=False)
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(
        write=(stdout if fmt == "file" else writes).append))
    cli._emit(doc, args)
    monkeypatch.undo()
    assert _sha("".join(writes)) == want[fmt]
    if fmt == "file":
        assert _sha("".join(stdout)) == want["json"]
    assert all(len(w) <= cli._BATCH + largest for w in writes)
    assert all(len(w) >= cli._BATCH for w in writes[:-1])
    if shown == "latex":
        assert sum("P_{" in w for w in writes) > 1


@pytest.mark.parametrize("nmax", ["1", "40"])
def test_closed_stdout_exits_quietly(nmax):
    # at nmax 1 the document fits the stdout buffer and the closed pipe
    # shows at the flush; at nmax 40 it shows in the middle of the writes
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mipoly.cli", "construct", "--family",
             "L", "--g", "7/3", "--indices", "1I", "--nmax", nmax],
            stdout=write, stderr=subprocess.PIPE, env=_env_with_src(),
            text=True, timeout=60)
    finally:
        os.close(write)
    assert cli.STDOUT_CLOSED not in (0, 1, 2)
    assert proc.returncode == cli.STDOUT_CLOSED
    assert proc.stderr == ""   # no traceback, no "Exception ignored"


def test_console_entry_freezes_the_collector_before_exit():
    script = (
        "import gc, sys\n"
        "from mipoly.cli import entry\n"
        "sys.argv = ['mipoly', 'construct', '--family', 'L', '--g', '7/3',\n"
        "            '--indices', '1I', '--nmax', '2']\n"
        "try:\n"
        "    entry()\n"
        "except SystemExit as stop:\n"
        "    print(stop.code, gc.get_freeze_count(), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=_env_with_src(), capture_output=True, text=True,
                          timeout=60)
    code, frozen = proc.stderr.split()
    assert code == "0" and int(frozen) > 0
    assert json.loads(proc.stdout)["results"]["xi"] == ["17/6", "1"]


@pytest.mark.parametrize("argv, want", [
    (["construct", "--family", "L", "--g", "7/3", "--indices", "1I",
      "--nmax", "2"], 0),
    (["recurrence", "--family", "L", "--g", "-1/2", "--indices", "1I",
      "--raw-X", "0,1", "--nmax", "2"], 1),
    (["construct", "--family", "L", "--indices", "1I"], 2),
    (["--help"], 0),
], ids=["construct", "exit-1", "exit-2", "help"])
def test_module_run_matches_in_process_main(capsys, argv, want):
    # python -m mipoly.cli exits through entry(); main() in this process
    # gives the same bytes and code and leaves the collector unfrozen
    assert gc.get_freeze_count() == 0
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == want
    assert gc.get_freeze_count() == 0
    proc = subprocess.run([sys.executable, "-m", "mipoly.cli", *argv],
                          env=_env_with_src(), capture_output=True,
                          timeout=60)
    assert proc.returncode == code
    assert proc.stdout == out.encode()
    assert proc.stderr == err.encode()
