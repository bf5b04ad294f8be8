"""Command-line interface: documents, exit codes, golden comparisons.

Every invocation goes through main(argv) so the tests see exactly what a
shell user sees; stdout is parsed back as JSON and compared exactly.
"""

import json
from fractions import Fraction as F

import pytest

from mipoly.cli import main
from mipoly.exact import rat_str
from mipoly.recurrence import theta_op


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


def test_recurrence_builds_theta_once(capsys):
    theta_op.cache_clear()
    code, _ = run_json(capsys, ["recurrence", "--family", "L", "--g", "7/3",
                                "--indices", "1I,2II", "--y", "0,1",
                                "--nmax", "3"])
    assert code == 0
    assert theta_op.cache_info().misses == 1


def test_recurrence_names_identically_zero_member(capsys):
    code, doc = run_json(capsys, ["recurrence", "--family", "L",
                                  "--g", "-3/2", "--indices", "2II"])
    assert code == 1
    row = [c for c in doc["checks"] if c["name"] == "genericity"][0]
    assert "is identically zero" in row["detail"]
    assert "inf" not in row["detail"]


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


def test_verify_families_and_mindexed(capsys):
    code, doc = run_json(capsys, ["verify", "--suite", "families",
                                  "--samples", "2", "--nmax", "6"])
    assert code == 0
    code, doc = run_json(capsys, ["verify", "--suite", "mindexed",
                                  "--samples", "2", "--nmax", "4"])
    assert code == 0
    assert doc["results"]["suites"]["mindexed"]["fail"] == 0


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


def test_text_format(capsys):
    code = main(["construct", "--family", "L", "--g", "7/3",
                 "--indices", "1I", "--format", "text", "--nmax", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("mipoly construct")
    assert "PASS" in out
