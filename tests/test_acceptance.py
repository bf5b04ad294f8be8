"""End-to-end acceptance battery: ten guarantees, one test each.

Each test prints a single ``PASS <nn> <label> (<seconds>)`` line (visible
under ``pytest -s``); a failing guarantee surfaces as the usual pytest
FAILED line instead.  Expected values are restated from closed forms,
here or in the tests' ``oracles``, rather than imported from the
library, so a regression cannot hide behind a shared helper, and where
a wall-clock budget is part of the guarantee it is asserted, not just
reported.  Tests 5 to 9 instead run the named checks of ``verify``'s
registry, all seven suites, and assert that every row passes, so a
failure prints each failing row with its witness.

The battery runs over every index set with at most three seeds drawn
from {1, 2, 3} x {I, II} (42 sets per parametric family) at one generic
Laguerre and one generic Jacobi parameter point.
"""

import itertools
import json
import time
from fractions import Fraction

import pytest

from mipoly import checks, verify
from mipoly.cli import main as cli_main
from mipoly.exact import ETA, ParamPoint, Poly, integrate_from_zero
from mipoly.gauged import NotPolynomial
from mipoly.mindexed import IndexSet, xi_poly
from mipoly.recurrence import theta_op, x_from_y
from mipoly.shiftalg import flat_map

from oracles import (LAGUERRE_QUARTIC_FACTORIZATIONS, jacobi_single_seed_row,
                     jacobi_two_seed_quartic, laguerre_single_seed_row,
                     laguerre_two_seed_quartic)

F = Fraction

HERMITE = ParamPoint("H")
LG = ParamPoint("L", g=F(7, 3))
JG = ParamPoint("J", g=F(7, 3), h=F(9, 4))

SEED_YS = [Poly.one(), ETA, Poly([1, 0, 1])]
NMAX = 8


def _all_sets(family):
    """Every index set over seeds {1, 2, 3} with at most three seeds."""
    sets = []
    for r1 in range(4):
        for type1 in itertools.combinations((1, 2, 3), r1):
            for r2 in range(4 - r1):
                for type2 in itertools.combinations((1, 2, 3), r2):
                    sets.append(IndexSet(family, type1, type2))
    return sets


BATTERY = [(LG, D) for D in _all_sets("L")] + [(JG, D) for D in _all_sets("J")]


def _report(num, label, t0, budget=None):
    elapsed = time.perf_counter() - t0
    if budget is not None:
        assert elapsed < budget, (
            f"{label}: {elapsed:.2f}s exceeded the {budget:.0f}s budget")
    print(f"PASS {num:2d} {label} ({elapsed:.2f}s)")


def _all_pass(report, rows):
    """Every row of a registry suite passes; the failing rows, each with
    its witness, are the assert message."""
    failed = [f"{row.name}: {row.detail}" for row in report if not row.ok]
    assert not failed, "\n".join(failed)
    assert len(report) == rows


# -- 1, 2: the two-seed quartic denominators --------------------------------


def test_01_laguerre_two_seed_quartic():
    t0 = time.perf_counter()
    D = IndexSet("L", (1,), (2,))
    for g in (F(7, 3), F(9, 4), F(1, 5), F(1, 4), F(3), F(11, 6), F(-3, 4)):
        xi = xi_poly(ParamPoint("L", g=g), D)
        assert -2 * xi == laguerre_two_seed_quartic(g), g
    # special parameters where the quartic factors over the rationals
    for g, product in LAGUERRE_QUARTIC_FACTORIZATIONS:
        xi = xi_poly(ParamPoint("L", g=g), D)
        assert -2 * xi == product, g
        assert -2 * xi == laguerre_two_seed_quartic(g), g
    _report(1, "Laguerre two-seed quartic + factorizations", t0, budget=1.0)


def test_02_jacobi_two_seed_quartic():
    t0 = time.perf_counter()
    D = IndexSet("J", (1,), (2,))
    pairs = [(F(7, 3), F(9, 4)), (F(8, 3), F(7, 4)), (F(13, 4), F(10, 3)),
             (F(16, 5), F(9, 4)), (F(18, 5), F(4, 3)), (F(5, 2), F(2, 3))]
    for g, h in pairs:
        xi = xi_poly(ParamPoint("J", g=g, h=h), D)
        assert 64 * xi == jacobi_two_seed_quartic(g, h), (g, h)
    _report(2, "Jacobi two-seed quartic in (g+h, g-h)", t0, budget=1.0)


# -- 3, 4: single-seed recurrence tables from all three routes ---------------


def test_03_laguerre_recurrence_tables():
    t0 = time.perf_counter()
    D = IndexSet("L", (1,), ())
    for g in (F(2), F(7, 3), F(9, 4), F(9, 2)):
        pp = ParamPoint("L", g=g)
        routes = checks.routes(pp, D, x_from_y(pp, D, Poly.one()))
        for n in range(13):
            want = laguerre_single_seed_row(g, n)
            for route, at in routes:
                assert at(n) == want, (g, n, route)
    _report(3, "Laguerre single-seed tables, three routes, n <= 12", t0,
            budget=5.0)


def test_04_jacobi_recurrence_tables():
    t0 = time.perf_counter()
    D = IndexSet("J", (1,), ())
    for g, h in ((F(7, 3), F(9, 4)), (F(3), F(5, 2)), (F(13, 5), F(7, 2)),
                 (F(5, 2), F(2, 3))):
        pp = ParamPoint("J", g=g, h=h)
        X = x_from_y(pp, D, Poly.one())
        routes = checks.routes(pp, D, X)
        for n in range(11):
            want = jacobi_single_seed_row(g, h, n)
            for route, at in routes:
                assert at(n) == want, (g, h, n, route)
        # matrix route: the image bandwidth is 2, so every entry three or
        # more rows below the diagonal must cancel exactly
        flat = flat_map(theta_op(pp, D, X), pp)
        for n in range(14):
            assert min(flat.column(n)) >= n - 2, (g, h, n)
    _report(4, "Jacobi single-seed tables, three routes, n <= 10", t0,
            budget=30.0)


# -- 5: the upper-triangle cross terms vanish identically --------------------


def test_05_cross_terms_vanish():
    t0 = time.perf_counter()
    points = [
        HERMITE,
        ParamPoint("L", g=F(7, 3)), ParamPoint("L", g=F(5, 4)),
        ParamPoint("L", g=F(3)),
        ParamPoint("J", g=F(7, 3), h=F(9, 4)),
        ParamPoint("J", g=F(8, 3), h=F(7, 4)),
        ParamPoint("J", g=F(16, 5), h=F(9, 4)),
    ]
    _all_pass(verify.bnk(points, 20), len(points))
    _report(5, "commutator cross terms vanish, n <= 20, all families", t0,
            budget=10.0)


# -- 6: constant-coefficient closure over the full battery -------------------


def test_06_recurrence_closure_battery():
    t0 = time.perf_counter()
    # per (point, set, Y): the three routes agree, and every row lies in
    # the band |k| <= L with its extreme coefficients nonzero
    _all_pass(verify.recurrence(BATTERY, SEED_YS, NMAX),
              len(BATTERY) * len(SEED_YS))
    # inadmissible X's must fail loudly, not close approximately
    for pp in (LG, JG):
        for D in (IndexSet(pp.family, (1,), ()),
                  IndexSet(pp.family, (1,), (2,))):
            with pytest.raises(NotPolynomial):
                theta_op(pp, D, ETA)    # X' = 1 is no multiple of Xi
            # square-free X' of the right degree but the wrong polynomial
            xprime = Poly([1] + [0] * (D.ell - 1) + [1])  # eta^ell + 1
            assert xprime.monic() != xi_poly(pp, D).monic()
            with pytest.raises(NotPolynomial):
                theta_op(pp, D, integrate_from_zero(xprime))
    _report(6, "closure over 84 index sets x 3 seeds Y, n <= 8", t0,
            budget=120.0)


# -- 7: intertwining, eigen and ladder identities over the battery -----------


def test_07_operator_identities_battery():
    t0 = time.perf_counter()
    # the lowest member, then per set one intertwining and one ladder row
    _all_pass(verify.mindexed(BATTERY, NMAX), len(BATTERY))
    _all_pass(verify.diffop(BATTERY, NMAX), 2 * len(BATTERY))
    _report(7, "intertwining/eigen/ladder identities, 84 sets, n <= 8", t0)


# -- 8: the determinant identity suite ---------------------------------------


def test_08_wronskian_identity_suite():
    t0 = time.perf_counter()
    _all_pass(verify.wronskian_identities_check(seed=20260814, trials=50), 4)
    _report(8, "determinant identities, 50 seeded instances each", t0)


# -- 9: substitution calculus, commutator and power formulas -----------------


def test_09_shift_algebra_calculus():
    t0 = time.perf_counter()
    # seven star rows, then two commutator and six power rows per point
    _all_pass(verify.shiftalg([HERMITE, LG, JG], 10, 13, 12), 31)
    _report(9, "star/commutator/power identities", t0)


# -- 10: the verify CLI is deterministic and clean ---------------------------


def test_10_cli_verify_deterministic(capsys):
    t0 = time.perf_counter()
    argv = ["verify", "--suite", "all", "--seed", "5"]
    rc1 = cli_main(list(argv))
    out1 = capsys.readouterr().out
    rc2 = cli_main(list(argv))
    out2 = capsys.readouterr().out
    assert rc1 == 0 and rc2 == 0
    assert out1 == out2   # byte-identical reruns
    doc = json.loads(out1)
    assert doc["checks"]
    assert all(c["status"] == "pass" for c in doc["checks"])
    _report(10, "verify CLI: exit 0 and byte-identical reruns", t0)
