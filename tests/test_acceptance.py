"""End-to-end acceptance battery: ten guarantees, one test each.

Each test prints a single ``PASS <nn> <label> (<seconds>)`` line (visible
under ``pytest -s``); a failing guarantee surfaces as the usual pytest
FAILED line instead.  Expected values are restated locally from closed
forms rather than imported from the library, so a regression cannot hide
behind a shared helper, and where a wall-clock budget is part of the
guarantee it is asserted, not just reported.

The battery runs over every index set with at most three seeds drawn
from {1, 2, 3} x {I, II} (42 sets per parametric family) at one generic
Laguerre and one generic Jacobi parameter point.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import pytest

from mipoly.cli import main as cli_main
from mipoly.diffop import (
    DiffOp,
    backward_apply_via_wronskian,
    backward_op,
    backward_step_eigen,
    forward_op,
    forward_step_eigen,
    htilde_op,
    single_step_backward,
    single_step_forward,
)
from mipoly.exact import (
    ETA,
    ParamPoint,
    Poly,
    RatFunc,
    integrate_from_zero,
    pochhammer,
)
from mipoly.families import classical_poly, delta_shift, energy
from mipoly.gauged import NotPolynomial, wronskian_identities_check
from mipoly.mindexed import (
    IndexSet,
    mi_poly,
    pi_factor,
    plusdelta_constant,
    xi_poly,
)
from mipoly.recurrence import (
    recurrence_direct,
    recurrence_order,
    recurrence_via_theta,
    theta_from_x,
    theta_op,
)
from mipoly.shiftalg import (
    OpMatrix,
    bnk_value,
    delta_matrix,
    flat_map,
    gamma_matrix,
    power_formulas_check,
    recurrence_bispectral,
    star_identities_check,
)

from oracles import op_add, op_derivative

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


# -- 1, 2: the two-seed quartic denominators --------------------------------


def _laguerre_two_seed_quartic(g):
    # -2 Xi = eta^4 + 2(2g-3) eta^3 + (g-5/2)(6g-1) eta^2
    #         + 2 (g-5/2)_2 (2g+1) eta + (g-5/2)_4
    return Poly([
        pochhammer(g - F(5, 2), 4),
        2 * pochhammer(g - F(5, 2), 2) * (2 * g + 1),
        (g - F(5, 2)) * (6 * g - 1),
        2 * (2 * g - 3),
        1,
    ])


def test_01_laguerre_two_seed_quartic():
    t0 = time.perf_counter()
    D = IndexSet("L", (1,), (2,))
    for g in (F(7, 3), F(9, 4), F(1, 5), F(3), F(11, 6), F(-3, 4)):
        xi = xi_poly(ParamPoint("L", g=g), D)
        assert -2 * xi == _laguerre_two_seed_quartic(g), g
    # special parameters where the quartic factors over the rationals
    factored = [
        (F(-1, 2), Poly([0, 0, 1]) * Poly([-2, 1]) * Poly([-6, 1])),
        (F(3, 2), Poly([0, 0, 1]) * Poly([-8, 0, 1])),
        (F(5, 2), Poly([0, 0, 0, 1]) * Poly([4, 1])),
        (F(-13, 2), Poly([-6, 1]) ** 3 * Poly([-14, 1])),
    ]
    for g, product in factored:
        xi = xi_poly(ParamPoint("L", g=g), D)
        assert -2 * xi == product, g
        assert -2 * xi == _laguerre_two_seed_quartic(g), g
    _report(1, "Laguerre two-seed quartic + factorizations", t0, budget=1.0)


def _jacobi_two_seed_quartic(a, b):
    # 64 Xi written in the combinations a = g + h, b = g - h
    return Poly([
        a ** 3 * (a - 4) + 2 * a * a * (b - 3) - 4 * a * (b - 5)
        - (b - 3) * (b - 1),
        4 * (a - 1) * (b - 1) * (a * (a - 2) + b - 3),
        2 * (b - 1) * (a * (a - 2) * (3 * b - 4) + (b + 4) * (b - 3)),
        4 * (a - 1) * (b - 3) * (b - 1) * b,
        (b - 4) * (b - 3) * (b - 1) * (b + 2),
    ])


def test_02_jacobi_two_seed_quartic():
    t0 = time.perf_counter()
    D = IndexSet("J", (1,), (2,))
    pairs = [(F(7, 3), F(9, 4)), (F(8, 3), F(7, 4)), (F(13, 4), F(10, 3)),
             (F(16, 5), F(9, 4)), (F(18, 5), F(4, 3))]
    for g, h in pairs:
        xi = xi_poly(ParamPoint("J", g=g, h=h), D)
        assert 64 * xi == _jacobi_two_seed_quartic(g + h, g - h), (g, h)
    _report(2, "Jacobi two-seed quartic in (g+h, g-h)", t0, budget=1.0)


# -- 3, 4: single-seed recurrence tables from all three routes ---------------


def _laguerre_row(g, n):
    return {
        2: F(1, 2) * (n + 1) * (n + 2),
        1: -(n + 1) * (2 * g + 2 * n + 3),
        0: F(1, 8) * (24 * n * n + 4 * (10 * g + 11) * n
                      + (2 * g + 1) * (6 * g + 13)),
        -1: -F(1, 2) * (2 * g + 2 * n - 1) * (2 * g + 2 * n + 3),
        -2: F(1, 8) * (2 * g + 2 * n - 3) * (2 * g + 2 * n + 3),
    }


def test_03_laguerre_recurrence_tables():
    t0 = time.perf_counter()
    D = IndexSet("L", (1,), ())
    for g in (F(2), F(7, 3), F(9, 4)):
        pp = ParamPoint("L", g=g)
        for n in range(13):
            want = {k: v for k, v in _laguerre_row(g, n).items()
                    if n + k >= 0}
            assert recurrence_direct(pp, D, Poly.one(), n) == want, (g, n)
            assert recurrence_via_theta(pp, D, Poly.one(), n) == want, (g, n)
            assert recurrence_bispectral(pp, D, Poly.one(), n) == want, (g, n)
    _report(3, "Laguerre single-seed tables, three routes, n <= 12", t0,
            budget=5.0)


def _jacobi_row(g, h, n):
    a, b = g + h, g - h
    return {
        2: (n + 1) * (n + 2) * (b + 2) * pochhammer(a + n, 2)
           * (2 * h + 2 * n - 3)
           / (pochhammer(a + 2 * n, 4) * (2 * h + 2 * n + 1)),
        1: (n + 1) * (a - 1) * (a + n) * (2 * g + 2 * n + 3)
           * (2 * h + 2 * n - 3)
           / (pochhammer(a + 2 * n - 1, 3) * (a + 2 * n + 3)),
        0: (b + 2) / (4 * pochhammer(a + 2 * n - 2, 2)
                      * pochhammer(a + 2 * n + 1, 2))
           * (-b * (b + 4) * (2 * n * (a + n) - (a - 2) * (a - 1))
              + (a + 2 * n - 1) * (a + 2 * n + 1)
              * (2 * n * (a + n) - (a - 2) * (2 * a - 1))),
        -1: (a - 1) * (2 * g + 2 * n - 1) * (2 * g + 2 * n + 3)
            * pochhammer(h + n - F(3, 2), 2)
            / ((a + 2 * n - 3) * pochhammer(a + 2 * n - 1, 3)),
        -2: (b + 2) * (2 * g + 2 * n - 3) * (2 * g + 2 * n + 3)
            * pochhammer(h + n - F(3, 2), 2)
            / (4 * pochhammer(a + 2 * n - 3, 4)),
    }


def test_04_jacobi_recurrence_tables():
    t0 = time.perf_counter()
    D = IndexSet("J", (1,), ())
    for g, h in ((F(7, 3), F(9, 4)), (F(3), F(5, 2)), (F(13, 5), F(7, 2))):
        pp = ParamPoint("J", g=g, h=h)
        for n in range(11):
            want = {k: v for k, v in _jacobi_row(g, h, n).items()
                    if n + k >= 0}
            assert recurrence_direct(pp, D, Poly.one(), n) == want, (g, h, n)
            assert recurrence_via_theta(pp, D, Poly.one(), n) == want, \
                (g, h, n)
            assert recurrence_bispectral(pp, D, Poly.one(), n) == want, \
                (g, h, n)
        # matrix route: the image bandwidth is 2, so every entry three or
        # more rows below the diagonal must cancel exactly
        flat = flat_map(theta_op(pp, D, Poly.one()), pp)
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
    for pp in points:
        for n in range(1, 21):
            for k in range(1, n + 1):
                assert bnk_value(pp, n, k) == 0, (pp.family, n, k)
    _report(5, "commutator cross terms vanish, n <= 20, all families", t0,
            budget=10.0)


# -- 6: constant-coefficient closure over the full battery -------------------


def test_06_recurrence_closure_battery():
    t0 = time.perf_counter()
    for pp, D in BATTERY:
        for Y in SEED_YS:
            theta = theta_op(pp, D, Y)
            assert theta.is_polynomial(), (D.label(), Y)
            L = recurrence_order(D, Y)
            for n in range(NMAX + 1):
                # recurrence_direct raises NonzeroRemainder unless
                # X P_{D,n} closes exactly over the deformed family
                row = recurrence_direct(pp, D, Y, n)
                assert all(-L <= k <= L for k in row), (D.label(), Y, n)
                assert row[L] != 0, (D.label(), Y, n)
    # inadmissible X's must fail loudly, not close approximately
    for pp in (LG, JG):
        for D in (IndexSet(pp.family, (1,), ()),
                  IndexSet(pp.family, (1,), (2,))):
            with pytest.raises(NotPolynomial):
                theta_from_x(pp, D, ETA)    # X' = 1 is no multiple of Xi
            # square-free X' of the right degree but the wrong polynomial
            xprime = Poly([1] + [0] * (D.ell - 1) + [1])  # eta^ell + 1
            assert xprime.monic() != xi_poly(pp, D).monic()
            with pytest.raises(NotPolynomial):
                theta_from_x(pp, D, integrate_from_zero(xprime))
    _report(6, "closure over 84 index sets x 3 seeds Y, n <= 8", t0,
            budget=120.0)


# -- 7: intertwining, eigen and ladder identities over the battery -----------


def test_07_operator_identities_battery():
    t0 = time.perf_counter()
    probe = Poly([3, -2, 1])
    for pp, D in BATTERY:
        fhat, bhat = forward_op(pp, D), backward_op(pp, D)
        H = htilde_op(pp, D)
        bf, fb = bhat.compose(fhat), fhat.compose(bhat)
        pp_up = delta_shift(pp)
        down, up = single_step_forward(pp, D), single_step_backward(pp, D)
        # the lowest member is the shifted denominator, up to a constant
        assert mi_poly(pp, D, 0) == \
            plusdelta_constant(pp, D) * xi_poly(pp_up, D), D.label()
        # expanded backward operator == unexpanded Wronskian form
        assert backward_apply_via_wronskian(pp, D, probe) == \
            bhat.apply(probe), D.label()
        for n in range(NMAX + 1):
            Pn, PDn = classical_poly(pp, n), mi_poly(pp, D, n)
            pi = pi_factor(pp, D, n)
            assert fhat.apply(Pn) == RatFunc(PDn), (D.label(), n)
            assert bhat.apply(PDn) == RatFunc(pi * Pn), (D.label(), n)
            assert bf.apply(Pn) == RatFunc(pi * Pn), (D.label(), n)
            assert fb.apply(PDn) == RatFunc(pi * PDn), (D.label(), n)
            assert H.apply(PDn) == RatFunc(energy(pp, n) * PDn), \
                (D.label(), n)
            assert backward_apply_via_wronskian(pp, D, PDn) == \
                bhat.apply(PDn), (D.label(), n)
        for n in range(1, NMAX + 1):
            f_n = forward_step_eigen(pp, n)
            b_prev = backward_step_eigen(pp, n - 1)
            assert down.apply(mi_poly(pp, D, n)) == \
                RatFunc(f_n * mi_poly(pp_up, D, n - 1)), (D.label(), n)
            assert up.apply(mi_poly(pp_up, D, n - 1)) == \
                RatFunc(b_prev * mi_poly(pp, D, n)), (D.label(), n)
            assert f_n * b_prev == energy(pp, n), (D.label(), n)
    _report(7, "intertwining/eigen/ladder identities, 84 sets, n <= 8", t0)


# -- 8: the determinant identity suite ---------------------------------------


def test_08_wronskian_identity_suite():
    t0 = time.perf_counter()
    report = wronskian_identities_check(seed=20260814, trials=50)
    assert [name for name, _, _ in report] == [
        "common_factor", "nested_pair", "variable_change", "cofactor_minors"]
    for name, ok, detail in report:
        assert ok, (name, detail)
    _report(8, "determinant identities, 50 seeded instances each", t0)


# -- 9: substitution calculus, power formulas, normal ordering ---------------


def test_09_shift_algebra_calculus():
    t0 = time.perf_counter()
    star_report = star_identities_check(seed=13, trials=12)
    names = [name for name, _, _ in star_report]
    for expected in ("constants_add", "collapse_absorbs_left",
                     "collapse_shifts_right", "collapse_absorbs_collapse",
                     "star_associative"):
        assert expected in names
    for name, ok, detail in star_report:
        assert ok, (name, detail)
    for pp in (HERMITE, LG, JG):
        for name, ok, detail in power_formulas_check(pp, 10):
            assert ok, (pp.family, name, detail)
    # normal ordering d^j o eta^i up to i = j = 4
    for i in range(5):
        for j in range(5):
            lhs = op_derivative(j).compose(DiffOp([ETA ** i])) \
                if j else DiffOp([ETA ** i])
            expect = DiffOp([])
            for r in range(min(i, j) + 1):
                a = math.factorial(r) * math.comb(i, r) * math.comb(j, r)
                expect = op_add(expect, DiffOp([Poly.zero()] * (j - r)
                                               + [ETA ** (i - r) * a]))
            assert lhs == expect, (i, j)
    # the matrix translation reverses products: d o eta lands on
    # mat(eta) mat(d) + 1, visibly distinct from the same-order product
    d_op, eta_op = op_derivative(), DiffOp([ETA])
    ident = OpMatrix(lambda n: {n: F(1)})
    for pp in (HERMITE, LG, JG):
        flat = flat_map(d_op.compose(eta_op), pp)
        dmat, gmat = delta_matrix(pp), gamma_matrix(pp)
        same_order = dmat * gmat
        for n in range(9):
            assert flat.column(n) == (same_order + ident).column(n), \
                (pp.family, n)
            assert flat.column(n) != same_order.column(n), (pp.family, n)
            assert flat.column(n) == (gmat * dmat).column(n), (pp.family, n)
    _report(9, "star/power/ordering/translation identities", t0)


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
