"""One pass of the operator battery, in a fresh interpreter.

    python3 perfbench/battery.py TRACE ITEMS_JSON

ITEMS_JSON is a list of {"family", "indices"}; TRACE is 0 or 1.  Each
index set goes through the operator identities of the acceptance
battery for n <= 8 at the battery's parameter point: intertwining,
composition, eigen, ladder and the Wronskian form of the backward
operator.  Every identity is checked exactly; the first one that fails
is reported with its item and the pass goes on.  Prints one JSON object
{"items": [{"indices", "family", "seconds", "error", "spans"}],
"trace": ..., "peak_kb": ...}; "spans" and "trace" are null when TRACE is
0, and "peak_kb" is the peak resident set of this process.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from typing import Optional

from cli_item import peak_kb
from tracer import Tracer
from workloads import BATTERY_NMAX, BATTERY_POINTS

PROBE = [3, -2, 1]


def check_set(family: str, indices: str) -> Optional[str]:
    """Name of the first identity that fails for this index set, or None."""
    from mipoly import diffop, exact, families, mindexed

    g, h = BATTERY_POINTS[family]
    pp = exact.ParamPoint(family, g=Fraction(g),
                          h=None if h is None else Fraction(h))
    D = mindexed.IndexSet.parse(family, indices)
    RatFunc, mi_poly = exact.RatFunc, mindexed.mi_poly
    probe = exact.Poly(PROBE)
    fhat, bhat = diffop.forward_op(pp, D), diffop.backward_op(pp, D)
    H = diffop.htilde_op(pp, D)
    bf, fb = bhat.compose(fhat), fhat.compose(bhat)
    pp_up = families.delta_shift(pp)
    down = diffop.single_step_forward(pp, D)
    up = diffop.single_step_backward(pp, D)
    if mi_poly(pp, D, 0) != mindexed.plusdelta_constant(pp, D) * mindexed.xi_poly(pp_up, D):
        return "lowest_member"
    if diffop.backward_apply_via_wronskian(pp, D, probe) != bhat.apply(probe):
        return "backward_wronskian probe"
    for n in range(BATTERY_NMAX + 1):
        Pn, PDn = families.classical_poly(pp, n), mi_poly(pp, D, n)
        pi = mindexed.pi_factor(pp, D, n)
        checks = (
            ("forward", fhat.apply(Pn) == RatFunc(PDn)),
            ("backward", bhat.apply(PDn) == RatFunc(pi * Pn)),
            ("backward_forward", bf.apply(Pn) == RatFunc(pi * Pn)),
            ("forward_backward", fb.apply(PDn) == RatFunc(pi * PDn)),
            ("eigen", H.apply(PDn) == RatFunc(families.energy(pp, n) * PDn)),
            ("backward_wronskian",
             diffop.backward_apply_via_wronskian(pp, D, PDn) == bhat.apply(PDn)),
        )
        for name, ok in checks:
            if not ok:
                return f"{name} n={n}"
    for n in range(1, BATTERY_NMAX + 1):
        f_n = diffop.forward_step_eigen(pp, n)
        b_prev = diffop.backward_step_eigen(pp, n - 1)
        checks = (
            ("ladder_down", down.apply(mi_poly(pp, D, n))
             == RatFunc(f_n * mi_poly(pp_up, D, n - 1))),
            ("ladder_up", up.apply(mi_poly(pp_up, D, n - 1))
             == RatFunc(b_prev * mi_poly(pp, D, n))),
            ("ladder_energy", f_n * b_prev == families.energy(pp, n)),
        )
        for name, ok in checks:
            if not ok:
                return f"{name} n={n}"
    return None


def main(argv) -> int:
    traced, items = argv[0] == "1", json.loads(argv[1])
    import mipoly.cli  # noqa: F401  -- load every layer before tracing

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    out = []
    for item in items:
        first_span = len(tracer.spans) if tracer is not None else 0
        t0 = time.perf_counter()
        try:
            error = check_set(item["family"], item["indices"])
        except Exception as exc:  # a crashed item is a failed item
            error = f"{type(exc).__name__}: {exc}"
        out.append(dict(item, seconds=time.perf_counter() - t0, error=error,
                        spans=tracer.span_records(first_span) if tracer is not None else None))
    print(json.dumps({"items": out,
                      "trace": tracer.summary() if tracer is not None else None,
                      "peak_kb": peak_kb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
