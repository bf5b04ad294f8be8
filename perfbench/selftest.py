"""Self-test of the benchmark, run from the root of a source checkout:

    python3 perfbench/selftest.py

1. A corrupted expected digest makes its item fail, so fail_ratio > 0,
   while the other items of the pass still pass.
2. The tracer sees cross-module calls, and the trace sanity counts hold
   exactly: Theta is built 2 (nmax + 1) times and flat_map runs nmax + 1
   times per recurrence item; construct and the operator battery never
   reach shiftalg, and construct never reaches diffop.  These counts
   describe the seed commit; a change that builds Theta once, say, moves
   them on purpose.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import Bench  # noqa: E402


def _bench(workload: str, items: list) -> Bench:
    bench = Bench(Path.cwd(), workload, seed=0, deadline=time.perf_counter() + 150)
    bench.items = items
    return bench


def corrupted_digest_fails() -> None:
    bench = Bench(Path.cwd(), "construct-cli", seed=0,
                  deadline=time.perf_counter() + 150)
    victim = " ".join(bench.items[0])
    assert victim in bench.expected, "seed 0 items must be recorded"
    bench.expected = dict(bench.expected, **{victim: "0" * 64})
    p = bench.run_pass(traced=False)
    assert p.attempted == len(bench.items)
    assert len(p.failures) == 1 and p.failures[0].startswith(victim), p.failures
    assert len(p.failures) / p.attempted > 0
    assert p.peak_kb > 0


def trace_sanity() -> None:
    nmax = 3
    rec = ["recurrence", "--family", "L", "--g", "7/3", "--indices", "1I,2II",
           "--y", "0,1", "--nmax", str(nmax)]
    p = _bench("recurrence-cli", [rec]).run_pass(traced=True)
    assert not p.failures, p.failures
    t = p.trace
    assert t["recurrence.theta_op.calls"] == 2 * (nmax + 1), t["recurrence.theta_op.calls"]
    assert t["shiftalg.flat_map.calls"] == nmax + 1, t["shiftalg.flat_map.calls"]
    # mindexed and diffop call wronskian_rows through their own bindings
    assert t["gauged.wronskian_rows.calls"] > 0
    assert t["gauged.wronskian_rows.cells"] >= 4 * t["gauged.wronskian_rows.calls"]
    assert t["mindexed.mi_poly.hits"] > 0 and t["exact.poly_mul.calls"] > 0
    # one span per traced non-exact call, none for the aggregated exact layer
    (_, spans), = p.spans
    assert sum(1 for s in spans if s[1] == "recurrence.theta_op") == 2 * (nmax + 1)
    assert not any(s[1].startswith("exact.") for s in spans)

    con = ["construct", "--family", "J", "--g", "7/3", "--h", "9/4",
           "--indices", "1I,2II", "--nmax", "6"]
    p = _bench("construct-cli", [con]).run_pass(traced=True)
    assert not p.failures, p.failures
    for name in ("shiftalg.flat_map", "shiftalg.opmatrix_mul",
                 "diffop.compose", "diffop.apply"):
        assert p.trace[f"{name}.calls"] == 0, name
    assert p.trace["mindexed.mi_poly.hits"] == 0
    assert p.trace["mindexed.mi_poly.calls"] == 7

    p = _bench("operator-battery", [{"family": "L", "indices": "1I,2II"}]).run_pass(traced=True)
    assert not p.failures, p.failures
    assert p.trace["shiftalg.flat_map.calls"] == 0
    assert p.trace["diffop.compose.calls"] > 0


def main() -> int:
    if not (Path.cwd() / "src" / "mipoly").is_dir():
        print("run from the root of a source checkout", file=sys.stderr)
        return 2
    for test in (corrupted_digest_fails, trace_sanity):
        t0 = time.perf_counter()
        test()
        print(f"PASS {test.__name__} ({time.perf_counter() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
