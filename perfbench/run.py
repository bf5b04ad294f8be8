"""mipoly benchmark: three cold-start workloads, one closed-loop client.

    python3 perfbench/run.py --workload recurrence-cli --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the library is imported from
./src, so there is nothing to build.  Workloads (see workloads.py):

  recurrence-cli    `mipoly recurrence` invocations, one interpreter each
  operator-battery  the acceptance-battery operator identities over a
                    stratified sample of index sets, one interpreter a pass;
                    not declared in BENCHMARK.json (README.md says why)
  construct-cli     `mipoly construct` at nmax 20-40, one interpreter each

One client runs one item at a time, so at most two processes (this one
and the item) are alive at once.  A pass runs the seed's whole item list.
A run makes at least two passes, then more while the next one is
expected to end within --seconds, judged by the longest pass so far.

Every item is cold: no interpreter is reused across items (CLI) or
passes (battery).  The library keeps eight unbounded lru_cache tables,
and a reused process would turn every pass after the first into cache
hits, which no user invocation sees.  A fresh interpreter also stays
cold if a later change adds a cache that cache_clear() would not reach.

Correctness: a CLI item must exit 0, and its stdout must match the
sha256 recorded at the seed commit (digests.json) or, for an item not
recorded there, the output of its first run in this run.  A battery item
fails on the first identity that does not hold exactly.  A failure is
counted, reported on stderr with its item, and the run goes on.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes, prints the per-layer metrics named in BENCHMARK.json
and writes the traced passes' spans to SPAN_DIR/<workload>-seed<n>.jsonl.
The last line of stdout is one JSON object {correct, attempted, failed,
metrics}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from cli_item import PEAK_PREFIX  # noqa: E402
from tracer import TRACE_PREFIX  # noqa: E402

SETUP_REPEATS = 5   # import timings before each pass
HARD_LIMIT_S = 165.0   # the run must end inside 180 s, whatever happens
SPAN_DIR = ".perfbench-trace"   # under the checkout's root

END_TO_END_UNITS = {"wall_s": "s", "item_p50_s": "s", "item_p90_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics are read from BENCHMARK.json.  A metric is the tracer
# figure of the same name, except the route times below.  By suffix:
# .hit_ratio is cache hits over lookups and _s a median over the traced
# passes; any other figure is taken from the first traced pass.
ROUTE_FIGURES = {
    "route.matrix_s": "shiftalg.recurrence_bispectral.total_s",
    "route.direct_s": "recurrence.recurrence_direct.total_s",
    "route.theta_s": "recurrence.recurrence_via_theta.total_s",
}


class Pass:
    """One run of a workload's whole item list."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.attempted = 0
        self.wall_s = 0.0
        self.latencies: List[float] = []
        self.failures: List[str] = []
        self.peak_kb = 0
        self.trace: Dict[str, float] = {}
        self.spans: List[tuple] = []   # (item, span records of that item)

    def add_trace(self, figures: Dict[str, float]) -> None:
        for key, value in figures.items():
            if key == "exact.coeff_bits_max":
                self.trace[key] = max(self.trace.get(key, 0), value)
            else:
                self.trace[key] = self.trace.get(key, 0) + value


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, deadline: float):
        self.root = root
        self.workload = workload
        self.env = dict(os.environ, PYTHONPATH=str(root / "src") + (
            os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""))
        # An installed package runs from cached bytecode.  Let the first
        # import timing write the cache, so that no item compiles the
        # library, whether or not the caller's environment forbids it.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.deadline = deadline
        self.expected = json.loads((HERE / "digests.json").read_text()).get(workload, {})
        self.first_output: Dict[str, str] = {}
        self.items = workloads.items(workload, seed)

    def _spawn(self, argv: List[str]) -> subprocess.CompletedProcess:
        timeout = max(1.0, self.deadline - time.perf_counter())
        return subprocess.run([sys.executable, *argv], cwd=self.root, env=self.env,
                              capture_output=True, timeout=timeout)

    def time_imports(self, times: List[float]) -> None:
        """Append SETUP_REPEATS timings of interpreter start plus `import mipoly.cli`."""
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            proc = self._spawn(["-c", "import mipoly.cli"])
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError("cannot import mipoly.cli: "
                                   + proc.stderr.decode(errors="replace"))

    def run_pass(self, traced: bool) -> Pass:
        p = Pass(traced)
        t0 = time.perf_counter()
        if self.workload == "operator-battery":
            self._battery_pass(p)
        else:
            for argv in self.items:
                self._cli_item(p, argv)
        p.wall_s = time.perf_counter() - t0
        return p

    def _cli_item(self, p: Pass, argv: List[str]) -> None:
        key = " ".join(argv)
        p.attempted += 1
        launcher = "tracer.py" if p.traced else "cli_item.py"
        t0 = time.perf_counter()
        try:
            proc = self._spawn([str(HERE / launcher), *argv])
        except subprocess.TimeoutExpired:
            p.latencies.append(time.perf_counter() - t0)
            p.failures.append(f"{key}: killed at the run's time limit")
            return
        p.latencies.append(time.perf_counter() - t0)
        digest = hashlib.sha256(proc.stdout).hexdigest()
        want = self.expected.get(key) or self.first_output.setdefault(key, digest)
        if proc.returncode != 0:
            p.failures.append(f"{key}: exit {proc.returncode}")
        elif digest != want:
            p.failures.append(f"{key}: stdout sha256 {digest[:16]} != {want[:16]}")
        prefix = TRACE_PREFIX if p.traced else PEAK_PREFIX
        lines = proc.stderr.decode(errors="replace").splitlines()
        if not (lines and lines[-1].startswith(prefix)):
            p.failures.append(f"{key}: no {prefix.strip()} line on stderr")
        elif p.traced:
            doc = json.loads(lines[-1][len(prefix):])
            p.add_trace(doc["figures"])
            p.spans.append((key, doc["spans"]))
        else:
            p.peak_kb = max(p.peak_kb, int(lines[-1][len(prefix):]))

    def _battery_pass(self, p: Pass) -> None:
        argv = [str(HERE / "battery.py"), "1" if p.traced else "0", json.dumps(self.items)]
        p.attempted += len(self.items)
        try:
            proc = self._spawn(argv)
        except subprocess.TimeoutExpired:
            p.failures += [f"{it['family']} {it['indices']}: killed at the run's time limit"
                           for it in self.items]
            return
        if proc.returncode != 0:
            p.failures += [f"{it['family']} {it['indices']}: battery exit {proc.returncode}"
                           for it in self.items]
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            return
        doc = json.loads(proc.stdout)
        p.peak_kb = doc["peak_kb"]
        for item in doc["items"]:
            key = f"{item['family']} {item['indices']}"
            p.latencies.append(item["seconds"])
            if item["error"] is not None:
                p.failures.append(f"{key}: {item['error']}")
            if item["spans"] is not None:
                p.spans.append((key, item["spans"]))
        if doc["trace"] is not None:
            p.add_trace(doc["trace"])


def _nearest_rank(values: List[float], share: float) -> float:
    """The smallest sample with at least `share` of the sorted samples at or below it.

    Nearest rank, not interpolation: the heaviest stratum holds more than
    a tenth of every pass, so the 0.9 rank always lands inside it, however
    many passes the run made.
    """
    return values[max(0, math.ceil(share * len(values)) - 1)]


def _layer_metrics(traced: List[Pass], plain: List[Pass]) -> Dict[str, dict]:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    first = traced[0].trace
    out = {}
    for m in declared:
        metric = m["name"]
        figure = ROUTE_FIGURES.get(metric, metric)
        if metric == "trace.overhead_ratio":
            value = (statistics.median(p.wall_s for p in traced)
                     / statistics.median(p.wall_s for p in plain))
        elif metric.endswith(".hit_ratio"):
            base = figure[:-len(".hit_ratio")]
            hits, misses = first[base + ".hits"], first[base + ".misses"]
            value = hits / (hits + misses) if hits + misses else 0.0
        elif metric.endswith("_s"):
            value = statistics.median(p.trace[figure] for p in traced)
        else:
            value = first[figure]
        out[metric] = {"value": value, "unit": m["unit"]}
    return out


def _write_spans(path: Path, traced: List[Pass]) -> int:
    """Write the traced passes' spans as JSON lines; return how many.

    Spans of one item share its pass and item; id and parent are unique
    within them (-1: no traced parent).  Times are seconds from the
    start of the item's process (CLI) or of the pass's process (battery).
    """
    path.parent.mkdir(exist_ok=True)
    count = 0
    with path.open("w") as fh:
        for number, p in enumerate(traced):
            for item, records in p.spans:
                for sid, name, parent, start, end, self_s in records:
                    fh.write(json.dumps({"pass": number, "item": item, "id": sid,
                                         "parent": parent, "name": name, "start_s": start,
                                         "end_s": end, "self_s": self_s}) + "\n")
                    count += 1
    return count


def _sanity(workload: str, items: list, trace: Dict[str, float]) -> List[str]:
    """Trace counts that hold exactly at the seed commit, as report lines.

    Informational: a change that builds Theta once, say, moves them on
    purpose, so a line marked DIFFERS does not fail the run.  selftest.py
    asserts them.
    """
    def line(name, want):
        got = trace.get(name, 0)
        return f"sanity {name} = {got} (seed commit: {want}) {'ok' if got == want else 'DIFFERS'}"

    if workload == "recurrence-cli":
        rows = sum(int(argv[argv.index("--nmax") + 1]) + 1 for argv in items)
        return [line("recurrence.theta_op.calls", 2 * rows),
                line("shiftalg.flat_map.calls", rows)]
    out = [line("shiftalg.flat_map.calls", 0), line("shiftalg.opmatrix_mul.calls", 0)]
    if workload == "construct-cli":
        out += [line("diffop.compose.calls", 0), line("diffop.apply.calls", 0)]
    return out


def run(args) -> int:
    started = time.perf_counter()
    # On SIGTERM, unwind: subprocess.run kills and reaps the running item.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "mipoly" / "cli.py").is_file():
        print(f"perfbench: no mipoly source under {root / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    gen_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workloads.items(args.workload, args.seed)
        gen_times.append(time.perf_counter() - t0)
    bench = Bench(root, args.workload, args.seed, started + HARD_LIMIT_S)
    gen_s = statistics.median(gen_times)

    # Set-up is timed before every pass, so a slow spell of the shared
    # machine moves its median no more than it moves the passes.
    import_times: List[float] = []
    passes: List[Pass] = []
    window_start = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(passes) % 2 == 1
        bench.time_imports(import_times)
        passes.append(bench.run_pass(traced))
        if len(passes) < 2:   # a median needs two passes, and trace mode one of each kind
            continue
        # start another pass only if it should end inside the window
        end = time.perf_counter() + max(p.wall_s for p in passes)
        if end > min(window_start + args.seconds, started + HARD_LIMIT_S):
            break

    import_s = statistics.median(import_times)
    plain = [p for p in passes if not p.traced]
    latencies = sorted(x for p in plain for x in p.latencies) or [0.0]
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for f in failures:
        print(f"perfbench: FAIL {args.workload}: {f}", file=sys.stderr)

    if args.trace == 0:
        values = {
            "wall_s": statistics.median(p.wall_s for p in plain),
            "item_p50_s": statistics.median(latencies),
            "item_p90_s": _nearest_rank(latencies, 0.9),
            "setup_s": import_s + gen_s,
            "peak_rss_mb": max(p.peak_kb for p in plain) / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        traced = [p for p in passes if p.traced]
        metrics = _layer_metrics(traced, plain)
        span_file = root / SPAN_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        span_count = _write_spans(span_file, traced)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes of {len(bench.items)} items, "
          f"{attempted} attempted, {len(failures)} failed")
    print(f"  input_gen_s {gen_s:.6f} s (inside setup_s, outside wall_s)")
    print(f"  import_s {import_s:.4f} s (inside setup_s)")
    print("  pass_wall_s " + " ".join(
        f"{p.wall_s:.3f}{'t' if p.traced else ''}" for p in passes))
    print(f"  fail_ratio {len(failures) / attempted:.4f} ratio")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    if args.trace == 1:
        for line in _sanity(args.workload, bench.items, traced[0].trace):
            print("  " + line)
        print(f"  {span_count} spans written to {span_file.relative_to(root)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
