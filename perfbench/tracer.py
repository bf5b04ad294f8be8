"""Layer tracer for mipoly, installed from outside the library.

`Tracer.install()` wraps the public functions of the library layers and
a few hot methods, then rebinds every alias of each wrapped object in
every loaded ``mipoly.*`` module and class.  Rebinding all aliases is
what makes cross-module calls visible: ``from .gauged import
wronskian_rows`` copies the binding into ``mindexed`` and ``diffop``, so
wrapping ``mipoly.gauged.wronskian_rows`` alone would miss their calls.

Calls into the ``exact`` layer happen up to two hundred thousand times a
pass; a span per call would slow the run and fill memory, so there the
tracer keeps only aggregated counts and times.  Calls into every other
layer are kept as spans in memory: name, parent span, start, end and
self time.  At the end they are folded into per-name figures and handed
out with those figures, for the benchmark to write to its span file.  A
call's self time is its duration minus the time of the traced calls it
made, aggregated ``exact`` calls included.

Run as a script, it executes one traced mipoly CLI invocation:

    python3 perfbench/tracer.py construct --family L --g 7/3 --indices 1I

The CLI's stdout is untouched; ``{"figures": ..., "spans": ...}`` is
written to stderr as the last line, prefixed with ``TRACE_PREFIX``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from typing import Callable, Dict, List

LAYERS = ("exact", "families", "gauged", "mindexed", "diffop",
          "recurrence", "shiftalg")
# (module, class, attribute) of the methods that carry layer work
METHODS = {
    ("exact", "Poly", "__mul__"): "exact.poly_mul",
    ("exact", "RatFunc", "__init__"): "exact.ratfunc_new",
    ("diffop", "DiffOp", "compose"): "diffop.compose",
    ("diffop", "DiffOp", "apply"): "diffop.apply",
    ("shiftalg", "OpMatrix", "__mul__"): "shiftalg.opmatrix_mul",
}
# Scalar coercion and rendering run once per coefficient; a wrapper there
# would cost more than the call it measures.
SKIP = {"exact.rat", "exact.rat_str"}
TRACE_PREFIX = "PERFBENCH_TRACE "


def _coeff_bits(p) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in p.coeffs), default=0)


class Tracer:
    def __init__(self):
        self.counts: Dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.spans: List[tuple] = []          # (name, parent, t0, t1, child_s, outermost)
        self.origin = time.perf_counter()
        self.extra: Dict[str, float] = {}
        self._stack = [[0.0, -1]]             # [child time, span index] per open call
        self._depth: Dict[str, int] = {}
        self._caches: Dict[str, tuple] = {}   # name -> (lru object, hits, misses)
        self._mi_results: Dict[int, object] = {}
        # figures taken from a call's arguments or result, after it returns
        self._hooks: Dict[str, Callable] = {
            "gauged.wronskian_rows": self._count_cells,
            "mindexed.mi_poly": self._keep_member,
        }

    def _count_cells(self, args, _result) -> None:
        m = len(args[0])   # one determinant of m x m entries
        self.extra["gauged.wronskian_rows.cells"] = \
            self.extra.get("gauged.wronskian_rows.cells", 0) + m * m

    def _keep_member(self, _args, result) -> None:
        self._mi_results.setdefault(id(result), result)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, keep_spans: bool) -> Callable:
        stack, spans, depth = self._stack, self.spans, self._depth
        clock = time.perf_counter
        rec = self.counts.setdefault(name, [0, 0.0, 0.0])
        depth[name] = 0
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1]
            if keep_spans:
                index = len(spans)
                spans.append(None)
            else:
                index = parent[1]
            frame = [0.0, index]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[name] -= 1
                dt = t1 - t0
                parent[0] += dt
                outermost = depth[name] == 0
                if keep_spans:
                    spans[index] = (name, parent[1], t0, t1, frame[0], outermost)
                else:
                    rec[0] += 1
                    rec[2] += dt - frame[0]
                    if outermost:
                        rec[1] += dt
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers of the already-imported mipoly package."""
        targets = {}   # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"mipoly.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in SKIP:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                targets[id(obj)] = (obj, self._wrap(name, obj, layer != "exact"))
                if hasattr(obj, "cache_info"):
                    info = obj.cache_info()
                    self._caches[name] = (obj, info.hits, info.misses)
        for (layer, cls, attr), name in METHODS.items():
            obj = vars(getattr(importlib.import_module(f"mipoly.{layer}"), cls))[attr]
            targets[id(obj)] = (obj, self._wrap(name, obj, layer != "exact"))
        cli = importlib.import_module("mipoly.cli")
        targets[id(cli.main)] = (cli.main, self._wrap("cli.main", cli.main, True))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "mipoly" or modname.startswith("mipoly.")):
                continue
            for owner in [mod] + [c for c in vars(mod).values() if inspect.isclass(c)
                                  and c.__module__ == modname]:
                for attr, obj in list(vars(owner).items()):
                    hit = targets.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        setattr(owner, attr, hit[1])

    # -- summary ----------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Per-name calls, total_s and self_s, cache figures and extras."""
        agg = {name: list(rec) for name, rec in self.counts.items()}
        for name, _parent, t0, t1, child, outermost in self.spans:
            rec = agg[name]
            rec[0] += 1
            rec[2] += (t1 - t0) - child
            if outermost:
                rec[1] += t1 - t0
        out: Dict[str, float] = {}
        for name, (calls, total, self_s) in agg.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        for name, (obj, hits0, misses0) in self._caches.items():
            info = obj.cache_info()
            out[f"{name}.hits"] = info.hits - hits0
            out[f"{name}.misses"] = info.misses - misses0
        out.update(self.extra)
        out["exact.coeff_bits_max"] = max(
            (_coeff_bits(p) for p in self._mi_results.values()), default=0)
        return out

    def span_records(self, start: int = 0) -> List[list]:
        """Spans from index `start` on: [id, name, parent, start_s, end_s, self_s].

        A span's id is its index; parent is the id of the enclosing span,
        or -1.  Times count from the tracer's creation.
        """
        return [[start + i, name, parent, t0 - self.origin, t1 - self.origin,
                 (t1 - t0) - child]
                for i, (name, parent, t0, t1, child, _) in enumerate(self.spans[start:])]


def main(argv: List[str]) -> int:
    import mipoly.cli

    tracer = Tracer()
    tracer.install()
    code = mipoly.cli.main(argv)
    sys.stdout.flush()
    print(TRACE_PREFIX + json.dumps({"figures": tracer.summary(),
                                     "spans": tracer.span_records()}),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
