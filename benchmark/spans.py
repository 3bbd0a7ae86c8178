"""Spans around the program's layer functions, recorded from outside the program.

`Tracer.install` replaces every module binding of each listed function with a
wrapper that records a span (name, start, end, parent span, operation id) in
CPU seconds, and counts what the layer metrics count.  Bindings made by
`from module import name` are found by identity, so a caller that imported a
function by name is traced like one that looks it up on its module.
`uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import sys
import weakref
from collections import defaultdict
from fractions import Fraction

# "<module>.<function>" of each wrapped function, and whether its calls are
# reported.  The name is the metric prefix: "<name>_s" is self time and
# "<name>_calls" the number of calls.
TRACED = [
    ("section.build_ring", True),
    ("section.perp_subalgebra_semisimple", False),
    ("section.full_ring_semisimple", False),
    ("section.radical_and_perp", True),
    ("section.lefschetz_relation_check", False),
    ("section.section_charpoly", False),
    ("quantum.mult_operators", False),
    ("quantum.semisimple_test", False),
    ("quantum.commuting", False),
    ("quantum.presentation_check", False),
    ("quantum.pieri_matrix", False),
    ("linalg.trace_product", True),
    ("linalg.det_bareiss", False),
    ("linalg.charpoly", False),
    ("linalg.mat_mul", True),
    ("linalg.rref", False),
    ("hodge.chi_y", True),
    ("hodge.diamond", False),
    ("partitions.core_search", False),
    ("rootdata.poincare_polynomial", False),
    ("screen.exceptional_table", False),
    ("cli.run", False),
]

# Counts computed from arguments or results rather than from calls.
COUNTERS = {
    "quantum.commuting_pairs": "quantum.commuting",
    "section.fraction_entries": "section.build_ring",
    "section.nonint_entries": "section.build_ring",
}

# Spans that keep cli.run's self time to argument parsing and rendering, and
# keep the tracer's own counting out of every layer's self time.  Not reported.
HANDLER_SPAN = "cli.handler"
BOOKKEEPING_SPAN = "trace.bookkeeping"


class Tracer:
    """`clock` gives CPU seconds; the benchmark passes one that leaves out its
    calibration rounds."""

    def __init__(self, package: str, clock):
        self.package = package
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._rings_seen: weakref.WeakSet = weakref.WeakSet()

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self.clock(), None, parent, self.op_id])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.stack.pop()
        self.spans[index][2] = self.clock()

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer.counts[name] += 1
            if after is not None:
                index = tracer._open(BOOKKEEPING_SPAN)
                try:
                    after(args, result)
                finally:
                    tracer._close(index)
            return result

        return wrapper

    def _count_pairs(self, args, result) -> None:
        ops = args[0]
        self.counts["quantum.commuting_pairs"] += len(ops) * (len(ops) - 1) // 2

    def _count_entries(self, args, ring) -> None:
        ops = getattr(ring, "label_ops", None)
        if ops is None or ring in self._rings_seen:
            return
        self._rings_seen.add(ring)
        for matrix in ops.values():
            for row in matrix:
                for x in row:
                    if isinstance(x, Fraction):
                        self.counts["section.fraction_entries"] += 1
                        if x.denominator != 1:
                            self.counts["section.nonint_entries"] += 1

    # -- patching ----------------------------------------------------------------

    def _modules(self):
        return [
            module
            for name, module in list(sys.modules.items())
            if name == self.package or name.startswith(self.package + ".")
        ]

    def _patch_everywhere(self, original, wrapper) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        after = {"quantum.commuting": self._count_pairs, "section.build_ring": self._count_entries}
        for span, _ in TRACED:
            module_name, func_name = span.split(".")
            module = sys.modules.get(f"{self.package}.{module_name}")
            original = getattr(module, func_name, None)
            if original is None:
                self.absent.append(span)
                continue
            self._patch_everywhere(original, self._wrap(span, original, after.get(span)))
        cli = sys.modules.get(f"{self.package}.cli")
        for attr, value in list(vars(cli).items()) if cli else []:
            if attr.startswith("_cmd_") and callable(value):
                self._patch_everywhere(value, self._wrap(HANDLER_SPAN, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return out

    def metrics(self, overhead_s: float, scale: float) -> dict[str, dict]:
        """Self times multiplied by `scale` (see calibrate.py), counts as counted."""
        selfs = self.self_times()
        out = {}
        for span, calls in TRACED:
            if span in self.absent:
                continue
            out[f"{span}_s"] = {"value": selfs.get(span, 0.0) * scale, "unit": "s"}
            if calls:
                out[f"{span}_calls"] = {"value": self.counts[span], "unit": "count"}
        for counter, span in COUNTERS.items():
            if span not in self.absent:
                out[counter] = {"value": self.counts[counter], "unit": "count"}
        out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
        return out

    def write(self, path, ops: list[list[str]]) -> None:
        """One JSON line per operation, then one per span."""
        with open(path, "w") as fh:
            for i, argv in enumerate(ops):
                fh.write(json.dumps({"op": i, "argv": argv}) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
