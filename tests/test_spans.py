"""The benchmark's span list must name live functions of the package, and
tracing must build nothing the program does not.

benchmark/spans.py wraps each TRACED "<module>.<function>" by module binding,
and its traced CI run fails on a name that no longer resolves.  These tests
load that file by path, only read it, and fail in pytest first.
"""

import importlib
import importlib.util
import time
from pathlib import Path

from qhgrass import quantum, section
from qhgrass.partitions import Box
from qhgrass.section import build_ring

SPANS = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names() -> list[str]:
    return [name for name, _ in _spans().TRACED]


def test_every_traced_span_resolves_to_a_function():
    names = _traced_names()
    assert names
    for name in names:
        module_name, func_name = name.split(".")
        module = importlib.import_module(f"qhgrass.{module_name}")
        assert callable(getattr(module, func_name, None)), name


def test_a_traced_cold_ring_build_makes_no_label_operator():
    # the span counters read build_ring's result; tracing must build no more
    # than the program does, so a cold (3, 8) build runs mult_operators 0 times
    tracer = _spans().Tracer("qhgrass", time.process_time)
    build_ring.cache_clear()
    tracer.install()
    try:
        section.build_ring(3, 8)
    finally:
        tracer.uninstall()
    assert tracer.absent == [] and section.build_ring is build_ring
    assert tracer.counts["section.build_ring"] == 1 and tracer.counts["quantum.mult_operators"] == 0


def test_a_traced_ambient_verdict_bills_its_block_determinants_to_det_bareiss():
    # Gr(5, 10)'s Gram takes 6 block determinants (residues 0 and 5, and one
    # of each mirrored pair), each inside the linalg.det_bareiss span
    tracer = _spans().Tracer("qhgrass", time.process_time)
    tracer.install()
    try:
        assert quantum.qh_semisimple(Box(5, 10)).holds is True
    finally:
        tracer.uninstall()
    assert tracer.absent == [] and tracer.counts["linalg.det_bareiss"] == 6
    assert tracer.self_times()["linalg.det_bareiss"] > 0
