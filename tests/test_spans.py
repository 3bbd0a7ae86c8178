"""The benchmark's span list must name live functions of the package.

benchmark/spans.py wraps each TRACED "<module>.<function>" by module binding,
and its traced CI run fails on a name that no longer resolves.  This test
loads that file by path, only reads it, and fails in pytest first.
"""

import importlib
import importlib.util
from pathlib import Path

from qhgrass.section import build_ring

SPANS = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def _traced_names() -> list[str]:
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [name for name, _ in module.TRACED]


def test_every_traced_span_resolves_to_a_function():
    names = _traced_names()
    assert names
    for name in names:
        module_name, func_name = name.split(".")
        module = importlib.import_module(f"qhgrass.{module_name}")
        assert callable(getattr(module, func_name, None)), name


def test_section_ring_label_ops_are_a_dict_of_matrices():
    # what the span counters read off build_ring's result
    ring = build_ring(3, 8)
    dim = len(ring.basis)
    assert isinstance(ring.label_ops, dict) and ring.label_ops
    for op in ring.label_ops.values():
        assert isinstance(op, list) and len(op) == dim
        assert all(isinstance(row, list) and len(row) == dim for row in op)
