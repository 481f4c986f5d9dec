"""The benchmark tracer's per-layer spans name functions that exist.

The tracer only warns when a span's target is missing and its layer then
reads 0, so a rename in the solver would silently zero a per-layer metric.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

LIVE_SPANS = ("kernel.fixpoint", "kernel.backtrack", "scc.rebuild",
              "costs.tree", "costs.filter", "search.decide")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SPANS


@pytest.mark.parametrize("key", LIVE_SPANS)
def test_span_wraps_an_existing_function(key):
    targets = _spans()[key]
    assert any(callable(getattr(owner, attr, None)) for owner, attr in targets)
