"""The benchmark tracer's per-layer spans name functions that exist.

The tracer only warns when a span's target is missing and its layer then
reads 0, so a rename in the solver would silently zero a per-layer metric.
"""

import importlib.util
from pathlib import Path

import pytest

from hampath import Model, circuit_to_path, parse_tsplib, solve

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
INSTANCES = ROOT / "instances"

LIVE_SPANS = ("kernel.fixpoint", "kernel.backtrack", "scc.rebuild",
              "costs.tree", "costs.filter", "search.decide")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _spans():
    return _tracer().SPANS


@pytest.mark.parametrize("key", LIVE_SPANS)
def test_span_wraps_an_existing_function(key):
    targets = _spans()[key]
    assert any(callable(getattr(owner, attr, None)) for owner, attr in targets)


def test_cost_layer_spans_fire_during_a_solve():
    # a span can name an existing function and still see no call, when the
    # solver reaches it through a local name instead of the module global
    tracer = _tracer().Tracer()
    inst = parse_tsplib(str(INSTANCES / "br17.atsp"))
    C, s, e = circuit_to_path(inst.matrix, 0)
    m = Model(len(C), s, e, C, model="ALL", relax="both")
    with tracer:
        r = solve(m)
    assert r.status == "optimal" and r.best_cost == 39
    assert tracer.calls["costs.tree"] > 0
    assert tracer.calls["costs.filter"] > 0
