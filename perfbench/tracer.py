"""Per-layer tracing of the solver, installed from outside it.

The tracer wraps the entry points of each solver module (kernel, scc,
structural and cost propagators, cost tree and filter functions, search
decisions) while it is active, and restores them on exit.  Every wrapped
call is a span on one stack; a span's self time is its duration minus the
time its child spans cover, so layer times add up without double counting.
Nothing is written while spans run; the totals are read at the end.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from hampath import costs, kernel, scc, search, structural
from hampath.kernel import Contradiction, Propagator

# span key -> (owner, attribute) of every function wrapped under it
SPANS = {
    "kernel.fixpoint": [(kernel.Scheduler, "run_fixpoint")],
    "kernel.backtrack": [(kernel.GraphVar, "pop_world")],
    "scc.rebuild": [(scc.ReducedState, "rebuild")],
    "scc.repair": [(scc.ReducedState, "repair_after_deletions")],
    "costs.tree": [(costs, "_prim_pairs"), (costs, "mst_kruskal")],
    "costs.filter": [(costs, "wst_filter"), (costs, "bst_filter")],
    "search.decide": [(search, "choose_decision")],
}


class PropStats:
    __slots__ = ("calls", "self_s", "removed", "enforced", "fails", "useful")

    def __init__(self):
        self.calls = self.removed = self.enforced = self.fails = self.useful = 0
        self.self_s = 0.0


class Tracer:
    """Context manager: wraps the solver on enter, unwraps it on exit."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.props = defaultdict(PropStats)
        self.mutations = 0          # remove/enforce calls that changed the domain
        self.failed_fixpoints = 0
        self._stack = []            # per open span: time covered by its children
        self._prop = None           # stats of the propagator now running
        self._saved = []

    def __enter__(self):
        for key, targets in SPANS.items():
            for owner, attr in targets:
                self._wrap(owner, attr, self._span(key, getattr(owner, attr, None)))
        self._wrap(kernel.GraphVar, "remove_arc",
                   self._mutation("removed", kernel.GraphVar.remove_arc))
        self._wrap(kernel.GraphVar, "enforce_arc",
                   self._mutation("enforced", kernel.GraphVar.enforce_arc))
        for mod in (structural, costs):
            for cls in vars(mod).values():
                if isinstance(cls, type) and issubclass(cls, Propagator) \
                        and "propagate" in vars(cls):
                    self._wrap(cls, "propagate", self._propagate(cls.propagate))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    def _wrap(self, owner, attr, wrapper):
        if wrapper is None:
            print(f"tracer: {getattr(owner, '__name__', owner)}.{attr} not found; "
                  "its layer reads 0", file=sys.stderr)
            return
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _close(self, t0, child):
        """Pop the span opened at t0 and return its self time."""
        d = time.perf_counter() - t0
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][0] += d
        return d - child[0]

    def _span(self, key, fn):
        if fn is None:
            return None
        stack = self._stack
        calls = self.calls
        self_s = self.self_s

        def span(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Contradiction:
                if key == "kernel.fixpoint":
                    self.failed_fixpoints += 1
                raise
            finally:
                self_s[key] += self._close(t0, child)
                calls[key] += 1
        return span

    def _mutation(self, kind, fn):
        stack = self._stack

        def mutate(gv, u, v):
            child = [0.0]
            stack.append(child)
            t0 = time.perf_counter()
            changed = False
            try:
                changed = fn(gv, u, v)
                return changed
            finally:
                self.self_s["kernel.mutation"] += self._close(t0, child)
                self.calls["kernel.mutation"] += 1
                if changed:
                    self.mutations += 1
                    if self._prop is not None:
                        setattr(self._prop, kind, getattr(self._prop, kind) + 1)
        return mutate

    def _propagate(self, fn):
        stack = self._stack

        def propagate(p):
            st = self.props[p.name]
            obj = getattr(p, "obj", None)
            lb0 = obj.lb if obj is not None else None
            changed0 = st.removed + st.enforced
            outer, self._prop = self._prop, st
            child = [0.0]
            stack.append(child)
            t0 = time.perf_counter()
            failed = False
            try:
                return fn(p)
            except Contradiction:
                failed = True
                raise
            finally:
                st.self_s += self._close(t0, child)
                self._prop = outer
                st.calls += 1
                st.fails += failed
                if failed or st.removed + st.enforced > changed0 \
                        or (obj is not None and obj.lb > lb0):
                    st.useful += 1
        return propagate
