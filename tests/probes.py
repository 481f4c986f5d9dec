"""Test-side instruments that observe library objects from outside.

The library keeps no counters or switches for the tests' sake; these
helpers wrap or subclass its pieces instead.
"""

from __future__ import annotations

from hampath import scc
from hampath.structural import ReducedPathPropagator


class WalkOnlyReducedPath(ReducedPathPropagator):
    """The reduced-path walk and cut pinning, without the door rules."""

    def _apply_doors(self, blocks):
        pass


class SccWork:
    """Nodes and arcs the SCC layer visits, counted through monkeypatch.

    Every `tarjan_scc` call, out-row scan and witness refresh adds the
    nodes and arcs it is handed; each repair adds its batch size.  Reset
    `total` before the call to measure.
    """

    def __init__(self, monkeypatch):
        self.total = 0
        tarjan = scc.tarjan_scc
        scan = scc.ReducedState._scan_out_row
        rewit = scc.ReducedState._rewit_row
        repair = scc.ReducedState.repair_after_deletions

        def tarjan_scc(nodes, succ):
            self.total += len(nodes) + sum(len(succ[u]) for u in nodes)
            return tarjan(nodes, succ)

        def scan_out_row(st, x):
            members = st.members[x]
            self.total += len(members) + sum(len(st.gv.succ[u])
                                             for u in members)
            return scan(st, x)

        def rewit_row(st, p):
            self.total += len(st.out_arcs[p])
            return rewit(st, p)

        def repair_after_deletions(st, removed):
            self.total += len(removed)
            return repair(st, removed)

        monkeypatch.setattr(scc, "tarjan_scc", tarjan_scc)
        monkeypatch.setattr(scc.ReducedState, "_scan_out_row", scan_out_row)
        monkeypatch.setattr(scc.ReducedState, "_rewit_row", rewit_row)
        monkeypatch.setattr(scc.ReducedState, "repair_after_deletions",
                            repair_after_deletions)


def record_runs(hk):
    """Wrap `hk._run`; returns the list its return values are appended to."""
    runs = []
    run = hk._run

    def recording(*args):
        runs.append(run(*args))
        return runs[-1]

    hk._run = recording
    return runs
