"""Test-side instruments that observe library objects from outside.

The library keeps no counters or switches for the tests' sake; these
helpers wrap or subclass its pieces instead.
"""

from __future__ import annotations

from hampath.costs import span_blocks, wst_filter
from hampath.kernel import Propagator
from hampath.structural import ReducedPathPropagator


class WalkOnlyReducedPath(ReducedPathPropagator):
    """The reduced-path cut pinning, without the door rules."""

    def _apply_doors(self, cuts):
        pass


def record_runs(hk):
    """Wrap `hk._run`; returns the list each run's bound, the first field
    of the evaluation it returns, is appended to."""
    runs = []
    run = hk._run

    def recording(*args):
        evaluation = run(*args)
        runs.append(evaluation[0])
        return evaluation

    hk._run = recording
    return runs


def filter_diff(gv, E, S, oracle, ub, offset=0.0):
    """Span the oracle's tree at E, run the swap filter on it at cap ub.

    Returns (tree, removed, enforced, swaps): the span_blocks evaluation,
    then the arcs the filter removed and enforced, read as a diff of the
    domain, and the filter's swap costs.
    """
    arcs, mandatory = set(gv.arcs()), set(gv.mandatory_arcs())
    blocks, cuts, _ = oracle
    tree = span_blocks(E, S, *oracle)
    swaps = wst_filter(Propagator(gv), E, S, tree, blocks, cuts, ub, offset)
    return (tree, arcs - set(gv.arcs()),
            set(gv.mandatory_arcs()) - mandatory, swaps)
