"""Test-side instruments that observe library objects from outside.

The library keeps no counters or switches for the tests' sake; these
helpers wrap or subclass its pieces instead.
"""

from __future__ import annotations

from hampath.structural import ReducedPathPropagator


class WalkOnlyReducedPath(ReducedPathPropagator):
    """The reduced-path cut pinning, without the door rules."""

    def _apply_doors(self, cuts):
        pass


def record_runs(hk):
    """Wrap `hk._run`; returns the list its return values are appended to."""
    runs = []
    run = hk._run

    def recording(*args):
        runs.append(run(*args))
        return runs[-1]

    hk._run = recording
    return runs
