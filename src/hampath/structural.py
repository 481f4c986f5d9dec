"""Structural propagators for the fixed-endpoints Hamiltonian path.

Everything in here prunes the graph variable through combinatorial
arguments only; cost reasoning lives in costs.py.  The reduced-path
propagator is the workhorse: it recomputes the SCC condensation on every
call, reads the block order off it and prunes arcs that cross the cuts
between blocks the wrong way.  Degree runs under every model, reduced-path
under ALL.  Filtering from the endpoints alone (dominators, position
windows) is left out: on non-Hamiltonian cubic graphs the block order
prunes about as much, in less time.
"""

from __future__ import annotations

from .kernel import ARC_ENFORCED, UNDO, Propagator
from .scc import ReducedState


class DegreePropagator(Propagator):
    """Degree constraints and the no-subtour rule on mandatory chains.

    Each node except e has one successor, each except s one predecessor:
    zero potential out or in arcs on an interior node is a dead end, a
    single one is forced, and a mandatory arc evicts its siblings.  The
    mandatory arcs fuse into chains, and the arc from a chain's end back
    to its start would close a cycle, so it goes before it can be enforced.

    The first call fuses every mandatory arc and checks every node; after
    that an arc record (u, v) in the change log can only change the
    out-row of u and the in-column of v, so each call fuses the enforced
    arcs it reads and rechecks just those.  chain_start[b] is the first
    node of the chain ending at b and chain_end[a] the last node of the
    chain starting at a; both are only meaningful at chain endpoints.
    The first scan and every fusion are undone on backtracking like the
    arcs, so popping past the scan asks for a full scan again.
    """

    def __init__(self, gv):
        super().__init__(gv)
        self.name = "degree"
        self.priority = 0
        self.scanned = False
        self.chain_start = list(range(gv.n))
        self.chain_end = list(range(gv.n))

    def _fuse(self, u, v):
        cs, ce = self.chain_start, self.chain_end
        a = cs[u]
        b = ce[v]
        # bind per fusion: several can be logged from one call, each undo
        # must restore its own slots
        self.gv.record(lambda a=a, b=b, oe=ce[a], os=cs[b]:
                       (ce.__setitem__(a, oe), cs.__setitem__(b, os)))
        ce[a] = b
        cs[b] = a
        self.remove(b, a)

    def _row(self, u):
        row = self.gv.succ[u]
        ms = self.gv.msucc[u]
        if ms:
            if len(ms) > 1:
                self.fail("two mandatory successors")
            if len(row) > 1:
                for w in sorted(row - ms):
                    self.remove(u, w)
        elif len(row) == 1:
            (w,) = row
            self.enforce(u, w)
        elif not row:
            self.fail("node lost all successors")

    def _col(self, v):
        col = self.gv.pred[v]
        mp = self.gv.mpred[v]
        if mp:
            if len(mp) > 1:
                self.fail("two mandatory predecessors")
            if len(col) > 1:
                for w in sorted(col - mp):
                    self.remove(w, v)
        elif len(col) == 1:
            (w,) = col
            self.enforce(w, v)
        elif not col:
            self.fail("node lost all predecessors")

    def propagate(self):
        gv = self.gv
        if not self.scanned:
            # the scan covers every change logged so far, so it fuses the
            # arcs mandatory now, each once; its own mutations are logged
            # after the cursor, read below
            self.read = len(gv.log)
            self.scanned = True
            gv.record(lambda: setattr(self, "scanned", False))
            for u, v in gv.mandatory_arcs():
                self._fuse(u, v)
            for u in range(gv.n):
                if u != gv.e:
                    self._row(u)
                if u != gv.s:
                    self._col(u)
        # arcs never leave e nor enter s, so no record names them there;
        # each batch holds the mutations the previous one caused
        while batch := self.unread():
            for kind, u, v in batch:
                if kind == UNDO:
                    continue
                if kind == ARC_ENFORCED:
                    self._fuse(u, v)
                self._row(u)
                self._col(v)


class ReducedPathPropagator(Propagator):
    """Prune arcs that cannot lie on a path through the SCC condensation.

    Every pass rebuilds the SCC partition.  The condensation is a DAG and
    its blocks come in topological order, so a Hamiltonian path through
    the blocks exists iff each block has an arc into the next one, and
    then follows that order.  Per consecutive pair the arcs out of a block
    that skip the next block die, an empty cut fails, a mandatory witness
    evicts the other witnesses and a lone witness is enforced.  The door
    rules then prune inside blocks with a single entry or exit node.
    They alone remove arcs inside a block, so they alone can split one:
    a call repeats its pass until they remove nothing.

    `blocks` and `cuts` keep the block order and the witness arcs of every
    cut from the last pass of the last complete call, and `epoch` the
    gv.pop_epoch it ran in.  The tree oracle reads them until the next
    backtrack: only arcs can go before then, so every path left still runs
    through the blocks in that order.
    """

    def __init__(self, gv):
        super().__init__(gv)
        self.name = "reduced-path"
        self.priority = 2
        self.state = ReducedState(gv)
        self.blocks = None
        self.cuts = None
        self.epoch = -1

    def _apply_doors(self, cuts):
        """Door rules on every interior block; cuts[k] is the list of
        witness arcs from block k into block k + 1."""
        blocks = self.state.members
        for k in range(1, len(blocks) - 1):
            members = blocks[k]
            if len(members) < 2:
                continue
            indoor = {b for (_, b) in cuts[k - 1]}
            outdoor = {a for (a, _) in cuts[k]}
            if len(indoor) == 1:
                (i0,) = indoor
                for j in members:
                    if j != i0:
                        self.remove(j, i0)
            if len(outdoor) == 1:
                (o0,) = outdoor
                for j in members:
                    if j != o0:
                        self.remove(o0, j)
            doors = indoor | outdoor
            if len(members) > 2 and len(doors) == 2:
                a, b = sorted(doors)
                self.remove(a, b)
                self.remove(b, a)

    def propagate(self):
        gv = self.gv
        while True:
            st = self.state.rebuild()
            blocks = st.members
            scc_of = st.scc_of
            cuts = []
            for k in range(len(blocks) - 1):
                # arcs out of block k run forward; all but those into k + 1
                # skip a block, and the path leaves k into k + 1 exactly once
                cut = []
                for u in blocks[k]:
                    for v in sorted(gv.succ[u]):
                        y = scc_of[v]
                        if y == k + 1:
                            cut.append((u, v))
                        elif y != k:
                            self.remove(u, v)
                if not cut:
                    self.fail("cut between consecutive blocks is empty")
                forced = [a for a in cut if gv.has_mandatory(*a)]
                if forced:
                    for a in cut:
                        if a != forced[0]:
                            self.remove(*a)     # raises on a second mandatory
                    cut = forced
                elif len(cut) == 1:
                    self.enforce(*cut[0])
                cuts.append(cut)
            removed = self.stats["removed"]
            self._apply_doors(cuts)
            if self.stats["removed"] == removed:
                break
        self.blocks = blocks
        self.cuts = cuts
        self.epoch = gv.pop_epoch
