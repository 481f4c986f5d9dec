"""Strongly connected components and the reduced (condensed) graph.

`tarjan_scc` is the package's one SCC routine: list-indexed, restricted to
a node subset, and shared by the reduced state below and by alldiff's
residual graph.

The reduced state mirrors the potential graph of a GraphVar: an SCC partition
(scc_of, plus per component the sorted member list Tarjan built), the
condensation adjacency with witness counts, and per component the set of
outgoing cross arcs (out_arcs).  Arc deletions are repaired incrementally:
cross deletions only touch witness counts, intra deletions mark their
component dirty and Tarjan is re-run once per dirty component, restricted to
its members; a split replaces the member list with one list per fragment.
After a backtrack the state is stale and callers rebuild from scratch
(detected through gv.pop_epoch).
"""

from __future__ import annotations

from .kernel import PreconditionViolation


def tarjan_scc(nodes, succ):
    """Iterative Tarjan over `nodes`; `succ[u]` iterates u's successors.

    Only arcs whose head is in `nodes` are followed.  Roots are taken in
    `nodes` order and successors in iteration order.  Returns (comps,
    joined): the components, each a sorted list of nodes, in reverse
    topological discovery order, and whether a followed arc joins two of
    them.
    """
    n = len(succ)
    done = n                # popped with its component
    index = [n + 1] * n     # n + 1: not in nodes; -1: not visited yet
    for v in nodes:
        index[v] = -1
    low = [0] * n
    stack = []
    comps = []
    joined = False
    count = 0
    for root in nodes:
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        # explicit DFS stack: (node, iterator over its successors)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                i = index[w]
                if i < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if i < low[v]:          # on the stack: same component
                    low[v] = i
                elif i == done:         # into a finished component
                    joined = True
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = done
                        comp.append(w)
                        if w == v:
                            break
                    comp.sort()
                    comps.append(comp)
                    joined = joined or bool(work)   # the tree arc in
                else:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
    return comps, joined


class ReducedState:
    """SCC partition plus condensation of a GraphVar's potential graph."""

    def __init__(self, gv):
        self.gv = gv
        n = gv.n
        self.scc_of = [0] * n
        self.members = {}              # scc id -> sorted list of its nodes
        self.radj = {}                 # scc id -> set of successor scc ids
        self.rpred = {}
        self.wit = {}                  # (x, y) -> number of witness arcs
        self.out_arcs = {}             # scc id -> set of cross arcs (u, v)
        self._next_id = 0
        self.pop_epoch = -1

    # -- construction ------------------------------------------------------

    def _install_comp(self, comp, scc_id):
        self.members[scc_id] = comp
        for v in comp:
            self.scc_of[v] = scc_id
        self.radj[scc_id] = set()
        self.rpred[scc_id] = set()
        self.out_arcs[scc_id] = set()

    def _scan_out_row(self, x):
        """Recompute out_arcs[x] and x's rows of radj/wit from the graph."""
        for y in self.radj[x]:
            self.rpred[y].discard(x)
            self.wit.pop((x, y), None)
        self.radj[x].clear()
        row = self.out_arcs[x]
        row.clear()
        scc_of = self.scc_of
        gv = self.gv
        for u in self.members[x]:
            for v in gv.succ[u]:
                y = scc_of[v]
                if y != x:
                    row.add((u, v))
                    self.wit[(x, y)] = self.wit.get((x, y), 0) + 1
                    self.radj[x].add(y)
                    self.rpred[y].add(x)

    def _rewit_row(self, p):
        """Refresh p's reduced arcs after head components changed id."""
        for y in self.radj[p]:
            self.rpred[y].discard(p)
            self.wit.pop((p, y), None)
        self.radj[p].clear()
        scc_of = self.scc_of
        for (u, v) in self.out_arcs[p]:
            y = scc_of[v]
            self.wit[(p, y)] = self.wit.get((p, y), 0) + 1
            self.radj[p].add(y)
            self.rpred[y].add(p)

    def rebuild(self):
        """Full Tarjan pass over the current potential graph."""
        gv = self.gv
        self.members.clear()
        self.radj.clear()
        self.rpred.clear()
        self.wit.clear()
        self.out_arcs.clear()
        self._next_id = 0
        comps, _ = tarjan_scc(range(gv.n), gv.succ)
        for comp in comps:
            self._install_comp(comp, self._next_id)
            self._next_id += 1
        for x in range(self._next_id):
            self._scan_out_row(x)
        self.pop_epoch = gv.pop_epoch
        return self

    # -- incremental repair --------------------------------------------------

    def repair_after_deletions(self, removed):
        """Update the state after arcs `removed` left the potential graph.

        The arcs must already be gone from the graph and not yet applied
        here.  Returns the list of splits as (old id, [fragment ids]) with
        the largest fragment keeping the old id.  Stale states (the graph
        backtracked since the last sync) must be rebuilt instead; calling
        repair on one raises.
        """
        gv = self.gv
        if self.pop_epoch != gv.pop_epoch:
            raise PreconditionViolation("state is stale after backtracking; rebuild")
        dirty = set()
        # phase A: classify against the partition as of the batch start
        for (u, v) in removed:
            x = self.scc_of[u]
            y = self.scc_of[v]
            if x == y:
                dirty.add(x)
                continue
            if (u, v) in self.out_arcs[x]:
                self.out_arcs[x].discard((u, v))
                c = self.wit.get((x, y), 0) - 1
                if c > 0:
                    self.wit[(x, y)] = c
                else:
                    self.wit.pop((x, y), None)
                    self.radj[x].discard(y)
                    self.rpred[y].discard(x)
        # phase B: one restricted Tarjan per dirty component
        splits = []
        affected_preds = set()
        fragments = set()
        for x in sorted(dirty):
            nodes = self.members[x]
            comps, _ = tarjan_scc(nodes, gv.succ)
            if len(comps) == 1:
                continue
            # largest fragment keeps the id; ties go to the smallest member
            keep = max(comps, key=lambda c: (len(c), -c[0]))
            frag_ids = []
            affected_preds |= self.rpred[x]
            # drop the old outgoing row before the keep fragment reuses the
            # id, or stale witness entries survive the reinstall
            for y in self.radj[x]:
                self.rpred[y].discard(x)
                self.wit.pop((x, y), None)
            for comp in comps:
                if comp is keep:
                    self._install_comp(comp, x)
                    frag_ids.append(x)
                else:
                    self._install_comp(comp, self._next_id)
                    frag_ids.append(self._next_id)
                    self._next_id += 1
            splits.append((x, sorted(frag_ids)))
            fragments.update(frag_ids)
        # phase C: refresh rows against the final partition.  Fragment rows
        # are rescanned from the graph; rows of surviving predecessors only
        # need their head components remapped.
        for f in sorted(fragments):
            self._scan_out_row(f)
        for p in sorted(affected_preds - fragments):
            self._rewit_row(p)
        return splits

