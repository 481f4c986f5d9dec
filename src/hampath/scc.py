"""Strongly connected components and the reduced (condensed) graph.

`tarjan_scc` is the package's one SCC routine: list-indexed, restricted to
a node subset, and shared by the reduced state below and by alldiff's
residual graph.

The reduced state is the SCC partition of a GraphVar's potential graph,
recomputed from scratch by `rebuild`: `members` lists the components in
topological order of the condensation (Tarjan's output reversed), each as
a sorted member list, and `scc_of[v]` is the index of v's component in it.
So every arc between two components runs from a lower index to a higher
one.
"""

from __future__ import annotations


def tarjan_scc(nodes, succ):
    """Iterative Tarjan over `nodes`; `succ[u]` iterates u's successors.

    Only arcs whose head is in `nodes` are followed.  Roots are taken in
    `nodes` order and successors in iteration order.  Returns (comps,
    comp_of, joined): the components, each a sorted list of nodes, in
    reverse topological discovery order; per node the index of its
    component in comps (-1 off `nodes`); and whether a followed arc joins
    two components.
    """
    n = len(succ)
    done = n                # popped with its component
    index = [n + 1] * n     # n + 1: not in nodes; -1: not visited yet
    for v in nodes:
        index[v] = -1
    low = [0] * n
    comp_of = [-1] * n
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
                    k = len(comps)
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = done
                        comp_of[w] = k
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
    return comps, comp_of, joined


class ReducedState:
    """SCC partition of a GraphVar's potential graph, in topological order."""

    def __init__(self, gv):
        self.gv = gv
        self.scc_of = [0] * gv.n
        self.members = []

    def rebuild(self):
        """Full Tarjan pass over the current potential graph."""
        gv = self.gv
        comps, comp_of, _ = tarjan_scc(range(gv.n), gv.succ)
        comps.reverse()
        last = len(comps) - 1
        self.members = comps
        self.scc_of = [last - k for k in comp_of]
        return self
