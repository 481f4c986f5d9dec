"""Strongly connected components and the reduced (condensed) graph.

`tarjan_scc` is the package's one SCC routine, list-indexed over every
node; the reduced state below is its one caller.

The reduced state is the SCC partition of a GraphVar's potential graph,
recomputed from scratch by `rebuild`: `members` lists the components in
topological order of the condensation (Tarjan's output reversed), each as
a sorted member list, and `scc_of[v]` is the index of v's component in it.
So every arc between two components runs from a lower index to a higher
one.
"""

from __future__ import annotations


def tarjan_scc(succ):
    """Iterative Tarjan over nodes 0..len(succ) - 1; `succ[u]` iterates u's
    successors.

    Roots are taken in node order and successors in iteration order.
    Returns (comps, comp_of): the components, each a sorted list of nodes,
    in reverse topological discovery order, and per node the index of its
    component in comps.
    """
    n = len(succ)
    done = n                # popped with its component
    index = [-1] * n        # -1: not visited yet
    low = [0] * n
    comp_of = [-1] * n
    stack = []
    comps = []
    count = 0
    for root in range(n):
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
                else:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
    return comps, comp_of


class ReducedState:
    """SCC partition of a GraphVar's potential graph, in topological order."""

    def __init__(self, gv):
        self.gv = gv
        self.scc_of = [0] * gv.n
        self.members = []

    def rebuild(self):
        """Full Tarjan pass over the current potential graph."""
        gv = self.gv
        comps, comp_of = tarjan_scc(gv.succ)
        comps.reverse()
        last = len(comps) - 1
        self.members = comps
        self.scc_of = [last - k for k in comp_of]
        return self
