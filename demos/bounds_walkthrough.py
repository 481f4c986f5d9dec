"""Walk through the tree relaxation on a small seven-node graph.

Without a block order the tree oracle spans all nodes at once.  Once the
reduced graph is a known path of strongly connected blocks, it prices
every block separately and adds the cheapest connectors between
consecutive blocks.  That makes it strictly sharper here than the plain
spanning tree: sharp enough to prune two arcs at the optimum that the
plain bound cannot touch.  One swap filter serves both trees.
"""

import numpy as np

from hampath.costs import effective_costs, span_blocks, tree_oracle, wst_filter
from hampath.kernel import GraphVar, Propagator, Scheduler
from hampath.oracle import dp_oracle
from hampath.structural import ReducedPathPropagator

ARCS = {
    (0, 1): 2,
    (1, 2): 10, (2, 1): 10,
    (1, 4): 5,
    (2, 3): 3, (2, 4): 3,
    (4, 3): 7,
    (3, 5): 4, (5, 3): 4,
    (4, 5): 6, (5, 4): 6,
    (4, 6): 4, (5, 6): 2,
}
N, S, E = 7, 0, 6


class WalkOnly(ReducedPathPropagator):
    # the door rules would prune (2, 1) and (1, 4) and split block {1, 2};
    # the walkthrough compares both trees on the cut pinning's block order
    def _apply_doors(self, cuts):
        pass


def build():
    gv = GraphVar(N, S, E, sorted(ARCS))
    sched = Scheduler(gv)
    rp = WalkOnly(gv)
    sched.register(rp)
    sched.schedule_all()
    sched.run_fixpoint()
    return gv, rp


def filtered(gv, E, S, oracle, ub):
    """Arcs the swap filter removes and enforces at cap ub, as a domain
    diff; a bare propagator makes the changes."""
    arcs, mandatory = set(gv.arcs()), set(gv.mandatory_arcs())
    blocks, cuts, _ = oracle
    wst_filter(Propagator(gv), E, S, span_blocks(E, S, *oracle), blocks, cuts,
               ub, 0.0)
    return (sorted(arcs - set(gv.arcs())),
            sorted(set(gv.mandatory_arcs()) - mandatory))


def main():
    C = np.full((N, N), np.inf)
    for (u, v), w in ARCS.items():
        C[u, v] = w

    opt, path = dp_oracle(C, S, E)
    print("instance: 7 nodes, optimum %d via %s" % (opt, path))

    gv, rp = build()
    print("block order:", rp.blocks)

    zero = np.zeros(N)
    Ecost, Scost = effective_costs(gv, C.tolist(), zero, zero)
    mst = span_blocks(Ecost, Scost, *tree_oracle(gv))[0]
    bst, trees, connectors = span_blocks(Ecost, Scost, *tree_oracle(gv, rp))
    print("plain spanning tree bound: %d" % mst)
    print("block spanning tree bound: %d  (per block %s, connectors %s)"
          % (bst, [int(sum(Scost[a][c] for a, c in t)) for t in trees],
             sorted(Ecost[u][v] for u, v in connectors)))

    removed, enforced = filtered(gv, Ecost, Scost, tree_oracle(gv, rp), opt)
    print("block filter at ub=%d removes %s, enforces %s"
          % (opt, removed, enforced))

    gv2, _ = build()
    wrem, wenf = filtered(gv2, Ecost, Scost, tree_oracle(gv2), opt)
    print("plain filter at ub=%d removes %s, enforces %s"
          % (opt, wrem, wenf))


if __name__ == "__main__":
    main()
