"""Walk through the tree relaxation on a small seven-node graph.

Without a block order the tree oracle spans all nodes at once.  Once the
reduced graph is a known path of strongly connected blocks, it prices
every block separately and adds the cheapest connectors between
consecutive blocks.  That makes it strictly sharper here than the plain
spanning tree: sharp enough to prune two arcs at the optimum that the
plain bound cannot touch.  One swap filter serves both trees.
"""

import numpy as np

from hampath.costs import block_tree, effective_costs, tree_oracle, wst_filter
from hampath.kernel import GraphVar, Scheduler
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


def main():
    C = np.full((N, N), np.inf)
    for (u, v), w in ARCS.items():
        C[u, v] = w

    opt, path = dp_oracle(C, S, E)
    print("instance: 7 nodes, optimum %d via %s" % (opt, path))

    gv, rp = build()
    print("block order:", rp.blocks)

    Ecost, Scost = effective_costs(gv, C)
    mst = block_tree(Ecost, Scost, *tree_oracle(gv)).total
    bst = block_tree(Ecost, Scost, *tree_oracle(gv, rp))
    print("plain spanning tree bound: %d" % mst)
    print("block spanning tree bound: %d  (per block %s, connectors %s)"
          % (bst.total, [int(t.total) for t in bst.trees],
             sorted(c for c, _, _, _ in bst.connectors)))

    removed, enforced, _, _ = wst_filter(gv, bst, Ecost, ub=opt)
    print("block filter at ub=%d removes %s, enforces %s"
          % (opt, sorted(removed), sorted(enforced)))

    gv2, _ = build()
    E2, S2 = effective_costs(gv2, C)
    tree = block_tree(E2, S2, *tree_oracle(gv2))
    wrem, wenf, _, _ = wst_filter(gv2, tree, E2, ub=opt)
    print("plain filter at ub=%d removes %s, enforces %s"
          % (opt, sorted(wrem), sorted(wenf)))


if __name__ == "__main__":
    main()
