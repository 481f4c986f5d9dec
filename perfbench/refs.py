"""Reference answers the benchmark grades the solver against.

Nothing here calls the solver.  TSPLIB instances are graded against their
published optima; generated instances against an exact dynamic program that
exploits their block structure, which shares no code with the package.
"""

from __future__ import annotations

import math

import numpy as np

# Published optimal tour costs.  Restating a circuit as a path from the home
# city to its copy keeps the optimum, whatever the home city.
TSPLIB_OPT = {
    "ulysses16": 6859,
    "gr17": 2085,
    "br17": 39,
    "bays29": 2020,
    "ftv33": 1286,
}

# The subset DP holds 2^b * b^2 floats for its widest layer: 26 MB at 16.
MAX_BLOCK = 16


def path_error(C, s, e, path, cost):
    """None when `path` is a Hamiltonian s-e path over finite arcs of C
    costing exactly `cost`; otherwise why it is not."""
    n = len(C)
    if path is None:
        return "no path"
    if len(path) != n or sorted(path) != list(range(n)):
        return "not a permutation of the nodes"
    if path[0] != s or path[-1] != e:
        return "wrong endpoints"
    total = 0.0
    for u, v in zip(path, path[1:]):
        if not math.isfinite(C[u][v]):
            return f"uses absent arc ({u},{v})"
        total += C[u][v]
    if cost is None or round(total) != cost:
        return f"reported cost {cost} but the arcs sum to {total:g}"
    return None


def _blocks_in_order(C):
    """Strong components of the finite-arc graph, upstream first."""
    n = len(C)
    reach = np.isfinite(C) | np.eye(n, dtype=bool)
    for _ in range(max(1, math.ceil(math.log2(n)))):
        reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
    same = reach & reach.T
    blocks = []
    seen = set()
    for u in range(n):
        if u not in seen:
            block = [int(v) for v in np.flatnonzero(same[u])]
            seen.update(block)
            blocks.append(block)
    # a component reaches strictly more nodes than any component it feeds
    blocks.sort(key=lambda b: -int(reach[b[0]].sum()))
    return blocks


def _cover_block(W, entry):
    """Subset DP inside one block.

    entry[i] is the cheapest cost of arriving at node i of the block having
    covered everything upstream; returns, per node, the cheapest cost of
    leaving the block from it having covered the whole block.
    """
    b = len(entry)
    full = 1 << b
    dp = np.full((full, b), np.inf)
    for i in range(b):
        dp[1 << i, i] = entry[i]
    masks = np.arange(full)
    ones = np.zeros(full, dtype=np.int64)
    for i in range(b):
        ones += (masks >> i) & 1
    bits = 1 << np.arange(b)
    for k in range(1, b):
        layer = masks[ones == k]
        ext = (dp[layer][:, :, None] + W[None, :, :]).min(axis=1)
        for v in range(b):
            free = (layer & bits[v]) == 0
            dst = layer[free] | bits[v]
            dp[dst, v] = np.minimum(dp[dst, v], ext[free, v])
    return dp[full - 1]


def chain_optimum(C, s, e):
    """Cost of the cheapest Hamiltonian s-e path of C, or inf if none.

    A Hamiltonian path never re-enters a strong component it has left, so
    it crosses the components in their unique topological order and only
    the order inside each component is open.  That order is found by a
    subset DP per component, which stays small on the clustered instances
    `gen_random` makes.  Raises ValueError on a component above MAX_BLOCK.
    """
    C = np.array(C, dtype=float)
    C[:, s] = np.inf
    C[e, :] = np.inf
    np.fill_diagonal(C, np.inf)
    blocks = _blocks_in_order(C)
    if blocks[0] != [s] or blocks[-1] != [e]:
        return math.inf
    exit_cost = np.zeros(1)
    prev = [s]
    for block in blocks[1:]:
        if len(block) > MAX_BLOCK:
            raise ValueError(f"component of {len(block)} nodes is too large")
        entry = (exit_cost[:, None] + C[np.ix_(prev, block)]).min(axis=0)
        exit_cost = _cover_block(C[np.ix_(block, block)], entry)
        prev = block
    return float(exit_cost[0])
