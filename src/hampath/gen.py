"""Random fixed-endpoints instance generator for tests and benchmarks.

Every generated instance contains at least one Hamiltonian path from s to
e by construction: the arcs of a hidden seed permutation are always kept,
whatever the density.  With clusters > 1 the remaining arcs are restricted
to a chain of node groups, which produces instances whose condensation is
a nontrivial path, the structure the reduced-graph machinery feeds on.
"""

from __future__ import annotations

import random

import numpy as np

INF = float("inf")


def gen_random(n, seed, cost_range=(1, 100), density=1.0, clusters=1):
    """Build a random instance; returns (C, s, e) with s=0 and e=n-1."""
    if n < 2:
        raise ValueError("need at least two nodes")
    if clusters < 1 or clusters > n:
        raise ValueError("bad cluster count")
    rng = random.Random(seed)
    lo, hi = cost_range
    s, e = 0, n - 1

    mid = list(range(1, n - 1))
    rng.shuffle(mid)
    spine = [s] + mid + [e]          # the guaranteed path
    after = [-1] * n                 # each node's successor on the spine
    for u, v in zip(spine, spine[1:]):
        after[u] = v

    # chunk the spine into consecutive clusters; arcs are allowed inside a
    # chunk and from a chunk to the next one only
    group = [0] * n
    if clusters > 1:
        size = (n + clusters - 1) // clusters
        for pos, v in enumerate(spine):
            group[v] = min(pos // size, clusters - 1)

    rows = []
    for u in range(n):
        row = [INF] * n
        rows.append(row)
        if u == e:
            continue
        for v in range(n):
            if u == v or v == s:
                continue
            w = rng.randint(lo, hi)
            if v == after[u]:
                row[v] = w
                continue
            if clusters > 1 and group[v] - group[u] not in (0, 1):
                continue
            if rng.random() <= density:
                row[v] = w
    return np.array(rows, dtype=float), s, e
