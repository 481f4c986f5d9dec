"""Hard Hamiltonicity instances: cubic graphs with few or no Hamiltonian
cycles, turned into fixed-endpoints path instances.

The FHCP Challenge Set (M. Haythorpe, Bull. ICA 83, 2018) collects such
classes because they defeat solvers that lean on degree reasoning alone.
Two of them are built here:

  generalized_petersen(n, k)  GP(n, k); GP(n, 2) is non-Hamiltonian
                              exactly when n = 5 (mod 6) (B. Alspach,
                              JCT B 34, 1983), GP(5, 2) being the
                              Petersen graph
  flower_snark(k)             J_k for odd k >= 5, a non-Hamiltonian snark

Both return undirected edge lists; `cycle_to_path` splits one into a path
instance that is feasible iff the graph has a Hamiltonian cycle.
"""

from __future__ import annotations

import numpy as np


def generalized_petersen(n, k):
    """GP(n, k) on 2n nodes: outer cycle 0 .. n-1, spoke i -- n + i,
    inner star polygon n + i -- n + (i + k) mod n."""
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, n + i))
        edges.append((n + i, n + (i + k) % n))
    return 2 * n, edges


def flower_snark(k):
    """J_k on 4k nodes: a star centre a_i = 4i with leaves b_i = 4i + 1,
    c_i = 4i + 2, d_i = 4i + 3; the b_i form a k-cycle, and the c_i then
    the d_i form one 2k-cycle."""
    edges = []
    for i in range(k):
        a = 4 * i
        edges += [(a, a + 1), (a, a + 2), (a, a + 3)]
        edges.append((a + 1, 4 * ((i + 1) % k) + 1))
    ring = [4 * i + 2 for i in range(k)] + [4 * i + 3 for i in range(k)]
    edges += list(zip(ring, ring[1:] + ring[:1]))
    return 4 * k, edges


def cycle_to_path(n, edges):
    """Split node 0 of an undirected graph into the endpoints of a path.

    Node 0 becomes s and keeps the arcs out of it; the arcs into it go to
    a new end node n instead.  Every edge gives both arcs, at unit cost,
    so a path instance has n + 1 nodes, and a Hamiltonian path from 0 to
    n costs n exactly when the graph has a Hamiltonian cycle.  Returns
    (C, s, e, prove_ub) with prove_ub = n.
    """
    C = np.full((n + 1, n + 1), np.inf)
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            C[a, n if b == 0 else b] = 1.0
    return C, 0, n, n
