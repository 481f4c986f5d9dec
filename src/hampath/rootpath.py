"""A Hamiltonian path found before the search, to cap the objective at
the root, paths patched from the assignment at every node of an
optimizing run, and the local search that polishes every path the search
keeps.

`root_path` dives from s to e over the present arcs, cheapest arc first,
with a bounded backtrack.  The dive follows the block order of the
reduced graph: every Hamiltonian path visits the strongly connected
components in topological order, each in one stretch, so a node steps
into the next block only once its own is used up.  Nothing in the domain
changes.

`patch` (R. M. Karp, SIAM J. Comput. 8, 1979) turns a successor
matching, one s-e path plus cycles, into one path: each cycle, longest
first, is spliced into the path at the cheapest exchange of a path arc
and a cycle arc.  The exchange may use any arc of finite cost, so the
path may leave the domain it was patched on; it is still a Hamiltonian
path of the instance, the same argument as Or-opt's below.

`or_opt` (I. Or, PhD thesis, Northwestern 1976) moves segments of one to
three nodes, orientation kept so that asymmetric costs are safe, to the
first place that makes the path cheaper, until no move does.  It runs on
the root path and on every leaf or patched path that improves the cap.
Any pair of finite cost counts as an arc: a move turns a Hamiltonian
path into another one, and root propagation without a cap removes only
arcs that no Hamiltonian path uses, so when optimizing the moves are the
same as over the root domain.  In decision mode a move may take an arc
that the cap removed; the path is still one of the instance, and it
counts only if it proves the bound.
"""

from __future__ import annotations

import math

from .scc import ReducedState

STEPS_PER_NODE = 20     # the dive's backtracking budget, per node
SEGMENT = 3             # the longest segment Or-opt moves


def root_path(gv, C):
    """A Hamiltonian s-e path over gv's present arcs as a node list, or
    None when the dive finds none within its budget."""
    path = _dive(gv, C)
    if path is not None:
        or_opt(C, path)
    return path


def _dive(gv, C):
    n, e, succ = gv.n, gv.e, gv.succ
    st = ReducedState(gv).rebuild()
    block = st.scc_of
    left = [len(b) for b in st.members]     # nodes not yet on the path
    on = [False] * n
    path = []

    def visit(u):
        path.append(u)
        on[u] = True
        b = block[u]
        left[b] -= 1
        # stay in u's block while it has nodes left, then enter the next
        nxt = b if left[b] else b + 1
        last = len(path) == n - 1
        cands = [v for v in succ[u] if not on[v] and block[v] == nxt
                 and (v != e or last)]
        cands.sort(key=lambda v: (C[u][v], v))
        return iter(cands)

    stack = [visit(gv.s)]
    budget = STEPS_PER_NODE * n
    while stack:
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            u = path.pop()
            on[u] = False
            left[block[u]] += 1
            continue
        budget -= 1
        if budget < 0:
            return None
        if v == e:
            path.append(v)
            return path
        stack.append(visit(v))
    return None


def patch(C, nxt, s, e):
    """A Hamiltonian s-e path patched from the successor map nxt, or None.

    nxt[u] is u's successor over arcs of finite cost (e's entry is not
    read).  Following it from s must reach e, and the nodes it skips
    must fall into cycles; otherwise the result is None.  Each cycle,
    longest first, is spliced in where path arc (a, b) and cycle arc
    (c, d) give way to (a, d) and (c, b) most cheaply; ties go to the
    first path arc, then the first cycle arc from the cycle's smallest
    node.  A cycle with no exchange over finite arcs gives None."""
    n = len(nxt)
    on = [False] * n
    on[s] = True
    path = [s]
    u = s
    while u != e:
        u = nxt[u]
        if u < 0 or on[u]:
            return None
        on[u] = True
        path.append(u)
    cycles = []
    for v in range(n):
        if on[v]:
            continue
        cyc = []
        u = v
        while not on[u]:
            on[u] = True
            cyc.append(u)
            u = nxt[u]
            if u < 0:
                return None
        if u != v:
            return None     # the walk ran into the path or another cycle
        cycles.append(cyc)
    cycles.sort(key=len, reverse=True)      # stable: smallest node first
    for cyc in cycles:
        # (k, d, C[c], C[c][d]) per cycle arc (c, d) = (cyc[k], cyc[k + 1])
        arcs = [(k, d, C[c], C[c][d])
                for k, (c, d) in enumerate(zip(cyc, cyc[1:] + cyc[:1]))]
        best, at, cut = math.inf, -1, -1
        for i in range(len(path) - 1):
            Ca, b = C[path[i]], path[i + 1]
            # the exchange costs C[a][d] + C[c][b] - C[c][d] - C[a][b]; the
            # last term is the same for every cycle arc, so it moves into
            # the limit
            lim = best + Ca[b]
            for k, d, Cc, ccd in arcs:
                x = Ca[d] + Cc[b] - ccd
                if x < lim:
                    lim = x
                    best, at, cut = x - Ca[b], i, k
        if at < 0:
            return None
        # a -> d ... c -> b: the cycle opened at its arc (c, d)
        k = cut + 1
        path[at + 1:at + 1] = cyc[k:] + cyc[:k]
    return path


def or_opt(C, path):
    """Lower path's cost by Or-opt moves, in place, until none pays.

    Each step makes the first move that pays: segments path[i..j] of one
    node come first, then of two and three, each tried in every gap
    (path[k], path[k + 1]) outside it; s and e stay at the ends.  An
    absent arc costs inf, so no move that needs one pays."""
    n = len(path)

    def first_move():
        for size in range(1, SEGMENT + 1):
            for i in range(1, n - size):
                j = i + size - 1
                a, f, l, b = path[i - 1], path[i], path[j], path[j + 1]
                if C[a][b] == math.inf:
                    continue        # the segment's gap cannot close
                gain = C[a][f] + C[l][b] - C[a][b]
                for k in range(n - 1):
                    if i - 1 <= k <= j:
                        continue
                    x, y = path[k], path[k + 1]
                    if C[x][f] + C[l][y] - C[x][y] < gain:
                        return i, j, k
        return None

    while (move := first_move()) is not None:
        i, j, k = move
        seg = path[i:j + 1]
        del path[i:j + 1]
        at = k + 1 if k < i else k - len(seg) + 1
        path[at:at] = seg
