"""A Hamiltonian path found before the search, to cap the objective at
the root.

`root_path` dives from s to e over the present arcs, cheapest arc first,
with a bounded backtrack.  The dive follows the block order of the
reduced graph: every Hamiltonian path visits the strongly connected
components in topological order, each in one stretch, so a node steps
into the next block only once its own is used up.  Or-opt (I. Or, PhD
thesis, Northwestern 1976) then moves segments of one to three nodes,
orientation kept so that asymmetric costs are safe, to the first place
that makes the path cheaper, until no move does.  Nothing in the domain
changes.
"""

from __future__ import annotations

from .scc import ReducedState

STEPS_PER_NODE = 20     # the dive's backtracking budget, per node
SEGMENT = 3             # the longest segment Or-opt moves


def root_path(gv, C):
    """A Hamiltonian s-e path over gv's present arcs as a node list, or
    None when the dive finds none within its budget."""
    path = _dive(gv, C)
    if path is not None:
        while _or_opt_move(gv.succ, C, path):
            pass
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


def _or_opt_move(succ, C, path):
    """Make the first Or-opt move that lowers path's cost, in place, and
    return True; return False when no move does.

    Segments path[i..j] of one node come first, then of two and three,
    each tried in every gap (path[k], path[k + 1]) outside it; s and e
    stay at the ends."""
    n = len(path)
    for size in range(1, SEGMENT + 1):
        for i in range(1, n - size):
            j = i + size - 1
            a, f, l, b = path[i - 1], path[i], path[j], path[j + 1]
            if b not in succ[a]:
                continue
            gain = C[a][f] + C[l][b] - C[a][b]
            for k in range(n - 1):
                if i - 1 <= k <= j:
                    continue
                x, y = path[k], path[k + 1]
                if f in succ[x] and y in succ[l] \
                        and C[x][f] + C[l][y] - C[x][y] < gain:
                    seg = path[i:j + 1]
                    del path[i:j + 1]
                    at = k + 1 if k < i else k + 1 - size
                    path[at:at] = seg
                    return True
    return False
