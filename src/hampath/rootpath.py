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

The dive's path, polished by Or-opt, then goes through an iterated local
search (O. Martin, S. W. Otto & E. W. Felten, "Large-step Markov chains
for the TSP", Complex Systems 5, 1991; on the ATSP, D. S. Johnson et al.,
"Experimental analysis of heuristics for the ATSP", in G. Gutin &
A. Punnen (eds.), The TSP and its Variations, 2002).  Each kick swaps two
adjacent segments, A B C D becoming A C B D with s and e fixed (the
double bridge on a path), and reverses each of B and C at random.  The
swap alone keeps every orientation, as Or-opt does, and stalls at 1,340
on ftv33, whose optimum 1,286 runs stretches of the dive's path
backwards.  A cheap Or-opt then starts from the six nodes at the kick's
junctions only, with a don't-look bit per node, and tries each segment
only next to the cheapest successors and predecessors of its ends; the
kicked path is kept when it is not dearer.  The search stops once n
kicks in a row, n the path's node count, have found no cheaper path (the
stagnation stop of H. R. Lourenço, O. Martin & T. Stützle, "Iterated
local search", Handbook of Metaheuristics, 2003), and after
KICKS_PER_NODE kicks per node at most.  It stops early once the path is
good enough for the caller: at the root floor it is optimal, and in
decision mode at the cap it proves the bound.  One exact Or-opt
sweep closes it, so the root path is a full Or-opt local optimum like
every other path the search keeps.  The kicks are drawn from a fixed
seed, so every run finds the same path.

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
Any pair of finite cost counts as an arc, for the kicks too: a move
turns a Hamiltonian path into another one, and root propagation without
a cap removes only arcs that no Hamiltonian path uses, so when
optimizing the moves are the same as over the root domain.  In decision
mode a move may take an arc that the cap removed; the path is still one
of the instance, and it counts only if it proves the bound.
"""

from __future__ import annotations

import heapq
import math
import random

from .scc import ReducedState

STEPS_PER_NODE = 20     # the dive's backtracking budget, per node
KICKS_PER_NODE = 2      # the iterated local search's ceiling, per node
NEIGHBOURS = 5          # insertion candidates per segment end after a kick
SEGMENT = 3             # the longest segment Or-opt moves


def root_path(gv, C, enough=-math.inf, clock=None, deadline=None):
    """A Hamiltonian s-e path as a node list, from a dive over gv's
    present arcs, or None when the dive finds none within its budget.

    The iterated local search after the dive stops after n kicks in a
    row without a cheaper path, n the node count, or after its ceiling
    of KICKS_PER_NODE kicks per node; it stops before either once the
    path costs at most enough, or once clock() has passed deadline.
    Without a deadline the clock is never read."""
    path = _dive(gv, C)
    if path is None:
        return None
    or_opt(C, path)
    best = _iterate(C, path, enough, clock, deadline)
    if best is not path:
        or_opt(C, best)
    return best


def _iterate(C, path, enough, clock, deadline):
    """The cheapest path the kicks reach from path, the first one found at
    that cost; path itself when none is cheaper.

    It stops once n kicks in a row, n the path's node count, find no
    cheaper path: a skipped kick counts toward them, and a kicked path
    kept at equal cost does not restart them."""
    n = len(path)
    if n < 4:
        return path         # no two segments to swap
    cost = sum(C[u][v] for u, v in zip(path, path[1:]))
    rng = random.Random(0)
    # per node its cheapest successors and predecessors, found on first use
    near = [None] * n, [None] * n
    best = cur = path
    stall = 0           # kicks since the last cheaper path
    for _ in range(KICKS_PER_NODE * n):
        if cost <= enough or stall == n or \
                deadline is not None and clock() > deadline:
            break
        kicked = _kick(C, cur, cost, rng, near)
        stall += 1
        if kicked is not None and kicked[1] <= cost:
            if kicked[1] < cost:
                best = kicked[0]
                stall = 0
            cur, cost = kicked
    return best


def _kick(C, path, cost, rng, near):
    """One kick of path, which costs cost, and the cheap Or-opt after it:
    the new path and its cost, or None when the kick needs an absent arc.

    The path A B C D becomes A C B D, with B and C each reversed when its
    bit of a random pair is set; the cut points come from rng too."""
    i, j, k = sorted(rng.sample(range(1, len(path)), 3))
    flips = rng.getrandbits(2)
    # a, then B = path[i:j] from b to y, C = path[j:k] from c to z, then d
    a, b, y, c, z, d = path[i - 1], path[i], path[j - 1], path[j], \
        path[k - 1], path[k]
    b0, b1 = (y, b) if flips & 1 else (b, y)
    c0, c1 = (z, c) if flips & 2 else (c, z)
    kick = C[a][c0] + C[c1][b0] + C[b1][d] - C[a][b] - C[y][c] - C[z][d]
    if kick == math.inf:
        return None         # a new junction arc is absent
    B, Cs = path[i:j], path[j:k]
    if flips & 1:
        kick += _reversal(C, B)
        B.reverse()
    if flips & 2:
        kick += _reversal(C, Cs)
        Cs.reverse()
    if kick == math.inf:
        return None         # a reversed segment needs an absent arc
    trial = path[:i] + Cs + B + path[k:]
    return trial, _local_or_opt(C, trial, cost + kick,
                                (a, c0, c1, b0, b1, d), near)


def _reversal(C, seg):
    """What reversing seg adds to the cost of its own arcs."""
    return sum(C[v][u] - C[u][v] for u, v in zip(seg, seg[1:]))


def _cheapest(costs, skip):
    """The NEIGHBOURS nodes of least finite cost in costs, other than skip."""
    return heapq.nsmallest(
        NEIGHBOURS, (v for v, c in enumerate(costs)
                     if c < math.inf and v != skip), key=costs.__getitem__)


# the segments that start or end at a node, as offsets of their first and
# last positions from the node's
_SPANS = [(0, q) for q in range(SEGMENT)] + \
    [(-q, 0) for q in range(SEGMENT - 1, 0, -1)]


def _local_or_opt(C, path, cost, starts, near):
    """Or-opt moves on path, in place, from the nodes in starts only; the
    path's cost after them, from its cost before.

    A node whose segments find no move that pays is set aside (its
    don't-look bit) until a move changes an arc at it.  A segment of one
    to SEGMENT nodes that starts or ends at the node is tried only after
    one of its first node's cheapest predecessors or before one of its
    last node's cheapest successors, lists that near holds per node, in
    that order, and fills on first use."""
    n = len(path)
    near_succ, near_pred = near
    pos = [0] * n
    for p, v in enumerate(path):
        pos[v] = p

    def first_move(v):
        p = pos[v]
        if p == 0 or p == n - 1:
            return None         # s and e stay at the ends
        for di, dj in _SPANS:
            i, j = p + di, p + dj
            if i < 1 or j > n - 2:
                continue
            a, f, l, b = path[i - 1], path[i], path[j], path[j + 1]
            Ca, Cl = C[a], C[l]
            if Ca[b] == math.inf:
                continue        # the segment's gap cannot close
            gain = Ca[f] + Cl[b] - Ca[b]
            xs = near_pred[f]
            if xs is None:
                xs = near_pred[f] = _cheapest([row[f] for row in C], f)
            for x in xs:
                k = pos[x]
                if k == n - 1 or i - 1 <= k <= j:
                    continue
                Cx, y = C[x], path[k + 1]
                saved = gain - Cx[f] - Cl[y] + Cx[y]
                if saved > 0:
                    return i, j, k, saved
            ys = near_succ[l]
            if ys is None:
                ys = near_succ[l] = _cheapest(Cl, l)
            for y in ys:
                k = pos[y] - 1
                if k < 0 or i - 1 <= k <= j:
                    continue
                Cx = C[path[k]]
                saved = gain - Cx[f] - Cl[y] + Cx[y]
                if saved > 0:
                    return i, j, k, saved
        return None

    todo = list(starts)
    looking = set(todo)
    while todo:
        v = todo.pop()
        looking.discard(v)
        move = first_move(v)
        if move is None:
            continue
        i, j, k, saved = move
        ends = (path[i - 1], path[i], path[j], path[j + 1], path[k],
                path[k + 1])
        lo, hi = _move(path, i, j, k)
        for p in range(lo, hi + 1):
            pos[path[p]] = p
        cost -= saved
        for u in ends:
            if u not in looking:
                looking.add(u)
                todo.append(u)
    return cost


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
        _move(path, *move)


def _move(path, i, j, k):
    """Move the segment path[i..j], orientation kept, into the gap after
    path[k], which lies outside it; return the first and last positions
    whose node changed."""
    seg = path[i:j + 1]
    del path[i:j + 1]
    if k < i:
        path[k + 1:k + 1] = seg
        return k + 1, j
    at = k - len(seg) + 1
    path[at:at] = seg
    return i, k
