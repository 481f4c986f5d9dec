"""Cost reasoning: relaxation bounds and the filters they power.

All bounds speak about the fixed-endpoints Hamiltonian path.  The spanning
tree relaxations symmetrize arc costs by keeping the cheaper present
direction of each node pair; mandatory arcs are seeded into every tree.
The Lagrangian propagator sharpens those trees with node multipliers and
the assignment propagator bounds through the successor matching instead.
"""

from __future__ import annotations

import math

import numpy as np

from .kernel import Contradiction, Propagator

INF = float("inf")
CEIL_EPS = 1e-9
PRUNE_EPS = 1e-7


class Objective:
    """Best-cost bookkeeping shared by the cost propagators.

    ub is a global inclusive cap (never undone on backtracking), lb is the
    current world's proven floor and restores with the trail.
    """

    def __init__(self, gv):
        self.gv = gv
        self.lb = 0
        self.ub = None

    def set_ub(self, value):
        self.ub = value
        if self.ub is not None and self.lb > self.ub:
            raise Contradiction("objective: bound below proven floor")

    def tighten_lb(self, value):
        if value > self.lb:
            old = self.lb
            self.gv.trail.record(lambda: setattr(self, "lb", old))
            self.lb = value
            if self.ub is not None and self.lb > self.ub:
                raise Contradiction("objective: floor exceeds the cap")


def lb_trivial(gv, C):
    """Sum over u != e of u's cheapest outgoing arc."""
    total = 0.0
    for u in range(gv.n):
        if u == gv.e:
            continue
        row = gv.succ[u]
        if not row:
            raise Contradiction("trivial bound: node lost all successors")
        total += min(C[u][v] for v in row)
    return total


class TrivialObjectivePropagator(Propagator):
    """Cheapest-successor sum as a lower bound."""

    def __init__(self, gv, C, obj):
        super().__init__(gv)
        self.name = "trivial-lb"
        self.priority = 1
        self.C = C
        self.obj = obj

    def propagate(self):
        self.events.clear()
        self.obj.tighten_lb(int(math.ceil(lb_trivial(self.gv, self.C) - CEIL_EPS)))


# -- symmetrized tree machinery ------------------------------------------------


def effective_costs(gv, C, pi_out=None, pi_in=None):
    """(E, S): directed effective costs and their symmetrized minimum.

    E[u, v] = C[u, v] + pi_out[u] + pi_in[v] on present arcs, inf elsewhere.
    S is the elementwise minimum of E and its transpose.
    """
    if pi_out is None:
        E = np.where(gv.pmask, C, INF)
    else:
        E = np.where(gv.pmask, C + pi_out[:, None] + pi_in[None, :], INF)
    S = np.minimum(E, E.T)
    return E, S


def mandatory_pairs(gv):
    return sorted({(u, v) if u < v else (v, u) for u, v in gv.mandatory_arcs()})


def _prim_pairs(S_sel, S_true):
    """Min spanning tree on the selection weights; true weights summed.

    Returns (total, pairs).  Mandatory pairs carry a large negative
    selection weight so they enter the tree as soon as they touch it.
    Raises on a disconnected graph.
    """
    # plain lists beat numpy here: the graphs are small and the loop is
    # dominated by per-call dispatch overhead, not arithmetic
    n = S_sel.shape[0]
    sel = S_sel.tolist()
    true = sel if S_true is S_sel else S_true.tolist()
    best = sel[0][:]
    best[0] = INF
    intree = [False] * n
    intree[0] = True
    src = [0] * n
    total = 0.0
    pairs = []
    for _ in range(n - 1):
        bj = INF
        j = -1
        for k in range(n):
            if best[k] < bj:
                bj = best[k]
                j = k
        if j < 0:
            raise Contradiction("spanning tree: potential graph disconnected")
        total += true[src[j]][j]
        pairs.append((src[j], j))
        intree[j] = True
        best[j] = INF
        row = sel[j]
        for k in range(n):
            if not intree[k] and row[k] < best[k]:
                best[k] = row[k]
                src[k] = j
    return total, pairs


def realized_arc(E, a, b):
    """Direction a tree edge {a, b} takes under directed costs E."""
    if a > b:
        a, b = b, a
    return (a, b) if E[a, b] <= E[b, a] else (b, a)


def mst_prim(gv, E, S, mand=None):
    """(total, pairs) of the symmetrized MST with mandatory seeding."""
    if mand is None:
        mand = mandatory_pairs(gv)
    S_sel = S
    if mand:
        S_sel = S.copy()
        for a, b in mand:
            S_sel[a, b] = S_sel[b, a] = -1e17
    return _prim_pairs(S_sel, S)


def mst_kruskal(gv, S, mand=None):
    """(total, edges) with edges as (a, b, w, mandatory), a < b.

    Lexicographic (w, a, b) scan makes the tree canonical; mandatory pairs
    are unioned first.
    """
    n = gv.n
    if mand is None:
        mand = mandatory_pairs(gv)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[rb] = ra
        return True

    edges = []
    total = 0.0
    for a, b in mand:
        if not union(a, b):
            raise Contradiction("spanning tree: mandatory arcs close a cycle")
        w = S[a, b]
        total += w
        edges.append((a, b, float(w), True))
    iu, iv = np.triu_indices(n, 1)
    ws = S[iu, iv]
    fin = np.isfinite(ws)
    iu, iv, ws = iu[fin], iv[fin], ws[fin]
    for k in np.lexsort((iv, iu, ws)):
        a, b, w = int(iu[k]), int(iv[k]), float(ws[k])
        if union(a, b):
            total += w
            edges.append((a, b, w, False))
            if len(edges) == n - 1:
                break
    if len(edges) != n - 1:
        raise Contradiction("spanning tree: potential graph disconnected")
    return total, edges


class TreeAnalysis:
    """A rooted spanning tree with path queries for the swap arguments."""

    def __init__(self, nodes, edges, E):
        self.nodes = list(nodes)
        self.edges = edges
        self.total = sum(e[2] for e in edges)
        self.pair_index = {(a, b): i for i, (a, b, _, _) in enumerate(edges)}
        adj = {u: [] for u in nodes}
        for i, (a, b, w, m) in enumerate(edges):
            adj[a].append((b, i))
            adj[b].append((a, i))
        root = self.nodes[0]
        self.parent = {root: None}
        self.pedge = {root: None}
        self.depth = {root: 0}
        stack = [root]
        while stack:
            u = stack.pop()
            for v, i in adj[u]:
                if v not in self.parent:
                    self.parent[v] = u
                    self.pedge[v] = i
                    self.depth[v] = self.depth[u] + 1
                    stack.append(v)
        # realized arcs and directions, fed to the branching heuristics
        self.realized = [realized_arc(E, a, b) for (a, b, _, _) in edges]

    def path_edges(self, x, y):
        """Edge indices on the tree path between x and y."""
        out = []
        dx, dy = self.depth[x], self.depth[y]
        while dx > dy:
            out.append(self.pedge[x])
            x = self.parent[x]
            dx -= 1
        while dy > dx:
            out.append(self.pedge[y])
            y = self.parent[y]
            dy -= 1
        while x != y:
            out.append(self.pedge[x])
            out.append(self.pedge[y])
            x = self.parent[x]
            y = self.parent[y]
        return out


def _tree_swap_tables(tree, S, node_set=None):
    """Per pair: the heaviest replaceable edge on its tree path; per tree
    edge: the cheapest outside pair that could stand in for it.

    Returns (maxpath, repl) where maxpath maps a non-tree pair (a, b) to
    the max non-mandatory edge weight on its path (-inf when everything on
    the path is mandatory) and repl[i] is edge i's replacement cost.
    """
    maxpath = {}
    repl = [INF] * len(tree.edges)
    nodes = tree.nodes
    for ai in range(len(nodes)):
        for bi in range(ai + 1, len(nodes)):
            a, b = nodes[ai], nodes[bi]
            w = S[a, b]
            if not np.isfinite(w):
                continue
            if (a, b) in tree.pair_index:
                continue
            mx = -INF
            for i in tree.path_edges(a, b):
                ea, eb, ew, emand = tree.edges[i]
                if not emand:
                    if ew > mx:
                        mx = ew
                    if w < repl[i]:
                        repl[i] = w
            maxpath[(a, b)] = mx
    return maxpath, repl


def wst_filter(gv, tree, E, ub, offset=0.0, sink=None):
    """Swap-based filtering against the spanning tree bound.

    A non-tree arc whose best insertion still lands above ub dies; a tree
    edge whose removal cannot be repaired within ub is enforced when only
    one direction is present.  Returns (removed, enforced, marginals).
    """
    S = np.minimum(E, E.T)
    maxpath, repl = _tree_swap_tables(tree, S)
    rm = sink.remove if sink is not None else gv.remove_arc
    enf = sink.enforce if sink is not None else gv.enforce_arc
    removed = []
    enforced = []
    marginals = {}
    for (u, v) in gv.arcs():
        a, b = (u, v) if u < v else (v, u)
        i = tree.pair_index.get((a, b))
        if i is not None:
            if tree.edges[i][3]:
                # pair pinned by a directed arc; the reverse direction can
                # never ride along it, the pinned one must never be touched
                if gv.has_mandatory(v, u) and rm(u, v):
                    removed.append((u, v))
                continue
            if tree.realized[i] == (u, v):
                continue
            # opposite direction of a tree edge: swap the edge for itself
            mx = tree.edges[i][2]
        else:
            mx = maxpath[(a, b)]
        marginal = tree.total - mx + E[u, v] - offset
        marginals[(u, v)] = marginal
        if marginal > ub + PRUNE_EPS:
            if rm(u, v):
                removed.append((u, v))
    for i, (a, b, w, emand) in enumerate(tree.edges):
        if emand:
            continue
        if tree.total - w + repl[i] - offset > ub + PRUNE_EPS:
            ra, rb = tree.realized[i]
            if not gv.has_arc(rb, ra):
                if enf(ra, rb):
                    enforced.append((ra, rb))
    return removed, enforced, marginals


# -- block spanning tree (per-SCC trees plus connectors) -----------------------


class BstAnalysis:
    """Per-block trees plus one connector arc per consecutive cut."""

    def __init__(self, total, block_trees, connectors, order):
        self.total = total
        self.block_trees = block_trees      # block id -> TreeAnalysis or None
        self.connectors = connectors        # list of (cost, u, v, cut_arcs)
        self.order = order


def bst_build(gv, E, state, order, mand=None):
    """Block spanning tree at directed costs E for an established order."""
    if mand is None:
        mand = mandatory_pairs(gv)
    S = np.minimum(E, E.T)
    total = 0.0
    block_trees = {}
    for x in order:
        members = state.nodes_of(x)
        if len(members) < 2:
            block_trees[x] = None
            continue
        mand_in = [(a, b) for (a, b) in mand
                   if state.scc_of[a] == x and state.scc_of[b] == x]
        idx = np.array(members)
        sub = S[np.ix_(idx, idx)].copy()
        pos = {u: i for i, u in enumerate(members)}
        for a, b in mand_in:
            sub[pos[a], pos[b]] = sub[pos[b], pos[a]] = -1e17
        try:
            _, pairs = _prim_pairs(sub, S[np.ix_(idx, idx)])
        except Contradiction:
            raise Contradiction("block tree: block cannot be spanned")
        edges = []
        for (pi, qi) in pairs:
            p, q = members[pi], members[qi]
            a, b = (p, q) if p < q else (q, p)
            edges.append((a, b, float(S[a, b]), (a, b) in mand_in))
        tree = TreeAnalysis(members, edges, E)
        block_trees[x] = tree
        total += tree.total
    connectors = []
    for x, y in zip(order, order[1:]):
        cut = [(u, v) for (u, v) in sorted(state.out_arcs[x])
               if state.scc_of[v] == y and gv.has_arc(u, v)]
        if not cut:
            raise Contradiction("block tree: empty cut between blocks")
        forced = [(u, v) for (u, v) in cut if gv.has_mandatory(u, v)]
        if forced:
            u, v = forced[0]
        else:
            _, u, v = min((float(E[u, v]), u, v) for (u, v) in cut)
        total += float(E[u, v])
        connectors.append((float(E[u, v]), u, v, cut))
    return BstAnalysis(total, block_trees, connectors, list(order))


def bst_filter(gv, bst, E, ub, offset=0.0, sink=None):
    """Filtering against the block tree bound.

    Cut arcs pay the swap against the selected connector; arcs inside a
    block run the spanning-tree swap argument within their block's tree.
    Returns (removed, enforced).
    """
    rm = sink.remove if sink is not None else gv.remove_arc
    enf = sink.enforce if sink is not None else gv.enforce_arc
    removed = []
    enforced = []
    B = bst.total
    for (csel, su, sv, cut) in bst.connectors:
        alive = []
        for (u, v) in cut:
            if not gv.has_arc(u, v):
                continue
            if B - csel + float(E[u, v]) - offset > ub + PRUNE_EPS:
                if rm(u, v):
                    removed.append((u, v))
            else:
                alive.append((u, v))
        if len(alive) == 1:
            u, v = alive[0]
            if enf(u, v):
                enforced.append((u, v))
    S = np.minimum(E, E.T)
    for x, tree in bst.block_trees.items():
        if tree is None:
            continue
        members = set(tree.nodes)
        maxpath, repl = _tree_swap_tables(tree, S)
        for u in sorted(members):
            for v in sorted(gv.succ[u] & members):
                a, b = (u, v) if u < v else (v, u)
                i = tree.pair_index.get((a, b))
                if i is not None:
                    if tree.edges[i][3]:
                        if gv.has_mandatory(v, u) and rm(u, v):
                            removed.append((u, v))
                        continue
                    if tree.realized[i] == (u, v):
                        continue
                    mx = tree.edges[i][2]
                else:
                    mx = maxpath[(a, b)]
                if B - mx + float(E[u, v]) - offset > ub + PRUNE_EPS:
                    if rm(u, v):
                        removed.append((u, v))
        for i, (a, b, w, emand) in enumerate(tree.edges):
            if emand:
                continue
            if B - w + repl[i] - offset > ub + PRUNE_EPS:
                ra, rb = tree.realized[i]
                if not gv.has_arc(rb, ra):
                    if enf(ra, rb):
                        enforced.append((ra, rb))
    return removed, enforced


# -- Lagrangian propagator ------------------------------------------------------


class HeldKarpPropagator(Propagator):
    """Subgradient-sharpened spanning tree bound with filtering.

    Node multipliers price the out-degree of every node but e and the
    in-degree of every node but s.  They persist across calls and across
    backtracking; each run restarts the step control, not the multipliers.
    """

    ITERS = 30

    def __init__(self, gv, C, obj, mode="mst", reduced=None):
        super().__init__(gv)
        self.name = "hk-" + mode
        self.priority = 6 if mode == "bst" else 5
        self.C = np.asarray(C, dtype=float)
        self.obj = obj
        self.mode = mode
        self.reduced = reduced
        self.pi_out = np.zeros(gv.n)
        self.pi_in = np.zeros(gv.n)
        self.last_analysis = None
        self.last_marginals = None
        self.best_lb = -INF
        self._done_stamp = None
        self._full_key = None

    # the graph is frozen while multipliers move, so block membership and
    # the cut arc lists can be collected once per propagation
    def _bst_context(self, mand):
        gv = self.gv
        st = self.reduced.state
        order = self.reduced.path_order
        blocks = []
        for x in order:
            members = st.nodes_of(x)
            if len(members) < 2:
                continue
            idx = np.array(members)
            pos = {u: i for i, u in enumerate(members)}
            mand_in = [(pos[a], pos[b]) for (a, b) in mand
                       if st.scc_of[a] == x and st.scc_of[b] == x]
            blocks.append((members, idx, mand_in))
        cuts = []
        for x, y in zip(order, order[1:]):
            cut = sorted((u, v) for (u, v) in st.out_arcs[x]
                         if st.scc_of[v] == y and gv.has_arc(u, v))
            if not cut:
                self.fail("empty cut between blocks")
            forced = [(u, v) for (u, v) in cut if gv.has_mandatory(u, v)]
            if forced:
                cuts.append((None, None, forced[0]))
            else:
                us = np.fromiter((u for u, _ in cut), np.int64, len(cut))
                vs = np.fromiter((v for _, v in cut), np.int64, len(cut))
                cuts.append((us, vs, None))
        return blocks, cuts

    # one relaxation evaluation at the current multipliers; returns the
    # tree total plus the realized arc endpoints as two index arrays
    def _tree_at(self, mand, ctx):
        gv = self.gv
        E, S = effective_costs(gv, self.C, self.pi_out, self.pi_in)
        cross = []
        if self.mode == "mst":
            total, pairs = mst_prim(gv, E, S, mand)
        else:
            blocks, cuts = ctx
            total = 0.0
            pairs = []
            for members, idx, mand_in in blocks:
                sub_true = S[np.ix_(idx, idx)]
                sub = sub_true
                if mand_in:
                    sub = sub_true.copy()
                    for pa, pb in mand_in:
                        sub[pa, pb] = sub[pb, pa] = -1e17
                t, sub_pairs = _prim_pairs(sub, sub_true)
                total += t
                pairs.extend((members[pi], members[qi])
                             for (pi, qi) in sub_pairs)
            for us, vs, forced in cuts:
                if forced is not None:
                    u, v = forced
                else:
                    w = E[us, vs]
                    k = int(np.lexsort((vs, us, w))[0])
                    u, v = int(us[k]), int(vs[k])
                total += float(E[u, v])
                cross.append((u, v))
        if pairs:
            A = np.asarray(pairs, dtype=np.int64)
            lo = np.minimum(A[:, 0], A[:, 1])
            hi = np.maximum(A[:, 0], A[:, 1])
            fwd = E[lo, hi] <= E[hi, lo]
            xs = np.where(fwd, lo, hi)
            ys = np.where(fwd, hi, lo)
        else:
            xs = np.empty(0, dtype=np.int64)
            ys = np.empty(0, dtype=np.int64)
        if cross:
            B = np.asarray(cross, dtype=np.int64)
            xs = np.concatenate([xs, B[:, 0]])
            ys = np.concatenate([ys, B[:, 1]])
        return total, xs, ys

    def _run(self, ub_target, mand, ctx):
        gv = self.gv
        n = gv.n
        lam = 2.0
        nonimp = 0
        best = -INF
        best_pi = (self.pi_out.copy(), self.pi_in.copy())
        for _ in range(self.ITERS):
            total, xs, ys = self._tree_at(mand, ctx)
            lb = total - (self.pi_out.sum() + self.pi_in.sum())
            if lb > best + 1e-12:
                best = lb
                best_pi = (self.pi_out.copy(), self.pi_in.copy())
                nonimp = 0
            else:
                nonimp += 1
                if nonimp % 10 == 0:
                    lam *= 0.5
            if self.obj.ub is not None and \
                    math.ceil(lb - CEIL_EPS) > self.obj.ub:
                self.pi_out, self.pi_in = best_pi
                self.best_lb = max(self.best_lb, best)
                self.fail("bound exceeds the cap")
            # ascent direction of L(pi) = min_T sum(c + pi) - sum(pi):
            # raise the price of nodes the tree over-uses
            g_out = np.bincount(xs, minlength=n) - 1.0
            g_in = np.bincount(ys, minlength=n) - 1.0
            g_out[gv.e] = 0.0
            g_in[gv.s] = 0.0
            denom = float(g_out @ g_out + g_in @ g_in)
            if denom == 0.0:
                best = max(best, lb)
                if lb > best - 1e-12:
                    best_pi = (self.pi_out.copy(), self.pi_in.copy())
                break
            step = lam * (ub_target - lb) / denom
            if step <= 0.0:
                break
            self.pi_out = self.pi_out + step * g_out
            self.pi_in = self.pi_in + step * g_in
            self.pi_out[gv.e] = 0.0
            self.pi_in[gv.s] = 0.0
        self.pi_out, self.pi_in = best_pi
        return best

    def propagate(self):
        gv = self.gv
        had_events = bool(self.events)
        self.events.clear()
        if not had_events and self._done_stamp == gv.stamp():
            return      # woken only by its own filtering, nothing changed
        if self.mode == "bst":
            if self.reduced is None or self.reduced.path_order is None:
                return
            if self.reduced.state.pop_epoch != gv.pop_epoch:
                return
        mand = mandatory_pairs(gv)
        ub = self.obj.ub
        # the multiplier search happens once per search node; later wakes in
        # the same node only redo the filtering below at the stored
        # multipliers, which stays a valid relaxation of the shrunk domain
        key = (gv.pop_epoch, gv.trail.depth)
        if key != self._full_key:
            ub_target = float(ub) if ub is not None \
                else 2.0 * lb_trivial(gv, self.C)
            ctx = self._bst_context(mand) if self.mode == "bst" else None
            runs = 2 if gv.depth == 0 else 1
            best = -INF
            for _ in range(runs):
                best = max(best, self._run(ub_target, mand, ctx))
            self.best_lb = best
            self._full_key = key
        # filter at the best multipliers seen
        E, S = effective_costs(gv, self.C, self.pi_out, self.pi_in)
        offset = float(self.pi_out.sum() + self.pi_in.sum())
        if self.mode == "mst":
            total, edges = mst_kruskal(gv, S, mand)
            tree = TreeAnalysis(list(range(gv.n)), edges, E)
            self.last_analysis = tree
            self.obj.tighten_lb(int(math.ceil(total - offset - CEIL_EPS)))
            if ub is not None:
                removed, enforced, marg = wst_filter(
                    gv, tree, E, float(ub), offset, sink=self)
                self.last_marginals = marg
        else:
            bst = bst_build(gv, E, self.reduced.state,
                            self.reduced.path_order, mand)
            self.last_analysis = bst
            self.obj.tighten_lb(int(math.ceil(bst.total - offset - CEIL_EPS)))
            if ub is not None:
                bst_filter(gv, bst, E, float(ub), offset, sink=self)
        # arcs dropped by the filters above echo back as events to this
        # propagator; they are already accounted for, so swallow them
        self.events.clear()
        self._done_stamp = gv.stamp()


# -- assignment propagator -------------------------------------------------------


class HungarianPropagator(Propagator):
    """Successor-assignment bound via shortest augmenting paths.

    Duals and the matching persist across calls.  Backtracking can revive
    arcs that break dual feasibility, so every call first clamps the column
    duals, drops stale or non-tight matches, then re-augments.
    """

    BIGC = 1e15

    def __init__(self, gv, C, obj):
        super().__init__(gv)
        self.name = "assignment"
        self.priority = 4
        self.obj = obj
        self.rows = [u for u in range(gv.n) if u != gv.e]
        self.cols = [v for v in range(gv.n) if v != gv.s]
        base = np.asarray(C, dtype=float)[np.ix_(self.rows, self.cols)]
        self.Cbase = np.where(np.isfinite(base), base, self.BIGC)
        self.du = np.zeros(len(self.rows))
        self.dv = np.zeros(len(self.cols))
        self.row_match = [-1] * len(self.rows)
        self.col_match = [-1] * len(self.cols)
        self._done_stamp = None

    def _augment(self, i0, Cm):
        du, dv = self.du, self.dv
        m = len(self.cols)
        dist = [Cm[i0][j] - du[i0] - dv[j] for j in range(m)]
        par = [i0] * m
        done = [False] * m
        while True:
            j_best = -1
            d_best = self.BIGC
            for j in range(m):
                if not done[j] and dist[j] < d_best:
                    d_best = dist[j]
                    j_best = j
            if j_best == -1 or d_best >= self.BIGC / 2:
                self.fail("no successor assignment within the domain")
            j = j_best
            done[j] = True
            i = self.col_match[j]
            if i == -1:
                break
            base = dist[j] - (Cm[i][j] - du[i] - dv[j])
            for k in range(m):
                if not done[k]:
                    nd = base + Cm[i][k] - du[i] - dv[k]
                    if nd < dist[k]:
                        dist[k] = nd
                        par[k] = i
        D = dist[j]
        # dual update keeps feasibility and tightens the tree edges
        for k in range(m):
            if done[k] and k != j:
                i = self.col_match[k]
                dv[k] += dist[k] - D
                du[i] += D - dist[k]
        du[i0] += D
        # flip the matching along the alternating path
        while True:
            i = par[j]
            self.col_match[j] = i
            self.row_match[i], j = j, self.row_match[i]
            if i == i0:
                break

    def propagate(self):
        gv = self.gv
        had_events = bool(self.events)
        self.events.clear()
        if not had_events and self._done_stamp == gv.stamp():
            return
        A = gv.pmask[np.ix_(self.rows, self.cols)]
        Cm = np.where(A, self.Cbase, self.BIGC)
        # revived arcs may undercut the duals: clamp columns down
        colmin = (Cm - self.du[:, None]).min(axis=0)
        self.dv = np.minimum(self.dv, colmin)
        for i, j in enumerate(self.row_match):
            if j != -1:
                if not A[i, j] or Cm[i, j] - self.du[i] - self.dv[j] > 1e-9:
                    self.row_match[i] = -1
                    self.col_match[j] = -1
        Cl = Cm.tolist()
        for i in range(len(self.rows)):
            if self.row_match[i] == -1:
                self._augment(i, Cl)
        cost = float(sum(Cm[i, self.row_match[i]]
                         for i in range(len(self.rows))))
        if cost >= self.BIGC / 2:
            self.fail("no successor assignment within the domain")
        self.obj.tighten_lb(int(math.ceil(cost - CEIL_EPS)))
        ub = self.obj.ub
        if ub is not None:
            rc = Cm - self.du[:, None] - self.dv[None, :]
            slack = float(ub) - cost
            bad = A & (rc > slack + PRUNE_EPS)
            for i, j in zip(*np.nonzero(bad)):
                if self.row_match[i] != j:
                    self.remove(self.rows[int(i)], self.cols[int(j)])
        self.events.clear()
        self._done_stamp = gv.stamp()
