"""Cost reasoning: relaxation bounds and the filters they power.

All bounds speak about the fixed-endpoints Hamiltonian path.  The
Lagrangian propagator prices node degrees with multipliers and bounds
through one spanning tree oracle: arc costs are symmetrized by keeping the
cheaper present direction of each node pair, and mandatory arcs are seeded
into the tree.  Once the reduced graph is a known path of blocks, the
oracle spans every block on its own and joins consecutive blocks with
their cheapest cut arc; until then it spans all nodes at once.  One swap
filter prunes against whichever tree it built.  The assignment propagator
bounds through the successor matching instead.
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
    current world's proven floor and restores with the trail.  Costs may
    be negative, so the floor starts at -inf; root propagation sets it.
    """

    def __init__(self, gv):
        self.gv = gv
        self.lb = -INF
        self.ub = None

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
        self.obj.tighten_lb(int(math.ceil(lb_trivial(self.gv, self.C) - CEIL_EPS)))


# -- the tree oracle -------------------------------------------------------------


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


def tree_oracle(gv, reduced=None):
    """(blocks, cuts) the tree relaxation spans on the current domain.

    A block is (members, index array, mandatory pairs), the members
    ascending and the pairs in member positions; a cut is (arcs, tails,
    heads, mandatory arc or None) between two consecutive blocks.  While
    the reduced-path propagator `reduced` holds a block order from a
    complete call made since the last backtrack, every block of that order
    is spanned on its own and each cut adds one connector arc.  Otherwise
    one block holds all n nodes, with no index array, and there are no
    cuts: the plain spanning tree.
    """
    mand = mandatory_pairs(gv)
    if reduced is None or reduced.epoch != gv.pop_epoch:
        return [(range(gv.n), None, mand)], []
    blocks = []
    for members in reduced.blocks:
        pos = {u: i for i, u in enumerate(members)}
        blocks.append((members, np.array(members),
                       [(pos[a], pos[b]) for (a, b) in mand
                        if a in pos and b in pos]))
    cuts = []
    for kept in reduced.cuts:
        # arcs can only have gone since that call
        cut = [a for a in kept if gv.has_arc(*a)]
        if not cut:
            raise Contradiction("block tree: empty cut between blocks")
        forced = next((a for a in cut if gv.has_mandatory(*a)), None)
        us = np.fromiter((u for u, _ in cut), np.int64, len(cut))
        vs = np.fromiter((v for _, v in cut), np.int64, len(cut))
        cuts.append((cut, us, vs, forced))
    return blocks, cuts


def span_blocks(E, S, blocks, cuts):
    """One evaluation of the tree oracle at directed costs E.

    Returns (total, trees, connectors): per block its tree pairs (a, b),
    a < b, in node ids; per cut the selected connector arc, its mandatory
    arc if it has one and its cheapest arc otherwise.
    """
    total = 0.0
    trees = []
    for members, idx, mand in blocks:
        if len(members) < 2:
            trees.append([])
            continue
        true = S if idx is None else S[np.ix_(idx, idx)]
        sel = true
        if mand:
            sel = true.copy()
            for a, b in mand:
                sel[a, b] = sel[b, a] = -1e17
        t, pairs = _prim_pairs(sel, true)
        total += t
        # members ascend, so position order is node order
        trees.append([(members[p], members[q]) if p < q
                      else (members[q], members[p]) for p, q in pairs])
    connectors = []
    for cut, us, vs, forced in cuts:
        # the cut is sorted, so argmin breaks ties towards the smallest arc
        arc = forced if forced is not None \
            else cut[int(np.argmin(E[us, vs]))]
        total += float(E[arc])
        connectors.append(arc)
    return total, trees, connectors


def realized_arc(E, a, b):
    """Direction a tree edge {a, b} takes under directed costs E."""
    if a > b:
        a, b = b, a
    return (a, b) if E[a, b] <= E[b, a] else (b, a)


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


class BlockTree:
    """Per-block trees plus one connector arc per consecutive cut."""

    def __init__(self, total, trees, connectors):
        self.total = total
        self.trees = trees                  # TreeAnalysis per block, in order
        self.connectors = connectors        # (cost, u, v, cut arcs) per cut


def block_tree(E, S, blocks, cuts):
    """The tree oracle's spanning tree at directed costs E, analysed for
    the swap filter."""
    total, trees, arcs = span_blocks(E, S, blocks, cuts)
    analyses = []
    for (members, _, mand), pairs in zip(blocks, trees):
        pinned = {(members[a], members[b]) for a, b in mand}
        edges = [(a, b, float(S[a, b]), (a, b) in pinned) for a, b in pairs]
        analyses.append(TreeAnalysis(members, edges, E))
    connectors = [(float(E[u, v]), u, v, cut)
                  for (u, v), (cut, _, _, _) in zip(arcs, cuts)]
    return BlockTree(total, analyses, connectors)


def _tree_swap_tables(tree, S):
    """Per pair: the heaviest replaceable edge on its tree path; per tree
    edge: the cheapest outside pair that could stand in for it.

    S is the symmetrized cost matrix as nested lists.  Returns (maxpath,
    repl) where maxpath maps a non-tree pair (a, b) to the max
    non-mandatory edge weight on its path (-inf when everything on the
    path is mandatory) and repl[i] is edge i's replacement cost.
    """
    maxpath = {}
    repl = [INF] * len(tree.edges)
    nodes = tree.nodes
    for ai, a in enumerate(nodes):
        row = S[a]
        for b in nodes[ai + 1:]:
            w = row[b]
            if w == INF or (a, b) in tree.pair_index:
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


def wst_filter(gv, bt, E, ub, offset=0.0, sink=None):
    """Swap-based filtering against the block spanning tree bound.

    A cut arc can only stand in for its cut's connector; an arc inside a
    block runs the spanning-tree swap argument within its block's tree.
    An arc whose best insertion still lands above ub dies.  A tree edge
    whose removal cannot be repaired within ub is enforced when only one
    direction is present, and so is the last arc left in a cut.

    Returns (removed, enforced, marginals, swaps): marginals maps each
    present arc off the tree to the bound with that arc swapped in, swaps
    maps each non-mandatory realized tree arc to the extra cost of its
    cheapest replacement.  Pass ub = inf to analyse without pruning.
    """
    rm = sink.remove if sink is not None else gv.remove_arc
    enf = sink.enforce if sink is not None else gv.enforce_arc
    removed = []
    enforced = []
    marginals = {}
    swaps = {}
    B = bt.total
    Ew = E.tolist()
    for (csel, su, sv, cut) in bt.connectors:
        alive = []
        best = INF
        for (u, v) in cut:
            if not gv.has_arc(u, v):
                continue
            if (u, v) != (su, sv):
                marginal = B - csel + Ew[u][v] - offset
                marginals[(u, v)] = marginal
                if marginal > ub + PRUNE_EPS:
                    if rm(u, v):
                        removed.append((u, v))
                    continue
                best = min(best, Ew[u][v])
            alive.append((u, v))
        if not gv.has_mandatory(su, sv):
            swaps[(su, sv)] = best - csel
        if len(alive) == 1 and enf(*alive[0]):
            enforced.append(alive[0])
    Sw = np.minimum(E, E.T).tolist()
    for tree in bt.trees:
        if len(tree.nodes) < 2:
            continue
        inside = set(tree.nodes)
        maxpath, repl = _tree_swap_tables(tree, Sw)
        for u in tree.nodes:
            for v in sorted(gv.succ[u] & inside):
                a, b = (u, v) if u < v else (v, u)
                i = tree.pair_index.get((a, b))
                if i is not None:
                    if tree.edges[i][3]:
                        # pair pinned by a directed arc; the reverse
                        # direction can never ride along it, the pinned
                        # one must never be touched
                        if gv.has_mandatory(v, u) and rm(u, v):
                            removed.append((u, v))
                        continue
                    if tree.realized[i] == (u, v):
                        continue
                    # opposite direction of a tree edge: swap the edge
                    # for itself
                    mx = tree.edges[i][2]
                else:
                    mx = maxpath[(a, b)]
                marginal = B - mx + Ew[u][v] - offset
                marginals[(u, v)] = marginal
                if marginal > ub + PRUNE_EPS and rm(u, v):
                    removed.append((u, v))
        for i, (a, b, w, emand) in enumerate(tree.edges):
            if emand:
                continue
            ra, rb = tree.realized[i]
            swaps[(ra, rb)] = repl[i] - w
            if B - w + repl[i] - offset > ub + PRUNE_EPS \
                    and not gv.has_arc(rb, ra) and enf(ra, rb):
                enforced.append((ra, rb))
    return removed, enforced, marginals, swaps


# -- Lagrangian propagator ------------------------------------------------------


class HeldKarpPropagator(Propagator):
    """Subgradient-sharpened spanning tree bound with filtering.

    The tree comes from `tree_oracle`: the block tree while the
    reduced-path propagator `reduced` knows the block order, the plain
    spanning tree otherwise.  Node multipliers price the out-degree of
    every node but e and the in-degree of every node but s.  They persist
    across calls and across backtracking; each run restarts the step
    control, not the multipliers.
    """

    ITERS = 30

    def __init__(self, gv, C, obj, reduced=None):
        super().__init__(gv)
        self.name = "hk"
        self.priority = 5
        self.C = np.asarray(C, dtype=float)
        self.obj = obj
        self.reduced = reduced
        self.pi_out = np.zeros(gv.n)
        self.pi_in = np.zeros(gv.n)
        self.last_marginals = None
        self.last_swaps = None
        self._done_stamp = None
        self._full_key = None

    # one relaxation evaluation at the current multipliers; returns the
    # tree total plus the realized arc endpoints as two index arrays
    def _tree_at(self, blocks, cuts):
        E, S = effective_costs(self.gv, self.C, self.pi_out, self.pi_in)
        total, trees, connectors = span_blocks(E, S, blocks, cuts)
        A = np.asarray([p for tree in trees for p in tree],
                       dtype=np.int64).reshape(-1, 2)
        lo, hi = A[:, 0], A[:, 1]
        fwd = E[lo, hi] <= E[hi, lo]
        K = np.asarray(connectors, dtype=np.int64).reshape(-1, 2)
        xs = np.concatenate([np.where(fwd, lo, hi), K[:, 0]])
        ys = np.concatenate([np.where(fwd, hi, lo), K[:, 1]])
        return total, xs, ys

    def _run(self, ub_target, blocks, cuts):
        gv = self.gv
        n = gv.n
        lam = 2.0
        nonimp = 0
        best = -INF
        best_pi = (self.pi_out.copy(), self.pi_in.copy())
        for _ in range(self.ITERS):
            total, xs, ys = self._tree_at(blocks, cuts)
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
        if self._done_stamp == gv.stamp():
            return      # woken only by its own filtering, nothing changed
        blocks, cuts = tree_oracle(gv, self.reduced)
        ub = self.obj.ub
        # the multiplier search happens once per search node; later wakes in
        # the same node only redo the filtering below at the stored
        # multipliers, which stays a valid relaxation of the shrunk domain
        key = (gv.pop_epoch, gv.trail.depth)
        if key != self._full_key:
            ub_target = float(ub) if ub is not None \
                else 2.0 * lb_trivial(gv, self.C)
            for _ in range(2 if gv.depth == 0 else 1):
                self._run(ub_target, blocks, cuts)
            self._full_key = key
        # filter at the best multipliers seen; without a cap the pass only
        # records the marginals and swap costs the branching reads
        E, S = effective_costs(gv, self.C, self.pi_out, self.pi_in)
        offset = float(self.pi_out.sum() + self.pi_in.sum())
        bt = block_tree(E, S, blocks, cuts)
        self.obj.tighten_lb(int(math.ceil(bt.total - offset - CEIL_EPS)))
        _, _, marginals, self.last_swaps = wst_filter(
            gv, bt, E, INF if ub is None else float(ub), offset, sink=self)
        # the sparse heuristics read marginals only under a cap; the dive to
        # the first path goes by arc costs (ftv33 under ALL/both needs 183
        # nodes that way, 1,088 when steered by the marginals)
        self.last_marginals = marginals if ub is not None else None
        self._done_stamp = gv.stamp()


# -- assignment propagator -------------------------------------------------------


class HungarianPropagator(Propagator):
    """Successor-assignment bound via shortest augmenting paths.

    Duals and the matching persist across calls.  Backtracking can revive
    arcs that break dual feasibility, so every call first clamps the column
    duals, drops stale or non-tight matches, then re-augments.
    """

    def __init__(self, gv, C, obj):
        super().__init__(gv)
        self.name = "assignment"
        self.priority = 4
        self.obj = obj
        self.rows = [u for u in range(gv.n) if u != gv.e]
        self.cols = [v for v in range(gv.n) if v != gv.s]
        # flat positions of the rows x cols block, for ndarray.take
        self._flat = np.add.outer(np.array(self.rows) * gv.n, self.cols)
        # inf marks an absent arc
        self.Cbase = np.asarray(C, dtype=float).take(self._flat)
        # plain lists: the augmenting loops read them one entry at a time
        self.du = [0.0] * len(self.rows)
        self.dv = [0.0] * len(self.cols)
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
            d_best = INF
            for j in range(m):
                if not done[j] and dist[j] < d_best:
                    d_best = dist[j]
                    j_best = j
            if j_best == -1:
                self.fail("no successor assignment within the domain")
            j = j_best
            done[j] = True
            i = self.col_match[j]
            if i == -1:
                break
            Ci, dui = Cm[i], du[i]
            base = dist[j] - (Ci[j] - dui - dv[j])
            for k in range(m):
                if not done[k]:
                    nd = base + Ci[k] - dui - dv[k]
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
        if self._done_stamp == gv.stamp():
            return
        A = gv.pmask.take(self._flat)
        Cm = np.where(A, self.Cbase, INF)
        # revived arcs may undercut the duals: clamp columns down
        colmin = (Cm - np.array(self.du)[:, None]).min(axis=0)
        self.dv = np.minimum(self.dv, colmin).tolist()
        du, dv = self.du, self.dv
        Cl = Cm.tolist()
        rows, cols = self.rows, self.cols
        succ = gv.succ
        row_match = self.row_match
        for i, j in enumerate(row_match):
            if j != -1:
                if cols[j] not in succ[rows[i]] or \
                        Cl[i][j] - du[i] - dv[j] > 1e-9:
                    row_match[i] = -1
                    self.col_match[j] = -1
        for i in range(len(self.rows)):
            if row_match[i] == -1:
                self._augment(i, Cl)
        cost = float(sum(Cl[i][j] for i, j in enumerate(row_match)))
        self.obj.tighten_lb(int(math.ceil(cost - CEIL_EPS)))
        ub = self.obj.ub
        if ub is not None:
            rc = Cm - np.array(du)[:, None] - np.array(dv)[None, :]
            slack = float(ub) - cost
            bad = A & (rc > slack + PRUNE_EPS)
            for i, j in zip(*(ix.tolist() for ix in np.nonzero(bad))):
                if row_match[i] != j:
                    self.remove(rows[i], cols[j])
        self._done_stamp = gv.stamp()
