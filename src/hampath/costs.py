"""Cost reasoning: relaxation bounds and the filters they power.

All bounds speak about the fixed-endpoints Hamiltonian path and read the
model's nested cost list C on the present arcs only.  The Lagrangian
propagator prices node degrees with multipliers, numpy vectors whose
pairwise sums fix its bounds, and bounds through one spanning tree oracle:
arc costs are symmetrized by keeping the cheaper present direction of each
node pair, and mandatory arcs are seeded into the tree.  Once the reduced
graph is a known path of blocks, the oracle spans every block on its own
and joins consecutive blocks with their cheapest cut arc; until then it
spans all nodes at once.  Every evaluation of the relaxation is a step of
the subgradient ascent, and one swap filter prunes against the best
iterate's tree; its floor starts at the sum of the row minima.  The
assignment propagator bounds through the successor matching.

The tree has one format from oracle to filter: the reduced-path
propagator's block and cut lists as they are, per block the (parent,
child) node pairs in Prim's joining order, and per cut one connector arc.
The filter analyses it with node-indexed lists.
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
    current world's proven floor; each raise is logged, so backtracking
    restores it.  Costs may be negative, so the floor starts at -inf; root
    propagation sets it.
    """

    def __init__(self, gv):
        self.gv = gv
        self.lb = -INF
        self.ub = None

    def tighten_lb(self, value):
        if value > self.lb:
            old = self.lb
            self.gv.record(lambda: setattr(self, "lb", old))
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
        total += min(map(C[u].__getitem__, row))
    return total


# -- the tree oracle -------------------------------------------------------------


def effective_costs(gv, C, pi_out, pi_in):
    """(E, S): directed effective costs and their symmetrized minimum.

    Nested lists: E[u][v] = C[u][v] + pi_out[u] + pi_in[v] on gv's present
    arcs, inf elsewhere, and S[u][v] = min(E[u][v], E[v][u]).
    """
    pin = pi_in.tolist()
    E = [[INF] * gv.n for _ in pin]
    S = [[INF] * gv.n for _ in pin]
    # one pass: each present arc lowers both entries of its node pair,
    # which therefore stay equal
    for u, po in enumerate(pi_out.tolist()):
        Eu, Su, Cu = E[u], S[u], C[u]
        for v in gv.succ[u]:
            w = Eu[v] = Cu[v] + po + pin[v]
            if w < Su[v]:
                Su[v] = S[v][u] = w
    return E, S


def realized_arc(E, a, c):
    """The arc tree edge {a, c} stands for at directed costs E: the
    cheaper direction, the smaller tail on a tie."""
    x, y = E[a][c], E[c][a]
    return (a, c) if x < y or x == y and a < c else (c, a)


def tree_oracle(gv, reduced=None):
    """(blocks, cuts, pins) the tree relaxation spans on the current domain.

    While the reduced-path propagator `reduced` holds a block order from a
    complete call made since the last backtrack, blocks and cuts are its
    own lists: the member lists in block order, each ascending, and per
    consecutive pair the sorted witness arcs.  Otherwise one block holds
    all n nodes and there are no cuts: the plain spanning tree.  pins[u]
    lists the nodes tied to u by a mandatory arc.

    The cuts need no re-check: `hk` runs at priority 5, every mutation but
    its own wakes reduced-path at priority 2, and it repeats its pass until
    its door rules, the only ones that cut inside a block, remove nothing.
    Every cut arc is present, and a cut that holds a mandatory arc holds
    only that arc; a cut of one arc holds a mandatory one.
    """
    pins = [[] for _ in range(gv.n)]
    for u, heads in enumerate(gv.msucc):
        for v in heads:
            pins[u].append(v)
            pins[v].append(u)
    if reduced is None or reduced.epoch != gv.pop_epoch:
        return [list(range(gv.n))], [], pins
    return reduced.blocks, reduced.cuts, pins


PIN = -1e17     # selection weight of a mandatory pair


def _prim_pairs(S, members, pins):
    """Min spanning tree over `members` on the nested-list weights S.

    members ascend; pins[u] lists u's mandatory partners, and such a pair
    enters the tree as soon as it touches it (partners outside `members`
    are never read).  Returns (total, pairs): the summed weight and the
    (parent, child) pairs in joining order, rooted at members[0].  Raises
    on a disconnected graph.
    """
    # plain lists beat numpy here: the graphs are small and the loop is
    # dominated by per-call dispatch overhead, not arithmetic
    root = members[0]
    todo = members[1:]
    best = S[root][:]
    src = [root] * len(best)
    for k in pins[root]:
        best[k] = PIN
    total = 0.0
    pairs = []
    while todo:
        # todo stays ascending, so ties go to the smallest node
        j = min(todo, key=best.__getitem__)
        if best[j] == INF:
            raise Contradiction("spanning tree: potential graph disconnected")
        a = src[j]
        total += S[a][j]
        pairs.append((a, j))
        todo.remove(j)
        row = S[j]
        for k in todo:
            if row[k] < best[k]:
                best[k] = row[k]
                src[k] = j
        for k in pins[j]:
            if PIN < best[k]:
                best[k] = PIN
                src[k] = j
    return total, pairs


def span_blocks(E, S, blocks, cuts, pins):
    """One evaluation of the tree oracle at directed costs E.

    Returns (total, trees, connectors): per block its tree as (parent,
    child) node pairs in joining order; per cut its connector arc, the
    lone arc of a one-arc cut and the cheapest arc otherwise.  Block
    totals are summed in block order, then the connectors in cut order.
    """
    total = 0.0
    trees = []
    for members in blocks:
        if len(members) < 2:
            trees.append([])
            continue
        t, pairs = _prim_pairs(S, members, pins)
        total += t
        trees.append(pairs)
    connectors = []
    for cut in cuts:
        # the cut is sorted, so min breaks ties towards the smallest arc
        u, v = min(cut, key=lambda a: E[a[0]][a[1]])
        total += E[u][v]
        connectors.append((u, v))
    return total, trees, connectors


def _tree_path(parent, depth, x, y):
    """The child nodes of the tree edges on the path between x and y."""
    out = []
    dx, dy = depth[x], depth[y]
    while dx > dy:
        out.append(x)
        x = parent[x]
        dx -= 1
    while dy > dx:
        out.append(y)
        y = parent[y]
        dy -= 1
    while x != y:
        out.append(x)
        out.append(y)
        x = parent[x]
        y = parent[y]
    return out


def wst_filter(p, E, S, tree, blocks, cuts, ub, offset):
    """Swap-based filtering against the block spanning tree bound.

    `tree` is span_blocks' evaluation at directed costs E over the oracle's
    blocks and cuts, and its total minus `offset` is the bound.  A cut arc
    can only stand in for its cut's connector; an arc inside a block runs
    the spanning-tree swap argument within its block's tree.  An arc whose
    best insertion still lands above ub dies.  A tree edge whose removal
    cannot be repaired within ub is enforced when only one direction is
    present, and so is the last arc left in a cut.  The propagator p
    makes both changes.

    The marginal of a present arc off the tree, the bound with that arc
    swapped in, is the value compared with ub.  Returns swaps, which maps
    each non-mandatory realized tree arc to the extra cost of its cheapest
    replacement.  Pass ub = inf to analyse without pruning.
    """
    gv = p.gv
    B, trees, connectors = tree
    swaps = {}
    for cut, (su, sv) in zip(cuts, connectors):
        if len(cut) == 1:
            continue            # its lone arc is mandatory
        csel = E[su][sv]
        alive = []
        best = INF
        for (u, v) in cut:
            if (u, v) != (su, sv):
                if B - csel + E[u][v] - offset > ub + PRUNE_EPS:
                    p.remove(u, v)
                    continue
                best = min(best, E[u][v])
            alive.append((u, v))
        swaps[(su, sv)] = best - csel
        if len(alive) == 1:
            p.enforce(*alive[0])
    # every block tree at once, indexed by the child node c of each edge
    # {parent[c], c}: its depth, its realized arc and its weight, None on a
    # mandatory pair
    msucc = gv.msucc
    n = gv.n
    parent = [-1] * n
    depth = [0] * n
    arc = [None] * n
    weight = [None] * n
    repl = [INF] * n        # cheapest pair that could stand in for the edge
    for pairs in trees:
        for a, c in pairs:
            parent[c] = a
            depth[c] = depth[a] + 1
            arc[c] = realized_arc(E, a, c)
            if c not in msucc[a] and a not in msucc[c]:
                weight[c] = S[a][c]
    for members, pairs in zip(blocks, trees):
        if not pairs:
            continue
        # per pair off the tree: the heaviest replaceable edge on its tree
        # path, -inf when every edge there is mandatory
        maxpath = {}
        for i, a in enumerate(members):
            row = S[a]
            for b in members[i + 1:]:
                w = row[b]
                if w == INF or parent[a] == b or parent[b] == a:
                    continue
                mx = -INF
                for c in _tree_path(parent, depth, a, b):
                    cw = weight[c]
                    if cw is not None:
                        if cw > mx:
                            mx = cw
                        if w < repl[c]:
                            repl[c] = w
                maxpath[(a, b)] = mx
        inside = set(members)
        for u in members:
            for v in sorted(gv.succ[u] & inside):
                c = v if parent[v] == u else u if parent[u] == v else -1
                if c >= 0:
                    if weight[c] is None:
                        # pair pinned by a directed arc; the reverse
                        # direction can never ride along it, the pinned
                        # one must never be touched
                        if gv.has_mandatory(v, u):
                            p.remove(u, v)
                        continue
                    if arc[c] == (u, v):
                        continue
                    # opposite direction of a tree edge: swap the edge
                    # for itself
                    mx = weight[c]
                else:
                    mx = maxpath[(u, v) if u < v else (v, u)]
                if B - mx + E[u][v] - offset > ub + PRUNE_EPS:
                    p.remove(u, v)
        for _, c in pairs:
            w = weight[c]
            if w is None:
                continue
            ra, rb = arc[c]
            swaps[(ra, rb)] = repl[c] - w
            if B - w + repl[c] - offset > ub + PRUNE_EPS \
                    and not gv.has_arc(rb, ra):
                p.enforce(ra, rb)
    return swaps


# -- Lagrangian propagator ------------------------------------------------------


class HeldKarpPropagator(Propagator):
    """Subgradient-sharpened spanning tree bound with filtering.

    The tree comes from `tree_oracle`: the block tree while the
    reduced-path propagator `reduced` knows the block order, the plain
    spanning tree otherwise.  Each call reads the oracle once, and `_run`
    is the only place that evaluates it: each ascent step prices the
    present arcs through `effective_costs` and spans that same (blocks,
    cuts, pins) through `span_blocks`, and the filter reads the best
    iterate's evaluation.  Node multipliers price the out-degree of every
    node but e and the in-degree of every node but s.  They persist
    across calls and across backtracking; each run restarts the step
    control.  Each filtering pass leaves its swap costs in `last_swaps`,
    which the enforceMaxRC branching reads.

    Every call first raises the floor to `lb_trivial`, the row-minimum
    sum, which the Lagrangian passes at out-multipliers of minus each
    node's cheapest arc, a point the ascent need not visit.
    """

    ITERS = 30

    def __init__(self, gv, C, obj, reduced=None):
        super().__init__(gv)
        self.name = "hk"
        self.priority = 5
        self.C = C
        self.obj = obj
        self.reduced = reduced
        self.pi_out = np.zeros(gv.n)
        self.pi_in = np.zeros(gv.n)
        self.last_swaps = None
        self._full_key = None

    def _run(self, ub_target, oracle, iters):
        """At most `iters` ascent steps from the stored multipliers; leaves
        them at the best iterate and returns its evaluation (lb, E, S, tree,
        offset), where offset is the multiplier sum: lb = tree[0] - offset."""
        gv = self.gv
        n = gv.n
        lam = 2.0
        nonimp = 0
        best = None
        # each step replaces the multiplier arrays and never writes into
        # them, so the best ones are kept by reference
        pi_out, pi_in = self.pi_out, self.pi_in
        for _ in range(iters):
            E, S = effective_costs(gv, self.C, pi_out, pi_in)
            tree = span_blocks(E, S, *oracle)
            offset = float(pi_out.sum() + pi_in.sum())
            lb = tree[0] - offset
            if best is None or lb > best[0] + 1e-12:
                best = (lb, E, S, tree, offset)
                best_pi = (pi_out, pi_in)
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
            # raise the price of nodes the tree over-uses; the zeroed
            # entries keep pi_out[e] and pi_in[s] at 0
            arcs = [realized_arc(E, a, c) for t in tree[1] for a, c in t]
            arcs += tree[2]
            g_out = np.bincount([u for u, _ in arcs], minlength=n) - 1.0
            g_in = np.bincount([v for _, v in arcs], minlength=n) - 1.0
            g_out[gv.e] = 0.0
            g_in[gv.s] = 0.0
            denom = float(g_out @ g_out + g_in @ g_in)
            if denom == 0.0:
                if lb > best[0] - 1e-12:
                    best = (lb, E, S, tree, offset)
                    best_pi = (pi_out, pi_in)
                break
            step = lam * (ub_target - lb) / denom
            if step <= 0.0:
                break
            pi_out = pi_out + step * g_out
            pi_in = pi_in + step * g_in
        self.pi_out, self.pi_in = best_pi
        return best

    def propagate(self):
        gv = self.gv
        # the row-minimum floor comes first: a sum above the cap fails the
        # call before the ascent moves the persistent multipliers
        lt = lb_trivial(gv, self.C)
        self.obj.tighten_lb(int(math.ceil(lt - CEIL_EPS)))
        oracle = tree_oracle(gv, self.reduced)
        ub = self.obj.ub
        ub_target = float(ub) if ub is not None else 2.0 * lt
        # the multiplier search happens once per search node; later wakes in
        # the same node, by other propagators' changes, evaluate once at the
        # stored multipliers, which stays a valid relaxation of the shrunk
        # domain, and throw the step away
        key = (gv.pop_epoch, gv.depth)
        iters = self.ITERS if key != self._full_key else 1
        for _ in range(2 if gv.depth == 0 and iters > 1 else 1):
            start = self.pi_out
            lb, E, S, tree, offset = self._run(ub_target, oracle, iters)
            if self.pi_out is start:
                break       # no step improved: a second run would replay it
        self._full_key = key
        # filter at the best multipliers seen; without a cap the pass only
        # records the swap costs enforceMaxRC reads
        self.obj.tighten_lb(int(math.ceil(lb - CEIL_EPS)))
        blocks, cuts, _ = oracle
        self.last_swaps = wst_filter(
            self, E, S, tree, blocks, cuts, INF if ub is None else float(ub),
            offset)


# -- assignment propagator -------------------------------------------------------


_STALE = object()       # no completed call to compare the cap with


class HungarianPropagator(Propagator):
    """Successor-assignment bound via shortest augmenting paths.

    Rows are the nodes but e, columns the nodes but s, and all state is
    indexed by node.  Every call reads the present arcs only, from the
    domain's successor and predecessor sets: no matrix.  Duals and the
    matching persist across calls and across backtracking.

    A call works only where the domain can have moved since the last one.
    After a backtrack, revived arcs may break dual feasibility, so the call
    clamps the column duals down and drops stale or non-tight matches.
    While `pop_epoch` is unchanged, arcs have only gone: every reduced cost
    stays >= 0 and every present matched arc stays tight, so the call only
    drops the matches whose arc is gone.  Either way it then re-augments
    the unmatched rows and filters.  When no match dropped and the cap is
    the one the last completed call filtered at, the filter would remove
    nothing at the same duals and limit, and the call returns at once.
    Costs are integers, so while the duals stay below 2**53 their
    arithmetic is exact and both shortcuts leave the state a clamp and a
    full re-check would.
    """

    def __init__(self, gv, C, obj):
        super().__init__(gv)
        self.name = "assignment"
        self.priority = 4
        self.obj = obj
        self.rows = [u for u in range(gv.n) if u != gv.e]
        self.C = C
        self.du = [0.0] * gv.n
        self.dv = [0.0] * gv.n
        self.row_match = [-1] * gv.n
        self.col_match = [-1] * gv.n
        self.epoch = None       # gv.pop_epoch at the last call
        self.capped = _STALE    # cap of the last completed call

    def _augment(self, r0):
        """Match row r0 along a shortest augmenting path of reduced costs."""
        succ = self.gv.succ
        C, du, dv = self.C, self.du, self.dv
        col_match = self.col_match
        n = self.gv.n
        dist = [INF] * n
        par = [r0] * n
        done = [False] * n
        Cr, dur = C[r0], du[r0]
        reached = list(succ[r0])        # finite distance, not yet scanned
        for v in reached:
            dist[v] = Cr[v] - dur - dv[v]
        scanned = []
        while True:
            # the closest reached column, ties to the smallest node
            j = -1
            d_best = INF
            for v in reached:
                d = dist[v]
                if d < d_best or d == d_best and v < j:
                    d_best = d
                    j = v
            if j == -1:
                self.fail("no successor assignment within the domain")
            reached.remove(j)
            done[j] = True
            scanned.append(j)
            i = col_match[j]
            if i == -1:
                break
            Ci, dui = C[i], du[i]
            base = dist[j] - (Ci[j] - dui - dv[j])
            for k in succ[i]:
                if not done[k]:
                    nd = base + Ci[k] - dui - dv[k]
                    if nd < dist[k]:
                        if dist[k] == INF:
                            reached.append(k)
                        dist[k] = nd
                        par[k] = i
        D = dist[j]
        # dual update keeps feasibility and tightens the tree edges
        for k in scanned[:-1]:
            i = col_match[k]
            dv[k] += dist[k] - D
            du[i] += D - dist[k]
        du[r0] += D
        # flip the matching along the alternating path
        row_match = self.row_match
        while True:
            i = par[j]
            col_match[j] = i
            row_match[i], j = j, row_match[i]
            if i == r0:
                break

    def propagate(self):
        gv = self.gv
        succ, pred = gv.succ, gv.pred
        C, du, dv = self.C, self.du, self.dv
        rows, row_match, col_match = self.rows, self.row_match, self.col_match
        ub = self.obj.ub
        if self.epoch == gv.pop_epoch:
            # only arcs went: drop the matches whose arc is gone
            whole = True
            for u in rows:
                v = row_match[u]
                if v not in succ[u]:
                    whole = False
                    if v != -1:
                        row_match[u] = -1
                        col_match[v] = -1
            if whole and ub == self.capped:
                return
        else:
            self.epoch = gv.pop_epoch
            # revived arcs may undercut the duals: clamp columns down
            for v in range(gv.n):
                d = dv[v]
                for u in pred[v]:
                    r = C[u][v] - du[u]
                    if r < d:
                        d = r
                dv[v] = d
            for u in rows:
                v = row_match[u]
                if v != -1:
                    if v not in succ[u] or C[u][v] - du[u] - dv[v] > 1e-9:
                        row_match[u] = -1
                        col_match[v] = -1
        self.capped = _STALE    # until this call completes
        for u in rows:
            if row_match[u] == -1:
                self._augment(u)
        cost = float(sum(C[u][row_match[u]] for u in rows))
        self.obj.tighten_lb(int(math.ceil(cost - CEIL_EPS)))
        if ub is not None:
            lim = float(ub) - cost + PRUNE_EPS
            bad = []
            for u in rows:
                Cu, duu, mu = C[u], du[u], row_match[u]
                for v in succ[u]:
                    if Cu[v] - duu - dv[v] > lim and v != mu:
                        bad.append((u, v))
            # ascending (u, v): degree reads the removals in log order
            bad.sort()
            for u, v in bad:
                self.remove(u, v)
        self.capped = ub
