"""Independent reference implementations used to check the package.

Everything here favours brute force and textbook algorithms that share no
code with the library: Kosaraju instead of Tarjan, permutation enumeration
instead of DP, combination scans instead of greedy tree builders,
whole-matrix numpy arithmetic instead of per-arc effective costs, a
TSPLIB reader that evaluates every ordered pair on its own.  The
tests keep the enumerations tiny.  `mutual_reachability` defines the SCC
partition by a reachability closure.  The last helpers read a library ReducedState
(its `members` and `scc_of`, plus the graph's `succ`): snapshots of its
partition and condensation, and a walk of the condensation as a path,
which only the tests need.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from hampath.kernel import PreconditionViolation


def kosaraju_sccs(n, arcs):
    """SCC partition as a frozenset of frozensets, via Kosaraju's algorithm."""
    fwd = [[] for _ in range(n)]
    rev = [[] for _ in range(n)]
    for (u, v) in arcs:
        fwd[u].append(v)
        rev[v].append(u)
    seen = [False] * n
    order = []
    for root in range(n):
        if seen[root]:
            continue
        stack = [(root, 0)]
        seen[root] = True
        while stack:
            v, i = stack[-1]
            if i < len(fwd[v]):
                stack[-1] = (v, i + 1)
                w = fwd[v][i]
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, 0))
            else:
                stack.pop()
                order.append(v)
    comp = [-1] * n
    cur = 0
    for root in reversed(order):
        if comp[root] != -1:
            continue
        stack = [root]
        comp[root] = cur
        while stack:
            v = stack.pop()
            for w in rev[v]:
                if comp[w] == -1:
                    comp[w] = cur
                    stack.append(w)
        cur += 1
    groups = {}
    for v in range(n):
        groups.setdefault(comp[v], []).append(v)
    return frozenset(frozenset(g) for g in groups.values())


def reachable_pairs(n, arcs):
    """Boolean transitive closure by Floyd-Warshall."""
    reach = [[False] * n for _ in range(n)]
    for (u, v) in arcs:
        reach[u][v] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return reach


def ham_paths(n, s, e, has_arc):
    """Yield every Hamiltonian s..e path as a node tuple (brute force)."""
    interior = [v for v in range(n) if v != s and v != e]
    for perm in itertools.permutations(interior):
        seq = (s,) + perm + (e,)
        if all(has_arc(a, b) for a, b in zip(seq, seq[1:])):
            yield seq


def min_ham_path(n, s, e, cost):
    """(best cost, best path) over all Hamiltonian s..e paths; cost(u,v) may
    return None for a missing arc."""
    best = None
    best_path = None
    interior = [v for v in range(n) if v != s and v != e]
    for perm in itertools.permutations(interior):
        seq = (s,) + perm + (e,)
        total = 0
        ok = True
        for a, b in zip(seq, seq[1:]):
            c = cost(a, b)
            if c is None:
                ok = False
                break
            total += c
        if ok and (best is None or total < best):
            best = total
            best_path = seq
    return best, best_path


def min_ham_circuit(n, cost):
    """Cheapest Hamiltonian circuit through node 0 by brute force."""
    best = None
    rest = list(range(1, n))
    for perm in itertools.permutations(rest):
        seq = (0,) + perm + (0,)
        total = 0
        ok = True
        for a, b in zip(seq, seq[1:]):
            c = cost(a, b)
            if c is None:
                ok = False
                break
            total += c
        if ok and (best is None or total < best):
            best = total
    return best


def _spans(n, edge_subset):
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    comps = n
    for (u, v) in edge_subset:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    return comps == 1


def min_spanning_tree_brute(n, edges, forced=()):
    """Minimum spanning tree cost over weighted edges (u, v, w) that must
    include every edge in `forced` (pairs).  None when no tree exists."""
    forced = set(frozenset(p) for p in forced)
    fixed = [e for e in edges if frozenset(e[:2]) in forced]
    if len(fixed) != len(forced):
        return None
    free = [e for e in edges if frozenset(e[:2]) not in forced]
    need = n - 1 - len(fixed)
    if need < 0:
        return None
    best = None
    for combo in itertools.combinations(free, need):
        subset = fixed + list(combo)
        if _spans(n, [e[:2] for e in subset]):
            total = sum(e[2] for e in subset)
            if best is None or total < best:
                best = total
    return best


def min_spanning_tree_kruskal(n, edges, forced=()):
    """Kruskal's minimum spanning tree cost over weighted edges (u, v, w)
    with the `forced` pairs unioned first.  None when no tree exists: the
    graph is disconnected, a forced pair is missing, or forced pairs close
    a cycle."""
    parent = list(range(n))

    def union(a, b):
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a == b:
            return False
        parent[b] = a
        return True

    weight = {frozenset(e[:2]): e[2] for e in edges}
    total = 0
    used = 0
    for pair in forced:
        w = weight.get(frozenset(pair))
        if w is None or not union(*pair):
            return None
        total += w
        used += 1
    for u, v, w in sorted(edges, key=lambda e: e[2]):
        if union(u, v):
            total += w
            used += 1
    return total if used == n - 1 else None


def dense_effective_costs(n, arcs, C, pi_out, pi_in):
    """(E, S) as n x n arrays, by whole-matrix arithmetic: C plus the
    multipliers on the listed arcs, inf elsewhere, and the elementwise
    minimum of E and its transpose."""
    mask = np.zeros((n, n), dtype=bool)
    for u, v in arcs:
        mask[u, v] = True
    E = np.where(mask, C + pi_out[:, None] + pi_in[None, :], np.inf)
    return E, np.minimum(E, E.T)


def _tsplib_distance(ewt, p, q):
    """The TSPLIB95 distance from point p to point q, as its documentation
    writes it; GEO converts both points on every call."""
    xd, yd = p[0] - q[0], p[1] - q[1]
    if ewt == "EUC_2D":
        return int(math.sqrt(xd ** 2 + yd ** 2) + 0.5)
    if ewt == "CEIL_2D":
        return math.ceil(math.sqrt(xd ** 2 + yd ** 2))
    if ewt == "ATT":
        r = math.sqrt((xd ** 2 + yd ** 2) / 10.0)
        t = int(r + 0.5)
        return t + 1 if t < r else t

    def radians(x):
        deg = int(x)            # toward zero
        return 3.141592 * (deg + 5.0 * (x - deg) / 3.0) / 180.0

    lat_p, lon_p = radians(p[0]), radians(p[1])
    lat_q, lon_q = radians(q[0]), radians(q[1])
    q1 = math.cos(lon_p - lon_q)
    q2 = math.cos(lat_p - lat_q)
    q3 = math.cos(lat_p + lat_q)
    return int(6378.388 * math.acos(0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3))
               + 1.0)


def tsplib_matrix(text):
    """The cost matrix of a well-formed TSPLIB text, inf on the diagonal.

    Coordinates give every ordered pair its own evaluation; explicit
    weights fill the cells of their layout one by one."""
    header, sections, body = {}, {}, None
    for line in text.splitlines():
        line = line.strip()
        if not line or line == "EOF":
            continue
        if line.upper().endswith("_SECTION"):
            body = sections[line.upper()] = []
        elif ":" in line:
            key, value = line.split(":", 1)
            header[key.strip().upper()] = value.strip().upper()
            body = None
        else:
            body.extend(float(t) for t in line.split())
    n = int(header["DIMENSION"])
    M = np.full((n, n), np.inf)
    ewt = header.get("EDGE_WEIGHT_TYPE", "EXPLICIT")
    if ewt != "EXPLICIT":
        nums = sections["NODE_COORD_SECTION"]
        pts = {int(nums[k]): (nums[k + 1], nums[k + 2])
               for k in range(0, len(nums), 3)}
        for a in range(n):
            for b in range(n):
                if a != b:
                    M[a, b] = _tsplib_distance(ewt, pts[a + 1], pts[b + 1])
        return M
    weights = iter(sections["EDGE_WEIGHT_SECTION"])
    fmt = header.get("EDGE_WEIGHT_FORMAT", "FULL_MATRIX")
    cells = {
        "FULL_MATRIX": lambda i: range(n),
        "UPPER_ROW": lambda i: range(i + 1, n),
        "UPPER_DIAG_ROW": lambda i: range(i, n),
        "LOWER_ROW": lambda i: range(i),
        "LOWER_DIAG_ROW": lambda i: range(i + 1),
    }[fmt]
    for i in range(n):
        for j in cells(i):
            w = next(weights)
            if i != j:
                M[i, j] = w
                if fmt != "FULL_MATRIX":
                    M[j, i] = w
    return M


def min_assignment_brute(left, right, cost):
    """Cheapest perfect assignment by permutation scan; None if infeasible."""
    best = None
    for perm in itertools.permutations(right):
        total = 0
        ok = True
        for u, v in zip(left, perm):
            c = cost(u, v)
            if c is None:
                ok = False
                break
            total += c
        if ok and (best is None or total < best):
            best = total
    return best


def degree_closure(n, s, e, arcs, mandatory):
    """Fixpoint of the degree and no-cycle rules by repeated full scans.

    Every node but e keeps exactly one successor and every node but s one
    predecessor: an empty side is a contradiction, a single arc is forced,
    and a mandatory arc evicts its siblings.  Mandatory arcs must not close
    a cycle, and the arc from the end of a mandatory chain back to its
    start goes.  Returns (potential, mandatory) as sets of arcs, or None on
    a contradiction.
    """
    pot = set(arcs)
    man = set(mandatory)
    if not man <= pot:
        return None
    while True:
        changed = False
        for u in range(n):
            for end in (0, 1):              # 0: u's successors, 1: u's predecessors
                if u == (e, s)[end]:
                    continue
                side = {a for a in pot if a[end] == u}
                forced = side & man
                if not side or len(forced) > 1:
                    return None
                if forced and side != forced:
                    pot -= side - forced
                    changed = True
                elif not forced and len(side) == 1:
                    man |= side
                    changed = True
        if changed:
            continue
        # every node has at most one mandatory successor and predecessor now
        nxt = dict(man)
        heads = set(nxt) - set(nxt.values())
        on_chains = set()
        for a in heads:
            b = a
            while b in nxt:
                on_chains.add(b)
                b = nxt[b]
            if (b, a) in pot:
                pot.discard((b, a))
                changed = True
        if set(nxt) - on_chains:
            return None                 # a mandatory cycle has no head
        if not changed:
            return pot, man


def mutual_reachability(n, succ):
    """SCC partition by definition: u and v share a class iff each
    reaches the other, that is iff both reach the same node set (each
    counted as reaching itself).  A bitset Warshall closure, then one
    class per distinct reach set; frozenset of frozensets."""
    reach = [1 << u for u in range(n)]
    for u in range(n):
        for v in succ[u]:
            reach[u] |= 1 << v
    for k in range(n):
        bit = 1 << k
        rk = reach[k]
        reach = [r | rk if r & bit else r for r in reach]
    classes = {}
    for u in range(n):
        classes.setdefault(reach[u], []).append(u)
    return frozenset(frozenset(c) for c in classes.values())


def transitive_closure(state):
    """Per-node reachable sets when the reduced graph is a simple path.

    Returns a dict node -> set of nodes it can still reach (itself excluded).
    Raises PreconditionViolation when the condensation is not a path.
    """
    order = reduced_path_order(state)
    result = {}
    later = set()
    for x in reversed(order):
        block = set(state.members[x])
        reach = block | later
        for v in block:
            result[v] = reach - {v}
        later = reach
    return result


def _condensation(state):
    """Block index -> set of block indices its cross arcs reach."""
    out = {x: set() for x in range(len(state.members))}
    succ = state.gv.succ
    scc_of = state.scc_of
    for x, block in enumerate(state.members):
        for u in block:
            out[x].update(scc_of[v] for v in succ[u])
        out[x].discard(x)
    return out


def reduced_path_order(state):
    """The block indices along the reduced path, or raise if it is not a
    path."""
    radj = _condensation(state)
    heads = set().union(*radj.values())
    starts = [x for x in radj if x not in heads]
    if len(starts) != 1:
        raise PreconditionViolation("reduced graph is not a path")
    order = []
    cur = starts[0]
    seen = set()
    while True:
        order.append(cur)
        seen.add(cur)
        nxt = radj[cur]
        if len(nxt) == 0:
            break
        if len(nxt) != 1:
            raise PreconditionViolation("reduced graph is not a path")
        (cur,) = nxt
        if cur in seen:
            raise PreconditionViolation("reduced graph is not a path")
    if len(order) != len(radj):
        raise PreconditionViolation("reduced graph is not a path")
    return order


def partition(state):
    """Index-agnostic snapshot: frozenset of frozensets of nodes."""
    return frozenset(frozenset(block) for block in state.members)


def reduced_arcs(state):
    """Canonical condensation arcs keyed by smallest member node."""
    members = state.members
    return frozenset((members[x][0], members[y][0])
                     for x, heads in _condensation(state).items()
                     for y in heads)
