"""Model assembly and depth-first branch and bound.

A model wires the propagators for one of the named configurations over a
cost matrix; solve() drives binary decisions from one of three branching
heuristics, either proving a bound or optimizing by tightening the cap.
One rule keeps the paths found before the search (rootpath.py), at the
leaves, and, when optimizing under `map` or `both`, by patching each
inner node's assignment matching.  A decision (u, keep, drop) splits the
successors of one node u: the branch removes drop, its alternative
removes keep.  Keeping one successor is how an arc is enforced, since
degree then takes the lone arc.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .costs import INF, HeldKarpPropagator, HungarianPropagator, Objective
from .kernel import (Contradiction, GraphVar, PreconditionViolation,
                     Scheduler)
from .rootpath import or_opt, patch, root_path
from .structural import DegreePropagator, ReducedPathPropagator

MODELS = ("BASIC", "ALL")
RELAXATIONS = ("tree", "map", "both")
HEURISTICS = ("enforceMaxRC", "sparse", "enforceSparse")


class Model:
    """A graph variable plus the propagators of one configuration."""

    def __init__(self, n, s, e, C, model="ALL", relax="tree"):
        model = model.upper()
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}")
        if relax not in RELAXATIONS:
            raise ValueError(f"unknown relaxation {relax!r}")
        C = np.asarray(C, dtype=float)
        if C.shape != (n, n):
            raise ValueError(f"cost matrix must be {n}x{n}, not {C.shape}")
        # NaN and -inf are not +inf, so either would silently become an
        # absent arc
        if np.isnan(C).any():
            raise ValueError("arc costs must not be NaN")
        if np.isneginf(C).any():
            raise ValueError("arc costs must not be -inf")
        # bounds are rounded up and the optimizing cap is cost - 1, both of
        # which are only sound on integer costs
        finite = C[np.isfinite(C)]
        if not np.array_equal(finite, np.round(finite)):
            raise ValueError("finite arc costs must be integers")
        # path sums and Or-opt's six-term gains of mixed sign are float
        # sums, exact only below 2**53; a rounded gain can pay for ever
        terms = max(n, 6)
        big = float(np.abs(finite).max()) if finite.size else 0.0
        if terms * big >= 2.0 ** 53:
            raise ValueError(
                f"arc costs must stay below 2**53 / {terms} in magnitude "
                f"so that sums of {terms} of them are exact, not {big:.0f}")
        self.C = C.tolist()     # the one cost format every reader shares
        # nothing here calls range(n), so a node count that is not an
        # integer reaches GraphVar's check; the arcs come row by row
        arcs = [(u, v) for u, row in enumerate(self.C)
                for v, c in enumerate(row) if c != INF]
        try:
            self.gv = GraphVar(n, s, e, arcs)
        except PreconditionViolation as exc:
            # here the node count and the endpoints are the caller's input
            raise ValueError(str(exc)) from None
        # solve() sets it: a search leaves the root's changes and the cap
        # in place, so a model serves one search
        self.searched = False
        self.scheduler = Scheduler(self.gv)
        self.obj = Objective(self.gv)
        gv = self.gv

        reg = self.scheduler.register
        reg(DegreePropagator(gv))
        self.rp = None
        if model == "ALL":
            self.rp = ReducedPathPropagator(gv)
            reg(self.rp)
        self.hk = None
        if relax in ("tree", "both"):
            self.hk = HeldKarpPropagator(gv, self.C, self.obj, reduced=self.rp)
            reg(self.hk)
        self.ap = None
        if relax in ("map", "both"):
            self.ap = HungarianPropagator(gv, self.C, self.obj)
            reg(self.ap)

    def root_propagate(self):
        self.scheduler.schedule_all()
        self.scheduler.run_fixpoint()

    def path_cost(self, path):
        return int(round(sum(self.C[u][v] for u, v in zip(path, path[1:]))))

    def extract_path(self):
        gv = self.gv
        path = [gv.s]
        seen = {gv.s}
        u = gv.s
        while u != gv.e:
            (u,) = gv.msucc[u]
            if u in seen:
                raise AssertionError("instantiated graph loops")
            seen.add(u)
            path.append(u)
        if len(path) != gv.n:
            raise AssertionError("instantiated graph misses nodes")
        return path


# -- decisions -------------------------------------------------------------------


def _enforce(gv, u, v):
    # u has no mandatory successor, so the lone arc left is enforced by
    # degree at the same fixpoint as enforcing (u, v) itself
    return (u, [v], sorted(w for w in gv.succ[u] if w != v))


# -- branching heuristics -----------------------------------------------------------


def _sparse_pick(m, always_enforce):
    gv = m.gv
    cands = [u for u in range(gv.n)
             if u != gv.e and not gv.msucc[u]]
    if not cands:
        return None
    k_min = min(len(gv.succ[u]) for u in cands)
    best_u = None
    best_sum = None
    for u in cands:
        row = gv.succ[u]
        if len(row) != k_min:
            continue
        # the extra cost of each arc out of u over its cheapest one
        cost = m.C[u]
        cheapest = min(cost[w] for w in row)
        s = sum(cost[v] - cheapest for v in row)
        if best_sum is None or s > best_sum:
            best_sum = s
            best_u = u
    u = best_u
    succs = sorted(gv.succ[u], key=lambda v: (m.C[u][v], v))
    if always_enforce or len(succs) <= 2:
        return _enforce(gv, u, succs[0])
    half = math.ceil(len(succs) / 2)
    return (u, sorted(succs[:half]), sorted(succs[half:]))


def choose_decision(m, heuristic):
    gv = m.gv
    dec = None
    if heuristic == "enforceMaxRC":
        # the undecided realized tree arc with the largest replacement cost
        # in the last Lagrangian filtering pass
        swaps = m.hk.last_swaps if m.hk is not None else None
        live = {a: c for a, c in (swaps or {}).items()
                if gv.has_arc(*a) and not gv.has_mandatory(*a)}
        if live:
            # ties go to the smallest tail, then the smallest head
            dec = _enforce(gv, *max(
                live, key=lambda a: (live[a], -a[0], -a[1])))
    elif heuristic == "sparse":
        dec = _sparse_pick(m, always_enforce=False)
    elif heuristic == "enforceSparse":
        dec = _sparse_pick(m, always_enforce=True)
    else:
        raise ValueError(f"unknown heuristic {heuristic!r}")
    if dec is None:
        # fall back on the first undecided arc; solve asks for a decision
        # only while the graph is not instantiated, so there is one
        u, v = next(a for a in gv.arcs() if not gv.has_mandatory(*a))
        dec = _enforce(gv, u, v)
    return dec


# -- search ---------------------------------------------------------------------


@dataclass
class SearchResult:
    status: str
    best_cost: int | None
    best_path: list | None
    nodes: int
    time_s: float
    lb: int | None = None
    stats: dict = field(default_factory=dict)


def check_time_limit(time_limit):
    """Reject a negative or NaN limit: a NaN deadline would never pass."""
    if time_limit is not None and not time_limit >= 0:
        raise ValueError(f"time limit must be a non-negative number, "
                         f"not {time_limit!r}")


def solve(m, heuristic="enforceSparse", prove_ub=None, time_limit=None,
          clock=time.monotonic):
    """Run the branch and bound on a prepared model.

    Without prove_ub the search optimizes.  With it the cap is fixed at
    prove_ub: the run ends "proven" at the first path within it, or
    "infeasible" once the tree is exhausted.  Paths come from `root_path`
    before the first branch (a dive and an iterated local search that
    stops after n kicks in a row without a cheaper path, earlier once the
    path meets the root floor when optimizing or the cap in decision
    mode, and at the deadline), from the leaves, and, when optimizing
    under `map` or `both`, from every inner node's assignment matching,
    patched.  One rule keeps them: a path above the cap is dropped, any
    other becomes the incumbent; when optimizing it is first polished by
    `or_opt` (the root path already is polished) and the cap moves to its
    cost - 1.  A node or a pending alternative whose floor lies above the
    cap holds no better path and is closed.

    The result's lb is a proven bound on the optimum over the whole
    search space: the cap + 1 (the best cost when optimizing, prove_ub +
    1 in decision mode) when the run is optimal or infeasible, None when
    an optimizing run finds no path, and otherwise the least floor over
    the subtrees still open, never above the cap + 1.

    time_limit is in clock units; NaN and negative limits are rejected,
    as is a prove_ub that is not finite.  A model serves one search: a
    second call on it raises ValueError.
    """
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}")
    check_time_limit(time_limit)
    if prove_ub is not None and not math.isfinite(prove_ub):
        raise ValueError(f"prove_ub must be finite, not {prove_ub!r}")
    if m.searched:
        raise ValueError("model already searched; build a new Model per solve")
    m.searched = True
    gv = m.gv
    t0 = clock()
    deadline = None if time_limit is None else t0 + time_limit
    best_cost = None
    best_path = None
    nodes = 1
    if prove_ub is not None:
        # costs are integers of either sign, so the cap rounds down
        m.obj.ub = math.floor(prove_ub)
    # per open level the decision whose alternative is pending, with the
    # floor of the node that branched, or None once the alternative is
    # spent; a backtrack that finds the floor above the cap closes the level
    # instead of opening the alternative
    stack = []
    advance = True
    # the matching patched last: the same one gives the same path again
    patched = None

    def global_lb(st):
        cap = None if m.obj.ub is None else m.obj.ub + 1
        if st in ("optimal", "infeasible"):
            return cap          # nothing is left open
        # the current node is open unless it failed or is a spent leaf
        floors = [m.obj.lb] if advance else []
        floors.extend(entry[1] for entry in stack if entry is not None)
        if cap is not None:
            floors.append(cap)
        return min(floors) if floors else None

    def finish(st):
        per_prop = {p.name: dict(p.stats) for p in m.scheduler.props}
        return SearchResult(st, best_cost, best_path, nodes,
                            clock() - t0, lb=global_lb(st), stats=per_prop)

    def keep(path, polish=True):
        # the incumbent rule; returns "proven" when the path ends the run,
        # "optimal" when the node's floor lies above the new cap, and None
        # when the node goes on
        nonlocal best_cost, best_path
        cost = m.path_cost(path)
        if m.obj.ub is not None and cost > m.obj.ub:
            return None
        if prove_ub is None:
            if polish:
                or_opt(m.C, path)   # a cheaper path is a tighter cap
                cost = m.path_cost(path)
            m.obj.ub = cost - 1
        best_cost, best_path = cost, path
        if cost <= m.obj.ub:
            return "proven"         # only a decision run's cap holds it
        return "optimal" if m.obj.lb > m.obj.ub else None

    try:
        m.root_propagate()
    except Contradiction:
        return finish("infeasible")
    # the root fixpoint is not rerun under the root path's cap (under
    # ALL/both, att48 takes 187 nodes that way, 148 without, and bays29 29
    # against 33; ftv33 takes 5 either way), so the cap prunes from the
    # first branch on
    enough = m.obj.lb if prove_ub is None else m.obj.ub
    path = root_path(gv, m.C, enough, clock, deadline)
    if path is not None and (end := keep(path, polish=False)):
        return finish(end)

    while True:
        if deadline is not None and clock() > deadline:
            return finish("limit")
        if advance:
            path = None
            if leaf := gv.is_instantiated():
                path = m.extract_path()
            # at a fixpoint the assignment ran after every other change,
            # so its matching is one s-e path plus cycles in the domain;
            # the patched path may use arcs this subtree removed, but it
            # is a path of the instance and the cap is global
            elif prove_ub is None and m.ap is not None \
                    and m.ap.row_match != patched:
                patched = list(m.ap.row_match)
                path = patch(m.C, patched, gv.s, gv.e)
            end = keep(path) if path is not None else None
            if end == "proven":
                return finish(end)
            # a leaf is a dead end whatever its path did to the cap
            if end or leaf:
                advance = False
                continue
            dec = choose_decision(m, heuristic)
            stack.append((dec, m.obj.lb))
            u, _, row = dec
        else:
            while stack and stack[-1] is None:
                stack.pop()
                gv.pop_world()
            if not stack:
                return finish("infeasible" if best_cost is None
                              else "optimal")
            (u, row, _), floor = stack.pop()
            gv.pop_world()
            # a later path may have capped below the floor of the node
            # that branched, and then the alternative holds no better path
            if m.obj.ub is not None and floor > m.obj.ub:
                continue
            stack.append(None)
        # the branch removes the decision's drop, the alternative its keep
        gv.push_world()
        nodes += 1
        try:
            for v in row:
                gv.remove_arc(u, v)
            m.scheduler.run_fixpoint()
            advance = True
        except Contradiction:
            advance = False
