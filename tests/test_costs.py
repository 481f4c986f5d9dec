"""Cost relaxation tests: tree bounds, block-tree bounds, swap filtering,
the subgradient propagator, and the assignment propagator."""

import itertools
import math
import random

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from hampath import costs
from hampath.costs import (
    HeldKarpPropagator,
    HungarianPropagator,
    Objective,
    effective_costs,
    lb_trivial,
    span_blocks,
    tree_oracle,
)
from hampath.gen import gen_random
from hampath.kernel import UNDO, Contradiction, GraphVar, Scheduler
from hampath.oracle import dp_oracle
from hampath.search import Model, choose_decision, solve
from hampath.structural import DegreePropagator
from hampath.tsplib import circuit_to_path, parse_tsplib

import figures as fig
import oracles
from probes import WalkOnlyReducedPath, filter_diff, record_runs


def gv_of(arcs, n=fig.N, s=fig.S, e=fig.E):
    return GraphVar(n, s, e, sorted(arcs))


def with_order(arcs):
    """GraphVar plus an established block order for the base graph."""
    gv = gv_of(fig.arc_set(arcs))
    sched = Scheduler(gv)
    rp = WalkOnlyReducedPath(gv)
    sched.register(rp)
    sched.schedule_all()
    sched.run_fixpoint()
    assert rp.epoch == gv.pop_epoch     # the tree oracle reads its blocks
    return gv, rp


def plain_costs(gv, C):
    """Effective costs at zero multipliers."""
    return effective_costs(gv, np.asarray(C, dtype=float).tolist(),
                           np.zeros(gv.n), np.zeros(gv.n))


def plain_total(gv, E, S):
    """The tree oracle's total without a block order: one block of all
    nodes."""
    return span_blocks(E, S, *tree_oracle(gv))[0]


def random_instance(rng, n, density=0.75):
    s, e = 0, n - 1
    C = {}
    for u in range(n):
        for v in range(n):
            if u != v and v != s and u != e and rng.random() < density:
                C[(u, v)] = rng.randint(1, 30)
    mid = list(range(1, n - 1))
    rng.shuffle(mid)
    spine = [s] + mid + [e]
    for a, b in zip(spine, spine[1:]):
        C.setdefault((a, b), rng.randint(1, 30))
    M = [[math.inf] * n for _ in range(n)]
    for (u, v), w in C.items():
        M[u][v] = float(w)
    return C, M, s, e


# -- seven-node regression --------------------------------------------------------


def test_mst_totals_match_on_base_graph():
    gv = gv_of(fig.arc_set(fig.BASE7))
    C = fig.cost_matrix(fig.BASE7)
    E, S = plain_costs(gv, C)
    tp = plain_total(gv, E, S)
    edges = [(a, b, S[a][b]) for a in range(fig.N) for b in range(a + 1, fig.N)
             if S[a][b] < math.inf]
    tk = oracles.min_spanning_tree_kruskal(fig.N, edges)
    assert tp == tk == fig.BASE7_MST
    assert oracles.min_spanning_tree_brute(fig.N, edges) == fig.BASE7_MST


def test_block_tree_reproduces_stated_numbers():
    gv, rp = with_order(fig.BASE7)
    C = fig.cost_matrix(fig.BASE7)
    E, S = plain_costs(gv, C)
    total, trees, connectors = span_blocks(E, S, *tree_oracle(gv, rp))
    assert total == fig.BASE7_BST
    per_block = [sum(S[a][c] for a, c in tree) for tree in trees]
    assert per_block == [0.0, 10.0, 10.0, 0.0]
    assert [(E[u][v], u, v) for u, v in connectors] == \
        [(2.0, 0, 1), (3.0, 2, 3), (2.0, 5, 6)]
    # the straight tree bound is weaker on this graph
    assert fig.BASE7_MST <= fig.BASE7_BST


def _base7_removed(ub):
    gv, rp = with_order(fig.BASE7)
    E, S = plain_costs(gv, fig.cost_matrix(fig.BASE7))
    return filter_diff(gv, E, S, tree_oracle(gv, rp), ub)[1]


def test_block_tree_filter_prunes_the_two_costly_arcs():
    gv, rp = with_order(fig.BASE7)
    C = fig.cost_matrix(fig.BASE7)
    E, S = plain_costs(gv, C)
    _, removed, enforced, swaps = filter_diff(
        gv, E, S, tree_oracle(gv, rp), fig.BASE7_OPT)
    assert removed == {(1, 4), (4, 6)}
    assert gv.has_arc(2, 4) and gv.has_arc(4, 3)
    # (5, 6) is the sole survivor of its cut once (4, 6) dies
    assert (5, 6) in enforced
    assert swaps[(2, 3)] == 0.0 and swaps[(5, 6)] == float("inf")
    # a cut arc swaps in for its connector only, which puts the bound with
    # (1, 4), (4, 6) or (2, 4) swapped in at 29, 29 and 27: each arc dies
    # under a cap just below that marginal and survives a cap at it
    for arc, marginal in (((1, 4), 29), ((4, 6), 29), ((2, 4), 27)):
        assert arc in _base7_removed(marginal - 0.5)
        assert arc not in _base7_removed(marginal)


def test_block_tree_filter_boundary_at_one_below():
    # the marginal of the in-block arc (4, 3) is exactly 28: kept at ub 28,
    # gone at ub 27
    assert (4, 3) not in _base7_removed(fig.BASE7_OPT)
    assert (4, 3) in _base7_removed(fig.BASE7_OPT - 1)


def test_block_order_is_dropped_after_a_backtrack():
    # a pop revives arcs that may join blocks, so until reduced-path runs
    # again the tree oracle spans the plain tree
    gv, rp = with_order(fig.BASE7)
    assert len(tree_oracle(gv, rp)[0]) == 4
    gv.push_world()
    gv.remove_arc(*next(a for a in gv.arcs() if not gv.has_mandatory(*a)))
    gv.pop_world()
    blocks, cuts, _ = tree_oracle(gv, rp)
    assert blocks == [list(range(gv.n))] and cuts == []


def test_plain_tree_filter_prunes_nothing_here():
    gv = gv_of(fig.arc_set(fig.BASE7))
    C = fig.cost_matrix(fig.BASE7)
    E, S = plain_costs(gv, C)
    tree, removed, enforced, _ = filter_diff(gv, E, S, tree_oracle(gv),
                                             fig.BASE7_OPT)
    assert tree[0] == fig.BASE7_MST
    # the weaker bound removes nothing; it does notice that the cut around
    # the start node has a single crossing and pins it
    assert removed == set()
    assert enforced == {(0, 1)}


def test_optimum_of_base_graph():
    C = fig.cost_matrix(fig.BASE7)
    cost, path = dp_oracle(C, fig.S, fig.E)
    assert cost == fig.BASE7_OPT
    assert tuple(path) == fig.BASE7_OPT_PATH
    costs = sorted(
        sum(fig.BASE7[a] for a in zip(seq, seq[1:]))
        for seq in oracles.ham_paths(fig.N, fig.S, fig.E,
                                     lambda a, b: (a, b) in fig.BASE7))
    assert costs == [28, 29]


# -- randomized tree equivalences --------------------------------------------------


def test_effective_costs_follow_the_domain_through_churn():
    # the costs are finite exactly on the present arcs after every removal,
    # enforcement and pop, so an arc a backtrack restores is priced again,
    # and they equal the dense reference entry for entry; changes happen
    # inside worlds only, so the pops keep the domain full
    rng = random.Random(17)
    n = 9
    C, s, e = gen_random(n, seed=17, density=0.7)
    Cl = C.tolist()
    gv = GraphVar(n, s, e, [(u, v) for u in range(n) for v in range(n)
                            if C[u, v] < math.inf])
    root = gv.arcs()
    pi_out = np.array([rng.uniform(-5, 5) for _ in range(n)])
    pi_in = np.array([rng.uniform(-5, 5) for _ in range(n)])
    pops = 0
    for _ in range(300):
        op = rng.random()
        if gv.depth == 0 or op < 0.15 and gv.depth < 6:
            gv.push_world()
        elif op < 0.3:
            gv.pop_world()
            pops += 1
        elif gv.n_potential:
            u, v = rng.choice(gv.arcs())
            try:
                if op < 0.85:
                    gv.remove_arc(u, v)
                else:
                    gv.enforce_arc(u, v)
            except Contradiction:
                pass
        E, S = effective_costs(gv, Cl, pi_out, pi_in)
        finite = [(int(u), int(v)) for u, v in zip(*np.nonzero(np.isfinite(E)))]
        assert finite == gv.arcs()
        E_ref, S_ref = oracles.dense_effective_costs(n, gv.arcs(), C, pi_out,
                                                     pi_in)
        assert E == E_ref.tolist() and S == S_ref.tolist()
    assert pops >= 20
    while gv.depth:
        gv.pop_world()
    assert gv.arcs() == root


def test_prim_equals_kruskal_equals_brute():
    # the plain tree oracle is Prim; Kruskal and the brute force are oracles
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(4, 7)
        _, M, s, e = random_instance(rng, n, density=0.8)
        gv = GraphVar(n, s, e,
                      [(u, v) for u in range(n) for v in range(n)
                       if M[u][v] < math.inf])
        # force a couple of mandatory arcs, keeping them a matching
        live = sorted(gv.arcs())
        picked = []
        for (u, v) in rng.sample(live, min(2, len(live))):
            if all(u not in p and v not in p for p in picked):
                gv.enforce_arc(u, v)
                picked.append((u, v))
        E, S = plain_costs(gv, M)
        try:
            tp = plain_total(gv, E, S)
        except Contradiction:
            tp = None
        forced = [(min(u, v), max(u, v)) for (u, v) in gv.mandatory_arcs()]
        edges = [(a, b, S[a][b]) for a in range(n) for b in range(a + 1, n)
                 if S[a][b] < math.inf]
        tk = oracles.min_spanning_tree_kruskal(n, edges, forced=forced)
        tb = oracles.min_spanning_tree_brute(n, edges, forced=forced)
        assert (tp is None) == (tb is None) == (tk is None)
        if tb is not None:
            assert abs(tp - tb) < 1e-9 and abs(tk - tb) < 1e-9


def _paths_within(C_dict, n, s, e, ub):
    sets = []
    for seq in oracles.ham_paths(n, s, e, lambda a, b: (a, b) in C_dict):
        cost = sum(C_dict[a] for a in zip(seq, seq[1:]))
        if cost <= ub:
            sets.append(set(zip(seq, seq[1:])))
    return sets


def test_tree_filter_soundness_randomized():
    rng = random.Random(9)
    tried = 0
    for _ in range(60):
        n = rng.randint(5, 8)
        C, M, s, e = random_instance(rng, n)
        opt, _ = oracles.min_ham_path(n, s, e, lambda u, v: C.get((u, v)))
        if opt is None:
            continue
        tried += 1
        gv = GraphVar(n, s, e, sorted(C))
        E, S = plain_costs(gv, M)
        _, removed, enforced, _ = filter_diff(gv, E, S, tree_oracle(gv),
                                              float(opt))
        ok_sets = _paths_within(C, n, s, e, opt)
        assert ok_sets, "optimum path must survive its own bound"
        union = set.union(*ok_sets)
        inter = set.intersection(*ok_sets)
        assert not (removed & union)
        assert enforced <= inter
    assert tried >= 30


def test_block_tree_filter_soundness_randomized():
    rng = random.Random(13)
    tried = 0
    for _ in range(80):
        n = rng.randint(6, 8)
        C, M, s, e = random_instance(rng, n, density=0.45)
        opt, _ = oracles.min_ham_path(n, s, e, lambda u, v: C.get((u, v)))
        if opt is None:
            continue
        gv = GraphVar(n, s, e, sorted(C))
        sched = Scheduler(gv)
        rp = WalkOnlyReducedPath(gv)
        sched.register(rp)
        sched.schedule_all()
        try:
            sched.run_fixpoint()
        except Contradiction:
            pytest.fail("walk failed although a Hamiltonian path exists")
        if len(rp.blocks) < 3:
            continue
        tried += 1
        live = {(u, v): C[(u, v)] for (u, v) in gv.arcs()}
        E, S = plain_costs(gv, M)
        tree, removed, enforced, _ = filter_diff(
            gv, E, S, tree_oracle(gv, rp), float(opt))
        assert tree[0] <= opt + 1e-9
        ok_sets = _paths_within(live, n, s, e, opt)
        assert ok_sets
        union = set.union(*ok_sets)
        inter = set.intersection(*ok_sets)
        assert not (removed & union)
        assert enforced <= inter
    assert tried >= 15


def _best_block_tree(S, members, forced, pair=None, weight=None, drop=None):
    """Kruskal over one block: S weights, `pair` at `weight`, `drop` left
    out, the `forced` pairs first; inf when no spanning tree exists."""
    at = {u: i for i, u in enumerate(members)}
    edges = []
    for a, b in itertools.combinations(members, 2):
        w = weight if (a, b) == pair else S[a][b]
        if (a, b) != drop and np.isfinite(w):
            edges.append((at[a], at[b], w))
    t = oracles.min_spanning_tree_kruskal(
        len(members), edges, forced=[(at[a], at[b]) for a, b in forced])
    return math.inf if t is None else t


def _same(x, y):
    return x == y or abs(x - y) <= 1e-6 * max(1.0, abs(y))


def test_swap_filter_matches_kruskal_exactly():
    # marginals and swaps at nonzero multipliers, under the plain tree and
    # under an established block order, against Kruskal over each block;
    # an arc's marginal, the bound with it swapped in, shows in the caps
    # under which the filter removes it
    rng = random.Random(61)
    checked = {False: 0, True: 0}
    for _ in range(40):
        n = rng.randint(5, 8)
        C, M, s, e = random_instance(rng, n, density=0.6)
        pi_out = np.array([rng.uniform(-4.0, 4.0) for _ in range(n)])
        pi_in = np.array([rng.uniform(-4.0, 4.0) for _ in range(n)])
        offset = float(pi_out.sum() + pi_in.sum())
        # one or two mandatory arcs, a matching
        picked = []
        for (u, v) in rng.sample(sorted(C), rng.randint(1, 2)):
            if all(u not in p and v not in p for p in picked):
                picked.append((u, v))
        for ordered in (False, True):
            gv = GraphVar(n, s, e, sorted(C))
            for a in picked:
                gv.enforce_arc(*a)
            rp = None
            if ordered:
                sched = Scheduler(gv)
                rp = WalkOnlyReducedPath(gv)
                sched.register(rp)
                sched.schedule_all()
                try:
                    sched.run_fixpoint()
                except Contradiction:
                    continue
            oracle = tree_oracle(gv, rp)
            blocks, cuts, _ = oracle
            E, S = effective_costs(gv, M, pi_out, pi_in)
            tree, removed, enforced, swaps = filter_diff(
                gv, E, S, oracle, math.inf, offset)
            # without a cap only the reverse of a mandatory arc goes
            assert not enforced
            assert all(gv.has_mandatory(v, u) for u, v in removed)
            checked[ordered] += 1
            total, trees, connectors = tree
            bound = total - offset
            mand = {(min(a), max(a)) for a in gv.mandatory_arcs()}
            forced = [[p for p in sorted(mand) if p[0] in b and p[1] in b]
                      for b in map(set, blocks)]
            best = [_best_block_tree(S, members, f)
                    for members, f in zip(blocks, forced)]
            assert [E[u][v] for u, v in connectors] == \
                [min(E[u][v] for u, v in cut) for cut in cuts]
            assert _same(bound, sum(best) + sum(E[u][v] for u, v in connectors)
                         - offset)
            where = {u: k for k, members in enumerate(blocks) for u in members}

            def removed_at(ub):
                gv.push_world()
                gone = filter_diff(gv, E, S, oracle, ub, offset)[1]
                gv.pop_world()
                return gone

            # every arc with a marginal dies under a cap of -inf
            priced = removed_at(-math.inf)
            for u, v in priced:
                k = where[u]
                if where[v] != k:
                    # a cut arc stands in for its connector
                    su, sv = connectors[k]
                    want = bound - E[su][sv] + E[u][v]
                else:
                    pair = (min(u, v), max(u, v))
                    want = bound - best[k] + _best_block_tree(
                        S, blocks[k], forced[k] + [pair], pair=pair,
                        weight=E[u][v])
                # removed just below the marginal, kept at it
                below = min(want - 1e-6 * max(1.0, abs(want)), 1e300)
                assert (u, v) in removed_at(below), (u, v, want)
                assert (u, v) not in removed_at(want), (u, v, want)
            for (u, v), got in swaps.items():
                k = where[u]
                if where[v] != k:
                    alt = min((E[a][b] for a, b in cuts[k]
                               if (a, b) != (u, v)), default=math.inf)
                    assert _same(got, alt - E[u][v])
                    continue
                pair = (min(u, v), max(u, v))
                assert pair not in mand
                without = _best_block_tree(S, blocks[k], forced[k], drop=pair)
                assert _same(got, without - best[k]), (u, v)
            # an arc without a marginal lies on the tree or its connectors
            on_tree = {frozenset(a) for t in trees for a in t}
            on_tree |= {frozenset(a) for a in connectors}
            assert all(frozenset(a) in on_tree
                       for a in gv.arcs() if a not in priced)
    assert checked[False] == 40 and checked[True] >= 30


# -- subgradient propagator ---------------------------------------------------------


def test_subgradient_bound_below_optimum():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(5, 8)
        C, M, s, e = random_instance(rng, n)
        opt, _ = oracles.min_ham_path(n, s, e, lambda u, v: C.get((u, v)))
        if opt is None:
            continue
        gv = GraphVar(n, s, e, sorted(C))
        mst0 = plain_total(gv, *plain_costs(gv, M))
        sched = Scheduler(gv)
        obj = Objective(gv)
        obj.ub = int(opt)
        hk = HeldKarpPropagator(gv, M, obj)
        runs = record_runs(hk)
        dg = DegreePropagator(gv)
        for p in (dg, hk):
            sched.register(p)
        sched.schedule_all()
        try:
            sched.run_fixpoint()
        except Contradiction:
            pytest.fail("bound propagation failed with ub = optimum")
        assert obj.lb <= opt
        assert runs and max(runs) <= opt + 1e-9
        # the very first multiplier iterate is all zeros, whose tree is the
        # plain spanning tree, so the reported bound can never fall below it
        assert obj.lb >= int(math.ceil(mst0 - 1e-9))


def test_subgradient_survives_backtracking():
    rng = random.Random(33)
    n = 7
    C, M, s, e = random_instance(rng, n)
    gv = GraphVar(n, s, e, sorted(C))
    sched = Scheduler(gv)
    obj = Objective(gv)
    hk = HeldKarpPropagator(gv, M, obj)
    sched.register(hk)
    sched.schedule_all()
    sched.run_fixpoint()
    lb_root = obj.lb
    opt, _ = oracles.min_ham_path(n, s, e, lambda u, v: C.get((u, v)))
    assert opt is not None and lb_root <= opt

    live = [a for a in sorted(gv.arcs()) if not gv.has_mandatory(*a)]
    for (u, v) in live[:4]:
        gv.push_world()
        try:
            gv.remove_arc(u, v)
            sched.schedule_all()
            sched.run_fixpoint()
            sub, _ = oracles.min_ham_path(
                n, s, e,
                lambda a, b: C.get((a, b)) if (a, b) != (u, v) else None)
            if sub is not None:
                assert obj.lb <= sub
        except Contradiction:
            pass
        gv.pop_world()
        assert obj.lb == lb_root   # the floor is trailed
        sched.schedule_all()
        sched.run_fixpoint()       # multipliers persist, bound stays sound
        assert obj.lb <= opt
        # the persisted multipliers keep climbing, so the rerun may raise
        # the root floor; the next pop must restore that one
        lb_root = obj.lb


def _tsplib_path(name):
    inst = parse_tsplib(f"instances/{name}")
    return circuit_to_path(inst.matrix, 0)


def test_subgradient_climbs_close_to_the_optimum():
    # bays29 has optimum 2020; the plain spanning tree gives only 1602
    C, s, e = _tsplib_path("bays29.tsp")
    m = Model(len(C), s, e, C, model="BASIC", relax="tree")
    m.obj.ub = 2020
    m.root_propagate()
    assert 0.99 * 2020 <= m.obj.lb <= 2020


def test_each_multiplier_vector_is_evaluated_once_per_call(monkeypatch):
    # the ascent is the one place that evaluates the relaxation and the
    # filter reads its best iterate, so a full call prices each iterate
    # once and a re-wake in the same node prices the stored multipliers
    C, s, e = _tsplib_path("bays29.tsp")
    m = Model(len(C), s, e, C, model="ALL", relax="both")
    m.obj.ub = 2020
    m.root_propagate()
    hk = m.hk
    points = []     # per evaluation: the multipliers it priced
    runs = []       # per ascent run: the evaluations it made
    evaluate, run = costs.effective_costs, hk._run

    def counting(gv, C, pi_out, pi_in):
        points.append(pi_out.tobytes() + pi_in.tobytes())
        return evaluate(gv, C, pi_out, pi_in)

    def counting_run(*args):
        start = len(points)
        try:
            return run(*args)
        finally:
            runs.append(len(points) - start)

    monkeypatch.setattr(costs, "effective_costs", counting)
    hk._run = counting_run
    m.gv.push_world()       # a new node below the root: one full run
    hk.propagate()
    assert len(runs) == 1 and runs[0] == len(points) > 1
    assert len(set(points)) == len(points) <= hk.ITERS
    points.clear()
    hk.propagate()          # woken again in the same node
    assert len(points) == 1


@pytest.mark.parametrize("name, evaluations, distinct, floor", [
    ("att48.tsp", 30, 30, 8998), ("bays29.tsp", 60, 59, 1764)])
def test_root_ascent_is_not_replayed(name, evaluations, distinct, floor,
                                     monkeypatch):
    # at depth 0 the ascent runs twice; att48's first run never leaves
    # its start, and a second from the same multipliers would retrace it
    # step for step, so it is skipped; bays29 climbs and runs twice
    C, s, e = _tsplib_path(name)
    m = Model(len(C), s, e, C, model="ALL", relax="both")
    points = []
    evaluate = costs.effective_costs

    def counting(gv, C, pi_out, pi_in):
        points.append(pi_out.tobytes() + pi_in.tobytes())
        return evaluate(gv, C, pi_out, pi_in)

    monkeypatch.setattr(costs, "effective_costs", counting)
    m.root_propagate()
    assert (len(points), len(set(points))) == (evaluations, distinct)
    assert m.obj.lb == floor


@pytest.mark.parametrize("model,relax", [("ALL", "both"), ("BASIC", "tree")])
def test_br17_refutes_one_below_its_optimum(model, relax):
    C, s, e = _tsplib_path("br17.atsp")
    m = Model(len(C), s, e, C, model=model, relax=relax)
    # the climbing bound needs a handful of nodes; 200 backtracks leave
    # ample room, yet a bound stuck at the plain tree exhausts them
    r = solve(m, prove_ub=38, time_limit=200, clock=lambda: m.gv.pop_epoch)
    assert r.status == "infeasible"
    assert r.lb == 39


# -- one Lagrangian ---------------------------------------------------------------


@pytest.mark.parametrize("relax", ["tree", "both"])
def test_model_registers_one_tree_relaxation(relax):
    m = Model(fig.N, fig.S, fig.E, fig.cost_matrix(fig.BASE7), model="ALL",
              relax=relax)
    hks = [p for p in m.scheduler.props if isinstance(p, HeldKarpPropagator)]
    assert hks == [m.hk]
    assert [p.name for p in m.scheduler.props].count("hk") == 1
    # one cost format: every cost propagator reads the model's nested list
    assert isinstance(m.C, list) and isinstance(m.C[0], list)
    readers = [p for p in m.scheduler.props if hasattr(p, "C")]
    # one cost propagator per relaxation: hk under tree, hk and the
    # assignment under both
    assert len(readers) == {"tree": 1, "both": 2}[relax]
    assert all(p.C is m.C for p in readers)


# gen_random(14) at density 0.8 with negative and mixed-sign costs, where
# the uncapped ascent stops at its first step, plus criterion 5's seeds
# 20388 and 20101, where the tree ascent alone ends below the row minima
ROOT_FLOOR_CASES = {
    f"n14-{lo}_{hi}-s{seed}": ((14, seed), dict(cost_range=(lo, hi),
                                                density=0.8))
    for lo, hi in ((-100, -1), (-50, 50)) for seed in range(3)}
ROOT_FLOOR_CASES["c5-20388"] = ((9, 20388), dict(density=0.7))
ROOT_FLOOR_CASES["c5-20101"] = ((10, 20101), dict(density=1.0, clusters=2))


@pytest.mark.parametrize("model", ["BASIC", "ALL"])
@pytest.mark.parametrize("label", ROOT_FLOOR_CASES)
def test_tree_root_floor_reaches_the_row_minimum_sum(label, model):
    args, kw = ROOT_FLOOR_CASES[label]
    C, s, e = gen_random(*args, **kw)
    m = Model(len(C), s, e, C, model=model, relax="tree")
    m.root_propagate()
    assert m.obj.lb >= math.ceil(lb_trivial(m.gv, m.C) - 1e-9), label


@pytest.mark.parametrize("model,want", [("ALL", fig.BASE7_BST),
                                        ("BASIC", fig.BASE7_MST)])
def test_propagator_tree_follows_the_block_order(model, want):
    m = Model(fig.N, fig.S, fig.E, fig.cost_matrix(fig.BASE7), model=model,
              relax="tree")
    hk = m.hk
    if m.rp is not None:
        assert hk.reduced is m.rp
        hk.reduced = WalkOnlyReducedPath(m.gv)
        hk.reduced.propagate()      # establish the block order only
        assert len(hk.reduced.blocks) == len(fig.BASE7_BLOCKS)
    assert not hk.pi_out.any() and not hk.pi_in.any()
    # a one-step run evaluates the stored multipliers and keeps them
    lb, _, _, (total, trees, connectors), offset = hk._run(
        0.0, tree_oracle(m.gv, hk.reduced), 1)
    assert not hk.pi_out.any() and not hk.pi_in.any()
    assert total == lb == want and offset == 0.0
    assert sum(map(len, trees)) + len(connectors) == fig.N - 1


def test_tree_branching_scores_the_block_analysis():
    C, s, e = _tsplib_path("br17.atsp")
    m = Model(len(C), s, e, C, model="ALL", relax="tree")
    m.root_propagate()
    hk = m.hk
    E, S = effective_costs(m.gv, hk.C, hk.pi_out, hk.pi_in)
    _, trees, connectors = span_blocks(E, S, *tree_oracle(m.gv, hk.reduced))
    assert len(trees) > 1 and connectors     # a block tree, not the MST
    # a tree edge realizes its cheaper direction, the smaller tail on a tie
    realized = {min((a, c), (c, a), key=lambda x: (E[x[0]][x[1]], x[0]))
                for tree in trees for a, c in tree}
    realized |= set(connectors)
    fallback = next(a for a in m.gv.arcs() if not m.gv.has_mandatory(*a))
    u, keep, drop = choose_decision(m, "enforceMaxRC")
    (v,) = keep
    assert drop == sorted(m.gv.succ[u] - {v}) and (u, v) != fallback
    assert (u, v) in realized
    assert m.hk.last_swaps[(u, v)] == max(
        c for a, c in m.hk.last_swaps.items()
        if m.gv.has_arc(*a) and not m.gv.has_mandatory(*a))


# -- assignment propagator ------------------------------------------------------------


def _assignment_cost_scipy(gv, M):
    rows = [u for u in range(gv.n) if u != gv.e]
    cols = [v for v in range(gv.n) if v != gv.s]
    big = 1e15
    Cm = np.full((len(rows), len(cols)), big)
    for i, u in enumerate(rows):
        for j, v in enumerate(cols):
            if gv.has_arc(u, v):
                Cm[i, j] = M[u][v]
    ri, ci = linear_sum_assignment(Cm)
    cost = Cm[ri, ci].sum()
    return None if cost >= big / 2 else float(cost)


def test_assignment_cost_matches_scipy_and_brute():
    rng = random.Random(41)
    checked = 0
    for _ in range(60):
        n = rng.randint(4, 7)
        C, M, s, e = random_instance(rng, n, density=0.6)
        gv = GraphVar(n, s, e, sorted(C))
        obj = Objective(gv)
        hp = HungarianPropagator(gv, M, obj)
        want = _assignment_cost_scipy(gv, M)
        if want is None:
            with pytest.raises(Contradiction):
                hp.propagate()
            continue
        hp.propagate()
        assert obj.lb == int(math.ceil(want - 1e-9))
        left = [u for u in range(n) if u != e]
        right = [v for v in range(n) if v != s]
        brute = oracles.min_assignment_brute(
            left, right,
            lambda u, v: C.get((u, v)) if gv.has_arc(u, v) else None)
        assert abs(want - brute) < 1e-9
        checked += 1
    assert checked >= 25


def assert_assignment_duals(hp, gv):
    """Dual feasibility: no present arc has a negative reduced cost, and
    every matched arc is present and tight."""
    for u in hp.rows:
        for v in gv.succ[u]:
            assert hp.C[u][v] - hp.du[u] - hp.dv[v] >= -1e-9, (u, v)
        v = hp.row_match[u]
        if v != -1:
            assert gv.has_arc(u, v), (u, v)
            assert abs(hp.C[u][v] - hp.du[u] - hp.dv[v]) <= 1e-9, (u, v)


def test_assignment_repair_after_domain_churn():
    rng = random.Random(55)
    n = 7
    C, M, s, e = random_instance(rng, n, density=0.8)
    gv = GraphVar(n, s, e, sorted(C))
    obj = Objective(gv)
    hp = HungarianPropagator(gv, M, obj)
    hp.propagate()
    assert_assignment_duals(hp, gv)
    for _ in range(40):
        live = [a for a in sorted(gv.arcs()) if not gv.has_mandatory(*a)]
        if not live:
            break
        u, v = live[rng.randrange(len(live))]
        gv.push_world()
        gv.remove_arc(u, v)
        want = _assignment_cost_scipy(gv, M)
        failed = False
        try:
            hp.propagate()
        except Contradiction:
            failed = True
        assert failed == (want is None)
        assert_assignment_duals(hp, gv)
        if not failed:
            cost = sum(hp.C[u][hp.row_match[u]] for u in hp.rows)
            assert abs(cost - want) < 1e-6
        if failed or rng.random() < 0.6:
            gv.pop_world()
            hp.propagate()     # revived arcs must not break the duals
            assert_assignment_duals(hp, gv)
            back = _assignment_cost_scipy(gv, M)
            cost = sum(hp.C[u][hp.row_match[u]] for u in hp.rows)
            assert abs(cost - back) < 1e-6


def _assignment_call(hp, full):
    """One propagate call on hp, forced down the after-backtrack path when
    full.  Returns what a call can change: the duals bit for bit, the
    matching, the floor, the failure and the logged records in order."""
    gv = hp.gv
    if full:
        hp.epoch = None
        hp.capped = object()        # a marker no cap equals
    mark = len(gv.log)
    try:
        hp.propagate()
        failed = None
    except Contradiction as exc:
        failed = str(exc)
    return ([x.hex() for x in hp.du], [x.hex() for x in hp.dv],
            hp.row_match[:], hp.col_match[:], hp.obj.lb, failed,
            [r if r[0] != UNDO else UNDO for r in gv.log[mark:]])


def _assignment_walk(M, s, e, rng, caps):
    """Seeded walk of push, remove or enforce, propagate and pop on two
    propagators over twin domains; the twin goes down the full path on
    every call.  One step per entry of caps, the cap at that step.
    Returns how many calls skipped the clamp and how many of those
    returned at once."""
    n = len(M)
    arcs = [(u, v) for u in range(n) for v in range(n) if M[u][v] < math.inf]
    fast, full = (HungarianPropagator(gv, M, Objective(gv))
                  for gv in (GraphVar(n, s, e, arcs), GraphVar(n, s, e, arcs)))
    skipped = early = 0
    for step, cap in enumerate(caps):
        fast.obj.ub = full.obj.ub = cap
        gv = fast.gv
        op = rng.random()
        if op < 0.2 and gv.depth:
            for p in (fast, full):
                p.gv.pop_world()
        elif op < 0.45 or gv.depth == 0:
            for p in (fast, full):
                p.gv.push_world()
        elif op < 0.9:
            live = [a for a in gv.arcs() if not gv.has_mandatory(*a)]
            if live:
                u, v = live[rng.randrange(len(live))]
                for p in (fast, full):
                    p.gv.remove_arc(u, v)
        else:
            u, v = rng.choice(gv.arcs())
            for p in (fast, full):
                p.gv.enforce_arc(u, v)
        # call again with nothing changed: always after a failure, whose
        # world still stands, and at times after a success
        for again in (False, True):
            if fast.epoch == gv.pop_epoch:
                skipped += 1
                early += fast.obj.ub == fast.capped and all(
                    fast.row_match[u] in gv.succ[u] for u in fast.rows)
            got = _assignment_call(fast, False)
            assert got == _assignment_call(full, True), (step, again)
            assert gv.arcs() == full.gv.arcs()
            assert gv.mandatory_arcs() == full.gv.mandatory_arcs()
            if again or got[5] is None and rng.random() >= 0.3:
                break
        if got[5] is not None and gv.depth:
            for p in (fast, full):
                p.gv.pop_world()
    return skipped, early


@pytest.mark.parametrize("seed,n,scale", [
    (0, 9, 1), (1, 10, 1), (2, 11, 1), (3, 10, 10 ** 13)])
def test_assignment_skips_match_the_full_path(seed, n, scale):
    # only a backtrack can revive arcs, so a call made while pop_epoch
    # stands must leave the same state as one that clamps and re-checks
    # every match: with no cap, a fixed cap and a cap lowered partway
    C, s, e = gen_random(n, seed=seed, density=0.6)
    C = C * scale
    opt, _ = dp_oracle(C, s, e)
    M = C.tolist()
    skipped = early = 0
    for k, caps in enumerate((
            [None] * 150,
            [opt] * 150,
            [None] * 40 + [opt + opt // 5] * 40 + [opt] * 70)):
        got = _assignment_walk(M, s, e, random.Random(100 * seed + k), caps)
        skipped += got[0]
        early += got[1]
    # the walks do reach both shortcuts
    assert skipped > early > 0


def test_assignment_filter_soundness():
    rng = random.Random(77)
    tried = 0
    for _ in range(40):
        n = rng.randint(4, 6)
        C, M, s, e = random_instance(rng, n, density=0.8)
        opt, _ = oracles.min_ham_path(n, s, e, lambda u, v: C.get((u, v)))
        if opt is None:
            continue
        tried += 1
        gv = GraphVar(n, s, e, sorted(C))
        obj = Objective(gv)
        obj.ub = int(opt)
        hp = HungarianPropagator(gv, M, obj)
        before = set(gv.arcs())
        hp.propagate()
        removed = before - set(gv.arcs())
        left = [u for u in range(n) if u != e]
        right = [v for v in range(n) if v != s]
        for (u, v) in removed:
            # cheapest assignment forced to use (u, v) must already beat ub
            best = None
            for perm in itertools.permutations(right):
                pairs = list(zip(left, perm))
                if (u, v) not in pairs:
                    continue
                if any((a, b) not in before for (a, b) in pairs):
                    continue
                tot = sum(C[(a, b)] for (a, b) in pairs)
                if best is None or tot < best:
                    best = tot
            assert best is None or best > opt
    assert tried >= 20


def test_assignment_keeps_arcs_of_any_finite_cost():
    # costs near 1e15 are real arcs, not a stand-in for absent ones
    C, s, e = gen_random(8, seed=3, density=0.6)
    C = C * 1e13
    want, _ = dp_oracle(C, s, e)
    assert want == 2_190_000_000_000_000
    for relax in ("tree", "map", "both"):
        res = solve(Model(8, s, e, C, model="ALL", relax=relax))
        assert (res.status, res.best_cost) == ("optimal", want), relax


def test_objective_floor_meets_cap():
    gv = gv_of(fig.arc_set(fig.BASE7))
    obj = Objective(gv)
    obj.tighten_lb(-5)          # costs may be negative: no floor at 0
    assert obj.lb == -5
    obj.ub = 10
    with pytest.raises(Contradiction):
        obj.tighten_lb(11)
