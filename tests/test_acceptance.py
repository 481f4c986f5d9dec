"""Acceptance suite: one test per shipping criterion.

Each test checks a contract end to end and asserts its wall-clock budget.
A passing run prints one summary line per criterion (visible with -s or
-rA); the pytest verdict line per test is the pass/fail record.
"""

import itertools
import math
import time

import numpy as np

from hampath import cli
from hampath.costs import effective_costs, lb_trivial, span_blocks, tree_oracle
from hampath.gen import gen_random
from hampath.kernel import Contradiction, GraphVar, Scheduler
from hampath.oracle import dp_oracle
from hampath.scc import ReducedState
from hampath.search import HEURISTICS, Model, solve
from hampath.tsplib import circuit_to_path, parse_tsplib

import figures as fig
from oracles import mutual_reachability, partition
from probes import WalkOnlyReducedPath, filter_diff, record_runs


def _report(k, msg):
    print("criterion %d: PASS  %s" % (k, msg))


def _ordered(arcs):
    """Graph plus established block order for a seven-node fixture."""
    gv = GraphVar(fig.N, fig.S, fig.E, sorted(arcs))
    sched = Scheduler(gv)
    rp = WalkOnlyReducedPath(gv)
    sched.register(rp)
    sched.schedule_all()
    sched.run_fixpoint()
    assert rp.epoch == gv.pop_epoch     # the tree oracle reads its blocks
    return gv, rp


def _costs(gv, C):
    """Effective costs at zero multipliers."""
    return effective_costs(gv, np.asarray(C, dtype=float).tolist(),
                           np.zeros(gv.n), np.zeros(gv.n))


def _path_cost(C, path):
    return sum(C[path[i], path[i + 1]] for i in range(len(path) - 1))


def test_criterion_1_block_tree_bounds_regression():
    C = fig.cost_matrix(fig.BASE7)
    assert fig.BASE7[(1, 4)] == 5

    gv, rp = _ordered(fig.arc_set(fig.BASE7))
    E, S = _costs(gv, C)

    total = span_blocks(E, S, *tree_oracle(gv))[0]
    assert total == fig.BASE7_MST == 19

    bst, trees, connectors = span_blocks(E, S, *tree_oracle(gv, rp))
    assert bst == fig.BASE7_BST == 27
    per_block = [sum(S[a][c] for a, c in tree) for tree in trees]
    assert per_block == [0, 10, 10, 0]
    assert sorted(E[u][v] for u, v in connectors) == [2, 2, 3]

    opt, path = dp_oracle(C, fig.S, fig.E)
    assert opt == fig.BASE7_OPT == 28
    assert tuple(path) == fig.BASE7_OPT_PATH

    # the sharper bound prunes the two costly arcs at ub = optimum while
    # the plain tree bound prunes neither of them
    _, removed, enforced, _ = filter_diff(gv, E, S, tree_oracle(gv, rp), 28)
    assert removed == {(1, 4), (4, 6)}
    gv2, _ = _ordered(fig.arc_set(fig.BASE7))
    E2, S2 = _costs(gv2, C)
    _, wrem, wenf, _ = filter_diff(gv2, E2, S2, tree_oracle(gv2), 28)
    assert (1, 4) not in wrem and (4, 6) not in wrem
    assert wrem == set()

    best = math.inf
    for _ in range(3):
        g, r = _ordered(fig.arc_set(fig.BASE7))
        g2, r2 = _ordered(fig.arc_set(fig.BASE7))
        t0 = time.perf_counter()
        Ea, Sa = _costs(g, C)
        mt = span_blocks(Ea, Sa, *tree_oracle(g))[0]
        ba = filter_diff(g, Ea, Sa, tree_oracle(g, r), 28)[0][0]
        filter_diff(g2, Ea, Sa, tree_oracle(g2), 28)
        best = min(best, time.perf_counter() - t0)
        assert mt == 19 and ba == 27
    assert best < 1e-3, best
    _report(1, "mst 19, block tree 27, pruned {(1,4),(4,6)}, %.0f us" % (best * 1e6))


def test_criterion_2_reduced_path_filter_regression():
    before = fig.arc_set(fig.SKIP7)
    best = math.inf
    for trial in range(4):
        gv = GraphVar(fig.N, fig.S, fig.E, sorted(before))
        sched = Scheduler(gv)
        rp = WalkOnlyReducedPath(gv)
        sched.register(rp)
        sched.schedule_all()
        t0 = time.perf_counter()
        sched.run_fixpoint()
        dt = time.perf_counter() - t0
        if trial:            # first pass warms the interpreter
            best = min(best, dt)
        survivors = set(gv.arcs())
        assert before - survivors == {(0, 4), (2, 6)}
        enforced = {(u, v) for (u, v) in survivors if gv.has_mandatory(u, v)}
        assert enforced == {(0, 1)}
    assert best < 1e-3, best
    _report(2, "removed {(0,4),(2,6)}, enforced {(0,1)}, %.0f us" % (best * 1e6))


def test_criterion_3_optimizer_matches_oracle_everywhere():
    t0 = time.perf_counter()
    combos = list(itertools.product(HEURISTICS, ("BASIC", "ALL"),
                                    ("tree", "map", "both")))
    assert len(combos) == 18
    hits = {c: 0 for c in combos}
    for i in range(560):
        h, mdl, rlx = combos[i % 18]
        n = 5 + i % 6
        # past the first 500, arc costs take both signs
        mixed = i >= 500
        C, s, e = gen_random(n, seed=31000 + i,
                             cost_range=(-100, 100) if mixed else (1, 100),
                             density=(0.5, 0.75, 1.0)[i % 3],
                             clusters=1 + i % 3)
        want, _ = dp_oracle(C, s, e)
        m = Model(n, s, e, C, model=mdl, relax=rlx)
        res = solve(m, heuristic=h)
        if want == math.inf:
            assert res.status == "infeasible", (i, res.status)
        else:
            assert res.status == "optimal", (i, res.status)
            assert res.best_cost == want, (i, res.best_cost, want)
            assert _path_cost(C, res.best_path) == want
            if mixed:
                m = Model(n, s, e, C, model=mdl, relax=rlx)
                res = solve(m, heuristic=h, prove_ub=int(want) - 1)
                assert res.status == "infeasible", (i, res.status)
                m = Model(n, s, e, C, model=mdl, relax=rlx)
                res = solve(m, heuristic=h, time_limit=2,
                            clock=lambda: m.gv.pop_epoch)
                assert isinstance(res.lb, int) and res.lb <= want, (i, res.lb)
        hits[combos[i % 18]] += 1
    assert min(hits.values()) >= 31
    dt = time.perf_counter() - t0
    assert dt < 60.0, dt
    _report(3, "560 instances, 60 of mixed sign, across 18 configurations "
            "agree with the oracle, %.1fs" % dt)


def test_criterion_4_root_pruning_is_sound():
    t0 = time.perf_counter()
    checked = 0
    for i in range(300):
        n = 5 + i % 5
        C, s, e = gen_random(n, seed=32000 + i,
                             density=(0.45, 0.7, 1.0)[i % 3],
                             clusters=1 + i % 3)
        want, _ = dp_oracle(C, s, e)
        if want == math.inf:
            continue
        m = Model(n, s, e, C, model="ALL", relax="both")
        m.obj.ub = int(want)
        m.scheduler.schedule_all()
        m.scheduler.run_fixpoint()   # must not fail: ub equals the optimum

        # every s..e permutation that beats the bound
        mid = [v for v in range(n) if v not in (s, e)]
        union, inter = set(), None
        for perm in itertools.permutations(mid):
            seq = (s,) + perm + (e,)
            arcs = [(seq[j], seq[j + 1]) for j in range(n - 1)]
            w = 0.0
            for (u, v) in arcs:
                w += C[u, v]
                if w == math.inf:
                    break
            if w <= want + 1e-9:
                es = set(arcs)
                union |= es
                inter = es if inter is None else (inter & es)
        assert inter is not None
        for u in range(n):
            for v in range(n):
                if u == v or v == s or u == e or not math.isfinite(C[u, v]):
                    continue
                if not m.gv.has_arc(u, v):
                    assert (u, v) not in union, (i, u, v)
                elif m.gv.has_mandatory(u, v):
                    assert (u, v) in inter, (i, u, v)
        checked += 1
    assert checked == 300
    dt = time.perf_counter() - t0
    assert dt < 120.0, dt
    _report(4, "300 root fixpoints at ub=optimum prune soundly, %.1fs" % dt)


def test_criterion_5_lower_bounds_never_cross_the_optimum():
    t0 = time.perf_counter()
    feasible = 0
    for i in range(1000):
        n = 5 + i % 8
        C, s, e = gen_random(n, seed=20000 + i,
                             density=(0.4, 0.7, 1.0)[i % 3],
                             clusters=1 + i % 4)
        want, _ = dp_oracle(C, s, e)
        if want == math.inf:
            continue
        feasible += 1
        opt = float(want)

        gv = GraphVar(n, s, e, [(u, v) for u in range(n) for v in range(n)
                                if u != v and math.isfinite(C[u, v])])
        lt = lb_trivial(gv, C)
        assert lt <= opt + 1e-9, (i, lt, opt)

        # the tree floor starts at the row-minimum sum and never passes the
        # optimum
        m1 = Model(n, s, e, C, model="BASIC", relax="tree")
        runs = record_runs(m1.hk)
        m1.root_propagate()
        assert math.ceil(lt - 1e-9) <= m1.obj.lb <= opt, (i, lt, m1.obj.lb, opt)
        assert runs and max(runs) <= opt + 1e-9, (i, runs, opt)

        m2 = Model(n, s, e, C, model="BASIC", relax="map")
        m2.root_propagate()
        assert m2.obj.lb <= opt, (i, m2.obj.lb, opt)

        # block tree dominates the plain tree on the same filtered domain
        sched = Scheduler(gv)
        rp = WalkOnlyReducedPath(gv)
        sched.register(rp)
        sched.schedule_all()
        sched.run_fixpoint()
        assert rp.epoch == gv.pop_epoch
        E, S = _costs(gv, C)
        mt = span_blocks(E, S, *tree_oracle(gv))[0]
        assert mt <= opt + 1e-9, (i, mt, opt)
        bst = span_blocks(E, S, *tree_oracle(gv, rp))[0]
        assert bst >= mt - 1e-9, (i, bst, mt)
    assert feasible == 1000
    dt = time.perf_counter() - t0
    assert dt < 120.0, dt
    _report(5, "1000 instances: every relaxation floor stays below the optimum, %.1fs" % dt)


def test_criterion_6_incremental_scc_matches_rebuild():
    """The SCC partition rebuilt after every batch of arc deletions equals
    mutual reachability, and every cross arc runs forward in its block
    order."""
    t0 = time.perf_counter()
    import random as _random
    rnd = _random.Random(6)
    n = 34
    deletions = 0
    for g in range(100):
        s, e = 0, n - 1
        arcs = [(u, v) for u in range(n) for v in range(n)
                if u != v and v != s and u != e]
        gv = GraphVar(n, s, e, arcs)
        st = ReducedState(gv)
        order = list(arcs)
        rnd.shuffle(order)
        i = 0
        while i < len(order):
            k = rnd.randint(1, 4)
            batch = order[i:i + k]
            i += k
            for (u, v) in batch:
                gv.remove_arc(u, v)
            st.rebuild()
            assert partition(st) == mutual_reachability(n, gv.succ), (g, i)
            scc_of = st.scc_of
            assert all(scc_of[u] <= scc_of[v]
                       for u in range(n) for v in gv.succ[u]), (g, i)
            deletions += len(batch)
    assert deletions >= 100000, deletions
    dt = time.perf_counter() - t0
    assert dt < 30.0, dt
    _report(6, "%d deletions over 100 graphs: every rebuild matches "
            "reachability, %.1fs" % (deletions, dt))


def test_criterion_7_br17_proved_at_its_documented_optimum():
    inst = parse_tsplib("instances/br17.atsp")
    assert inst.dimension == 17
    M, s, e = circuit_to_path(inst.matrix, 0)
    assert M.shape == (18, 18)

    opt, _ = dp_oracle(M, s, e)
    assert opt == 39

    t0 = time.perf_counter()
    m = Model(18, s, e, M, model="ALL", relax="both")
    res = solve(m, heuristic="enforceSparse", prove_ub=39)
    dt = time.perf_counter() - t0
    assert res.status == "proven"
    assert res.best_cost == 39
    assert res.nodes < 10000, res.nodes
    assert dt < 30.0, dt
    _report(7, "br17 optimum 39 proven in %d nodes, %.2fs" % (res.nodes, dt))


def test_criterion_8_guided_enforcement_needs_fewer_nodes():
    """enforceSparse against the unguided order every heuristic falls back
    on: enforce the first undecided arc.  Under BASIC/map there is no tree
    relaxation, so enforceMaxRC has no replacement costs to read and
    branches in exactly that order."""
    t0 = time.perf_counter()
    nodes = {"enforceSparse": [], "enforceMaxRC": []}
    made, i = 0, 0
    while made < 45:
        n = 9 + i % 3
        C, s, e = gen_random(n, seed=33000 + i,
                             density=(0.55, 0.8, 1.0)[i % 3],
                             clusters=1 + i % 3)
        i += 1
        want, _ = dp_oracle(C, s, e)
        if want == math.inf:
            continue
        made += 1
        for h in nodes:
            m = Model(n, s, e, C, model="BASIC", relax="map")
            r = solve(m, heuristic=h)
            assert r.status == "optimal", (i, h, r.status)
            assert r.best_cost == want, (i, h, r.best_cost, want)
            nodes[h].append(r.nodes)
    # the root path closes most of these tiny instances in a few nodes
    # under either heuristic, so the medians tie; the totals carry the
    # instances where the search still branches
    tot_es = sum(nodes["enforceSparse"])
    tot_fb = sum(nodes["enforceMaxRC"])
    assert tot_es < tot_fb, (tot_es, tot_fb)
    dt = time.perf_counter() - t0
    assert dt < 120.0, dt
    _report(8, "total nodes %d (enforceSparse) vs %d (first undecided "
            "arc), %.1fs" % (tot_es, tot_fb, dt))


def test_criterion_9_runs_are_reproducible(capsys):
    # library level: identical searches node for node
    for seed in (55, 56, 57):
        C, s, e = gen_random(8, seed=seed, density=0.8, clusters=2)
        runs = []
        for _ in range(2):
            m = Model(8, s, e, C, model="ALL", relax="both")
            r = solve(m, heuristic="enforceSparse")
            runs.append((r.status, r.best_cost,
                         tuple(r.best_path or ()), r.nodes, r.lb))
        assert runs[0] == runs[1]

    # command line: byte-identical reports under a pinned clock
    for form in ("csv", "json", "table"):
        outs = []
        for _ in range(2):
            code = cli.main(["--instance", "random:8", "--seed", "5",
                             "--optimize", "--format", form],
                            clock=lambda: 0.0)
            assert code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0]

    _report(9, "repeated runs byte-identical across library and cli "
            "(csv, json, table)")
