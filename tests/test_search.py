"""Branch-and-bound driver tests: correctness against the DP oracle,
prove-mode semantics, determinism, and limit handling."""

import gc
import itertools
import math
import random
import weakref
from pathlib import Path

import numpy as np
import pytest

from hampath import search
from hampath.gen import gen_random
from hampath.kernel import UNDO, Contradiction, GraphVar
from hampath.oracle import dp_oracle
from hampath.search import HEURISTICS, MODELS, RELAXATIONS, Model, solve
from hampath.tsplib import circuit_to_path, parse_tsplib

import figures as fig

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def fresh(C, s, e, **kw):
    return Model(C.shape[0], s, e, C, **kw)


def check_path(C, s, e, path, cost):
    assert path[0] == s and path[-1] == e
    assert sorted(path) == list(range(C.shape[0]))
    total = sum(C[u, v] for u, v in zip(path, path[1:]))
    assert np.isfinite(total) and int(total) == cost


def test_optimize_matches_oracle_across_configurations():
    combos = itertools.cycle(
        (mo, re, he)
        for mo in MODELS for re in RELAXATIONS for he in HEURISTICS)
    for i in range(60):
        n = 5 + i % 5
        C, s, e = gen_random(n, seed=900 + i,
                             density=(0.5, 0.75, 1.0)[i % 3],
                             clusters=1 + i % 3)
        want, _ = dp_oracle(C, s, e)
        mo, re, he = next(combos)
        r = solve(fresh(C, s, e, model=mo, relax=re), heuristic=he)
        assert r.status == "optimal", (i, mo, re, he)
        assert r.best_cost == want, (i, mo, re, he)
        check_path(C, s, e, r.best_path, r.best_cost)
        assert r.lb is not None and r.lb <= want


def test_prove_mode_is_a_sharp_decision():
    for i in range(12):
        n = 6 + i % 4
        C, s, e = gen_random(n, seed=3000 + i, density=0.8)
        want, _ = dp_oracle(C, s, e)
        yes = solve(fresh(C, s, e), prove_ub=int(want))
        assert yes.status == "proven"
        check_path(C, s, e, yes.best_path, yes.best_cost)
        assert yes.best_cost <= want
        no = solve(fresh(C, s, e), prove_ub=int(want) - 1)
        assert no.status == "infeasible"
        assert no.best_cost is None


def test_optimize_reports_infeasible_graphs():
    C = np.full((4, 4), np.inf)
    C[0, 1] = 1.0
    C[1, 3] = 1.0
    C[2, 3] = 1.0   # node 2 has no incoming arc at all
    r = solve(fresh(C, 0, 3))
    assert r.status == "infeasible"
    assert r.best_cost is None and r.best_path is None


def test_seven_node_graph_under_every_model():
    C = fig.cost_matrix(fig.BASE7)
    for mo in MODELS:
        for re in RELAXATIONS:
            r = solve(fresh(C, fig.S, fig.E, model=mo, relax=re))
            assert r.status == "optimal" and r.best_cost == fig.BASE7_OPT, \
                (mo, re)
            assert tuple(r.best_path) == fig.BASE7_OPT_PATH, (mo, re)


def test_identical_runs_are_identical():
    for i in range(6):
        C, s, e = gen_random(9, seed=4200 + i, density=0.7, clusters=2)
        he = HEURISTICS[i % len(HEURISTICS)]
        a = solve(fresh(C, s, e), heuristic=he)
        b = solve(fresh(C, s, e), heuristic=he)
        assert (a.status, a.best_cost, a.best_path, a.nodes) == \
            (b.status, b.best_cost, b.best_path, b.nodes)


def test_time_limit_reports_limit_status():
    C, s, e = gen_random(12, seed=77, density=1.0)
    ticker = itertools.count()
    r = solve(fresh(C, s, e, model="BASIC"),
              heuristic="enforceMaxRC",
              time_limit=0.5,
              clock=lambda: float(next(ticker)))
    assert r.status == "limit"
    assert r.nodes <= 2         # the deadline is read on every pass


def test_time_limit_stops_the_root_local_search():
    # the clock ticks once per read and the deadline passes during the
    # root path's kicks: the search stops there, before its 48 kicks on
    # ftv33, and the limit holds from the first pass of the search on
    C, s, e = circuit_to_path(
        parse_tsplib("instances/ftv33.atsp").matrix, 0)
    ticker = itertools.count()
    r = solve(fresh(C, s, e, model="ALL", relax="both"), time_limit=10,
              clock=lambda: float(next(ticker)))
    assert r.status == "limit"
    assert r.nodes <= 2
    # t0, eleven reads between kicks, the search's first pass and finish
    assert next(ticker) == 14
    if r.best_path is not None:
        check_path(C, s, e, r.best_path, r.best_cost)


@pytest.mark.parametrize("limit", [float("nan"), -1.0, -1e-9])
def test_bad_time_limit_is_rejected(limit):
    C = fig.cost_matrix(fig.BASE7)
    m = fresh(C, fig.S, fig.E)
    with pytest.raises(ValueError, match="time limit"):
        solve(m, time_limit=limit)
    assert m.scheduler.props[0].stats["invocations"] == 0   # nothing ran


@pytest.mark.parametrize("ub", [math.inf, -math.inf, math.nan])
def test_non_finite_prove_ub_is_rejected(ub):
    m = fresh(fig.cost_matrix(fig.BASE7), fig.S, fig.E)
    with pytest.raises(ValueError, match="prove_ub"):
        solve(m, prove_ub=ub)
    assert m.scheduler.props[0].stats["invocations"] == 0   # nothing ran


@pytest.mark.parametrize("costs, ub, status, lb", [
    # costs may be negative, so a fractional cap rounds down, not to zero
    ((0, 0), -0.5, "infeasible", 0),
    ((-1, 0), -1.5, "infeasible", -1),
    ((-1, 0), -0.5, "proven", -1),
])
@pytest.mark.parametrize("relax", RELAXATIONS)
def test_fractional_prove_ub_rounds_down(costs, ub, status, lb, relax):
    C = np.full((3, 3), np.inf)
    C[0, 1], C[1, 2] = costs
    r = solve(fresh(C, 0, 2, relax=relax), prove_ub=ub)
    assert r.status == status
    assert r.lb == lb
    if status == "proven":
        assert r.best_cost == sum(costs)


def test_a_model_serves_one_search():
    C, s, e = gen_random(9, seed=3)
    want, _ = dp_oracle(C, s, e)
    assert want == 157
    m = fresh(C, s, e, model="ALL", relax="both")
    # calls rejected for a bad argument leave the model usable
    with pytest.raises(ValueError):
        solve(m, heuristic="coinflip")
    with pytest.raises(ValueError):
        solve(m, prove_ub=math.inf)
    r = solve(m)
    assert (r.status, r.best_cost) == ("optimal", 157)
    # the search left the root's changes and the cap 156 in place
    with pytest.raises(ValueError, match="already searched"):
        solve(m)
    m = fresh(C, s, e, model="ALL", relax="both")
    assert solve(m, prove_ub=156).status == "infeasible"
    with pytest.raises(ValueError, match="already searched"):
        solve(m)


def test_zero_and_infinite_time_limits_are_accepted():
    C = fig.cost_matrix(fig.BASE7)
    ticker = itertools.count()
    r = solve(fresh(C, fig.S, fig.E), time_limit=0,
              clock=lambda: float(next(ticker)))
    assert r.status == "limit"
    r = solve(fresh(C, fig.S, fig.E), time_limit=float("inf"))
    assert (r.status, r.best_cost) == ("optimal", fig.BASE7_OPT)


def test_configuration_validation():
    C = fig.cost_matrix(fig.BASE7)
    with pytest.raises(ValueError):
        Model(fig.N, fig.S, fig.E, C, model="FANCY")
    # no dominator (ARB), position (POS) or alldiff (AD) model, and no
    # separate reduced-path model (BST): ALL is that model
    for model in ("ARB", "POS", "AD", "BST"):
        with pytest.raises(ValueError, match="unknown model"):
            Model(fig.N, fig.S, fig.E, C, model=model)
    with pytest.raises(ValueError):
        Model(fig.N, fig.S, fig.E, C, relax="cone")
    with pytest.raises(ValueError):
        solve(fresh(C, fig.S, fig.E), heuristic="coinflip")
    # endpoints must be distinct integer nodes
    C3 = np.ones((3, 3))
    for s, e in [(0.0, 1), (np.float64(0), 2), (True, 2), (0, 0), (-1, 2),
                 (0, 3)]:
        with pytest.raises(ValueError, match="endpoint"):
            Model(3, s, e, C3)
    assert solve(Model(3, np.int64(0), np.int64(2), C3)).best_cost == 2
    # so must the node count, also where the matrix shape equals it
    for n, C in [(3.0, C3), (np.float64(3), C3), (True, np.ones((1, 1)))]:
        with pytest.raises(ValueError, match="node count"):
            Model(n, 0, 2, C)
    assert solve(Model(np.int64(3), 0, 2, C3)).best_cost == 2


def test_unreachable_bound_fails_fast():
    C = fig.cost_matrix(fig.BASE7)
    r = solve(fresh(C, fig.S, fig.E), prove_ub=5)
    assert r.status == "infeasible"
    assert r.nodes <= 3


def test_reported_bound_is_global():
    C, s, e = gen_random(8, seed=71, density=0.8)
    want, _ = dp_oracle(C, s, e)
    assert solve(fresh(C, s, e)).lb == want
    assert solve(fresh(C, s, e), prove_ub=int(want) - 1).lb == want
    yes = solve(fresh(C, s, e), prove_ub=int(want) + 5)
    assert yes.status == "proven" and yes.lb <= want


def test_limit_bound_covers_every_open_subtree():
    # gr17 in path form, optimum 2085: stopped after 21 backtracks at node
    # 34, the floor of the world the search halts in reads 2194
    inst = parse_tsplib("instances/gr17.tsp")
    C, s, e = circuit_to_path(inst.matrix, 0)
    root = fresh(C, s, e, model="BASIC", relax="map")
    root.root_propagate()
    m = fresh(C, s, e, model="BASIC", relax="map")
    r = solve(m, time_limit=20, clock=lambda: m.gv.pop_epoch)
    assert r.status == "limit" and r.best_cost is not None
    assert root.obj.lb <= r.lb <= 2085
    assert r.lb <= r.best_cost


@pytest.mark.parametrize("relax", RELAXATIONS)
def test_bound_stays_sound_when_dead_alternatives_are_skipped(relax):
    # each later path lowers the cap below some stored floors, and the
    # search closes those levels unopened; stopped after 1, 3, 10 and 30
    # backtracks, the bound still covers every open subtree (the root
    # path's local search and patching find most optima of 12 to 14 nodes
    # before the first stop, so these instances take 13 to 15)
    stopped = 0
    for i in range(8):
        n = 13 + i % 3
        C, s, e = gen_random(n, seed=2650 + i, density=(0.4, 1.0)[i % 2],
                             cost_range=((1, 100), (-50, 50))[i // 2 % 2])
        want, _ = dp_oracle(C, s, e)
        model = ("ALL", "BASIC")[i // 4]
        for stop in (1, 3, 10, 30):
            m = fresh(C, s, e, model=model, relax=relax)
            r = solve(m, time_limit=stop, clock=lambda: m.gv.pop_epoch)
            stopped += r.status == "limit"
            if r.best_cost is not None:
                assert r.lb <= want <= r.best_cost, (i, stop, r.status)
        r = solve(fresh(C, s, e, model=model, relax=relax))
        assert (r.status, r.best_cost, r.lb) == ("optimal", want, want), i
        check_path(C, s, e, r.best_path, r.best_cost)
    assert stopped >= 6     # the stops do cut searches short


def test_patching_supplies_optimal_incumbents(monkeypatch):
    # clustered instances small enough for the oracle: every run must
    # stay exact whichever path set the cap, and in some of them the path
    # patched at a node is the optimum
    patched = []
    original = search.patch

    def counting(C, nxt, s, e):
        path = original(C, nxt, s, e)
        patched.append(path)
        return path

    monkeypatch.setattr(search, "patch", counting)
    from_patch = 0
    for i in range(20):
        C, s, e = gen_random(14, seed=4000 + i, density=0.6, clusters=3)
        want, _ = dp_oracle(C, s, e)
        for model, relax in (("ALL", "map"), ("ALL", "both"),
                             ("BASIC", "map")):
            patched.clear()
            r = solve(fresh(C, s, e, model=model, relax=relax))
            assert (r.status, r.best_cost, r.lb) == ("optimal", want, want), \
                (i, model, relax)
            check_path(C, s, e, r.best_path, r.best_cost)
            # the incumbent is the very list patch returned, then polished
            from_patch += any(p is r.best_path for p in patched)
    assert from_patch > 0


def _cheaper_or_opt_move(C, path):
    """A path one Or-opt move makes cheaper than path, or None: a segment
    of one to three interior nodes, its orientation kept, moved into any
    other gap of the path; s and e stay at the ends."""
    def cost(p):
        return sum(C[u, v] for u, v in zip(p, p[1:]))
    here = cost(path)
    n = len(path)
    for size in (1, 2, 3):
        for i in range(1, n - size):
            seg = path[i:i + size]
            rest = path[:i] + path[i + size:]
            for k in range(1, len(rest)):
                moved = rest[:k] + seg + rest[k:]
                if cost(moved) < here:
                    return moved
    return None


def test_every_incumbent_admits_no_cheaper_or_opt_move(monkeypatch):
    # one rule keeps every path: the root path leaves root_path polished,
    # and a leaf or patched path is polished before it becomes the
    # incumbent, so whatever its source the incumbent is an Or-opt
    # optimum.  Runs stopped after a few backtracks report incumbents
    # that are not optimal, where the polish shows
    found = []
    for name in ("root_path", "patch"):
        def recording(*args, original=getattr(search, name), source=name):
            path = original(*args)
            found.append((source, path))
            return path
        monkeypatch.setattr(search, name, recording)
    extract = Model.extract_path

    def leaf(m):
        path = extract(m)
        found.append(("leaf", path))
        return path
    monkeypatch.setattr(Model, "extract_path", leaf)
    sources = set()
    above = 0           # incumbents checked that are not optimal
    for seed in range(12):
        n = 10 + seed % 5
        C, s, e = gen_random(n, seed=5000 + seed, density=0.7,
                             clusters=1 + seed % 3)
        for model, relax, heuristic in itertools.product(
                MODELS, RELAXATIONS, HEURISTICS):
            opt = None
            for budget in (None, 0, 1, 3, 10):
                found.clear()
                m = fresh(C, s, e, model=model, relax=relax)
                r = solve(m, heuristic=heuristic, time_limit=budget,
                          clock=lambda: m.gv.pop_epoch)
                if budget is None:
                    assert r.status == "optimal"
                    opt = r.best_cost
                if r.best_path is None:
                    continue
                assert _cheaper_or_opt_move(C, r.best_path) is None, \
                    (seed, model, relax, heuristic, budget, r.best_path)
                above += r.best_cost > opt
                sources.update(src for src, p in found if p is r.best_path)
    assert above >= 20
    # the incumbents checked came from all three sources
    assert sources == {"root_path", "leaf", "patch"}


def test_a_decision_run_neither_patches_nor_polishes(monkeypatch):
    # a decision run's cap is fixed, so it keeps the first path within it
    # as found; root_path's own polish is not counted
    calls = {"patch": 0, "or_opt": 0}
    for name in calls:
        def counting(*args, original=getattr(search, name), name=name):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(search, name, counting)
    statuses = set()
    for seed in range(6):
        C, s, e = gen_random(11, seed=6000 + seed, density=0.7,
                             clusters=1 + seed % 3)
        for model, relax in itertools.product(MODELS, ("map", "both")):
            r = solve(fresh(C, s, e, model=model, relax=relax))
            assert r.status == "optimal"
            for ub in (r.best_cost - 1, r.best_cost, r.best_cost + 50):
                before = dict(calls)
                d = solve(fresh(C, s, e, model=model, relax=relax),
                          prove_ub=ub)
                assert calls == before, (seed, model, relax, ub)
                statuses.add((d.status, d.nodes == 1))
    # the optimizing runs did call both, so the counters were live
    assert calls["patch"] > 0 and calls["or_opt"] > 0
    # refuted, proven at the root and proven below it
    assert {("infeasible", False), ("proven", True),
            ("proven", False)} <= statuses


@pytest.mark.parametrize("name, prove_ub, status, nodes", [
    ("ulysses16.tsp", 6858, "infeasible", 28717),
    ("ulysses16.tsp", 6859, "proven", 1),     # the root path costs 6859
    ("gr17.tsp", 2084, "infeasible", 361),
    ("gr17.tsp", 2085, "proven", 1),      # the root path costs 2085
    ("bays29.tsp", 2019, "infeasible", 3263),
    ("bays29.tsp", 2020, "proven", 1),        # the root path costs 2020
])
def test_prove_map_search_shape(name, prove_ub, status, nodes):
    # BASIC/map decision runs as the prove-map benchmark makes them; a
    # faster degree or assignment layer must keep the same search tree
    inst = parse_tsplib(f"instances/{name}")
    C, s, e = circuit_to_path(inst.matrix, 0)
    r = solve(fresh(C, s, e, model="BASIC", relax="map"),
              heuristic="enforceSparse", prove_ub=prove_ub)
    assert (r.status, r.nodes) == (status, nodes)
    if status == "proven":
        check_path(C, s, e, r.best_path, r.best_cost)
        assert r.best_cost <= prove_ub


@pytest.mark.parametrize("seed, cost, nodes", [
    (0, 837, 241),
    (1, 884, 43),
    (2, 751, 195),
])
def test_clustered_map_search_shape(seed, cost, nodes):
    # ALL/map optimizing runs as the clustered-map benchmark makes them; a
    # faster structural or assignment layer must keep the same search tree
    C, s, e = gen_random(45, seed=seed, density=0.5, clusters=3)
    r = solve(fresh(C, s, e, model="ALL", relax="map"),
              heuristic="enforceSparse")
    assert (r.status, r.best_cost, r.nodes) == ("optimal", cost, nodes)
    check_path(C, s, e, r.best_path, r.best_cost)


def optimal_search(name, model, relax, heuristic, cost, nodes):
    inst = parse_tsplib(f"instances/{name}")
    C, s, e = circuit_to_path(inst.matrix, 0)
    r = solve(fresh(C, s, e, model=model, relax=relax), heuristic=heuristic)
    assert (r.status, r.best_cost, r.nodes) == ("optimal", cost, nodes)
    check_path(C, s, e, r.best_path, r.best_cost)


@pytest.mark.parametrize("name,model,relax,cost,nodes", [
    ("ulysses16.tsp", "ALL", "both", 6859, 5),
    ("gr17.tsp", "ALL", "both", 2085, 5),
    ("br17.atsp", "ALL", "both", 39, 9),
    ("ftv33.atsp", "ALL", "both", 1286, 7),
    ("ftv33.atsp", "BASIC", "tree", 1286, 7),
])
def test_tsplib_both_search_shape(name, model, relax, cost, nodes):
    # optimizing runs as the tsplib-both benchmark makes them; the
    # Lagrangian's bounds must stay bit for bit the same to keep these
    # trees, down to the summation order of the multiplier offset
    optimal_search(name, model, relax, "enforceSparse", cost, nodes)


def test_enforce_max_rc_search_shape():
    # enforceMaxRC has a heavy tail under ALL/both: att48 took 89,611 nodes
    # while leaves went unpolished and dead alternatives were opened, and
    # 793 before every node patched the assignment; bays29 took 259 then,
    # and 61 before the root path's local search
    optimal_search("bays29.tsp", "ALL", "both", "enforceMaxRC", 2020, 21)


def test_enforce_sparse_keeps_the_cheapest_successor_under_a_cap():
    # the capped Lagrangian filters the domain but does not rank the
    # branching: the node picked keeps its cheapest successor, ties to the
    # smallest head (on br17 at cap 39 the root picks node 2 and keeps 13)
    inst = parse_tsplib("instances/br17.atsp")
    C, s, e = circuit_to_path(inst.matrix, 0)
    m = fresh(C, s, e, model="ALL", relax="both")
    m.obj.ub = 39
    m.root_propagate()
    u, keep, drop = search.choose_decision(m, "enforceSparse")
    succs = sorted(m.gv.succ[u], key=lambda v: (m.C[u][v], v))
    assert len(succs) > 2
    assert (keep, drop) == (succs[:1], sorted(succs[1:]))


# nodes of gen_random(20, seed=0, density=0.5, clusters=3), optimum 572,
# per configuration in HEURISTICS order: enforceMaxRC, sparse, enforceSparse;
# the root path already costs 572, so each search proves it
SHAPE20 = {
    ("BASIC", "tree"): (9, 7, 7), ("BASIC", "map"): (5, 7, 7),
    ("BASIC", "both"): (7, 7, 7),
    ("ALL", "tree"): (7, 5, 5), ("ALL", "map"): (5, 5, 5),
    ("ALL", "both"): (7, 5, 5),
}


@pytest.mark.parametrize("relax", RELAXATIONS)
@pytest.mark.parametrize("model", MODELS)
def test_search_shape_of_every_configuration(model, relax):
    # a change to the kernel, a propagator or the branching that keeps the
    # fixpoints and the decisions keeps every one of these trees
    C, s, e = gen_random(20, seed=0, density=0.5, clusters=3)
    got = []
    for he in HEURISTICS:
        r = solve(fresh(C, s, e, model=model, relax=relax), heuristic=he)
        assert (r.status, r.best_cost) == ("optimal", 572), he
        got.append(r.nodes)
    assert tuple(got) == SHAPE20[model, relax]


def test_model_rejects_fractional_costs():
    # optimizing would round the 1.2 path to cost 1, while deciding
    # cost <= 1 rounds the floor up to 2 and says infeasible
    C = np.full((4, 4), np.inf)
    C[0, 1] = C[1, 2] = C[2, 3] = 0.4
    C[0, 2] = C[2, 1] = C[1, 3] = 0.6
    with pytest.raises(ValueError):
        Model(4, 0, 3, C)


def _path_costs_4x4():
    C = np.full((4, 4), np.inf)
    C[0, 1] = C[1, 2] = C[2, 3] = 1
    return C


def _with_nan():
    C = _path_costs_4x4()
    C[0, 2] = np.nan
    return C


def _with_neg_inf():
    C = _path_costs_4x4()
    C[0, 2] = -np.inf
    return C


@pytest.mark.parametrize("n, C, relax", [
    # a 3-node model would read the 4x4 matrix's top-left corner, where
    # the path 0->1->2 exists, and still answer infeasible
    (3, _path_costs_4x4(), "both"),
    # a 5-node model would index past the matrix
    (5, _path_costs_4x4(), "tree"),
    (4, _with_nan(), "tree"),
    (4, _with_neg_inf(), "map"),
], ids=["too-large", "too-small", "nan", "neg-inf"])
def test_model_rejects_malformed_cost_matrix(n, C, relax):
    with pytest.raises(ValueError):
        Model(n, 0, n - 1, C, relax=relax)


def _alternating(big):
    """5 nodes, s = 0 and e = 4: arc (u, v) costs big when u + v is odd
    and 1 otherwise; nothing enters 0 and nothing leaves 4."""
    C = np.array([[big if (u + v) % 2 else 1 for v in range(5)]
                  for u in range(5)], dtype=float)
    C[:, 0] = np.inf
    C[4, :] = np.inf
    return C


@pytest.mark.parametrize("big", [2 ** 53, -2 ** 53, 1_501_199_875_790_166])
def test_model_rejects_costs_too_large_to_add_exactly(big):
    # float path sums round from 2**53 on, and the root local search then
    # finds Or-opt moves that only seem to pay, without end; a sum of six
    # costs must stay exact, so 2**53 / 6 rounded up is already too large
    with pytest.raises(ValueError, match=r"below 2\*\*53 / 6"):
        Model(5, 0, 4, _alternating(big))


def test_costs_inside_the_exact_range_solve_to_the_optimum():
    for big in (2 ** 40, 1_501_199_875_790_165):
        C = _alternating(big)
        want, _ = dp_oracle(C, 0, 4)
        for relax in RELAXATIONS:
            res = solve(Model(5, 0, 4, C, relax=relax))
            assert (res.status, res.best_cost) == ("optimal", want), relax


def test_model_domain_keeps_the_sorted_arc_order():
    # the sets get their elements in the order of the sorted arc list, so
    # their iteration order, which searches depend on, stays the same
    mats = [circuit_to_path(parse_tsplib(str(p)).matrix, 0)
            for p in sorted(INSTANCES.iterdir())]
    mats += [gen_random(n, seed, density=0.6, clusters=1 + seed % 3)
             for n in (7, 19, 45) for seed in range(3)]
    for C, s, e in mats:
        n = len(C)
        m = Model(n, s, e, C, model="BASIC", relax="map")
        ref = GraphVar(n, s, e, sorted((u, v) for u in range(n)
                                       for v in range(n) if C[u, v] < np.inf))
        assert [list(x) for x in m.gv.succ] == [list(x) for x in ref.succ]
        assert [list(x) for x in m.gv.pred] == [list(x) for x in ref.pred]
        assert m.gv.n_potential == ref.n_potential == \
            sum(map(len, ref.succ))


@pytest.mark.parametrize("relax", RELAXATIONS)
@pytest.mark.parametrize("model", MODELS)
def test_a_dropped_model_is_freed_at_once(model, relax):
    # the graph variable holds no reference to its propagators, and the
    # root world keeps no undo records, which refer back to them; so a
    # model is freed by reference counting alone once it was built,
    # propagated, or searched to an end that leaves no world open
    C, s, e = gen_random(10, seed=3, density=0.6, clusters=2)
    opt, _ = dp_oracle(C, s, e)
    m = fresh(C, s, e, model=model, relax=relax)
    m.root_propagate()
    root_floor = m.obj.lb

    def freed(prepare):
        m = fresh(C, s, e, model=model, relax=relax)
        prepare(m)
        gv = weakref.ref(m.gv)
        del m
        return gv() is None

    def solved(prove_ub, status, nodes=None):
        def run(m):
            res = solve(m, prove_ub=prove_ub)
            assert res.status == status
            assert nodes is None or res.nodes == nodes
        return run

    enabled = gc.isenabled()
    gc.disable()
    try:
        assert freed(lambda m: None)
        assert freed(Model.root_propagate)
        assert freed(solved(None, "optimal"))
        assert freed(solved(opt - 1, "infeasible"))
        assert freed(solved(root_floor - 1, "infeasible", nodes=1))
        assert freed(solved(opt + 10 ** 6, "proven", nodes=1))
    finally:
        if enabled:
            gc.enable()


def test_only_event_readers_read_the_log():
    m = fresh(fig.cost_matrix(fig.BASE7), fig.S, fig.E, model="ALL",
              relax="both")
    assert len(m.scheduler.props) == 4
    m.root_propagate()
    assert m.gv.log     # the root fixpoint changed the domain
    # the others are only woken, so their cursors stay where they started
    assert [p.name for p in m.scheduler.props if p.read] == ["degree"]


MODEL_PROPS = {"BASIC": [], "ALL": ["reduced-path"]}
RELAX_PROPS = {"tree": ["hk"], "map": ["assignment"],
               "both": ["hk", "assignment"]}


@pytest.mark.parametrize("relax", RELAXATIONS)
@pytest.mark.parametrize("model", MODELS)
def test_each_configuration_registers_its_propagators(model, relax):
    m = fresh(fig.cost_matrix(fig.BASE7), fig.S, fig.E, model=model,
              relax=relax)
    names = [p.name for p in m.scheduler.props]
    want = ["degree"] + MODEL_PROPS[model] + RELAX_PROPS[relax]
    assert sorted(names) == sorted(want)


@pytest.fixture(scope="module")
def capped_instances():
    """(C, s, e, optimum) of four clustered random graphs and br17."""
    out = [gen_random(12, seed=seed, density=0.6, clusters=2)
           for seed in range(4)]
    out.append(circuit_to_path(parse_tsplib("instances/br17.atsp").matrix, 0))
    return [(C, s, e, dp_oracle(C, s, e)[0]) for C, s, e in out]


@pytest.mark.parametrize("relax", RELAXATIONS)
@pytest.mark.parametrize("model", MODELS)
def test_each_propagator_leaves_its_own_fixpoint(model, relax,
                                                 capped_instances):
    # a propagator is not woken by its own changes, so a second call right
    # after a fixpoint must find nothing to do
    rng = random.Random(f"{model}/{relax}")
    checks = 0
    for C, s, e, opt in capped_instances:
        m = fresh(C, s, e, model=model, relax=relax)
        m.obj.ub = opt + rng.randint(0, 2)
        gv = m.gv

        def fixpoint_holds():
            try:
                m.scheduler.run_fixpoint()
                return True
            except Contradiction:
                return False

        m.scheduler.schedule_all()
        consistent = holds = fixpoint_holds()
        for _ in range(40):
            if holds:
                for p in m.scheduler.props:
                    mark = len(gv.log)
                    p.propagate()
                    assert all(r[0] == UNDO for r in gv.log[mark:]), p.name
                checks += 1
            live = [a for a in gv.arcs() if not gv.has_mandatory(*a)]
            if not consistent or not live or gv.depth and rng.random() < 0.2:
                if not gv.depth:
                    break
                # back to a world whose fixpoint held; no fixpoint has run
                # since the pop, so nothing is checked until the next one
                gv.pop_world()
                consistent, holds = True, False
                continue
            gv.push_world()
            arc = live[rng.randrange(len(live))]
            if rng.random() < 0.5:
                gv.enforce_arc(*arc)
            else:
                gv.remove_arc(*arc)
            consistent = holds = fixpoint_holds()
    assert checks >= 20
