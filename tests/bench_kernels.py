"""Microbenchmarks of the solver's inner kernels (pytest-benchmark).

    pytest tests/bench_kernels.py --benchmark-only --benchmark-autosave

The file name keeps it out of the default test collection; saved runs go
to .benchmarks/ and `pytest-benchmark compare` lists them side by side.
"""

import random
from pathlib import Path

import numpy as np
import pytest

from hampath import Model, circuit_to_path, parse_tsplib, rootpath
from hampath.costs import (HungarianPropagator, _prim_pairs, effective_costs,
                           span_blocks, tree_oracle, wst_filter)
from hampath.gen import gen_random
from hampath.kernel import GraphVar, Scheduler
from hampath.rootpath import or_opt, patch, root_path
from hampath.structural import DegreePropagator

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def test_parse_tsplib_ulysses16(benchmark):
    """Reading a GEO coordinate file (n = 16): the text pass, then each
    unordered pair once, on coordinates converted to radians per node."""
    path = str(INSTANCES / "ulysses16.tsp")
    assert parse_tsplib(path).matrix[0, 1] == 509
    benchmark(parse_tsplib, path)


def test_model_build_bays29(benchmark):
    """Building the BASIC/map model of bays29 (n = 29) from its path
    matrix: the cost checks, the domain taken row by row from the cost
    lists, and the propagators' state; the built model is dropped."""
    C, s, e = circuit_to_path(
        parse_tsplib(str(INSTANCES / "bays29.tsp")).matrix, 0)
    m = Model(len(C), s, e, C, model="BASIC", relax="map")
    assert m.gv.n_potential == int(np.isfinite(C).sum())
    benchmark(Model, len(C), s, e, C, model="BASIC", relax="map")


@pytest.mark.parametrize("name", ["br17.atsp", "att48.tsp"])
def test_prim_pairs(benchmark, name):
    """The spanning tree on the symmetrized root costs (n = 18 and 49)."""
    C, s, e = circuit_to_path(parse_tsplib(str(INSTANCES / name)).matrix, 0)
    m = Model(len(C), s, e, C, model="BASIC", relax="tree")
    zero = np.zeros(len(C))
    _, S = effective_costs(m.gv, m.C, zero, zero)
    members, _, pins = tree_oracle(m.gv)
    benchmark(_prim_pairs, S, members[0], pins)


def test_wst_filter_ftv33(benchmark):
    """One swap filter call on the ftv33 ALL/both root state under the cap
    1286 (n = 34): the root fixpoint has warmed the multipliers and
    established the block order, and the tree is spanned once at the
    stored multipliers.  Each round filters inside a pushed world and pops
    it, so every round sees the same domain."""
    C, s, e = circuit_to_path(
        parse_tsplib(str(INSTANCES / "ftv33.atsp")).matrix, 0)
    m = Model(len(C), s, e, C, model="ALL", relax="both")
    m.obj.ub = 1286
    m.root_propagate()
    hk, gv = m.hk, m.gv
    oracle = tree_oracle(gv, hk.reduced)
    blocks, cuts, _ = oracle
    assert len(blocks) > 1      # the block order is established
    E, S = effective_costs(gv, hk.C, hk.pi_out, hk.pi_in)
    tree = span_blocks(E, S, *oracle)
    offset = float(hk.pi_out.sum() + hk.pi_in.sum())

    def once():
        gv.push_world()
        wst_filter(hk, E, S, tree, blocks, cuts, 1286.0, offset)
        gv.pop_world()

    benchmark(once)


def test_hk_evaluation_ftv33(benchmark):
    """One Lagrangian evaluation on the ftv33 ALL/both root state under the
    cap 1286 (n = 34): a one-step ascent run from the warmed multipliers,
    which prices the present arcs, spans the block tree over the
    established block order, reads its realized arcs for the subgradient
    and keeps the multipliers.  The run only reads the domain."""
    C, s, e = circuit_to_path(
        parse_tsplib(str(INSTANCES / "ftv33.atsp")).matrix, 0)
    m = Model(len(C), s, e, C, model="ALL", relax="both")
    m.obj.ub = 1286
    m.root_propagate()
    hk = m.hk
    oracle = tree_oracle(m.gv, hk.reduced)
    assert len(oracle[0]) > 1 and hk.pi_out.any()
    _, _, _, (_, trees, connectors), _ = hk._run(1286.0, oracle, 1)
    assert sum(map(len, trees)) + len(connectors) == m.gv.n - 1
    benchmark(hk._run, 1286.0, oracle, 1)


def test_assignment_cold_ftv33(benchmark):
    """One assignment bound from zero duals and an empty matching (n = 34)."""
    C, s, e = circuit_to_path(
        parse_tsplib(str(INSTANCES / "ftv33.atsp")).matrix, 0)

    def setup():
        m = Model(len(C), s, e, C, model="BASIC", relax="map")
        p = next(q for q in m.scheduler.props
                 if isinstance(q, HungarianPropagator))
        return (p,), {}

    benchmark.pedantic(lambda p: p.propagate(), setup=setup, rounds=20)


def warm_bays29():
    """The bays29 BASIC/map root state under the cap 2020 (n = 29), its
    assignment propagator, and the first row that has a choice left."""
    C, s, e = circuit_to_path(
        parse_tsplib(str(INSTANCES / "bays29.tsp")).matrix, 0)
    m = Model(len(C), s, e, C, model="BASIC", relax="map")
    m.obj.ub = 2020
    m.root_propagate()
    p = next(q for q in m.scheduler.props
             if isinstance(q, HungarianPropagator))
    u = next(u for u in p.rows if len(m.gv.succ[u]) > 1)
    return m, p, u


def test_assignment_warm_bays29(benchmark):
    """One assignment bound after a single arc removal from a warm state
    (n = 29): the root fixpoint under the cap 2020 has set the duals and
    the matching, then the matched successor arc of the first row that has
    a choice left goes, so the call re-augments one row and filters."""

    def setup():
        m, p, u = warm_bays29()
        m.gv.push_world()
        m.gv.remove_arc(u, p.row_match[u])
        return (p,), {}

    benchmark.pedantic(lambda p: p.propagate(), setup=setup, rounds=50)


def test_assignment_repeat_bays29(benchmark):
    """A second assignment call in the same world with its matching intact
    (n = 29): from the warm bays29 state, an unmatched arc goes, so every
    row keeps its match under the same cap and the call returns at once."""
    m, p, u = warm_bays29()
    m.gv.push_world()
    m.gv.remove_arc(u, min(m.gv.succ[u] - {p.row_match[u]}))
    arcs = m.gv.n_potential
    benchmark(p.propagate)
    assert m.gv.n_potential == arcs and p.capped == m.obj.ub


def test_assignment_after_backtrack_bays29(benchmark):
    """The first assignment call after a backtrack (n = 29): from the warm
    bays29 state, a world drops the matched successor arc of the first row
    that has a choice left, propagates and pops, so the call clamps the
    column duals over every present arc, drops the matches that lost
    tightness, re-augments and filters."""

    def setup():
        m, p, u = warm_bays29()
        m.gv.push_world()
        m.gv.remove_arc(u, p.row_match[u])
        p.propagate()
        m.gv.pop_world()
        return (p,), {}

    benchmark.pedantic(lambda p: p.propagate(), setup=setup, rounds=50)


def test_reduced_path_split_n45(benchmark):
    """One reduced-path call after removing an arc that splits a block
    (clustered n = 45, density 0.5, ALL/map).  From the warm root fixpoint,
    node 3 keeps a single in-arc from inside its 14-node block (the others
    go under a full fixpoint); then that arc goes, so the call rebuilds the
    partition with one block more, pins every cut and applies the door
    rules."""
    C, s, e = gen_random(45, seed=0, density=0.5, clusters=3)
    v = 3

    def setup():
        m = Model(len(C), s, e, C, model="ALL", relax="map")
        m.root_propagate()
        gv, st = m.gv, m.rp.state
        inside = sorted(u for u in gv.pred[v] if st.scc_of[u] == st.scc_of[v])
        gv.push_world()
        for u in inside[1:]:
            gv.remove_arc(u, v)
        m.root_propagate()
        (u,) = [u for u in gv.pred[v] if st.scc_of[u] == st.scc_of[v]]
        gv.push_world()
        gv.remove_arc(u, v)
        return (m.rp,), {}

    (rp,), _ = setup()
    blocks = len(rp.state.members)
    rp.propagate()
    assert len(rp.state.members) == blocks + 1
    assert rp.epoch == rp.gv.pop_epoch      # the call completed
    benchmark.pedantic(lambda p: p.propagate(), setup=setup, rounds=50)


def test_reduced_state_rebuild_n45(benchmark):
    """One full SCC rebuild of the reduced state on the root graph of a
    clustered 45-node, density-0.5 instance (ALL/map, after the root
    fixpoint); the graph does not change between rounds."""
    C, s, e = gen_random(45, seed=0, density=0.5, clusters=3)
    m = Model(len(C), s, e, C, model="ALL", relax="map")
    m.root_propagate()
    st = m.rp.state
    blocks = st.members
    st.rebuild()
    assert st.members == blocks
    benchmark(st.rebuild)


def test_kernel_round_bays29(benchmark):
    """One search-node round of the kernel alone (n = 29): push a world,
    remove 30 arcs and enforce a 10-arc chain out of s, run the fixpoint
    of `degree`, pop.  The domain is the bays29 BASIC/map root state under
    the cap 2020, restated on a graph variable that only `degree` watches;
    every round sees the same domain."""
    C, s, e = circuit_to_path(
        parse_tsplib(str(INSTANCES / "bays29.tsp")).matrix, 0)
    m = Model(len(C), s, e, C, model="BASIC", relax="map")
    m.obj.ub = 2020
    m.root_propagate()
    gv = GraphVar(m.gv.n, s, e, m.gv.arcs())
    for u, v in m.gv.mandatory_arcs():
        gv.enforce_arc(u, v)
    sched = Scheduler(gv)
    sched.register(DegreePropagator(gv))
    sched.schedule_all()
    sched.run_fixpoint()
    # the chain follows the cheapest successor not yet on it; the removed
    # arcs avoid its nodes and leave every other node three arcs each way
    # that avoid them too
    chain = [s]
    while len(chain) < 11:
        u = chain[-1]
        chain.append(min((w for w in gv.succ[u] if w not in chain and w != e),
                         key=lambda w: (C[u][w], w)))
    out = [len(x.difference(chain)) for x in gv.succ]
    inn = [len(x.difference(chain)) for x in gv.pred]
    drop = []
    for u, v in gv.arcs():
        if len(drop) < 30 and u not in chain and v not in chain \
                and not gv.has_mandatory(u, v) and out[u] > 3 and inn[v] > 3:
            drop.append((u, v))
            out[u] -= 1
            inn[v] -= 1

    def once():
        gv.push_world()
        for u, v in drop:
            gv.remove_arc(u, v)
        for u, v in zip(chain, chain[1:]):
            gv.enforce_arc(u, v)
        sched.run_fixpoint()
        gv.pop_world()

    before = gv.arcs()
    once()
    assert len(drop) == 30 and gv.arcs() == before
    benchmark(once)


def test_root_path_att48(benchmark):
    """The path found before the search (block-order dive, Or-opt, then
    the iterated local search of 98 kicks and a closing Or-opt sweep) on
    the att48 ALL/both root domain (n = 49); it reads the domain and
    changes nothing, so every round sees the same one."""
    C, s, e = circuit_to_path(
        parse_tsplib(str(INSTANCES / "att48.tsp")).matrix, 0)
    m = Model(len(C), s, e, C, model="ALL", relax="both")
    m.root_propagate()
    path = benchmark(root_path, m.gv, m.C)
    assert path[0] == s and path[-1] == e
    assert sorted(path) == list(range(len(C)))
    assert all(v in m.gv.succ[u] for u, v in zip(path, path[1:]))


def test_root_path_ftv33(benchmark):
    """The root path on the ftv33 ALL/both root domain (n = 35), stopped at
    the root floor as the search stops it: the dive and Or-opt give 1,388,
    the kicks reach the optimum 1,286 at kick 13 and stop 35 kicks later;
    it reads the domain and changes nothing, so every round sees the same
    one."""
    C, s, e = circuit_to_path(
        parse_tsplib(str(INSTANCES / "ftv33.atsp")).matrix, 0)
    m = Model(len(C), s, e, C, model="ALL", relax="both")
    m.root_propagate()
    path = benchmark(root_path, m.gv, m.C, m.obj.lb)
    assert m.path_cost(path) == 1286
    assert path[0] == s and path[-1] == e
    assert sorted(path) == list(range(len(C)))


def test_kick_ftv33(benchmark):
    """One kick of the root local search and the cheap Or-opt after it,
    on ftv33's root path on the ALL/both root domain (n = 35): the first
    kick of the search's seed, with every neighbour list it reads already
    built; each round kicks the same path into a fresh copy."""
    C, s, e = circuit_to_path(
        parse_tsplib(str(INSTANCES / "ftv33.atsp")).matrix, 0)
    m = Model(len(C), s, e, C, model="ALL", relax="both")
    m.root_propagate()
    path = root_path(m.gv, m.C)
    cost = m.path_cost(path)
    near = [None] * len(C), [None] * len(C)

    def once():
        return rootpath._kick(m.C, path, cost, random.Random(0), near)

    kicked = once()
    assert kicked is not None       # the kick's arcs are present
    trial, new = kicked
    assert new == m.path_cost(trial) >= cost   # the root path is optimal
    assert trial[0] == s and trial[-1] == e
    assert sorted(trial) == list(range(len(C)))
    benchmark(once)


def test_or_opt_att48(benchmark):
    """Or-opt from att48's unpolished dive path on the ALL/both root
    domain (n = 49), the local search that the root path, every
    improving leaf and every improving patched path go through; each
    round polishes a fresh copy."""
    C, s, e = circuit_to_path(
        parse_tsplib(str(INSTANCES / "att48.tsp")).matrix, 0)
    m = Model(len(C), s, e, C, model="ALL", relax="both")
    m.root_propagate()
    dive = rootpath._dive(m.gv, m.C)

    def polish():
        path = list(dive)
        or_opt(m.C, path)
        return path

    path = benchmark(polish)
    assert path[0] == s and path[-1] == e
    assert sorted(path) == list(range(len(C)))
    # moves go by finite costs, yet stay inside the uncapped root domain
    assert all(v in m.gv.succ[u] for u, v in zip(path, path[1:]))
    assert m.path_cost(path) <= m.path_cost(dive)


def test_patch_gen45(benchmark):
    """Patching the assignment's root matching of a clustered n = 45
    instance under ALL/map into one path, the call every inner node of an
    optimizing map or both run makes when its matching changed."""
    C, s, e = gen_random(45, seed=0, density=0.5, clusters=3)
    m = Model(len(C), s, e, C, model="ALL", relax="map")
    m.root_propagate()
    nxt = list(m.ap.row_match)
    path = benchmark(patch, m.C, nxt, s, e)
    assert path[0] == s and path[-1] == e
    assert sorted(path) == list(range(len(C)))
    assert all(m.C[u][v] < np.inf for u, v in zip(path, path[1:]))
