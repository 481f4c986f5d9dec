"""SCC layer tests: Tarjan vs Kosaraju, incremental repair vs rebuild."""

import random

import pytest

from hampath import scc
from hampath.kernel import GraphVar, PreconditionViolation
from hampath.scc import ReducedState, tarjan_scc

from oracles import (kosaraju_sccs, partition, reachable_pairs,
                     reduced_path_order, transitive_closure)
from probes import SccWork


def random_digraph(rng, n, p):
    return [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    ]


def make_gv(n, arcs):
    """GraphVar wrapper for arbitrary digraphs; endpoints sit outside.

    Two fresh nodes become s and e, attached to node 0 and node n-1, so an
    arbitrary test digraph keeps all of its arcs.
    """
    s = n
    e = n + 1
    full = list(arcs) + [(s, 0), (n - 1, e)]
    return GraphVar(n + 2, s, e, full)


def norm(state):
    """Id-agnostic view of the whole reduced state."""
    key = {x: min(state.members[x]) for x in state.members}
    return {
        "partition": partition(state),
        "radj": frozenset((key[x], key[y]) for x in state.members for y in state.radj[x]),
        "out": frozenset(
            (key[x], frozenset(state.out_arcs[x])) for x in state.members
        ),
        "wit": frozenset(
            ((key[x], key[y]), c) for (x, y), c in state.wit.items()
        ),
    }


def test_tarjan_matches_kosaraju_on_random_graphs():
    rng = random.Random(1)
    for trial in range(120):
        n = rng.randrange(2, 12)
        arcs = random_digraph(rng, n, rng.uniform(0.05, 0.5))
        succ = [[] for _ in range(n)]
        for (u, v) in arcs:
            succ[u].append(v)
        comps, _ = tarjan_scc(range(n), succ)
        got = frozenset(frozenset(c) for c in comps)
        assert got == kosaraju_sccs(n, arcs)
        # on a random node subset, in random order, only induced arcs count
        nodes = rng.sample(range(n), rng.randrange(1, n + 1))
        comps, joined = tarjan_scc(nodes, succ)
        assert all(c == sorted(c) for c in comps)
        label = {v: i for i, v in enumerate(nodes)}
        induced = [(label[u], label[v]) for (u, v) in arcs
                   if u in label and v in label]
        want = kosaraju_sccs(len(nodes), induced)
        assert frozenset(frozenset(label[v] for v in c) for c in comps) == want
        comp_of = {v: i for i, c in enumerate(comps) for v in c}
        assert joined == any(comp_of[nodes[a]] != comp_of[nodes[b]]
                             for (a, b) in induced), trial


def test_tarjan_component_order_is_reverse_topological():
    # 0 -> 1 -> 2 with a cycle {1, 3}
    succ = [[1], [2, 3], [], [1]]
    comps, joined = tarjan_scc(range(4), succ)
    pos = {frozenset(c): i for i, c in enumerate(map(frozenset, comps))}
    assert pos[frozenset({2})] < pos[frozenset({1, 3})] < pos[frozenset({0})]
    assert joined


def test_rebuild_structures():
    # two 2-cycles bridged by a single arc
    arcs = [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (0, 3)]
    gv = make_gv(4, arcs)
    st = ReducedState(gv).rebuild()
    key = {min(st.members[x]): x for x in st.members}
    a = key[0]
    b = key[2]
    assert set(st.members[a]) == {0, 1}
    assert st.members[a][0] == 0 and len(st.members[a]) == 2
    assert st.out_arcs[a] >= {(1, 2), (0, 3)}
    assert st.wit[(a, b)] == 2
    assert b in st.radj[a] and a in st.rpred[b]
    # member lists are ascending
    assert st.members[a] == sorted(st.members[a])


def test_repair_equals_rebuild_randomized(monkeypatch):
    work = SccWork(monkeypatch)
    rng = random.Random(42)
    for trial in range(60):
        n = rng.randrange(4, 14)
        arcs = random_digraph(rng, n, rng.uniform(0.15, 0.6))
        gv = make_gv(n, arcs)
        st = ReducedState(gv).rebuild()
        pool = [a for a in gv.arcs()]
        rng.shuffle(pool)
        while pool:
            batch = [pool.pop() for _ in range(min(len(pool), rng.randrange(1, 4)))]
            batch = [a for a in batch if gv.has_arc(*a)]
            for (u, v) in batch:
                gv.remove_arc(u, v)
            if not batch:
                continue
            work.total = 0
            st.repair_after_deletions(batch)
            repaired = work.total
            fresh = ReducedState(gv).rebuild()
            assert norm(st) == norm(fresh), f"trial {trial} diverged"
            m = gv.n_potential + len(batch)
            assert repaired <= 4 * (gv.n + m)


def test_split_reporting_and_id_reuse():
    # 4-cycle with a pendant 2-cycle on node 3; cutting (4, 3) splits off
    # {4} and the large fragment {0..3} keeps the old id
    arcs = [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 3)]
    gv = make_gv(5, arcs)
    st = ReducedState(gv).rebuild()
    (big,) = [x for x in st.members if len(st.members[x]) == 5]
    gv.remove_arc(4, 3)
    splits = st.repair_after_deletions([(4, 3)])
    assert len(splits) == 1
    old, frags = splits[0]
    assert old == big
    assert st.scc_of[0] == big and len(st.members[big]) == 4
    assert set(st.members[big]) == {0, 1, 2, 3}
    assert len(frags) == 2
    assert big in frags
    (other,) = [f for f in frags if f != big]
    assert st.members[other] == [4]


@pytest.fixture
def tarjan_runs(monkeypatch):
    """Count the calls the SCC layer makes to tarjan_scc."""
    runs = []

    def counting(nodes, succ):
        runs.append(nodes)
        return tarjan_scc(nodes, succ)

    monkeypatch.setattr(scc, "tarjan_scc", counting)
    return runs


def test_tarjan_reruns_once_per_dirty_component(tarjan_runs):
    # two disjoint 3-cycles, one intra deletion in each
    arcs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
    gv = make_gv(6, arcs)
    st = ReducedState(gv).rebuild()
    runs = len(tarjan_runs)
    gv.remove_arc(1, 2)
    gv.remove_arc(4, 5)
    st.repair_after_deletions([(1, 2), (4, 5)])
    assert len(tarjan_runs) == runs + 2


def test_cross_deletion_updates_witnesses_without_tarjan(tarjan_runs):
    arcs = [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (0, 3)]
    gv = make_gv(4, arcs)
    st = ReducedState(gv).rebuild()
    runs = len(tarjan_runs)
    a = st.scc_of[0]
    b = st.scc_of[2]
    gv.remove_arc(0, 3)
    st.repair_after_deletions([(0, 3)])
    assert len(tarjan_runs) == runs
    assert st.wit[(a, b)] == 1
    gv.remove_arc(1, 2)
    st.repair_after_deletions([(1, 2)])
    assert (a, b) not in st.wit
    assert b not in st.radj[a]


def test_repair_on_stale_state_raises():
    arcs = [(0, 1), (1, 0)]
    gv = make_gv(2, arcs)
    st = ReducedState(gv).rebuild()
    gv.push_world()
    gv.remove_arc(0, 1)
    gv.pop_world()
    with pytest.raises(PreconditionViolation):
        st.repair_after_deletions([])
    st.rebuild()
    st.repair_after_deletions([])  # fine again


def chain_graph(sizes, rng=None):
    """Clusters that are directed cycles, chained left to right."""
    arcs = []
    base = 0
    blocks = []
    for k in sizes:
        block = list(range(base, base + k))
        blocks.append(block)
        if k > 1:
            arcs += [(block[i], block[(i + 1) % k]) for i in range(k)]
        base += k
    for a, b in zip(blocks, blocks[1:]):
        arcs.append((a[-1], b[0]))
    return sum(sizes), arcs, blocks


def test_transitive_closure_on_path_condensation():
    rng = random.Random(9)
    for _ in range(25):
        sizes = [rng.randrange(1, 4) for _ in range(rng.randrange(2, 5))]
        n, arcs, _ = chain_graph(sizes)
        gv = make_gv(n, arcs)
        st = ReducedState(gv).rebuild()
        closure = transitive_closure(st)
        reach = reachable_pairs(gv.n, gv.arcs())
        for v in range(gv.n):
            want = {u for u in range(gv.n) if reach[v][u] and u != v}
            assert closure[v] == want


def test_transitive_closure_requires_path():
    # condensation is a vee: 0 -> 1, 0 -> 2
    gv = make_gv(3, [(0, 1), (0, 2)])
    st = ReducedState(gv).rebuild()
    with pytest.raises(PreconditionViolation):
        transitive_closure(st)


def test_reduced_path_order_lists_components_in_sequence():
    n, arcs, blocks = chain_graph([1, 3, 2, 1])
    gv = make_gv(n, arcs)
    st = ReducedState(gv).rebuild()
    order = reduced_path_order(st)
    got = [set(st.members[x]) for x in order]
    # endpoint helpers from make_gv hang on both ends
    assert got[0] == {gv.s}
    assert got[-1] == {gv.e}
    assert got[1:-1] == [set(b) for b in blocks]
