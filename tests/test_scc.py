"""SCC layer tests: Tarjan vs Kosaraju, the rebuilt partition and its
block order."""

import random

import pytest

from hampath.kernel import GraphVar, PreconditionViolation
from hampath.scc import ReducedState, tarjan_scc

from oracles import (kosaraju_sccs, reachable_pairs, reduced_arcs,
                     reduced_path_order, transitive_closure)


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


def test_tarjan_matches_kosaraju_on_random_graphs():
    rng = random.Random(1)
    for _ in range(120):
        n = rng.randrange(2, 12)
        arcs = random_digraph(rng, n, rng.uniform(0.05, 0.5))
        succ = [[] for _ in range(n)]
        for (u, v) in arcs:
            succ[u].append(v)
        comps, comp_of = tarjan_scc(succ)
        got = frozenset(frozenset(c) for c in comps)
        assert got == kosaraju_sccs(n, arcs)
        assert all(c == sorted(c) for c in comps)
        assert all(comp_of[v] == k for k, c in enumerate(comps) for v in c)


def test_tarjan_component_order_is_reverse_topological():
    # 0 -> 1 -> 2 with a cycle {1, 3}
    succ = [[1], [2, 3], [], [1]]
    comps, _ = tarjan_scc(succ)
    pos = {frozenset(c): i for i, c in enumerate(map(frozenset, comps))}
    assert pos[frozenset({2})] < pos[frozenset({1, 3})] < pos[frozenset({0})]


def test_rebuild_structures():
    # two 2-cycles bridged by two arcs
    arcs = [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (0, 3)]
    gv = make_gv(4, arcs)
    st = ReducedState(gv).rebuild()
    # s, {0, 1}, {2, 3}, e: member lists ascend and come in path order
    assert st.members == [[gv.s], [0, 1], [2, 3], [gv.e]]
    assert [st.scc_of[v] for v in range(gv.n)] == [1, 1, 2, 2, 0, 3]
    assert reduced_arcs(st) == {(0, 2), (gv.s, 0), (2, gv.e)}
    # every cross arc runs forward in the block order
    assert all(st.scc_of[u] <= st.scc_of[v] for (u, v) in gv.arcs())


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
