"""The path found before the search: Hamiltonian over the root domain,
priced like any other path, deterministic, absent on graphs that have
none, and optimal at once when the root floor meets it.  Or-opt, which
polishes it and every improving leaf, ends at a local optimum."""

import math
import random

import pytest

from hampath.gen import gen_random
from hampath.oracle import dp_oracle
from hampath.rootpath import SEGMENT, or_opt, root_path
from hampath.search import Model, solve

import pathological as pg


def rooted(C, s, e, model="ALL", relax="both"):
    m = Model(len(C), s, e, C, model=model, relax=relax)
    m.root_propagate()
    return m


def test_root_path_is_hamiltonian_over_the_root_domain():
    for i in range(50):
        n = 6 + i % 9
        C, s, e = gen_random(n, seed=5100 + i,
                             density=(0.3, 0.6, 1.0)[i % 3],
                             clusters=1 + i % 4,
                             cost_range=((1, 100), (-50, 50))[i % 2])
        m = rooted(C, s, e, relax=("tree", "map", "both")[i % 3])
        before = (m.gv.arcs(), len(m.gv.log))
        path = root_path(m.gv, m.C)
        assert path is not None, i
        assert (m.gv.arcs(), len(m.gv.log)) == before   # nothing changed
        assert path[0] == s and path[-1] == e
        assert sorted(path) == list(range(n))
        assert all(v in m.gv.succ[u] for u, v in zip(path, path[1:]))
        cost = sum(int(C[u, v]) for u, v in zip(path, path[1:]))
        assert cost == m.path_cost(path)
        assert cost >= dp_oracle(C, s, e)[0]


@pytest.mark.parametrize("name, graph", [
    ("GP(5,2)", pg.generalized_petersen(5, 2)),
    ("GP(17,2)", pg.generalized_petersen(17, 2)),
    ("J7", pg.flower_snark(7)),
])
def test_no_root_path_on_non_hamiltonian_graphs(name, graph):
    # none of them has a path; the step budget stops each dive early (an
    # unbounded dive takes about 4 s on GP(17, 2))
    C, s, e, _ = pg.cycle_to_path(*graph)
    m = rooted(C, s, e, model="BASIC", relax="map")
    assert root_path(m.gv, m.C) is None, name


def test_root_path_is_deterministic():
    C, s, e = gen_random(30, seed=7, density=0.5, clusters=3)
    a = root_path(rooted(C, s, e).gv, C.tolist())
    m = rooted(C, s, e)
    assert root_path(m.gv, m.C) == root_path(m.gv, m.C) == a


def test_root_floor_at_the_root_path_cost_ends_the_search():
    # the root floor already reaches the root path's cost, so the path is
    # optimal before any branch, on a domain that is not instantiated
    C, s, e = gen_random(10, seed=2, density=0.8)
    m = Model(10, s, e, C, model="ALL", relax="both")
    r = solve(m)
    assert (r.status, r.nodes, r.best_cost, r.lb) == ("optimal", 1, 242, 242)
    assert not m.gv.is_instantiated()
    assert r.best_path == root_path(rooted(C, s, e).gv, C.tolist())
    assert dp_oracle(C, s, e)[0] == 242


def random_path(C, s, e, rng):
    """A Hamiltonian s-e path over the finite arcs, by a depth-first
    search that tries successors in random order."""
    n = len(C)

    def extend(path, left):
        u = path[-1]
        if not left:
            return path + [e] if math.isfinite(C[u][e]) else None
        nxt = [v for v in left if math.isfinite(C[u][v])]
        rng.shuffle(nxt)
        for v in nxt:
            found = extend(path + [v], left - {v})
            if found:
                return found
        return None

    return extend([s], set(range(n)) - {s, e})


def cost_of(C, path):
    return sum(C[u][v] for u, v in zip(path, path[1:]))


def or_opt_moves(path):
    """Every path one Or-opt move away: a segment of one to SEGMENT
    interior nodes moved, orientation kept, to another interior gap."""
    n = len(path)
    for size in range(1, SEGMENT + 1):
        for i in range(1, n - size):
            seg = path[i:i + size]
            rest = path[:i] + path[i + size:]
            for at in range(1, len(rest)):
                if at != i:
                    yield rest[:at] + seg + rest[at:]


def test_or_opt_reaches_a_local_optimum():
    rng = random.Random(26)
    for i in range(40):
        n = 5 + i % 8
        C, s, e = gen_random(n, seed=2600 + i,
                             density=(0.5, 0.8, 1.0)[i % 3],
                             cost_range=((1, 100), (-50, 50))[i % 2])
        C = C.tolist()
        start = random_path(C, s, e, rng)
        path = list(start)
        or_opt(C, path)
        assert path[0] == s and path[-1] == e, i
        assert sorted(path) == sorted(start), i
        assert all(math.isfinite(C[u][v]) for u, v in zip(path, path[1:])), i
        cost = cost_of(C, path)
        assert cost <= cost_of(C, start), i
        # no single move lowers the cost any further
        for other in or_opt_moves(path):
            assert not cost_of(C, other) < cost, (i, path, other)
