"""The path found before the search: Hamiltonian over the root domain,
priced like any other path, deterministic, absent on graphs that have
none, and optimal at once when the root floor meets it.  Its iterated
local search never loses to the dive it starts from, ends at an Or-opt
local optimum, and stops once the path is good enough.  Patching splices
an assignment's cycles into its path at the cheapest exchange.  Or-opt,
which polishes the root path and every improving leaf or patched path,
ends at a local optimum."""

import math
import random

import pytest

from hampath.gen import gen_random
from hampath.oracle import dp_oracle
from hampath import rootpath
from hampath.rootpath import SEGMENT, or_opt, patch, root_path
from hampath.search import Model, solve
from hampath.tsplib import circuit_to_path, parse_tsplib

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


def costs(n, arcs):
    """An n x n nested cost list with the given {(u, v): cost} arcs."""
    C = [[math.inf] * n for _ in range(n)]
    for (u, v), c in arcs.items():
        C[u][v] = c
    return C


def test_patch_returns_a_lone_path_unchanged():
    C = costs(4, {(0, 2): 1, (2, 1): 1, (1, 3): 1, (0, 1): 5})
    assert patch(C, [2, 3, 1, -1], 0, 3) == [0, 2, 1, 3]


def test_patch_splices_a_two_cycle_at_the_cheapest_exchange():
    # path 0 -> 1 -> 4 and cycle 2 <-> 3; by hand, the exchanges are
    #   (0,1) with (2,3): C[0][3] + C[2][1] - C[0][1] - C[2][3] = 4+2-1-1 = 4
    #   (0,1) with (3,2): C[0][2] + C[3][1] - 1 - 1          = 9+9-2 = 16
    #   (1,4) with (2,3): C[1][3] + C[2][4] - C[1][4] - 1     = 1+1-1-1 = 0
    #   (1,4) with (3,2): C[1][2] + C[3][4] - 1 - 1          = 3+3-2 = 4
    # so (1, 4) and (2, 3) give way to (1, 3) and (2, 4)
    C = costs(5, {(0, 1): 1, (1, 4): 1, (2, 3): 1, (3, 2): 1,
                  (0, 3): 4, (2, 1): 2, (0, 2): 9, (3, 1): 9,
                  (1, 3): 1, (2, 4): 1, (1, 2): 3, (3, 4): 3})
    assert patch(C, [1, 4, 3, 2, -1], 0, 4) == [0, 1, 3, 2, 4]


def test_patch_gives_none_when_no_exchange_is_finite():
    # only the path's and the cycle's own arcs are present
    C = costs(5, {(0, 1): 1, (1, 4): 1, (2, 3): 1, (3, 2): 1})
    assert patch(C, [1, 4, 3, 2, -1], 0, 4) is None


def test_patch_gives_none_on_a_malformed_map():
    C = costs(4, {(u, v): 1 for u in range(4) for v in range(4) if u != v})
    assert patch(C, [1, -1, 3, -1], 0, 3) is None   # the path stops at 1
    assert patch(C, [1, 2, 1, -1], 0, 3) is None    # it loops before 3
    # node 2 leads into the path instead of closing a cycle
    assert patch(C, [1, 3, 1, -1], 0, 3) is None


def test_patched_assignment_is_a_hamiltonian_path():
    spliced = 0
    for i in range(40):
        n = 5 + i % 10
        C, s, e = gen_random(n, seed=2800 + i,
                             density=(0.5, 0.7, 1.0)[i % 3],
                             clusters=1 + i % 3,
                             cost_range=((1, 100), (-50, 50))[i // 3 % 2])
        m = rooted(C, s, e, relax="map")
        nxt = list(m.ap.row_match)
        path = patch(m.C, nxt, s, e)
        if path is None:
            continue
        spliced += any(nxt[u] != v for u, v in zip(path, path[1:]))
        assert path[0] == s and path[-1] == e, i
        assert sorted(path) == list(range(n)), i
        cost = cost_of(m.C, path)
        assert math.isfinite(cost), i
        assert cost >= m.obj.lb, i      # the assignment floor
        if n <= 12:
            assert cost >= dp_oracle(C, s, e)[0], i
    assert spliced > 0      # some matchings held cycles


def dived(m):
    """The dive's path on m's root domain, polished by Or-opt: where the
    iterated local search starts."""
    path = rootpath._dive(m.gv, m.C)
    or_opt(m.C, path)
    return path


def tsplib_rooted(name):
    C, s, e = circuit_to_path(parse_tsplib(f"instances/{name}").matrix, 0)
    return C, rooted(C, s, e)


def test_local_search_is_deterministic():
    # ftv33's kicks improve the dive's 1,388 to the optimum 1,286
    C, m = tsplib_rooted("ftv33.atsp")
    path = root_path(m.gv, m.C)
    assert m.path_cost(path) == 1286 < m.path_cost(dived(m)) == 1388
    assert root_path(m.gv, m.C) == path
    assert root_path(tsplib_rooted("ftv33.atsp")[1].gv, C.tolist()) == path


def test_local_search_keeps_the_best_path_at_a_local_optimum():
    improved = 0
    for i in range(24):
        n = 6 + i % 10
        C, s, e = gen_random(n, seed=3100 + i,
                             density=(0.4, 0.7, 1.0)[i % 3],
                             clusters=1 + i % 3,
                             cost_range=((1, 100), (-50, 50))[i // 3 % 2])
        m = rooted(C, s, e)
        start = dived(m)
        path = root_path(m.gv, m.C)
        cost = m.path_cost(path)
        assert cost <= m.path_cost(start), i
        improved += cost < m.path_cost(start)
        assert all(v in m.gv.succ[u] for u, v in zip(path, path[1:])), i
        # the closing sweep leaves no move that pays
        for other in or_opt_moves(path):
            assert not cost_of(m.C, other) < cost, (i, path, other)
    assert improved > 0


def test_local_search_never_beats_the_optimum():
    for i in range(24):
        n = 5 + i % 8
        C, s, e = gen_random(n, seed=3200 + i,
                             density=(0.4, 0.7, 1.0)[i % 3],
                             cost_range=((1, 100), (-50, 50))[i // 3 % 2])
        m = rooted(C, s, e)
        path = root_path(m.gv, m.C)
        assert path[0] == s and path[-1] == e, i
        assert sorted(path) == list(range(n)), i
        assert math.isfinite(cost_of(m.C, path)), i
        assert m.path_cost(path) >= dp_oracle(C, s, e)[0], i


def test_local_search_stops_once_the_path_is_good_enough():
    # a path at most enough ends the search before the first kick, so the
    # dive's path comes back as it is
    C, m = tsplib_rooted("ftv33.atsp")
    start = dived(m)
    assert root_path(m.gv, m.C, enough=m.path_cost(start)) == start
    # and the first path at most enough ends it after the kicks so far
    path = root_path(m.gv, m.C, enough=1300)
    assert 1286 <= m.path_cost(path) <= 1300


def kicks_to_root_path(monkeypatch, name):
    """The root path on name's ALL/both root domain, stopped at the root
    floor as `solve` stops it, and the number of kicks it made."""
    C, m = tsplib_rooted(name)
    calls = []
    kick = rootpath._kick

    def counted(*args):
        calls.append(args)
        return kick(*args)

    monkeypatch.setattr(rootpath, "_kick", counted)
    return m, root_path(m.gv, m.C, m.obj.lb), len(calls)


@pytest.mark.parametrize("name, kicks, cost", [
    # gr17's kicks never find a cheaper path, so n of them end the search
    ("gr17.tsp", 18, 2085),
    # ftv33's last cheaper path comes at kick 13, and n = 35 more follow
    ("ftv33.atsp", 48, 1286),
])
def test_local_search_stops_after_n_kicks_without_a_cheaper_path(
        monkeypatch, name, kicks, cost):
    # both stop before their ceiling of KICKS_PER_NODE kicks per node
    m, path, made = kicks_to_root_path(monkeypatch, name)
    assert made == kicks < rootpath.KICKS_PER_NODE * m.gv.n
    assert m.path_cost(path) == cost


VENDORED_ROOT_PATHS = [
    ("ulysses16.tsp", 6859), ("gr17.tsp", 2085), ("br17.atsp", 39),
    ("bays29.tsp", 2020), ("ftv33.atsp", 1286), ("att48.tsp", 10738),
    ("ry48p.atsp", 14556), ("berlin52.tsp", 7542), ("brazil58.tsp", 25395),
]


def test_vendored_root_paths_keep_their_costs():
    # the root path on each vendored instance's ALL/both root domain, as
    # `solve` stops it; att48 and ry48p stay above their optima (10,628
    # and 14,422), the other seven reach them
    got = []
    for name, _ in VENDORED_ROOT_PATHS:
        _, m = tsplib_rooted(name)
        got.append((name, m.path_cost(root_path(m.gv, m.C, m.obj.lb))))
    assert got == VENDORED_ROOT_PATHS


def test_decision_mode_proves_ulysses16_at_the_root():
    # BASIC/map deciding cost <= 6859: on the capped root domain the dive
    # and Or-opt reach 7,007, the kicks 6,859, which answers at the first
    # node (3,355 nodes without them)
    C, s, e = circuit_to_path(
        parse_tsplib("instances/ulysses16.tsp").matrix, 0)
    r = solve(Model(len(C), s, e, C, model="BASIC", relax="map"),
              prove_ub=6859)
    assert (r.status, r.nodes, r.best_cost) == ("proven", 1, 6859)
