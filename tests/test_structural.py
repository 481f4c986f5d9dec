"""Structural propagator tests against brute-force oracles and the two
hand-checked seven-node graphs."""

import math
import random

import pytest

from hampath.gen import gen_random
from hampath.kernel import Contradiction, GraphVar, Scheduler
from hampath.structural import DegreePropagator, ReducedPathPropagator

import figures as fig
import oracles
from probes import WalkOnlyReducedPath


def make(arcs, n=fig.N, s=fig.S, e=fig.E):
    gv = GraphVar(n, s, e, list(arcs))
    sched = Scheduler(gv)
    return gv, sched


def run(gv, sched, props):
    for p in props:
        sched.register(p)
    sched.schedule_all()
    sched.run_fixpoint()


# -- reduced-path walk on the hand-checked graph --------------------------------


def test_walk_removes_block_skipping_arcs():
    gv, sched = make(fig.arc_set(fig.SKIP7))
    rp = WalkOnlyReducedPath(gv)
    run(gv, sched, [rp])
    removed = fig.arc_set(fig.SKIP7) - set(gv.arcs())
    assert removed == {(0, 4), (2, 6)}
    assert set(gv.mandatory_arcs()) == {(0, 1)}
    blocks = [frozenset(b) for b in rp.state.members]
    assert blocks == fig.BASE7_BLOCKS


def test_walk_pruning_is_sound():
    # every arc the walk removes lies on no Hamiltonian path at all
    gv, sched = make(fig.arc_set(fig.SKIP7))
    rp = WalkOnlyReducedPath(gv)
    run(gv, sched, [rp])
    paths = [set(zip(seq, seq[1:]))
             for seq in oracles.ham_paths(fig.N, fig.S, fig.E,
                                          lambda a, b: (a, b) in fig.SKIP7)]
    assert paths
    on_some_path = set.union(*paths)
    on_all_paths = set.intersection(*paths)
    removed = fig.arc_set(fig.SKIP7) - set(gv.arcs())
    assert not (removed & on_some_path)
    # conversely everything enforced must sit on every single path
    assert set(gv.mandatory_arcs()) <= on_all_paths


def test_door_rules_cascade():
    # with door rules on, the two-door block {1,2} loses its internal arc
    # (2,1); the block then splits and the walk tightens further
    gv, sched = make(fig.arc_set(fig.SKIP7))
    rp = ReducedPathPropagator(gv)
    run(gv, sched, [rp])
    removed = fig.arc_set(fig.SKIP7) - set(gv.arcs())
    assert removed == {(0, 4), (2, 6), (2, 1), (1, 4)}
    assert set(gv.mandatory_arcs()) == {(0, 1), (1, 2)}
    blocks = [frozenset(b) for b in rp.state.members]
    assert blocks == [frozenset({0}), frozenset({1}), frozenset({2}),
                      frozenset({3, 4, 5}), frozenset({6})]


def test_two_blocks_for_one_slot_fails():
    # both {1} and {2} are forced directly after the start block
    arcs = [(0, 1), (0, 2), (1, 3), (2, 3)]
    gv = GraphVar(4, 0, 3, arcs)
    sched = Scheduler(gv)
    rp = ReducedPathPropagator(gv)
    sched.register(rp)
    sched.schedule_all()
    with pytest.raises(Contradiction):
        sched.run_fixpoint()


def test_unreachable_end_block_fails():
    # e sits before a middle block in the condensation order
    arcs = [(0, 1), (1, 3), (1, 2), (2, 1)]
    gv = GraphVar(4, 0, 3, arcs)
    sched = Scheduler(gv)
    rp = ReducedPathPropagator(gv)
    sched.register(rp)
    sched.schedule_all()
    with pytest.raises(Contradiction):
        sched.run_fixpoint()


# -- degree and the chain rule --------------------------------------------------


def test_degree_enforces_singletons_and_evicts_siblings():
    arcs = [(0, 1), (1, 2), (1, 3), (2, 3)]
    gv = GraphVar(4, 0, 3, arcs)
    sched = Scheduler(gv)
    run(gv, sched, [DegreePropagator(gv)])
    # 0 has one successor and 2 one predecessor; enforcing (1, 2) evicts (1, 3)
    assert set(gv.mandatory_arcs()) == {(0, 1), (1, 2), (2, 3)}
    assert not gv.has_arc(1, 3)


def test_degree_fails_on_empty_row():
    gv = GraphVar(4, 0, 3, [(0, 1), (1, 2), (2, 3), (1, 0)])
    # (1, 0) is dropped at construction (nothing may enter s), so node 1
    # keeps a single successor; removing (1, 2) empties its row
    sched = Scheduler(gv)
    d = DegreePropagator(gv)
    sched.register(d)
    gv.remove_arc(1, 2)
    d.scheduled = True
    with pytest.raises(Contradiction):
        sched.run_fixpoint()


# the chain rule alone removes (2, 1) once (1, 2) is mandatory: node 1
# keeps its other predecessors and node 2 its other successors
FIVE = (5, 0, 4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 1), (1, 3), (2, 3),
                  (3, 1), (3, 2), (3, 4), (2, 4), (1, 4)])
FOUR = (4, 0, 3, [(0, 1), (1, 2), (2, 1), (1, 3), (2, 3)])


def _degree_only(graph, root_first):
    """A graph variable watched by `degree` alone, with or without the
    root fixpoint run before the caller's mutations."""
    gv = GraphVar(*graph)
    sched = Scheduler(gv)
    sched.register(DegreePropagator(gv))
    if root_first:
        sched.schedule_all()
        sched.run_fixpoint()
    return gv, sched


@pytest.mark.parametrize("root_first", [False, True],
                         ids=["before-first-call", "after-root"])
@pytest.mark.parametrize("graph", [FOUR, FIVE], ids=["four", "five"])
def test_degree_blocks_closing_arc(graph, root_first):
    gv, sched = _degree_only(graph, root_first)
    gv.enforce_arc(1, 2)
    sched.schedule_all()
    sched.run_fixpoint()
    # the mandatory chain 1->2 must not be closed back
    assert not gv.has_arc(2, 1)


@pytest.mark.parametrize("root_first", [False, True],
                         ids=["before-first-call", "after-root"])
def test_degree_rejects_mandatory_cycle(root_first):
    # the degree rules alone accept 0->3->4 beside the cycle 1<->2
    gv, sched = _degree_only(FIVE, root_first)
    gv.enforce_arc(1, 2)
    gv.enforce_arc(2, 1)
    sched.schedule_all()
    with pytest.raises(Contradiction):
        sched.run_fixpoint()


def test_degree_rejects_closing_a_fused_chain():
    gv, sched = _degree_only(FOUR, True)
    gv.enforce_arc(1, 2)
    sched.run_fixpoint()
    with pytest.raises(Contradiction):
        gv.enforce_arc(2, 1)
        sched.run_fixpoint()


def test_degree_fuses_each_mandatory_arc_once():
    # 1->2->3 is mandatory before the first call, logged in the order
    # (2, 3), (1, 2); fusing the log records again after the mandatory
    # arcs would leave chain 1..3 ending at 2, so prepending 4 would spare
    # the closing arc (3, 4)
    n = 7
    arcs = [(u, v) for u in range(n) for v in range(n)
            if u != v and v != 0 and u != n - 1]
    gv, sched = _degree_only((n, 0, n - 1, arcs), False)
    gv.enforce_arc(2, 3)
    gv.enforce_arc(1, 2)
    sched.schedule_all()
    sched.run_fixpoint()
    gv.enforce_arc(4, 1)
    sched.run_fixpoint()
    assert not gv.has_arc(3, 4)


def _degree_state(gv):
    return set(gv.arcs()), set(gv.mandatory_arcs())


def test_degree_events_reach_the_full_scan_closure():
    """Random remove/enforce steps under push/pop: the event-driven degree
    propagator, chain rule included, lands on the closure that full scans
    reach, or fails exactly when that closure is a contradiction.  Half the
    trials skip the root fixpoint, so the first full scan happens inside a
    world that may be backed out again."""
    rng = random.Random(7)
    checked = failed = 0
    for trial in range(400):
        n = rng.randint(3, 12)
        s, e = 0, n - 1
        density = rng.choice((0.15, 0.3, 0.5, 0.8))
        arcs = sorted((u, v) for u in range(n) for v in range(n)
                      if u != v and v != s and u != e
                      and rng.random() < density)
        gv = GraphVar(n, s, e, arcs)
        sched = Scheduler(gv)
        sched.register(DegreePropagator(gv))
        if trial % 2 == 0:
            want = oracles.degree_closure(n, s, e, arcs, ())
            sched.schedule_all()
            try:
                sched.run_fixpoint()
            except Contradiction:
                assert want is None, trial
                continue
            assert _degree_state(gv) == want, trial
        for _ in range(rng.randint(1, 10)):
            live = [a for a in gv.arcs() if not gv.has_mandatory(*a)]
            if not live:
                break
            arc = rng.choice(live)
            before = _degree_state(gv)
            pot, man = set(before[0]), set(before[1])
            enforce = rng.random() < 0.5
            if enforce:
                man.add(arc)
            else:
                pot.discard(arc)
            want = oracles.degree_closure(n, s, e, pot, man)
            gv.push_world()
            if enforce:
                gv.enforce_arc(*arc)
            else:
                gv.remove_arc(*arc)
            sched.schedule_all()
            try:
                sched.run_fixpoint()
                got = _degree_state(gv)
            except Contradiction:
                got = None
            assert got == want, (trial, enforce, arc)
            checked += 1
            if got is None or rng.random() < 0.3:
                failed += got is None
                gv.pop_world()
                assert _degree_state(gv) == before
    assert checked > 1000 and 200 < failed < checked - 200


# -- the block order as reachability and position windows -------------------------


@pytest.mark.parametrize("reverse,arcs", [
    (False, [(0, 1), (1, 3), (2, 3)]),      # 2 is cut off from s
    (True, [(0, 1), (1, 3), (0, 2)]),       # 2 is cut off from e
])
def test_arborescence_fails_on_a_cut_off_node(reverse, arcs):
    # a Hamiltonian path is a spanning arborescence from s and one into e;
    # with a node cut off, no block order chains s to e
    repair = (2, 1) if reverse else (1, 2)
    ReducedPathPropagator(GraphVar(4, 0, 3, arcs + [repair])).propagate()
    with pytest.raises(Contradiction, match="cut between consecutive blocks"):
        ReducedPathPropagator(GraphVar(4, 0, 3, arcs)).propagate()


def _block_windows(rp):
    """Position windows (lb, ub) from the last block order: a node of block
    k sits after every node of the blocks before it."""
    lb, ub = {}, {}
    start = 0
    for members in rp.blocks:
        for v in members:
            lb[v], ub[v] = start, start + len(members) - 1
        start += len(members)
    return lb, ub


def test_positions_sound_against_path_enumeration():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(4, 6)
        s, e = 0, n - 1
        arcs = {(u, v) for u in range(n) for v in range(n)
                if u != v and v != s and u != e and rng.random() < 0.6}
        mid = list(range(1, n - 1))
        rng.shuffle(mid)
        spine = [s] + mid + [e]
        arcs.update(zip(spine, spine[1:]))

        positions = {v: set() for v in range(n)}
        for seq in oracles.ham_paths(n, s, e, lambda a, b: (a, b) in arcs):
            for i, v in enumerate(seq):
                positions[v].add(i)

        gv = GraphVar(n, s, e, sorted(arcs))
        sched = Scheduler(gv)
        rp = ReducedPathPropagator(gv)
        run(gv, sched, [rp])
        lb, ub = _block_windows(rp)
        assert sorted(lb) == list(range(n))
        for v in range(n):
            assert positions[v]             # the spine is a path
            assert lb[v] <= min(positions[v])
            assert ub[v] >= max(positions[v])


def test_positions_channeling_removes_impossible_arcs():
    # a chain with one shortcut; every block is one node, so node 3 is
    # pinned to position 3 and (0, 3), which skips two blocks, dies
    arcs = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3)]
    gv = GraphVar(5, 0, 4, arcs)
    sched = Scheduler(gv)
    rp = ReducedPathPropagator(gv)
    run(gv, sched, [rp])
    lb, ub = _block_windows(rp)
    assert lb[3] == 3 and ub[3] == 3
    assert not gv.has_arc(0, 3)
    assert gv.has_arc(3, 4)


def test_positions_repeat_their_pass_until_it_removes_nothing():
    # the first pass's door rules remove (1, 2) and (4, 2); only then does
    # node 2 split off its block, the second pass removes (2, 5) and (4, 1),
    # which splits {1, 3, 4}, and the third removes (2, 3) and pins every
    # node to its position
    gv = GraphVar(6, 0, 5, [(0, 2), (1, 2), (1, 3), (2, 1), (2, 3), (2, 5),
                            (3, 4), (4, 1), (4, 2), (4, 5)])
    rp = ReducedPathPropagator(gv)
    rp.propagate()
    assert gv.arcs() == [(0, 2), (1, 3), (2, 1), (3, 4), (4, 5)]
    assert _block_windows(rp)[0] == {0: 0, 2: 1, 1: 2, 3: 3, 4: 4, 5: 5}


# -- incremental equals from-scratch ----------------------------------------------


def _fresh_fixpoint(n, s, e, arcs, mandatory, propagator):
    gv = GraphVar(n, s, e, sorted(arcs))
    sched = Scheduler(gv)
    rp = propagator(gv)
    sched.register(rp)
    for (u, v) in sorted(mandatory):
        gv.enforce_arc(u, v)
    sched.schedule_all()
    sched.run_fixpoint()
    return gv, rp


def _block_order(rp):
    return [frozenset(b) for b in rp.state.members]


def _dense_graphs(rng):
    """25 graphs on 5-8 nodes: each arc with probability 0.7, plus a
    hidden spine."""
    for _ in range(25):
        n = rng.randint(5, 8)
        s, e = 0, n - 1
        arcs = {(u, v) for u in range(n) for v in range(n)
                if u != v and v != s and u != e and rng.random() < 0.7}
        mid = list(range(1, n - 1))
        rng.shuffle(mid)
        spine = [s] + mid + [e]
        arcs.update(zip(spine, spine[1:]))
        yield n, arcs


def _clustered_graphs(rng):
    """A dozen 3-cluster gen_random graphs on 20-30 nodes; their blocks
    split under decisions."""
    for _ in range(12):
        n = rng.randint(20, 30)
        C, _, _ = gen_random(n, seed=rng.randrange(10**6),
                             density=rng.uniform(0.3, 0.5), clusters=3)
        yield n, {(u, v) for u in range(n) for v in range(n)
                  if math.isfinite(C[u, v])}


# the ids say whether the door rules run
@pytest.mark.parametrize("propagator, graphs, steps, seed", [
    pytest.param(WalkOnlyReducedPath, _dense_graphs, (2, 5), 100, id="False"),
    pytest.param(ReducedPathPropagator, _dense_graphs, (2, 5), 101, id="True"),
    pytest.param(WalkOnlyReducedPath, _clustered_graphs, (30, 40), 200,
                 id="clustered-False"),
    pytest.param(ReducedPathPropagator, _clustered_graphs, (30, 40), 201,
                 id="clustered-True"),
])
def test_incremental_walk_equals_fresh(propagator, graphs, steps, seed):
    """Random decision sequences with push/pop; after every decision the
    propagator, which keeps its cuts across worlds, must land on the same
    graph and the same block order as a fresh propagator given the
    surviving decisions."""
    rng = random.Random(seed)
    grew = 0        # decisions after which the condensation has more blocks

    def check_against_fresh(gv, trial):
        """Assert a fresh propagator's fixpoint equals gv; its block order."""
        mand = [a for a in gv.arcs() if gv.has_mandatory(*a)]
        try:
            fresh, fresh_rp = _fresh_fixpoint(gv.n, gv.s, gv.e,
                                              set(gv.arcs()), mand, propagator)
        except Contradiction:
            pytest.fail(f"fresh run failed where incremental survived "
                        f"(trial {trial})")
        # a fresh propagator sees the incremental result as a fixpoint:
        # nothing more to remove or enforce
        assert set(fresh.arcs()) == set(gv.arcs())
        assert set(fresh.mandatory_arcs()) == set(gv.mandatory_arcs())
        return _block_order(fresh_rp)

    for trial, (n, arcs) in enumerate(graphs(rng)):
        s, e = 0, n - 1
        gv = GraphVar(n, s, e, sorted(arcs))
        sched = Scheduler(gv)
        rp = propagator(gv)
        sched.register(rp)
        sched.schedule_all()
        try:
            sched.run_fixpoint()
        except Contradiction:
            continue

        # block count per world on the decision stack, root first
        sizes = [len(rp.state.members)]
        for _ in range(rng.randint(*steps)):
            live = [a for a in gv.arcs() if not gv.has_mandatory(*a)]
            if not live:
                break
            arc = live[rng.randrange(len(live))]
            kind = rng.choice(("remove", "enforce"))
            gv.push_world()
            try:
                if kind == "remove":
                    gv.remove_arc(*arc)
                else:
                    gv.enforce_arc(*arc)
                sched.schedule_all()
                sched.run_fixpoint()
            except Contradiction:
                gv.pop_world()
                continue
            assert check_against_fresh(gv, trial) == _block_order(rp)
            grew += len(rp.state.members) > sizes[-1]
            sizes.append(len(rp.state.members))
            if rng.random() < 0.3:
                # back out the most recent decision again
                gv.pop_world()
                sizes.pop()
        check_against_fresh(gv, trial)
    if graphs is _clustered_graphs:
        assert grew > 0
