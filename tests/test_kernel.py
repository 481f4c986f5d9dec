"""Kernel tests: domains, the change log, events, scheduler ordering."""

import random

import pytest

from hampath.kernel import (
    ARC_ENFORCED,
    ARC_REMOVED,
    UNDO,
    Contradiction,
    GraphVar,
    Propagator,
    Scheduler,
)


def full_arcs(n, s, e):
    return [(u, v) for u in range(n) for v in range(n) if u != v]


def snapshot(gv):
    return (
        tuple(frozenset(x) for x in gv.succ),
        tuple(frozenset(x) for x in gv.pred),
        tuple(frozenset(x) for x in gv.msucc),
        tuple(frozenset(x) for x in gv.mpred),
        gv.n_potential,
        gv.n_mandatory,
    )


class Recorder(Propagator):
    name = "recorder"

    def __init__(self, gv, priority=0, log=None):
        super().__init__(gv)
        self.priority = priority
        self.log = log if log is not None else []
        self.seen = []

    def propagate(self):
        self.seen.extend(r for r in self.unread() if r[0] != UNDO)
        self.log.append(self.name)


def test_initial_domain_filters_endpoint_arcs():
    gv = GraphVar(4, 0, 3, full_arcs(4, 0, 3) + [(1, 1), (2, 0), (3, 1)])
    assert not gv.pred[0], "no arc may enter the start node"
    assert not gv.succ[3], "no arc may leave the end node"
    for u in range(4):
        assert u not in gv.succ[u]
    # 4*3 ordered pairs minus 3 into s minus 3 out of e, the (e,s) pair
    # being counted once in each group
    assert gv.n_potential == 12 - 3 - 3 + 1


def test_remove_and_enforce_semantics():
    gv = GraphVar(4, 0, 3, full_arcs(4, 0, 3))
    assert gv.remove_arc(1, 2) is True
    assert gv.remove_arc(1, 2) is False
    assert not gv.has_arc(1, 2)
    assert gv.enforce_arc(0, 1) is True
    assert gv.enforce_arc(0, 1) is False
    assert gv.has_mandatory(0, 1)
    with pytest.raises(Contradiction):
        gv.remove_arc(0, 1)
    with pytest.raises(Contradiction):
        gv.enforce_arc(1, 2)
    # mandatory stays inside potential
    for u in range(4):
        assert gv.msucc[u] <= gv.succ[u]


def test_instantiation_flag():
    gv = GraphVar(3, 0, 2, [(0, 1), (1, 2), (0, 2)])
    assert not gv.is_instantiated()
    gv.remove_arc(0, 2)
    gv.enforce_arc(0, 1)
    gv.enforce_arc(1, 2)
    assert gv.is_instantiated()


def test_events_exactly_once_fifo():
    gv = GraphVar(4, 0, 3, full_arcs(4, 0, 3))
    sched = Scheduler(gv)
    a = Recorder(gv)
    b = Recorder(gv)
    sched.register(a)
    sched.register(b)
    gv.remove_arc(1, 2)
    gv.enforce_arc(1, 3)
    gv.remove_arc(1, 2)  # no-op, must not log
    expected = [(ARC_REMOVED, 1, 2), (ARC_ENFORCED, 1, 3)]
    assert gv.log == expected
    assert a.unread() == expected
    assert b.unread() == expected
    # each reader got them once
    assert a.unread() == [] and b.unread() == []
    gv.remove_arc(2, 1)
    assert a.unread() == [(ARC_REMOVED, 2, 1)]
    assert b.unread() == [(ARC_REMOVED, 2, 1)]


def test_late_subscriber_reads_only_later_changes():
    gv = GraphVar(4, 0, 3, full_arcs(4, 0, 3))
    sched = Scheduler(gv)
    early = Recorder(gv)
    sched.register(early)
    gv.remove_arc(1, 2)
    late = Recorder(gv)
    sched.register(late)
    gv.enforce_arc(1, 3)
    assert early.unread() == [(ARC_REMOVED, 1, 2), (ARC_ENFORCED, 1, 3)]
    assert late.unread() == [(ARC_ENFORCED, 1, 3)]


def test_events_reach_only_queue_keepers():
    gv = GraphVar(4, 0, 3, full_arcs(4, 0, 3))
    sched = Scheduler(gv)

    class Quiet(Propagator):
        def propagate(self):
            pass

    rec = Recorder(gv)
    quiet = Quiet(gv)
    sched.register(rec)
    sched.register(quiet)
    gv.remove_arc(1, 2)
    assert rec.scheduled and quiet.scheduled
    sched.run_fixpoint()
    assert rec.seen == [(ARC_REMOVED, 1, 2)]
    # the non-reader was only woken: its cursor never moved
    assert quiet.stats["invocations"] == 1 and quiet.read == 0


def test_push_pop_restores_bit_identical_state():
    rng = random.Random(7)
    gv = GraphVar(6, 0, 5, full_arcs(6, 0, 5))
    # each logged callable pops the witness its record pushed; it must
    # find its own witness on top and the arcs as they were when it was
    # logged, so callables and arc records are undone together, LIFO
    witness = []
    misordered = []
    stack = []
    for _ in range(300):
        op = rng.random()
        if op < 0.35 and gv.depth < 6:
            stack.append((snapshot(gv), len(witness)))
            gv.push_world()
        elif op < 0.5 and stack:
            gv.pop_world()
            assert (snapshot(gv), len(witness)) == stack.pop()
        elif op < 0.6:
            here = snapshot(gv)
            witness.append(here)

            def undo(here=here):
                if witness.pop() is not here or snapshot(gv) != here:
                    misordered.append(here)

            gv.record(undo)
        else:
            u = rng.randrange(6)
            v = rng.randrange(6)
            try:
                if op < 0.85:
                    gv.remove_arc(u, v)
                else:
                    gv.enforce_arc(u, v)
            except Contradiction:
                pass
    assert any(r[0] == UNDO for r in gv.log)
    assert any(r[0] != UNDO for r in gv.log)
    while stack:
        gv.pop_world()
        assert (snapshot(gv), len(witness)) == stack.pop()
    assert not misordered


def test_pop_discards_pending_events():
    gv = GraphVar(4, 0, 3, full_arcs(4, 0, 3))
    sched = Scheduler(gv)
    r = Recorder(gv)
    sched.register(r)
    gv.remove_arc(2, 1)     # pending from the root world
    gv.push_world()
    gv.remove_arc(1, 2)
    assert r.scheduled and len(gv.log) == 2
    gv.pop_world()
    assert not r.scheduled and r.unread() == []
    assert gv.log == [(ARC_REMOVED, 2, 1)]
    assert gv.has_arc(1, 2)
    gv.enforce_arc(1, 3)
    assert r.unread() == [(ARC_ENFORCED, 1, 3)]


def test_scheduler_priority_and_single_pending():
    gv = GraphVar(4, 0, 3, full_arcs(4, 0, 3))
    sched = Scheduler(gv)
    log = []
    cheap = Recorder(gv, priority=0, log=log)
    cheap.name = "cheap"
    lagr = Recorder(gv, priority=5, log=log)
    lagr.name = "lagrangian"
    # registration order deliberately puts the expensive one first
    sched.register(lagr)
    sched.register(cheap)
    gv.remove_arc(1, 2)
    gv.remove_arc(2, 1)
    assert lagr.scheduled and cheap.scheduled
    sched.run_fixpoint()
    assert log == ["cheap", "lagrangian"]
    assert cheap.seen == [(ARC_REMOVED, 1, 2), (ARC_REMOVED, 2, 1)]


def test_equal_priorities_run_in_registration_order():
    gv = GraphVar(4, 0, 3, full_arcs(4, 0, 3))
    sched = Scheduler(gv)
    log = []

    class Cutter(Recorder):
        def propagate(self):
            super().propagate()
            self.remove(2, 1)

    first = Recorder(gv, priority=3, log=log)
    first.name = "first"
    second = Cutter(gv, priority=3, log=log)
    second.name = "second"
    low = Recorder(gv, priority=0, log=log)
    low.name = "low"
    for p in (first, second, low):
        sched.register(p)
    assert sched.props == [low, first, second]
    # flagging second before first does not run it first
    second.scheduled = True
    first.scheduled = True
    sched.run_fixpoint()
    # the cut wakes the other two, which run lowest priority first
    assert log == ["first", "second", "low", "first"]


def test_lagrangian_runs_only_when_queue_otherwise_empty():
    gv = GraphVar(5, 0, 4, full_arcs(5, 0, 4))
    sched = Scheduler(gv)
    log = []

    class Chatty(Recorder):
        # removes more arcs while propagating, re-scheduling everyone
        def propagate(self):
            super().propagate()
            if gv.has_arc(2, 3):
                gv.remove_arc(2, 3)

    cheap = Chatty(gv, priority=0, log=log)
    cheap.name = "cheap"
    lagr = Recorder(gv, priority=5, log=log)
    lagr.name = "lagrangian"
    sched.register(lagr)
    sched.register(cheap)
    gv.remove_arc(1, 2)
    sched.run_fixpoint()
    assert log[-1] == "lagrangian"
    assert log.count("lagrangian") == 1
    assert all(name == "cheap" for name in log[:-1])


def test_own_changes_do_not_requeue_a_propagator():
    gv = GraphVar(4, 0, 3, full_arcs(4, 0, 3))
    sched = Scheduler(gv)

    class Cutter(Recorder):
        def propagate(self):
            super().propagate()
            self.remove(1, 2)

    cutter = Cutter(gv)
    other = Recorder(gv)
    sched.register(cutter)
    sched.register(other)
    cutter.scheduled = True
    sched.run_fixpoint()
    # the removal wakes only the other propagator
    assert cutter.stats["invocations"] == 1
    assert other.stats["invocations"] == 1
    assert other.seen == [(ARC_REMOVED, 1, 2)]
    assert not cutter.scheduled and not other.scheduled


def test_contradiction_escapes_fixpoint():
    gv = GraphVar(3, 0, 2, [(0, 1), (1, 2)])
    sched = Scheduler(gv)

    class Moody(Propagator):
        name = "moody"

        def propagate(self):
            self.fail("nope")

    moody = Moody(gv)
    sched.register(moody)
    gv.remove_arc(0, 1)
    with pytest.raises(Contradiction):
        sched.run_fixpoint()
    assert not moody.scheduled
