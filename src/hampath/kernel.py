"""Graph variable kernel: domains, trailing, events and the propagation loop.

The decision variable of the whole solver is a single graph variable over a
fixed node set 0..n-1 with two nested arc sets: the potential graph (arcs that
may still be part of the path) and the mandatory graph (arcs that must be).
The variable is instantiated when both coincide.  Backtracking restores state
through a trail of undo closures.  Every domain mutation schedules each
subscribed propagator and appends exactly one event to the queue of each
subscriber that keeps one.  Only the degree and no-cycle propagators keep
a queue; the others re-read the domain when woken.
"""

from __future__ import annotations

from collections import deque

import numpy as np

ARC_REMOVED = 0
ARC_ENFORCED = 1


class Contradiction(Exception):
    """Raised when a domain wipes out or a constraint becomes unsatisfiable."""


class PreconditionViolation(Exception):
    """Raised when an operation is called outside its stated precondition."""


class Trail:
    """Undo log with world marks."""

    def __init__(self):
        self._undo = []
        self._marks = []

    @property
    def depth(self):
        return len(self._marks)

    @property
    def size(self):
        return len(self._undo)

    def push(self):
        self._marks.append(len(self._undo))
        return len(self._marks)

    def record(self, fn):
        self._undo.append(fn)

    def pop(self):
        if not self._marks:
            raise PreconditionViolation("pop without matching push")
        mark = self._marks.pop()
        undo = self._undo
        while len(undo) > mark:
            undo.pop()()
        return len(self._marks)


class GraphVar:
    """Potential/mandatory digraph pair with trailing and event emission.

    The initial domain already encodes the path endpoints: no arc enters s,
    no arc leaves e, and self loops are dropped.
    """

    def __init__(self, n, s, e, arcs):
        if not (0 <= s < n and 0 <= e < n) or s == e:
            raise PreconditionViolation("endpoints must be distinct nodes in range")
        self.n = n
        self.s = s
        self.e = e
        self.succ = [set() for _ in range(n)]
        self.pred = [set() for _ in range(n)]
        self.msucc = [set() for _ in range(n)]
        self.mpred = [set() for _ in range(n)]
        self.pmask = np.zeros((n, n), dtype=bool)
        self.n_potential = 0
        self.n_mandatory = 0
        self.trail = Trail()
        self.pop_epoch = 0
        self._subs = []
        self._listeners = []        # subscribers with an event queue
        self.scheduler = None
        for (u, v) in arcs:
            if u == v or v == s or u == e:
                continue
            if v in self.succ[u]:
                continue
            self.succ[u].add(v)
            self.pred[v].add(u)
            self.pmask[u, v] = True
            self.n_potential += 1

    # -- queries ---------------------------------------------------------

    def has_arc(self, u, v):
        return v in self.succ[u]

    def has_mandatory(self, u, v):
        return v in self.msucc[u]

    def is_instantiated(self):
        return self.n_potential == self.n_mandatory

    def arcs(self):
        """All potential arcs, sorted for stable external behaviour."""
        return [(u, v) for u in range(self.n) for v in sorted(self.succ[u])]

    def mandatory_arcs(self):
        return [(u, v) for u in range(self.n) for v in sorted(self.msucc[u])]

    @property
    def depth(self):
        return self.trail.depth

    # -- mutation --------------------------------------------------------

    def subscribe(self, propagator):
        self._subs.append(propagator)
        if propagator.events is not None:
            self._listeners.append(propagator)

    def _emit(self, kind, u, v):
        ev = (kind, u, v)
        for p in self._listeners:
            p.events.append(ev)
        sched = self.scheduler
        if sched is not None:
            for p in self._subs:
                if not p.scheduled:
                    sched.schedule(p)

    def remove_arc(self, u, v):
        """Drop (u,v) from the potential graph.  False if already absent."""
        if v in self.msucc[u]:
            raise Contradiction(f"removing mandatory arc ({u},{v})")
        if v not in self.succ[u]:
            return False
        self.succ[u].discard(v)
        self.pred[v].discard(u)
        self.pmask[u, v] = False
        self.n_potential -= 1

        def undo():
            self.succ[u].add(v)
            self.pred[v].add(u)
            self.pmask[u, v] = True
            self.n_potential += 1

        self.trail.record(undo)
        self._emit(ARC_REMOVED, u, v)
        return True

    def enforce_arc(self, u, v):
        """Add (u,v) to the mandatory graph.  False if already mandatory."""
        if v in self.msucc[u]:
            return False
        if v not in self.succ[u]:
            raise Contradiction(f"enforcing absent arc ({u},{v})")
        self.msucc[u].add(v)
        self.mpred[v].add(u)
        self.n_mandatory += 1

        def undo():
            self.msucc[u].discard(v)
            self.mpred[v].discard(u)
            self.n_mandatory -= 1

        self.trail.record(undo)
        self._emit(ARC_ENFORCED, u, v)
        return True

    def stamp(self):
        """Cheap fingerprint of the domain state.

        Equal stamps mean no mutation and no backtrack happened in between,
        so a propagator that saw the first stamp has nothing new to do.
        """
        return (self.pop_epoch, self.trail.size)

    # -- worlds ----------------------------------------------------------

    def push_world(self):
        return self.trail.push()

    def pop_world(self):
        """Undo every change since the matching push.

        Pending propagator events refer to the abandoned world and are
        discarded; state kept from the abandoned world is recognised by
        the epoch bump.
        """
        d = self.trail.pop()
        self.pop_epoch += 1
        for p in self._listeners:
            p.events.clear()
        for p in self._subs:
            p.scheduled = False
        if self.scheduler is not None:
            self.scheduler.clear()
        return d


class Propagator:
    """Base class: a filtering routine woken by domain changes.

    A propagator that reads the changes themselves sets `events` to a
    deque in its constructor; the graph variable then queues every arc
    event there, FIFO.  The others are only woken.
    """

    name = "propagator"
    priority = 0
    events = None

    def __init__(self, gv):
        self.gv = gv
        self.scheduled = False
        self.stats = {"invocations": 0, "removed": 0, "enforced": 0}

    def propagate(self):
        raise NotImplementedError

    # counted wrappers so per-propagator filtering totals end up in reports
    def remove(self, u, v):
        if self.gv.remove_arc(u, v):
            self.stats["removed"] += 1
            return True
        return False

    def enforce(self, u, v):
        if self.gv.enforce_arc(u, v):
            self.stats["enforced"] += 1
            return True
        return False

    def fail(self, msg):
        raise Contradiction(f"{self.name}: {msg}")


class Scheduler:
    """Priority-bucketed propagation queue.

    Buckets drain lowest priority first, FIFO within a bucket, and a
    propagator sits in the queue at most once.  Cost relaxations carry the
    highest priority numbers, so the Lagrangian propagators only run when
    nothing else is pending.
    """

    def __init__(self, gv):
        self.gv = gv
        gv.scheduler = self
        self._buckets = {}
        self._order = []
        self.props = []

    def register(self, propagator):
        self.props.append(propagator)
        self.gv.subscribe(propagator)
        if propagator.priority not in self._buckets:
            self._buckets[propagator.priority] = deque()
            self._order = sorted(self._buckets)

    def schedule(self, propagator):
        if not propagator.scheduled:
            propagator.scheduled = True
            self._buckets[propagator.priority].append(propagator)

    def schedule_all(self):
        for p in self.props:
            self.schedule(p)

    def clear(self):
        for q in self._buckets.values():
            q.clear()

    def run_fixpoint(self):
        """Propagate to quiescence.  Raises Contradiction on failure."""
        buckets = self._buckets
        order = self._order
        while True:
            prop = None
            for pr in order:
                q = buckets[pr]
                if q:
                    prop = q.popleft()
                    break
            if prop is None:
                return
            prop.scheduled = False
            prop.stats["invocations"] += 1
            prop.propagate()
