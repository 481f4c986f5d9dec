"""Graph variable kernel: domains, the change log and the propagation loop.

The decision variable of the whole solver is a single graph variable over a
fixed node set 0..n-1 with two nested arc sets: the potential graph (arcs that
may still be part of the path) and the mandatory graph (arcs that must be).
The variable is instantiated when both coincide.  Each is held once, as
per-node successor and predecessor sets.

One list, the change log, records every change in order: an
(ARC_REMOVED or ARC_ENFORCED, u, v) record per domain mutation and an
(UNDO, fn, None) record per piece of propagator state to restore.  A world
is a mark into the log; popping it undoes the records past the mark, last
in first out.  The log is also the event stream.  Every mutation bumps one
counter, `stamp`; a propagator is due once the stamp passes the value it
saw when it last returned, so its own changes never wake it and a call of
`propagate` must end at its own fixpoint.  The one that reads the changes
themselves (degree) keeps a cursor into the log; the others re-read the
domain when woken.  Only a pop revives arcs, and it bumps `pop_epoch`:
while the epoch a propagator saw at its last call stands, arcs have only
gone since.  The hk, reduced-path and assignment propagators rely on this
to reuse work.  A pop also voids every pending wake and moves every
cursor to its mark, by noting the stamp and the mark the propagators
compare with.  The variable holds no reference to them, and no pop
reaches the root world, so it keeps no undo record there: a model that
nothing references any more is freed at once unless a world is still
open, whose records refer back to the propagators.
"""

from __future__ import annotations

import numbers

ARC_REMOVED = 0
ARC_ENFORCED = 1
UNDO = 2


class Contradiction(Exception):
    """Raised when a domain wipes out or a constraint becomes unsatisfiable."""


class PreconditionViolation(Exception):
    """Raised when an operation is called outside its stated precondition."""


class GraphVar:
    """Potential/mandatory digraph pair with its change log.

    `stamp` counts the mutations ever made; `pop_stamp` and `pop_mark` are
    the stamp and the log length the last pop left, which void the wakes
    and unread records of the abandoned world.  The initial domain already
    encodes the path endpoints: no arc enters s, no arc leaves e, and self
    loops are dropped; a repeated arc is added once.
    """

    def __init__(self, n, s, e, arcs):
        # a float or bool node count or endpoint would size or index the
        # node lists wrongly
        def whole(x):
            return isinstance(x, numbers.Integral) and not isinstance(x, bool)
        if not whole(n):
            raise PreconditionViolation(
                f"node count must be an integer, not {n!r}")
        if s == e or not all(whole(v) and 0 <= v < n for v in (s, e)):
            raise PreconditionViolation(
                f"endpoints must be distinct integer nodes in 0..{n - 1}, "
                f"not {s!r} and {e!r}")
        self.n = n
        self.s = s
        self.e = e
        self.succ = [set() for _ in range(n)]
        self.pred = [set() for _ in range(n)]
        self.msucc = [set() for _ in range(n)]
        self.mpred = [set() for _ in range(n)]
        self.n_mandatory = 0
        self.log = []
        self._marks = []            # log length at each open world's push
        self.pop_epoch = 0
        self.stamp = 0
        self.pop_stamp = 0
        self.pop_mark = 0
        succ, pred = self.succ, self.pred
        for (u, v) in arcs:
            if u != v and v != s and u != e:
                succ[u].add(v)
                pred[v].add(u)
        self.n_potential = sum(map(len, succ))

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
        return len(self._marks)

    # -- mutation --------------------------------------------------------

    def record(self, fn):
        """Call fn when the current world is popped, in log order.

        No pop reaches the root world, so a record there is dropped."""
        if self._marks:
            self.log.append((UNDO, fn, None))

    def remove_arc(self, u, v):
        """Drop (u,v) from the potential graph.  False if already absent."""
        if v in self.msucc[u]:
            raise Contradiction(f"removing mandatory arc ({u},{v})")
        if v not in self.succ[u]:
            return False
        self.succ[u].discard(v)
        self.pred[v].discard(u)
        self.n_potential -= 1
        self.log.append((ARC_REMOVED, u, v))
        self.stamp += 1
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
        self.log.append((ARC_ENFORCED, u, v))
        self.stamp += 1
        return True

    # -- worlds ----------------------------------------------------------

    def push_world(self):
        self._marks.append(len(self.log))

    def pop_world(self):
        """Undo every change since the matching push, last first.

        Every propagator's cursor moves to the mark, which discards the
        events it had not read, and its pending wake clears; state kept
        from the abandoned world is recognised by the epoch bump.
        """
        if not self._marks:
            raise PreconditionViolation("pop without matching push")
        mark = self._marks.pop()
        log = self.log
        succ, pred, msucc, mpred = self.succ, self.pred, self.msucc, self.mpred
        for kind, u, v in reversed(log[mark:]):
            if kind == ARC_REMOVED:
                succ[u].add(v)
                pred[v].add(u)
                self.n_potential += 1
            elif kind == ARC_ENFORCED:
                msucc[u].discard(v)
                mpred[v].discard(u)
                self.n_mandatory -= 1
            else:
                u()
        del log[mark:]
        self.pop_epoch += 1
        self.pop_stamp = self.stamp
        self.pop_mark = mark


class Propagator:
    """Base class: a filtering routine woken by domain changes.

    It is due, `scheduled`, once the variable's stamp passes both `_seen`,
    the stamp when it last returned, and the stamp of the last pop, or
    when it was woken by hand (`scheduled = True`, `_woken` = the pop
    epoch of the wake) and no pop has come since.  So every mutation but
    its own wakes it, and `propagate` repeats its work until a second call
    would change nothing.  One that reads the changes themselves takes
    them from `unread()`, FIFO, its own cascade included; the others
    ignore the cursor and re-read the domain.  The cursor `read` stands
    at the last pop's mark until the propagator reads in the new epoch.
    """

    name = "propagator"
    priority = 0

    def __init__(self, gv):
        self.gv = gv
        self._seen = gv.stamp
        self._woken = -1
        self._read = 0          # log position of the first record not yet read
        self._read_epoch = gv.pop_epoch     # the pop epoch _read belongs to
        self.stats = {"invocations": 0, "removed": 0, "enforced": 0}

    @property
    def scheduled(self):
        gv = self.gv
        return self._woken == gv.pop_epoch or \
            gv.stamp > self._seen and gv.stamp > gv.pop_stamp

    @scheduled.setter
    def scheduled(self, due):
        if due:
            self._woken = self.gv.pop_epoch
        else:
            self._woken = -1
            self._seen = self.gv.stamp

    @property
    def read(self):
        gv = self.gv
        return self._read if self._read_epoch == gv.pop_epoch else gv.pop_mark

    @read.setter
    def read(self, pos):
        self._read = pos
        self._read_epoch = self.gv.pop_epoch

    def propagate(self):
        raise NotImplementedError

    def unread(self):
        """The log records past the cursor, UNDO records included, as one
        list; the cursor moves to the end of the log."""
        log = self.gv.log
        batch = log[self.read:]
        self.read = len(log)
        return batch

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
    """The registered propagators, lowest priority first; the pending ones
    are those due by the wake rule of `Propagator`.

    The fixpoint loop runs the first due propagator, so registration order
    breaks ties between equal priorities.  Cost relaxations carry the
    highest priority numbers, so they only run when nothing else is
    pending.  A propagator notes the stamp when it returns, so only the
    changes made by others wake it again.
    """

    def __init__(self, gv):
        self.gv = gv
        self.props = []

    def register(self, propagator):
        """Wake propagator on, and let it read, every later mutation."""
        propagator.read = len(propagator.gv.log)
        self.props.append(propagator)
        self.props.sort(key=lambda p: p.priority)     # stable

    def schedule_all(self):
        for p in self.props:
            p.scheduled = True

    def run_fixpoint(self):
        """Propagate to quiescence.  Raises Contradiction on failure."""
        gv = self.gv
        props = self.props
        while True:
            stamp = gv.stamp
            epoch = gv.pop_epoch
            # a mutation since the last pop wakes all who have not seen it
            fresh = stamp > gv.pop_stamp
            for prop in props:
                if fresh and prop._seen < stamp or prop._woken == epoch:
                    break
            else:
                return
            prop.stats["invocations"] += 1
            try:
                prop.propagate()
            finally:
                prop._seen = gv.stamp
                prop._woken = -1
