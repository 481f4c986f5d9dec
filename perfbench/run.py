"""Benchmark of the hampath solver: one workload per run, every answer checked.

    python3 perfbench/run.py --workload tsplib-both --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the solver is imported from `src/`
and the instances are read from `instances/`.  Load is closed loop and
single process: one solve at a time.  A run repeats rounds (set up every
instance of the workload, then solve each in turn) while another round fits
in --seconds, and always runs at least one.

With --trace 0 it prints the end-to-end metrics: each solve's times are its
medians over the run, summed over the workload's solves.  With --trace 1 it
runs one untraced round, then one round with the tracer installed, and
prints the per-layer metrics of the traced round.
The last line of standard output is one JSON object.  The exit code is 1
when any answer is wrong or tracing changed the search.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

# the solver under test is the one in this checkout
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hampath import Contradiction  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import (WORKLOADS, BenchModel, grade,  # noqa: E402
                       reference_optima, run, set_up)

SETUP_SAMPLES = 2          # extra timed set-ups after each solve
CHEAP_S = 1.0              # solves shorter than this are sampled more often
PROPAGATORS = ("degree", "nocycle", "trivial-lb", "reduced-path", "arbo",
               "arbo-rev", "alldiff", "positions", "hk-mst", "hk-bst",
               "assignment")


def _timed_set_up(w, seed, setup_s):
    t0 = time.perf_counter()
    tasks = set_up(w, seed)
    setup_s.append(time.perf_counter() - t0)
    return tasks


def _round(w, seed, setup_s, cheap=None, tracer=None):
    """Set up and solve every task once; per task, the list of its outcomes.

    With `cheap` (task indices, grown here), a task whose solve took under
    CHEAP_S is solved again after each longer solve, on a fresh model.  Its
    median then rests on samples spread over the run, not on one short
    window of a machine whose speed drifts over seconds.
    """
    gc.collect()            # every round starts from the same heap state
    tasks = _timed_set_up(w, seed, setup_s)
    if tracer is not None:
        with tracer:
            return [[run(t, w.budget)] for t in tasks]
    outs = [[] for _ in tasks]
    for i, t in enumerate(tasks):
        o = run(t, w.budget)
        outs[i].append(o)
        if cheap is not None:
            if o.wall_s < CHEAP_S:
                cheap.add(i)
            else:
                for j in sorted(cheap):
                    outs[j].append(run(tasks[j].fresh(), w.budget))
        # set-up takes milliseconds, so it is sampled across the whole run
        for _ in range(SETUP_SAMPLES):
            _timed_set_up(w, seed, setup_s)
    return outs


def _check(outcomes):
    """Grade every outcome; returns (failed, solved, optimum per label)."""
    matrices = {o.task.label: (o.task.C, o.task.s, o.task.e) for o in outcomes}
    opt = reference_optima(matrices)
    failed = solved = 0
    for o in outcomes:
        err, ok = grade(o, opt[o.task.label])
        if err:
            failed += 1
            print(f"WRONG {o.task.label} bound={o.task.prove_ub}: {err}",
                  file=sys.stderr)
        solved += ok
    return failed, solved, opt


def _report(per_task):
    for outs in per_task:
        o = outs[0]
        bound = "" if o.task.prove_ub is None else f" <= {o.task.prove_ub}"
        print(f"  {o.task.label:10s}{bound:9s} {o.status:10s} "
              f"cost={o.cost} nodes={o.nodes} "
              f"wall={statistics.median(x.wall_s for x in outs):.3f}s "
              f"(median of {len(outs)})")


def end_to_end(per_task, setup_s, solved, attempted, peak_rss_mb):
    found = [outs for outs in per_task if outs[0].incumbent_s is not None]
    return {
        "wall_s": (sum(statistics.median(o.wall_s for o in outs)
                       for outs in per_task),
                   "s", "sum over solves of each one's median"),
        "solved_frac": (solved / attempted, "ratio",
                        f"{solved} of {attempted} solves"),
        "incumbent_s": (sum(statistics.median(o.incumbent_s for o in outs)
                            for outs in found),
                        "s", "sum over solves of each one's median"),
        "setup_s": (statistics.median(setup_s), "s",
                    f"median of {len(setup_s)} set-ups"),
        "peak_rss_mb": (peak_rss_mb, "MB", "after the first round"),
    }


def _root_lb_ratio(w, relax, outcomes, opt):
    """Mean root floor ÷ optimum of `relax` alone, on fresh models; 0 when
    the workload's configuration does not register it."""
    if w.relax not in (relax, "both"):
        return 0.0
    ratios = []
    for label, (C, s, e) in {o.task.label: (o.task.C, o.task.s, o.task.e)
                             for o in outcomes}.items():
        m = BenchModel(len(C), s, e, C, model=w.model, relax=relax)
        try:
            m.root_propagate()
        except Contradiction:
            pass
        ratios.append(m.root_lb / opt[label])
    return statistics.mean(ratios)


def per_layer(w, plain, traced, tr, opt):
    nodes = sum(o.nodes for o in traced)
    m = {}
    for name in PROPAGATORS:
        st = tr.props.get(name)
        calls = st.calls if st else 0
        m[f"prop.{name}.calls"] = (calls, "count")
        m[f"prop.{name}.self_s"] = (st.self_s if st else 0.0, "s")
        m[f"prop.{name}.removed"] = (st.removed if st else 0, "count")
        m[f"prop.{name}.enforced"] = (st.enforced if st else 0, "count")
        m[f"prop.{name}.fails"] = (st.fails if st else 0, "count")
        m[f"prop.{name}.useful_frac"] = (st.useful / calls if calls else 0.0,
                                         "ratio")
    m["costs.tree.calls"] = (tr.calls["costs.tree"], "count")
    m["costs.tree.s"] = (tr.self_s["costs.tree"], "s")
    m["costs.tree_per_node"] = (tr.calls["costs.tree"] / nodes, "count/node")
    m["costs.filter.calls"] = (tr.calls["costs.filter"], "count")
    m["costs.filter.s"] = (tr.self_s["costs.filter"], "s")
    for relax in ("tree", "map"):
        m[f"costs.root_lb_ratio.{relax}"] = (
            _root_lb_ratio(w, relax, traced, opt), "ratio")
    for key in ("scc.rebuild", "scc.repair"):
        m[f"{key}.calls"] = (tr.calls[key], "count")
        m[f"{key}.s"] = (tr.self_s[key], "s")
    m["kernel.fixpoint.calls"] = (tr.calls["kernel.fixpoint"], "count")
    m["kernel.fixpoint.self_s"] = (tr.self_s["kernel.fixpoint"], "s")
    m["kernel.mutations"] = (tr.mutations, "count")
    m["kernel.mutation.s"] = (tr.self_s["kernel.mutation"], "s")
    m["kernel.backtrack.calls"] = (tr.calls["kernel.backtrack"], "count")
    m["kernel.backtrack.s"] = (tr.self_s["kernel.backtrack"], "s")
    m["search.decide.calls"] = (tr.calls["search.decide"], "count")
    m["search.decide.s"] = (tr.self_s["search.decide"], "s")
    m["search.nodes"] = (nodes, "count")
    m["search.nodes_per_s"] = (sum(o.nodes for o in plain)
                               / sum(o.wall_s for o in plain), "1/s")
    m["search.fails"] = (tr.failed_fixpoints, "count")
    m["search.incumbents"] = (sum(o.task.model.paths for o in traced), "count")
    m["search.root_lb_ratio"] = (statistics.mean(
        o.task.model.root_lb / opt[o.task.label] for o in traced), "ratio")
    m["trace.overhead"] = (sum(o.wall_s for o in traced)
                           / sum(o.wall_s for o in plain) - 1.0, "ratio")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]

    setup_s = []
    per_task = None
    cheap = None if args.trace else set()
    rounds = 0
    start = time.perf_counter()
    while True:
        outs = _round(w, args.seed, setup_s, cheap)
        per_task = outs if per_task is None else \
            [a + b for a, b in zip(per_task, outs)]
        rounds += 1
        if rounds == 1:
            # later rounds only add allocator slack, and their number
            # depends on the machine's speed
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        if args.trace or elapsed * (rounds + 1) / rounds > args.seconds:
            break

    mismatch = False
    outcomes = [o for outs in per_task for o in outs]
    if args.trace:
        tr = Tracer()
        plain = [outs[0] for outs in per_task]
        traced = [outs[0] for outs in _round(w, args.seed, [], tracer=tr)]
        outcomes += traced
        mismatch = [(o.status, o.cost, o.nodes) for o in plain] != \
            [(o.status, o.cost, o.nodes) for o in traced]
        if mismatch:
            print("WRONG tracing changed the search", file=sys.stderr)

    failed, solved, opt = _check(outcomes)
    print(f"workload {w.name} ({w.model}/{w.relax}, budget {w.budget} "
          f"backtracks per solve), seed {args.seed}, {rounds} rounds")
    _report(per_task)
    if args.trace:
        metrics = {k: (v, u, "traced round")
                   for k, (v, u) in per_layer(w, plain, traced, tr, opt).items()}
    else:
        metrics = end_to_end(per_task, setup_s, solved, len(outcomes),
                             peak_rss_mb)
    for k, (v, u, note) in metrics.items():
        print(f"{k:32s} {v:14.6g} {u:10s} {note}")
    correct = failed == 0 and not mismatch
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed + mismatch,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
