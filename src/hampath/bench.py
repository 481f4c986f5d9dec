"""Benchmark harness: run heuristic/model grids and emit CSV rows.

The clock is injectable so a fixed fake clock yields byte-identical CSV
output run to run; wall time is only reporting, never control flow, unless
a time limit is set.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .gen import gen_random
from .search import HEURISTICS, MODELS, RELAXATIONS, Model, solve
from .tsplib import ParseError, circuit_to_path, parse_tsplib

CSV_HEADER = "instance,heuristic,model,status,cost,lb,nodes,time_s"


def run_one(name, C, s, e, heuristic, model, relax="tree",
            prove_ub=None, time_limit=None, clock=time.monotonic):
    """Solve one instance with one configuration; returns a CSV row dict."""
    m = Model(len(C), s, e, C, model=model, relax=relax)
    res = solve(m, heuristic=heuristic, prove_ub=prove_ub,
                time_limit=time_limit, clock=clock)
    return result_row(name, heuristic, model, res)


def result_row(name, heuristic, model, res):
    """The CSV row dict of one search result."""
    return {
        "instance": name,
        "heuristic": heuristic,
        "model": model,
        "status": res.status,
        "nodes": res.nodes,
        "time_s": res.time_s,
        "cost": res.best_cost,
        "lb": res.lb,
    }


def _opt_int(x):
    return "" if x is None else "%d" % x


def format_row(row):
    return "%s,%s,%s,%s,%s,%s,%d,%.6f" % (
        row["instance"], row["heuristic"], row["model"], row["status"],
        _opt_int(row["cost"]), _opt_int(row["lb"]),
        row["nodes"], row["time_s"])


def write_csv(rows, fh):
    fh.write(CSV_HEADER + "\n")
    for row in rows:
        fh.write(format_row(row) + "\n")


def bench_grid(instances, heuristics, models, relax="tree",
               prove_ub=None, time_limit=None, clock=time.monotonic):
    """Run every (instance, heuristic, model) combination.

    instances: iterable of (name, C, s, e).  Yields row dicts in a fixed
    order: instance outermost, then heuristic, then model.
    """
    for name, C, s, e in instances:
        for h in heuristics:
            for mod in models:
                yield run_one(name, C, s, e, h, mod, relax=relax,
                              prove_ub=prove_ub, time_limit=time_limit,
                              clock=clock)


def load_instance(path, home=0):
    """Read a TSPLIB file and return (name, C, s, e) in path form."""
    inst = parse_tsplib(path)
    C, s, e = circuit_to_path(inst.matrix, home)
    name = inst.name or os.path.splitext(os.path.basename(path))[0]
    return name, C, s, e


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="hampath-bench",
        description="run a benchmark grid over instances and configurations")
    ap.add_argument("--instance", action="append", default=[],
                    help="TSPLIB file; repeatable")
    ap.add_argument("--random", type=int, action="append", default=[],
                    metavar="N", help="generated instance with N nodes; repeatable")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--density", type=float, default=1.0)
    ap.add_argument("--home", type=int, default=0)
    ap.add_argument("--heuristics", default=",".join(HEURISTICS))
    ap.add_argument("--models", default=",".join(MODELS))
    ap.add_argument("--relax", default="tree", choices=RELAXATIONS)
    ap.add_argument("--time-limit", type=float, default=None)
    ap.add_argument("--out", default=None, help="CSV output file (default stdout)")
    args = ap.parse_args(argv)

    insts = []
    try:
        for p in args.instance:
            insts.append(load_instance(p, args.home))
        for k, n in enumerate(args.random):
            C, s, e = gen_random(n, seed=args.seed + k, density=args.density)
            insts.append((f"random{n}s{args.seed + k}", C, s, e))
    except (OSError, ParseError, ValueError) as exc:
        ap.error(str(exc))
    if not insts:
        ap.error("no instances given")

    heuristics = [h.strip() for h in args.heuristics.split(",") if h.strip()]
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    for h in heuristics:
        if h not in HEURISTICS:
            ap.error(f"unknown heuristic {h!r}; choose from {', '.join(HEURISTICS)}")
    for m in models:
        if m not in MODELS:
            ap.error(f"unknown model {m!r}; choose from {', '.join(MODELS)}")

    rows = bench_grid(insts, heuristics, models, relax=args.relax,
                      time_limit=args.time_limit)
    try:
        if args.out:
            with open(args.out, "w") as fh:
                write_csv(rows, fh)
        else:
            write_csv(rows, sys.stdout)
    except ValueError as exc:
        # rejected by the solver, e.g. a NaN or negative time limit
        sys.stderr.write(f"{ap.prog}: error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
