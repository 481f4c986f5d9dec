"""Command line front end.

Exit codes: 0 when the run finished with a definite answer (optimal,
proven, or infeasible), 2 when a time limit cut the search short, 1 for
bad arguments, unreadable input, or an output file that cannot be
written.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
import time

from .gen import gen_random
from .search import (HEURISTICS, MODELS, RELAXATIONS, Model,
                     check_time_limit, solve)
from .tsplib import ParseError, circuit_to_path, parse_tsplib

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_LIMIT = 2

CSV_HEADER = "instance,heuristic,model,relax,status,cost,lb,nodes,time_s"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; 2 is taken by "hit the time limit"
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_ERROR)


def build_parser():
    ap = _Parser(
        prog="hampath",
        description="Hamiltonian path solver for asymmetric TSP instances")
    ap.add_argument("--instance", required=True,
                    help="TSPLIB file, '-' for stdin, or 'random:N'")
    ap.add_argument("--heuristic", default="enforceSparse", choices=HEURISTICS)
    ap.add_argument("--model", default="ALL", choices=MODELS)
    ap.add_argument("--relax", default="tree", choices=RELAXATIONS)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--prove", type=int, metavar="UB", default=None,
                      help="decide whether a path of cost <= UB exists")
    mode.add_argument("--optimize", action="store_true", default=False,
                      help="search for the optimum (default)")
    ap.add_argument("--time-limit", type=float, default=None, metavar="SEC")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for random:N instances")
    ap.add_argument("--home", type=int, default=None,
                    help="tour node that becomes the path start (TSPLIB "
                    "input only; default 0)")
    ap.add_argument("--format", default="table", choices=("table", "csv", "json"))
    ap.add_argument("--out", default=None, help="write output here instead of stdout")
    return ap


def _load(args):
    spec = args.instance
    if spec.startswith("random:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad random instance spec {spec!r}")
        if args.home is not None:
            # a generated instance is a path from 0 to n - 1, not a tour
            raise ValueError("--home applies to TSPLIB input only, "
                             f"not {spec!r}")
        C, s, e = gen_random(n, seed=args.seed)
        return f"random{n}s{args.seed}", C, s, e
    inst = parse_tsplib(spec)
    C, s, e = circuit_to_path(inst.matrix,
                              0 if args.home is None else args.home)
    name = inst.name or spec
    return name, C, s, e


def _csv(name, args, res):
    """The header line and the one row line of a run, each newline-ended;
    a field holding a comma or a quote, as an instance name may, is quoted."""
    def opt(x):
        return "" if x is None else "%d" % x
    row = io.StringIO()
    csv.writer(row, lineterminator="\n").writerow([
        name, args.heuristic, args.model, args.relax, res.status,
        opt(res.best_cost), opt(res.lb), res.nodes, "%.6f" % res.time_s])
    return CSV_HEADER + "\n" + row.getvalue()


def _render(fmt, name, args, res):
    if fmt == "json":
        doc = {
            "instance": name,
            "heuristic": args.heuristic,
            "model": args.model,
            "relax": args.relax,
            "status": res.status,
            "cost": res.best_cost,
            "lb": res.lb,
            "nodes": res.nodes,
            "time_s": res.time_s,
            "path": res.best_path,
            "stats": res.stats,
        }
        return json.dumps(doc, sort_keys=True) + "\n"
    if fmt == "csv":
        return _csv(name, args, res)
    lines = [
        f"instance   {name}",
        f"config     model={args.model} relax={args.relax} heuristic={args.heuristic}",
        f"status     {res.status}",
        f"cost       {res.best_cost if res.best_cost is not None else '-'}",
        f"bound      {res.lb if res.lb is not None else '-'}",
        f"nodes      {res.nodes}",
        f"time       {res.time_s:.3f}s",
    ]
    if res.best_path is not None:
        lines.append("path       " + " ".join(str(v) for v in res.best_path))
    return "\n".join(lines) + "\n"


def main(argv=None, clock=time.monotonic):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        name, C, s, e = _load(args)
        m = Model(len(C), s, e, C, model=args.model, relax=args.relax)
        # --out opens before the search, so an unwritable path costs none,
        # and after every argument check, so a rejected run leaves it alone
        check_time_limit(args.time_limit)
        with (open(args.out, "w") if args.out
              else contextlib.nullcontext(sys.stdout)) as out:
            res = solve(m, heuristic=args.heuristic, prove_ub=args.prove,
                        time_limit=args.time_limit, clock=clock)
            out.write(_render(args.format, name, args, res))
    except (OSError, ParseError, ValueError) as exc:
        sys.stderr.write(f"hampath: error: {exc}\n")
        return EXIT_ERROR
    return EXIT_LIMIT if res.status == "limit" else EXIT_OK


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
