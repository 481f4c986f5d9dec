"""Same-answers harness: run one fixed list of solves and compare trees.

    python tests/equiv.py [--quick]                  count and digest
    python tests/equiv.py [--quick] --against REV    REV against this tree
    python tests/equiv.py [--quick] --lines          one line per solve

Every solve runs under a clock that counts backtracks (`gv.pop_epoch`),
so a budgeted solve stops after the same search on every machine.  A
solve prints one line, the repr of (case, model/relax, heuristic,
prove_ub, status, best_cost, nodes, lb, best_path, stats).  `--against`
extracts REV with `git archive` into a temporary directory, runs the
list in that tree and in this one, and prints the first line that
differs, or else the line count and the sha256 of the lines.  The
instances and this script are this tree's in both runs; only the
`hampath` package comes from REV.

The full list:
  * gen_random with n = 6 + seed % 10 for seeds 0-59, density 0.5, 0.8
    or 1 by seed % 3, 1-3 clusters by seed // 3 % 3, and costs 1..100 or
    -50..50 by seed // 9 % 2, under all 18 configurations (model x
    relaxation x heuristic); each optimum is followed by decision runs
    at opt - 1 and opt;
  * ulysses16, gr17, br17, ftv33 and bays29 on labelings 0-2 under
    ALL/both, ALL/map and BASIC/tree, each with enforceMaxRC and
    enforceSparse, within 2,000 backtracks.  Labeling 0 is the identity;
    labeling k shuffles the interior nodes with random.Random(k).shuffle
    and takes C[np.ix_(p, p)];
  * gen_random(45, seed 0-2, density 0.5, clusters 3) under ALL/map.
`--quick` runs every seventh random seed, ulysses16 and br17 on
labeling 1, and the 45-node instance of seed 1.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"
TSPLIB = ("ulysses16.tsp", "gr17.tsp", "br17.atsp", "ftv33.atsp",
          "bays29.tsp")
TSPLIB_CONFIGS = (("ALL", "both"), ("ALL", "map"), ("BASIC", "tree"))
TSPLIB_HEURISTICS = ("enforceMaxRC", "enforceSparse")
TSPLIB_BUDGET = 2000        # backtracks per TSPLIB solve
BUDGET = 100000             # a safety net for the generated instances


def _solve(hp, C, s, e, model, relax, heuristic, prove_ub, budget):
    m = hp.Model(len(C), s, e, C, model=model, relax=relax)
    return hp.solve(m, heuristic=heuristic, prove_ub=prove_ub,
                    time_limit=budget, clock=lambda: m.gv.pop_epoch)


def _line(case, model, relax, heuristic, prove_ub, res):
    return repr((case, f"{model}/{relax}", heuristic, prove_ub, res.status,
                 res.best_cost, res.nodes, res.lb, res.best_path, res.stats))


def _random(seed):
    n = 6 + seed % 10
    return n, dict(density=(0.5, 0.8, 1.0)[seed % 3],
                   clusters=1 + seed // 3 % 3,
                   cost_range=((1, 100), (-50, 50))[seed // 9 % 2])


def _labeled(hp, name, seed):
    inst = hp.parse_tsplib(str(INSTANCES / name))
    C, s, e = hp.circuit_to_path(inst.matrix, 0)
    p = list(range(len(C)))
    inner = [v for v in p if v not in (s, e)]
    if seed:
        random.Random(seed).shuffle(inner)
    p = [s] + inner + [e]
    return C[np.ix_(p, p)], 0, len(C) - 1


def lines(quick=False):
    """Yield the list's lines in order, solving with the `hampath` that
    `import hampath` finds."""
    import hampath as hp
    configs = list(itertools.product(hp.MODELS, hp.RELAXATIONS,
                                     hp.HEURISTICS))
    for seed in range(0, 60, 7 if quick else 1):
        n, kw = _random(seed)
        C, s, e = hp.gen_random(n, seed=seed, **kw)
        case = f"random-{seed}"
        for model, relax, heuristic in configs:
            res = _solve(hp, C, s, e, model, relax, heuristic, None, BUDGET)
            yield _line(case, model, relax, heuristic, None, res)
            if res.status != "optimal":
                continue
            for ub in (res.best_cost - 1, res.best_cost):
                dec = _solve(hp, C, s, e, model, relax, heuristic, ub, BUDGET)
                yield _line(case, model, relax, heuristic, ub, dec)
    names = ("ulysses16.tsp", "br17.atsp") if quick else TSPLIB
    for name, seed in itertools.product(names, (1,) if quick else range(3)):
        C, s, e = _labeled(hp, name, seed)
        case = f"{Path(name).stem}@{seed}"
        for (model, relax), heuristic in itertools.product(
                TSPLIB_CONFIGS, TSPLIB_HEURISTICS):
            res = _solve(hp, C, s, e, model, relax, heuristic, None,
                         TSPLIB_BUDGET)
            yield _line(case, model, relax, heuristic, None, res)
    for seed in (1,) if quick else range(3):
        C, s, e = hp.gen_random(45, seed=seed, density=0.5, clusters=3)
        res = _solve(hp, C, s, e, "ALL", "map", "enforceSparse", None, BUDGET)
        yield _line(f"gen45-{seed}", "ALL", "map", "enforceSparse", None, res)


def digest(out):
    return hashlib.sha256("".join(x + "\n" for x in out).encode()).hexdigest()


def _run_tree(src, quick):
    """The list's lines, solved by the hampath package under src."""
    cmd = [sys.executable, __file__, "--lines", "--src", str(src)]
    if quick:
        cmd.append("--quick")
    out = subprocess.run(cmd, check=True, capture_output=True,
                         text=True).stdout
    return out.splitlines()


def _against(rev, quick):
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tf:
            tf.extractall(tmp, filter="data")
        theirs = _run_tree(Path(tmp) / "src", quick)
    ours = _run_tree(ROOT / "src", quick)
    for i, (a, b) in enumerate(itertools.zip_longest(theirs, ours)):
        if a != b:
            print(f"line {i + 1} differs")
            print(f"  {rev}: {a}")
            print(f"  this tree: {b}")
            return 1
    print(f"{len(ours)} lines identical, sha256 {digest(ours)}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--quick", action="store_true",
                    help="run the short subset")
    ap.add_argument("--against", metavar="REV",
                    help="compare this tree with git revision REV")
    ap.add_argument("--lines", action="store_true",
                    help="print every line instead of the digest")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the directory holding the hampath package")
    args = ap.parse_args(argv)
    if args.against:
        return _against(args.against, args.quick)
    sys.path.insert(0, str(args.src.resolve()))
    import hampath
    # a hampath installed elsewhere must not stand in for the tree's own
    if not Path(hampath.__file__).resolve().is_relative_to(
            args.src.resolve()):
        raise SystemExit(f"hampath imported from {hampath.__file__}, "
                         f"not from {args.src}")
    out = []
    for line in lines(args.quick):
        if args.lines:
            print(line, flush=True)
        out.append(line)
    if not args.lines:
        print(f"{len(out)} lines, sha256 {digest(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
