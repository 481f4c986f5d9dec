"""Cross-check the benchmark's references against the package's exact DP.

    python3 perfbench/check_refs.py

Checks the published optima of the TSPLIB instances small enough for
`dp_oracle` (n <= 20 in path form), and `refs.chain_optimum` against
`dp_oracle` on small generated instances of every cluster count and on
sparse matrices, many of which have no Hamiltonian path.  Exit code 1 on
any disagreement.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hampath import (circuit_to_path, dp_oracle, gen_random,  # noqa: E402
                     parse_tsplib)
from hampath.oracle import MAX_ORACLE_N  # noqa: E402

from refs import TSPLIB_OPT, chain_optimum  # noqa: E402


def main():
    bad = 0
    for path in sorted((ROOT / "instances").iterdir()):
        if path.stem not in TSPLIB_OPT:
            continue
        C, s, e = circuit_to_path(parse_tsplib(str(path)).matrix, 0)
        if len(C) > MAX_ORACLE_N:
            continue
        got = dp_oracle(C, s, e)[0]
        ok = got == TSPLIB_OPT[path.stem]
        bad += not ok
        print(f"{path.stem:10s} published {TSPLIB_OPT[path.stem]:6d} "
              f"dp_oracle {got:6d} {'ok' if ok else 'MISMATCH'}")
    rng = random.Random(0)
    for k in range(200):
        n = rng.randint(3, 14)
        clusters = rng.randint(1, min(3, n))
        density = rng.choice((0.2, 0.4, 0.7, 1.0))
        C, s, e = gen_random(n, seed=k, density=density, clusters=clusters)
        want = dp_oracle(C, s, e)[0]
        got = chain_optimum(C, s, e)
        if got != want:
            bad += 1
            print(f"gen n={n} seed={k} clusters={clusters} density={density}: "
                  f"dp_oracle {want}, chain_optimum {got}")
    # arbitrary sparse matrices, many of them without any Hamiltonian path
    for k in range(100):
        g = np.random.default_rng(k)
        n = int(g.integers(3, 13))
        C = np.where(g.random((n, n)) < 0.35, g.integers(1, 50, (n, n)), np.inf)
        s, e = 0, n - 1
        C[:, s] = C[e, :] = np.inf
        np.fill_diagonal(C, np.inf)
        want = dp_oracle(C, s, e)[0]
        got = chain_optimum(C, s, e)
        if got != want:
            bad += 1
            print(f"sparse n={n} case {k}: dp_oracle {want}, chain_optimum {got}")
    print(f"{bad} disagreements")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
