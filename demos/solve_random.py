"""Solve one random instance under several configurations.

Shows how model strength and the cost relaxation trade propagation effort
against search nodes, and cross-checks every answer with the exact
dynamic-programming oracle.
"""

from hampath import Model, dp_oracle, gen_random, solve

N = 11
SEED = 2024


def main():
    C, s, e = gen_random(N, seed=SEED, density=0.7, clusters=2)
    want, path = dp_oracle(C, s, e)
    print("oracle: optimum %d via %s" % (want, path))
    print()
    print("%-8s %-6s %-14s %8s %8s %9s" %
          ("model", "relax", "heuristic", "cost", "nodes", "time"))
    for model in ("BASIC", "ALL"):
        for relax in ("tree", "map", "both"):
            for heuristic in ("enforceSparse", "enforceMaxRC"):
                m = Model(N, s, e, C, model=model, relax=relax)
                res = solve(m, heuristic=heuristic)
                assert res.best_cost == want
                print("%-8s %-6s %-14s %8d %8d %8.3fs" %
                      (model, relax, heuristic, res.best_cost,
                       res.nodes, res.time_s))


if __name__ == "__main__":
    main()
