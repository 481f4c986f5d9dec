"""Parse a TSPLIB circuit instance, restate it as a fixed-endpoints path,
and prove its documented optimum.

br17 is a 17-city asymmetric instance whose optimal circuit costs 39.
Splitting the home city into a start and an end node gives an 18-node
path problem with the same optimum, small enough that the exact oracle
can confirm it before the solver proves it by propagation and search.
"""

import os

from hampath import Model, circuit_to_path, dp_oracle, parse_tsplib, solve

HERE = os.path.dirname(os.path.abspath(__file__))
INSTANCE = os.path.join(HERE, os.pardir, "instances", "br17.atsp")


def main():
    inst = parse_tsplib(INSTANCE)
    print("parsed %s: %d cities, type %s" %
          (inst.name, inst.dimension, inst.problem_type))

    M, s, e = circuit_to_path(inst.matrix, 0)
    print("path form: %d nodes, start %d, end %d" % (M.shape[0], s, e))

    opt, _ = dp_oracle(M, s, e)
    print("oracle optimum: %d" % opt)

    m = Model(M.shape[0], s, e, M, model="ALL", relax="both")
    res = solve(m, heuristic="enforceSparse", prove_ub=int(opt))
    print("solver: %s at cost %d in %d nodes, %.2fs"
          % (res.status, res.best_cost, res.nodes, res.time_s))
    print("tour:", res.best_path)


if __name__ == "__main__":
    main()
