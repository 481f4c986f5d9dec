"""The implied graph propagators on hard Hamiltonicity instances: every
configuration stays exact on small cubic graphs, and reduced-path search
refutes the larger non-Hamiltonian ones in half to two thirds of BASIC's
nodes."""

import pytest

from hampath.oracle import dp_oracle
from hampath.search import MODELS, RELAXATIONS, Model, solve

import pathological as pg


@pytest.mark.parametrize("n, want", [(5, None), (7, 14), (9, 18)])
def test_small_generalized_petersen_graphs_match_the_oracle(n, want):
    # GP(5, 2) is the Petersen graph, which has no Hamiltonian cycle
    C, s, e, _ = pg.cycle_to_path(*pg.generalized_petersen(n, 2))
    opt, _ = dp_oracle(C, s, e)
    assert (None if opt == float("inf") else opt) == want
    for model in MODELS:
        for relax in RELAXATIONS:
            r = solve(Model(len(C), s, e, C, model=model, relax=relax))
            assert r.best_cost == want, (model, relax)
            assert r.status == ("infeasible" if want is None
                                else "optimal"), (model, relax)


# GP(17, 2) (17 = 5 mod 6) and the flower snark J7 have no Hamiltonian
# cycle; nodes of each refutation under model/map, enforceSparse
REFUTED = {
    "GP(17,2)": (pg.generalized_petersen(17, 2),
                 {"BASIC": 1473, "ALL": 747}),
    "J7": (pg.flower_snark(7),
           {"BASIC": 1329, "ALL": 839}),
}


@pytest.mark.parametrize("name", REFUTED)
def test_reduced_path_shortens_the_refutation_of_cubic_graphs(name):
    graph, nodes = REFUTED[name]
    C, s, e, prove_ub = pg.cycle_to_path(*graph)
    for model, want in nodes.items():
        r = solve(Model(len(C), s, e, C, model=model, relax="map"),
                  heuristic="enforceSparse", prove_ub=prove_ub)
        assert (r.status, r.nodes) == ("infeasible", want), model
