"""Exact-solver and instance-generator tests."""

import hashlib
import math

import numpy as np
import pytest

from hampath.gen import gen_random
from hampath.oracle import MAX_ORACLE_N, SizeLimit, dp_oracle

import oracles

INF = float("inf")


def test_dp_matches_exhaustive_enumeration():
    rng = np.random.default_rng(11)
    for trial in range(120):
        n = int(rng.integers(2, 8))
        C = rng.integers(1, 40, size=(n, n)).astype(float)
        drop = rng.random((n, n)) < 0.35
        C[drop] = INF
        np.fill_diagonal(C, INF)
        s, e = 0, n - 1
        want, wpath = oracles.min_ham_path(
            n, s, e, lambda u, v: None if np.isinf(C[u, v]) else C[u, v])
        got, gpath = dp_oracle(C, s, e)
        if want is None:
            assert got == math.inf and gpath is None
        else:
            assert got == int(want)
            assert gpath[0] == s and gpath[-1] == e
            assert sorted(gpath) == list(range(n))
            total = sum(C[u, v] for u, v in zip(gpath, gpath[1:]))
            assert int(total) == got


def test_dp_reconstruction_is_deterministic():
    C = np.array([[INF, 2, 2, INF],
                  [INF, INF, INF, 2],
                  [INF, INF, INF, 2],
                  [INF, INF, INF, INF]])
    # both middle nodes are interchangeable; implicit tie-break must always
    # produce the same path
    first = dp_oracle(C, 0, 3)
    for _ in range(5):
        assert dp_oracle(C, 0, 3) == first


def test_dp_rejects_oversized_instances():
    n = MAX_ORACLE_N + 1
    C = np.ones((n, n))
    with pytest.raises(SizeLimit):
        dp_oracle(C, 0, n - 1)


def test_dp_edge_cases():
    assert dp_oracle(np.full((1, 1), INF), 0, 0) == (0, [0])
    two = np.array([[INF, 7.0], [INF, INF]])
    assert dp_oracle(two, 0, 1) == (7, [0, 1])
    assert dp_oracle(two, 1, 0) == (math.inf, None)
    assert dp_oracle(two, 0, 0) == (math.inf, None)


def test_generator_is_deterministic_per_seed():
    a, sa, ea = gen_random(9, seed=5, density=0.6, clusters=2)
    b, sb, eb = gen_random(9, seed=5, density=0.6, clusters=2)
    c, _, _ = gen_random(9, seed=6, density=0.6, clusters=2)
    assert np.array_equal(a, b) and (sa, ea) == (sb, eb)
    assert not np.array_equal(a, c)


# (n, seed, density, clusters, cost_range) and the sha256 of C.tobytes():
# the draws and their order are part of every seeded benchmark and test
GENERATED = [
    (2, 0, 1.0, 1, (1, 100),
     "40227d5b1a0e8eb3fe8f737607db2ab0c87e1acb023af61afe7e9cde746edd89"),
    (8, 3, 1.0, 1, (1, 100),
     "1dc4129afd8b9daac944a2f4c8ef5b784280123a67c37d56b50be2caee076efa"),
    (12, 5, 0.6, 2, (1, 100),
     "3b77badf14c5118a999622937c31a02755d4b0ffa3c83796a8072f538338a250"),
    (17, 11, 0.3, 1, (-40, 60),
     "0899d47bb5fe6aa583a15d65247570a239fd3b42804ebffca4378621b9c7ea10"),
    (30, 7, 0.5, 4, (0, 1000000),
     "e0b88013875146f040782ddadb6154db2aa274d3a70245533f7a1d36873d5710"),
    (45, 1, 0.5, 3, (1, 100),
     "5fa725cc7ccc753a98f6a8c67b5b0537b4260c9c5b9aa111b50bf7439f5a5643"),
]


@pytest.mark.parametrize("n, seed, density, clusters, cost_range, digest",
                         GENERATED)
def test_generator_output_is_pinned(n, seed, density, clusters, cost_range,
                                    digest):
    C, s, e = gen_random(n, seed, cost_range=cost_range, density=density,
                         clusters=clusters)
    assert C.dtype == np.float64 and C.shape == (n, n)
    assert (s, e) == (0, n - 1)
    assert hashlib.sha256(C.tobytes()).hexdigest() == digest


def test_generator_always_leaves_a_path():
    for seed in range(60):
        n = 4 + seed % 6
        C, s, e = gen_random(n, seed=seed, density=0.0,
                             clusters=1 + seed % 3)
        cost, path = dp_oracle(C, s, e)
        assert path is not None, seed
        assert (s, e) == (0, n - 1)


def test_generator_respects_endpoint_arcs():
    C, s, e = gen_random(8, seed=3, density=1.0)
    assert np.all(np.isinf(C[:, s]))    # nothing enters the start
    assert np.all(np.isinf(C[e, :]))    # nothing leaves the end
    assert np.all(np.isinf(np.diag(C)))


def test_generator_density_controls_arc_count():
    n = 12
    sparse, _, _ = gen_random(n, seed=9, density=0.2)
    dense, _, _ = gen_random(n, seed=9, density=0.9)
    assert np.isfinite(sparse).sum() < np.isfinite(dense).sum()


def test_generator_cluster_structure():
    n, k = 12, 3
    C, s, e = gen_random(n, seed=21, density=1.0, clusters=k)
    # recover the hidden spine grouping: order of nodes along the optimum
    # is not available here, so check the structural consequence instead:
    # the graph's condensation cannot be a single block
    sccs = oracles.kosaraju_sccs(
        n, [(u, v) for u in range(n) for v in range(n)
            if np.isfinite(C[u, v])])
    assert len(sccs) >= k


def test_generator_argument_validation():
    with pytest.raises(ValueError):
        gen_random(1, seed=0)
    with pytest.raises(ValueError):
        gen_random(5, seed=0, clusters=0)
    with pytest.raises(ValueError):
        gen_random(5, seed=0, clusters=9)
