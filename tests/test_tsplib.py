"""Instance reader tests: explicit layouts, coordinate metrics, the
circuit-to-path transformation, and the vendored instance files."""

import io
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hampath.oracle import dp_oracle
from hampath.tsplib import ParseError, circuit_to_path, parse_tsplib

import oracles

INF = float("inf")
INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def parse_text(text):
    return parse_tsplib(io.StringIO(text))


def explicit(fmt, body, dim=4, extra=""):
    return (f"NAME : layout\nTYPE : TSP\nDIMENSION : {dim}\n"
            f"EDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : {fmt}\n"
            f"{extra}EDGE_WEIGHT_SECTION\n{body}\nEOF\n")


# pairwise costs 0-1:1 0-2:2 0-3:3 1-2:4 1-3:5 2-3:6 in every layout
LAYOUTS = {
    "FULL_MATRIX": "0 1 2 3\n1 0 4 5\n2 4 0 6\n3 5 6 0",
    "UPPER_ROW": "1 2 3\n4 5\n6",
    "LOWER_ROW": "1\n2 4\n3 5 6",
    "UPPER_DIAG_ROW": "0 1 2 3\n0 4 5\n0 6\n0",
    "LOWER_DIAG_ROW": "0\n1 0\n2 4 0\n3 5 6 0",
}


def test_every_explicit_layout_gives_the_same_matrix():
    want = np.array([[INF, 1, 2, 3],
                     [1, INF, 4, 5],
                     [2, 4, INF, 6],
                     [3, 5, 6, INF]], dtype=float)
    for fmt, body in LAYOUTS.items():
        inst = parse_text(explicit(fmt, body))
        assert inst.dimension == 4
        assert np.array_equal(inst.matrix, want), fmt


def test_stored_diagonal_is_overridden():
    body = "9 1 2 3\n1 9 4 5\n2 4 9 6\n3 5 6 9"
    inst = parse_text(explicit("FULL_MATRIX", body))
    assert np.all(np.isinf(np.diag(inst.matrix)))


def test_weight_section_split_across_odd_line_breaks():
    inst = parse_text(explicit("UPPER_ROW", "1 2\n3 4\n5 6"))
    assert inst.matrix[0, 3] == 3 and inst.matrix[2, 3] == 6


def coord_instance(ewt, pts):
    lines = "\n".join(f"{i + 1} {x} {y}" for i, (x, y) in enumerate(pts))
    return (f"NAME : metric\nTYPE : TSP\nDIMENSION : {len(pts)}\n"
            f"EDGE_WEIGHT_TYPE : {ewt}\nNODE_COORD_SECTION\n{lines}\nEOF\n")


def test_euclidean_rounds_to_nearest():
    inst = parse_text(coord_instance("EUC_2D", [(0, 0), (3, 4), (1, 1)]))
    assert inst.matrix[0, 1] == 5
    assert inst.matrix[0, 2] == 1      # sqrt(2) rounds down
    assert inst.matrix[1, 2] == 4      # sqrt(13) = 3.606 rounds up


def test_ceiling_metric_rounds_up():
    inst = parse_text(coord_instance("CEIL_2D", [(0, 0), (3, 4), (1, 1)]))
    assert inst.matrix[0, 1] == 5
    assert inst.matrix[0, 2] == 2


def test_pseudo_euclidean_rounds_half_up():
    inst = parse_text(coord_instance("ATT", [(0, 0), (3, 4), (1, 1)]))
    # r = sqrt(25/10) = 1.58: nearest is 2, already above r
    assert inst.matrix[0, 1] == 2
    # r = sqrt(2/10) = 0.447: nearest is 0, below r, so bump to 1
    assert inst.matrix[0, 2] == 1


def test_geographical_metric_truncates_degrees():
    inst = parse_text(coord_instance(
        "GEO", [(10.0, 20.0), (10.0, 21.0), (-5.75, -10.75), (6.25, 7.25)]))
    assert inst.matrix[0, 1] == 110
    # framing the minutes requires truncating toward zero; rounding the
    # degree part would give 2406 here
    assert inst.matrix[2, 3] == 2508
    assert np.array_equal(inst.matrix, inst.matrix.T)


@pytest.mark.parametrize("name", sorted(p.name for p in INSTANCES.iterdir()))
def test_vendored_matrix_matches_the_pairwise_reference(name):
    path = INSTANCES / name
    M = parse_tsplib(str(path)).matrix
    assert M.dtype == np.float64
    assert np.array_equal(M, oracles.tsplib_matrix(path.read_text()))


@pytest.mark.parametrize("ewt", ["EUC_2D", "CEIL_2D", "ATT", "GEO"])
def test_coordinate_matrix_matches_the_pairwise_reference(ewt):
    # each unordered pair is computed once and mirrored, which must give
    # what evaluating both orders gives; GEO reads degrees.minutes of
    # either sign, and the others get negative fractional coordinates
    rng = random.Random(ewt)
    for n in (2, 3, 11, 26):
        if ewt == "GEO":
            pts = [(round(rng.uniform(-89.5, 89.5), 2),
                    round(rng.uniform(-179.5, 179.5), 2)) for _ in range(n)]
        else:
            pts = [(round(rng.uniform(-3000, 3000), 3),
                    round(rng.uniform(-3000, 3000), 3)) for _ in range(n)]
        text = coord_instance(ewt, pts)
        M = parse_text(text).matrix
        assert np.array_equal(M, oracles.tsplib_matrix(text)), n


def coord_lines(ewt, dim, lines):
    return (f"NAME : ids\nTYPE : TSP\nDIMENSION : {dim}\n"
            f"EDGE_WEIGHT_TYPE : {ewt}\nNODE_COORD_SECTION\n{lines}\nEOF\n")


def test_coordinates_are_placed_by_node_id():
    # the same three points listed out of order give the same matrix
    pts = [(0, 0), (3, 4), (1, 1)]
    want = parse_text(coord_instance("EUC_2D", pts))
    inst = parse_text(coord_lines("EUC_2D", 3, "2 3 4\n3 1 1\n1 0 0"))
    assert inst.coords == [(0, 0), (3, 4), (1, 1)]
    assert np.array_equal(inst.matrix, want.matrix)
    assert inst.matrix[0, 1] == 5 and inst.matrix[1, 2] == 4


@pytest.mark.parametrize("lines, lineno, message", [
    ("1 0 0\n1 1 1\n3 2 2", 7, "node 1 listed twice"),
    ("1 0 0\n2 1 1\n4 2 2", 8, "node id 4 outside 1..3"),
    ("0 0 0\n2 1 1\n3 2 2", 6, "node id 0 outside 1..3"),
    ("1 0 0\n2.5 1 1\n3 2 2", 7, "node id '2.5' is not an integer"),
    ("1 0 0\n3 2 2", 5, "node 2 has no coordinates"),
])
def test_bad_coordinate_ids_name_their_line(lines, lineno, message):
    with pytest.raises(ParseError, match=message) as err:
        parse_text(coord_lines("EUC_2D", 3, lines))
    assert err.value.lineno == lineno


def test_dimension_beyond_the_coordinates_costs_no_memory():
    # placing by id must not reserve DIMENSION slots before it finds the
    # section too short
    text = coord_lines("EUC_2D", 10_000_000, "1 0 0\n2 1 1")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="node 3 has no coordinates") \
                as err:
            parse_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.lineno == 5
    assert peak < 1 << 20, peak


def test_blank_line_inside_coordinates_is_skipped():
    want = parse_text(coord_lines("EUC_2D", 3, "1 0 0\n2 3 4\n3 1 1"))
    inst = parse_text(coord_lines("EUC_2D", 3, "1 0 0\n\n2 3 4\n3 1 1"))
    assert np.array_equal(inst.matrix, want.matrix)


def test_repeated_comment_lines_are_joined():
    inst = parse_text(explicit("UPPER_ROW", LAYOUTS["UPPER_ROW"],
                               extra="COMMENT : first\nCOMMENT : second\n"))
    assert inst.comment == "first\nsecond"


# a two-node ATSP, lines 1-7, and malformed variants of it
TWO = ("NAME : two\nTYPE : ATSP\nDIMENSION : 2\n"
       "EDGE_WEIGHT_FORMAT : FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 1\n1 0\n")
MALFORMED = [pytest.param(*case, id=name) for name, *case in (
    ("coords-key",
     TWO.replace("EDGE_WEIGHT_SECTION", "_COORDS : 7\nEDGE_WEIGHT_SECTION"),
     5, "unknown key '_COORDS'"),
    ("weights-key", TWO + "_WEIGHTS : 1234\n", 8, "unknown key '_WEIGHTS'"),
    ("key-twice", TWO.replace("DIMENSION : 2", "DIMENSION : 3\nDIMENSION : 2"),
     4, "DIMENSION given twice"),
    ("section-twice", TWO + "EDGE_WEIGHT_SECTION\n0 5\n5 0\n", 8,
     "EDGE_WEIGHT_SECTION given twice"),
    ("bad-weight", TWO.replace("1 0\n", "2 x\n"), 7, "bad number in '2 x'"),
    ("coord-4-tokens", coord_lines("EUC_2D", 3, "1 0 0\n2 3 4 5\n3 1 1"), 7,
     "expected 3 numbers, got '2 3 4 5'"),
    ("display-4-tokens", TWO + "DISPLAY_DATA_SECTION\n1 0 0\n2 5 5 5\n", 10,
     "expected 3 numbers, got '2 5 5 5'"),
    ("fixed-edges", TWO + "FIXED_EDGES_SECTION\n1 2\n-1\n", 8,
     "unsupported section 'FIXED_EDGES_SECTION'"),
    ("cvrp", TWO.replace("ATSP", "CVRP") + "DEMAND_SECTION\n1 0\n2 1\n", 2,
     "unsupported TYPE 'CVRP'"),
    ("hcp", TWO.replace("ATSP", "HCP"), 2, "unsupported TYPE 'HCP'"),
    ("tour", TWO.replace("ATSP", "TOUR"), 2, "unsupported TYPE 'TOUR'"),
    # float() reads these, but no weight or coordinate can mean them
    ("inf-weight", TWO.replace("0 1\n", "0 inf\n"), 6,
     "non-finite number in '0 inf'"),
    ("nan-coord", coord_lines("EUC_2D", 3, "1 0 0\n2 nan 4\n3 1 1"), 7,
     "non-finite number in '2 nan 4'"),
    ("infinity-display", TWO + "DISPLAY_DATA_SECTION\n1 0 -Infinity\n", 9,
     "non-finite number in '1 0 -Infinity'"),
)]


@pytest.mark.parametrize("text, lineno, message", MALFORMED)
def test_malformed_input_names_its_line(text, lineno, message):
    with pytest.raises(ParseError, match=message) as err:
        parse_text(text + "EOF\n")
    assert err.value.lineno == lineno


def test_header_spacing_and_file_object_inputs():
    text = ("NAME:tight\nTYPE:TSP\nDIMENSION:3\n"
            "EDGE_WEIGHT_TYPE:EXPLICIT\nEDGE_WEIGHT_FORMAT:FULL_MATRIX\n"
            "EDGE_WEIGHT_SECTION\n0 1 2\n1 0 3\n2 3 0\nEOF\n")
    inst = parse_text(text)
    assert inst.name == "tight" and inst.matrix[1, 2] == 3


def test_parse_from_path(tmp_path):
    p = tmp_path / "t.tsp"
    p.write_text(explicit("UPPER_ROW", LAYOUTS["UPPER_ROW"]))
    inst = parse_tsplib(str(p))
    assert inst.matrix[1, 3] == 5


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_text("NAME : x\nEDGE_WEIGHT_SECTION\n0 1\n1 0\nEOF\n")  # no DIMENSION
    with pytest.raises(ParseError):
        parse_text(explicit("FULL_MATRIX", "0 1 2 3\n1 0 4 5"))       # short
    with pytest.raises(ParseError):
        parse_text(explicit("SPIRAL", LAYOUTS["FULL_MATRIX"]))
    with pytest.raises(ParseError):
        parse_text("DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nEOF\n")  # no coords
    short = coord_instance("EUC_2D", [(0, 0), (1, 1)])
    with pytest.raises(ParseError):
        parse_text(short.replace("DIMENSION : 2", "DIMENSION : 9"))
    # the weight type is checked before the coordinates are read
    with pytest.raises(ParseError, match="unsupported EDGE_WEIGHT_TYPE"):
        parse_text(coord_lines("EUC_3D", 2, "1 0 0 0\n2 1 1 1"))
    assert issubclass(ParseError, ValueError)


def test_circuit_to_path_shape():
    C = np.array([[INF, 5, 9],
                  [1, INF, 2],
                  [7, 3, INF]])
    M, s, e = circuit_to_path(C, home=0)
    assert (s, e) == (0, 3)
    assert M.shape == (4, 4)
    # arcs into home moved onto the new end node, home lost its in-arcs
    assert M[1, 3] == 1 and M[2, 3] == 7
    assert np.all(np.isinf(M[:, 0])) and np.all(np.isinf(M[3, :]))
    with pytest.raises(ValueError):
        circuit_to_path(C, home=5)


def test_circuit_to_path_preserves_tour_costs():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(3, 7))
        C = rng.integers(1, 50, size=(n, n)).astype(float)
        np.fill_diagonal(C, INF)
        for home in range(n):
            want = oracles.min_ham_circuit(n, lambda u, v: C[u, v])
            M, s, e = circuit_to_path(C, home)
            got, path = dp_oracle(M, s, e)
            assert got == want
            assert path[0] == home and path[-1] == n


def test_vendored_instances_checksums():
    br = parse_tsplib("instances/br17.atsp")
    assert (br.name, br.dimension, br.problem_type) == ("br17", 17, "ATSP")
    off = ~np.eye(17, dtype=bool)
    assert int(br.matrix[off].sum()) == 3952
    assert int(br.matrix[off].max()) == 74

    gr = parse_tsplib("instances/gr17.tsp")
    assert int(gr.matrix[~np.eye(17, dtype=bool)].sum()) == 74692

    ul = parse_tsplib("instances/ulysses16.tsp")
    assert int(ul.matrix[~np.eye(16, dtype=bool)].sum()) == 195424


def test_documented_optima_of_vendored_instances():
    # three circuit optima quoted with the benchmark set, checked through
    # the transformation and the exact solver
    for fname, opt in (("instances/br17.atsp", 39),
                       ("instances/gr17.tsp", 2085),
                       ("instances/ulysses16.tsp", 6859)):
        inst = parse_tsplib(fname)
        M, s, e = circuit_to_path(inst.matrix, 0)
        cost, _ = dp_oracle(M, s, e)
        assert cost == opt, fname
