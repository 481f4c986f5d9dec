"""TSPLIB95 instance reader and the circuit-to-path transformation.

Reads TYPE TSP and ATSP files, and files without a TYPE: EXPLICIT weights
in FULL_MATRIX, UPPER_ROW, LOWER_ROW, UPPER_DIAG_ROW and LOWER_DIAG_ROW
layout, and coordinate instances with EUC_2D, CEIL_2D, ATT and GEO metrics,
computed exactly as the format documentation prescribes; each metric is
symmetric, so each unordered pair is computed once and mirrored, and GEO
converts each node's coordinates to radians once.  Each coordinate
line is `id x y`, placed by its id, which must name each of the nodes
1..DIMENSION once; DISPLAY_DATA_SECTION lines must hold three numbers too
and are dropped.  Every number must be finite.  Any other type, key or
section is an error, and so is a key or section given twice; only COMMENT
may repeat.  Blank lines are skipped.  The diagonal is always forbidden no
matter what the file stores there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

INF = float("inf")

# the specification keys of TSPLIB95; those not used here are ignored
_KEYS = ("NAME", "TYPE", "COMMENT", "DIMENSION", "CAPACITY",
         "EDGE_WEIGHT_TYPE", "EDGE_WEIGHT_FORMAT", "EDGE_DATA_FORMAT",
         "NODE_COORD_TYPE", "DISPLAY_DATA_TYPE")
_SECTIONS = ("NODE_COORD_SECTION", "EDGE_WEIGHT_SECTION",
             "DISPLAY_DATA_SECTION")


class ParseError(ValueError):
    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass
class Instance:
    name: str
    dimension: int
    matrix: np.ndarray          # float64, diagonal inf
    edge_weight_type: str = "EXPLICIT"
    problem_type: str = ""
    comment: str = ""
    coords: list = field(default_factory=list)


def _nint(x):
    return int(x + 0.5)


def _euc_2d(a, b):
    return _nint(math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2))


def _ceil_2d(a, b):
    return int(math.ceil(math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2)))


def _att(a, b):
    r = math.sqrt(((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) / 10.0)
    t = _nint(r)
    return t + 1 if t < r else t


def _geo_radians(x):
    # degrees are truncated toward zero, not rounded; this matters for
    # negative longitudes and is what the reference distance code does
    deg = math.trunc(x)
    m = x - deg
    return 3.141592 * (deg + 5.0 * m / 3.0) / 180.0


def _geo(a, b):
    # a and b are (latitude, longitude) already in radians
    rrr = 6378.388
    lat1, lon1 = a
    lat2, lon2 = b
    q1 = math.cos(lon1 - lon2)
    q2 = math.cos(lat1 - lat2)
    q3 = math.cos(lat1 + lat2)
    return int(rrr * math.acos(0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3)) + 1.0)


_METRICS = {"EUC_2D": _euc_2d, "CEIL_2D": _ceil_2d, "ATT": _att, "GEO": _geo}


def _metric_matrix(metric, points):
    """The distance matrix of points, each pair computed once and
    mirrored, with an infinite diagonal."""
    dim = len(points)
    rows = [[INF] * dim for _ in range(dim)]
    for a in range(dim):
        pa, row = points[a], rows[a]
        for b in range(a + 1, dim):
            row[b] = rows[b][a] = metric(pa, points[b])
    return np.array(rows, dtype=float)


# the cells each triangular layout's weights fill, in file order, each
# weight mirrored across the diagonal; a full matrix is only reshaped
_CELLS = {
    "FULL_MATRIX": None,
    "UPPER_ROW": lambda n: np.triu_indices(n, 1),
    "LOWER_ROW": lambda n: np.tril_indices(n, -1),
    "UPPER_DIAG_ROW": np.triu_indices,
    "LOWER_DIAG_ROW": np.tril_indices,
}


def parse_tsplib(source):
    """Parse a TSPLIB file from a path, an open file, or '-' for stdin."""
    if hasattr(source, "read"):
        text = source.read()
    elif source == "-":
        text = sys.stdin.read()
    else:
        with open(source) as fh:
            text = fh.read()

    header = {}     # KEY -> value
    sections = {}   # NAME_SECTION -> (line number, [(line number, tokens)])
    body = None     # the body of the section being read, if any
    for lineno, line in enumerate(text.splitlines(), 1):
        raw = line.strip()
        if not raw:
            continue
        if raw == "EOF":
            break
        key, colon, value = raw.partition(":")
        key, value = key.strip().upper(), value.strip()
        if key.endswith("_SECTION"):
            if key not in _SECTIONS:
                raise ParseError(lineno, f"unsupported section {key!r}")
            if key in sections:
                raise ParseError(lineno, f"{key} given twice")
            body = []
            sections[key] = lineno, body
        elif colon:
            if key not in _KEYS:
                raise ParseError(lineno, f"unknown key {key!r}")
            if key == "TYPE" and value.upper() not in ("TSP", "ATSP"):
                raise ParseError(lineno, f"unsupported TYPE {value!r}")
            if key == "COMMENT" and key in header:
                value = header[key] + "\n" + value   # a file may repeat it
            elif key in header:
                raise ParseError(lineno, f"{key} given twice")
            header[key] = value
            body = None
        elif body is not None:
            body.append((lineno, raw.split()))
        else:
            raise ParseError(lineno, f"expected 'KEY : value', got {raw!r}")

    try:
        dim = int(header["DIMENSION"])
    except KeyError:
        raise ParseError(0, "missing DIMENSION")
    except ValueError:
        raise ParseError(0, f"bad DIMENSION {header['DIMENSION']!r}")
    if dim < 2:
        raise ParseError(0, f"dimension {dim} too small")
    # the type first: an EUC_3D file would fail the coordinate width
    ewt = header.get("EDGE_WEIGHT_TYPE", "EXPLICIT").upper()
    if ewt != "EXPLICIT" and ewt not in _METRICS:
        raise ParseError(0, f"unsupported EDGE_WEIGHT_TYPE {ewt!r}")
    if "DISPLAY_DATA_SECTION" in sections:
        _numbers(sections["DISPLAY_DATA_SECTION"][1], 3)
    coords = (_place_coords(*sections["NODE_COORD_SECTION"], dim)
              if "NODE_COORD_SECTION" in sections else [])

    if ewt == "EXPLICIT":
        fmt = header.get("EDGE_WEIGHT_FORMAT", "FULL_MATRIX").upper()
        if fmt not in _CELLS:
            raise ParseError(0, f"unsupported EDGE_WEIGHT_FORMAT {fmt!r}")
        if "EDGE_WEIGHT_SECTION" not in sections:
            raise ParseError(0, "missing EDGE_WEIGHT_SECTION")
        at, body = sections["EDGE_WEIGHT_SECTION"]
        nums = np.array(_numbers(body))
        # count before building the cells, which take dim² memory
        need = (dim * dim if fmt == "FULL_MATRIX" else
                dim * (dim + 1) // 2 if "DIAG" in fmt else dim * (dim - 1) // 2)
        if len(nums) != need:
            raise ParseError(at, f"{fmt} needs {need} weights, got {len(nums)}")
        if _CELLS[fmt] is None:
            M = nums.reshape(dim, dim)
        else:
            rows, cols = _CELLS[fmt](dim)
            M = np.zeros((dim, dim))
            M[rows, cols] = M[cols, rows] = nums
    elif not coords:
        raise ParseError(0, "missing NODE_COORD_SECTION")
    else:
        points = coords
        if ewt == "GEO":
            points = [(_geo_radians(x), _geo_radians(y)) for x, y in coords]
        M = _metric_matrix(_METRICS[ewt], points)

    np.fill_diagonal(M, INF)
    return Instance(
        name=header.get("NAME", ""),
        dimension=dim,
        matrix=M,
        edge_weight_type=ewt,
        problem_type=header.get("TYPE", "").upper(),
        comment=header.get("COMMENT", ""),
        coords=coords,
    )


def _numbers(body, width=0):
    """The numbers of a section body of (line number, tokens) lines, in
    order; with a width, each line must hold exactly that many.  float()
    also reads nan and inf, which no field of the format can mean."""
    nums = []
    for lineno, tokens in body:
        if width and len(tokens) != width:
            raise ParseError(lineno, f"expected {width} numbers, got "
                             f"{' '.join(tokens)!r}")
        try:
            nums.extend(map(float, tokens))
        except ValueError:
            raise ParseError(lineno, f"bad number in {' '.join(tokens)!r}")
    # one check over the section; only a failure looks for its line
    if not all(map(math.isfinite, nums)):
        lineno, tokens = next(
            (lineno, tokens) for lineno, tokens in body
            if not all(map(math.isfinite, map(float, tokens))))
        raise ParseError(lineno, f"non-finite number in {' '.join(tokens)!r}")
    return nums


def _place_coords(at, body, dim):
    """The coordinates in node order, each line placed by its node id;
    at is the section's line number, for a node that has no line.  Ids
    are collected in a dict, so a DIMENSION far beyond the section's
    length costs no memory before it is rejected."""
    placed = {}
    nums = _numbers(body, 3)
    for (lineno, tokens), xy in zip(body, zip(nums[1::3], nums[2::3])):
        try:
            node = int(tokens[0])
        except ValueError:
            raise ParseError(lineno, f"node id {tokens[0]!r} is not an "
                             "integer")
        if not 1 <= node <= dim:
            raise ParseError(lineno, f"node id {node} outside 1..{dim}")
        if node in placed:
            raise ParseError(lineno, f"node {node} listed twice")
        placed[node] = xy
    if len(placed) < dim:
        # the first missing id is at most one past the section's length
        node = next(k for k in range(1, dim + 1) if k not in placed)
        raise ParseError(at, f"node {node} has no coordinates")
    return [placed[k] for k in range(1, dim + 1)]


def circuit_to_path(C, home=0):
    """Turn a circuit instance into a fixed-endpoints path instance.

    A fresh node takes over the arcs into home, so every tour through home
    corresponds to one path from home to the new node of the same cost.
    Returns (matrix, s, e) with s = home and e = the added node.
    """
    C = np.asarray(C, dtype=float)
    n = C.shape[0]
    if not (0 <= home < n):
        raise ValueError(f"home {home} out of range")
    M = np.full((n + 1, n + 1), INF)
    M[:n, :n] = C
    M[:n, n] = C[:n, home]      # arcs into home now end at the new node
    M[:n, home] = INF
    np.fill_diagonal(M, INF)
    M[n, :] = INF
    return M, home, n
