"""TSPLIB95 instance reader and the circuit-to-path transformation.

Handles EXPLICIT weights in FULL_MATRIX, UPPER_ROW, LOWER_ROW,
UPPER_DIAG_ROW and LOWER_DIAG_ROW layout, and coordinate instances with
EUC_2D, CEIL_2D, ATT and GEO metrics, computed exactly as the format
documentation prescribes.  Each coordinate line is placed by its node id,
which must name each of the nodes 1..DIMENSION once.  The diagonal is
always forbidden no matter what the file stores there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

INF = float("inf")

_COORD_TYPES = ("EUC_2D", "CEIL_2D", "ATT", "GEO")
_EXPLICIT_FORMATS = ("FULL_MATRIX", "UPPER_ROW", "LOWER_ROW",
                     "UPPER_DIAG_ROW", "LOWER_DIAG_ROW")


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
    rrr = 6378.388
    lat1, lon1 = _geo_radians(a[0]), _geo_radians(a[1])
    lat2, lon2 = _geo_radians(b[0]), _geo_radians(b[1])
    q1 = math.cos(lon1 - lon2)
    q2 = math.cos(lat1 - lat2)
    q3 = math.cos(lat1 + lat2)
    return int(rrr * math.acos(0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3)) + 1.0)


_METRICS = {"EUC_2D": _euc_2d, "CEIL_2D": _ceil_2d, "ATT": _att, "GEO": _geo}


def parse_tsplib(source):
    """Parse a TSPLIB file from a path, an open file, or '-' for stdin."""
    if hasattr(source, "read"):
        text = source.read()
    elif source == "-":
        text = sys.stdin.read()
    else:
        with open(source) as fh:
            text = fh.read()
    lines = text.splitlines()

    header = {}
    i = 0
    section = None
    while i < len(lines):
        raw = lines[i].strip()
        i += 1
        if not raw:
            continue
        if raw == "EOF":
            break
        key = raw.split(":", 1)[0].strip().upper() if ":" in raw else raw.upper()
        if key.endswith("_SECTION"):
            section = key
            i = _read_section(section, lines, i, header)
            continue
        if ":" not in raw:
            raise ParseError(i, f"expected 'KEY : value', got {raw!r}")
        k, v = raw.split(":", 1)
        header[k.strip().upper()] = v.strip()

    try:
        dim = int(header["DIMENSION"])
    except KeyError:
        raise ParseError(0, "missing DIMENSION")
    except ValueError:
        raise ParseError(0, f"bad DIMENSION {header['DIMENSION']!r}")
    if dim < 2:
        raise ParseError(0, f"dimension {dim} too small")
    ewt = header.get("EDGE_WEIGHT_TYPE", "EXPLICIT").upper()

    coords = header.get("_COORDS")
    if coords is not None:
        coords = _place_coords(*coords, dim)
    if ewt in _COORD_TYPES:
        if coords is None:
            raise ParseError(0, "missing NODE_COORD_SECTION")
        metric = _METRICS[ewt]
        M = np.empty((dim, dim))
        for a in range(dim):
            for b in range(dim):
                M[a, b] = metric(coords[a], coords[b]) if a != b else INF
    elif ewt == "EXPLICIT":
        fmt = header.get("EDGE_WEIGHT_FORMAT", "FULL_MATRIX").upper()
        if fmt not in _EXPLICIT_FORMATS:
            raise ParseError(0, f"unsupported EDGE_WEIGHT_FORMAT {fmt!r}")
        nums = header.get("_WEIGHTS")
        if nums is None:
            raise ParseError(0, "missing EDGE_WEIGHT_SECTION")
        M = _fill_matrix(dim, fmt, nums)
    else:
        raise ParseError(0, f"unsupported EDGE_WEIGHT_TYPE {ewt!r}")

    np.fill_diagonal(M, INF)
    return Instance(
        name=header.get("NAME", ""),
        dimension=dim,
        matrix=M,
        edge_weight_type=ewt,
        problem_type=header.get("TYPE", "").upper(),
        comment=header.get("COMMENT", ""),
        coords=coords or [],
    )


def _read_section(section, lines, i, header):
    """Consume one section's body; returns the next line index."""
    if section == "NODE_COORD_SECTION" or section == "DISPLAY_DATA_SECTION":
        at = i          # the section's own line number
        entries = []    # (line number, node id, (x, y)) per line
        while i < len(lines):
            raw = lines[i].strip()
            if not raw or raw.split(":", 1)[0].strip().upper() in (
                    "EOF",) or _looks_like_header(raw):
                break
            parts = raw.split()
            if len(parts) < 3:
                raise ParseError(i + 1, f"bad coordinate line {raw!r}")
            try:
                node = int(parts[0])
            except ValueError:
                raise ParseError(i + 1, f"node id {parts[0]!r} is not an "
                                 "integer")
            try:
                entries.append((i + 1, node,
                                (float(parts[1]), float(parts[2]))))
            except ValueError:
                raise ParseError(i + 1, f"bad coordinate line {raw!r}")
            i += 1
        if section == "NODE_COORD_SECTION":
            header["_COORDS"] = at, entries
        return i
    if section == "EDGE_WEIGHT_SECTION":
        nums = []
        while i < len(lines):
            raw = lines[i].strip()
            if not raw:
                i += 1
                continue
            if raw == "EOF" or _looks_like_header(raw):
                break
            parts = raw.split()
            try:
                nums.extend(float(p) for p in parts)
            except ValueError:
                break
            i += 1
        header["_WEIGHTS"] = nums
        return i
    # an unknown section: skip numeric content
    while i < len(lines):
        raw = lines[i].strip()
        if raw == "EOF" or _looks_like_header(raw):
            break
        i += 1
    return i


def _place_coords(at, entries, dim):
    """The coordinates in node order, each line placed by its node id;
    at is the section's line number, for a node that has no line."""
    coords = [None] * dim
    for lineno, node, xy in entries:
        if not 1 <= node <= dim:
            raise ParseError(lineno, f"node id {node} outside 1..{dim}")
        if coords[node - 1] is not None:
            raise ParseError(lineno, f"node {node} listed twice")
        coords[node - 1] = xy
    if None in coords:
        raise ParseError(at, f"node {coords.index(None) + 1} has no "
                         "coordinates")
    return coords


def _looks_like_header(raw):
    head = raw.split(":", 1)[0].strip().upper()
    if head.endswith("_SECTION"):
        return True
    return ":" in raw and head.replace("_", "").isalpha()


def _fill_matrix(dim, fmt, nums):
    def need(k):
        if len(nums) != k:
            raise ParseError(0, f"{fmt} needs {k} weights, got {len(nums)}")

    M = np.zeros((dim, dim))
    it = iter(nums)
    if fmt == "FULL_MATRIX":
        need(dim * dim)
        M = np.array(nums, dtype=float).reshape(dim, dim)
    elif fmt == "UPPER_ROW":
        need(dim * (dim - 1) // 2)
        for a in range(dim):
            for b in range(a + 1, dim):
                M[a, b] = M[b, a] = next(it)
    elif fmt == "LOWER_ROW":
        need(dim * (dim - 1) // 2)
        for a in range(dim):
            for b in range(a):
                M[a, b] = M[b, a] = next(it)
    elif fmt == "UPPER_DIAG_ROW":
        need(dim * (dim + 1) // 2)
        for a in range(dim):
            for b in range(a, dim):
                M[a, b] = M[b, a] = next(it)
    elif fmt == "LOWER_DIAG_ROW":
        need(dim * (dim + 1) // 2)
        for a in range(dim):
            for b in range(a + 1):
                M[a, b] = M[b, a] = next(it)
    return M


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
