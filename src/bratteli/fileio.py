"""Readers and writers for the JSON file formats.

Diagram files carry the graded graph plus optional walk data: per-edge "p"
(rational as 'num/den' or integer), per-edge "rho" (group element: integer,
integer array, or 'num/den' string), and a top-level "nu0" map.  Inclusion
graph files are the same format restricted to a single floor, plus an "X"
object mapping points to vertices of level 0.  Structural problems
with a file raise FileFormatError (a parse failure); values that parse but
violate a domain invariant surface later as BratteliError.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from json.decoder import scanstring
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from .diagram import BratteliDiagram, CylinderTable, _require_labels
from .errors import FileFormatError, IncompatibleData, InvalidDiagram
from .rational import as_fraction, format_fraction

if TYPE_CHECKING:  # each reader and writer imports the module that builds its objects
    from .fdalg import AlgebraElement, FiniteEquivRelation, InclusionGraph
    from .walk import EdgePotential, RandomWalk


def _load_json(source, what: str) -> dict:
    """The JSON object of ``source``, a path or already-decoded JSON; a
    FileFormatError names the ``what`` file when it holds no object."""
    data = source
    if not isinstance(source, (dict, list)):
        try:
            data = json.loads(Path(source).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
        except json.JSONDecodeError:
            raise
        except (ValueError, RecursionError, FileFormatError) as exc:
            # ValueError covers non-UTF-8 text and integer literals too long to convert
            raise FileFormatError(f"{source}: {exc}") from None
    if not isinstance(data, dict):
        raise FileFormatError(f"{what} file must be a JSON object")
    return data


def _unique_keys(pairs) -> dict:
    """A JSON object's members as a dict; a repeated key is a parse error."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        key = next(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise FileFormatError(f"repeated key {key!r} in a JSON object")
    return obj


def _rational(raw, where: str) -> Fraction:
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise FileFormatError(
            f"{where}: rationals must be 'num/den' strings or integers, got {raw!r}"
        )
    try:
        return as_fraction(raw)
    except IncompatibleData as exc:
        raise FileFormatError(f"{where}: {exc}") from None


def _string(raw, where: str) -> str:
    if not isinstance(raw, str):
        raise FileFormatError(f"{where}: expected a string, got {raw!r}")
    return raw


@dataclass
class DiagramFile:
    """Parsed diagram file: the graph plus whatever walk data was present."""

    diagram: BratteliDiagram
    p_levels: list | None
    nu0: dict | None
    rho_levels: list | None


def load_diagram(source) -> DiagramFile:
    """Parse a diagram file (path, or an already-decoded JSON object)."""
    data = _load_json(source, "diagram")
    if "vertices" not in data or "edges" not in data:
        raise FileFormatError("diagram file needs 'vertices' and 'edges'")
    raw_vertices = data["vertices"]
    raw_edges = data["edges"]
    if not isinstance(raw_vertices, list) or not all(isinstance(l, list) for l in raw_vertices):
        raise FileFormatError("'vertices' must be an array of arrays of strings")
    vertices = [level if set(map(type, level)) <= {str} else [_string(v, f"vertices level {n}") for v in level]
                for n, level in enumerate(raw_vertices)]  # one exact-type test a level, then id by id
    if not isinstance(raw_edges, list) or not all(isinstance(l, list) for l in raw_edges):
        raise FileFormatError("'edges' must be an array of arrays of edge records")
    edges, p_levels, rho_levels = [], [], []
    records = has_p = has_rho = 0
    p_values: dict = {}  # each distinct 'p' text is parsed once
    for m, level in enumerate(raw_edges):
        row, p_row, rho_row = [], {}, {}
        records += len(level)
        for rec in level:
            try:  # a record of three strings passes at once; any other is checked field by field
                edge = eid, src, rng = rec["id"], rec["src"], rec["rng"]
            except (TypeError, KeyError):
                edge = None
            if edge is None or type(rec) is not dict or not type(eid) is type(src) is type(rng) is str:
                if not isinstance(rec, dict):
                    raise FileFormatError(f"edge level {m + 1}: records must be objects, got {rec!r}")
                for key in ("id", "src", "rng"):
                    if key not in rec:
                        raise FileFormatError(f"edge level {m + 1}: record lacks '{key}': {rec!r}")
                eid = _string(rec["id"], f"edge level {m + 1}")
                edge = eid, _string(rec["src"], eid), _string(rec["rng"], eid)
            row.append(edge)
            if "p" in rec:
                has_p += 1
                raw = rec["p"]
                if type(raw) is not str or raw not in p_values:
                    p_values[raw] = _rational(raw, f"edge '{eid}' field 'p'")
                p_row[eid] = p_values[raw]
            if "rho" in rec:
                has_rho += 1
                rho_row[eid] = rec["rho"]
        edges.append(row)
        p_levels.append(p_row)
        rho_levels.append(rho_row)
    if has_p and has_p != records:
        raise FileFormatError("some edges carry 'p' and some do not; supply all or none")
    if has_rho and has_rho != records:
        raise FileFormatError("some edges carry 'rho' and some do not; supply all or none")
    nu0 = None
    if "nu0" in data:
        if not isinstance(data["nu0"], dict):
            raise FileFormatError("'nu0' must be an object mapping vertices to rationals")
        nu0 = {
            _string(v, "nu0"): _rational(x, f"nu0['{v}']") for v, x in data["nu0"].items()
        }
    try:
        diagram = BratteliDiagram(vertices, edges)
    except InvalidDiagram as exc:
        # level counts that cannot even form a diagram are a file problem
        raise FileFormatError(str(exc)) from None
    return DiagramFile(
        diagram=diagram,
        p_levels=p_levels if has_p else None,
        nu0=nu0,
        rho_levels=rho_levels if has_rho else None,
    )


def walk_from_file(df: DiagramFile) -> RandomWalk:
    from .walk import build_walk

    if df.p_levels is None:
        raise IncompatibleData("diagram file carries no 'p' fields; cannot build a walk")
    if df.nu0 is None:
        raise IncompatibleData("diagram file carries no 'nu0' map; cannot build a walk")
    return build_walk(df.diagram, df.p_levels, df.nu0)


def potential_from_file(df: DiagramFile) -> EdgePotential:
    """Build the edge potential, inferring the group from the 'rho' values.

    Integer scalars or equal-length integer arrays mean a lattice; 'num/den'
    strings mean the positive rationals under multiplication.
    """
    from .skew import ZLattice
    from .walk import EdgePotential, MultiplicativeRationals

    if df.rho_levels is None:
        raise IncompatibleData("diagram file carries no 'rho' fields; cannot build a potential")
    kinds = set()
    ranks = set()
    for row in df.rho_levels:
        for value in row.values():
            if isinstance(value, bool):
                raise FileFormatError(f"'rho' value {value!r} is not a group element")
            if isinstance(value, int):
                kinds.add("lattice")
                ranks.add(1)
            elif isinstance(value, list):
                if not all(isinstance(x, int) and not isinstance(x, bool) for x in value):
                    raise FileFormatError(f"'rho' array {value!r} must hold integers")
                kinds.add("lattice")
                ranks.add(len(value))
            elif isinstance(value, str):
                kinds.add("rational")
            else:
                raise FileFormatError(f"'rho' value {value!r} is not a group element")
    if kinds == {"lattice"}:
        if len(ranks) != 1:
            raise FileFormatError(f"'rho' arrays mix ranks {sorted(ranks)}")
        group = ZLattice(ranks.pop())
    elif kinds == {"rational"}:
        group = MultiplicativeRationals()
    else:
        raise FileFormatError("'rho' values mix lattice and rational group elements")
    parsed: dict = {}  # each distinct value is parsed once, and its element shared

    def parse(raw):
        # 1, True and [1] are equal or hash alike: the key carries the type
        key = (type(raw), tuple(raw) if type(raw) is list else raw)
        if key not in parsed:
            parsed[key] = group.parse(raw)
        return parsed[key]

    return EdgePotential(df.diagram, group, df.rho_levels, parse=parse)


CHUNK = 1 << 16  # characters of a measure table file read at a time

# a table file's pieces, compiled on first use: white space, a JSON string
# (group: its text, escapes not decoded), the top object's '{', the ',' or '}'
# after a section, a section ("key": '{') or '}', a mass ("key": a 'digits' or
# 'digits/digits' string with a nonzero denominator, any other string or an
# integer, and ',' or '}') or '}'
_WS, _STR = r"[ \t\n\r]*", r'"([^"\\\x00-\x1f]*(?:\\.[^"\\\x00-\x1f]*)*)"'
_PIECES = (_WS + r"\{", _WS + "([,}])", _WS + r"(?:(\})|" + _STR + _WS + ":" + _WS + r"\{)",
           _WS + r"(?:(\})|" + _STR + _WS + ":" + _WS + r'(?:"([0-9]+)(?:/(0*[1-9][0-9]*))?"|' + _STR
           + "|(-?(?:0|[1-9][0-9]*)))" + _WS + "([,}]))")


def _streamed_members(f):
    """(section, key, value, mass) per member of the 'empty' and 'paths'
    objects of a table file, in file order, read CHUNK characters at a time:
    mass is the (numerator, denominator) of an integer or a plain 'digits/digits'
    or 'digits' string, read by int(), else None.  A FileFormatError where the
    text is anything else."""
    text, at = "", 0
    opening, after, section_re, mass_re = map(re.compile, _PIECES)

    def takes(pattern):  # matches back to back from at (anchored: a search past a fault is quadratic in spaces)
        nonlocal text, at
        while True:
            while m := pattern.match(text, at):
                at = m.end()
                yield m
            chunk = f.read(max(CHUNK, len(text) - at))  # at least double what is held
            if not chunk:
                raise FileFormatError("not a table file of 'empty' and 'paths' objects")
            text, at = text[at:] + chunk, 0

    def string(m, group):
        return m[group] if "\\" not in m[group] else scanstring(m.string, m.start(group))[0]

    next(takes(opening))
    seen, sep = set(), "{"
    while sep != "}":
        m = next(takes(section_re))
        if m[1] and sep == "{":  # '}' may close '{', not follow ','
            break
        section = None if m[1] else string(m, 2)
        if section not in ("empty", "paths") or section in seen:
            raise FileFormatError(f"unexpected member {section!r} in a table file")
        seen.add(section)
        for i, m in enumerate(takes(mass_re)):
            close, key, num, den, value, number, inner = m.groups()
            if close:  # '}' may close '{', not follow ','
                if i:
                    raise FileFormatError("'}' after ',' in a table file")
                break
            if "\\" in m[0]:  # an escape in the key or the value
                key, value = string(m, 2), value and string(m, 5)
            yield section, key, value, (int(num), int(den or 1)) if num else (int(number), 1) if number else None
            if inner == "}":
                break
        sep = next(takes(after))[1]
    if (text[at:] + f.read()).strip(" \t\n\r"):
        raise FileFormatError("extra data after a table file's object")


def _decoded_members(data: dict):
    """(section, key, value, None) per member of a decoded table: 'empty', then 'paths'."""
    for stray in (key for key in data if key not in ("empty", "paths")):
        raise FileFormatError(f"unexpected member {stray!r} in a table file")
    for section, what in (("empty", "vertices"), ("paths", "edge lists")):
        members = data.get(section, {})
        if not isinstance(members, dict):
            raise FileFormatError(f"'{section}' must be an object mapping {what} to rationals")
        yield from ((section, _string(key, section), raw, None) for key, raw in members.items())


def _fill(table: CylinderTable, members) -> tuple[CylinderTable, int]:
    """Give each member's mass its slot of ``table``, the int pair the reader
    took or else the value as ``_rational`` reads it; the table and its depth."""
    d = table.diagram
    for section, key, raw, mass in members:
        slot = (0, d.vertex_index(0, key)) if section == "empty" else table.locate(key.split(","))
        if not table.put(slot, mass or _rational(raw, f"{section}['{key}']").as_integer_ratio()):
            raise FileFormatError(f"repeated key {key!r} in a JSON object")
    return table, table.depth


def load_measure_table(d: BratteliDiagram, source) -> tuple[CylinderTable, int]:
    """Read a cylinder table {'empty': {vertex: rat}, 'paths': {'e1,e2': rat}}.

    Returns the masses in a ``CylinderTable`` on ``d``, each an int pair in
    its slot of the path tree (a mass on a level with more paths than the file
    could hold is left out), and the depth, the longest path given; ``len``
    counts the entries.  Labels are checked in file order, as ``d.path`` checks
    them, one step from the last prefix; a comma in an edge id is refused first.

    A regular file is read CHUNK characters at a time, a chunk's members back
    to back, each mass put straight into its slot: no decoded JSON object,
    whole-file text or label dict is held.  A file that pass does not take (a
    JSON fault, a repeated key, another member than 'empty' and 'paths', a mass
    that is not a string or an integer, a fault in an entry) is decoded whole
    and read as a decoded ``source`` is: json's error, a stray member, then the
    first fault, 'empty' first."""
    _require_labels(d)
    if not isinstance(source, (dict, list)) and os.path.isfile(source):
        try:
            with open(source, encoding="utf-8") as f:
                # a member takes at least 4 characters, so the file holds at most size // 4
                return _fill(CylinderTable(d, os.fstat(f.fileno()).st_size // 4), _streamed_members(f))
        except ValueError:  # FileFormatError, BratteliError, a JSON or UTF-8 fault
            pass
    data = _load_json(source, "measure")
    limit = sum(len(data[s]) for s in ("empty", "paths") if isinstance(data.get(s), dict))
    return _fill(CylinderTable(d, limit), _decoded_members(data))


def load_terminal(source) -> dict:
    """Read terminal data {vertex: rational}."""
    data = _load_json(source, "terminal")
    return {_string(v, "terminal"): _rational(x, f"terminal['{v}']") for v, x in data.items()}


def load_inclusion_graph(source) -> tuple[InclusionGraph, dict | None]:
    """Read an inclusion graph: a single-floor diagram file plus an 'X' map."""
    from .fdalg import InclusionGraph

    data = _load_json(source, "inclusion graph")
    if "X" not in data or not isinstance(data["X"], dict):
        raise FileFormatError("inclusion graph file needs an 'X' object mapping points to vertices")
    df = load_diagram({k: v for k, v in data.items() if k in ("vertices", "edges")})
    d = df.diagram
    if d.depth != 1:
        raise FileFormatError(
            f"inclusion graph file must have exactly one edge level, got {d.depth}"
        )
    vertex_of = {_string(x, "X"): _string(v, f"X['{x}']") for x, v in data["X"].items()}
    graph = InclusionGraph(d, vertex_of)
    p = df.p_levels[0] if df.p_levels is not None else None
    return graph, p


def dump_element(elem: AlgebraElement) -> list:
    """Serialize as [x, y, 'num/den'] rows in the relation's pair order;
    IncompatibleData if an entry is not an int or a Fraction."""
    from .fdalg import _require_exact

    _require_exact([elem], "algebra element has non-exact entries; files hold exact 'num/den' values")
    return [[_point_out(x), _point_out(y), format_fraction(elem.entries[x, y])]
            for x, y in elem.relation.pairs() if (x, y) in elem.entries]


def load_element(rel: FiniteEquivRelation, data) -> AlgebraElement:
    """Deserialize [x, y, 'num/den'] rows (or integer values) onto the given relation."""
    from .fdalg import AlgebraElement

    if not isinstance(data, list):
        raise FileFormatError("algebra element must be an array of [x, y, 'num/den'] rows")
    entries = {}
    for rec in data:
        if not isinstance(rec, list) or len(rec) != 3:
            raise FileFormatError(f"algebra element row must be [x, y, 'num/den'], got {rec!r}")
        x, y, value = rec
        entries[(_point_in(x), _point_in(y))] = _rational(value, f"algebra element row {rec!r}")
    return AlgebraElement(rel, entries)


def _point_out(x):
    return list(x) if isinstance(x, tuple) else x


def _point_in(x):
    return tuple(x) if isinstance(x, list) else x


def dump_diagram(d: BratteliDiagram, p: Mapping | None = None, nu0: Mapping | None = None,
                 rho: Mapping | None = None) -> dict:
    """The JSON object for a diagram, optionally with walk and potential data.

    ``p`` and ``rho`` map (level, edge id) to values; nu0 maps vertex ids.
    """
    out: dict = {
        "vertices": [list(d.vertices(n)) for n in range(d.depth + 1)],
        "edges": [],
    }
    for n in range(1, d.depth + 1):
        row = []
        for e in d.edges(n):
            rec: dict = {"id": e.id, "src": e.src, "rng": e.rng}
            if p is not None:
                rec["p"] = format_fraction(p[(n, e.id)])
            if rho is not None:
                rec["rho"] = rho[(n, e.id)]
            row.append(rec)
        out["edges"].append(row)
    if nu0 is not None:
        out["nu0"] = {v: format_fraction(nu0[v]) for v in d.vertices(0)}
    return out
