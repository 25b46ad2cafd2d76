"""Shared generators and oracles for the test suite.

Random objects are built from a caller-supplied random.Random so every test
is reproducible; oracles are deliberately naive (explicit enumeration, dense
linear algebra) and independent of the library's own shortcuts.
"""

import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import bratteli
from bratteli import (
    AlgebraElement,
    BratteliDiagram,
    CotransitionProbability,
    Edge,
    ExpectationReport,
    FileFormatError,
    FinitePath,
    HarmonicCheck,
    InclusionGraph,
    NotAMeasure,
    PathError,
    SupportViolation,
    IncompatibleData,
    Violation,
    WindowError,
    build_walk,
    count_paths,
    cylinder_measure,
    enumerate_paths,
    identity_element,
    matrix_unit,
    subdiagram,
)
from bratteli.diagram import _path_levels
from bratteli.errors import InvalidDiagram
from bratteli.fileio import DiagramFile, _load_json, _rational, _string
from bratteli.rational import as_fraction, long_ints, long_str


def random_diagram(rng, max_depth=6, max_vertices=4, max_out=3):
    """A random valid diagram: every vertex emits and receives edges, and no
    vertex emits more than ``max_out``."""
    depth = rng.randint(1, max_depth)
    sizes = [rng.randint(1, max_vertices)]
    for _ in range(depth):
        # reception needs at most max_out targets per source
        sizes.append(rng.randint(1, min(max_vertices, sizes[-1] * max_out)))
    vertices = [[f"v{n}_{i}" for i in range(size)] for n, size in enumerate(sizes)]
    edges = []
    for n in range(1, depth + 1):
        sources = vertices[n - 1]
        targets = vertices[n]
        degree = {v: 0 for v in sources}
        pairs = []
        for w in targets:  # cover reception first
            open_sources = [v for v in sources if degree[v] < max_out]
            v = rng.choice(open_sources)
            degree[v] += 1
            pairs.append((v, w))
        for v in sources:  # then emission
            if degree[v] == 0:
                degree[v] += 1
                pairs.append((v, rng.choice(targets)))
        for v in sources:  # then optional extras, multi-edges included
            while degree[v] < max_out and rng.random() < 0.35:
                degree[v] += 1
                pairs.append((v, rng.choice(targets)))
        edges.append(
            [(f"e{n}_{i}", v, w) for i, (v, w) in enumerate(sorted(pairs))]
        )
    return BratteliDiagram(vertices, edges)


def random_simplex(rng, keys):
    """Positive rationals over ``keys`` summing to 1 (small denominators)."""
    weights = {k: rng.randint(1, 9) for k in keys}
    total = sum(weights.values())
    return {k: Fraction(w, total) for k, w in weights.items()}


def random_walk_on(rng, d):
    p_levels = []
    for n in range(1, d.depth + 1):
        row = {}
        for v in d.vertices(n - 1):
            row.update(random_simplex(rng, [e.id for e in d.out_edges(n - 1, v)]))
        p_levels.append(row)
    nu0 = random_simplex(rng, d.vertices(0))
    return build_walk(d, p_levels, nu0)


def random_walk(rng, max_depth=6, max_vertices=4, max_out=3):
    return random_walk_on(rng, random_diagram(rng, max_depth, max_vertices, max_out))


def random_walk_with_multipath(rng, max_depth=6, max_vertices=4, max_out=3):
    """A random walk whose diagram has >= 2 full-depth paths into some vertex."""
    while True:
        d = random_diagram(rng, max_depth, max_vertices, max_out)
        if max(count_paths(d, 0, d.depth).values()) >= 2:
            return random_walk_on(rng, d)


def chain_diagram(depth):
    """One vertex and one edge per level."""
    vertices = [[f"c{n}"] for n in range(depth + 1)]
    edges = [[(f"l{n}", f"c{n - 1}", f"c{n}")] for n in range(1, depth + 1)]
    return BratteliDiagram(vertices, edges)


def chain_walk(depth):
    d = chain_diagram(depth)
    return build_walk(
        d, [{f"l{n}": 1} for n in range(1, depth + 1)], {"c0": 1}
    )


# -- the Young graph --------------------------------------------------------------


def partition_id(shape):
    """A partition's vertex id: its parts joined by '.', or '0' for the empty one."""
    return ".".join(map(str, shape)) or "0"


def hook_dim(shape):
    """The number of standard tableaux of ``shape``, n! over its hook lengths
    (Frame, Robinson and Thrall, 1954): the paths from the empty partition."""
    columns = [sum(1 for part in shape if part > j) for j in range(shape[0] if shape else 0)]
    hooks = math.prod(part - j + columns[j] - i - 1 for i, part in enumerate(shape) for j in range(part))
    return math.factorial(sum(shape)) // hooks


def young_diagram(depth):
    """The Young graph to ``depth``: the partitions of n at level n, and one
    edge from a partition to each partition it becomes by adding one box.
    Returns the diagram and the shapes of each level, in vertex order."""
    levels, edges = [[()]], []
    for n in range(1, depth + 1):
        floor = []
        for shape in levels[-1]:
            for i in range(len(shape) + 1):  # a box at the end of row i
                if i == len(shape) or i == 0 or shape[i - 1] > shape[i]:
                    grown = shape[:i] + ((shape[i] if i < len(shape) else 0) + 1,) + shape[i + 1:]
                    floor.append((shape, grown))
        levels.append(sorted({grown for _, grown in floor}, reverse=True))
        edges.append([(f"{partition_id(a)}>{partition_id(b)}", partition_id(a), partition_id(b)) for a, b in floor])
    return BratteliDiagram([[partition_id(s) for s in level] for level in levels], edges), levels


# -- peak memory of a command ---------------------------------------------------

# argv: the command; prints its exit code and its max RSS in kB
_PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mb(argv):
    """(exit code, max RSS in MB) of the command ``argv``, its stdout
    discarded and ``bratteli`` importable from this tree.  The command is
    started from a small helper process, because a child's max RSS starts
    at its parent's peak: a direct child of the test run would report the
    test run's own."""
    src = str(Path(bratteli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, *argv],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    code, kb = out.split()
    return int(code), int(kb) / 1024


# -- the diagram's violations ----------------------------------------------------


def oracle_violations(vertices, edges):
    """Every broken invariant of the levels ``vertices`` and ``edges``, as
    ``BratteliDiagram`` takes them (edges as (id, src, rng) triples), found
    with string-id sets: empty levels and duplicate vertex ids level by level,
    then per edge level its duplicate edge ids and each edge's unresolved
    source and range, then per floor the vertices that emit no edge and those
    that receive none."""
    found = []
    for n, level in enumerate(vertices):
        if not level:
            found.append(Violation(n, f"V({n})", "level has no vertices"))
        seen = set()
        for v in level:
            if v in seen:
                found.append(Violation(n, f"vertex '{v}'", "duplicate identifier"))
            seen.add(v)
    for n, row in enumerate(edges, 1):
        seen = set()
        for eid, _, _ in row:
            if eid in seen:
                found.append(Violation(n, f"edge '{eid}'", "duplicate identifier"))
            seen.add(eid)
        for eid, src, rng in row:
            if src not in vertices[n - 1]:
                found.append(Violation(n, f"edge '{eid}'", f"source '{src}' not in V({n - 1})"))
            if rng not in vertices[n]:
                found.append(Violation(n, f"edge '{eid}'", f"range '{rng}' not in V({n})"))
    for n, row in enumerate(edges, 1):
        emitting = {src for _, src, _ in row}
        receiving = {rng for _, _, rng in row}
        for v in vertices[n - 1]:
            if v not in emitting:
                found.append(Violation(n - 1, f"vertex '{v}'", "emits no edge"))
        for v in vertices[n]:
            if v not in receiving:
                found.append(Violation(n, f"vertex '{v}'", "receives no edge"))
    return found


def diagram_levels(d):
    """The (vertices, edges) levels ``d`` was built from, edges as (id, src, rng) triples."""
    return ([list(d.vertices(n)) for n in range(d.depth + 1)],
            [[(e.id, e.src, e.rng) for e in d.edges(n)] for n in range(1, d.depth + 1)])


def oracle_adjacency(d):
    """``(_src, _rng, _out, _in)`` of a valid diagram, built with dicts keyed
    by vertex id."""
    src, rng, out, inc = [], [], [], []
    for m, row in enumerate(map(d.edges, range(1, d.depth + 1))):
        here = {v: i for i, v in enumerate(d.vertices(m))}
        there = {v: j for j, v in enumerate(d.vertices(m + 1))}
        leaving = {v: [] for v in d.vertices(m)}
        entering = {v: [] for v in d.vertices(m + 1)}
        for k, e in enumerate(row):
            leaving[e.src].append(k)
            entering[e.rng].append(k)
        src.append(tuple(here[e.src] for e in row))
        rng.append(tuple(there[e.rng] for e in row))
        out.append(tuple(tuple(ks) for ks in leaving.values()))
        inc.append(tuple(tuple(ks) for ks in entering.values()))
    return tuple(src), tuple(rng), tuple(out), tuple(inc)


# -- reference oracle for the diagram file reader --------------------------------


def oracle_load_diagram(source) -> DiagramFile:
    """``fileio.load_diagram`` as it read a diagram file before its one-pass
    edge records: each record's fields checked one by one, ``p`` and ``rho``
    presence counted per record, the edges handed over as ``(id, src, rng)``."""
    data = _load_json(source, "diagram")
    if "vertices" not in data or "edges" not in data:
        raise FileFormatError("diagram file needs 'vertices' and 'edges'")
    raw_vertices = data["vertices"]
    raw_edges = data["edges"]
    if not isinstance(raw_vertices, list) or not all(isinstance(l, list) for l in raw_vertices):
        raise FileFormatError("'vertices' must be an array of arrays of strings")
    vertices = [
        [_string(v, f"vertices level {n}") for v in level] for n, level in enumerate(raw_vertices)
    ]
    if not isinstance(raw_edges, list) or not all(isinstance(l, list) for l in raw_edges):
        raise FileFormatError("'edges' must be an array of arrays of edge records")
    edges = []
    p_levels: list = []
    rho_levels: list = []
    has_p = no_p = has_rho = no_rho = 0
    p_values: dict = {}  # each distinct 'p' text is parsed once
    for m, level in enumerate(raw_edges):
        row = []
        p_row: dict = {}
        rho_row: dict = {}
        for rec in level:
            if not isinstance(rec, dict):
                raise FileFormatError(f"edge level {m + 1}: records must be objects, got {rec!r}")
            for key in ("id", "src", "rng"):
                if key not in rec:
                    raise FileFormatError(f"edge level {m + 1}: record lacks '{key}': {rec!r}")
            eid = _string(rec["id"], f"edge level {m + 1}")
            row.append((eid, _string(rec["src"], eid), _string(rec["rng"], eid)))
            if "p" in rec:
                has_p += 1
                raw = rec["p"]
                if type(raw) is not str or raw not in p_values:
                    p_values[raw] = _rational(raw, f"edge '{eid}' field 'p'")
                p_row[eid] = p_values[raw]
            else:
                no_p += 1
            if "rho" in rec:
                has_rho += 1
                rho_row[eid] = rec["rho"]
            else:
                no_rho += 1
        edges.append(row)
        p_levels.append(p_row)
        rho_levels.append(rho_row)
    if has_p and no_p:
        raise FileFormatError("some edges carry 'p' and some do not; supply all or none")
    if has_rho and no_rho:
        raise FileFormatError("some edges carry 'rho' and some do not; supply all or none")
    nu0 = None
    if "nu0" in data:
        if not isinstance(data["nu0"], dict):
            raise FileFormatError("'nu0' must be an object mapping vertices to rationals")
        nu0 = {
            _string(v, "nu0"): _rational(x, f"nu0['{v}']") for v, x in data["nu0"].items()
        }
    if len(edges) == len(vertices) - 1 > 0:  # levels that form a diagram: its violations
        found = oracle_violations(vertices, edges)
        if found:
            raise InvalidDiagram(str(found[0]), found)
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


# -- reference oracles for the walk kernel ---------------------------------------
# Plain Fraction arithmetic with string-id lookups on every edge, kept as the
# reference the integer-numerator kernel in walk.py and harmonic.py, and the
# shared path tree of the cylinder tables and the q-measure check, must equal.


def oracle_enumerate_paths(d, from_level, to_level):
    """Paths from ``from_level`` to ``to_level`` (from < to) by recursive
    depth-first search over out-edges in edge order."""
    result = []

    def grow(anchor, prefix, at, level):
        if level == to_level:
            result.append(FinitePath(from_level, anchor, prefix, at))
            return
        for e in d.out_edges(level, at):
            grow(anchor, prefix + (e.id,), e.rng, level + 1)

    for e in d.edges(from_level + 1):
        grow(e.src, (e.id,), e.rng, from_level + 1)
    return result


def oracle_path(d, edge_ids, start_level=0, anchor=None):
    """``d.path`` by string lookups: each edge by id, its source compared with
    the previous edge's range."""
    ids = tuple(edge_ids)
    if not 0 <= start_level <= d.depth:
        raise PathError(f"start level {start_level} out of range 0..{d.depth}")
    if start_level + len(ids) > d.depth:
        raise PathError("path not in diagram: runs past the last level")
    if not ids:
        if anchor is None:
            raise PathError("empty path needs an anchor vertex")
        d.vertex_index(start_level, anchor)
        return FinitePath(start_level, anchor, (), anchor)
    at = first_src = d.edge(start_level + 1, ids[0]).src
    for off, eid in enumerate(ids):
        e = d.edge(start_level + off + 1, eid)
        if e.src != at:
            raise PathError(
                f"path not in diagram: edge '{eid}' starts at '{e.src}', expected '{at}'"
            )
        at = e.rng
    if anchor is not None and anchor != first_src:
        raise PathError(f"anchor '{anchor}' does not match first edge source '{first_src}'")
    return FinitePath(start_level, first_src, ids, at)


def _oracle_paths(d, n):
    """Paths from level 0 to level n: the empty paths when n = 0."""
    if n == 0:
        return [d.empty_path(v) for v in d.vertices(0)]
    return oracle_enumerate_paths(d, 0, n)


def oracle_markov_cylinder_table(w, depth):
    """Each cylinder mass as its own product nu0(s(a)) p(e_1)..p(e_n), level by
    level enumerated anew."""
    if not 0 <= depth <= w.depth:
        raise PathError(f"table depth {depth} out of range 0..{w.depth}")
    table = {}
    for n in range(depth + 1):
        for a in _oracle_paths(w.diagram, n):
            table[a] = cylinder_measure(w, a)
    return table


def oracle_measure_rows(w, depth):
    """The ``measure`` command's rows (level, label, mass), read off the
    whole cylinder table keyed by path."""
    return [(len(a), a.label(), m) for a, m in oracle_markov_cylinder_table(w, depth).items()]


def oracle_load_measure_table(d, source):
    """A table file {'empty': ..., 'paths': ...}, a path or a decoded payload,
    read as the whole-file reader did: the file decoded by ``json.loads``
    (through ``fileio._load_json``), a member besides 'empty' and 'paths'
    refused, then 'empty' and 'paths' in that order, each label through
    ``d.path`` in file order, the masses keyed by path."""
    data = _load_json(source, "measure")
    for key in data:
        if key not in ("empty", "paths"):
            raise FileFormatError(f"unexpected member {key!r} in a table file")
    table, depth = {}, 0
    empty = data.get("empty", {})
    if not isinstance(empty, dict):
        raise FileFormatError("'empty' must be an object mapping vertices to rationals")
    for v, raw in empty.items():
        table[d.empty_path(_string(v, "empty"))] = _rational(raw, f"empty['{v}']")
    paths = data.get("paths", {})
    if not isinstance(paths, dict):
        raise FileFormatError("'paths' must be an object mapping edge lists to rationals")
    for label, raw in paths.items():
        a = d.path(_string(label, "paths").split(","))
        table[a] = _rational(raw, f"paths['{label}']")
        depth = max(depth, len(a))
    return table, depth


def oracle_table_from_leaves(d, depth, leaf_masses):
    """Leaf masses summed upwards, one ``extensions`` call per path."""
    table = {}
    for a in _oracle_paths(d, depth):
        if a not in leaf_masses:
            raise NotAMeasure(f"no mass for path {a.label()}")
        table[a] = as_fraction(leaf_masses[a])
    for n in range(depth - 1, -1, -1):
        for a in _oracle_paths(d, n):
            table[a] = sum(table[b] for b in d.extensions(a))
    return table


def oracle_q_measure_witness(d, q, table, depth):
    """The q-measure check phase by phase, every level enumerated anew
    and q(a) taken per path by ``of_path``."""
    if not isinstance(q, CotransitionProbability):
        q = CotransitionProbability(d, q)
    if not 0 <= depth <= d.depth:
        raise PathError(f"depth {depth} out of range 0..{d.depth}")
    paths_by_level = [_oracle_paths(d, n) for n in range(depth + 1)]
    for level in paths_by_level:
        for a in level:
            if a not in table:
                raise NotAMeasure(f"no mass for path {a.label()}")
            if as_fraction(table[a]) < 0:
                raise NotAMeasure(f"negative mass on path {a.label()}")
    total = sum(as_fraction(table[a]) for a in paths_by_level[0])
    if total != 1:
        raise NotAMeasure(f"empty-path masses sum to {total}, not 1")
    for n in range(depth):
        for a in paths_by_level[n]:
            parts = sum(as_fraction(table[b]) for b in d.extensions(a))
            if as_fraction(table[a]) != parts:
                raise NotAMeasure(
                    f"not additive at {a.label()}: mass {as_fraction(table[a])}, "
                    f"extensions sum to {parts}"
                )
    for n in range(depth + 1):
        marginal = {v: Fraction(0) for v in d.vertices(n)}
        for a in paths_by_level[n]:
            marginal[a.terminus] += as_fraction(table[a])
        for a in paths_by_level[n]:
            expected = q.of_path(a) * marginal[a.terminus]
            if as_fraction(table[a]) != expected:
                return (a, expected, as_fraction(table[a]))
    return None


# -- Fraction versions of the integer path-tree kernels and table I/O -----------
# The same path tree, parsers and renderers as the library's, computed with
# Fraction objects throughout: the reference the integer q-measure check,
# pascal rows, 'num/den' parser and TSV rows must equal.


def _fraction_masses(paths, table):
    row = []
    for a in paths:
        if a not in table:
            raise NotAMeasure(f"no mass for path {a.label()}")
        row.append(fraction_as_fraction(table[a]))
        if row[-1] < 0:
            raise NotAMeasure(f"negative mass on path {a.label()}")
    return row


def fraction_q_measure_witness(d, q, table, depth):
    """The q-measure check on the path tree, with Fraction masses, Fraction
    marginals by vertex id and q(a) carried as a Fraction."""
    if not isinstance(q, CotransitionProbability):
        q = CotransitionProbability(d, q)
    if not 0 <= depth <= d.depth:
        raise PathError(f"depth {depth} out of range 0..{d.depth}")
    levels = list(_path_levels(d, 0, depth))
    masses = [_fraction_masses(paths, table) for paths, *_ in levels]
    total = sum(masses[0])
    if total != 1:
        raise NotAMeasure(f"empty-path masses sum to {total}, not 1")
    for n in range(depth):
        parts = [0] * len(levels[n][0])
        for i, x in zip(levels[n + 1][1], masses[n + 1]):
            parts[i] += x
        for a, x, y in zip(levels[n][0], masses[n], parts):
            if x != y:
                raise NotAMeasure(f"not additive at {a.label()}: mass {x}, extensions sum to {y}")
    qs = [Fraction(1)] * len(masses[0])
    for n, ((paths, prefix, last, _), row) in enumerate(zip(levels, masses)):
        if n:
            qn = [q(n, e.id) for e in d.edges(n)]
            qs = [qs[i] * qn[k] for i, k in zip(prefix, last)]
        marginal = dict.fromkeys(d.vertices(n), Fraction(0))
        for a, x in zip(paths, row):
            marginal[a.terminus] += x
        for a, qa, x in zip(paths, qs, row):
            expected = qa * marginal[a.terminus]
            if x != expected:
                return (a, expected, x)
    return None


def fraction_pascal_rows(d, q, depth):
    """The rows of the pascal command's table: (depth, word, q(a)) for every
    path a of the triangle ``d``, q(a) by ``of_path``, in path order."""
    return [(depth, "".join(eid[-1] for eid in a.edges), q.of_path(a)) for a in enumerate_paths(d, 0, depth)]


def fraction_as_fraction(value):
    """``as_fraction`` with every string through ``Fraction(text)``; a
    rejected string's reason in the format's words, except over the digit
    limit, where it is Python's.  A string whose last 'e' or 'E' is followed
    by an optional sign and decimal digits (underscores allowed) naming a
    number over the digit limit is refused before ``Fraction`` sees it."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise IncompatibleData(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        limit = sys.get_int_max_str_digits()
        exponent = re.fullmatch(r".*[eE][-+]?([^eE]*)", value.strip(), re.DOTALL)
        digits = exponent and exponent[1].replace("_", "")
        if limit and digits and digits.isdecimal():
            with long_ints():
                if int(digits) > limit:
                    raise IncompatibleData(
                        f"not a rational: {value!r} (exponent over the digit limit, {limit})"
                    )
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            reason = "zero denominator"
        except ValueError as exc:
            reason = str(exc)
            if reason.startswith("Invalid literal"):
                reason = "not an integer or 'num/den'"
        raise IncompatibleData(f"not a rational: {value!r} ({reason})") from None
    raise IncompatibleData(
        f"not an exact rational: {value!r} (floats are not accepted; use 'num/den')"
    )


def fraction_render_tsv(value):
    """One TSV cell, through a ``Fraction`` copy of each value."""
    if isinstance(value, Fraction):
        q = Fraction(value)
        return f"{q.numerator}/{q.denominator}"
    return str(value)


def fraction_tsv(columns, rows):
    """The TSV table as ``print`` wrote it, one call per row."""
    lines = ["\t".join(columns)] + ["\t".join(fraction_render_tsv(c) for c in row) for row in rows]
    return "".join(line + "\n" for line in lines)


def oracle_stochastic_violation(d, rows, incoming, what, sym):
    """The message of the first positivity or unit-sum violation of per-level
    {edge id: Fraction} rows over out-edges (in-edges if ``incoming``)."""
    for n, row in enumerate(rows, start=1):
        for e in d.edges(n):
            if row[e.id] <= 0:
                return f"{what}: {sym}({e.id}) = {row[e.id]} at level {n} is not positive"
        level = n if incoming else n - 1
        for v in d.vertices(level):
            group = d.in_edges(n, v) if incoming else d.out_edges(n - 1, v)
            total = sum(row[e.id] for e in group)
            if total != 1:
                side = "in" if incoming else "out"
                return f"{what}: {side}-edges of '{v}' at level {level} sum to {total}, not 1"
    return None


def oracle_distributions(w):
    """(nus, qs): nu_n as {vertex: Fraction} for n = 0..N and q_n as
    {edge id: Fraction} for n = 1..N, by the Fraction pushforward."""
    d = w.diagram
    nus = [w.initial.as_dict()]
    qs = []
    for n in range(1, d.depth + 1):
        prev = nus[-1]
        nxt = {v: Fraction(0) for v in d.vertices(n)}
        for e in d.edges(n):
            nxt[e.rng] += w.transition(n, e.id) * prev[e.src]
        nus.append(nxt)
        qs.append({e.id: prev[e.src] * w.transition(n, e.id) / nxt[e.rng] for e in d.edges(n)})
    message = oracle_stochastic_violation(d, qs, True, "cotransition probability", "q")
    if message:
        raise SupportViolation(message)
    return nus, qs


def oracle_harmonic_from_terminal(w, terminal):
    """Backward induction from ``terminal`` on V(N), one {vertex: Fraction}
    per level 0..N."""
    d = w.diagram
    levels = [None] * (d.depth + 1)
    levels[d.depth] = {v: Fraction(terminal[v]) for v in d.vertices(d.depth)}
    for n in range(d.depth, 0, -1):
        levels[n - 1] = {
            v: sum(w.transition(n, e.id) * levels[n][e.rng] for e in d.out_edges(n - 1, v))
            for v in d.vertices(n - 1)
        }
    return levels


def oracle_is_harmonic(w, h):
    """``is_harmonic`` on the HarmonicSequence ``h`` by string-id lookups:
    one ``out_edges``, ``p`` and ``h`` call per edge."""
    d = w.diagram
    for n in range(1, d.depth + 1):
        for v in d.vertices(n - 1):
            rhs = sum(w.transition(n, e.id) * h(n, e.rng) for e in d.out_edges(n - 1, v))
            lhs = h(n - 1, v)
            if lhs != rhs:
                return HarmonicCheck(False, n, v, lhs, rhs)
    return HarmonicCheck(True)


def oracle_cotransition_check(d, q, nus):
    """``from_cotransition``'s compatibility check by string-id lookups:
    IncompatibleData at the first level, then vertex, where nu_{n-1}(v) is
    not the sum of q_n(e) nu_n(r(e)) over the out-edges e of v."""
    levels = [{v: as_fraction(x) for v, x in row.items()} for row in nus]
    for n in range(1, d.depth + 1):
        for v in d.vertices(n - 1):
            pushed = sum(q(n, e.id) * levels[n][e.rng] for e in d.out_edges(n - 1, v))
            have = levels[n - 1][v]
            if pushed != have:
                raise IncompatibleData(
                    f"distributions not compatible with cotransition at level {n}, "
                    f"vertex '{v}': nu_{n - 1}({v}) = {long_str(have)} but the level-{n} "
                    f"pushforward gives {long_str(pushed)}"
                )


def oracle_ergodic_components(w):
    """Eager decomposition: (terminal, weight, walk) per terminal vertex, each
    walk the Doob transform built on its subdiagram."""
    d = w.diagram
    out = []
    for target in d.vertices(d.depth):
        weight = w.nu_at(d.depth, target)
        if weight == 0:
            continue
        g = oracle_harmonic_from_terminal(
            w, {v: 1 if v == target else 0 for v in d.vertices(d.depth)}
        )
        keep_vertices = [{v for v in d.vertices(n) if g[n][v] > 0} for n in range(d.depth + 1)]
        keep_edges = [
            {e.id for e in d.edges(n) if g[n][e.rng] > 0} for n in range(1, d.depth + 1)
        ]
        sub = subdiagram(d, keep_vertices, keep_edges)
        p_values = [
            {e.id: w.transition(n, e.id) * g[n][e.rng] / g[n - 1][e.src] for e in sub.edges(n)}
            for n in range(1, d.depth + 1)
        ]
        nu0 = {v: w.initial(v) * g[0][v] / weight for v in sub.vertices(0)}
        out.append((target, weight, build_walk(sub, p_values, nu0)))
    return out


# -- reference oracle for the skew product -----------------------------------


def oracle_skew_product(d, rho, initial_window):
    """The windowed skew product on string ids, one ``out_edges``, potential
    and ``format`` call per edge: (skew diagram, vertex pairs per level 0..N,
    edge pairs per level 1..N)."""
    if rho.diagram is not d:
        raise IncompatibleData("potential must be built on the diagram being skewed")
    group = rho.group
    window0 = sorted({group.parse(g) for g in initial_window})
    if not window0:
        raise WindowError("initial window is empty")
    fmt = group.format
    vertex_pairs = [tuple((v, g) for v in d.vertices(0) for g in window0)]
    vertex_levels = [[f"{v}@{fmt(g)}" for (v, g) in vertex_pairs[0]]]
    edge_levels = []
    edge_pairs = []
    for n in range(1, d.depth + 1):
        reached = set()
        edges_here = []
        pairs_here = []
        for (v, g) in vertex_pairs[n - 1]:
            for e in d.out_edges(n - 1, v):
                g2 = group.op(g, rho(n, e.id))
                reached.add((e.rng, g2))
                edges_here.append(
                    Edge(f"{e.id}@{fmt(g)}", f"{v}@{fmt(g)}", f"{e.rng}@{fmt(g2)}")
                )
                pairs_here.append((e.id, g))
        ordered = sorted(reached, key=lambda p: (d.vertex_index(n, p[0]), p[1]))
        vertex_pairs.append(tuple(ordered))
        vertex_levels.append([f"{v}@{fmt(g)}" for (v, g) in ordered])
        edge_levels.append(edges_here)
        edge_pairs.append(tuple(pairs_here))
    return BratteliDiagram(vertex_levels, edge_levels), tuple(vertex_pairs), tuple(edge_pairs)


# -- reference oracle for the expectation checks -----------------------------


def with_unit_images(Q, relation):
    """A map that calls Q and carries Q's unit images, so that
    ``verify_expectation`` takes its matrix path: ``unit_images()`` returns
    (relation, D, columns), column k holding D Q(u) in ints, u the k-th unit
    of ``relation.pairs()`` and D the lcm of the images' denominators.  Its
    calls are counted in ``calls``."""
    index = {pair: k for k, pair in enumerate(relation.pairs())}
    images = [Q(matrix_unit(relation, x, y)) for x, y in relation.pairs()]
    den = math.lcm(*(Fraction(v).denominator for image in images for v in image.entries.values()))
    columns = [{index[pair]: int(v * den) for pair, v in image.entries.items()} for image in images]

    def mapped(f):
        mapped.calls += 1
        return Q(f)

    mapped.calls = 0
    mapped.unit_images = lambda: (relation, den, columns)
    return mapped


def oracle_verify_expectation(Q, ambient, sub_basis):
    """``verify_expectation`` applying Q afresh to every product it checks:
    Q(m u) and Q(u m) for every (basis element, unit) pair and Q(e(x,y)) for
    every Gram entry, with the products built by ``AlgebraElement``.  Input is
    exact (ints and Fractions).  Range is decided by dense Fraction
    elimination, and positivity and faithfulness by a dense Fraction LDL^T
    (definite: also of full rank), on the same integer samples."""
    rng = random.Random(7)
    report = ExpectationReport()
    one = identity_element(ambient)
    if d := Q(one).distance(one):
        report._fail("unital", f"Q(1) differs from 1 by {float(d):.3g}")

    units = [matrix_unit(ambient, x, y) for (x, y) in ambient.pairs()]
    images = [Q(u) for u in units]
    for u, img in zip(units, images):
        if d := Q(img).distance(img):
            report._fail("idempotent", f"Q^2 != Q at unit {next(iter(u.entries))}: off by {float(d):.3g}")
            break

    # range: an image is outside when its residue against the echelon form of
    # sub_basis is not zero
    index = {pair: i for i, pair in enumerate(ambient.pairs())}
    echelon = fraction_echelon([dense_fractions(m, index) for m in sub_basis])
    for u, img in zip(units, images):
        if any(fraction_residue(echelon, dense_fractions(img, index))):
            report._fail(
                "range_in_subalgebra", f"Q(unit {next(iter(u.entries))}) leaves the subalgebra span"
            )
            break

    for m in sub_basis:
        bad = None
        for u, img in zip(units, images):
            if left := Q(m * u).distance(m * img):
                bad = f"Q(m f) != m Q(f), off by {float(left):.3g}"
                break
            if right := Q(u * m).distance(img * m):
                bad = f"Q(f m) != Q(f) m, off by {float(right):.3g}"
                break
        if bad:
            report._fail("bimodular", bad)
            break

    classes = ambient.classes()
    for _ in range(3):
        entries: dict = {}
        for cls_ in classes:
            n = len(cls_)
            block = [[rng.randint(-3, 3) for _ in cls_] for _ in cls_]
            for i, x in enumerate(cls_):
                for j, y in enumerate(cls_):
                    entries[(x, y)] = sum(block[k][i] * block[k][j] for k in range(n))
        image = Q(AlgebraElement(ambient, entries))
        for cls_ in classes:
            rows = [[image.entries.get((x, y), 0) for y in cls_] for x in cls_]
            if off := fraction_asymmetry(rows):
                report._fail("positive", f"Q(f*f) not self-adjoint (off by {float(off):.3g})")
                break
            if not fraction_semidefinite(rows):
                report._fail("positive", f"Q(f*f) is not positive on the class of {cls_[0]!r}")
                break
        if not report.positive:
            break

    for cls_ in classes:
        gram = [[Fraction(Q(matrix_unit(ambient, x, y)).trace()) for y in cls_] for x in cls_]
        if off := fraction_asymmetry(gram):
            report._fail("faithful", f"trace form not hermitian (off by {float(off):.3g})")
            break
        if not fraction_semidefinite(gram) or len(fraction_echelon(gram)) < len(cls_):
            report._fail(
                "faithful", f"trace form on class of {cls_[0]!r} is not positive definite"
            )
            break
    return report


def fraction_asymmetry(rows):
    """max |a(i,j) - a(j,i)| over a square matrix, 0 when it is symmetric."""
    n = len(rows)
    return max((abs(rows[i][j] - rows[j][i]) for i in range(n) for j in range(n)), default=0)


def dense_fractions(element, index):
    """The entries of ``element`` as a dense Fraction vector over ``index``."""
    vec = [Fraction(0)] * len(index)
    for k, v in element.entries.items():
        vec[index[k]] = Fraction(v)
    return vec


def fraction_residue(echelon, vec):
    """``vec`` minus its part in the span of a reduced echelon form
    (pivot column -> dense Fraction row that is 1 there and 0 at every other
    pivot column)."""
    for c, row in echelon.items():
        if vec[c]:
            vec = [a - vec[c] * b for a, b in zip(vec, row)]
    return vec


def fraction_echelon(vectors):
    """Reduced echelon form of dense Fraction vectors, built one vector at a
    time by Gauss-Jordan elimination in Fractions."""
    echelon = {}
    for vec in vectors:
        vec = fraction_residue(echelon, vec)
        col = next((i for i, a in enumerate(vec) if a), None)
        if col is not None:
            vec = [a / vec[col] for a in vec]
            for c, row in echelon.items():
                if row[col]:
                    echelon[c] = [a - row[col] * b for a, b in zip(row, vec)]
            echelon[col] = vec
    return echelon


def fraction_span(elements, relation):
    """The reduced echelon form of ``elements`` over the pairs of ``relation``:
    its length is the dimension of their span, and two families span the
    same subspace exactly when their forms are equal."""
    index = {pair: i for i, pair in enumerate(relation.pairs())}
    return fraction_echelon([dense_fractions(m, index) for m in elements])


def fraction_semidefinite(rows):
    """Whether a symmetric matrix of ints and Fractions is positive
    semidefinite: dense LDL^T in Fractions without pivoting, where every pivot
    is >= 0 and a zero pivot has a zero row."""
    a = [list(map(Fraction, row)) for row in rows]
    for k, top in enumerate(a):
        if top[k] < 0 or top[k] == 0 and any(top[k:]):
            return False
        if top[k]:
            for row in a[k + 1:]:
                factor = row[k] / top[k]
                row[k:] = [x - factor * y for x, y in zip(row[k:], top[k:])]
    return True


# -- inclusion graphs ----------------------------------------------------------


def make_graph(X, V, E, Vbar, vertex_of, source_of, range_of):
    """The inclusion graph on the one-floor diagram V -> Vbar with edges E,
    and the points of X that ``vertex_of`` places, in X's order."""
    d = BratteliDiagram([V, Vbar], [[(e, source_of[e], range_of[e]) for e in E]])
    return InclusionGraph(d, {x: vertex_of[x] for x in X if x in vertex_of})


def random_inclusion_graph(rng, max_points=6, max_edges=8):
    """A random inclusion graph with |X| <= max_points, |E| <= max_edges."""
    nV = rng.randint(1, 3)
    nVb = rng.randint(1, 3)
    V = [f"v{i}" for i in range(nV)]
    Vbar = [f"w{j}" for j in range(nVb)]
    fiber = {v: 1 for v in V}
    for _ in range(rng.randint(0, max_points - nV)):
        fiber[rng.choice(V)] += 1
    X, vertex_of = [], {}
    for v in V:
        for i in range(fiber[v]):
            x = f"x{len(X)}"
            X.append(x)
            vertex_of[x] = v
    pairs = [(rng.choice(V), w) for w in Vbar]  # cover every range vertex
    for v in V:  # cover every source
        if all(src != v for (src, _) in pairs):
            pairs.append((v, rng.choice(Vbar)))
    while len(pairs) < max_edges and rng.random() < 0.5:
        pairs.append((rng.choice(V), rng.choice(Vbar)))
    rng.shuffle(pairs)
    E, source_of, range_of = [], {}, {}
    for k, (v, w) in enumerate(pairs):
        e = f"c{k}"
        E.append(e)
        source_of[e] = v
        range_of[e] = w
    return make_graph(X, V, E, Vbar, vertex_of, source_of, range_of)


def sized_inclusion_graph(rng, n_points, n_edges, n_vertices):
    """An inclusion graph of the benchmark's algebra-graphs shape: n_vertices
    vertices on each side, the points spread evenly over V, and edge k from
    V[k mod n] into Vbar[(k div n) mod n]; ``rng`` shuffles points and edges."""
    V = [f"v{i}" for i in range(n_vertices)]
    Vbar = [f"w{j}" for j in range(n_vertices)]
    over = [V[k % n_vertices] for k in range(n_points)]
    rng.shuffle(over)
    pairs = [(V[k % n_vertices], Vbar[(k // n_vertices) % n_vertices]) for k in range(n_edges)]
    rng.shuffle(pairs)
    E = [f"c{k}" for k in range(n_edges)]
    X = [f"x{k}" for k in range(n_points)]
    return make_graph(
        X, V, E, Vbar, dict(zip(X, over)),
        {e: v for e, (v, _) in zip(E, pairs)}, {e: w for e, (_, w) in zip(E, pairs)},
    )


def random_transition(rng, g):
    p = {}
    for v in g.V:
        p.update(random_simplex(rng, list(g.out_edges(v))))
    return p


def _compositions(total, parts, minimum):
    """All ways to write ``total`` as an ordered sum of ``parts`` integers
    each >= minimum."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


def enumerate_inclusion_graphs(max_weight=6):
    """One inclusion graph per isomorphism class with |Xbar| <= max_weight.

    A structure is (fiber sizes, multiplicity matrix) with all maps
    surjective; two structures give isomorphic graphs exactly when they agree
    after permuting rows (with their fiber sizes) and columns, so the
    canonical form below collapses nothing else.
    """
    seen = {}
    canonical = {}  # sorted (fiber, row) pairs -> canonical form
    for nV in range(1, max_weight + 1):
        for nVb in range(1, max_weight + 1):
            for fibers in _compositions_up_to(max_weight, nV, 1):
                if any(fibers[i] < fibers[i + 1] for i in range(nV - 1)):
                    continue  # fiber order is a row relabeling
                for M in _matrices(nV, nVb, fibers, max_weight):
                    # rows of equal fiber size permute freely, so structures
                    # with the same sorted rows are isomorphic
                    rows = tuple(sorted(zip(fibers, M)))
                    if rows not in canonical:
                        canonical[rows] = _canonical_structure(fibers, M)
                    key = canonical[rows]
                    if key not in seen:
                        seen[key] = _build_graph(fibers, M)
    return list(seen.values())


def _canonical_structure(fibers, M):
    """Exact canonical form under row perms (fibers attached) x column perms.

    Minimizing over one symmetry with the other sorted away is exact; which
    side to enumerate is decided by invariants only, so isomorphic structures
    always take the same branch and get identical keys.
    """
    from itertools import permutations, product
    from math import factorial

    nV, nVb = len(M), len(M[0])
    blocks = []  # runs of equal fiber size (fibers arrive non-increasing)
    i = 0
    while i < nV:
        j = i
        while j < nV and fibers[j] == fibers[i]:
            j += 1
        blocks.append(range(i, j))
        i = j
    row_sym = 1
    for blk in blocks:
        row_sym *= factorial(len(blk))
    if factorial(nVb) <= row_sym:
        cols = [tuple(M[i][j] for i in range(nV)) for j in range(nVb)]
        best = None
        for perm in permutations(cols):
            rows = tuple(sorted(zip(fibers, *perm)))
            if best is None or rows < best:
                best = rows
        return ("colmin", best)
    best = None
    for combo in product(*(permutations(blk) for blk in blocks)):
        order = [i for blk in combo for i in blk]
        cols = tuple(sorted(tuple(M[i][j] for i in order) for j in range(nVb)))
        if best is None or cols < best:
            best = cols
    return ("rowmin", tuple(fibers), best)


def _compositions_up_to(limit, parts, minimum):
    for total in range(parts * minimum, limit + 1):
        yield from _compositions(total, parts, minimum)


def _matrices(nV, nVb, fibers, budget):
    """Multiplicity matrices with positive row sums, positive column sums,
    and sum of fiber(v) * rowsum(v) <= budget.  Built row by row with the
    weight bound enforced as early as possible."""
    rows_of = {
        s: tuple(_compositions(s, nVb, 0)) for s in range(1, budget + 1)
    }
    mask_of = {
        s: tuple(
            sum(1 << j for j, val in enumerate(row) if val) for row in rows_of[s]
        )
        for s in rows_of
    }
    full = (1 << nVb) - 1

    def rows_from(i, left, covered, acc):
        if i == nV:
            if covered == full:
                yield tuple(acc)
            return
        # every later source still needs >= fiber weight
        reserve = sum(fibers[k] for k in range(i + 1, nV))
        top = (left - reserve) // fibers[i]
        for rowsum in range(1, top + 1):
            for row, mask in zip(rows_of[rowsum], mask_of[rowsum]):
                acc.append(row)
                yield from rows_from(i + 1, left - fibers[i] * rowsum, covered | mask, acc)
                acc.pop()

    yield from rows_from(0, budget, 0, [])


def _build_graph(fibers, M):
    nV, nVb = len(M), len(M[0])
    V = [f"v{i}" for i in range(nV)]
    Vbar = [f"w{j}" for j in range(nVb)]
    X, vertex_of = [], {}
    for i, v in enumerate(V):
        for _ in range(fibers[i]):
            x = f"x{len(X)}"
            X.append(x)
            vertex_of[x] = v
    E, source_of, range_of = [], {}, {}
    for i, v in enumerate(V):
        for j, w in enumerate(Vbar):
            for _ in range(M[i][j]):
                e = f"c{len(E)}"
                E.append(e)
                source_of[e] = v
                range_of[e] = w
    return make_graph(X, V, E, Vbar, vertex_of, source_of, range_of)


# -- linear-algebra oracles ----------------------------------------------------


def random_element(rng, relation, scale=1.0):
    """Dense random complex element of the relation algebra."""
    entries = {}
    for pair in relation.pairs():
        entries[pair] = complex(rng.gauss(0, scale), rng.gauss(0, scale))
    return AlgebraElement(relation, entries)
