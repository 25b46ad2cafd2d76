"""Graded Bratteli diagrams and finite paths.

A diagram of depth N has vertex levels V(0)..V(N) and edge levels E(1)..E(N);
every edge of E(n) runs from V(n-1) to V(n).  Identifiers are opaque strings
in the public interface and are mapped to dense integer indices internally;
all outputs use the original strings.  Edges are held as ids and indices;
a level's ``Edge`` objects are built when a caller first asks for them.

A diagram that exists is valid, and immutable; every operation here is a pure
function, so values may be shared freely across threads.  Path enumeration is
part of the public contract: paths come back in lexicographic order by edge
index, and tests and CLI output depend on that order.  Every path consumer
(``enumerate_paths``, the cylinder tables, ``measure`` and the q-measure
check of ``walk``) reads the one path tree of ``_tree_levels``, which grows
each level from the one before over integer indices; ``_path_levels`` adds
the paths themselves, ``_label_levels`` only their labels, and
``CylinderTable`` holds masses by their place in it until a check takes them.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable

from .errors import IncompatibleData, InvalidDiagram, PathError
from .rational import as_fraction


@dataclass(frozen=True, slots=True)
class Edge:
    """A single edge: identifier plus source/range vertex identifiers."""

    id: str
    src: str
    rng: str


@dataclass(frozen=True)
class Violation:
    """One broken diagram invariant: the level, the offender, the rule."""

    level: int
    subject: str
    rule: str

    def __str__(self):
        return f"level {self.level}: {self.subject}: {self.rule}"


@dataclass(frozen=True, slots=True)
class FinitePath:
    """A composable run of edges e_{m+1}..e_{m+k} starting at level m.

    ``anchor`` is the source vertex and ``terminus`` the range vertex; for the
    empty path both equal the vertex the path is anchored at.  Instances are
    built through :meth:`BratteliDiagram.path` (or enumeration), which checks
    composability, so a constructed path is always contained in its diagram.
    """

    start_level: int
    anchor: str
    edges: tuple[str, ...]
    terminus: str

    def __len__(self):
        return len(self.edges)

    @property
    def end_level(self) -> int:
        return self.start_level + len(self.edges)

    def label(self) -> str:
        """Comma-joined edge ids; '@vertex' for the empty path."""
        return ",".join(self.edges) if self.edges else "@" + self.anchor


class BratteliDiagram:
    """A finite-depth Bratteli diagram.

    ``vertices`` is one ordered id list per level 0..N; ``edges`` is one
    ordered list per level 1..N of edges (``Edge`` instances or
    ``(id, src, rng)`` triples).  Construction raises :class:`InvalidDiagram`,
    whose ``violations`` list every broken invariant: an empty level, an id
    repeated in its level or not resolved, a vertex off V(N) that emits no
    edge, one off V(0) that receives none.  Each floor's edges are held as
    their (ids, source ids, range ids) and endpoint indices (``_src``,
    ``_rng``); a level's ``Edge`` objects are built on its first request.
    """

    def __init__(self, vertices, edges):
        vs = tuple(tuple(level) for level in vertices)
        if len(vs) < 2:
            raise InvalidDiagram("a diagram needs depth >= 1 (at least two vertex levels)")
        floors = [  # per floor, its edges' (ids, source ids, range ids)
            tuple(zip(*[(e.id, e.src, e.rng) if isinstance(e, Edge) else e for e in level])) or ((),) * 3
            for level in edges
        ]
        if len(floors) != len(vs) - 1:
            raise InvalidDiagram(
                f"got {len(vs)} vertex levels but {len(floors)} edge levels; need one edge level per floor"
            )
        self._vertices = vs
        self._floors = floors
        self._ids = tuple(ids for ids, _, _ in floors)
        self._vidx = tuple({v: i for i, v in enumerate(level)} for level in vs)
        self._eidx = tuple(dict(zip(ids, range(len(ids)))) for ids in self._ids)
        if found := self._index():
            raise InvalidDiagram(str(found[0]), found)
        self._edge_objects = [None] * len(floors)

    # -- structure accessors ------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._vertices) - 1

    def vertices(self, n: int) -> tuple[str, ...]:
        """Ordered vertex ids of V(n)."""
        if not 0 <= n <= self.depth:
            raise PathError(f"vertex level {n} out of range 0..{self.depth}")
        return self._vertices[n]

    def _edge_ids(self, n: int) -> tuple[str, ...]:
        """Ordered edge ids of E(n); a level out of range is a PathError, not a wrap-around."""
        if not 1 <= n <= self.depth:
            raise PathError(f"edge level {n} out of range 1..{self.depth}")
        return self._ids[n - 1]

    def edges(self, n: int) -> tuple[Edge, ...]:
        """Ordered edges of E(n), n = 1..depth."""
        self._edge_ids(n)
        row = self._edge_objects[n - 1]
        if row is None:
            row = self._edge_objects[n - 1] = tuple(map(Edge, *self._floors[n - 1]))
        return row

    def edge(self, n: int, edge_id: str) -> Edge:
        return self.edges(n)[self.edge_index(n, edge_id)]

    def edge_index(self, n: int, edge_id: str) -> int:
        self._edge_ids(n)
        idx = self._eidx[n - 1].get(edge_id)
        if idx is None:
            raise PathError(f"no edge '{edge_id}' at level {n}")
        return idx

    def vertex_index(self, n: int, vertex_id: str) -> int:
        self.vertices(n)
        idx = self._vidx[n].get(vertex_id)
        if idx is None:
            raise PathError(f"no vertex '{vertex_id}' at level {n}")
        return idx

    def has_vertex(self, n: int, vertex_id: str) -> bool:
        return 0 <= n <= self.depth and vertex_id in self._vidx[n]

    def out_edges(self, n: int, vertex_id: str) -> tuple[Edge, ...]:
        """Edges of E(n+1) with source ``vertex_id`` in V(n), in edge order."""
        vi = self.vertex_index(n, vertex_id)
        row = self.edges(n + 1)
        return tuple(row[k] for k in self._out[n][vi])

    def in_edges(self, n: int, vertex_id: str) -> tuple[Edge, ...]:
        """Edges of E(n) with range ``vertex_id`` in V(n), in edge order."""
        vi = self.vertex_index(n, vertex_id)
        row = self.edges(n)
        return tuple(row[k] for k in self._in[n - 1][vi])

    def align(self, kind: str, values, convert: Callable, what: str, exc: type, level: int | None = None):
        """User data keyed by id, converted and put in diagram order.

        ``kind`` is "vertex" or "edge".  ``values`` is one {id: value} map per
        level, V(0)..V(N) or E(1)..E(N), and the result is one tuple per level;
        or, when ``level`` is given, the single map of that level, and the
        result is its tuple.  Each value passes through ``convert`` in id
        order.  An unknown id (the least, in sort order, is named first), a
        missing id or a wrong number of levels raises ``exc``.
        """
        if level is None:
            levels = list(values)
            first = 0 if kind == "vertex" else 1
            count = self.depth + 1 - first
            if len(levels) != count:
                raise exc(f"{what}: got {len(levels)} levels of values, diagram has {count} {kind} levels")
            numbered = enumerate(levels, start=first)
        else:
            numbered = [(level, values)]
        rows = []
        for n, mapping in numbered:
            where = "" if level is not None else f" at level {n}"
            if kind == "vertex":
                index, ids = self._vidx[n], self.vertices(n)
            else:
                index, ids = self._eidx[n - 1], self._edge_ids(n)
            unknown = [x for x in mapping if x not in index]
            if unknown:
                raise exc(f"{what}: unknown {kind} '{min(unknown)}'{where}")
            row = []
            for x in ids:
                if x not in mapping:
                    raise exc(f"{what}: no value for {kind} '{x}'{where}")
                row.append(convert(mapping[x]))
            rows.append(tuple(row))
        return rows[0] if level is not None else tuple(rows)

    # -- index and violations -----------------------------------------------

    def _index(self):
        """Dense integer indices for the package's hot loops, per floor m = n - 1,
        and the violations read off them: ``_src[m][k]`` / ``_rng[m][k]`` index
        the endpoints of edge k of E(n) in V(n-1) / V(n), None where an id does
        not resolve (``__init__`` then raises); ``_out[m][i]`` / ``_in[m][j]``
        list the edge indices leaving vertex i of V(n-1) / entering vertex j of
        V(n), in edge order.  A vertex whose row, read through its id, is empty
        emits or receives no edge."""
        vidx, found = self._vidx, []
        for n, level in enumerate(self._vertices):
            if not level:
                found.append(Violation(n, f"V({n})", "level has no vertices"))
            found += _duplicates(n, "vertex", level, vidx[n])
        src, rng, out, inc = [], [], [], []
        for m, (ids, srcs, rngs) in enumerate(self._floors):
            n = m + 1
            found += _duplicates(n, "edge", ids, self._eidx[m])
            s = list(map(vidx[m].get, srcs))
            r = list(map(vidx[n].get, rngs))
            o = [[] for _ in self._vertices[m]]
            i = [[] for _ in self._vertices[n]]
            for k, (a, b) in enumerate(zip(s, r)):
                if a is None:
                    found.append(Violation(n, f"edge '{ids[k]}'", f"source '{srcs[k]}' not in V({m})"))
                else:
                    o[a].append(k)
                if b is None:
                    found.append(Violation(n, f"edge '{ids[k]}'", f"range '{rngs[k]}' not in V({n})"))
                else:
                    i[b].append(k)
            src.append(tuple(s))
            rng.append(tuple(r))
            out.append(tuple(map(tuple, o)))
            inc.append(tuple(map(tuple, i)))
        for m, floor in enumerate(zip(out, inc)):
            for n, rows, rule in zip((m, m + 1), floor, ("emits no edge", "receives no edge")):
                ids, index = self._vertices[n], vidx[n]
                found += [Violation(n, f"vertex '{v}'", rule) for v in ids if not rows[index[v]]]
        self._src = tuple(src)
        self._rng = tuple(rng)
        self._out = tuple(out)
        self._in = tuple(inc)
        return found

    # -- paths ---------------------------------------------------------------

    def path(self, edge_ids: Iterable[str], start_level: int = 0, anchor: str | None = None) -> FinitePath:
        """Build and check a path from consecutive edge ids.

        For the empty path ``anchor`` names the vertex the path sits at.
        Raises PathError when an edge is unknown or consecutive edges do not
        compose.
        """
        ids = tuple(edge_ids)
        first, at = self._follow(ids, start_level)
        if not ids:
            if anchor is None:
                raise PathError("empty path needs an anchor vertex")
            self.vertex_index(start_level, anchor)
            return FinitePath(start_level, anchor, (), anchor)
        first_src = self._vertices[start_level][first]
        if anchor is not None and anchor != first_src:
            raise PathError(f"anchor '{anchor}' does not match first edge source '{first_src}'")
        return FinitePath(start_level, first_src, ids, self._vertices[start_level + len(ids)][at])

    def _follow(self, ids, start_level: int = 0):
        """:meth:`path`'s checks of ``ids``: the first source and last range indices, or Nones."""
        if not 0 <= start_level <= self.depth:
            raise PathError(f"start level {start_level} out of range 0..{self.depth}")
        if start_level + len(ids) > self.depth:
            raise PathError("path not in diagram: runs past the last level")
        # walk the integer indices: edge k of floor m runs from vertex
        # _src[m][k] of V(m) to vertex _rng[m][k] of V(m+1)
        eidx, src, rng, first, at = self._eidx, self._src, self._rng, None, None
        for m, eid in enumerate(ids, start_level):
            k = eidx[m].get(eid)
            if k is None:
                raise PathError(f"no edge '{eid}' at level {m + 1}")
            if at is None:
                at = first = src[m][k]
            elif src[m][k] != at:
                raise PathError(
                    f"path not in diagram: edge '{eid}' starts at "
                    f"'{self._vertices[m][src[m][k]]}', expected '{self._vertices[m][at]}'"
                )
            at = rng[m][k]
        return first, at

    def empty_path(self, vertex_id: str, level: int = 0) -> FinitePath:
        return self.path((), start_level=level, anchor=vertex_id)

    def contains_path(self, p: FinitePath) -> bool:
        try:
            rebuilt = self.path(p.edges, p.start_level, p.anchor)
        except PathError:
            return False
        return rebuilt == p

    def extensions(self, p: FinitePath) -> list[FinitePath]:
        """All one-edge extensions of ``p``, in edge order."""
        n = p.end_level
        if n >= self.depth:
            return []
        ids, rng, there = self._ids[n], self._rng[n], self._vertices[n + 1]
        return [
            FinitePath(p.start_level, p.anchor, p.edges + (ids[k],), there[rng[k]])
            for k in self._out[n][self.vertex_index(n, p.terminus)]
        ]


def _duplicates(n: int, kind: str, ids, index) -> list[Violation]:
    """A violation per repeat of an id in ``ids``; none when ``index``, the
    level's id map, has one key per id."""
    if len(index) == len(ids):
        return []
    seen, found = set(), []
    for x in ids:
        if x in seen:
            found.append(Violation(n, f"{kind} '{x}'", "duplicate identifier"))
        seen.add(x)
    return found


def _tree_levels(d: BratteliDiagram, from_level: int, to_level: int):
    """The index structure of the path tree from ``from_level`` to ``to_level``.

    Yields ``(prefix, last, ends)`` per level, paths in ``enumerate_paths``
    order: path j is path ``prefix[j]`` of the level before plus edge
    ``last[j]`` of its floor, and ends at vertex ``ends[j]`` of its level.
    The first level is the empty paths, one per vertex in vertex order, with
    empty ``prefix`` and ``last``; level from+1 runs in edge order, and later
    levels extend each path of the one before through its out-edges, in edge
    order.
    """
    if not 0 <= from_level <= to_level <= d.depth:
        raise PathError(
            f"level range {from_level}..{to_level} out of bounds for depth {d.depth}"
        )
    ends = list(range(len(d._vertices[from_level])))
    yield [], [], ends
    for m in range(from_level, to_level):
        out = d._out[m]
        if m == from_level:
            prefix, last = list(d._src[m]), list(range(len(d._ids[m])))
        else:
            prefix = [i for i, t in enumerate(ends) for _ in out[t]]
            last = [k for t in ends for k in out[t]]
        ends = [d._rng[m][k] for k in last]
        yield prefix, last, ends


def _path_levels(d: BratteliDiagram, from_level: int, to_level: int):
    """The path tree of ``_tree_levels`` with its paths: yields ``(paths,
    prefix, last, ends)`` per level."""
    levels = _tree_levels(d, from_level, to_level)
    for m, (prefix, last, ends) in enumerate(levels, start=from_level - 1):
        if m < from_level:
            paths = [FinitePath(from_level, v, (), v) for v in d._vertices[from_level]]
        else:
            ids, there = d._ids[m], d._vertices[m + 1]
            paths = [
                FinitePath(from_level, paths[i].anchor, paths[i].edges + (ids[k],), there[t])
                for i, k, t in zip(prefix, last, ends)
            ]
        yield paths, prefix, last, ends


def _label_levels(d: BratteliDiagram, from_level: int, to_level: int):
    """The rows of ``_path_levels`` with labels for paths: the prefix's label, a comma, the edge id."""
    for m, (prefix, last, ends) in enumerate(_tree_levels(d, from_level, to_level), start=from_level - 1):
        if m < from_level:
            labels = ["@" + v for v in d._vertices[from_level]]
        else:
            ids = list(map(d._ids[m].__getitem__, last))
            labels = ids if m == from_level else [f"{labels[i]},{x}" for i, x in zip(prefix, ids)]
        yield labels, prefix, last, ends


def _require_labels(d: BratteliDiagram):
    """PathError naming the first edge id, level by level, with a comma: labels join ids with commas."""
    bad = next(((n, x) for n, row in enumerate(d._ids, 1) for x in row if "," in x), None)
    if bad:
        raise PathError(f"edge id '{bad[1]}' at level {bad[0]} holds a comma, which path labels cannot name")


_MISSING = object()  # a slot of a CylinderTable that has no mass


class CylinderTable:
    """Masses on the paths from V(0) of ``diagram`` as ints, by slot (n, j):
    path j of level n of the path tree of ``_tree_levels``, one row per level,
    a list of numerators and one of denominators.  The tree grows as paths
    reach a new level, while its last level has at most ``limit`` paths: a
    table of at most ``limit`` masses lacks one there anyway, so a mass deeper
    is left out.  ``len`` counts the masses given, ``depth`` is the longest
    path given; a check takes each row once.  A slot is found one step from
    the last prefix."""

    def __init__(self, d: BratteliDiagram, limit: int):
        self.diagram, self.depth, self._limit, self._count = d, 0, limit, 0
        self._tree = _tree_levels(d, 0, d.depth)
        self._ends = next(self._tree)[2]  # the terminus of each path of the last level
        self._rows = [([_MISSING] * len(self._ends), [1] * len(self._ends))]  # numerators, denominators per level
        self._first = []  # per level, the place of each path's first extension in the next
        self._past = set()  # the edge ids of each path given on a level not held
        self._head, self._at = None, (None, None)  # the last located path's prefix ids, its slot and terminus

    @classmethod
    def of(cls, d: BratteliDiagram, mapping) -> "CylinderTable":
        """A mapping from paths to rational masses as a table, leaving out paths not from V(0) of ``d``."""
        table = cls(d, len(mapping))
        for a, x in mapping.items():
            if a.start_level == 0:
                with contextlib.suppress(PathError):
                    table.put(table.locate(a.edges) if a.edges else (0, d.vertex_index(0, a.anchor)),
                              as_fraction(x).as_integer_ratio())
        return table

    def __len__(self):
        return self._count

    def _grow(self, n: int) -> bool:
        """Whether level n is held, after growing the tree as far as ``limit`` lets it."""
        d, rows = self.diagram, self._rows
        while len(rows) <= min(n, d.depth) and len(self._ends) <= self._limit:
            out = d._out[len(rows) - 1]
            self._first.append(list(accumulate((len(out[t]) for t in self._ends), initial=0)))
            self._ends = next(self._tree)[2]
            rows.append(([_MISSING] * len(self._ends), [1] * len(self._ends)))
        return n < len(rows)

    def locate(self, ids) -> tuple:
        """The slot of the path from V(0) with the (one or more) edge ids
        ``ids``, one step from the last located path's prefix where it has that
        prefix, or (n, the ids) if its level n is not held; PathError, as
        ``d.path`` words it, if ``d`` has no such path."""
        d, n = self.diagram, len(ids)
        if n >= len(self._rows) and not self._grow(n):
            d._follow(ids)
            return n, tuple(ids)
        head = ids[:-1]
        start, (j, at) = (n - 1, self._at) if head == self._head else (0, (None, None))
        eidx, src, rng, out, first = d._eidx, d._src, d._rng, d._out, self._first
        for m in range(start, n):
            k = eidx[m].get(ids[m])
            if k is None or m and src[m][k] != at:
                d._follow(ids)  # raises the PathError that names the fault
            step = j, at
            j, at = first[m][j] + out[m][at].index(k) if m else k, rng[m][k]
        self._head, self._at = head, step
        return n, j

    def take(self, n: int) -> tuple[list, list]:
        """Row n, the numerators and the denominators of the masses of level n
        in path order, a numerator ``_MISSING`` where a path has none, handed
        over: the table keeps no reference to it, and a second take of it is
        refused.  Take level n only once level n-1 has all its masses: then it
        can grow."""
        self._grow(n)
        row, self._rows[n] = self._rows[n], None
        if row is None:
            raise IncompatibleData(f"level {n} of the cylinder table was taken already: a table is checked once")
        return row

    def put(self, slot, x) -> bool:
        """Give ``slot`` the mass ``x``, a (numerator, denominator) pair; False if it has one."""
        n, j = slot
        self._count += 1
        if n > self.depth:
            self.depth = n
        if type(j) is tuple:  # a level not held: the mass is left out, its path's ids kept
            if j in self._past:
                return False
            self._past.add(j)
        elif self._rows[n][0][j] is not _MISSING:
            return False
        else:
            self._rows[n][0][j], self._rows[n][1][j] = x
        return True


def _tree_path(d: BratteliDiagram, n: int, j: int) -> FinitePath:
    """Path ``j`` of level ``n`` of the path tree from V(0), traced back through its prefixes."""
    levels, ids = list(_tree_levels(d, 0, n)), []
    for m in range(n, 0, -1):
        ids.append(d._ids[m - 1][levels[m][1][j]])
        j = levels[m][0][j]
    return d.path(ids[::-1]) if ids else d.empty_path(d._vertices[0][j])


def enumerate_paths(d: BratteliDiagram, from_level: int, to_level: int) -> list[FinitePath]:
    """All paths from ``from_level`` to ``to_level``, lexicographic by edge index.

    Equal levels yield one empty path per vertex, in vertex order.
    """
    for paths, *_ in _path_levels(d, from_level, to_level):
        pass
    return paths


def _scatter_add(count: int, index, values) -> list:
    """Per slot 0..count-1, the sum of the ``values`` whose ``index`` is that slot."""
    sums = [0] * count
    for j, x in zip(index, values):
        sums[j] += x
    return sums


def _level_counts(d: BratteliDiagram, from_level: int, to_level: int):
    """Path counts from V(from_level) into each vertex of V(n), by the
    incidence recursion: yields one list per level n = from_level..to_level,
    indexed like ``d.vertices(n)``."""
    counts = [1] * len(d.vertices(from_level))
    yield counts
    for m in range(from_level, to_level):
        counts = _scatter_add(len(d._vertices[m + 1]), d._rng[m], map(counts.__getitem__, d._src[m]))
        yield counts


def count_paths(d: BratteliDiagram, from_level: int, to_level: int) -> dict[str, int]:
    """Path counts into each vertex of V(to_level), by the incidence recursion."""
    for n, counts in enumerate(_level_counts(d, from_level, to_level), from_level):
        pass
    return dict(zip(d.vertices(n), counts))


def tail_related(a: FinitePath, b: FinitePath) -> bool:
    """Whether (a, b) lies in the level-n relation: same length, same range.

    Both paths must start at level 0; cylinders Z(a, b) over such pairs
    generate the tail equivalence on the path space.
    """
    if a.start_level != 0 or b.start_level != 0:
        raise PathError("tail relation is defined on paths starting at level 0")
    return len(a) == len(b) and a.terminus == b.terminus


def subdiagram(d: BratteliDiagram, keep_vertices, keep_edges) -> BratteliDiagram:
    """Restriction of ``d`` to the given vertex/edge id sets (order preserved).

    ``keep_vertices``: one set per level 0..N; ``keep_edges``: one set per
    level 1..N.  The result reuses the original identifiers; InvalidDiagram
    if the sets leave a vertex without edges or an edge without an end."""
    vs = [
        [v for v in d.vertices(n) if v in keep_vertices[n]]
        for n in range(d.depth + 1)
    ]
    es = [
        [e for e in zip(*d._floors[m]) if e[0] in keep_edges[m]]
        for m in range(d.depth)
    ]
    return BratteliDiagram(vs, es)
