"""Skew products by group-valued edge potentials, and the worked generators.

The potential type, ``EdgePotential``, and the positive rationals live in
``walk``; the integer lattice lives here.  The skew product puts a group
coordinate on every vertex: an edge (e, g) runs from (s(e), g) to
(r(e), g * rho(e)).  Only the finitely many coordinates reachable from a
user-supplied initial window are materialized, level by level; the windowed
construction is equivariant under a common left translation of the window.
It runs over the base diagram's integer indices and keeps only what defines
the product: each level's sorted (base vertex index, element) keys and the
name of each distinct element, formatted once.  The skew product as a
``BratteliDiagram`` is built and validated when ``SkewDiagram.diagram`` is
first read (lifted walks read it); ``SkewDiagram.rows``, which the ``skew``
command prints, streams from the keys and builds none.

Two generator families live here as well: the binomial triangle with its
t-walk (whose cotransition is t-independent), and single-vertex diagrams
built from weighted group supports, where the potential is the inclusion of
the edge set into the group.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Sequence

from .diagram import BratteliDiagram, FinitePath
from .errors import IncompatibleData, SupportViolation, WindowError
from .rational import as_fraction, long_str
from .walk import EdgePotential, RandomWalk, build_walk

if TYPE_CHECKING:  # harmonic is imported by skew_harmonic, its one user
    from .harmonic import HarmonicSequence


@dataclass(frozen=True)
class ZLattice:
    """Integer vectors of a fixed rank under addition."""

    rank: int = 1

    def __post_init__(self):
        if self.rank < 1:
            raise IncompatibleData(f"lattice rank must be >= 1, got {self.rank}")

    @property
    def identity(self):
        return (0,) * self.rank

    def op(self, a, b):
        return tuple(map(operator.add, a, b))

    def inv(self, a):
        return tuple(map(operator.neg, a))

    def parse(self, raw):
        if isinstance(raw, bool):
            raise IncompatibleData(f"not a lattice element: {raw!r}")
        if isinstance(raw, int):
            raw = (raw,)
        if isinstance(raw, str):
            try:
                raw = tuple(int(part) for part in raw.split("_"))
            except ValueError:
                raise IncompatibleData(f"not a lattice element: {raw!r}") from None
        if isinstance(raw, (list, tuple)):
            if len(raw) != self.rank or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in raw
            ):
                raise IncompatibleData(
                    f"not a rank-{self.rank} lattice element: {raw!r}"
                )
            return tuple(raw)
        raise IncompatibleData(f"not a lattice element: {raw!r}")

    def format(self, g) -> str:
        return "_".join(str(x) for x in g)


def _skew_edges(d: BratteliDiagram, rho: EdgePotential, keys, m: int):
    """The skew edges over floor m+1 out of the level-m ``keys``, in edge
    order: (source element g, base edge index k, range element g rho(e_k))."""
    out, row, op = d._out[m], rho._rho[m], rho.group.op
    for i, g in keys:
        for k in out[i]:
            yield g, k, op(g, row[k])


@dataclass(frozen=True, eq=False)
class SkewDiagram:
    """A windowed skew product: the base diagram with group coordinates.

    Level n is ``_keys[n]``, its (base vertex index, group element) keys in
    sorted order, and ``_names`` names each element; every accessor reads
    these.  ``diagram``, the product as a valid Bratteli diagram whose ids
    are 'base@element', is built on first read."""

    base: BratteliDiagram
    group: object
    potential: EdgePotential
    initial_window: tuple
    _keys: tuple
    _names: dict

    @cached_property
    def diagram(self) -> BratteliDiagram:
        d, names = self.base, self._names
        vertex_levels = [
            [f"{ids[i]}@{names[g]}" for i, g in level] for ids, level in zip(d._vertices, self._keys)
        ]
        edge_levels = []
        for m, (ids, src, rng) in enumerate(zip(d._ids, d._src, d._rng)):
            here, there = d._vertices[m], d._vertices[m + 1]
            edge_levels.append([
                (f"{ids[k]}@{names[g]}", f"{here[src[k]]}@{names[g]}", f"{there[rng[k]]}@{names[g2]}")
                for g, k, g2 in _skew_edges(d, self.potential, self._keys[m], m)
            ])
        skewed = BratteliDiagram(vertex_levels, edge_levels)
        skewed.require_valid()
        return skewed

    def rows(self):
        """(level, id, element) per skew vertex, level by level in vertex
        order, then per skew edge in edge order, where an edge (e, g) carries
        g rho(e), the element of its range vertex; streamed from the keys."""
        d, names = self.base, self._names
        for n, (ids, level) in enumerate(zip(d._vertices, self._keys)):
            for i, g in level:
                yield n, f"{ids[i]}@{names[g]}", names[g]
        for m, ids in enumerate(d._ids):
            for g, k, g2 in _skew_edges(d, self.potential, self._keys[m], m):
                yield m + 1, f"{ids[k]}@{names[g]}", names[g2]

    def window(self, n: int) -> tuple:
        """Group elements present at level n, sorted."""
        return tuple(sorted({g for _, g in self._keys[n]}))

    def vertex_pairs(self, n: int) -> tuple:
        """(base vertex id, group element) per skew vertex, in vertex order."""
        ids = self.base._vertices[n]
        return tuple((ids[i], g) for i, g in self._keys[n])

    def edge_pairs(self, n: int) -> tuple:
        """(base edge id, source group element) per skew edge, in edge order."""
        ids, out = self.base._edge_ids(n), self.base._out[n - 1]
        return tuple((ids[k], g) for i, g in self._keys[n - 1] for k in out[i])

    def vertex_id(self, n: int, base_vertex: str, g) -> str:
        name = self.group.format(g)
        if self.base.has_vertex(n, base_vertex):
            # the keys of base vertex i are a run of the sorted level
            keys, i = self._keys[n], self.base._vidx[n][base_vertex]
            run = keys[bisect.bisect_left(keys, (i,)):bisect.bisect_left(keys, (i + 1,))]
            if any(self._names[h] == name for _, h in run):
                return f"{base_vertex}@{name}"
        raise WindowError(f"group element {name} is not in the level-{n} window (vertex '{base_vertex}')")

    def source_range_law_holds(self) -> bool:
        """s(e,g) = (s(e), g) and r(e,g) = (r(e), g rho(e)) on every skew edge."""
        for n in range(1, self.diagram.depth + 1):
            for edge, (base_id, g) in zip(self.diagram.edges(n), self.edge_pairs(n)):
                base_edge = self.base.edge(n, base_id)
                g2 = self.group.op(g, self.potential(n, base_id))
                if edge.src != f"{base_edge.src}@{self.group.format(g)}":
                    return False
                if edge.rng != f"{base_edge.rng}@{self.group.format(g2)}":
                    return False
        return True


def skew_product(d: BratteliDiagram, rho: EdgePotential, initial_window, *,
                 max_edges: int = 1_000_000) -> SkewDiagram:
    """The reachable part of the skew product over the initial window.

    Only the sorted keys of each level and the element names are computed;
    the skew diagram itself is built when ``diagram`` is first read.  Floor
    m+1 has one skew edge per out-edge of each level-m key, counted before it
    is built: WindowError, stating the count, once the edges to that floor
    would number more than ``max_edges``."""
    d.require_valid()
    if rho.diagram is not d:
        raise IncompatibleData("potential must be built on the diagram being skewed")
    group = rho.group
    window0 = sorted({group.parse(g) for g in initial_window})
    if not window0:
        raise WindowError("initial window is empty")
    keys, count = [], 0
    level = {(i, g) for i in range(len(d._vertices[0])) for g in window0}
    for m, (rng, out) in enumerate(zip(d._rng, d._out)):
        count += sum(len(out[i]) for i, _ in level)  # a refused level is not sorted
        if count > max_edges:
            raise WindowError(f"skew product to level {m + 1} lists {count} edges, over the limit of {max_edges}")
        keys.append(tuple(sorted(level)))
        level = {(rng[k], g2) for _, k, g2 in _skew_edges(d, rho, keys[m], m)}
    keys.append(tuple(sorted(level)))
    names: dict = {}  # each element's name, formatted once, when no floor is refused
    for level in keys:
        for _, g in level:
            if g not in names:
                names[g] = group.format(g)
    return SkewDiagram(d, group, rho, tuple(window0), tuple(keys), names)


def lift_walk(sd: SkewDiagram, w: RandomWalk, lam0: Mapping) -> RandomWalk:
    """The base walk on the skew diagram: p(e,g) = p(e), initial mass
    nu0(v) * lam0(g) normalized over the initial window."""
    if w.diagram is not sd.base:
        raise IncompatibleData("walk must live on the skew product's base diagram")
    weights = {}
    for raw, value in lam0.items():
        g = sd.group.parse(raw)
        if g not in sd.initial_window:
            raise WindowError(
                f"initial weight given for {sd.group.format(g)}, which is outside the window"
            )
        weights[g] = as_fraction(value)
    for g in sd.initial_window:
        if g not in weights:
            raise WindowError(f"no initial weight for window element {sd.group.format(g)}")
        if weights[g] <= 0:
            raise SupportViolation(
                f"initial weight of {sd.group.format(g)} is {long_str(weights[g])}, not positive"
            )
    total = sum(weights.values())
    # the skew diagram lists its vertices in key order and its edges in
    # _skew_edges order, so nu0 and p are read by index
    skewed, nu0, p = sd.diagram, w.initial._nu0, w.transition._rho
    nu = {v: nu0[i] * weights[g] / total for v, (i, g) in zip(skewed.vertices(0), sd._keys[0])}
    p_levels = []
    for m, keys in enumerate(sd._keys[:-1]):
        edges = _skew_edges(sd.base, sd.potential, keys, m)
        p_levels.append({eid: p[m][k] for eid, (_, k, _) in zip(skewed._ids[m], edges)})
    return build_walk(skewed, p_levels, nu)


def skew_harmonic(
    sd: SkewDiagram, w: RandomWalk, lam0: Mapping, terminal: Mapping
) -> HarmonicSequence:
    """Harmonic sequence on the skew diagram from terminal data keyed by
    (base vertex id, group element) pairs."""
    from .harmonic import harmonic_from_terminal

    lifted = lift_walk(sd, w, lam0)
    n = sd.diagram.depth
    data = {}
    for (v, raw), value in terminal.items():
        g = sd.group.parse(raw)
        data[sd.vertex_id(n, v, g)] = as_fraction(value)
    return harmonic_from_terminal(lifted, data)


# -- generators ---------------------------------------------------------------


def pascal_diagram(depth: int, t) -> tuple[BratteliDiagram, RandomWalk]:
    """The binomial triangle of the given depth with the (1-t, t) walk.

    Vertices are 'n:k'; the two edges out of (n-1, k) are 'n-1:k:0' (stay,
    probability 1-t) and 'n-1:k:1' (step, probability t).  The cotransition
    works out to 1 - k/n and k/n on the in-edges of (n, k), independent of t.
    """
    if depth < 1:
        raise IncompatibleData(f"depth must be >= 1, got {depth}")
    t = as_fraction(t)
    if not 0 < t < 1:
        raise SupportViolation(f"t must satisfy 0 < t < 1, got {t}")
    vertices = [[f"{n}:{k}" for k in range(n + 1)] for n in range(depth + 1)]
    edges, p_levels = [], []
    for n in range(1, depth + 1):
        row, p_row = [], {}
        for k in range(n):
            stay, step = f"{n - 1}:{k}:0", f"{n - 1}:{k}:1"
            row += [(stay, f"{n - 1}:{k}", f"{n}:{k}"), (step, f"{n - 1}:{k}", f"{n}:{k + 1}")]
            p_row[stay], p_row[step] = 1 - t, t
        edges.append(row)
        p_levels.append(p_row)
    d = BratteliDiagram(vertices, edges)
    return d, build_walk(d, p_levels, {"0:0": 1})


def pascal_edge_potential(d: BratteliDiagram) -> EdgePotential:
    """The step indicator as a rank-1 lattice potential on a triangle diagram."""
    values = [
        {x: (int(x.rsplit(":", 1)[1]),) for x in ids} for ids in d._ids
    ]
    return EdgePotential(d, ZLattice(1), values)


def pascal_path(d: BratteliDiagram, bits: str) -> FinitePath:
    """The path of a 0/1 word: start at '0:0' and follow the labeled edges."""
    k = 0
    ids = []
    for n, bit in enumerate(bits):
        if bit not in "01":
            raise IncompatibleData(f"path word must be over 0/1, got {bits!r}")
        ids.append(f"{n}:{k}:{bit}")
        k += int(bit)
    return d.path(ids) if ids else d.empty_path("0:0")


def uhf_from_group_walk(
    group, supports: Sequence[Mapping]
) -> tuple[BratteliDiagram, RandomWalk, EdgePotential]:
    """Single-vertex levels whose edges are weighted group elements.

    Level n has one vertex 'u<n>' and one edge per element of the n-th
    support, weighted by the given probabilities; the potential sends each
    edge to its group element, so the cylinder measure of a word is the
    product of its letter weights.
    """
    if not supports:
        raise IncompatibleData("need at least one support level")
    parsed = []
    for m, support in enumerate(supports):
        if not support:
            raise IncompatibleData(f"support at level {m + 1} is empty")
        row = []
        for raw, weight in support.items():
            g = group.parse(raw)
            wt = as_fraction(weight)
            if wt <= 0:
                raise SupportViolation(
                    f"weight of {group.format(g)} at level {m + 1} is {long_str(wt)}, not positive"
                )
            row.append((g, wt))
        row.sort(key=lambda item: item[0])
        total = sum(wt for _, wt in row)
        if total != 1:
            raise SupportViolation(f"weights at level {m + 1} sum to {long_str(total)}, not 1")
        parsed.append(row)
    vertices = [[f"u{n}"] for n in range(len(parsed) + 1)]
    edges, p_levels, rho_levels = [], [], []
    for m, row in enumerate(parsed):
        n = m + 1
        level, p_row, rho_row = [], {}, {}
        for g, wt in row:
            eid = f"{n}:{group.format(g)}"
            level.append((eid, f"u{n - 1}", f"u{n}"))
            p_row[eid] = wt
            rho_row[eid] = g
        edges.append(level)
        p_levels.append(p_row)
        rho_levels.append(rho_row)
    d = BratteliDiagram(vertices, edges)
    walk = build_walk(d, p_levels, {"u0": 1})
    rho = EdgePotential(d, group, rho_levels)
    return d, walk, rho
