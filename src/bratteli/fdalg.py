"""Algebras of finite equivalence relations and conditional expectations.

The algebra of a finite equivalence relation R on X is the set of matrices
supported on R: block-diagonal, one full matrix block per class, with the
canonical matrix units e(x,y) indexed by pairs in R.  An inclusion graph is
a one-floor Bratteli diagram (V, E, Vbar) with a point set X over V; it
induces the bigger relation on Xbar = {(x,a): the vertex of x is the source
of a} classified by the range of the edge; the inclusion j and the commutant
embedding k identify the base algebra and its relative commutant inside the
big one.  A transition probability on the edges, the walk's p on that one
floor, defines the model conditional expectation
Q(f)(x,y) = sum over edges c out of the vertex of x of p(c) f(xc, yc), which
factors as a pinching onto the equal-edge subrelation followed by averaging.

Probabilities, the expectation checks and the commutant are exact: the checks
and the commutant take ints and Fractions and refuse any other entry.  Phases,
unit extension and states use complex doubles compared with one tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Mapping, Sequence

import numpy as np

from .diagram import BratteliDiagram
from .errors import (
    IncompatibleData,
    NotACocycle,
    NotAMatrixUnit,
    ShapeMismatch,
    SupportViolation,
)
from .rational import long_str
from .walk import TransitionProbability

TOL = 1e-9  # comparison tolerance of the phase, cocycle and state code


class FiniteEquivRelation:
    """Classes of a surjection r: X -> V; the relation is r(x) = r(y)."""

    def __init__(self, X: Sequence, V: Sequence, r: Mapping):
        self.X = tuple(X)
        self.V = tuple(V)
        if len(set(self.X)) != len(self.X):
            raise IncompatibleData("relation: duplicate elements in X")
        if len(set(self.V)) != len(self.V):
            raise IncompatibleData("relation: duplicate labels in V")
        self._r = {}
        fibers = {v: [] for v in self.V}
        for x in self.X:
            if x not in r:
                raise IncompatibleData(f"relation: no label for element {x!r}")
            v = self._r[x] = r[x]
            if v not in fibers:
                raise IncompatibleData(f"relation: label {v!r} of {x!r} not in V")
            fibers[v].append(x)
        for v, xs in fibers.items():
            if not xs:
                raise IncompatibleData(f"relation: label {v!r} has an empty class")
        self._fibers = {v: tuple(xs) for v, xs in fibers.items()}

    @classmethod
    def from_partition(cls, blocks: Sequence[Sequence]) -> "FiniteEquivRelation":
        X, r = [], {}
        labels = [f"c{i}" for i in range(len(blocks))]
        for label, block in zip(labels, blocks):
            for x in block:
                X.append(x)
                r[x] = label
        return cls(X, labels, r)

    def label(self, x):
        if x not in self._r:
            raise IncompatibleData(f"relation: {x!r} not in X")
        return self._r[x]

    def related(self, x, y) -> bool:
        return x in self._r and y in self._r and self._r[x] == self._r[y]

    def class_of(self, x) -> tuple:
        return self._fibers[self.label(x)]

    def classes(self) -> tuple[tuple, ...]:
        return tuple(self._fibers[v] for v in self.V)

    def pairs(self):
        """All pairs of the relation, class by class, row-major within a class."""
        for cls_ in self.classes():
            for x in cls_:
                for y in cls_:
                    yield (x, y)

    @cached_property
    def _pair_index(self) -> tuple:
        """Pairs numbered in ``pairs()`` order: (point, first, place, rows,
        cols), where x = X[point[x]], pair k is (X[rows[k]], X[cols[k]]), and
        (X[i], X[j]) is pair first[i] + place[j], for X[j] at place[j] in
        its class."""
        point = {x: i for i, x in enumerate(self.X)}
        first, place, rows, cols = [0] * len(self.X), [0] * len(self.X), [], []
        for cls_ in self.classes():
            members = [point[x] for x in cls_]
            for p, i in enumerate(members):
                first[i], place[i] = len(rows), p
                rows += [i] * len(members)
                cols += members
        return point, first, place, rows, cols

    @property
    def dimension(self) -> int:
        return sum(len(c) ** 2 for c in self.classes())

    def __len__(self):
        return len(self.X)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FiniteEquivRelation)
            and self.X == other.X
            and self.V == other.V
            and self._r == other._r
        )

    def __hash__(self):
        return hash((self.X, self.V, tuple(sorted(self._r.items(), key=repr))))


class AlgebraElement:
    """A matrix supported on a finite equivalence relation, stored sparsely.

    Entries may be ints, Fractions, floats, or complex numbers; arithmetic
    keeps exact types exact and only widens where an operand forces it.
    """

    __slots__ = ("relation", "entries")

    def __init__(self, relation: FiniteEquivRelation, entries: Mapping):
        clean = {}
        for (x, y), v in entries.items():
            if not relation.related(x, y):
                raise ShapeMismatch(f"entry at ({x!r}, {y!r}) is outside the relation")
            if v == 0:
                continue
            clean[(x, y)] = v
        self.relation = relation
        self.entries = clean

    @classmethod
    def _valid(cls, relation: FiniteEquivRelation, entries: Mapping) -> "AlgebraElement":
        """The element with ``entries``, which the caller knows lie on the
        relation; zeros are dropped, the support is not tested."""
        self = object.__new__(cls)
        self.relation = relation
        self.entries = _nonzero(entries)
        return self

    @classmethod
    def zero(cls, relation) -> "AlgebraElement":
        return cls(relation, {})

    def _same_relation(self, other: "AlgebraElement"):
        if self.relation != other.relation:
            raise ShapeMismatch("elements live on different relations")

    def __add__(self, other):
        self._same_relation(other)
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0) + v
        return AlgebraElement._valid(self.relation, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return AlgebraElement._valid(self.relation, {k: -v for k, v in self.entries.items()})

    def scale(self, scalar):
        return AlgebraElement._valid(self.relation, {k: scalar * v for k, v in self.entries.items()})

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return self.scale(other)
        self._same_relation(other)
        rows: dict = {}  # y -> [(z, other(y,z)), ...] in entry order
        for (y, z), v in other.entries.items():
            rows.setdefault(y, []).append((z, v))
        out: dict = {}
        for (x, y), u in self.entries.items():
            for z, v in rows.get(y, ()):
                out[x, z] = out[x, z] + u * v if (x, z) in out else u * v
        return AlgebraElement._valid(self.relation, out)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement._valid(
            self.relation, {(y, x): v.conjugate() for (x, y), v in self.entries.items()}
        )

    def trace(self):
        return sum((v for (x, y), v in self.entries.items() if x == y), 0)

    def max_abs(self) -> int | Fraction | float:
        """The largest |entry|, 0 if none: exact on exact entries."""
        return max((abs(v) for v in self.entries.values()), default=0)

    def distance(self, other: "AlgebraElement") -> int | Fraction | float:
        return (self - other).max_abs()

    def to_dense(self) -> np.ndarray:
        """Dense |X| x |X| complex matrix (for oracles and eigensolvers)."""
        index = {x: i for i, x in enumerate(self.relation.X)}
        out = np.zeros((len(index), len(index)), dtype=complex)
        for (x, y), v in self.entries.items():
            out[index[x], index[y]] = complex(v)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.relation == other.relation
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def __repr__(self):
        return f"AlgebraElement({len(self.entries)} entries on {len(self.relation)} points)"


def _nonzero(entries: Mapping) -> dict:
    return {k: v for k, v in entries.items() if v != 0}


_EXACT = (int, Fraction)


def matrix_unit(rel: FiniteEquivRelation, x, y) -> AlgebraElement:
    if not rel.related(x, y):
        raise IncompatibleData(f"({x!r}, {y!r}) is not in the relation")
    return AlgebraElement._valid(rel, {(x, y): 1})


def identity_element(rel: FiniteEquivRelation) -> AlgebraElement:
    return AlgebraElement._valid(rel, {(x, x): 1 for x in rel.X})


def canonical_units(rel: FiniteEquivRelation) -> dict:
    return {(x, y): matrix_unit(rel, x, y) for (x, y) in rel.pairs()}


class InclusionGraph:
    """A one-floor Bratteli diagram (V, E, Vbar) with a point set X lying over V.

    ``diagram`` must be a valid diagram of depth 1: V = V(0), E = E(1) and
    Vbar = V(1).  ``vertex_of`` maps X, in its key order, onto V.  The derived
    point set Xbar consists of the composable pairs (x, e) with
    vertex_of(x) = source_of(e), ordered X-major then E within x.
    """

    def __init__(self, diagram: BratteliDiagram, vertex_of: Mapping):
        if diagram.depth != 1:
            raise IncompatibleData(f"inclusion graph: diagram has depth {diagram.depth}, need 1")
        diagram.require_valid()
        self.diagram = diagram
        edges = diagram.edges(1)
        self.V = diagram.vertices(0)
        self.E = tuple(e.id for e in edges)
        self.Vbar = diagram.vertices(1)
        self.vertex_of = dict(vertex_of)
        self.source_of = {e.id: e.src for e in edges}
        self.range_of = {e.id: e.rng for e in edges}
        self.X = tuple(self.vertex_of)
        self._base = FiniteEquivRelation(self.X, self.V, self.vertex_of)
        self._out_edges = {v: tuple(self.E[k] for k in ks) for v, ks in zip(self.V, diagram._out[0])}
        self.Xbar = tuple((x, e) for x in self.X for e in self._out_edges[self.vertex_of[x]])
        self._big = FiniteEquivRelation(
            self.Xbar, self.Vbar, {(x, e): self.range_of[e] for (x, e) in self.Xbar}
        )
        self._pinched = FiniteEquivRelation(self.Xbar, self.E, {(x, e): e for (x, e) in self.Xbar})
        label = {e.id: (e.src, e.rng) for e in edges}
        self._commutant = FiniteEquivRelation(self.E, dict.fromkeys(label.values()), label)

    def fiber(self, v) -> tuple:
        return self._base._fibers.get(v, ())

    def out_edges(self, v) -> tuple:
        return self._out_edges.get(v, ())

    def base_relation(self) -> FiniteEquivRelation:
        return self._base

    def big_relation(self) -> FiniteEquivRelation:
        """Relation on Xbar: (x,a) ~ (y,b) iff the edges share their range."""
        return self._big

    def commutant_relation(self) -> FiniteEquivRelation:
        """Relation on E: parallel edges (same source and same range)."""
        return self._commutant

    def pinched_relation(self) -> FiniteEquivRelation:
        """Subrelation of the big one with equal edge coordinates."""
        return self._pinched


def _epsilon(g: InclusionGraph, c) -> AlgebraElement:
    """eps(c) for an edge c of ``g``."""
    return AlgebraElement._valid(
        g.big_relation(), {((x, c), (x, c)): 1 for x in g.fiber(g.source_of[c])}
    )


def include_j(g: InclusionGraph, f: AlgebraElement) -> AlgebraElement:
    """j(f)(xa, yb) = f(x,y) when a = b, else 0: the unital inclusion."""
    if f.relation != g.base_relation():
        raise ShapeMismatch("include_j wants an element over the graph's base relation")
    out = {}
    for (x, y), v in f.entries.items():
        for e in g.out_edges(g.vertex_of[x]):
            out[((x, e), (y, e))] = v
    return AlgebraElement._valid(g.big_relation(), out)


def commutant_embed_k(g: InclusionGraph, h: AlgebraElement) -> AlgebraElement:
    """k(h)(xa, yb) = h(a,b) when x = y, else 0: onto the relative commutant."""
    if h.relation != g.commutant_relation():
        raise ShapeMismatch("commutant_embed_k wants an element over the parallel-edge relation")
    out = {}
    for (a, b), v in h.entries.items():
        for x in g.fiber(g.source_of[a]):
            out[((x, a), (x, b))] = v
    return AlgebraElement._valid(g.big_relation(), out)


class ModelExpectation:
    """The expectation defined by a transition probability on the edges."""

    def __init__(self, g: InclusionGraph, p: Mapping):
        self.graph = g
        self.p = TransitionProbability(g.diagram, [p]).level(1)

    def __call__(self, fbar: AlgebraElement) -> AlgebraElement:
        """Q(f)(x,y) = sum of p(c) f(xc, yc)."""
        g, p = self.graph, self.p
        if fbar.relation != g.big_relation():
            raise ShapeMismatch("expectation wants an element over the graph's big relation")
        out: dict = {}
        for ((x, a), (y, b)), v in fbar.entries.items():
            if a == b:
                key = (x, y)
                out[key] = out.get(key, 0) + p[a] * v
        return AlgebraElement._valid(g.base_relation(), out)

    def as_endomorphism(self) -> Callable[[AlgebraElement], AlgebraElement]:
        """Q followed by j: the expectation as a map of the big algebra."""
        return lambda fbar: include_j(self.graph, self(fbar))

    def epsilon(self, c) -> AlgebraElement:
        """The projection eps(c) = sum over x with vertex s(c) of e(xc, xc)."""
        if c not in self.graph.source_of:
            raise IncompatibleData(f"no edge {c!r}")
        return _epsilon(self.graph, c)

    def subalgebra_basis(self) -> list[AlgebraElement]:
        """The j-images of the canonical units of the base relation."""
        base = self.graph.base_relation()
        return [include_j(self.graph, matrix_unit(base, x, y)) for (x, y) in base.pairs()]


@dataclass
class ExpectationReport:
    """Outcome of the conditional-expectation axiom checks."""

    CHECKS = ("unital", "idempotent", "range_in_subalgebra", "bimodular", "positive", "faithful")

    unital: bool = True
    idempotent: bool = True
    range_in_subalgebra: bool = True
    bimodular: bool = True
    positive: bool = True
    faithful: bool = True
    failures: list = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(getattr(self, check) for check in self.CHECKS)

    def _fail(self, which: str, message: str):
        setattr(self, which, False)
        if len(self.failures) < 8:
            self.failures.append(f"{which}: {message}")


def verify_expectation(
    Q: Callable[[AlgebraElement], AlgebraElement],
    ambient: FiniteEquivRelation,
    sub_basis: Sequence[AlgebraElement],
) -> ExpectationReport:
    """Check the conditional-expectation axioms for an endomorphism Q.

    Q must map the ambient relation algebra to itself and be deterministic
    (entries equal in value and type give the same result); sub_basis spans
    the target subalgebra.
    Checks: unitality, idempotence, range inside the span of sub_basis,
    left/right module property over sub_basis (which gives the two-sided
    version by composing the one-sided identities), positivity of Q(f*f) on
    random f, and faithfulness via positive definiteness of the class Gram
    matrices t(u,v) = trace Q(e(u,v)).

    Every check is exact.  Entries of sub_basis and of every value of Q the
    checks read must be ints and Fractions, or IncompatibleData is raised;
    sub_basis (and its relation) is checked before Q is first applied.  A
    value of Q off the ambient relation raises ShapeMismatch, a unit image
    after the unital check.  Range, positivity and faithfulness are decided
    by the integer elimination of ``_reduce`` and ``_semidefinite``.

    Q is applied once to each matrix unit, built for that call only, and
    each image is held as a column keyed by pair number, one column shared
    by all images 0; idempotence hands Q the image rebuilt from its column,
    Q's own entries in Q's order.  The module and faithfulness checks read
    the columns instead of applying Q again where the element to map is a
    matrix unit or zero, as every product of a unit with the j-image of a
    matrix unit is.  So Q gets the arguments, in the order, it got when
    every image was held whole; linearity of Q is not assumed.

    Q(0) is computed once, before the module check.  If it is 0, the module
    check pairs each basis element m with the units u whose products m u,
    u m, m Q(u) or Q(u) m can be non-empty, in unit order: every other pair
    compares Q(0) with two empty products and holds.  If Q(0) is not 0, every
    pair is checked.

    The three positivity samples f*f have, on each class, the block B^T B of
    a block B of entries ``rng.randint(-3, 3)`` drawn row by row from
    ``rng = random.Random(7)``.  The samples are real, so a map that is
    positive on real f only passes: (tr f / 2 + (f(1,2) - f(2,1)) / 3) 1 on
    M_2 over C 1 is one; its trace form is not hermitian, so all_pass is
    False anyway.
    """
    one = identity_element(ambient)
    for m in sub_basis:
        m._same_relation(one)
    _require_exact(sub_basis, "sub_basis has non-exact entries; the checks need exact arithmetic")
    rng = random.Random(7)
    report = ExpectationReport()
    point, first, place, row_of, col_of = ambient._pair_index

    def pair(k):
        return ambient.X[row_of[k]], ambient.X[col_of[k]]

    def element(col):
        return AlgebraElement._valid(ambient, {pair(j): v for j, v in col.items()})

    def column(f):  # f's entries keyed by pair number, zeros kept
        one._same_relation(f)
        out = {}
        for (x, y), v in f.entries.items():
            if not ambient.related(x, y):
                raise ShapeMismatch(f"entry at ({x!r}, {y!r}) is outside the relation")
            out[first[point[x]] + place[point[y]]] = v
        return out or empty

    q_one = Q(one)
    columns, exact, empty = [], True, {}
    for k in range(len(row_of)):
        image = Q(element({k: 1}))
        exact = exact and all(isinstance(v, _EXACT) for v in image.entries.values())
        columns.append(column(image) if image.relation == ambient else None)
    if not exact:
        raise IncompatibleData("a unit image has non-exact entries; the checks need exact arithmetic")
    if d := _exact(q_one, "Q(1)").distance(one):
        report._fail("unital", f"Q(1) differs from 1 by {float(d):.3g}")
    if None in columns:
        raise ShapeMismatch("elements live on different relations")
    for k, col in enumerate(columns):
        image = element(col)
        if d := _exact(Q(image), "Q(Q(u))").distance(image):
            report._fail("idempotent", f"Q^2 != Q at unit {pair(k)}: off by {float(d):.3g}")
            break

    # range: the sub-basis in echelon form, each image reduced against it
    echelon: dict = {}
    for m in sub_basis:
        if row := _reduce(echelon, column(m)):
            echelon[next(iter(row))] = row
    for k, col in enumerate(columns):
        if col and _reduce(echelon, col):
            report._fail("range_in_subalgebra", f"Q(unit {pair(k)}) leaves the subalgebra span")
            break

    # Side 0 is Q(m u) = m Q(u) for u = e(s,t): m u moves column s of m to
    # column t, and entry (y,z) of Q(u) meets column y of m.  Side 1 is
    # Q(u m) = Q(u) m, on row t of m and row z at entry (y,z).  A line of one
    # int 1 makes the product a unit, read off its column, and an empty line
    # makes it 0.  A column (row) c of m touches the units it can meet there.
    q_zero = column(_exact(Q(AlgebraElement.zero(ambient)), "Q(0)"))
    meets, parts = (row_of, col_of), ([place[j] for j in col_of], [first[i] for i in row_of])
    touching: tuple = ({}, {})
    for k, col in enumerate(columns):
        for meet, by in zip(meets, touching):
            for p in {meet[k], *map(meet.__getitem__, col)}:
                by.setdefault(p, []).append(k)

    def module_fault(m):
        """The first failing module identity of m, as its message, or None."""
        # m's column y holds (first[x], c) and its row x holds (place[y], c),
        # for c = m(x,y), or None where that is an int 1
        lines: tuple = ({}, {})
        for (x, y), c in m.entries.items():
            i, j, c = point[x], point[y], None if type(c) is int and c == 1 else c
            lines[0].setdefault(j, []).append((first[i], c))
            lines[1].setdefault(i, []).append((place[j], c))
        touched = {k for by, at in zip(touching, lines) for p in at for k in by.get(p, ())}
        for k in range(len(row_of)) if q_zero else sorted(touched):
            for side, (at, meet, part) in enumerate(zip(lines, meets, parts)):
                line = at.get(meet[k])
                if line is None:
                    q = q_zero
                elif len(line) == 1 and line[0][1] is None:
                    q = columns[line[0][0] + part[k]]
                else:
                    u = element({k: 1})
                    q = column(_exact(Q(u * m if side else m * u), ("Q(m u)", "Q(u m)")[side]))
                prod: dict = {}
                for j, v in columns[k].items():
                    for a, c in at.get(meet[j], ()):
                        key, w = a + part[j], v if c is None else c * v
                        prod[key] = prod[key] + w if key in prod else w
                if prod != q and _nonzero(prod) != q:
                    f = element(columns[k])
                    if off := element(q).distance(f * m if side else m * f):
                        fault = "Q(f m) != Q(f) m" if side else "Q(m f) != m Q(f)"
                        return f"{fault}, off by {float(off):.3g}"
        return None

    if bad := next(filter(None, map(module_fault, sub_basis)), None):
        report._fail("bimodular", bad)

    classes = ambient.classes()
    for _ in range(3):
        entries: dict = {}
        for cls_ in classes:
            cols = list(zip(*[[rng.randint(-3, 3) for _ in cls_] for _ in cls_]))
            gram = [[sum(u * v for u, v in zip(a, b)) for b in cols] for a in cols]
            for i, x in enumerate(cls_):
                for j, y in enumerate(cls_):
                    entries[(x, y)] = gram[i][j]
        image = _exact(Q(AlgebraElement._valid(ambient, entries)), "Q(f*f)")
        for cls_ in classes:
            rows = [[image.entries.get((x, y), 0) for y in cls_] for x in cls_]
            if off := _asymmetry(rows):
                report._fail("positive", f"Q(f*f) not self-adjoint (off by {float(off):.3g})")
                break
            if not _semidefinite(rows, definite=False):
                report._fail("positive", f"Q(f*f) is not positive on the class of {cls_[0]!r}")
                break
        if not report.positive:
            break

    traces = [sum((v for j, v in col.items() if row_of[j] == col_of[j]), 0) for col in columns]
    for cls_ in classes:
        rows = [traces[first[point[x]]:first[point[x]] + len(cls_)] for x in cls_]
        if off := _asymmetry(rows):
            report._fail("faithful", f"trace form not hermitian (off by {float(off):.3g})")
            break
        if not _semidefinite(rows, definite=True):
            report._fail("faithful", f"trace form on class of {cls_[0]!r} is not positive definite")
            break
    return report


def _exact(image: AlgebraElement, what: str) -> AlgebraElement:
    """``image``, a value of Q named ``what``, once its entries are exact."""
    if all(isinstance(v, _EXACT) for v in image.entries.values()):
        return image
    raise IncompatibleData(f"{what} has non-exact entries; the checks need exact arithmetic")


def _require_exact(elements: Sequence[AlgebraElement], message: str):
    """Raise IncompatibleData(message) unless every entry of ``elements`` is
    an int or a Fraction."""
    if not all(isinstance(v, _EXACT) for m in elements for v in m.entries.values()):
        raise IncompatibleData(message)


def _asymmetry(rows):
    """The largest |a(i,j) - a(j,i)| of a non-empty square matrix of ints and
    Fractions."""
    return max(abs(a - b) for row, col in zip(rows, zip(*rows)) for a, b in zip(row, col))


def _semidefinite(rows, definite: bool) -> bool:
    """Whether the symmetric matrix ``rows`` of ints and Fractions is positive
    semidefinite: each LDL^T pivot is > 0, or 0 with a zero row; or definite."""
    echelon: dict = {}
    for i, row in enumerate(rows):
        rest = _reduce(echelon, dict(enumerate(row)))
        pivot = rest.get(i, 0)
        if pivot < 0 or not pivot and (definite or rest):
            return False
        if pivot:
            echelon[i] = rest
    return True


def _reduce(echelon: dict, row: Mapping) -> dict:
    """The exact elimination kernel: a sparse row of ints and Fractions, scaled
    to integers, minus the combination of the rows of ``echelon`` (pivot column
    -> integer row that is 0 at every earlier pivot) that clears every pivot
    column.  Fraction-free: each step cross-multiplies by the pivot, as Bareiss
    does (Math. Comp. 22, 1968), then divides out the row's gcd.  The result is
    a multiple of that difference, positive when every pivot is."""
    den = lcm(*(v.denominator for v in row.values()))
    row = {k: v.numerator * (den // v.denominator) for k, v in row.items() if v}
    for c, top in echelon.items():
        if a := row.get(c):
            row = {k: top[c] * row.get(k, 0) - a * top.get(k, 0) for k in {**row, **top}}
            g = gcd(*row.values())
            row = {k: v // g for k, v in row.items() if v}
    return row


def extract_transition(
    Q: Callable[[AlgebraElement], AlgebraElement], g: InclusionGraph
) -> dict:
    """Recover p from Q(eps(c)) = p(c) times the unit of the block at s(c).

    Q may be given in base form (values over the base relation) or as the
    endomorphism of the big algebra; entries must be exact (ints/Fractions)
    for the read-off to stay exact.
    """
    base = g.base_relation()
    big = g.big_relation()
    p: dict = {}
    for c in g.E:
        v = g.source_of[c]
        img = Q(_epsilon(g, c))
        target = AlgebraElement._valid(base, {(x, x): 1 for x in g.fiber(v)})
        if img.relation == big:
            target = include_j(g, target)
        elif img.relation != base:
            raise ShapeMismatch("Q must produce elements over the base or the big relation")
        if not img.entries:
            raise SupportViolation(f"extracted p({c!r}) = 0: the expectation is not faithful")
        _require_exact(
            [img], f"Q(eps({c!r})) has non-exact entries; extraction needs exact arithmetic"
        )
        first = next(iter(target.entries))
        scalar = Fraction(img.entries.get(first, 0))
        if img != target.scale(scalar):
            raise IncompatibleData(
                f"Q(eps({c!r})) is not proportional to the unit of the block at {v!r}"
            )
        if scalar <= 0:
            raise SupportViolation(
                f"extracted p({c!r}) = {long_str(scalar)}: the expectation is not faithful"
            )
        p[c] = scalar
    for v in g.V:
        total = sum(p[c] for c in g.out_edges(v))
        if total != 1:
            raise IncompatibleData(
                f"extracted transitions out of {v!r} sum to {long_str(total)}, not 1"
            )
    return p


def pinch_average_decompose(me: ModelExpectation):
    """Split Q into the pinching by the eps(c) and the p-average.

    The pinching keeps exactly the equal-edge entries (the subrelation where
    both points carry the same edge); the averaging applies p and drops the
    edge coordinate.  Their composite equals Q entry by entry.
    """
    big = me.graph.big_relation()

    def pinch(fbar: AlgebraElement) -> AlgebraElement:
        if fbar.relation != big:
            raise ShapeMismatch("pinching wants an element over the big relation")
        return AlgebraElement(
            big, {k: v for k, v in fbar.entries.items() if k[0][1] == k[1][1]}
        )

    def average(fbar: AlgebraElement) -> AlgebraElement:
        if fbar.relation != big:
            raise ShapeMismatch("averaging wants an element over the big relation")
        if any(a != b for ((_, a), (_, b)) in fbar.entries):
            raise ShapeMismatch(
                "averaging applies to pinched elements (equal edge coordinates)"
            )
        return me(fbar)

    return pinch, average


def trivialize_cocycle(rel: FiniteEquivRelation, values: Mapping) -> dict:
    """Write c(x,y) = b(x) conj(b(y)) with b = 1 at each class representative.

    ``values`` holds c on the pairs of ``rel``: unit-modulus values,
    multiplicative along triples within a class.  The representative is the
    smallest element of the class, so the output is deterministic.  Identity
    violations raise with a witness pair or triple.
    """
    for cls_ in rel.classes():
        for x in cls_:
            for y in cls_:
                if (x, y) not in values:
                    raise NotACocycle(f"no value for pair ({x!r}, {y!r})")
                v = complex(values[(x, y)])
                if abs(abs(v) - 1) > TOL:
                    raise NotACocycle(f"value at ({x!r}, {y!r}) has modulus {abs(v):.6g}, not 1")
        for x in cls_:
            if abs(complex(values[(x, x)]) - 1) > TOL:
                raise NotACocycle(f"value at ({x!r}, {x!r}) is not 1")
        for x in cls_:
            for y in cls_:
                if abs(complex(values[(x, y)]) - complex(values[(y, x)]).conjugate()) > TOL:
                    raise NotACocycle(f"values at ({x!r}, {y!r}) and ({y!r}, {x!r}) are not conjugate")
        for x in cls_:
            for y in cls_:
                for z in cls_:
                    lhs = complex(values[(x, y)]) * complex(values[(y, z)])
                    if abs(lhs - complex(values[(x, z)])) > TOL:
                        raise NotACocycle(
                            f"multiplicativity fails on ({x!r}, {y!r}, {z!r})"
                        )
    b = {}
    for cls_ in rel.classes():
        rep = min(cls_)
        for x in cls_:
            b[x] = complex(values[(x, rep)])
    return b


def extend_matrix_unit(rel: FiniteEquivRelation, sub: FiniteEquivRelation, partial: Mapping) -> dict:
    """Extend a partial matrix unit on a subrelation to all of ``rel``.

    ``sub`` must refine ``rel`` on the same points; ``partial`` maps each pair
    (x, y) of ``sub`` to an AlgebraElement that is a unit-modulus multiple of
    the canonical unit e(x, y), the reference.  The phases u(x, y) form a
    cocycle on ``sub``; trivializing it gives b, and the extension is
    b(x) conj(b(y)) e(x, y), with the original elements kept verbatim on
    ``sub``.
    """
    if tuple(sub.X) != tuple(rel.X):
        raise IncompatibleData("subrelation must live on the same ordered point set")
    for x in rel.X:
        for y in sub.class_of(x):
            if not rel.related(x, y):
                raise IncompatibleData(
                    f"subrelation relates ({x!r}, {y!r}) which the full relation does not"
                )
    phases = {}
    for cls_ in sub.classes():
        for x in cls_:
            for y in cls_:
                if (x, y) not in partial:
                    raise NotAMatrixUnit(f"partial units missing pair ({x!r}, {y!r})")
                u = partial[(x, y)]
                scalar = complex(u.entries.get((x, y), 0))
                if u.distance(matrix_unit(rel, x, y).scale(scalar)) > TOL:
                    raise NotAMatrixUnit(
                        f"partial unit at ({x!r}, {y!r}) is not a scalar multiple of the reference"
                    )
                if abs(abs(scalar) - 1) > TOL:
                    raise NotAMatrixUnit(
                        f"partial unit at ({x!r}, {y!r}) scales the reference by {abs(scalar):.6g}, not 1"
                    )
                phases[(x, y)] = scalar
        for x in cls_:
            for y in cls_:
                for z in cls_:
                    if (partial[(x, y)] * partial[(y, z)]).distance(partial[(x, z)]) > TOL:
                        raise NotAMatrixUnit(
                            f"partial units break composition at ({x!r}, {y!r}, {z!r})"
                        )
                if partial[(x, y)].adjoint().distance(partial[(y, x)]) > TOL:
                    raise NotAMatrixUnit(f"partial units break adjoints at ({x!r}, {y!r})")

    b = trivialize_cocycle(sub, phases)
    out = {}
    for (x, y) in rel.pairs():
        if sub.related(x, y):
            out[(x, y)] = partial[(x, y)]
        else:
            out[(x, y)] = matrix_unit(rel, x, y).scale(b[x] * b[y].conjugate())
    return out


@dataclass(frozen=True, eq=False)
class DiagonalizedState:
    """Descending eigenvalues and an orthonormal eigenbasis of a density
    matrix, with the verified error of the diagonal factorization."""

    eigenvalues: np.ndarray
    basis: np.ndarray
    factorization_error: float

    def reconstruct(self) -> np.ndarray:
        return self.basis @ np.diag(self.eigenvalues) @ self.basis.conj().T


def diagonalize_state(density) -> DiagonalizedState:
    """Eigenbasis of a faithful state on one matrix block.

    In the returned basis the state is diagonal, so it factors through the
    diagonal compression; the factorization is verified on random inputs and
    the observed error is reported.  Deterministic conventions: eigenvalues
    descend, and each eigenvector's first nonnegligible component is made
    real positive.
    """
    rho = np.asarray(density, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ShapeMismatch(f"density matrix must be square, got shape {rho.shape}")
    n = rho.shape[0]
    if n > 12:
        raise ShapeMismatch(f"density matrices above size 12 are not supported (got {n})")
    if float(np.max(np.abs(rho - rho.conj().T))) > TOL:
        raise IncompatibleData("density matrix is not hermitian")
    if abs(complex(np.trace(rho)) - 1) > TOL:
        raise IncompatibleData(f"density matrix has trace {complex(np.trace(rho)):.6g}, not 1")
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    if float(vals[-1]) <= TOL:
        raise SupportViolation(
            f"density matrix is not positive definite (min eigenvalue {float(vals[-1]):.3g}); "
            "the state is not faithful"
        )
    for j in range(n):
        col = vecs[:, j]
        for i in range(n):
            if abs(col[i]) > 1e-12:
                phase = col[i] / abs(col[i])
                vecs[:, j] = col / phase
                break
    err = 0.0
    probe = np.random.default_rng(0)
    for _ in range(4):
        a = probe.standard_normal((n, n)) + 1j * probe.standard_normal((n, n))
        direct = complex(np.trace(rho @ a))
        compressed = complex(
            sum(
                vals[i] * (vecs[:, i].conj() @ a @ vecs[:, i])
                for i in range(n)
            )
        )
        err = max(err, abs(direct - compressed))
    return DiagonalizedState(eigenvalues=vals, basis=vecs, factorization_error=err)


def brute_force_commutant(
    generators: Sequence[AlgebraElement], ambient: FiniteEquivRelation
) -> list[AlgebraElement]:
    """Basis of everything in the ambient algebra commuting with the inputs.

    Solves the stacked linear system [m, g] = 0 over the pairs of the ambient
    relation by ``_reduce`` and back-substitution, with one free pair 1 and
    the others 0 per basis element, whose entries are Fractions.  The
    generators' entries must be ints and Fractions, or IncompatibleData is
    raised; intended as an oracle, not for large relations.
    """
    _require_exact(
        generators, "generators have non-exact entries; the commutant needs exact arithmetic"
    )
    echelon: dict = {}
    for gen in generators:
        if gen.relation != ambient:
            raise ShapeMismatch("generators must live on the ambient relation")
        # equation per pair (x,z): (m g - g m)(x,z) = 0, driven by g's support
        eqs: dict = {}
        for (y, z), v in gen.entries.items():
            for x in ambient.class_of(y):
                d = eqs.setdefault((x, z), {})
                d[(x, y)] = d.get((x, y), 0) + v
        for (x, y), v in gen.entries.items():
            for z in ambient.class_of(y):
                d = eqs.setdefault((x, z), {})
                d[(y, z)] = d.get((y, z), 0) - v
        for coeffs in eqs.values():
            if row := _reduce(echelon, coeffs):
                echelon[next(iter(row))] = row
    basis = []
    for free in ambient.pairs():
        if free not in echelon:
            x = {free: Fraction(1)}
            for c, top in reversed(echelon.items()):
                x[c] = Fraction(-sum(v * x.get(k, 0) for k, v in top.items() if k != c), top[c])
            basis.append(AlgebraElement._valid(ambient, x))
    return basis
