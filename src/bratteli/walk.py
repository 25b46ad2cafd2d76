"""Random walks on a Bratteli diagram, and edge potentials.

A walk is a pair (p, nu0): transition probabilities on the out-edges of each
vertex plus an initial distribution on V(0).  From these the level
distributions nu_n and the cotransition probabilities q_n on in-edges are
derived exactly, as integers, once at construction.  The edge measure identity
nu_{n-1}(s(e)) p_n(e) = nu_n(r(e)) q_n(e) holds by definition of q and is the
source of every formula below.

An edge potential assigns each edge an element of an exact group (an integer
lattice, see ``skew``, or the positive rationals under multiplication).  p
and q are edge potentials in the positive rationals: a path's value is the
product along it, and the group cocycle of q, q(a)/q(b), is the walk's
density cocycle.

The derivation runs on the diagram's dense integer indices and on Python
ints.  p_n(e) is held as an integer numerator A_n(e) over B_n(s(e)), the lcm
of the denominators on the out-edges of s(e), and nu_n as integer numerators
N_n over one denominator D_n per level.  Pushing nu_{n-1} forward, each
source v first cancels g = gcd(N_{n-1}(v), B_n(v)) and its weight is brought
over D_n = D_{n-1} S_n, S_n the lcm of the B_n(v) / g; then
N_n(w) = sum over edges e into w of W(s(e)) A_n(e), and
q_n(e) = W(s(e)) A_n(e) / N_n(r(e)).  Construction keeps the integer edge
measures W(s(e)) A_n(e) and checks there that q is positive with unit sums
over in-edges.  The per-vertex cancellation keeps D_n near the true common
denominator even when the p denominators are large and differ from vertex to
vertex, as in the p that ``from_cotransition`` recovers for an ergodic
component.  Values become Fractions only where they leave the API: each nu_n
row and the whole of q on first request, so a command that reads only nu
builds no q.

Cylinder tables, ``measure`` and the q-measure check read the one
level-by-level path tree of ``diagram._tree_levels``: ``_cylinder_levels``
carries mu(Z(a)) from prefix to extension, and a ``CylinderTable`` holds a
table's masses by their place in it until the q-measure check takes them.
The check runs on Python ints the same way as the walk: it brings each
level's masses over one denominator, so additivity is a cross-multiplied
integer test, and m(Z(a)) = q(a) m_n(r(a)) is tested one edge at a time, on
integer marginals by terminus index, as m(Z(a e)) against m(Z(a)) q(e).
Fractions and paths are built for the witness and the error messages only.

Everything here is exact; there is no floating point in this module.  The
seeded sampler draws with ``randrange`` over the same integer numerators, so
each draw follows the measure exactly.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, Sequence

from .diagram import BratteliDiagram, CylinderTable, FinitePath, tail_related
from .diagram import _MISSING, _level_counts, _path_levels, _scatter_add, _tree_levels, _tree_path
from .errors import (
    IncompatibleData,
    NotAMeasure,
    NotTailRelated,
    PathError,
    SupportViolation,
)
from .rational import as_fraction, format_fraction, long_str

ONE = Fraction(1)


def _over_lcm(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Integer numerators of ``values`` over the lcm of their denominators."""
    den = math.lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (den // x.denominator) for x in values), den


def _cancel(nums: Sequence[int], dens: Sequence[int]) -> tuple[list[int], int]:
    """Bring the fractions nums[i] / dens[i] over one denominator S, after
    cancelling each one's gcd: returns (numerators over S, S)."""
    gs = [math.gcd(x, y) for x, y in zip(nums, dens)]
    dens = [y // g for y, g in zip(dens, gs)]
    scale = math.lcm(*dens)
    return [x // g * (scale // y) for x, g, y in zip(nums, gs, dens)], scale


def _pull(d: BratteliDiagram, n: int, row: Sequence, below: Sequence) -> list:
    """One backward step: per vertex v of V(n-1), the sum over the out-edges
    e_k of v of row[k] * below[index of r(e_k)]."""
    terms = [x * below[j] for x, j in zip(row, d._rng[n - 1])]
    return [sum(terms[k] for k in ks) for ks in d._out[n - 1]]


def _first_mismatch(d: BratteliDiagram, rows, levels):
    """The first (n, v, levels[n-1] at v, pull of levels[n] at v), level n up
    then v in vertex order, where level n-1 is not the backward step of level
    n through the edge values ``rows[n - 1]``; None if there is none."""
    for n in range(1, d.depth + 1):
        pulled = _pull(d, n, rows[n - 1], levels[n])
        for v, have, got in zip(d.vertices(n - 1), levels[n - 1], pulled):
            if have != got:
                return n, v, have, got
    return None


def _require_stochastic(d: BratteliDiagram, n: int, nums, units, incoming: bool, what: str, sym: str):
    """Check that the level-n edge values nums[k] / units[owner of k] are
    positive and sum to 1 over each vertex's out-edges (in-edges when
    ``incoming``), where the owner is the edge's source (range) vertex.
    Exact, in integers; raises SupportViolation on the first offender."""
    m = n - 1
    if min(nums) <= 0:  # name the first offender
        k = next(k for k, x in enumerate(nums) if x <= 0)
        unit = units[(d._rng[m] if incoming else d._src[m])[k]]
        raise SupportViolation(
            f"{what}: {sym}({d._ids[m][k]}) = {long_str(Fraction(nums[k], unit))} at level {n} is not positive"
        )
    level, side, groups = (n, "in", d._in[m]) if incoming else (n - 1, "out", d._out[m])
    get = nums.__getitem__
    for v, unit, ks in zip(d._vertices[level], units, groups):
        total = sum(map(get, ks))
        if total != unit:
            raise SupportViolation(
                f"{what}: {side}-edges of '{v}' at level {level} sum to {long_str(Fraction(total, unit))}, not 1"
            )


def _stochastic(pot, d: BratteliDiagram, values, incoming: bool, what: str, sym: str):
    """Set ``pot`` up as the edge values ``values`` on ``d``, aligned and
    checked by ``_require_stochastic``: unit sums over out-edges, or in-edges
    when ``incoming``.  Returns per level the integer numerators of the values,
    each over the lcm of the denominators on its owner vertex's edges, and
    those lcms by owner."""
    d.require_valid()
    pot.diagram = d
    pot._rho = d.align("edge", values, as_fraction, what, IncompatibleData)
    groups, owners = (d._in, d._rng) if incoming else (d._out, d._src)
    levels = []
    for n, row in enumerate(pot._rho, start=1):
        denominators = [x.denominator for x in row]
        dens = tuple(math.lcm(*map(denominators.__getitem__, ks)) for ks in groups[n - 1])
        nums = tuple(x.numerator * (dens[i] // y) for x, y, i in zip(row, denominators, owners[n - 1]))
        _require_stochastic(d, n, nums, dens, incoming, what, sym)
        levels.append((nums, dens))
    return levels


@dataclass(frozen=True)
class MultiplicativeRationals:
    """Positive rationals under multiplication."""

    identity = ONE

    def op(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a

    def parse(self, raw):
        value = as_fraction(raw)
        if value <= 0:
            raise IncompatibleData(f"not a positive rational: {raw!r}")
        return value

    def format(self, g) -> str:
        return format_fraction(g)


class EdgePotential:
    """A group element on every edge, one row per level in edge order.

    Each value passes through ``parse``, by default ``group.parse``.
    """

    def __init__(
        self,
        d: BratteliDiagram,
        group,
        values: Sequence[Mapping[str, object]],
        *,
        parse: Callable | None = None,
    ):
        d.require_valid()
        self.diagram = d
        self.group = group
        self._rho = d.align("edge", values, parse or group.parse, "potential", IncompatibleData)

    def __call__(self, n: int, edge_id: str):
        return self._rho[n - 1][self.diagram.edge_index(n, edge_id)]

    def level(self, n: int) -> dict:
        return dict(zip(self.diagram._edge_ids(n), self._rho[n - 1]))

    def of_path(self, a: FinitePath):
        """Ordered product of the potential along ``a``; the identity on empty paths."""
        value = self.group.identity
        for off, eid in enumerate(a.edges):
            value = self.group.op(value, self(a.start_level + off + 1, eid))
        return value


def group_cocycle(rho: EdgePotential, a: FinitePath, b: FinitePath):
    """rho(a) * rho(b)^{-1} on a tail-related pair of paths."""
    if not tail_related(a, b):
        raise NotTailRelated("paths not tail equivalent")
    return rho.group.op(rho.of_path(a), rho.group.inv(rho.of_path(b)))


class TransitionProbability(EdgePotential):
    """Positive edge weights with unit sums over the out-edges of each vertex."""

    group = MultiplicativeRationals()

    def __init__(self, d: BratteliDiagram, values: Sequence[Mapping[str, object]]):
        levels = _stochastic(self, d, values, False, "transition probability", "p")
        # p_n(e_k) = _num[n - 1][k] / _den[n - 1][index of s(e_k)]
        self._num = tuple(num for num, _ in levels)
        self._den = tuple(den for _, den in levels)

    @classmethod
    def uniform(cls, d: BratteliDiagram) -> "TransitionProbability":
        d.require_valid()
        values = [
            {x: Fraction(1, len(out[i])) for x, i in zip(d._ids[m], d._src[m])}
            for m, out in enumerate(d._out)
        ]
        return cls(d, values)


class InitialDistribution:
    """A strictly positive probability vector on V(0)."""

    def __init__(self, d: BratteliDiagram, values: Mapping[str, object]):
        d.require_valid()
        self.diagram = d
        vec = d.align("vertex", values, as_fraction, "initial distribution", IncompatibleData, level=0)
        for v, x in zip(d.vertices(0), vec):
            if x <= 0:
                raise SupportViolation(f"initial distribution: nu0({v}) = {long_str(x)} is not positive")
        total = sum(vec)
        if total != ONE:
            raise SupportViolation(f"initial distribution sums to {long_str(total)}, not 1")
        self._nu0 = tuple(vec)

    @classmethod
    def point_mass(cls, d: BratteliDiagram, vertex: str) -> "InitialDistribution":
        if len(d.vertices(0)) != 1:
            raise SupportViolation(
                "point mass needs a single level-0 vertex; "
                "initial distributions must be strictly positive everywhere"
            )
        return cls(d, {vertex: ONE})

    @classmethod
    def uniform(cls, d: BratteliDiagram) -> "InitialDistribution":
        top = d.vertices(0)
        return cls(d, {v: Fraction(1, len(top)) for v in top})

    def __call__(self, vertex_id: str) -> Fraction:
        return self._nu0[self.diagram.vertex_index(0, vertex_id)]

    def as_dict(self) -> dict[str, Fraction]:
        return {v: x for v, x in zip(self.diagram.vertices(0), self._nu0)}


class CotransitionProbability(EdgePotential):
    """Positive edge weights with unit sums over the in-edges of each vertex."""

    group = MultiplicativeRationals()

    def __init__(self, d: BratteliDiagram, values: Sequence[Mapping[str, object]]):
        _stochastic(self, d, values, True, "cotransition probability", "q")

    @classmethod
    def _from_rows(cls, d: BratteliDiagram, rows) -> "CotransitionProbability":
        """Wrap per-level rows already aligned with edge order and checked."""
        self = cls.__new__(cls)
        self.diagram = d
        self._rho = rows
        return self


class RandomWalk:
    """A diagram with (p, nu0) and the derived distributions and cotransition.

    nu_n(w) = sum over edges e into w of p_n(e) nu_{n-1}(s(e)), and
    q_n(e) = nu_{n-1}(s(e)) p_n(e) / nu_n(r(e)).  Full support makes every
    nu_n strictly positive, so q is always defined.  Instances are immutable;
    share them freely.
    """

    def __init__(self, d: BratteliDiagram, p: TransitionProbability, nu0: InitialDistribution):
        d.require_valid()
        if p.diagram is not d or nu0.diagram is not d:
            raise IncompatibleData("walk data must be built on the walk's own diagram")
        self.diagram = d
        self.transition = p
        self.initial = nu0
        top, den = _over_lcm(nu0._nu0)
        nus, dens, masses = [top], [den], []
        for m, (src, rng, pnum, pden) in enumerate(zip(d._src, d._rng, p._num, p._den)):
            # weight[i] / D_n = nu_{n-1}(v_i) / B_n(v_i), so the edge measure
            # nu_{n-1}(s(e)) p_n(e) is mass[k] / D_n
            weight, scale = _cancel(nus[-1], pden)
            mass = [weight[i] * x for i, x in zip(src, pnum)]
            nxt = _scatter_add(len(d._vertices[m + 1]), rng, mass)
            if min(mass) <= 0:  # only positivity can fail: nxt sums the masses
                _require_stochastic(d, m + 1, mass, nxt, True, "cotransition probability", "q")
            masses.append(tuple(mass))
            nus.append(nxt)
            dens.append(dens[-1] * scale)
        # nu_n(v_i) = _nu_num[n][i] / _nu_den[n]; q_n(e_k) = _mass[n - 1][k]
        # / _nu_num[n][index of r(e_k)]
        self._nu_num = tuple(tuple(row) for row in nus)
        self._nu_den = tuple(dens)
        self._mass = tuple(masses)
        self._nus = [None] * len(nus)  # Fraction rows, filled on first request

    def _nu_ratios(self):
        """(vertex ids, numerators, denominators) of nu_n per level from 0 on."""
        return zip(self.diagram._vertices, self._nu_num, map(itertools.repeat, self._nu_den))

    def _q_ratios(self):
        """(edge ids, numerators, denominators) of q_n per level from 1 on."""
        d = self.diagram
        for ids, rng, mass, nu in zip(d._ids, d._rng, self._mass, self._nu_num[1:]):
            yield ids, mass, map(nu.__getitem__, rng)

    @cached_property
    def cotransition(self) -> CotransitionProbability:
        """q as Fractions, built on first request from the integer edge measures."""
        q = tuple(tuple(map(Fraction, nums, dens)) for _, nums, dens in self._q_ratios())
        return CotransitionProbability._from_rows(self.diagram, q)

    def _nu_row(self, n: int) -> tuple[Fraction, ...]:
        if not 0 <= n <= self.depth:
            raise PathError(f"distribution level {n} out of range 0..{self.depth}")
        row = self._nus[n]
        if row is None:
            den = self._nu_den[n]
            row = self._nus[n] = tuple(Fraction(x, den) for x in self._nu_num[n])
        return row

    @property
    def depth(self) -> int:
        return self.diagram.depth

    def nu(self, n: int) -> dict[str, Fraction]:
        """The level-n distribution as a fresh {vertex: mass} dict."""
        row = self._nu_row(n)
        return dict(zip(self.diagram.vertices(n), row))

    def nu_at(self, n: int, vertex_id: str) -> Fraction:
        row = self._nu_row(n)
        return row[self.diagram.vertex_index(n, vertex_id)]


def build_walk(d: BratteliDiagram, p, nu0) -> RandomWalk:
    """Construct a walk; ``p`` and ``nu0`` may be raw mappings or typed values."""
    if not isinstance(p, TransitionProbability):
        p = TransitionProbability(d, p)
    if not isinstance(nu0, InitialDistribution):
        nu0 = InitialDistribution(d, nu0)
    return RandomWalk(d, p, nu0)


def _check_in_diagram(w: RandomWalk, a: FinitePath):
    if a.start_level != 0:
        raise PathError("cylinder paths must start at level 0")
    if not w.diagram.contains_path(a):
        raise PathError(f"path not in diagram: {a.label()}")


def cylinder_measure(w: RandomWalk, a: FinitePath) -> Fraction:
    """Mass of the cylinder over ``a``: nu0(s(a)) times the edge transitions."""
    _check_in_diagram(w, a)
    return w.initial(a.anchor) * w.transition.of_path(a)


def radon_nikodym(w: RandomWalk, a: FinitePath, b: FinitePath) -> Fraction:
    """The walk's density cocycle D(a, b) = q(a)/q(b) on the cylinder pair (a, b)."""
    if not tail_related(a, b):
        raise NotTailRelated("paths not tail equivalent")
    _check_in_diagram(w, a)
    _check_in_diagram(w, b)
    return w.cotransition.of_path(a) / w.cotransition.of_path(b)


def _cotransition_on(d: BratteliDiagram, q) -> CotransitionProbability:
    """``q`` built on ``d``, from its mappings if need be: it is read by edge index."""
    if not isinstance(q, CotransitionProbability):
        q = CotransitionProbability(d, q)
    if q.diagram is not d:
        raise IncompatibleData("cotransition must be built on the same diagram")
    return q


def from_cotransition(d: BratteliDiagram, q, nus: Sequence[Mapping[str, object]]) -> RandomWalk:
    """The unique walk with cotransition ``q`` and level distributions ``nus``.

    Compatibility demands nu_{n-1}(v) = sum over out-edges e of v of
    q_n(e) nu_n(r(e)), exactly, at every level; the first offending level and
    vertex are reported.  Transitions are recovered from the edge measure
    identity and the walk is rebuilt, so the result round-trips to the exact
    same (q, nus).
    """
    d.require_valid()
    q = _cotransition_on(d, q)
    levels = d.align("vertex", nus, as_fraction, "distribution", IncompatibleData)
    bad = _first_mismatch(d, q._rho, levels)
    if bad:
        n, v, have, pushed = bad
        raise IncompatibleData(
            f"distributions not compatible with cotransition at level {n}, "
            f"vertex '{v}': nu_{n - 1}({v}) = {long_str(have)} but the level-{n} "
            f"pushforward gives {long_str(pushed)}"
        )
    p_values = []
    for n, (qn, src, rng) in enumerate(zip(q._rho, d._src, d._rng), start=1):
        row = {}
        for eid, x, i, j in zip(d._ids[n - 1], qn, src, rng):
            if levels[n - 1][i] == 0:
                raise SupportViolation(
                    f"distribution at level {n - 1} vanishes at '{d._vertices[n - 1][i]}'; walk has no full support"
                )
            row[eid] = x * levels[n][j] / levels[n - 1][i]
        p_values.append(row)
    return build_walk(d, p_values, dict(zip(d.vertices(0), levels[0])))


def central_cotransition(d: BratteliDiagram) -> CotransitionProbability:
    """q(e) = dim(s(e)) / dim(r(e)), dim(v) the number of paths from V(0) to v:
    the cotransition of the central measures (Vershik and Kerov, 1981), whose
    density cocycle is 1, as q(a) = 1 / dim(r(a)) on every path a from V(0).
    Over the in-edges of v it sums to 1, since dim(v) sums dim(s(e)) over them."""
    dims = list(_level_counts(d, 0, d.depth))
    rows = tuple(
        tuple(Fraction(above[i], below[j]) for i, j in zip(src, rng))
        for above, below, src, rng in zip(dims, dims[1:], d._src, d._rng)
    )
    return CotransitionProbability._from_rows(d, rows)


# -- cylinder tables and the q-measure criterion ------------------------------

def _cylinder_levels(w: RandomWalk, levels):
    """Each level's keys and mu(Z(a)), over the rows of ``_path_levels`` or
    ``_label_levels`` from level 0."""
    masses = w.initial._nu0
    for n, (keys, prefix, last, _) in enumerate(levels):
        if n:  # mu(Z(a e)) = mu(Z(a)) p(e)
            rho = w.transition._rho[n - 1]
            masses = [masses[i] * rho[k] for i, k in zip(prefix, last)]
        yield keys, masses


def markov_cylinder_table(w: RandomWalk, depth: int) -> dict[FinitePath, Fraction]:
    """The walk's own cylinder masses on all paths of length <= depth."""
    if not 0 <= depth <= w.depth:
        raise PathError(f"table depth {depth} out of range 0..{w.depth}")
    table = {}
    for paths, masses in _cylinder_levels(w, _path_levels(w.diagram, 0, depth)):
        table.update(zip(paths, masses))
    return table


def table_from_leaves(
    d: BratteliDiagram, depth: int, leaf_masses: Mapping[FinitePath, Fraction]
) -> dict[FinitePath, Fraction]:
    """Extend masses on length-``depth`` paths to an additive cylinder table."""
    levels, masses = list(_path_levels(d, 0, depth)), []
    for a in levels[-1][0]:
        if a not in leaf_masses:
            raise NotAMeasure(f"no mass for path {a.label()}")
        masses.append(as_fraction(leaf_masses[a]))
    table = dict(zip(levels[-1][0], masses))
    for n in range(depth - 1, -1, -1):
        masses = _scatter_add(len(levels[n][0]), levels[n + 1][1], masses)
        table.update(zip(levels[n][0], masses))
    return table


def _row_over_lcm(d: BratteliDiagram, n: int, row) -> tuple[list[int], int]:
    """A ``CylinderTable`` row of level n over its denominators' lcm; NotAMeasure at a missing or negative mass."""
    nums, dens = row
    if _MISSING in nums or min(nums, default=0) < 0:
        j = next(j for j, x in enumerate(nums) if x is _MISSING or x < 0)
        raise NotAMeasure(f"{'no mass for' if nums[j] is _MISSING else 'negative mass on'} path "
                          f"{_tree_path(d, n, j).label()}")
    den = math.lcm(*dens)
    return [x * (den // y) for x, y in zip(nums, dens)], den


def q_measure_witness(d: BratteliDiagram, q, table, depth: int):
    """Whether the cylinder table is the Markov measure of some walk with
    cotransition ``q``: m(Z(a)) = q(a) times m's own level-n marginal at r(a)
    for every path a of length n <= depth.

    ``table`` is a ``CylinderTable`` on ``d``, as ``fileio.load_measure_table``
    reads it (each level's row is taken out of it, so it is checked once), or
    maps each path to its mass.  One pass over the path tree tests additivity,
    which raises at once, and the criterion, whose first failure is returned.

    None if the table passes; else (path, expected mass, actual mass).
    """
    q = _cotransition_on(d, q)
    if not 0 <= depth <= d.depth:
        raise PathError(f"depth {depth} out of range 0..{d.depth}")
    if not isinstance(table, CylinderTable):
        table = CylinderTable.of(d, table)
    elif table.diagram is not d:  # its slots are read by index too
        raise IncompatibleData("cylinder table must be read on the same diagram")
    masses = [_row_over_lcm(d, n, table.take(n)) for n in range(depth + 1)]
    nums, den = masses[0]
    if sum(nums) != den:
        raise NotAMeasure(f"empty-path masses sum to {long_str(Fraction(sum(nums), den))}, not 1")
    # criterion: level 0 holds; where level n-1 holds, m(a) = q(a) M(r(a)), M
    # its marginal, so m(a e) = q(a e) M'(r(a e)) is x M qd == y qn M' on the
    # masses x, y of a e, a and q(e) = qn / qd, or M' == 0 where M is 0
    witness = None
    for n, (prefix, last, ends) in enumerate(_tree_levels(d, 0, depth)):
        row, unit = masses[n]
        marginal = _scatter_add(len(d._vertices[n]), ends, row)
        if n:
            above, sup = masses[n - 1]
            parts = _scatter_add(len(above), prefix, row)
            for j, (x, y) in enumerate(zip(above, parts)):
                if x * unit != y * sup:
                    raise NotAMeasure(
                        f"not additive at {_tree_path(d, n - 1, j).label()}: mass "
                        f"{long_str(Fraction(x, sup))}, extensions sum to {long_str(Fraction(y, unit))}"
                    )
            qn, src = q._rho[n - 1], d._src[n - 1]
            for j, (i, k, t, x) in enumerate(zip(prefix, last, ends, row)):
                mv, mw = before[src[k]], marginal[t]
                if witness is None and (x * mv * qn[k].denominator != above[i] * qn[k].numerator * mw
                                        or not mv and mw):
                    a = _tree_path(d, n, j)
                    witness = (a, q.of_path(a) * Fraction(mw, unit), Fraction(x, unit))
        before = marginal
    return witness


def sample_path(w: RandomWalk, seed: int, depth: int) -> FinitePath:
    """Draw a path of length ``depth`` from the Markov measure, reproducibly.

    Each step draws u = randrange(B) over the integer numerators of the
    step's probabilities, B their common denominator, and takes the item
    whose cumulative numerator range holds u, so every draw follows the
    exact measure.
    """
    if not 0 <= depth <= w.depth:
        raise PathError(f"sample depth {depth} out of range 0..{w.depth}")
    rng = random.Random(seed)

    def draw(nums, total):
        u = rng.randrange(total)
        for i, x in enumerate(nums):
            if u < x:
                return i
            u -= x

    d, p = w.diagram, w.transition
    at = draw(w._nu_num[0], w._nu_den[0])
    edges = []
    for m in range(depth):
        ks = d._out[m][at]
        pnum = p._num[m]
        k = ks[draw([pnum[k] for k in ks], p._den[m][at])]
        edges.append(d._ids[m][k])
        at = d._rng[m][k]
    return d.path(edges) if edges else d.empty_path(d.vertices(0)[at])
