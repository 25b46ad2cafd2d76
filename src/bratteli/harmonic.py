"""Bounded harmonic sequences and the finite-depth tail boundary.

A harmonic sequence assigns a rational to every vertex so that each value is
the p-expectation of the next level: h_{n-1}(v) = sum over out-edges e of v
of p_n(e) h_n(r(e)).  At finite depth these sequences are in linear bijection
with functions of the terminal vertex, which are exactly the tail-invariant
functions of the truncated path space; the bijection is implemented here
together with the induced measures h mu and the ergodic decomposition by
terminal vertex.  The infinite-depth statements are the projective limit of
what this module verifies exactly.

The backward step h_{n-1}(v) = sum over out-edges e of v of K(e) h_n(r(e))
is ``walk._pull``, for any edge values K: the sweep of the harmonic
extension, the check ``is_harmonic`` and the component marginals all take it.
The sweep runs on the walk's integer kernel: with p_n(e) held as a numerator
A_n(e) over a per-vertex denominator B_n(s(e)) (see ``walk``) and level n of
h as integer numerators H_n over one denominator E_n, the pull of H_n through
A_n is h_{n-1}(v) times E_n B_n(v); each vertex cancels its gcd with B_n(v)
and the level is brought over E_{n-1} = E_n S_n, S_n the lcm of what is left
of the B_n(v).  Values become Fractions once, at the end of the sweep,
straight from its rows, which are in vertex order already.

Conditioned to end at the terminal vertex t, the Markov measure keeps the
walk's cotransition q, and its terminal law is the point mass at t.  So each
ergodic component is the q-measure with terminal law delta_t: its level
marginals are the backward steps of delta_t through q, and its walk is
``from_cotransition`` of q and those marginals on the subdiagram where they
are positive.  Components carry their terminal vertex and weight nu_N(t) at
once; each component's walk is built on first access, so reading only the
weights builds no walk.  Everything is exact; there is no floating point in
this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .diagram import BratteliDiagram, FinitePath, subdiagram
from .errors import NotAMeasure, NotHarmonic, ShapeMismatch
from .rational import as_fraction, long_str
from .walk import (
    RandomWalk,
    _cancel,
    _first_mismatch,
    _over_lcm,
    _pull,
    cylinder_measure,
    from_cotransition,
    markov_cylinder_table,
)


class HarmonicSequence:
    """Per-level rational functions on the vertices, levels 0..N."""

    def __init__(self, d: BratteliDiagram, levels: Sequence[Mapping[str, object]]):
        d.require_valid()
        self.diagram = d
        self._h = d.align("vertex", levels, as_fraction, "harmonic sequence", ShapeMismatch)

    def __call__(self, n: int, vertex_id: str) -> Fraction:
        return self._h[n][self.diagram.vertex_index(n, vertex_id)]

    def level(self, n: int) -> dict[str, Fraction]:
        return dict(zip(self.diagram.vertices(n), self._h[n]))

    @property
    def norm(self) -> Fraction:
        """Sup over levels of the max absolute value."""
        return max(abs(x) for row in self._h for x in row)

    def __eq__(self, other):
        return (
            isinstance(other, HarmonicSequence)
            and self.diagram is other.diagram
            and self._h == other._h
        )

    def __hash__(self):
        return hash(self._h)


@dataclass(frozen=True)
class InvariantFunction:
    """A tail-invariant function in canonical form: a function of the terminal
    vertex, inducing f(path) = values[r(path)] on full-depth paths."""

    depth: int
    values: Mapping[str, Fraction]

    def of_path(self, a: FinitePath) -> Fraction:
        if a.end_level != self.depth or a.start_level != 0:
            raise ShapeMismatch("invariant function applies to full-depth paths from level 0")
        return self.values[a.terminus]


@dataclass(frozen=True)
class HarmonicCheck:
    """Outcome of the recursion check; falsy when some step fails.  ``level``
    is the recursion step n whose expectation was compared, ``vertex`` the
    level-(n-1) vertex where lhs != rhs."""

    ok: bool
    level: int | None = None
    vertex: str | None = None
    lhs: Fraction | None = None
    rhs: Fraction | None = None

    def __bool__(self):
        return self.ok


def is_harmonic(w: RandomWalk, h) -> HarmonicCheck:
    """Exact check of h_{n-1}(v) = sum p_n(e) h_n(r(e)) at every vertex."""
    if not isinstance(h, HarmonicSequence):
        h = HarmonicSequence(w.diagram, h)
    bad = _first_mismatch(w.diagram, w.transition._rho, h._h)
    return HarmonicCheck(False, *bad) if bad else HarmonicCheck(True)


def _backward_sweep(w: RandomWalk, terminal: Mapping[str, object]):
    """Integer numerators of the harmonic extension of ``terminal``, values on
    V(N), and their per-level denominators: level m is over dens[m]."""
    d, p = w.diagram, w.transition
    bottom = d.align("vertex", terminal, as_fraction, "terminal data", ShapeMismatch, level=d.depth)
    levels, dens = [None] * (d.depth + 1), [None] * (d.depth + 1)
    levels[d.depth], dens[d.depth] = _over_lcm(bottom)
    for m in range(d.depth - 1, -1, -1):
        levels[m], scale = _cancel(_pull(d, m + 1, p._num[m], levels[m + 1]), p._den[m])
        dens[m] = dens[m + 1] * scale
    return levels, dens


def harmonic_from_terminal(w: RandomWalk, terminal: Mapping[str, object]) -> HarmonicSequence:
    """Backward induction from values on V(N); linear in the terminal data."""
    nums, dens = _backward_sweep(w, terminal)
    # the sweep's rows are in vertex order already: no re-alignment
    h = HarmonicSequence.__new__(HarmonicSequence)
    h.diagram = w.diagram
    h._h = tuple(tuple(Fraction(x, den) for x in row) for row, den in zip(nums, dens))
    return h


def invariant_to_harmonic(w: RandomWalk, f: InvariantFunction) -> HarmonicSequence:
    """h_n(v) = expectation of f(terminal) given position v at time n."""
    if f.depth != w.depth:
        raise ShapeMismatch(f"invariant function depth {f.depth} != diagram depth {w.depth}")
    return harmonic_from_terminal(w, f.values)


def _require_harmonic(w: RandomWalk, h) -> HarmonicSequence:
    """``h`` as a HarmonicSequence; NotHarmonic at the first failing step."""
    if not isinstance(h, HarmonicSequence):
        h = HarmonicSequence(w.diagram, h)
    check = is_harmonic(w, h)
    if not check:
        raise NotHarmonic(
            f"recursion fails at step {check.level}, vertex '{check.vertex}': "
            f"{long_str(check.lhs)} != {long_str(check.rhs)}"
        )
    return h


def harmonic_to_invariant(w: RandomWalk, h) -> InvariantFunction:
    """At finite depth the limit along the path is just the terminal value."""
    h = _require_harmonic(w, h)
    return InvariantFunction(w.depth, h.level(w.depth))


def measure_from_harmonic(w: RandomWalk, h) -> dict[FinitePath, Fraction]:
    """The measure with the walk's cotransition and distributions h_n nu_n.

    Returns the full cylinder table: mass h_n(r(a)) mu(Z(a)) on each path a of
    length n.  At full depth this is f mu for f the terminal function of h.
    """
    h = _require_harmonic(w, h)
    d = w.diagram
    for n in range(d.depth + 1):
        for v in d.vertices(n):
            if h(n, v) < 0:
                raise NotAMeasure(
                    f"harmonic sequence is negative at level {n}, vertex '{v}': {long_str(h(n, v))}"
                )
    table = markov_cylinder_table(w, w.depth)
    return {a: h(a.end_level, a.terminus) * mass for a, mass in table.items()}


@dataclass(frozen=True)
class ErgodicComponent:
    """One piece of the decomposition of ``source``: the conditioned walk
    given that the path ends at ``terminal``, carrying mass ``weight`` =
    nu_N(terminal).  Its ``walk`` is built on first read."""

    terminal: str
    weight: Fraction
    source: RandomWalk

    @cached_property
    def walk(self) -> RandomWalk:
        """The walk with the source's q and the marginals swept back from the
        point mass at ``terminal``, on the subdiagram where they are positive."""
        w = self.source
        d, q = w.diagram, w.cotransition._rho
        # level n of the marginals is integer numerators over dens[n]; q_n(e)
        # is _mass[n-1][k] / _nu_num[n][index of r(e)], so each step brings
        # the marginal over _nu_num[n] to one denominator, then pulls it
        # through the integer edge measures
        levels, dens = [[int(v == self.terminal) for v in d.vertices(d.depth)]], [1]
        for n in range(d.depth, 0, -1):
            below, scale = _cancel(levels[0], w._nu_num[n])
            levels.insert(0, _pull(d, n, w._mass[n - 1], below))
            dens.insert(0, dens[0] * scale)
        nus = [
            {v: Fraction(x, den) for v, x in zip(d.vertices(n), row) if x}
            for n, (row, den) in enumerate(zip(levels, dens))
        ]
        qs = [
            {eid: x for eid, x, j in zip(d._ids[n - 1], q[n - 1], d._rng[n - 1]) if levels[n][j]}
            for n in range(1, d.depth + 1)
        ]
        sub = subdiagram(d, nus, qs)
        return from_cotransition(sub, qs, nus)

    def cylinder_measure(self, a: FinitePath) -> Fraction:
        """Component mass of a path of the ORIGINAL diagram (0 off support)."""
        if not self.walk.diagram.contains_path(a):
            return Fraction(0)
        return cylinder_measure(self.walk, self.walk.diagram.path(a.edges, 0, a.anchor))


def ergodic_components(w: RandomWalk) -> list[ErgodicComponent]:
    """Decomposition of the walk's measure over terminal vertices.

    Conditioned to end at t, the Markov measure keeps the walk's cotransition
    q and its terminal law is the point mass at t: the component is the
    q-measure with terminal law delta_t, and its walk is recovered from q and
    the level marginals by ``from_cotransition``.  Components recombine to
    the original measure cylinder by cylinder.  A component's walk is built
    when first read; its weight needs none.
    """
    d = w.diagram
    return [ErgodicComponent(t, w.nu_at(d.depth, t), w) for t in d.vertices(d.depth)]
