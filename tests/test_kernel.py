"""The integer walk kernel against the Fraction reference oracles.

Every value the kernel hands out must equal, exactly, what plain Fraction
arithmetic on string ids gives (``helpers.oracle_*``), on random valid
diagrams and walks.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bratteli.harmonic
from bratteli import (
    CotransitionProbability,
    SupportViolation,
    TransitionProbability,
    ergodic_components,
    harmonic_from_terminal,
    pascal_diagram,
)

from helpers import (
    oracle_distributions,
    oracle_ergodic_components,
    oracle_harmonic_from_terminal,
    oracle_stochastic_violation,
    random_walk,
    random_walk_on,
)

F = Fraction
randoms = st.randoms(use_true_random=False)
kernel_settings = settings(max_examples=60, deadline=None)


def assert_same_walk(got, want):
    d, e = got.diagram, want.diagram
    assert d.depth == e.depth
    for n in range(d.depth + 1):
        assert d.vertices(n) == e.vertices(n)
        assert got.nu(n) == want.nu(n)
    for n in range(1, d.depth + 1):
        assert d.edges(n) == e.edges(n)
        assert got.transition.level(n) == want.transition.level(n)
        assert got.cotransition.level(n) == want.cotransition.level(n)
    assert got.initial.as_dict() == want.initial.as_dict()


@kernel_settings
@given(randoms)
def test_nu_and_q_match_oracle(rng):
    w = random_walk(rng)
    nus, qs = oracle_distributions(w)
    for n in range(w.depth + 1):
        got = w.nu(n)
        assert got == nus[n]
        assert all(type(x) is Fraction for x in got.values())
        assert all(w.nu_at(n, v) == x for v, x in nus[n].items())
    for n in range(1, w.depth + 1):
        got = w.cotransition.level(n)
        assert got == qs[n - 1]
        assert all(type(x) is Fraction for x in got.values())


@kernel_settings
@given(randoms, st.sampled_from([True, False]))
def test_stochastic_checks_match_oracle(rng, incoming):
    # perturb one edge of valid data; the integer check must raise exactly
    # when the Fraction check fails, with the same message
    w = random_walk(rng)
    d = w.diagram
    if incoming:
        rows = [w.cotransition.level(n) for n in range(1, d.depth + 1)]
        cls, what, sym = CotransitionProbability, "cotransition probability", "q"
    else:
        rows = [w.transition.level(n) for n in range(1, d.depth + 1)]
        cls, what, sym = TransitionProbability, "transition probability", "p"
    n = rng.randint(1, d.depth)
    eid = rng.choice(d.edges(n)).id
    rows[n - 1][eid] = rng.choice([F(0), -rows[n - 1][eid], rows[n - 1][eid] + F(1, 7), F(1)])
    expected = oracle_stochastic_violation(d, rows, incoming, what, sym)
    if expected is None:
        cls(d, rows)
    else:
        with pytest.raises(SupportViolation) as info:
            cls(d, rows)
        assert str(info.value) == expected


@kernel_settings
@given(randoms)
def test_harmonic_from_terminal_matches_oracle(rng):
    w = random_walk(rng)
    d = w.diagram
    terminal = {
        v: F(rng.randint(-9, 9), rng.randint(1, 12)) for v in d.vertices(d.depth)
    }
    h = harmonic_from_terminal(w, terminal)
    want = oracle_harmonic_from_terminal(w, terminal)
    for n in range(d.depth + 1):
        assert h.level(n) == want[n]
        assert all(type(x) is Fraction for x in h.level(n).values())


@settings(max_examples=30, deadline=None)
@given(randoms)
def test_component_walks_match_oracle(rng):
    w = random_walk(rng, max_depth=5)
    comps = ergodic_components(w)
    want = oracle_ergodic_components(w)
    assert [(c.terminal, c.weight) for c in comps] == [(t, x) for t, x, _ in want]
    for c, (_, _, walk) in zip(comps, want):
        assert_same_walk(c.walk, walk)


def test_lazy_components_equal_eager_on_criterion_7_inputs():
    rng = random.Random(7)
    walks = [pascal_diagram(2, F(1, 2))[1], pascal_diagram(4, F(1, 2))[1]]
    walks += [random_walk(rng, max_depth=5) for _ in range(15)]
    for w in walks:
        comps = ergodic_components(w)
        want = oracle_ergodic_components(w)
        assert len(comps) == len(want)
        for c, (terminal, weight, walk) in zip(comps, want):
            assert (c.terminal, c.weight) == (terminal, weight)
            assert_same_walk(c.walk, walk)
            assert c.walk is c.walk  # built once, then kept


def test_weights_build_no_component_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("a component walk was built")

    monkeypatch.setattr(bratteli.harmonic, "build_walk", refuse)
    _, w = pascal_diagram(6, F(1, 3))
    comps = ergodic_components(w)
    assert [c.weight for c in comps] == list(w.nu(6).values())
    with pytest.raises(AssertionError, match="was built"):
        comps[0].walk


def test_deep_component_walk_builds_quickly():
    # a Doob transform's p denominators run to thousands of bits and differ
    # from vertex to vertex; one common denominator per level would be their
    # lcm, tens of thousands of bits per level (about 40 s on a 2-vCPU Xeon),
    # while the kernel's per-vertex cancellation keeps this well under 1 s
    d, _ = pascal_diagram(100, F(1, 2))
    w = random_walk_on(random.Random(5), d)
    comp = ergodic_components(w)[50]
    start = time.perf_counter()
    walk = comp.walk
    assert time.perf_counter() - start < 10.0
    assert walk.nu(100) == {comp.terminal: 1}
