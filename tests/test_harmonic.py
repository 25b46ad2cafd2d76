"""Harmonic sequences, the terminal-function bijection, and decomposition."""

import random
from fractions import Fraction

import pytest

from bratteli import (
    HarmonicSequence,
    InvariantFunction,
    NotAMeasure,
    NotHarmonic,
    PathError,
    ShapeMismatch,
    cylinder_measure,
    enumerate_paths,
    ergodic_components,
    harmonic_from_terminal,
    harmonic_to_invariant,
    invariant_to_harmonic,
    is_harmonic,
    markov_cylinder_table,
    measure_from_harmonic,
    pascal_diagram,
    pascal_path,
)

from helpers import chain_walk, random_simplex, random_walk

F = Fraction


def random_terminal(rng, d, low=-4, high=4):
    return {v: F(rng.randint(low, high), rng.randint(1, 5)) for v in d.vertices(d.depth)}


def test_constant_sequence_is_harmonic():
    rng = random.Random(31)
    for _ in range(10):
        w = random_walk(rng)
        ones = [{v: 1 for v in w.diagram.vertices(n)} for n in range(w.depth + 1)]
        assert is_harmonic(w, ones)


def test_pascal_exponential_family_is_harmonic():
    # h_n(n,k) = 2^n t^k (1-t)^(n-k) satisfies the recursion for the 1/2 walk
    _, w = pascal_diagram(12, F(1, 2))
    for t in (F(1, 5), F(1, 3), F(7, 10)):
        levels = [
            {f"{n}:{k}": 2**n * t**k * (1 - t) ** (n - k) for k in range(n + 1)}
            for n in range(13)
        ]
        assert is_harmonic(w, levels)


def test_position_is_not_harmonic():
    _, w = pascal_diagram(3, F(1, 2))
    levels = [{f"{n}:{k}": k for k in range(n + 1)} for n in range(4)]
    check = is_harmonic(w, levels)
    assert not check
    assert check.level == 1 and check.vertex == "0:0"
    assert check.lhs == 0 and check.rhs == F(1, 2)


def test_harmonic_sequence_shape_errors():
    _, w = pascal_diagram(2, F(1, 2))
    with pytest.raises(ShapeMismatch):
        HarmonicSequence(w.diagram, [{"0:0": 1}])
    with pytest.raises(ShapeMismatch):
        HarmonicSequence(
            w.diagram, [{"0:0": 1}, {"1:0": 1, "1:1": 1}, {"2:0": 1, "2:1": 1}]
        )
    with pytest.raises(ShapeMismatch):
        HarmonicSequence(
            w.diagram,
            [{"0:0": 1, "zz": 1}, {"1:0": 1, "1:1": 1}, {"2:0": 1, "2:1": 1, "2:2": 1}],
        )


def test_harmonic_value_at_a_negative_level_raises():
    # '2:0' is a vertex of V(2), the level that index -1 would reach
    _, w = pascal_diagram(2, F(1, 3))
    h = harmonic_from_terminal(w, {"2:0": 1, "2:1": 2, "2:2": 3})
    with pytest.raises(PathError, match="vertex level -1 out of range 0..2"):
        h(-1, "2:0")


def test_terminal_indicator_gives_path_probability():
    # h_0 = probability of the all-ones path = t^4
    for t in (F(1, 5), F(2, 3)):
        d, w = pascal_diagram(4, t)
        h = harmonic_from_terminal(w, {v: 1 if v == "4:4" else 0 for v in d.vertices(4)})
        assert h(0, "0:0") == t**4
        assert h(0, "0:0") == cylinder_measure(w, pascal_path(d, "1111"))


def test_terminal_ones_give_constant_one():
    rng = random.Random(32)
    for _ in range(10):
        w = random_walk(rng)
        h = harmonic_from_terminal(w, {v: 1 for v in w.diagram.vertices(w.depth)})
        for n in range(w.depth + 1):
            assert set(h.level(n).values()) == {F(1)}


def test_endpoint_set_indicator():
    d, w = pascal_diagram(3, F(1, 2))
    f = {v: 1 if v in ("3:0", "3:3") else 0 for v in d.vertices(3)}
    h = harmonic_from_terminal(w, f)
    assert h(0, "0:0") == F(1, 4)


def test_harmonic_from_terminal_is_linear():
    rng = random.Random(33)
    w = random_walk(rng)
    d = w.diagram
    f1, f2 = random_terminal(rng, d), random_terminal(rng, d)
    c = F(3, 7)
    combo = {v: f1[v] + c * f2[v] for v in d.vertices(d.depth)}
    h1 = harmonic_from_terminal(w, f1)
    h2 = harmonic_from_terminal(w, f2)
    h = harmonic_from_terminal(w, combo)
    for n in range(d.depth + 1):
        for v in d.vertices(n):
            assert h(n, v) == h1(n, v) + c * h2(n, v)


def test_round_trip_from_terminal():
    rng = random.Random(34)
    for _ in range(25):
        w = random_walk(rng, max_depth=5)
        f = InvariantFunction(w.depth, random_terminal(rng, w.diagram))
        h = invariant_to_harmonic(w, f)
        back = harmonic_to_invariant(w, h)
        assert back.depth == f.depth
        assert dict(back.values) == dict(f.values)


def test_round_trip_from_harmonic():
    rng = random.Random(35)
    for _ in range(25):
        w = random_walk(rng, max_depth=5)
        h = harmonic_from_terminal(w, random_terminal(rng, w.diagram))
        f = harmonic_to_invariant(w, h)
        again = invariant_to_harmonic(w, f)
        assert again == h


def test_invariant_function_applies_to_full_paths():
    d, w = pascal_diagram(2, F(1, 2))
    f = InvariantFunction(2, {"2:0": F(1), "2:1": F(2), "2:2": F(3)})
    assert f.of_path(pascal_path(d, "01")) == 2
    with pytest.raises(ShapeMismatch):
        f.of_path(pascal_path(d, "0"))


def test_bijection_mismatched_depth():
    _, w = pascal_diagram(2, F(1, 2))
    with pytest.raises(ShapeMismatch):
        invariant_to_harmonic(w, InvariantFunction(3, {}))


def test_harmonic_to_invariant_rejects_non_harmonic():
    _, w = pascal_diagram(2, F(1, 2))
    levels = [{f"{n}:{k}": k for k in range(n + 1)} for n in range(3)]
    with pytest.raises(NotHarmonic):
        harmonic_to_invariant(w, levels)


def test_sup_norm_isometry():
    # norm of the sequence = max |f| over full paths (every vertex receives,
    # so every terminal vertex is hit)
    rng = random.Random(36)
    for _ in range(25):
        w = random_walk(rng, max_depth=5)
        d = w.diagram
        f = random_terminal(rng, d)
        h = harmonic_from_terminal(w, f)
        paths = enumerate_paths(d, 0, d.depth)
        assert h.norm == max(abs(f[a.terminus]) for a in paths)


def test_positivity_preservation():
    rng = random.Random(37)
    for _ in range(10):
        w = random_walk(rng, max_depth=5)
        f = {v: F(rng.randint(0, 5), 3) for v in w.diagram.vertices(w.depth)}
        h = harmonic_from_terminal(w, f)
        assert all(x >= 0 for n in range(w.depth + 1) for x in h.level(n).values())


def test_measure_from_constant_one_is_walk_measure():
    rng = random.Random(38)
    w = random_walk(rng, max_depth=4)
    ones = {v: 1 for v in w.diagram.vertices(w.depth)}
    table = measure_from_harmonic(w, harmonic_from_terminal(w, ones))
    assert table == markov_cylinder_table(w, w.depth)


def test_exponential_reweighting_changes_parameter():
    # reweighting the 1/2 walk by the t-exponential harmonic sequence lands
    # exactly on the t walk's measure
    t = F(1, 3)
    d, w_half = pascal_diagram(5, F(1, 2))
    _, w_t = pascal_diagram(5, t)
    levels = [
        {f"{n}:{k}": 2**n * t**k * (1 - t) ** (n - k) for k in range(n + 1)}
        for n in range(6)
    ]
    table = measure_from_harmonic(w_half, HarmonicSequence(d, levels))
    assert table == markov_cylinder_table(w_t, 5)


def test_indicator_reweighting_masks_measure():
    rng = random.Random(39)
    w = random_walk(rng, max_depth=4)
    d = w.diagram
    target = d.vertices(d.depth)[0]
    f = {v: 1 if v == target else 0 for v in d.vertices(d.depth)}
    table = measure_from_harmonic(w, harmonic_from_terminal(w, f))
    for a in enumerate_paths(d, 0, d.depth):
        expected = cylinder_measure(w, a) if a.terminus == target else F(0)
        assert table[a] == expected


def test_measure_from_harmonic_matches_leaf_extension():
    # oracle: weight the leaves by f and extend additively
    rng = random.Random(40)
    from bratteli import table_from_leaves

    for _ in range(10):
        w = random_walk(rng, max_depth=4)
        d = w.diagram
        f = {v: F(rng.randint(0, 4), 2) for v in d.vertices(d.depth)}
        h = harmonic_from_terminal(w, f)
        table = measure_from_harmonic(w, h)
        leaves = {
            a: f[a.terminus] * cylinder_measure(w, a)
            for a in enumerate_paths(d, 0, d.depth)
        }
        assert table == table_from_leaves(d, d.depth, leaves)


def test_measure_from_harmonic_rejects_bad_input():
    _, w = pascal_diagram(2, F(1, 2))
    bad = [{f"{n}:{k}": k for k in range(n + 1)} for n in range(3)]
    with pytest.raises(NotHarmonic):
        measure_from_harmonic(w, bad)
    negative = harmonic_from_terminal(w, {"2:0": 1, "2:1": -1, "2:2": 1})
    with pytest.raises(NotAMeasure):
        measure_from_harmonic(w, negative)


def test_chain_decomposes_into_one_component():
    comps = ergodic_components(chain_walk(3))
    assert len(comps) == 1
    assert comps[0].weight == 1
    assert comps[0].terminal == "c3"


def test_pascal_depth_two_weights():
    _, w = pascal_diagram(2, F(1, 2))
    comps = ergodic_components(w)
    assert [(c.terminal, c.weight) for c in comps] == [
        ("2:0", F(1, 4)),
        ("2:1", F(1, 2)),
        ("2:2", F(1, 4)),
    ]


def test_components_have_point_mass_terminals():
    rng = random.Random(41)
    for _ in range(10):
        w = random_walk(rng, max_depth=5)
        comps = ergodic_components(w)
        assert sum(c.weight for c in comps) == 1
        for c in comps:
            nu = c.walk.nu(c.walk.depth)
            assert nu == {c.terminal: F(1)}


def test_components_recombine_to_measure():
    rng = random.Random(42)
    for _ in range(10):
        w = random_walk(rng, max_depth=5)
        d = w.diagram
        comps = ergodic_components(w)
        for n in range(d.depth + 1):
            for a in enumerate_paths(d, 0, n):
                mixed = sum(c.weight * c.cylinder_measure(a) for c in comps)
                assert mixed == cylinder_measure(w, a)


def test_component_support_masking():
    _, w = pascal_diagram(2, F(1, 2))
    d = w.diagram
    comp = ergodic_components(w)[0]  # endpoint 2:0, the all-stay component
    assert comp.cylinder_measure(pascal_path(d, "00")) == 1
    assert comp.cylinder_measure(pascal_path(d, "11")) == 0
    assert comp.cylinder_measure(pascal_path(d, "1")) == 0
