"""Markov measures, cotransitions, and the density cocycle."""

import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

import bratteli.walk
from bratteli import (
    BratteliDiagram,
    CotransitionProbability,
    CylinderTable,
    IncompatibleData,
    InitialDistribution,
    NotAMeasure,
    NotTailRelated,
    PathError,
    SupportViolation,
    TransitionProbability,
    build_walk,
    cylinder_measure,
    enumerate_paths,
    from_cotransition,
    group_cocycle,
    markov_cylinder_table,
    pascal_diagram,
    pascal_path,
    q_measure_witness,
    radon_nikodym,
    sample_path,
    table_from_leaves,
)

from helpers import chain_diagram, chain_walk, random_walk, random_walk_with_multipath

F = Fraction


def vee_diagram():
    """Two top vertices feeding one bottom vertex."""
    return BratteliDiagram(
        [["a", "b"], ["c"]], [[("ea", "a", "c"), ("eb", "b", "c")]]
    )


def test_transition_validation():
    d = vee_diagram()
    TransitionProbability(d, [{"ea": 1, "eb": 1}])
    with pytest.raises(SupportViolation):
        TransitionProbability(d, [{"ea": F(1, 2), "eb": 1}])
    with pytest.raises(SupportViolation):
        TransitionProbability(d, [{"ea": 0, "eb": 1}])
    with pytest.raises(IncompatibleData):
        TransitionProbability(d, [{"ea": 1}])
    with pytest.raises(IncompatibleData):
        TransitionProbability(d, [{"ea": 1, "eb": 1, "zz": 1}])
    with pytest.raises(IncompatibleData):
        TransitionProbability(d, [])


def test_transition_uniform():
    d, _ = pascal_diagram(3, F(1, 2))
    p = TransitionProbability.uniform(d)
    assert p(1, "0:0:0") == F(1, 2)


def test_initial_distribution_validation():
    d = vee_diagram()
    nu0 = InitialDistribution(d, {"a": F(1, 3), "b": F(2, 3)})
    assert nu0("a") == F(1, 3)
    assert nu0.as_dict() == {"a": F(1, 3), "b": F(2, 3)}
    with pytest.raises(SupportViolation):
        InitialDistribution(d, {"a": F(1, 3), "b": F(1, 3)})
    with pytest.raises(SupportViolation):
        InitialDistribution(d, {"a": 0, "b": 1})
    with pytest.raises(IncompatibleData):
        InitialDistribution(d, {"a": 1})
    point = InitialDistribution.point_mass(chain_diagram(2), "c0")
    assert point("c0") == 1
    # point masses put zero mass elsewhere, so multi-vertex tops are refused
    with pytest.raises(SupportViolation):
        InitialDistribution.point_mass(vee_diagram(), "a")
    uni = InitialDistribution.uniform(vee_diagram())
    assert uni("b") == F(1, 2)


def test_messages_name_values_longer_than_the_digit_limit():
    # computed sums with ~6,000-digit denominators, past the int-to-str limit
    big = 10**2999
    x, y = F(1, big), F(1, big + 1)
    limit = sys.get_int_max_str_digits()
    with pytest.raises(SupportViolation) as nu_error:
        InitialDistribution(vee_diagram(), {"a": x, "b": y})
    d = BratteliDiagram([["a"], ["b"]], [[("e0", "a", "b"), ("e1", "a", "b")]])
    with pytest.raises(SupportViolation) as p_error:
        TransitionProbability(d, [{"e0": x, "e1": y}])
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert str(nu_error.value) == f"initial distribution sums to {x + y}, not 1"
        assert str(p_error.value) == (
            f"transition probability: out-edges of 'a' at level 0 sum to {x + y}, not 1"
        )
    finally:
        sys.set_int_max_str_digits(limit)


def test_walk_requires_own_diagram():
    d = vee_diagram()
    p = TransitionProbability(d, [{"ea": 1, "eb": 1}])
    nu0 = InitialDistribution(d, {"a": F(1, 2), "b": F(1, 2)})
    d2 = vee_diagram()
    p2 = TransitionProbability(d2, [{"ea": 1, "eb": 1}])
    with pytest.raises(IncompatibleData):
        build_walk(d, p2, nu0)
    w = build_walk(d, p, nu0)
    assert w.depth == 1


def test_chain_distributions_trivial():
    w = chain_walk(4)
    for n in range(5):
        assert w.nu(n) == {f"c{n}": 1}
    for n in range(1, 5):
        assert w.cotransition(n, f"l{n}") == 1


def test_pascal_level_three_distribution():
    _, w = pascal_diagram(3, F(1, 2))
    assert w.nu(3) == {"3:0": F(1, 8), "3:1": F(3, 8), "3:2": F(3, 8), "3:3": F(1, 8)}


def test_distributions_match_enumeration():
    # oracle: group full cylinder masses by endpoint
    rng = random.Random(21)
    for _ in range(25):
        w = random_walk(rng)
        d = w.diagram
        for n in range(d.depth + 1):
            masses = {v: F(0) for v in d.vertices(n)}
            for a in enumerate_paths(d, 0, n):
                masses[a.terminus] += cylinder_measure(w, a)
            assert masses == w.nu(n)
        assert sum(w.nu(d.depth).values()) == 1
    with pytest.raises(PathError):
        w.nu(d.depth + 1)


def test_transition_at_level_zero_raises():
    # '1:0:0' is an edge of E(2), the level that index 0 - 1 would reach
    _, w = pascal_diagram(2, F(1, 3))
    with pytest.raises(PathError, match="edge level 0 out of range 1..2"):
        w.transition(0, "1:0:0")


def test_cotransition_sums_to_one_on_in_edges():
    rng = random.Random(22)
    for _ in range(25):
        w = random_walk(rng)
        d = w.diagram
        for n in range(1, d.depth + 1):
            for v in d.vertices(n):
                assert sum(w.cotransition(n, e.id) for e in d.in_edges(n, v)) == 1


def test_edge_measure_identity():
    # nu_{n-1}(s(e)) p(e) = nu_n(r(e)) q(e) on every edge
    rng = random.Random(23)
    for _ in range(25):
        w = random_walk(rng)
        d = w.diagram
        for n in range(1, d.depth + 1):
            for e in d.edges(n):
                assert w.nu_at(n - 1, e.src) * w.transition(n, e.id) == w.nu_at(n, e.rng) * w.cotransition(n, e.id)


def test_pascal_word_mass():
    d, w = pascal_diagram(3, F(1, 3))
    a = pascal_path(d, "110")
    assert cylinder_measure(w, a) == F(2, 27)
    total = sum(cylinder_measure(w, b) for b in enumerate_paths(d, 0, 3))
    assert total == 1


def test_cylinder_measure_of_empty_path():
    d, w = pascal_diagram(2, F(1, 2))
    assert cylinder_measure(w, d.empty_path("0:0")) == 1


def test_cylinder_measure_rejects_foreign_paths():
    d, w = pascal_diagram(2, F(1, 2))
    with pytest.raises(PathError):
        cylinder_measure(w, d.path(["1:0:0"], start_level=1))


def test_cotransition_of_path_identity():
    # q(a) = mu(Z(a)) / nu_n(r(a)), exactly
    rng = random.Random(24)
    for _ in range(25):
        w = random_walk(rng)
        d = w.diagram
        for a in enumerate_paths(d, 0, d.depth):
            assert w.cotransition.of_path(a) == cylinder_measure(w, a) / w.nu_at(
                d.depth, a.terminus
            )


def test_two_vertex_density_is_half():
    d = vee_diagram()
    w = build_walk(d, [{"ea": 1, "eb": 1}], {"a": F(1, 3), "b": F(2, 3)})
    a, b = d.path(["ea"]), d.path(["eb"])
    assert radon_nikodym(w, a, b) == F(1, 2)
    assert radon_nikodym(w, b, a) == 2


def test_density_is_measure_ratio():
    rng = random.Random(25)
    for _ in range(20):
        w = random_walk_with_multipath(rng)
        d = w.diagram
        paths = enumerate_paths(d, 0, d.depth)
        by_end = {}
        for a in paths:
            by_end.setdefault(a.terminus, []).append(a)
        for group in by_end.values():
            for a in group[:4]:
                for b in group[:4]:
                    assert radon_nikodym(w, a, b) == cylinder_measure(w, a) / cylinder_measure(w, b)


def test_density_cocycle_law():
    rng = random.Random(26)
    w = random_walk_with_multipath(rng)
    d = w.diagram
    paths = enumerate_paths(d, 0, d.depth)
    by_end = {}
    for a in paths:
        by_end.setdefault(a.terminus, []).append(a)
    group = max(by_end.values(), key=len)
    for a in group[:3]:
        for b in group[:3]:
            for c in group[:3]:
                assert radon_nikodym(w, a, b) * radon_nikodym(w, b, c) == radon_nikodym(w, a, c)


def test_density_requires_tail_related():
    d, w = pascal_diagram(2, F(1, 2))
    with pytest.raises(NotTailRelated):
        radon_nikodym(w, pascal_path(d, "01"), pascal_path(d, "11"))


def test_from_cotransition_round_trip():
    rng = random.Random(27)
    for _ in range(20):
        w = random_walk(rng)
        d = w.diagram
        q_levels = [w.cotransition.level(n) for n in range(1, d.depth + 1)]
        nus = [w.nu(n) for n in range(d.depth + 1)]
        rebuilt = from_cotransition(d, q_levels, nus)
        for n in range(1, d.depth + 1):
            assert rebuilt.transition.level(n) == w.transition.level(n)
            assert rebuilt.cotransition.level(n) == w.cotransition.level(n)
        assert rebuilt.initial.as_dict() == w.initial.as_dict()


def test_from_cotransition_detects_incompatible_marginal():
    _, w = pascal_diagram(3, F(1, 2))
    d = w.diagram
    q_levels = [w.cotransition.level(n) for n in range(1, 4)]
    nus = [w.nu(n) for n in range(4)]
    nus[2] = {"2:0": F(1, 2), "2:1": F(1, 4), "2:2": F(1, 4)}  # not the pushforward
    with pytest.raises(IncompatibleData, match="level 2|level 3"):
        from_cotransition(d, q_levels, nus)
    with pytest.raises(IncompatibleData):
        from_cotransition(d, q_levels, nus[:-1])


def test_markov_table_passes_q_check():
    rng = random.Random(28)
    for _ in range(15):
        w = random_walk(rng)
        table = markov_cylinder_table(w, w.depth)
        assert q_measure_witness(w.diagram, w.cotransition, table, w.depth) is None


def test_convex_combination_is_q_measure():
    # the factorization condition is linear in the table, and both walks
    # share the t-independent cotransition
    d, w1 = pascal_diagram(3, F(1, 3))
    _, w2 = pascal_diagram(3, F(2, 3))
    t1 = markov_cylinder_table(w1, 3)
    t2 = markov_cylinder_table(w2, 3)
    mix = {a: (t1[a] + t2[a]) / 2 for a in t1}
    assert q_measure_witness(d, w1.cotransition, mix, 3) is None


def test_q_check_catches_shifted_mass():
    d, w = pascal_diagram(3, F(1, 2))
    leaves = {a: cylinder_measure(w, a) for a in enumerate_paths(d, 0, 3)}
    a, b = pascal_path(d, "011"), pascal_path(d, "110")  # same endpoint 3:2
    delta = F(1, 1000)
    leaves[a] += delta
    leaves[b] -= delta
    table = table_from_leaves(d, 3, leaves)
    witness = q_measure_witness(d, w.cotransition, table, 3)
    assert witness is not None
    path, expected, actual = witness
    assert expected != actual


def test_q_check_reads_paths_by_their_edges():
    # a table keyed by path is read edge by edge, so an edge id that holds a
    # comma, which no label can name, still finds its mass
    d = BratteliDiagram([["r"], ["a", "b"], ["c"]],
                        [[("x,y", "r", "a"), ("z", "r", "b")], [("u,", "a", "c"), ("v", "b", "c")]])
    w = build_walk(d, [{"x,y": F(1, 3), "z": F(2, 3)}, {"u,": 1, "v": 1}], {"r": 1})
    assert q_measure_witness(d, w.cotransition, markov_cylinder_table(w, 2), 2) is None


def test_q_check_wants_q_on_the_same_diagram():
    # same ids in another edge order: q, or a table's slots, read by index
    # would be misaligned
    V = [["r"], ["a", "b"]]
    d = BratteliDiagram(V, [[("e", "r", "a"), ("f", "r", "b"), ("g", "r", "b")]])
    other = BratteliDiagram(V, [[("f", "r", "b"), ("e", "r", "a"), ("g", "r", "b")]])
    p = [{"e": F(1, 2), "f": F(1, 4), "g": F(1, 4)}]
    w = build_walk(d, p, {"r": 1})
    table = markov_cylinder_table(w, 1)
    with pytest.raises(IncompatibleData, match="same diagram"):
        q_measure_witness(d, build_walk(other, p, {"r": 1}).cotransition, table, 1)
    with pytest.raises(IncompatibleData, match="same diagram"):
        q_measure_witness(d, w.cotransition, CylinderTable.of(other, table), 1)


def test_a_table_is_checked_once():
    # the check takes each level's row out of the table: a second check of
    # the same table is refused by name, not run on what is left of it
    d, w = pascal_diagram(3, F(1, 3))
    table = CylinderTable.of(d, markov_cylinder_table(w, 3))
    assert q_measure_witness(d, w.cotransition, table, 3) is None
    with pytest.raises(IncompatibleData, match="level 0 of the cylinder table was taken already"):
        q_measure_witness(d, w.cotransition, table, 3)


def test_q_check_grows_past_a_checked_level():
    # a one-mass table holds level 0 only until level 0 is checked; the check
    # of level 1 must still grow to it and name its missing path
    d = BratteliDiagram([["r"], ["a"]], [[("e", "r", "a")]])
    w = build_walk(d, [{"e": 1}], {"r": 1})
    with pytest.raises(NotAMeasure, match="no mass for path e"):
        q_measure_witness(d, w.cotransition, {d.empty_path("r"): 1}, 1)


def test_q_check_table_errors():
    d, w = pascal_diagram(2, F(1, 2))
    table = markov_cylinder_table(w, 2)
    broken = dict(table)
    broken[pascal_path(d, "11")] += F(1, 7)  # additivity breaks at the parent
    with pytest.raises(NotAMeasure, match="not additive"):
        q_measure_witness(d, w.cotransition, broken, 2)
    short = dict(table)
    del short[pascal_path(d, "11")]
    with pytest.raises(NotAMeasure, match="no mass"):
        q_measure_witness(d, w.cotransition, short, 2)
    scaled = {a: 2 * m for a, m in table.items()}
    with pytest.raises(NotAMeasure, match="sum to 2"):
        q_measure_witness(d, w.cotransition, scaled, 2)
    negative = dict(table)
    negative[pascal_path(d, "11")] = F(-1, 4)
    with pytest.raises(NotAMeasure, match="negative"):
        q_measure_witness(d, w.cotransition, negative, 2)


def test_table_from_leaves_requires_all_leaves():
    d, w = pascal_diagram(2, F(1, 2))
    with pytest.raises(NotAMeasure):
        table_from_leaves(d, 2, {})


def test_sample_path_chain_and_reproducibility():
    w = chain_walk(3)
    assert sample_path(w, 0, 3) == w.diagram.path(["l1", "l2", "l3"])
    d, w2 = pascal_diagram(6, F(1, 2))
    assert sample_path(w2, 42, 6) == sample_path(w2, 42, 6)
    assert len(sample_path(w2, 42, 0)) == 0
    with pytest.raises(PathError):
        sample_path(w2, 0, 7)


def test_sample_endpoint_frequencies():
    # 2000 draws at depth 6; each endpoint frequency within 5 sigma
    d, w = pascal_diagram(6, F(1, 2))
    n = 2000
    counts = {v: 0 for v in d.vertices(6)}
    for seed in range(n):
        counts[sample_path(w, seed, 6).terminus] += 1
    for v in d.vertices(6):
        mean = float(w.nu_at(6, v))
        sigma = (mean * (1 - mean) / n) ** 0.5
        assert abs(counts[v] / n - mean) <= 5 * sigma


def test_sample_draws_exactly(monkeypatch):
    # with the drawn integer pinned to u, sweeping u over 0..L-1 picks each
    # out-edge exactly numerator-many times, however small its probability
    class Pinned:
        def __init__(self, u):
            self.u = u

        def randrange(self, n):
            return self.u % n

    monkeypatch.setattr(bratteli.walk, "random", SimpleNamespace(Random=Pinned))
    fan = [[("e0", "a", "b"), ("e1", "a", "b"), ("e2", "a", "b")]]
    d = BratteliDiagram([["a"], ["b"]], fan)
    w = build_walk(d, [{"e0": F(1, 6), "e1": F(1, 3), "e2": F(1, 2)}], {"a": 1})
    counts = {"e0": 0, "e1": 0, "e2": 0}
    for u in range(6):
        counts[sample_path(w, u, 1).edges[0]] += 1
    assert counts == {"e0": 1, "e1": 2, "e2": 3}
    big = 10**20  # 1 - 1/big rounds to 1.0 as a float
    w = build_walk(d, [{"e0": F(big - 2, big), "e1": F(1, big), "e2": F(1, big)}], {"a": 1})
    assert [sample_path(w, u, 1).edges[0] for u in (big - 3, big - 2, big - 1)] == [
        "e0", "e1", "e2",
    ]


def test_quasi_product_cocycle_matches_density():
    rng = random.Random(29)
    w = random_walk_with_multipath(rng)
    d = w.diagram
    potential = w.cotransition
    paths = enumerate_paths(d, 0, d.depth)
    by_end = {}
    for a in paths:
        by_end.setdefault(a.terminus, []).append(a)
    for group in by_end.values():
        for a in group[:3]:
            for b in group[:3]:
                assert group_cocycle(potential, a, b) == radon_nikodym(w, a, b)
    with pytest.raises(NotTailRelated):
        group_cocycle(potential, paths[0], d.empty_path(paths[0].anchor))


def test_cotransition_probability_standalone_validation():
    d = vee_diagram()
    CotransitionProbability(d, [{"ea": F(1, 3), "eb": F(2, 3)}])
    with pytest.raises(SupportViolation):
        CotransitionProbability(d, [{"ea": F(1, 3), "eb": F(1, 3)}])


def test_path_consumers_on_deep_chain():
    # every level grows from the one before, so a 3000-level chain stays
    # linear in its paths' total length
    depth = 3000
    w = chain_walk(depth)
    d = w.diagram
    table = markov_cylinder_table(w, depth)
    assert len(table) == depth + 1
    assert all(m == 1 for m in table.values())
    assert q_measure_witness(d, w.cotransition, table, depth) is None
    (leaf,) = enumerate_paths(d, 0, depth)
    del table
    rebuilt = table_from_leaves(d, depth, {leaf: 1})
    assert len(rebuilt) == depth + 1
    assert all(m == 1 for m in rebuilt.values())
