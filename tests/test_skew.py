"""Skew products, group potentials, and the worked generator families."""

import math
import random
from fractions import Fraction

import pytest

from bratteli import (
    EdgePotential,
    IncompatibleData,
    MultiplicativeRationals,
    NotTailRelated,
    SupportViolation,
    WindowError,
    ZLattice,
    cylinder_measure,
    enumerate_paths,
    group_cocycle,
    harmonic_from_terminal,
    lift_walk,
    pascal_diagram,
    pascal_edge_potential,
    pascal_path,
    radon_nikodym,
    skew_harmonic,
    skew_product,
    uhf_from_group_walk,
)

from helpers import diagram_levels, oracle_violations, random_walk, random_walk_with_multipath

F = Fraction


def lattice_potential(d, rng, rank=1, low=-2, high=2):
    values = [
        {e.id: tuple(rng.randint(low, high) for _ in range(rank)) for e in d.edges(n)}
        for n in range(1, d.depth + 1)
    ]
    return EdgePotential(d, ZLattice(rank), values)


# -- groups ---------------------------------------------------------------------


def test_lattice_group_operations():
    g = ZLattice(2)
    assert g.identity == (0, 0)
    assert g.op((1, 2), (3, -1)) == (4, 1)
    assert g.inv((1, -2)) == (-1, 2)
    assert g.parse([3, 4]) == (3, 4)
    assert g.parse("3_4") == (3, 4)
    assert g.format((3, -4)) == "3_-4"
    assert ZLattice(1).parse(5) == (5,)
    with pytest.raises(IncompatibleData):
        g.parse([1])
    with pytest.raises(IncompatibleData):
        g.parse("1_x")
    with pytest.raises(IncompatibleData):
        g.parse(True)
    with pytest.raises(IncompatibleData):
        ZLattice(0)


def test_multiplicative_rationals_operations():
    g = MultiplicativeRationals()
    assert g.identity == 1
    assert g.op(F(2, 3), F(3, 4)) == F(1, 2)
    assert g.inv(F(2, 5)) == F(5, 2)
    assert g.parse("3/7") == F(3, 7)
    assert g.format(F(3, 7)) == "3/7"
    with pytest.raises(IncompatibleData):
        g.parse("-1/2")
    with pytest.raises(IncompatibleData):
        g.parse("0")


# -- potentials and the group cocycle --------------------------------------------


def test_potential_of_path_is_ordered_product():
    d, _ = pascal_diagram(4, F(1, 2))
    rho = pascal_edge_potential(d)
    assert rho.of_path(pascal_path(d, "1011")) == (3,)
    assert rho.of_path(d.empty_path("0:0")) == (0,)
    assert rho(1, "0:0:1") == (1,)


def test_potential_shape_errors():
    d, _ = pascal_diagram(2, F(1, 2))
    with pytest.raises(IncompatibleData):
        EdgePotential(d, ZLattice(1), [{"0:0:0": (0,)}])
    with pytest.raises(IncompatibleData):
        EdgePotential(d, ZLattice(1), [{"0:0:0": (0,)}, {}])
    values = [{e.id: (0,) for e in d.edges(n)} for n in (1, 2)]
    values[1]["zz"] = (0,)
    with pytest.raises(IncompatibleData, match="^potential: unknown edge 'zz' at level 2$"):
        EdgePotential(d, ZLattice(1), values)


def test_cocycle_on_equal_paths_is_identity():
    d, _ = pascal_diagram(3, F(1, 2))
    rho = pascal_edge_potential(d)
    a = pascal_path(d, "101")
    assert group_cocycle(rho, a, a) == (0,)


def test_pascal_cocycle_vanishes_on_tail_pairs():
    # same endpoint forces equal numbers of steps
    d, _ = pascal_diagram(6, F(1, 2))
    rho = pascal_edge_potential(d)
    paths = enumerate_paths(d, 0, 6)
    by_end = {}
    for a in paths:
        by_end.setdefault(a.terminus, []).append(a)
    for group in by_end.values():
        for a in group[:5]:
            for b in group[:5]:
                assert group_cocycle(rho, a, b) == (0,)
    with pytest.raises(NotTailRelated):
        group_cocycle(rho, pascal_path(d, "000000"), pascal_path(d, "111111"))


def test_cocycle_law_on_triples():
    rng = random.Random(71)
    for _ in range(10):
        w = random_walk_with_multipath(rng, max_depth=4)
        d = w.diagram
        rho = lattice_potential(d, rng, rank=2)
        paths = enumerate_paths(d, 0, d.depth)
        by_end = {}
        for a in paths:
            by_end.setdefault(a.terminus, []).append(a)
        group = max(by_end.values(), key=len)
        g = rho.group
        for a in group[:3]:
            for b in group[:3]:
                for c in group[:3]:
                    assert g.op(
                        group_cocycle(rho, a, b), group_cocycle(rho, b, c)
                    ) == group_cocycle(rho, a, c)


def test_cotransition_potential_matches_density():
    rng = random.Random(72)
    for _ in range(10):
        w = random_walk_with_multipath(rng, max_depth=4)
        d = w.diagram
        rho = w.cotransition
        paths = enumerate_paths(d, 0, d.depth)
        by_end = {}
        for a in paths:
            by_end.setdefault(a.terminus, []).append(a)
        for group in by_end.values():
            for a in group[:4]:
                for b in group[:4]:
                    assert group_cocycle(rho, a, b) == radon_nikodym(w, a, b)
        with pytest.raises(NotTailRelated):
            group_cocycle(rho, paths[0], d.empty_path(paths[0].anchor))


# -- skew products ----------------------------------------------------------------


def test_identity_potential_gives_disjoint_copies():
    rng = random.Random(73)
    w = random_walk(rng, max_depth=4)
    d = w.diagram
    rho = EdgePotential(
        d, ZLattice(1), [{e.id: (0,) for e in d.edges(n)} for n in range(1, d.depth + 1)]
    )
    sd = skew_product(d, rho, [(0,), (5,)])
    assert sd.source_range_law_holds()
    for n in range(d.depth + 1):
        assert sd.window(n) == ((0,), (5,))
        assert len(sd.diagram.vertices(n)) == 2 * len(d.vertices(n))
    for n in range(1, d.depth + 1):
        assert len(sd.diagram.edges(n)) == 2 * len(d.edges(n))


def test_pascal_skew_reachable_coordinate_is_position():
    d, _ = pascal_diagram(5, F(1, 2))
    rho = pascal_edge_potential(d)
    sd = skew_product(d, rho, [(0,)])
    for n in range(6):
        assert sd.vertex_pairs(n) == tuple((f"{n}:{k}", (k,)) for k in range(n + 1))
    assert sd.source_range_law_holds()


def test_skew_vertex_id_and_window_errors():
    d, _ = pascal_diagram(3, F(1, 2))
    rho = pascal_edge_potential(d)
    sd = skew_product(d, rho, [(0,)])
    assert sd.vertex_id(2, "2:1", (1,)) == "2:1@1"
    with pytest.raises(WindowError):
        sd.vertex_id(2, "2:1", (7,))
    with pytest.raises(WindowError):
        skew_product(d, rho, [])
    d2, _ = pascal_diagram(2, F(1, 2))
    with pytest.raises(IncompatibleData):
        skew_product(d2, rho, [(0,)])


def test_skew_window_equivariance():
    # translating the window translates every reachable coordinate
    rng = random.Random(74)
    for _ in range(10):
        w = random_walk(rng, max_depth=4)
        d = w.diagram
        rho = lattice_potential(d, rng, rank=2)
        g = rho.group
        shift = (rng.randint(-3, 3), rng.randint(-3, 3))
        window = [(0, 0), (1, -1)]
        sd = skew_product(d, rho, window)
        sd2 = skew_product(d, rho, [g.op(shift, x) for x in window])
        for n in range(d.depth + 1):
            translated = tuple((v, g.op(shift, x)) for (v, x) in sd.vertex_pairs(n))
            assert sd2.vertex_pairs(n) == translated
        for n in range(1, d.depth + 1):
            translated = tuple((e, g.op(shift, x)) for (e, x) in sd.edge_pairs(n))
            assert sd2.edge_pairs(n) == translated


def test_source_range_law_on_random_products():
    rng = random.Random(75)
    for _ in range(15):
        w = random_walk(rng, max_depth=4)
        d = w.diagram
        rho = lattice_potential(d, rng)
        sd = skew_product(d, rho, [(0,), (2,)])
        assert sd.source_range_law_holds()
        assert oracle_violations(*diagram_levels(sd.diagram)) == []


def test_lift_walk_preserves_transitions():
    rng = random.Random(76)
    w = random_walk(rng, max_depth=4)
    d = w.diagram
    rho = lattice_potential(d, rng)
    sd = skew_product(d, rho, [(0,), (1,)])
    lifted = lift_walk(sd, w, {(0,): F(1, 3), (1,): F(2, 3)})
    for n in range(1, d.depth + 1):
        for edge, (base_id, _) in zip(sd.diagram.edges(n), sd.edge_pairs(n)):
            assert lifted.transition(n, edge.id) == w.transition(n, base_id)
    for (v, g), vid in zip(sd.vertex_pairs(0), sd.diagram.vertices(0)):
        lam = F(1, 3) if g == (0,) else F(2, 3)
        assert lifted.initial(vid) == w.initial(v) * lam


def test_lift_walk_window_validation():
    d, w = pascal_diagram(2, F(1, 2))
    rho = pascal_edge_potential(d)
    sd = skew_product(d, rho, [(0,)])
    with pytest.raises(WindowError):
        lift_walk(sd, w, {(0,): 1, (3,): 1})
    with pytest.raises(WindowError):
        lift_walk(sd, w, {})
    with pytest.raises(SupportViolation):
        lift_walk(sd, w, {(0,): 0})
    rng = random.Random(77)
    other = random_walk(rng, max_depth=2)
    with pytest.raises(IncompatibleData):
        lift_walk(sd, other, {(0,): 1})


def test_pascal_skew_harmonic_bijection_with_base():
    # the reachable skew diagram is a graph over the base vertices, so
    # terminal data is in bijection with base terminal data
    d, w = pascal_diagram(4, F(1, 2))
    rho = pascal_edge_potential(d)
    sd = skew_product(d, rho, [(0,)])
    assert len(sd.diagram.vertices(4)) == len(d.vertices(4))
    terminal = {(f"4:{k}", (k,)): F(k) for k in range(5)}
    h = skew_harmonic(sd, w, {(0,): 1}, terminal)
    base_h = harmonic_from_terminal(w, {f"4:{k}": F(k) for k in range(5)})
    for n in range(5):
        for vid, (v, _) in zip(sd.diagram.vertices(n), sd.vertex_pairs(n)):
            assert h(n, vid) == base_h(n, v)


def test_uhf_binomial_tail_value():
    # depth-10 coin-flip words; indicator of sum >= 5 has initial value
    # equal to the binomial upper tail
    supports = [{0: F(1, 2), 1: F(1, 2)} for _ in range(10)]
    d, w, rho = uhf_from_group_walk(ZLattice(1), supports)
    sd = skew_product(d, rho, [(0,)])
    assert sd.window(10) == tuple((k,) for k in range(11))
    terminal = {("u10", (k,)): (1 if k >= 5 else 0) for k in range(11)}
    h = skew_harmonic(sd, w, {(0,): 1}, terminal)
    assert h(0, "u0@0") == F(319, 512)
    assert F(319, 512) == F(sum(math.comb(10, k) for k in range(5, 11)), 2**10)


def test_uhf_single_element_supports_make_chain():
    d, w, rho = uhf_from_group_walk(ZLattice(1), [{2: 1}, {3: 1}])
    assert d.depth == 2
    assert len(enumerate_paths(d, 0, 2)) == 1
    a = enumerate_paths(d, 0, 2)[0]
    assert cylinder_measure(w, a) == 1
    assert rho.of_path(a) == (5,)


def test_uhf_word_mass_is_product_of_weights():
    supports = [
        {0: F(1, 4), 1: F(3, 4)},
        {-1: F(1, 2), 2: F(1, 3), 0: F(1, 6)},
    ]
    d, w, rho = uhf_from_group_walk(ZLattice(1), supports)
    for a in enumerate_paths(d, 0, 2):
        expected = F(1)
        for n, eid in enumerate(a.edges):
            g = rho(n + 1, eid)
            expected *= supports[n][g[0]]
        assert cylinder_measure(w, a) == expected
    total = sum(cylinder_measure(w, a) for a in enumerate_paths(d, 0, 2))
    assert total == 1


def test_uhf_validation_errors():
    with pytest.raises(IncompatibleData):
        uhf_from_group_walk(ZLattice(1), [])
    with pytest.raises(IncompatibleData):
        uhf_from_group_walk(ZLattice(1), [{}])
    with pytest.raises(SupportViolation):
        uhf_from_group_walk(ZLattice(1), [{0: F(1, 2), 1: F(1, 3)}])
    with pytest.raises(SupportViolation):
        uhf_from_group_walk(ZLattice(1), [{0: 0, 1: 1}])


def test_pascal_diagram_validation():
    with pytest.raises(IncompatibleData):
        pascal_diagram(0, F(1, 2))
    with pytest.raises(SupportViolation):
        pascal_diagram(3, F(3, 2))
    with pytest.raises(SupportViolation):
        pascal_diagram(3, 1)


def test_pascal_path_words():
    d, _ = pascal_diagram(3, F(1, 2))
    a = pascal_path(d, "010")
    assert a.edges == ("0:0:0", "1:0:1", "2:1:0")
    assert a.terminus == "3:1"
    assert pascal_path(d, "") == d.empty_path("0:0")
    with pytest.raises(IncompatibleData):
        pascal_path(d, "012")
