"""Diagram structure, validation, and path enumeration."""

import random
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bratteli
from bratteli import (
    BratteliDiagram,
    Edge,
    EdgePotential,
    FinitePath,
    HarmonicSequence,
    IncompatibleData,
    InitialDistribution,
    InvalidDiagram,
    PathError,
    ShapeMismatch,
    TransitionProbability,
    ZLattice,
    count_paths,
    enumerate_paths,
    harmonic_from_terminal,
    pascal_diagram,
    subdiagram,
    tail_related,
)

from helpers import (
    chain_diagram,
    diagram_levels,
    oracle_adjacency,
    oracle_enumerate_paths,
    oracle_violations,
    random_diagram,
)


def two_level(edges):
    return BratteliDiagram([["a", "b"], ["c", "d"]], [edges])


def test_depth_and_accessors():
    d = chain_diagram(3)
    assert d.depth == 3
    assert d.vertices(0) == ("c0",)
    assert d.vertices(3) == ("c3",)
    assert [e.id for e in d.edges(2)] == ["l2"]
    assert d.edge(1, "l1") == Edge("l1", "c0", "c1")
    assert d.edge_index(1, "l1") == 0
    assert d.vertex_index(2, "c2") == 0
    assert d.has_vertex(2, "c2")
    assert not d.has_vertex(2, "c9")


def test_accessor_range_errors():
    d = chain_diagram(2)
    with pytest.raises(PathError):
        d.vertices(3)
    with pytest.raises(PathError):
        d.edges(0)
    with pytest.raises(PathError):
        d.edge(1, "nope")
    with pytest.raises(PathError):
        d.vertex_index(0, "nope")


def test_edge_at_level_zero_raises():
    # '1:0:0' is an edge of E(2), the level that index 0 - 1 would reach
    d, _ = pascal_diagram(2, Fraction(1, 3))
    with pytest.raises(PathError, match="edge level 0 out of range 1..2"):
        d.edge(0, "1:0:0")


def test_in_edges_at_level_zero_raise():
    # '0:0' has index 0, and row 0 of the in-edges at index 0 - 1 lists E(2)'s edges into '2:0'
    d, _ = pascal_diagram(2, Fraction(1, 3))
    with pytest.raises(PathError, match="edge level 0 out of range 1..2"):
        d.in_edges(0, "0:0")


def test_out_edges_at_the_last_level_raise():
    # V(2) is the last level: no edge level leaves it
    d, _ = pascal_diagram(2, Fraction(1, 3))
    with pytest.raises(PathError, match="edge level 3 out of range 1..2"):
        d.out_edges(2, "2:0")


def test_construction_shape_errors():
    with pytest.raises(InvalidDiagram):
        BratteliDiagram([["a"]], [])
    with pytest.raises(InvalidDiagram):
        BratteliDiagram([["a"], ["b"]], [])
    with pytest.raises(InvalidDiagram):
        BratteliDiagram([["a"], ["b"]], [[("e", "a", "b")], [("f", "b", "b")]])


def violations_of(vertices, edges):
    """The ``violations`` of the InvalidDiagram that building the diagram raises."""
    with pytest.raises(InvalidDiagram) as info:
        BratteliDiagram(vertices, edges)
    return info.value.violations


def test_valid_diagram_has_no_violations():
    d = two_level([("e0", "a", "c"), ("e1", "a", "d"), ("e2", "b", "d")])
    assert oracle_violations(*diagram_levels(d)) == []


def test_violation_reporting():
    # b emits nothing, c receives nothing
    rules = {v.rule for v in violations_of([["a", "b"], ["c", "d"]], [[("e0", "a", "d")]])}
    assert "emits no edge" in rules
    assert "receives no edge" in rules


def test_violation_dangling_endpoints():
    edges = [[("e0", "a", "c"), ("e1", "zz", "d"), ("e2", "b", "qq")]]
    subjects = {(v.subject, v.rule) for v in violations_of([["a", "b"], ["c", "d"]], edges)}
    assert ("edge 'e1'", "source 'zz' not in V(0)") in subjects
    assert ("edge 'e2'", "range 'qq' not in V(1)") in subjects


def test_violation_duplicates_and_empty_level():
    rules = [v.rule for v in violations_of([["a", "a"], []], [[("e0", "a", "x"), ("e0", "a", "x")]])]
    assert "duplicate identifier" in rules
    assert "level has no vertices" in rules


@st.composite
def malformed_diagrams(draw):
    """Small diagrams over a few shared ids: levels may be empty or repeat a
    vertex id, edge ids repeat, an endpoint may name no vertex of its level
    ('z' names none at all), and vertices may emit or receive nothing."""
    depth = draw(st.integers(1, 3))
    vertices = [draw(st.lists(st.sampled_from("abc"), max_size=4)) for _ in range(depth + 1)]
    edge = st.tuples(st.sampled_from(["e", "f", "g"]), st.sampled_from("abcz"), st.sampled_from("abcz"))
    edges = [draw(st.lists(edge, max_size=5)) for _ in range(depth)]
    return vertices, edges


@settings(max_examples=300, deadline=None)
@given(malformed_diagrams())
# a duplicated vertex that emits, one that receives (only the copy its id
# resolves to holds its edges), and a valid diagram
@example(([["a", "a"], ["b"]], [[("e", "a", "b")]]))
@example(([["a"], ["b", "b"]], [[("e", "a", "b")]]))
@example(([["a"], ["b"]], [[("e", "a", "b")]]))
def test_construction_raises_the_oracle_violations(levels):
    # raises exactly when the oracle finds a violation, with all of them,
    # and the first one's words
    want = oracle_violations(*levels)
    if not want:
        d = BratteliDiagram(*levels)
        assert (d._src, d._rng, d._out, d._in) == oracle_adjacency(d)
        return
    with pytest.raises(InvalidDiagram) as info:
        BratteliDiagram(*levels)
    assert info.value.violations == want
    assert str(info.value) == str(want[0])


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_index_matches_dict_built_adjacency(rng):
    d = random_diagram(rng)
    assert oracle_violations(*diagram_levels(d)) == []
    assert (d._src, d._rng, d._out, d._in) == oracle_adjacency(d)


def test_violation_str_names_level_and_subject():
    with pytest.raises(InvalidDiagram) as info:
        two_level([("e0", "a", "d")])
    text = str(info.value.violations[0])
    assert text == str(info.value) == "level 0: vertex 'b': emits no edge"


def test_path_building_and_labels():
    d = two_level([("e0", "a", "c"), ("e1", "a", "d"), ("e2", "b", "d")])
    a = d.path(["e1"])
    assert a.anchor == "a" and a.terminus == "d"
    assert len(a) == 1 and a.end_level == 1
    assert a.label() == "e1"
    empty = d.empty_path("b")
    assert empty.label() == "@b"
    assert empty.anchor == empty.terminus == "b"
    assert len(empty) == 0


def test_path_composability_errors():
    d = chain_diagram(2)
    with pytest.raises(PathError):
        d.path(["l1", "l1"])  # l1 is not at level 2
    with pytest.raises(PathError):
        d.path(["l1", "l2", "l2"])  # runs past the last level
    with pytest.raises(PathError):
        d.path([], anchor=None)
    with pytest.raises(PathError):
        d.path(["l1"], anchor="c1")  # anchor must match the first source
    d2 = BratteliDiagram(
        [["a", "b"], ["c"], ["d"]],
        [[("e0", "a", "c"), ("e1", "b", "c")], [("f0", "c", "d")]],
    )
    with pytest.raises(PathError):
        d2.path(["f0", "e0"])  # wrong order does not compose


def test_contains_path():
    d = chain_diagram(2)
    assert d.contains_path(d.path(["l1", "l2"]))
    other = FinitePath(0, "c0", ("l1", "zz"), "c2")
    assert not d.contains_path(other)


def test_finite_path_has_no_instance_dict():
    d = chain_diagram(2)
    a = d.path(["l1", "l2"])
    assert not hasattr(a, "__dict__")
    with pytest.raises(AttributeError):
        a.terminus = "c0"
    same = FinitePath(0, "c0", ("l1", "l2"), "c2")
    assert a == same
    assert hash(a) == hash(same)
    assert repr(a) == "FinitePath(start_level=0, anchor='c0', edges=('l1', 'l2'), terminus='c2')"
    assert (a.label(), d.empty_path("c0").label()) == ("l1,l2", "@c0")


def test_path_edges_and_extensions():
    d = two_level([("e0", "a", "c"), ("e1", "a", "d"), ("e2", "b", "d")])
    empty = d.empty_path("a")
    exts = d.extensions(empty)
    assert [x.edges for x in exts] == [("e0",), ("e1",)]
    assert d.extensions(d.path(["e0"])) == []
    a = d.path(["e1"])
    assert [d.edge(a.start_level + i + 1, eid).id for i, eid in enumerate(a.edges)] == ["e1"]


def test_out_in_edges_order():
    d = two_level([("e0", "a", "c"), ("e1", "a", "d"), ("e2", "b", "d")])
    assert [e.id for e in d.out_edges(0, "a")] == ["e0", "e1"]
    assert [e.id for e in d.in_edges(1, "d")] == ["e1", "e2"]


def test_chain_has_one_path():
    d = chain_diagram(4)
    assert len(enumerate_paths(d, 0, 4)) == 1
    assert count_paths(d, 0, 4) == {"c4": 1}


def test_out_degree_product_path_count():
    # single vertex per level with out-degrees (2, 3): 6 full paths
    d = BratteliDiagram(
        [["a"], ["b"], ["c"]],
        [
            [("e0", "a", "b"), ("e1", "a", "b")],
            [("f0", "b", "c"), ("f1", "b", "c"), ("f2", "b", "c")],
        ],
    )
    paths = enumerate_paths(d, 0, 2)
    assert len(paths) == 6
    assert count_paths(d, 0, 2) == {"c": 6}


def test_enumeration_is_lexicographic():
    rng = random.Random(11)
    for _ in range(20):
        d = random_diagram(rng)
        paths = enumerate_paths(d, 0, d.depth)
        keys = [
            tuple(d.edge_index(i + 1, eid) for i, eid in enumerate(a.edges))
            for a in paths
        ]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_enumeration_matches_counts():
    rng = random.Random(12)
    for _ in range(20):
        d = random_diagram(rng)
        for n in range(d.depth + 1):
            paths = enumerate_paths(d, 0, n)
            by_end = {}
            for a in paths:
                by_end[a.terminus] = by_end.get(a.terminus, 0) + 1
            counts = count_paths(d, 0, n)
            assert by_end == {v: c for v, c in counts.items() if c}


def test_enumeration_matches_recursive_oracle():
    rng = random.Random(13)
    for _ in range(20):
        d = random_diagram(rng)
        for lo in range(d.depth):
            for hi in range(lo + 1, d.depth + 1):
                assert enumerate_paths(d, lo, hi) == oracle_enumerate_paths(d, lo, hi)


def test_enumeration_on_deep_chain():
    # far deeper than the interpreter's recursion limit
    d = chain_diagram(5000)
    (a,) = enumerate_paths(d, 0, 5000)
    assert a.edges == tuple(f"l{n}" for n in range(1, 5001))
    assert (a.anchor, a.terminus) == ("c0", "c5000")
    (b,) = enumerate_paths(d, 4000, 5000)
    assert b.edges == a.edges[4000:] and b.anchor == "c4000"


def test_enumeration_equal_levels():
    d = two_level([("e0", "a", "c"), ("e1", "a", "d"), ("e2", "b", "d")])
    empties = enumerate_paths(d, 1, 1)
    assert [a.anchor for a in empties] == ["c", "d"]
    assert all(len(a) == 0 for a in empties)
    with pytest.raises(PathError):
        enumerate_paths(d, 1, 0)


def test_tail_related():
    d = two_level([("e0", "a", "c"), ("e1", "a", "d"), ("e2", "b", "d")])
    assert tail_related(d.path(["e1"]), d.path(["e2"]))
    assert not tail_related(d.path(["e0"]), d.path(["e1"]))
    assert not tail_related(d.empty_path("a"), d.path(["e1"]))
    with pytest.raises(PathError):
        tail_related(d.empty_path("c", level=1), d.empty_path("d", level=1))


def test_subdiagram_preserves_ids_and_order():
    d = two_level([("e0", "a", "c"), ("e1", "a", "d"), ("e2", "b", "d")])
    sub = subdiagram(d, [{"a", "b"}, {"d"}], [{"e1", "e2"}])
    assert sub.vertices(0) == ("a", "b")
    assert sub.vertices(1) == ("d",)
    assert [e.id for e in sub.edges(1)] == ["e1", "e2"]
    assert oracle_violations(*diagram_levels(sub)) == []


def test_subdiagram_that_strands_a_vertex_raises():
    # without e2, b emits nothing: the keep-set is refused, not returned invalid
    d = two_level([("e0", "a", "c"), ("e1", "a", "d"), ("e2", "b", "d")])
    with pytest.raises(InvalidDiagram, match="^level 0: vertex 'b': emits no edge$") as info:
        subdiagram(d, [{"a", "b"}, {"d"}], [{"e1"}])
    assert info.value.violations == oracle_violations([["a", "b"], ["d"]], [[("e1", "a", "d")]])


def test_public_names_resolve():
    # a stale entry would make `from bratteli import *` raise
    assert len(set(bratteli.__all__)) == len(bratteli.__all__)
    for name in bratteli.__all__:
        getattr(bratteli, name)
    assert not [n for n in bratteli.__all__ if isinstance(getattr(bratteli, n), types.ModuleType)]
    namespace = {}
    exec("from bratteli import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(bratteli.__all__)


# -- per-level data keyed by id ---------------------------------------------------

PASCAL, PASCAL_WALK = pascal_diagram(2, Fraction(1, 2))


def _edge_levels(value):
    return [{e.id: value for e in PASCAL.edges(n)} for n in (1, 2)]


def _faulty(levels, fault):
    """``levels`` with one fault: the last id of the last level left out, an
    unknown id 'zz' added to the last level, or the last level dropped."""
    levels = [dict(row) for row in levels]
    if fault == "missing":
        levels[-1].popitem()
    elif fault == "unknown":
        levels[-1]["zz"] = next(iter(levels[-1].values()))
    else:
        levels.pop()
    return levels


def _one_level(build, mapping):
    return lambda fault: build(_faulty([mapping], fault)[0])


CONSTRUCTORS = {
    "p": lambda fault: TransitionProbability(PASCAL, _faulty(_edge_levels(Fraction(1, 2)), fault)),
    "nu0": _one_level(lambda m: InitialDistribution(PASCAL, m), {"0:0": 1}),
    "rho": lambda fault: EdgePotential(PASCAL, ZLattice(1), _faulty(_edge_levels((0,)), fault)),
    "terminal": _one_level(
        lambda m: harmonic_from_terminal(PASCAL_WALK, m), {v: 1 for v in PASCAL.vertices(2)}
    ),
    "harmonic": lambda fault: HarmonicSequence(
        PASCAL, _faulty([{v: 1 for v in PASCAL.vertices(n)} for n in range(3)], fault)
    ),
}


@pytest.mark.parametrize(
    "which, fault, exc, message",
    [
        ("p", "missing", IncompatibleData, "transition probability: no value for edge '1:1:1' at level 2"),
        ("p", "unknown", IncompatibleData, "transition probability: unknown edge 'zz' at level 2"),
        ("p", "levels", IncompatibleData,
         "transition probability: got 1 levels of values, diagram has 2 edge levels"),
        ("nu0", "missing", IncompatibleData, "initial distribution: no value for vertex '0:0'"),
        ("nu0", "unknown", IncompatibleData, "initial distribution: unknown vertex 'zz'"),
        ("rho", "missing", IncompatibleData, "potential: no value for edge '1:1:1' at level 2"),
        ("rho", "unknown", IncompatibleData, "potential: unknown edge 'zz' at level 2"),
        ("rho", "levels", IncompatibleData, "potential: got 1 levels of values, diagram has 2 edge levels"),
        ("terminal", "missing", ShapeMismatch, "terminal data: no value for vertex '2:2'"),
        ("terminal", "unknown", ShapeMismatch, "terminal data: unknown vertex 'zz'"),
        ("harmonic", "missing", ShapeMismatch, "harmonic sequence: no value for vertex '2:2' at level 2"),
        ("harmonic", "unknown", ShapeMismatch, "harmonic sequence: unknown vertex 'zz' at level 2"),
        ("harmonic", "levels", ShapeMismatch,
         "harmonic sequence: got 2 levels of values, diagram has 3 vertex levels"),
    ],
)
def test_alignment_fault_messages(which, fault, exc, message):
    with pytest.raises(exc) as info:
        CONSTRUCTORS[which](fault)
    assert type(info.value) is exc
    assert str(info.value) == message
