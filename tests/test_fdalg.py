"""Relation algebras, the model expectation, and matrix-unit machinery."""

import json
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bratteli import (
    AlgebraElement,
    FiniteEquivRelation,
    IncompatibleData,
    InclusionGraph,
    InvalidDiagram,
    ModelExpectation,
    NotACocycle,
    NotAMatrixUnit,
    ShapeMismatch,
    SupportViolation,
    brute_force_commutant,
    canonical_units,
    commutant_embed_k,
    diagonalize_state,
    extend_matrix_unit,
    extract_transition,
    identity_element,
    include_j,
    matrix_unit,
    pinch_average_decompose,
    trivialize_cocycle,
    verify_expectation,
)
from bratteli import fdalg
from bratteli.cli import main

from helpers import (
    chain_diagram,
    fraction_echelon,
    fraction_semidefinite,
    fraction_span,
    make_graph,
    oracle_verify_expectation,
    random_element,
    random_inclusion_graph,
    random_transition,
    sized_inclusion_graph,
    with_unit_images,
)

F = Fraction


def two_edge_graph(p=None):
    """One point over one vertex, two parallel edges to one target."""
    g = make_graph(
        X=["x"],
        V=["v"],
        E=["a", "b"],
        Vbar=["w"],
        vertex_of={"x": "v"},
        source_of={"a": "v", "b": "v"},
        range_of={"a": "w", "b": "w"},
    )
    return (g, ModelExpectation(g, p)) if p is not None else g


# -- relations and elements ----------------------------------------------------


def test_relation_dimension_counts_pairs():
    rel = FiniteEquivRelation.from_partition([["a", "b"], ["c"]])
    assert rel.dimension == 5
    assert tuple(map(len, rel.classes())) == (2, 1)
    assert len(list(rel.pairs())) == 5
    single = FiniteEquivRelation.from_partition([["x"]])
    assert single.dimension == 1


def test_relation_membership():
    rel = FiniteEquivRelation.from_partition([["a", "b"], ["c"]])
    assert rel.related("a", "b")
    assert not rel.related("a", "c")
    assert not rel.related("a", "zz")
    assert rel.class_of("b") == ("a", "b")
    assert rel.classes() == (("a", "b"), ("c",))
    assert len(rel) == 3


def test_relation_construction_errors():
    with pytest.raises(IncompatibleData):
        FiniteEquivRelation(["x", "x"], ["v"], {"x": "v"})
    with pytest.raises(IncompatibleData):
        FiniteEquivRelation(["x"], ["v", "w"], {"x": "v"})  # w empty
    with pytest.raises(IncompatibleData):
        FiniteEquivRelation(["x"], ["v"], {})
    with pytest.raises(IncompatibleData):
        FiniteEquivRelation(["x"], ["v"], {"x": "zz"})


def test_element_rejects_entries_outside_relation():
    rel = FiniteEquivRelation.from_partition([["a", "b"], ["c"]])
    AlgebraElement(rel, {("a", "b"): 1})
    with pytest.raises(ShapeMismatch):
        AlgebraElement(rel, {("a", "c"): 1})


def test_element_arithmetic_matches_dense():
    rng = random.Random(51)
    rel = FiniteEquivRelation.from_partition([["a", "b", "c"], ["d", "e"]])
    for _ in range(20):
        f, g = random_element(rng, rel), random_element(rng, rel)
        assert np.allclose((f * g).to_dense(), f.to_dense() @ g.to_dense())
        assert np.allclose((f + g).to_dense(), f.to_dense() + g.to_dense())
        assert np.allclose((f - g).to_dense(), f.to_dense() - g.to_dense())
        assert np.allclose(f.adjoint().to_dense(), f.to_dense().conj().T)
        assert np.allclose((2j * f).to_dense(), 2j * f.to_dense())
        assert abs(f.trace() - np.trace(f.to_dense())) < 1e-12


def test_element_arithmetic_keeps_exact_types():
    rel = FiniteEquivRelation.from_partition([["a", "b"]])
    f = AlgebraElement(rel, {("a", "b"): F(1, 3)})
    g = AlgebraElement(rel, {("b", "a"): F(3, 5)})
    assert (f * g).entries[("a", "a")] == F(1, 5)
    assert isinstance((f * g).entries[("a", "a")], F)


def test_element_results_drop_zeros_and_keep_types():
    # results are built without the support test; they still drop zeros, and
    # a product with an int 1 keeps the other factor's type
    rng = random.Random(52)
    rel = FiniteEquivRelation.from_partition([["a", "b", "c"], ["d", "e"]])
    for _ in range(20):
        f, g = random_element(rng, rel), random_element(rng, rel)
        for result in (f * g, f + g, f - g, -f, f.adjoint(), 0 * f):
            assert result == AlgebraElement(rel, result.entries)
        assert f - f == AlgebraElement.zero(rel)
    f = AlgebraElement(rel, {("a", "b"): F(1, 3)})
    unit = AlgebraElement(rel, {("b", "b"): 1})
    assert type((f * unit).entries[("a", "b")]) is F
    assert type((unit * unit).entries[("b", "b")]) is int
    assert type((unit * unit.scale(0.5)).entries[("b", "b")]) is float


def test_element_mixed_relations_raise():
    rel1 = FiniteEquivRelation.from_partition([["a", "b"]])
    rel2 = FiniteEquivRelation.from_partition([["a"], ["b"]])
    f = AlgebraElement(rel1, {("a", "b"): 1})
    g = AlgebraElement(rel2, {("a", "a"): 1})
    with pytest.raises(ShapeMismatch):
        f + g
    with pytest.raises(ShapeMismatch):
        f * g


def test_matrix_unit_laws():
    rel = FiniteEquivRelation.from_partition([["a", "b", "c"]])
    units = canonical_units(rel)
    for (x, y) in rel.pairs():
        for (u, z) in rel.pairs():
            prod = units[(x, y)] * units[(u, z)]
            expected = units[(x, z)] if y == u else AlgebraElement.zero(rel)
            assert prod == expected
        assert units[(x, y)].adjoint() == units[(y, x)]
    with pytest.raises(IncompatibleData):
        matrix_unit(FiniteEquivRelation.from_partition([["a"], ["b"]]), "a", "b")


def test_identity_element():
    rel = FiniteEquivRelation.from_partition([["a", "b"], ["c"]])
    one = identity_element(rel)
    f = AlgebraElement(rel, {("a", "b"): 2, ("c", "c"): 3})
    assert one * f == f and f * one == f
    assert one.trace() == 3


# -- inclusion graphs ----------------------------------------------------------


def test_inclusion_graph_xbar_order():
    g = make_graph(
        X=["x0", "x1"],
        V=["v"],
        E=["a", "b"],
        Vbar=["w"],
        vertex_of={"x0": "v", "x1": "v"},
        source_of={"a": "v", "b": "v"},
        range_of={"a": "w", "b": "w"},
    )
    assert g.Xbar == (("x0", "a"), ("x0", "b"), ("x1", "a"), ("x1", "b"))
    assert g.fiber("v") == ("x0", "x1")
    assert g.out_edges("v") == ("a", "b")


def test_inclusion_graph_adjacency_matches_scans():
    rng = random.Random(51)
    for _ in range(20):
        g = random_inclusion_graph(rng)
        for v in g.V:
            assert g.fiber(v) == tuple(x for x in g.X if g.vertex_of[x] == v)
            assert g.out_edges(v) == tuple(e for e in g.E if g.source_of[e] == v)
        assert g.Xbar == tuple(
            (x, e) for x in g.X for e in g.E if g.vertex_of[x] == g.source_of[e]
        )
        assert g.fiber("no such vertex") == g.out_edges("no such vertex") == ()


def test_inclusion_graph_surjectivity_errors():
    with pytest.raises(InvalidDiagram):
        make_graph(
            X=["x"], V=["v", "v2"], E=["a"], Vbar=["w"],
            vertex_of={"x": "v"}, source_of={"a": "v"}, range_of={"a": "w"},
        )
    with pytest.raises(IncompatibleData):
        make_graph(
            X=["x"], V=["v"], E=["a"], Vbar=["w"],
            vertex_of={"x": "zz"}, source_of={"a": "v"}, range_of={"a": "w"},
        )
    with pytest.raises(IncompatibleData):
        make_graph(
            X=["x"], V=["v"], E=["a"], Vbar=["w"],
            vertex_of={}, source_of={"a": "v"}, range_of={"a": "w"},
        )


def test_derived_relations():
    rng = random.Random(52)
    for _ in range(20):
        g = random_inclusion_graph(rng)
        big = g.big_relation()
        assert big.X == g.Xbar
        for (x, a) in g.Xbar:
            for (y, b) in g.Xbar:
                assert big.related((x, a), (y, b)) == (g.range_of[a] == g.range_of[b])
        comm = g.commutant_relation()
        for a in g.E:
            for b in g.E:
                assert comm.related(a, b) == (
                    g.source_of[a] == g.source_of[b] and g.range_of[a] == g.range_of[b]
                )
        pinched = g.pinched_relation()
        for (x, a) in g.Xbar:
            for (y, b) in g.Xbar:
                assert pinched.related((x, a), (y, b)) == (a == b)


def test_j_of_scalar_is_scalar():
    g = two_edge_graph()
    lam = 3 - 2j
    f = AlgebraElement(g.base_relation(), {("x", "x"): lam})
    jf = include_j(g, f)
    assert jf == identity_element(g.big_relation()).scale(lam)


def test_j_is_multiplicative_and_unital():
    rng = random.Random(53)
    for _ in range(50):
        g = random_inclusion_graph(rng)
        base, big = g.base_relation(), g.big_relation()
        f, h = random_element(rng, base), random_element(rng, base)
        assert include_j(g, f * h).distance(include_j(g, f) * include_j(g, h)) < 1e-9
        assert include_j(g, identity_element(base)) == identity_element(big)
    with pytest.raises(ShapeMismatch):
        include_j(g, identity_element(g.commutant_relation()))


def test_k_of_identity_is_identity():
    rng = random.Random(54)
    for _ in range(10):
        g = random_inclusion_graph(rng)
        one = identity_element(g.commutant_relation())
        assert commutant_embed_k(g, one) == identity_element(g.big_relation())
    with pytest.raises(ShapeMismatch):
        commutant_embed_k(g, identity_element(g.base_relation()))


def test_j_and_k_images_commute():
    rng = random.Random(55)
    for _ in range(50):
        g = random_inclusion_graph(rng)
        f = random_element(rng, g.base_relation())
        h = random_element(rng, g.commutant_relation())
        jf, kh = include_j(g, f), commutant_embed_k(g, h)
        assert (jf * kh).distance(kh * jf) < 1e-9


def test_k_image_dimension_counts_parallel_pairs():
    # both edges share source and range, so R' is one 2-class of dimension 4
    g = make_graph(
        X=["x0", "x1"], V=["v"], E=["a", "b"], Vbar=["w"],
        vertex_of={"x0": "v", "x1": "v"},
        source_of={"a": "v", "b": "v"},
        range_of={"a": "w", "b": "w"},
    )
    comm = g.commutant_relation()
    assert comm.dimension == 4
    kimg = [commutant_embed_k(g, u) for u in canonical_units(comm).values()]
    assert len(fraction_span(kimg, g.big_relation())) == 4


def test_commutant_of_scalars_is_everything():
    rel = FiniteEquivRelation.from_partition([["a", "b"], ["c"]])
    basis = brute_force_commutant([identity_element(rel).scale(F(5, 2))], rel)
    assert len(basis) == rel.dimension


def test_commutant_basis_actually_commutes():
    rng = random.Random(56)
    for _ in range(10):
        g = random_inclusion_graph(rng, max_points=4, max_edges=5)
        big = g.big_relation()
        jimg = [include_j(g, u) for u in canonical_units(g.base_relation()).values()]
        # exact generators give a Fraction basis that commutes exactly
        for m in brute_force_commutant(jimg, big):
            assert all(type(v) is F for v in m.entries.values())
            for gen in jimg:
                assert m * gen == gen * m
        with pytest.raises(IncompatibleData, match="^generators have non-exact entries"):
            brute_force_commutant([m.scale(1.0) for m in jimg], big)


def test_commutant_equals_k_image():
    rng = random.Random(57)
    for _ in range(15):
        g = random_inclusion_graph(rng, max_points=4, max_edges=5)
        big = g.big_relation()
        jimg = [include_j(g, u) for u in canonical_units(g.base_relation()).values()]
        kimg = [commutant_embed_k(g, u) for u in canonical_units(g.commutant_relation()).values()]
        comm = brute_force_commutant(jimg, big)
        assert len(comm) == g.commutant_relation().dimension
        assert fraction_span(comm, big) == fraction_span(kimg, big)


def test_commutant_generator_relation_mismatch():
    rel1 = FiniteEquivRelation.from_partition([["a", "b"]])
    rel2 = FiniteEquivRelation.from_partition([["a"], ["b"]])
    with pytest.raises(ShapeMismatch):
        brute_force_commutant([identity_element(rel1)], rel2)


# -- the model expectation ------------------------------------------------------


def test_expectation_on_two_edges():
    g, me = two_edge_graph({"a": F(1, 2), "b": F(1, 2)})
    big = g.big_relation()
    eaa = AlgebraElement(big, {(("x", "a"), ("x", "a")): 1})
    assert me(eaa) == AlgebraElement(g.base_relation(), {("x", "x"): F(1, 2)})
    cross = AlgebraElement(big, {(("x", "a"), ("x", "b")): 1})
    assert me(cross) == AlgebraElement.zero(g.base_relation())


def test_expectation_probability_validation():
    g = two_edge_graph()
    with pytest.raises(SupportViolation):
        ModelExpectation(g, {"a": F(1, 2), "b": F(1, 3)})
    with pytest.raises(SupportViolation):
        ModelExpectation(g, {"a": 0, "b": 1})
    with pytest.raises(IncompatibleData):
        ModelExpectation(g, {"a": 1})
    with pytest.raises(IncompatibleData, match="unknown edge 'no-such-edge'"):
        ModelExpectation(g, {"a": F(1, 2), "b": F(1, 2), "no-such-edge": 7})


def test_inclusion_graph_needs_one_valid_floor():
    with pytest.raises(InvalidDiagram, match="^level 1: edge 'a': duplicate identifier$"):
        make_graph(
            X=["x"], V=["v"], E=["a", "a"], Vbar=["w"],
            vertex_of={"x": "v"}, source_of={"a": "v"}, range_of={"a": "w"},
        )
    with pytest.raises(IncompatibleData, match="^inclusion graph: diagram has depth 2, need 1$"):
        InclusionGraph(chain_diagram(2), {"x": "c0"})


def test_expectation_is_projection_onto_j_image():
    rng = random.Random(58)
    for _ in range(50):
        g = random_inclusion_graph(rng)
        me = ModelExpectation(g, random_transition(rng, g))
        f = random_element(rng, g.base_relation())
        assert me(include_j(g, f)).distance(f) < 1e-9


def test_verify_expectation_passes_on_model():
    # a scaled basis spans the same subalgebra
    rng = random.Random(59)
    for i in range(25):
        g = random_inclusion_graph(rng)
        me = ModelExpectation(g, random_transition(rng, g))
        scalar = [1, 2, F(1, 2)][i % 3]
        basis = [m.scale(scalar) for m in me.subalgebra_basis()]
        report = verify_expectation(me.as_endomorphism(), g.big_relation(), basis)
        assert report.all_pass, report.failures


def test_verify_expectation_identity_map():
    rel = FiniteEquivRelation.from_partition([["a", "b"], ["c"]])
    basis = list(canonical_units(rel).values())
    report = verify_expectation(lambda f: f, rel, basis)
    assert report.all_pass


def test_verify_expectation_detects_unfaithful():
    # p(b) = 0 slipped past the type's guard: eps(b) lands in the kernel
    g = two_edge_graph()
    q = point_dependent_q(g, {("x", "a"): F(1), ("x", "b"): F(0)})
    report = verify_expectation(q, g.big_relation(), [
        include_j(g, u) for u in canonical_units(g.base_relation()).values()
    ])
    assert not report.faithful
    assert not report.all_pass


@pytest.mark.parametrize("drift", [1e-9, 0])
def test_verify_expectation_decides_exact_faithfulness_exactly(drift):
    # the class Gram matrix of the two-edge model is diag(p(a), p(b));
    # float p is refused by its type, also at drift 0, where it equals exact (1, 0)
    g = two_edge_graph()
    basis = [include_j(g, u) for u in canonical_units(g.base_relation()).values()]
    xa, xb = ("x", "a"), ("x", "b")

    def report(pa, pb, skew=0):
        # ``skew`` adds skew * f(xa, xb) to Q(f)(x, x), whose j-image has trace 2:
        # Gram[a][b] = 2 skew and Gram[b][a] = 0
        unit = AlgebraElement(g.base_relation(), {("x", "x"): 1})
        model = point_dependent_q(g, {xa: pa, xb: pb})

        def q(fbar):
            shift = unit.scale(skew * fbar.entries.get((xa, xb), 0))
            return model(fbar) + include_j(g, shift)

        return verify_expectation(q, g.big_relation(), basis)

    tiny = F(1, 10**12)
    assert report(1 - tiny, tiny).faithful
    assert first_failure(report(F(1), F(0)), "faithful") == (
        "faithful: trace form on class of ('x', 'a') is not positive definite"
    )
    assert first_failure(report(F(1, 2), F(1, 2), tiny), "faithful") == (
        "faithful: trace form not hermitian (off by 2e-12)"
    )
    with pytest.raises(IncompatibleData, match="^a unit image has non-exact entries"):
        report(1.0 - drift, 0.0 + drift)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)
    ),
    st.booleans(),
)
def test_semidefinite_matches_fraction_ldl(block, gram):
    # B^T B is semidefinite, often singular; B + B^T is any symmetric matrix.
    # Entry (i, j) is divided by 1 + (i + j) % 3, which keeps it symmetric.
    n = len(block)
    rows = [
        [F(sum(b[i] * b[j] for b in block) if gram else block[i][j] + block[j][i], 1 + (i + j) % 3)
         for j in range(n)]
        for i in range(n)
    ]
    semidefinite = fraction_semidefinite(rows)
    assert fdalg._semidefinite(rows, definite=False) == semidefinite
    assert fdalg._semidefinite(rows, definite=True) == (semidefinite and len(fraction_echelon(rows)) == n)


def test_verify_expectation_detects_non_idempotent():
    # f / 2 in doubles is refused; test_verify_expectation_reports_exact_non_idempotent
    # checks the exact f / 2
    rel = FiniteEquivRelation.from_partition([["a", "b"]])
    with pytest.raises(IncompatibleData, match="^a unit image has non-exact entries"):
        verify_expectation(lambda f: f.scale(0.5), rel, list(canonical_units(rel).values()))


# -- verify_expectation against the oracle, and on broken Qs ---------------------


def point_dependent_q(g, weights):
    """Q(f)(x,y) = j of the sum over c of weights[(x, c)] f(xc, yc): a model
    whose transition depends on the point, not only on the edge."""
    base = g.base_relation()

    def Q(fbar):
        out = {}
        for ((x, a), (y, b)), v in fbar.entries.items():
            if a == b:
                out[(x, y)] = out.get((x, y), 0) + weights[(x, a)] * v
        return include_j(g, AlgebraElement(base, out))

    return Q


def broken_q(kind, g, me, rng):
    model = me.as_endomorphism()
    if kind == "model":
        return model
    if kind == "adjoint":
        return lambda f: model(f.adjoint())
    if kind == "leaves-range":
        return lambda f: model(f) + f.scale(F(1, 7))
    if kind == "wrong-p":
        return point_dependent_q(g, {(x, e): F(rng.randint(1, 5), 7) for (x, e) in g.Xbar})
    if kind == "square":
        return lambda f: model(f * f)
    if kind == "moves-zero":  # the model, except that Q(0) is not 0
        shift = identity_element(g.big_relation()).scale(F(1, 5))
        return lambda f: model(f) if f.entries else shift
    if kind == "p-zero":  # weight 0 on the first edge c: eps(c) is in Q's kernel
        return point_dependent_q(g, {(x, e): 0 if e == g.E[0] else me.p[e] for (x, e) in g.Xbar})
    if kind == "spreads":  # adds f(last pair) z, so Q(u) leaves u's lines
        # z = j(e(x0, y)) or j(e(y, x0)), y the last point over x0's vertex
        x, y = g.X[0], g.fiber(g.vertex_of[g.X[0]])[-1]
        z = include_j(g, matrix_unit(g.base_relation(), *rng.sample([x, y], 2)))
        *_, last = g.big_relation().pairs()
        return lambda f: model(f) + z.scale(f.entries.get(last, 0))
    raise ValueError(kind)


Q_KINDS = [
    "model", "adjoint", "leaves-range", "wrong-p", "square", "moves-zero", "spreads", "p-zero"
]


def sub_basis(kind, me, scalar, rng):
    """Scaled j-images of the base units; "sums" adds a second random one to
    each, so lines of a basis element can hold two entries; "with-zero" puts
    the zero element at a random place; "x0" is j(e(x0, x0)) alone, which the
    "spreads" Q breaks only at a pair that touches it through one side of
    Q(u) alone."""
    g = me.graph
    if kind == "x0":
        return [include_j(g, matrix_unit(g.base_relation(), g.X[0], g.X[0])).scale(scalar)]
    basis = [m.scale(scalar) for m in me.subalgebra_basis()]
    if kind == "sums":
        basis = [m + basis[rng.randrange(len(basis))] for m in basis]
    elif kind == "with-zero":
        basis.insert(rng.randint(0, len(basis)), AlgebraElement.zero(g.big_relation()))
    return basis


@settings(max_examples=60, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from(Q_KINDS),
    st.sampled_from([1, 2, F(1, 2), F(1)]),
    st.sampled_from(["units", "sums", "with-zero", "x0"]),
)
# the one failing pair touches x0's unit through Q(u)'s rows (24) or columns (7);
# the zero element touches no unit, and Q(0) is not 0 (2)
@example(random.Random(24), "spreads", 1, "x0")
@example(random.Random(7), "spreads", 1, "x0")
@example(random.Random(2), "moves-zero", 1, "with-zero")
def test_verify_expectation_matches_oracle(rng, kind, scalar, basis_kind):
    g = random_inclusion_graph(rng)
    me = ModelExpectation(g, random_transition(rng, g))
    Q = broken_q(kind, g, me, rng)
    basis = sub_basis(basis_kind, me, scalar, rng)
    big = g.big_relation()
    assert verify_expectation(Q, big, basis) == oracle_verify_expectation(Q, big, basis)


# the kinds of broken_q that are linear maps; "square" and "moves-zero" are not
LINEAR_KINDS = ["model", "adjoint", "leaves-range", "wrong-p", "spreads", "p-zero"]


@settings(max_examples=60, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from(LINEAR_KINDS),
    st.sampled_from([1, 2, F(1, 2), F(1)]),
    st.sampled_from(["units", "sums", "with-zero", "x0"]),
)
@example(random.Random(24), "spreads", 1, "x0")
@example(random.Random(7), "spreads", 1, "x0")
def test_matrix_path_reports_as_the_callable_path(rng, kind, scalar, basis_kind):
    # a linear Q carrying its unit images is never called, and reports as the
    # same Q without them and as the oracle, messages included
    g = random_inclusion_graph(rng)
    me = ModelExpectation(g, random_transition(rng, g))
    Q = broken_q(kind, g, me, rng)
    basis = sub_basis(basis_kind, me, scalar, rng)
    big = g.big_relation()
    matrix = with_unit_images(Q, big)
    report = verify_expectation(matrix, big, basis)
    assert matrix.calls == 0
    assert report == verify_expectation(lambda f: Q(f), big, basis)
    assert report == oracle_verify_expectation(Q, big, basis)
    if kind == "model":
        assert report == verify_expectation(me.as_endomorphism(), big, basis)


def test_model_unit_images_are_its_values():
    # the model's own columns, read off p's integers, are D Q(u) for every unit u
    rng = random.Random(91)
    for _ in range(20):
        g = random_inclusion_graph(rng)
        me = ModelExpectation(g, random_transition(rng, g))
        relation, den, columns = me.as_endomorphism().unit_images()
        _, den_q, columns_q = with_unit_images(me.as_endomorphism(), g.big_relation()).unit_images()
        assert relation == g.big_relation()
        assert [{k: F(v, den) for k, v in col.items()} for col in columns] == [
            {k: F(v, den_q) for k, v in col.items()} for col in columns_q
        ]


def test_matrix_path_reports_the_trace_form_alike():
    # the skewed two-edge models of the faithfulness test are linear: with their
    # unit images they report as without, the trace form's distance included
    g = two_edge_graph()
    big = g.big_relation()
    basis = [include_j(g, u) for u in canonical_units(g.base_relation()).values()]
    xa, xb = ("x", "a"), ("x", "b")
    unit = AlgebraElement(g.base_relation(), {("x", "x"): 1})
    cases = [(F(1), F(0), 0), (F(2, 3), F(1, 3), 0),
             (F(1, 2), F(1, 2), F(1, 10**12)), (F(2, 3), F(1, 3), F(5, 7))]
    for pa, pb, skew in cases:
        model = point_dependent_q(g, {xa: pa, xb: pb})

        def q(fbar):
            return model(fbar) + include_j(g, unit.scale(skew * fbar.entries.get((xa, xb), 0)))

        report = verify_expectation(q, big, basis)
        assert verify_expectation(with_unit_images(q, big), big, basis) == report
        assert report.faithful == (skew == 0 and pb != 0)


def test_module_check_reaches_units_with_image_zero():
    # x0 and y over one vertex, m = j(e(y, x0)): the first failing pair of
    # the module check has a unit u with Q(u) = 0, found only because m u has
    # an image (first case) or m has a line that is not one int 1 (second)
    g = make_graph(["x0", "y"], ["v"], ["a", "b"], ["w"], {"x0": "v", "y": "v"},
                   {"a": "v", "b": "v"}, {"a": "w", "b": "w"})
    me = ModelExpectation(g, {"a": F(1, 3), "b": F(2, 3)})
    big, model = g.big_relation(), me.as_endomorphism()
    m = include_j(g, matrix_unit(g.base_relation(), "y", "x0"))
    u0 = (("x0", "a"), ("x0", "a"))

    def dropped(f):  # the model with Q(u0) = 0: linear
        return model(f) - model(AlgebraElement(big, {u0: 1})).scale(f.entries.get(u0, 0))

    report = oracle_verify_expectation(dropped, big, [m])
    assert first_failure(report, "bimodular") == "bimodular: Q(m f) != m Q(f), off by 0.333"
    assert verify_expectation(with_unit_images(dropped, big), big, [m]) == report
    assert verify_expectation(lambda f: dropped(f), big, [m]) == report
    index = {pair: k for k, pair in enumerate(big.pairs())}
    z = include_j(g, matrix_unit(g.base_relation(), "x0", "x0"))

    def marked(f):  # adds (k + 1) z for each entry 2 at a pair k of unequal edges
        weight = sum(index[(x, y)] + 1 for (x, y), v in f.entries.items() if v == 2 and x[1] != y[1])
        return model(f) + z.scale(weight)

    report = oracle_verify_expectation(marked, big, [m.scale(2)])
    assert not report.bimodular
    assert verify_expectation(marked, big, [m.scale(2)]) == report


def test_matrix_path_samples_positivity():
    # the transpose of M_2 is positive but not completely positive: both paths
    # sample positivity and pass it; it is not idempotent
    rel = FiniteEquivRelation.from_partition([["1", "2"]])
    basis = list(canonical_units(rel).values())
    report = verify_expectation(with_unit_images(AlgebraElement.adjoint, rel), rel, basis)
    assert report == verify_expectation(lambda f: f.adjoint(), rel, basis)
    assert (report.positive, report.idempotent) == (True, False)


def test_expect_makes_no_q_call(tmp_path, capsys, monkeypatch):
    # the CLI takes the matrix path: ModelExpectation.__call__ is never run
    g = sized_inclusion_graph(random.Random(92), 6, 8, 2)
    me = ModelExpectation(g, random_transition(random.Random(93), g))
    graph = {
        "vertices": [list(g.V), list(g.Vbar)],
        "edges": [[{"id": e, "src": g.source_of[e], "rng": g.range_of[e], "p": str(me.p[e])}
                   for e in g.E]],
        "X": g.vertex_of,
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    calls = []
    model = ModelExpectation.__call__
    monkeypatch.setattr(ModelExpectation, "__call__", lambda self, f: calls.append(f) or model(self, f))
    assert main(["expect", "--graph", str(path)]) == 0
    assert calls == []
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows == [f"{check}\tpass" for check in fdalg.ExpectationReport.CHECKS]


def report_fields(report):
    return [getattr(report, check) for check in report.CHECKS]


def test_verify_expectation_samples_real_f_on_exact_input():
    # on M_2 over C 1, Q(f) = (tr f / 2 + (f(1,2) - f(2,1)) / 3) 1 is positive
    # on real f, not on complex f; its trace form is not hermitian
    rel = FiniteEquivRelation.from_partition([["1", "2"]])
    one = identity_element(rel)

    def q(f):
        e = f.entries
        return one.scale(f.trace() * F(1, 2) + (e.get(("1", "2"), 0) - e.get(("2", "1"), 0)) * F(1, 3))

    exact = verify_expectation(q, rel, [one])
    assert report_fields(exact) == [True, True, True, True, True, False]
    assert first_failure(exact, "faithful").startswith("faithful: trace form not hermitian")
    with pytest.raises(IncompatibleData, match="^sub_basis has non-exact entries"):
        verify_expectation(q, rel, [one.scale(1.0)])


class NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used")


def test_exact_input_runs_no_float_linear_algebra(tmp_path, capsys, monkeypatch):
    g = random_inclusion_graph(random.Random(76))
    me = ModelExpectation(g, random_transition(random.Random(77), g))
    big, basis = g.big_relation(), me.subalgebra_basis()
    graph = {
        "vertices": [list(g.V), list(g.Vbar)],
        "edges": [[{"id": e, "src": g.source_of[e], "rng": g.range_of[e], "p": str(me.p[e])}
                   for e in g.E]],
        "X": g.vertex_of,
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    monkeypatch.setitem(sys.modules, "numpy", NoNumpy())
    assert verify_expectation(me.as_endomorphism(), big, basis).all_pass
    assert main(["expect", "--graph", str(path)]) == 0
    assert capsys.readouterr().err == ""
    with pytest.raises(IncompatibleData, match="^sub_basis has non-exact entries"):
        verify_expectation(me.as_endomorphism(), big, [m.scale(1.0) for m in basis])


def test_reports_need_no_numpy(monkeypatch):
    # every broken Q reports as the oracle does, messages included, and
    # between them they fail each of the six checks
    monkeypatch.setitem(sys.modules, "numpy", NoNumpy())
    rng = random.Random(78)
    failed = set()
    for _ in range(8):
        g = random_inclusion_graph(rng)
        me = ModelExpectation(g, random_transition(rng, g))
        big, basis = g.big_relation(), me.subalgebra_basis()
        for kind in Q_KINDS:
            Q = broken_q(kind, g, me, rng)
            report = verify_expectation(Q, big, basis)
            assert report == oracle_verify_expectation(Q, big, basis)
            failed.update(check for check in report.CHECKS if not getattr(report, check))
    assert failed == set(fdalg.ExpectationReport.CHECKS)


def test_verify_expectation_matches_oracle_at_scale():
    # 300 big pairs in three classes of 10 points over a base of 5 pairs: x0
    # and x1 lie over v0 and x2 over v1, and v0 (v1) sends 3 (4) edges into
    # each w, so the images of the model share 5 directions, 9 or 12 units each
    X, V, Vbar = ["x0", "x1", "x2"], ["v0", "v1"], ["w0", "w1", "w2"]
    ends = [(v, w) for w in Vbar for v, k in (("v0", 3), ("v1", 4)) for _ in range(k)]
    rng = random.Random(86)
    rng.shuffle(ends)
    E = [f"c{k}" for k in range(len(ends))]
    g = make_graph(
        X, V, E, Vbar, {"x0": "v0", "x1": "v0", "x2": "v1"},
        {e: v for e, (v, _) in zip(E, ends)}, {e: w for e, (_, w) in zip(E, ends)},
    )
    me = ModelExpectation(g, random_transition(rng, g))
    big, basis = g.big_relation(), me.subalgebra_basis()
    assert (big.dimension, len(big.classes())) == (300, 3)
    failed = set()
    for kind in Q_KINDS:
        Q = broken_q(kind, g, me, rng)
        report = verify_expectation(Q, big, basis)
        assert report == oracle_verify_expectation(Q, big, basis), kind
        failed.update(check for check in report.CHECKS if not getattr(report, check))
    assert failed == set(fdalg.ExpectationReport.CHECKS)


def test_verify_expectation_peak_memory():
    # the benchmark's largest algebra graph shape (12 points, 14 edges, 1,120
    # big pairs): holding every unit, its image and a row dict per image
    # peaked at 1.51 MB; one column per image, 0 shared, peaks at 0.56 MB
    g = sized_inclusion_graph(random.Random(87), 12, 14, 3)
    me = ModelExpectation(g, random_transition(random.Random(88), g))
    big, basis, model = g.big_relation(), me.subalgebra_basis(), me.as_endomorphism()
    assert big.dimension == 1120
    tracemalloc.start()
    try:
        report = verify_expectation(model, big, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_pass
    assert peak <= 0.8 * 2**20


def test_non_exact_input_is_refused():
    g = random_inclusion_graph(random.Random(79))
    me = ModelExpectation(g, random_transition(random.Random(80), g))
    model, big, basis = me.as_endomorphism(), g.big_relation(), me.subalgebra_basis()
    with pytest.raises(IncompatibleData, match="^sub_basis has non-exact entries"):
        verify_expectation(model, big, [*basis[:-1], basis[-1].scale(1.0)])
    with pytest.raises(IncompatibleData, match="^a unit image has non-exact entries"):
        verify_expectation(lambda f: model(f).scale(1.0), big, basis)
    # 1, the units and the products m u carry only 1s, so Q returns doubles
    # only for Q(Q(u)), which the idempotence check compares, and Q(f*f)
    with pytest.raises(IncompatibleData, match=r"^Q\(Q\(u\)\) has non-exact entries"):
        verify_expectation(
            lambda f: model(f).scale(1.0 if any(v != 1 for v in f.entries.values()) else 1),
            big, basis,
        )
    # the samples f*f, and no other argument, have an entry on every pair
    dense = len(list(big.pairs()))
    with pytest.raises(IncompatibleData, match=r"^Q\(f\*f\) has non-exact entries"):
        verify_expectation(
            lambda f: model(f).scale(1.0 if len(f.entries) == dense else 1), big, basis
        )
    with pytest.raises(IncompatibleData, match="^generators have non-exact entries"):
        brute_force_commutant([identity_element(big).scale(2.5)], big)


@pytest.mark.parametrize("value", ["Q(1)", "Q(Q(u))"])
def test_non_exact_q_value_off_the_units_is_refused(value):
    # Q returns doubles for one value only, equal to the exact ones: the
    # distance would read 0.0 and the check pass, were it not refused.  Q(Q(u))
    # is spotted by equality: Q gets each image rebuilt from its column
    g = random_inclusion_graph(random.Random(83))
    me = ModelExpectation(g, random_transition(random.Random(84), g))
    model, big, basis = me.as_endomorphism(), g.big_relation(), me.subalgebra_basis()
    one, images = identity_element(big), []
    inexact = {
        "Q(1)": lambda f: f.entries == one.entries,
        "Q(Q(u))": lambda f: any(f == image for image in images),
    }[value]

    def q(f):
        image = model(f)
        if inexact(f):
            return image.scale(1.0)
        images.append(image)
        return image

    assert verify_expectation(model, big, basis).all_pass
    with pytest.raises(IncompatibleData, match=f"^{re.escape(value)} has non-exact entries"):
        verify_expectation(q, big, basis)


@pytest.mark.parametrize("units_only", [False, True])
def test_q_values_off_the_ambient_relation_are_refused(units_only):
    # the model in base form maps onto the base relation: all of Q, or only
    # the units' images when Q(1) is 1
    g = random_inclusion_graph(random.Random(89))
    me = ModelExpectation(g, random_transition(random.Random(90), g))
    big, one = g.big_relation(), identity_element(g.big_relation())
    q = (lambda f: one if f == one else me(f)) if units_only else me
    with pytest.raises(ShapeMismatch):
        verify_expectation(q, big, me.subalgebra_basis())


def test_sub_basis_is_checked_before_q():
    g = random_inclusion_graph(random.Random(81))
    me = ModelExpectation(g, random_transition(random.Random(82), g))
    calls = []

    def counted(f):
        calls.append(f)
        return me.as_endomorphism()(f)

    big, basis = g.big_relation(), me.subalgebra_basis()
    with pytest.raises(ShapeMismatch, match="different relations"):
        verify_expectation(counted, big, [*basis, identity_element(g.base_relation())])
    with pytest.raises(IncompatibleData, match="^sub_basis has non-exact entries"):
        verify_expectation(counted, big, [*basis, basis[0].scale(0.5)])
    assert calls == []


def first_failure(report, field):
    return next(f for f in report.failures if f.startswith(f"{field}: "))


def test_verify_expectation_reports_exact_non_idempotent():
    rel = FiniteEquivRelation.from_partition([["a", "b"], ["c"]])
    report = verify_expectation(lambda f: f.scale(F(1, 2)), rel, list(canonical_units(rel).values()))
    assert (report.unital, report.idempotent) == (False, False)
    assert report.failures[0] == "unital: Q(1) differs from 1 by 0.5"
    assert first_failure(report, "idempotent").startswith("idempotent: Q^2 != Q at unit ('a', 'a')")


def test_verify_expectation_reports_leaving_the_range():
    g = random_inclusion_graph(random.Random(71))
    me = ModelExpectation(g, random_transition(random.Random(72), g))
    Q = broken_q("leaves-range", g, me, None)
    report = verify_expectation(Q, g.big_relation(), me.subalgebra_basis())
    assert not report.range_in_subalgebra
    assert first_failure(report, "range_in_subalgebra").startswith(
        "range_in_subalgebra: Q(unit "
    )


@pytest.mark.parametrize("kind", ["adjoint", "wrong-p"])
def test_verify_expectation_reports_non_bimodular(kind):
    rng = random.Random(73)
    g = make_graph(
        X=["x", "y"],
        V=["v"],
        E=["a", "b"],
        Vbar=["w"],
        vertex_of={"x": "v", "y": "v"},
        source_of={"a": "v", "b": "v"},
        range_of={"a": "w", "b": "w"},
    )
    me = ModelExpectation(g, {"a": F(1, 3), "b": F(2, 3)})
    report = verify_expectation(broken_q(kind, g, me, rng), g.big_relation(), me.subalgebra_basis())
    assert not report.bimodular
    assert first_failure(report, "bimodular").startswith("bimodular: Q(m f) != m Q(f), off by ")


def test_verify_expectation_applies_q_once_per_unit():
    # Q(1), Q(u) and Q(Q(u)) per unit u, Q(0) once, Q(f*f) three times
    g = random_inclusion_graph(random.Random(74), max_points=6, max_edges=8)
    me = ModelExpectation(g, random_transition(random.Random(75), g))
    model = me.as_endomorphism()
    calls = []

    def counted(f):
        calls.append(f)
        return model(f)

    big = g.big_relation()
    report = verify_expectation(counted, big, me.subalgebra_basis())
    assert report.all_pass, report.failures
    assert len(calls) <= 2 * big.dimension + 5
    # in order: 1, each unit, each unit's image, then 0
    units = list(canonical_units(big).values())
    head = [identity_element(big), *units, *map(model, units), AlgebraElement.zero(big)]
    assert calls[:len(head)] == head
    # Q(0) once; every other call on 0 is Q(Q(u)) for a unit u that Q maps to 0
    zero_images = sum(not model(u).entries for u in canonical_units(big).values())
    assert sum(not f.entries for f in calls) == zero_images + 1


def test_epsilon_projections():
    g, me = two_edge_graph({"a": F(1, 3), "b": F(2, 3)})
    eps_a, eps_b = me.epsilon("a"), me.epsilon("b")
    assert eps_a * eps_a == eps_a
    assert eps_a.adjoint() == eps_a
    assert eps_a * eps_b == AlgebraElement.zero(g.big_relation())
    assert eps_a + eps_b == identity_element(g.big_relation())
    with pytest.raises(IncompatibleData):
        me.epsilon("zz")


def test_extraction_recovers_p():
    g, me = two_edge_graph({"a": F(1, 3), "b": F(2, 3)})
    assert extract_transition(me, g) == {"a": F(1, 3), "b": F(2, 3)}


def test_extraction_recovers_uniform():
    rng = random.Random(60)
    for _ in range(10):
        g = random_inclusion_graph(rng)
        p = {e: F(1, len(g.out_edges(g.source_of[e]))) for e in g.E}
        me = ModelExpectation(g, p)
        assert extract_transition(me, g) == p


def test_extraction_round_trip_random():
    rng = random.Random(61)
    for _ in range(25):
        g = random_inclusion_graph(rng)
        p = random_transition(rng, g)
        me = ModelExpectation(g, p)
        assert extract_transition(me, g) == p
        assert extract_transition(me.as_endomorphism(), g) == p


def test_extraction_rejects_inexact_and_disproportionate():
    g, me = two_edge_graph({"a": F(1, 2), "b": F(1, 2)})
    with pytest.raises(IncompatibleData, match="non-exact"):
        extract_transition(lambda fbar: me(fbar).scale(0.5) + me(fbar).scale(0.5), g)
    g2 = make_graph(
        X=["x0", "x1"], V=["v"], E=["a"], Vbar=["w"],
        vertex_of={"x0": "v", "x1": "v"},
        source_of={"a": "v"}, range_of={"a": "w"},
    )
    lopsided = AlgebraElement(g2.base_relation(), {("x0", "x0"): 1})
    with pytest.raises(IncompatibleData, match="not proportional"):
        extract_transition(lambda fbar: lopsided, g2)


def test_extraction_rejects_images_off_both_relations():
    g, _ = two_edge_graph({"a": F(1, 2), "b": F(1, 2)})
    with pytest.raises(ShapeMismatch, match="over the base or the big relation"):
        extract_transition(lambda fbar: identity_element(g.commutant_relation()), g)


def test_extraction_rejects_zero_and_negative_p():
    g, me = two_edge_graph({"a": F(1, 2), "b": F(1, 2)})
    with pytest.raises(SupportViolation, match=r"extracted p\('a'\) = 0: the expectation is not faithful"):
        extract_transition(lambda fbar: AlgebraElement.zero(g.base_relation()), g)
    with pytest.raises(SupportViolation, match=r"extracted p\('a'\) = -1/2: the expectation is not faithful"):
        extract_transition(lambda fbar: -me(fbar), g)


def test_extraction_rejects_p_that_does_not_sum_to_one():
    g, me = two_edge_graph({"a": F(1, 2), "b": F(1, 2)})
    with pytest.raises(IncompatibleData, match="extracted transitions out of 'v' sum to 2, not 1"):
        extract_transition(lambda fbar: me(fbar).scale(2), g)


def test_model_maps_reject_elements_off_the_big_relation():
    g, me = two_edge_graph({"a": F(1, 2), "b": F(1, 2)})
    pinch, average = pinch_average_decompose(me)
    one = identity_element(g.base_relation())
    with pytest.raises(ShapeMismatch, match="expectation wants an element over the graph's big relation"):
        me(one)
    with pytest.raises(ShapeMismatch, match="pinching wants an element over the big relation"):
        pinch(one)
    with pytest.raises(ShapeMismatch, match="averaging wants an element over the big relation"):
        average(one)


def test_pinch_kills_off_diagonal():
    g, me = two_edge_graph({"a": F(1, 2), "b": F(1, 2)})
    pinch, average = pinch_average_decompose(me)
    big = g.big_relation()
    cross = AlgebraElement(big, {(("x", "a"), ("x", "b")): 1})
    assert pinch(cross) == AlgebraElement.zero(big)
    diag = AlgebraElement(big, {(("x", "a"), ("x", "a")): 1})
    assert pinch(diag) == diag
    assert average(diag) == AlgebraElement(g.base_relation(), {("x", "x"): F(1, 2)})
    with pytest.raises(ShapeMismatch):
        average(cross)


def test_pinch_is_sum_of_compressions():
    # oracle: pinching = sum over edges of eps(c) f eps(c)
    rng = random.Random(62)
    for _ in range(10):
        g = random_inclusion_graph(rng)
        me = ModelExpectation(g, random_transition(rng, g))
        pinch, _ = pinch_average_decompose(me)
        f = random_element(rng, g.big_relation())
        compressed = AlgebraElement.zero(g.big_relation())
        for c in g.E:
            eps = me.epsilon(c)
            compressed = compressed + eps * f * eps
        assert pinch(f).distance(compressed) < 1e-9


def test_pinch_average_factors_expectation():
    rng = random.Random(63)
    for _ in range(25):
        g = random_inclusion_graph(rng)
        me = ModelExpectation(g, random_transition(rng, g))
        pinch, average = pinch_average_decompose(me)
        for u in canonical_units(g.big_relation()).values():
            assert average(pinch(u)) == me(u)


def test_one_edge_per_vertex_average_is_relabeling():
    g = make_graph(
        X=["x0", "x1"], V=["v"], E=["a"], Vbar=["w"],
        vertex_of={"x0": "v", "x1": "v"},
        source_of={"a": "v"}, range_of={"a": "w"},
    )
    me = ModelExpectation(g, {"a": 1})
    pinch, average = pinch_average_decompose(me)
    f = AlgebraElement(g.big_relation(), {(("x0", "a"), ("x1", "a")): 5})
    assert pinch(f) == f
    assert average(f) == AlgebraElement(g.base_relation(), {("x0", "x1"): 5})


# -- cocycles, matrix units, states ---------------------------------------------


def test_trivialize_constant_cocycle():
    rel = FiniteEquivRelation.from_partition([["a", "b", "c"]])
    values = {pair: 1 for pair in rel.pairs()}
    b = trivialize_cocycle(rel, values)
    assert all(abs(b[x] - 1) < 1e-12 for x in rel.X)


def test_trivialize_recovers_up_to_class_phase():
    rng = random.Random(64)
    for _ in range(25):
        rel = FiniteEquivRelation.from_partition([["a", "b", "c"], ["d", "e"]])
        b0 = {x: np.exp(2j * np.pi * rng.random()) for x in rel.X}
        values = {(x, y): b0[x] * np.conj(b0[y]) for (x, y) in rel.pairs()}
        b = trivialize_cocycle(rel, values)
        # reconstruction is exact regardless of the gauge
        for (x, y) in rel.pairs():
            assert abs(b[x] * np.conj(b[y]) - values[(x, y)]) <= 1e-12
        for cls_ in rel.classes():
            ratios = {b[x] / b0[x] for x in cls_}
            first = next(iter(ratios))
            assert all(abs(r - first) < 1e-9 for r in ratios)


def test_trivialize_rejects_violations():
    rel = FiniteEquivRelation.from_partition([["a", "b"]])
    good = {("a", "a"): 1, ("b", "b"): 1, ("a", "b"): 1j, ("b", "a"): -1j}
    trivialize_cocycle(rel, good)
    with pytest.raises(NotACocycle, match="modulus"):
        trivialize_cocycle(rel, {**good, ("a", "b"): 2j})
    with pytest.raises(NotACocycle, match="not 1"):
        trivialize_cocycle(rel, {**good, ("a", "a"): -1})
    with pytest.raises(NotACocycle, match="conjugate"):
        trivialize_cocycle(rel, {**good, ("b", "a"): 1j})
    with pytest.raises(NotACocycle, match="no value"):
        trivialize_cocycle(rel, {("a", "a"): 1})
    rel3 = FiniteEquivRelation.from_partition([["a", "b", "c"]])
    vals = {(x, y): 1 for (x, y) in rel3.pairs()}
    vals[("a", "b")] = vals[("b", "a")] = -1  # breaks a*b * b*c = a*c
    with pytest.raises(NotACocycle, match="multiplicativity"):
        trivialize_cocycle(rel3, vals)


def test_trivialize_tolerance_is_tol():
    assert fdalg.TOL == 1e-9
    rel = FiniteEquivRelation.from_partition([["a", "b"]])
    good = {("a", "a"): 1, ("b", "b"): 1, ("a", "b"): 1j, ("b", "a"): -1j}
    trivialize_cocycle(rel, {**good, ("a", "b"): 1j + 1e-10})
    with pytest.raises(NotACocycle, match="conjugate"):
        trivialize_cocycle(rel, {**good, ("a", "b"): 1j + 1e-8})


def unit_family(rel, twist):
    ref = canonical_units(rel)
    return {
        (x, y): ref[(x, y)].scale(twist[x] * np.conj(twist[y]))
        for (x, y) in rel.pairs()
    }


def test_extend_from_diagonal_gives_reference():
    rel = FiniteEquivRelation.from_partition([["a", "b"], ["c"]])
    diag = FiniteEquivRelation.from_partition([["a"], ["b"], ["c"]])
    partial = {(x, x): matrix_unit(rel, x, x) for x in rel.X}
    out = extend_matrix_unit(rel, diag, partial)
    assert out == canonical_units(rel)


def test_extend_from_full_relation_is_identity():
    rng = random.Random(65)
    rel = FiniteEquivRelation.from_partition([["a", "b", "c"]])
    twist = {x: np.exp(2j * np.pi * rng.random()) for x in rel.X}
    partial = unit_family(rel, twist)
    out = extend_matrix_unit(rel, rel, partial)
    assert out == partial


def test_extend_twisted_partial_units():
    rng = random.Random(66)
    rel = FiniteEquivRelation.from_partition([["a", "b", "c", "d"]])
    sub = FiniteEquivRelation(
        rel.X, ["s0", "s1"], {"a": "s0", "b": "s0", "c": "s1", "d": "s1"}
    )
    for _ in range(10):
        twist = {x: np.exp(2j * np.pi * rng.random()) for x in rel.X}
        twisted = unit_family(rel, twist)
        partial = {(x, y): twisted[(x, y)] for (x, y) in sub.pairs()}
        out = extend_matrix_unit(rel, sub, partial)
        for (x, y) in sub.pairs():
            assert out[(x, y)] == partial[(x, y)]
        # matrix-unit identities on the full extension
        for (x, y) in rel.pairs():
            assert out[(x, y)].adjoint().distance(out[(y, x)]) <= 1e-9
            for (u, z) in rel.pairs():
                if y == u:
                    assert (out[(x, y)] * out[(u, z)]).distance(out[(x, z)]) <= 1e-9


def test_extend_rejects_bad_partial():
    rel = FiniteEquivRelation.from_partition([["a", "b"]])
    diag = FiniteEquivRelation.from_partition([["a"], ["b"]])
    partial = {("a", "a"): matrix_unit(rel, "a", "a").scale(2), ("b", "b"): matrix_unit(rel, "b", "b")}
    with pytest.raises(NotAMatrixUnit):
        extend_matrix_unit(rel, diag, partial)
    with pytest.raises(NotAMatrixUnit, match="missing"):
        extend_matrix_unit(rel, diag, {("a", "a"): matrix_unit(rel, "a", "a")})
    other = FiniteEquivRelation.from_partition([["a"], ["c"]])
    with pytest.raises(IncompatibleData):
        extend_matrix_unit(rel, other, partial)


def test_extend_rejects_non_refining_sub():
    rel = FiniteEquivRelation.from_partition([["a", "b"], ["c"]])
    coarser = FiniteEquivRelation.from_partition([["a", "b", "c"]])
    partial = {pair: matrix_unit(coarser, *pair) for pair in coarser.pairs()}
    with pytest.raises(IncompatibleData):
        extend_matrix_unit(rel, coarser, partial)


def test_diagonalize_already_diagonal():
    ds = diagonalize_state(np.diag([0.5, 0.5]))
    assert np.allclose(ds.eigenvalues, [0.5, 0.5])
    # degenerate spectrum: any orthonormal eigenbasis is acceptable
    assert np.allclose(ds.basis @ ds.basis.conj().T, np.eye(2))
    assert np.allclose(ds.reconstruct(), np.diag([0.5, 0.5]))
    assert ds.factorization_error <= 1e-12


def test_diagonalize_two_by_two():
    rho = 0.5 * np.array([[1.0, 0.5], [0.5, 1.0]])
    ds = diagonalize_state(rho)
    assert np.allclose(ds.eigenvalues, [0.75, 0.25])
    assert np.allclose(ds.reconstruct(), rho)


def test_diagonalize_random_faithful():
    rng = np.random.default_rng(67)
    for _ in range(10):
        block = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        rho = block @ block.conj().T + 0.1 * np.eye(5)
        rho /= np.trace(rho).real
        ds = diagonalize_state(rho)
        assert np.max(np.abs(ds.reconstruct() - rho)) <= 1e-9
        assert np.allclose(ds.basis.conj().T @ ds.basis, np.eye(5), atol=1e-9)
        assert all(ds.eigenvalues[i] >= ds.eigenvalues[i + 1] for i in range(4))
        assert ds.factorization_error <= 1e-9


def test_diagonalize_rejections():
    with pytest.raises(ShapeMismatch):
        diagonalize_state(np.zeros((2, 3)))
    with pytest.raises(ShapeMismatch):
        diagonalize_state(np.eye(13) / 13)
    with pytest.raises(IncompatibleData, match="hermitian"):
        diagonalize_state(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(IncompatibleData, match="trace"):
        diagonalize_state(np.eye(2))
    with pytest.raises(SupportViolation):
        diagonalize_state(np.diag([1.0, 0.0]))
