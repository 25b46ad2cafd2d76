"""Acceptance suite: one test per headline guarantee, with runtime budgets.

Each test prints a single "criterion N: PASS/FAIL" line (visible with -s)
and fails if its wall-clock budget is exceeded.
"""

import cmath
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from bratteli import (
    EdgePotential,
    FiniteEquivRelation,
    InvariantFunction,
    ModelExpectation,
    ZLattice,
    brute_force_commutant,
    canonical_units,
    commutant_embed_k,
    cylinder_measure,
    enumerate_paths,
    ergodic_components,
    extend_matrix_unit,
    extract_transition,
    group_cocycle,
    harmonic_from_terminal,
    harmonic_to_invariant,
    include_j,
    invariant_to_harmonic,
    is_harmonic,
    markov_cylinder_table,
    measure_from_harmonic,
    pascal_diagram,
    pascal_path,
    pinch_average_decompose,
    q_measure_witness,
    radon_nikodym,
    sample_path,
    skew_product,
    table_from_leaves,
    trivialize_cocycle,
    verify_expectation,
)

from helpers import (
    enumerate_inclusion_graphs,
    fraction_span,
    random_inclusion_graph,
    random_transition,
    random_walk,
    random_walk_with_multipath,
)

F = Fraction


@contextmanager
def criterion(number, label, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL ({label})")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {number}: {elapsed:.2f} s over the {budget} s budget"
    print(f"criterion {number}: PASS ({elapsed:.2f} s, {label})")


def test_criterion_01_pascal_cotransition_closed_form():
    with criterion(1, "triangle cotransition closed form, t-independent", 1.0):
        walks = [pascal_diagram(12, t)[1] for t in (F(1, 5), F(1, 2), F(7, 10))]
        w0 = walks[0]
        for n in range(1, 13):
            for k in range(n):
                assert w0.cotransition(n, f"{n - 1}:{k}:0") == 1 - F(k, n)
                assert w0.cotransition(n, f"{n - 1}:{k}:1") == F(k + 1, n)
        for other in walks[1:]:
            for n in range(1, 13):
                assert other.cotransition.level(n) == w0.cotransition.level(n)


def test_criterion_02_pascal_path_cotransition():
    with criterion(2, "path cotransition equals inverse binomial", 1.0):
        d, w = pascal_diagram(12, F(1, 3))
        for idx in range(2 ** 12):
            bits = format(idx, "012b")
            a = pascal_path(d, bits)
            assert w.cotransition.of_path(a) == F(1, math.comb(12, bits.count("1")))


def test_criterion_03_pascal_density_cocycle_is_one():
    with criterion(3, "density cocycle identically 1 on the triangle", 5.0):
        d, w = pascal_diagram(8, F(1, 3))
        for n in range(9):
            by_end: dict = {}
            for a in enumerate_paths(d, 0, n):
                by_end.setdefault(a.terminus, []).append(a)
            pairs = 0
            for paths in by_end.values():
                for a in paths:
                    for b in paths:
                        assert radon_nikodym(w, a, b) == 1
                        pairs += 1
            if n == 8:
                # Vandermonde: sum_k C(8,k)^2 = C(16,8)
                assert pairs == math.comb(16, 8)


def test_criterion_04_markov_measure_laws():
    with criterion(4, "mass, refinement, and potential identity", 10.0):
        rng = random.Random(4)
        for _ in range(100):
            w = random_walk(rng)
            d = w.diagram
            table = markov_cylinder_table(w, d.depth)
            by_level: dict = {}
            for a, m in table.items():
                by_level.setdefault(len(a), []).append(m)
            for masses in by_level.values():
                assert sum(masses) == 1
            for a, m in table.items():
                assert m == w.cotransition.of_path(a) * w.nu_at(len(a), a.terminus)
                if len(a) < d.depth:
                    assert m == sum(table[b] for b in d.extensions(a))


def test_criterion_05_q_measure_pass_and_perturbed_fail():
    with criterion(5, "q-measure criterion detects a shifted cylinder", 5.0):
        rng = random.Random(5)
        for _ in range(20):
            w = random_walk_with_multipath(rng)
            d = w.diagram
            depth = d.depth
            table = markov_cylinder_table(w, depth)
            assert q_measure_witness(d, w.cotransition, table, depth) is None
            leaves = {a: m for a, m in table.items() if len(a) == depth}
            by_end: dict = {}
            for a in leaves:
                by_end.setdefault(a.terminus, []).append(a)
            group = next(g for v in d.vertices(depth)
                         for g in [by_end.get(v, [])] if len(g) >= 2)
            gain, lose = group[0], group[1]
            # keep the perturbed leaf positive so only the q-criterion breaks
            delta = min(F(1, 1000), leaves[lose] / 2)
            leaves[gain] += delta
            leaves[lose] -= delta
            perturbed = table_from_leaves(d, depth, leaves)
            witness = q_measure_witness(d, w.cotransition, perturbed, depth)
            assert witness is not None
            path, expected, actual = witness
            assert expected != actual


def test_criterion_06_harmonic_duality():
    with criterion(6, "terminal-harmonic duality, isometric and positive", 10.0):
        rng = random.Random(6)
        for _ in range(50):
            w = random_walk(rng, max_depth=5)
            d = w.diagram
            f = {v: F(rng.randint(-4, 4)) for v in d.vertices(d.depth)}
            h = harmonic_from_terminal(w, f)
            assert is_harmonic(w, h)
            assert harmonic_to_invariant(w, h).values == f
            assert invariant_to_harmonic(w, InvariantFunction(d.depth, f)) == h
            assert h.norm == max(abs(x) for x in f.values())
            g = {v: abs(x) for v, x in f.items()}
            hg = harmonic_from_terminal(w, g)
            for n in range(d.depth + 1):
                assert all(hg(n, v) >= 0 for v in d.vertices(n))
            leaves = {a: g[a.terminus] * cylinder_measure(w, a)
                      for a in enumerate_paths(d, 0, d.depth)}
            assert measure_from_harmonic(w, hg) == table_from_leaves(d, d.depth, leaves)


def test_criterion_07_ergodic_decomposition():
    with criterion(7, "ergodic components recombine to the measure", 5.0):
        _, w2 = pascal_diagram(2, F(1, 2))
        assert [(c.terminal, c.weight) for c in ergodic_components(w2)] == [
            ("2:0", F(1, 4)), ("2:1", F(1, 2)), ("2:2", F(1, 4)),
        ]
        rng = random.Random(7)
        walks = [pascal_diagram(4, F(1, 2))[1]]
        walks += [random_walk(rng, max_depth=5) for _ in range(15)]
        for w in walks:
            d = w.diagram
            comps = ergodic_components(w)
            assert sum(c.weight for c in comps) == 1
            for c in comps:
                nu_end = c.walk.nu(c.walk.depth)
                assert nu_end.get(c.terminal) == 1
                assert all(x == 0 for v, x in nu_end.items() if v != c.terminal)
            for n in range(d.depth + 1):
                for a in enumerate_paths(d, 0, n):
                    mixed = sum(c.weight * c.cylinder_measure(a) for c in comps)
                    assert mixed == cylinder_measure(w, a)


def test_criterion_08_expectation_axioms():
    with criterion(8, "conditional-expectation axioms on random graphs", 10.0):
        rng = random.Random(8)
        for _ in range(100):
            g = random_inclusion_graph(rng)
            me = ModelExpectation(g, random_transition(rng, g))
            report = verify_expectation(
                me.as_endomorphism(), g.big_relation(), me.subalgebra_basis()
            )
            assert report.all_pass, report.failures


def test_criterion_09_commutant_is_k_image():
    with criterion(9, "commutant of the j-image equals the k-image", 30.0):
        graphs = enumerate_inclusion_graphs(6)
        assert len(graphs) == 683
        rng = random.Random(90)
        # larger random samples, capped so the dense null-space oracle stays feasible
        while len(graphs) < 683 + 50:
            g = random_inclusion_graph(rng, max_points=9, max_edges=10)
            if len(g.Xbar) > 6 and g.big_relation().dimension <= 220:
                graphs.append(g)
        for g in graphs:
            big = g.big_relation()
            comm = g.commutant_relation()
            j_units = [include_j(g, u) for u in canonical_units(g.base_relation()).values()]
            k_units = [commutant_embed_k(g, u) for u in canonical_units(comm).values()]
            brute = brute_force_commutant(j_units, big)
            assert len(brute) == comm.dimension
            k_span = fraction_span(k_units, big)
            assert len(k_span) == comm.dimension
            assert fraction_span(brute, big) == k_span


def test_criterion_10_extraction_round_trip():
    with criterion(10, "transition extraction inverts the expectation", 5.0):
        rng = random.Random(10)
        for i in range(100):
            g = random_inclusion_graph(rng)
            p = random_transition(rng, g)
            me = ModelExpectation(g, p)
            Q = me if i % 2 == 0 else me.as_endomorphism()
            assert extract_transition(Q, g) == p


def test_criterion_11_pinch_average_factorization():
    with criterion(11, "pinch then average factors the expectation", 5.0):
        rng = random.Random(11)
        for _ in range(50):
            g = random_inclusion_graph(rng)
            me = ModelExpectation(g, random_transition(rng, g))
            pinch, average = pinch_average_decompose(me)
            for u in canonical_units(g.big_relation()).values():
                assert average(pinch(u)) == me(u)


def _random_partition(rng, points):
    classes: list = []
    for x in points:
        if classes and rng.random() < 0.6:
            rng.choice(classes).append(x)
        else:
            classes.append([x])
    return classes


def test_criterion_12_trivialization_and_extension():
    with criterion(12, "cocycle trivialization and unit extension", 5.0):
        rng = random.Random(12)
        for _ in range(50):
            points = [f"x{i}" for i in range(rng.randint(2, 7))]
            rel = FiniteEquivRelation.from_partition(_random_partition(rng, points))
            b = {x: cmath.exp(2j * math.pi * rng.random()) for x in points}
            values = {(x, y): b[x] * b[y].conjugate() for x, y in rel.pairs()}
            bb = trivialize_cocycle(rel, values)
            for x, y in rel.pairs():
                assert abs(bb[x] * bb[y].conjugate() - values[(x, y)]) <= 1e-12

            sub_classes = []
            for cls_ in rel.classes():
                cut = rng.randint(1, len(cls_))
                sub_classes.append(list(cls_[:cut]))
                if cut < len(cls_):
                    sub_classes.append(list(cls_[cut:]))
            sub = FiniteEquivRelation.from_partition(sub_classes)
            reference = canonical_units(rel)
            t = {x: cmath.exp(2j * math.pi * rng.random()) for x in points}
            partial = {(x, y): reference[(x, y)].scale(t[x] * t[y].conjugate())
                       for (x, y) in sub.pairs()}
            units = extend_matrix_unit(rel, sub, partial)
            for pair in sub.pairs():
                assert units[pair] == partial[pair]
            for cls_ in rel.classes():
                for x in cls_:
                    for y in cls_:
                        assert units[(x, y)].adjoint().distance(units[(y, x)]) <= 1e-9
                        for z in cls_:
                            prod = units[(x, y)] * units[(y, z)]
                            assert prod.distance(units[(x, z)]) <= 1e-9


def test_criterion_13_skew_product_laws():
    with criterion(13, "skew product structure and group cocycles", 5.0):
        rng = random.Random(13)
        lattice = ZLattice(2)
        for _ in range(10):
            w = random_walk_with_multipath(rng, max_depth=5)
            d = w.diagram
            rho_q = w.cotransition
            by_end: dict = {}
            for a in enumerate_paths(d, 0, d.depth):
                by_end.setdefault(a.terminus, []).append(a)
            for paths in by_end.values():
                for a in paths[:6]:
                    for b in paths[:6]:
                        assert group_cocycle(rho_q, a, b) == radon_nikodym(w, a, b)
                        for c in paths[:6]:
                            lhs = group_cocycle(rho_q, a, b) * group_cocycle(rho_q, b, c)
                            assert lhs == group_cocycle(rho_q, a, c)
            values = [{e.id: (rng.randint(-2, 2), rng.randint(-2, 2))
                       for e in d.edges(n)} for n in range(1, d.depth + 1)]
            rho = EdgePotential(d, lattice, values)
            window = [(0, 0), (1, -1), (2, 3)]
            sd = skew_product(d, rho, window)
            assert sd.source_range_law_holds()
            shift = (5, -4)
            sd2 = skew_product(d, rho, [lattice.op(g, shift) for g in window])
            for n in range(d.depth + 1):
                assert sd2.vertex_pairs(n) == tuple(
                    (v, lattice.op(g, shift)) for (v, g) in sd.vertex_pairs(n)
                )
            for n in range(1, d.depth + 1):
                assert sd2.edge_pairs(n) == tuple(
                    (e, lattice.op(g, shift)) for (e, g) in sd.edge_pairs(n)
                )


def test_criterion_14_martingale_sanity():
    with criterion(14, "sampled harmonic means constant across levels", 10.0):
        depth, draws = 10, 10 ** 4
        d, w = pascal_diagram(depth, F(1, 2))
        level_vertices = []
        for seed in range(draws):
            a = sample_path(w, seed, depth)
            v = a.anchor
            vs = [v]
            for n, eid in enumerate(a.edges, start=1):
                v = d.edge(n, eid).rng
                vs.append(v)
            level_vertices.append(vs)
        rng = random.Random(14)
        for _ in range(5):
            f = {v: F(rng.randint(-8, 8)) for v in d.vertices(depth)}
            h = harmonic_from_terminal(w, f)
            mean = sum(w.nu_at(0, v) * h(0, v) for v in d.vertices(0))
            for n in range(depth + 1):
                nu = w.nu(n)
                var = sum(nu[v] * (h(n, v) - mean) ** 2 for v in d.vertices(n))
                sigma = math.sqrt(float(var))
                hf = {v: float(h(n, v)) for v in d.vertices(n)}
                empirical = sum(hf[vs[n]] for vs in level_vertices) / draws
                assert abs(empirical - float(mean)) <= 5 * sigma / math.sqrt(draws) + 1e-9
