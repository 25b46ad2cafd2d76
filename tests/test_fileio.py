"""JSON readers and writers: round-trips and format diagnostics."""

import io
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bratteli import (
    BratteliDiagram,
    BratteliError,
    EdgePotential,
    FileFormatError,
    IncompatibleData,
    InvalidDiagram,
    MultiplicativeRationals,
    ZLattice,
    dump_diagram,
    dump_element,
    enumerate_paths,
    load_diagram,
    load_element,
    load_inclusion_graph,
    load_measure_table,
    load_terminal,
    markov_cylinder_table,
    pascal_diagram,
    potential_from_file,
    walk_from_file,
)
import bratteli.walk
from bratteli import fileio
from bratteli.fdalg import AlgebraElement, FiniteEquivRelation, ModelExpectation, verify_expectation

from helpers import oracle_load_diagram, random_element, random_inclusion_graph, random_transition, random_walk

F = Fraction


def walk_payload(w):
    d = w.diagram
    p = {(n, e.id): w.transition(n, e.id) for n in range(1, d.depth + 1) for e in d.edges(n)}
    return dump_diagram(d, p=p, nu0=w.initial.as_dict())


def test_dump_load_round_trip():
    rng = random.Random(81)
    for _ in range(10):
        w = random_walk(rng, max_depth=4)
        df = load_diagram(walk_payload(w))
        rebuilt = walk_from_file(df)
        d = w.diagram
        assert df.diagram.depth == d.depth
        for n in range(d.depth + 1):
            assert df.diagram.vertices(n) == d.vertices(n)
        for n in range(1, d.depth + 1):
            assert [e.id for e in df.diagram.edges(n)] == [e.id for e in d.edges(n)]
            assert rebuilt.transition.level(n) == w.transition.level(n)
        assert rebuilt.initial.as_dict() == w.initial.as_dict()


def test_load_diagram_from_path(tmp_path):
    _, w = pascal_diagram(2, F(1, 2))
    path = tmp_path / "d.json"
    path.write_text(json.dumps(walk_payload(w)))
    df = load_diagram(path)
    assert df.diagram.depth == 2
    assert walk_from_file(df).nu(2) == w.nu(2)


def test_load_diagram_structure_errors():
    with pytest.raises(FileFormatError):
        load_diagram([1, 2])
    with pytest.raises(FileFormatError):
        load_diagram({"vertices": [["a"], ["b"]]})
    with pytest.raises(FileFormatError):
        load_diagram({"vertices": "nope", "edges": []})
    with pytest.raises(FileFormatError):
        load_diagram({"vertices": [["a"], ["b"]], "edges": [["not a record"]]})
    with pytest.raises(FileFormatError):
        load_diagram({"vertices": [["a"], ["b"]], "edges": [[{"id": "e", "src": "a"}]]})
    # level counts that cannot form a diagram at all are parse failures
    with pytest.raises(FileFormatError):
        load_diagram({"vertices": [["a"], ["b"]], "edges": []})


def test_load_diagram_rejects_floats_and_partial_fields():
    base = {
        "vertices": [["a"], ["b"]],
        "edges": [[{"id": "e0", "src": "a", "rng": "b", "p": 0.5},
                   {"id": "e1", "src": "a", "rng": "b", "p": "1/2"}]],
    }
    with pytest.raises(FileFormatError, match="num/den"):
        load_diagram(base)
    partial = {
        "vertices": [["a"], ["b"]],
        "edges": [[{"id": "e0", "src": "a", "rng": "b", "p": "1/2"},
                   {"id": "e1", "src": "a", "rng": "b"}]],
    }
    with pytest.raises(FileFormatError, match="all or none"):
        load_diagram(partial)
    with pytest.raises(FileFormatError):
        load_diagram({**base, "edges": [[{"id": "e", "src": "a", "rng": "b", "p": "1"}]],
                      "nu0": {"a": True}})


# faults a diagram file's edge records may carry, each put on one record, or
# one level, drawn at random; and a vertex id that is not a string
RECORD_FAULTS = (
    ["none", "non-object", "repeated-id", "repeated-id-p-on-half", "p-on-some", "rho-on-some",
     "bad-p", "unknown-src", "unknown-rng", "vertex-not-a-string"]
    + [f"lacks-{key}" for key in ("id", "src", "rng")]
    + [f"{key}-{kind}" for key in ("id", "src", "rng") for kind in ("int", "bool", "None")]
)


def faulty_payload(rng, faults):
    """A diagram file's payload of a random walk, rho on its edges half the
    time, with each fault of ``faults`` on one record or level."""
    w = random_walk(rng, max_depth=4)
    d = w.diagram
    p = {(n, e.id): w.transition(n, e.id) for n in range(1, d.depth + 1) for e in d.edges(n)}
    rho = {key: rng.randint(-2, 2) for key in p} if rng.random() < 0.5 else None
    payload = dump_diagram(d, p=p, nu0=w.initial.as_dict(), rho=rho)
    for fault in faults:
        if fault == "vertex-not-a-string":
            ids = rng.choice(payload["vertices"])
            ids[rng.randrange(len(ids))] = rng.choice([7, True, None])
            continue
        level = rng.choice(payload["edges"])
        records = [r for r in level if isinstance(r, dict)]
        if fault == "none" or not records:
            continue
        rec = rng.choice(records)
        if fault == "non-object":
            level[level.index(rec)] = rng.choice([[rec.get("id")], rec.get("id"), 3, None, True])
        elif fault.startswith("lacks-"):
            rec.pop(fault[len("lacks-"):], None)
        elif fault.split("-")[0] in ("id", "src", "rng"):
            key, kind = fault.split("-")
            rec[key] = {"int": 7, "bool": True, "None": None}[kind]
        elif fault.startswith("repeated-id"):
            for i, other in enumerate(records):
                other["id"] = rec.get("id")
                if fault.endswith("p-on-half") and i % 2:
                    other.pop("p", None)
        elif fault == "p-on-some":
            rec.pop("p", None)
        elif fault == "rho-on-some":
            if rec.pop("rho", None) is None:
                rec["rho"] = 1
        elif fault == "bad-p":
            rec["p"] = rng.choice(["1/0", "x", "1/2/3", 0.5, True, None])
        elif fault.startswith("unknown-"):
            rec[fault[len("unknown-"):]] = "nowhere"
    return payload


def loaded(load, payload):
    """What a reader makes of ``payload``: the parts of its DiagramFile, or
    its exception's type, message and violations (None if it has none)."""
    try:
        df = load(payload)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "violations", None)
    d = df.diagram
    return ([d.vertices(n) for n in range(d.depth + 1)], [d.edges(n) for n in range(1, d.depth + 1)],
            df.p_levels, df.nu0, df.rho_levels)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.lists(st.sampled_from(RECORD_FAULTS), min_size=1, max_size=2))
def test_load_diagram_matches_oracle(rng, faults):
    # the same DiagramFile, or the same first fault in the same words
    payload = faulty_payload(rng, faults)
    got = loaded(load_diagram, payload)
    assert got == loaded(oracle_load_diagram, payload)
    if set(faults) <= {"none", "unknown-src", "unknown-rng", "repeated-id"}:
        if {"unknown-src", "unknown-rng"} & set(faults) or got[0] is InvalidDiagram:
            # an unresolved endpoint, or an id repeated in its level, is a violation of the diagram
            assert got[0] is InvalidDiagram and got[2]
        else:  # the edges are the records as given
            records = [[(r["id"], r["src"], r["rng"]) for r in level] for level in payload["edges"]]
            assert [[(e.id, e.src, e.rng) for e in row] for row in got[1]] == records


def test_walk_from_file_requires_walk_data():
    df = load_diagram({"vertices": [["a"], ["b"]],
                       "edges": [[{"id": "e", "src": "a", "rng": "b"}]]})
    with pytest.raises(IncompatibleData, match="'p'"):
        walk_from_file(df)
    df2 = load_diagram({"vertices": [["a"], ["b"]],
                        "edges": [[{"id": "e", "src": "a", "rng": "b", "p": "1"}]]})
    with pytest.raises(IncompatibleData, match="nu0"):
        walk_from_file(df2)


def test_potential_group_inference():
    lattice = load_diagram({
        "vertices": [["a"], ["b"]],
        "edges": [[{"id": "e0", "src": "a", "rng": "b", "rho": 2},
                   {"id": "e1", "src": "a", "rng": "b", "rho": -1}]],
    })
    rho = potential_from_file(lattice)
    assert rho.group == ZLattice(1)
    assert rho(1, "e0") == (2,)
    vectors = load_diagram({
        "vertices": [["a"], ["b"]],
        "edges": [[{"id": "e0", "src": "a", "rng": "b", "rho": [1, 2]},
                   {"id": "e1", "src": "a", "rng": "b", "rho": [0, -3]}]],
    })
    rho2 = potential_from_file(vectors)
    assert rho2.group == ZLattice(2)
    rationals = load_diagram({
        "vertices": [["a"], ["b"]],
        "edges": [[{"id": "e0", "src": "a", "rng": "b", "rho": "2/3"},
                   {"id": "e1", "src": "a", "rng": "b", "rho": "3/1"}]],
    })
    rho3 = potential_from_file(rationals)
    assert rho3.group == MultiplicativeRationals()
    assert rho3(1, "e0") == F(2, 3)


def test_potential_group_inference_errors():
    def diagram_with(rhos):
        return load_diagram({
            "vertices": [["a"], ["b"]],
            "edges": [[{"id": f"e{i}", "src": "a", "rng": "b", "rho": r}
                       for i, r in enumerate(rhos)]],
        })

    with pytest.raises(FileFormatError, match="mix"):
        potential_from_file(diagram_with([1, "1/2"]))
    with pytest.raises(FileFormatError, match="ranks"):
        potential_from_file(diagram_with([[1], [1, 2]]))
    with pytest.raises(FileFormatError):
        potential_from_file(diagram_with([1.5, 2.5]))
    with pytest.raises(FileFormatError):
        potential_from_file(diagram_with([[1, True], [1, 2]]))
    no_rho = load_diagram({"vertices": [["a"], ["b"]],
                           "edges": [[{"id": "e", "src": "a", "rng": "b"}]]})
    with pytest.raises(IncompatibleData):
        potential_from_file(no_rho)


RHO_VALUES = st.one_of(
    st.integers(-2, 2),
    st.booleans(),
    st.floats(-2, 2),
    st.lists(st.one_of(st.integers(-2, 2), st.booleans()), max_size=3),
    st.sampled_from(["1/2", "2", "2/1", "0", "-1/3", "1/0", "x", "1_2", ""]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(RHO_VALUES, min_size=1, max_size=6))
def test_potential_from_file_parses_like_group_parse(values):
    # each distinct value is parsed once; the rows and errors are those of
    # parsing every value with group.parse
    df = load_diagram({
        "vertices": [["a"], ["b"]],
        "edges": [[{"id": f"e{i}", "src": "a", "rng": "b", "rho": r}
                   for i, r in enumerate(values)]],
    })

    def outcome():
        try:
            rho = potential_from_file(df)
        except (BratteliError, FileFormatError) as exc:
            return type(exc), str(exc)
        return rho.group, rho._rho

    got = outcome()
    plain = lambda d, group, levels, parse: EdgePotential(d, group, levels)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bratteli.walk, "EdgePotential", plain)
        assert got == outcome()
    if not isinstance(got[0], type):  # parsed: equal values share one element
        row = got[1][0]
        for i, a in enumerate(values):
            for j, b in enumerate(values[:i]):
                if type(a) is type(b) and a == b:
                    assert row[i] is row[j]


def test_measure_table_round_trip():
    d, w = pascal_diagram(2, F(1, 2))
    table = markov_cylinder_table(w, 2)
    payload = {
        "empty": {a.anchor: f"{m.numerator}/{m.denominator}"
                  for a, m in table.items() if len(a) == 0},
        "paths": {a.label(): f"{m.numerator}/{m.denominator}"
                  for a, m in table.items() if len(a) > 0},
    }
    loaded, depth = load_measure_table(d, payload)
    assert (depth, len(loaded)) == (2, len(table))
    # held level by level, in enumeration order, as numerators and denominators
    for n in range(3):
        masses = [table[a] for a in enumerate_paths(d, 0, n)]
        assert loaded._rows[n] == ([x.numerator for x in masses], [x.denominator for x in masses])


def test_measure_table_errors():
    d, _ = pascal_diagram(2, F(1, 2))
    with pytest.raises(FileFormatError):
        load_measure_table(d, [])
    with pytest.raises(FileFormatError):
        load_measure_table(d, {"empty": []})
    with pytest.raises(FileFormatError):
        load_measure_table(d, {"paths": {"0:0:0": 0.5}})


# mass texts: plain digits read by int(), every other form by the rational
# parser, whose value or message they must give
MASS_TEXTS = ["1/2", "2/4", "1", 1, "0", 0, "007/014", "+1/2", " 1/2", "1/2 ", "-1/2", -1, "1/0", "1/00",
              "1/-2", "1/", "/2", "1/2/3", "", "1_0/3", "\u0661/2", "\u00b2/3", "1.5", "1e3",
              "1" + "0" * 4300 + "/3", "1/3" + "0" * 4300, "1" + "0" * 4299 + "/3"]


@pytest.mark.parametrize("chunk", [1, 3, fileio.CHUNK])
def test_mass_texts_read_as_the_rational_parser_reads_them(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(fileio, "CHUNK", chunk)
    d = BratteliDiagram([["r"], ["s"]], [[("e", "r", "s")]])

    def read(source):
        """The mass of path e as a Fraction, or the message that refuses it."""
        try:
            (num,), (den,) = load_measure_table(d, source)[0].take(1)
        except FileFormatError as exc:
            return str(exc)
        assert den > 0
        return Fraction(num, den)

    for text in MASS_TEXTS:
        try:
            want = fileio._rational(text, "paths['e']")
        except FileFormatError as exc:
            want = str(exc)
        payload = {"empty": {"r": "1"}, "paths": {"e": text}}
        (tmp_path / "t.json").write_text(json.dumps(payload))
        assert read(str(tmp_path / "t.json")) == read(payload) == want, text


@pytest.mark.parametrize("chunk", [1, 2, 5, fileio.CHUNK])
def test_streamed_table_members_are_taken_back_to_back(monkeypatch, chunk):
    # the batched scan takes no member past one it cannot take: that one
    # sends the file to the whole-file reader, whatever the chunk size
    monkeypatch.setattr(fileio, "CHUNK", chunk)
    for bad in ("null", "[1]", '{"x": 1}', "0.5", "true", '"a" "b"'):
        text = '{"empty": {"a": "1", "b": %s, "c": "2"}}' % bad
        with pytest.raises(FileFormatError):
            list(fileio._streamed_members(io.StringIO(text)))
    start = time.perf_counter()  # a fault before a long run of white space is refused at once
    with pytest.raises(FileFormatError):
        list(fileio._streamed_members(io.StringIO('{"empty": {"a": null' + " " * 30_000 + "x")))
    assert time.perf_counter() - start < 5
    text = '{"empty": {"a": "1", "b": 7, "c": "2/04"}, "paths": {"e\\"": "1\\/2", "f": "+1/2" }}'
    assert list(fileio._streamed_members(io.StringIO(text))) == [
        ("empty", "a", None, (1, 1)), ("empty", "b", None, (7, 1)), ("empty", "c", None, (2, 4)),
        ("paths", 'e"', "1/2", None), ("paths", "f", "+1/2", None)]


def test_load_terminal():
    assert load_terminal({"a": "1/3", "b": 2}) == {"a": F(1, 3), "b": F(2)}
    with pytest.raises(FileFormatError):
        load_terminal(["a"])
    with pytest.raises(FileFormatError):
        load_terminal({"a": 0.5})


def test_load_inclusion_graph():
    graph, p = load_inclusion_graph({
        "vertices": [["v"], ["w"]],
        "edges": [[{"id": "a", "src": "v", "rng": "w", "p": "1/3"},
                   {"id": "b", "src": "v", "rng": "w", "p": "2/3"}]],
        "X": {"x0": "v", "x1": "v"},
    })
    assert graph.X == ("x0", "x1")
    assert graph.E == ("a", "b")
    assert p == {"a": F(1, 3), "b": F(2, 3)}
    bare, p2 = load_inclusion_graph({
        "vertices": [["v"], ["w"]],
        "edges": [[{"id": "a", "src": "v", "rng": "w"}]],
        "X": {"x0": "v"},
    })
    assert p2 is None


def test_load_inclusion_graph_errors():
    with pytest.raises(FileFormatError, match="'X'"):
        load_inclusion_graph({"vertices": [["v"], ["w"]],
                              "edges": [[{"id": "a", "src": "v", "rng": "w"}]]})
    with pytest.raises(FileFormatError, match="one edge level"):
        load_inclusion_graph({
            "vertices": [["v"], ["w"], ["u"]],
            "edges": [[{"id": "a", "src": "v", "rng": "w"}],
                      [{"id": "b", "src": "w", "rng": "u"}]],
            "X": {"x0": "v"},
        })


def test_element_serialization_round_trip():
    # exact entries round-trip as 'num/den' texts, with ==; a float or
    # complex entry is refused, as the expectation checks refuse it
    rng = random.Random(82)
    rel = FiniteEquivRelation.from_partition([["a", "b"], ["c"]])
    tuple_rel = FiniteEquivRelation.from_partition([[("x", "a"), ("x", "b")]])
    for relation in [rel] * 10 + [tuple_rel]:
        f = AlgebraElement(relation, {pair: F(rng.randint(-9, 9), rng.randint(1, 9)) for pair in relation.pairs()})
        rows = dump_element(f)
        assert all(type(value) is str for *_, value in rows)
        assert load_element(relation, json.loads(json.dumps(rows))) == f
    rows = [["a", "b", "1/3"], ["c", "c", "2/1"]]
    assert dump_element(AlgebraElement(rel, {("a", "b"): F(1, 3), ("c", "c"): 2})) == rows
    for value in (0.5, 1j, complex(1, 0)):
        with pytest.raises(IncompatibleData, match="non-exact entries"):
            dump_element(AlgebraElement(rel, {("a", "a"): value}))
    f = random_element(rng, rel)
    with pytest.raises(IncompatibleData):
        dump_element(f)


def test_exact_element_file_is_a_sub_basis_entry():
    # a sub-basis written and read back is the same basis, and
    # verify_expectation accepts it and reports as on the original
    rng = random.Random(5)
    g = random_inclusion_graph(rng)
    me = ModelExpectation(g, random_transition(rng, g))
    big = g.big_relation()
    basis = [m.scale(F(1, 3)) for m in me.subalgebra_basis()]
    loaded = [load_element(big, json.loads(json.dumps(dump_element(m)))) for m in basis]
    assert loaded == basis
    report = verify_expectation(me.as_endomorphism(), big, loaded)
    assert report.all_pass
    assert report == verify_expectation(me.as_endomorphism(), big, basis)


def test_load_element_errors():
    # rows are [x, y, 'num/den'], the value worded as a diagram's 'p' is;
    # the [x, y, re, im] rows of the float format are refused
    rel = FiniteEquivRelation.from_partition([["a", "b"]])
    with pytest.raises(FileFormatError):
        load_element(rel, {"a": 1})
    with pytest.raises(FileFormatError, match="rationals must be 'num/den' strings or integers, got 1.0"):
        load_element(rel, [["a", "b", 1.0]])
    with pytest.raises(FileFormatError, match=r"must be \[x, y, 'num/den'\]"):
        load_element(rel, [["a", "b", "x", 0.0]])
    with pytest.raises(FileFormatError, match=r"must be \[x, y, 'num/den'\]"):
        load_element(rel, [["a", "b", True, 0.0]])
    with pytest.raises(FileFormatError, match="got True"):
        load_element(rel, [["a", "b", True]])
    with pytest.raises(FileFormatError, match=r"not a rational: 'x' \(not an integer or 'num/den'\)"):
        load_element(rel, [["a", "b", "x"]])
    with pytest.raises(FileFormatError, match="zero denominator"):
        load_element(rel, [["a", "b", "1/0"]])
    assert load_element(rel, [["a", "b", 2], ["b", "a", " -1/3"]]).entries == {("a", "b"): 2, ("b", "a"): F(-1, 3)}
