"""The integer walk kernel and the path tree against the reference oracles.

Every value the kernel hands out must equal, exactly, what plain Fraction
arithmetic on string ids gives (``helpers.oracle_*``), on random valid
diagrams and walks; so must every cylinder table and q-measure verdict built
on the shared path tree, down to key order and error messages, and so must
the Fraction versions of the integer path-tree kernels and of the table
parser and renderer (``helpers.fraction_*``); the streamed JSON table must
be the bytes of ``json.dumps`` of the whole table, and a table file read in
chunks must make ``qcheck`` exit and print as the whole-file reader and the
oracle do.  p and q are edge
potentials: their path values must be the products of their level rows.  The
walk's q is built on first request, and the index-native skew product must
equal the string-id one of ``helpers.oracle_skew_product``, down to its
errors and the ``skew`` command's output; its accessors must not depend on
the skew diagram, which is built on first read and which ``skew`` never
builds.  The one backward step behind the harmonic sweep,
``is_harmonic`` and ``from_cotransition``'s check must report the first
mismatch the string-id loops of ``helpers`` report, and each ergodic
component must be the oracle's Doob transform, keep the walk's q and
decompose to itself.  The ``distributions``, ``cotransition`` and
``harmonic`` tables, written from integers, must be the Fraction oracles'
tables.  The central cotransition must multiply out to 1/dim(r(a)) on every
path, be the triangle walk's q and the Young graph's Plancherel q, and
``pascal``, which checks it edge by edge and walks no path, must write the
oracle's q(a) on every path and name the first edge off centre.
"""

import collections
import contextlib
import io
import json
import math
import random
import sys
import tempfile
import threading
import time
from pathlib import Path
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bratteli.diagram
import bratteli.harmonic
import bratteli.skew
import bratteli.walk
from bratteli import cli
from bratteli import (
    BratteliDiagram,
    BratteliError,
    CotransitionProbability,
    Edge,
    EdgePotential,
    FileFormatError,
    HarmonicSequence,
    IncompatibleData,
    MultiplicativeRationals,
    RandomWalk,
    SupportViolation,
    TransitionProbability,
    WindowError,
    ZLattice,
    build_walk,
    central_cotransition,
    cylinder_measure,
    enumerate_paths,
    ergodic_components,
    from_cotransition,
    harmonic_from_terminal,
    is_harmonic,
    markov_cylinder_table,
    pascal_diagram,
    pascal_edge_potential,
    q_measure_witness,
    skew_product,
    table_from_leaves,
)
from bratteli import fileio
from bratteli.fileio import dump_diagram, load_measure_table
from bratteli.rational import as_fraction, format_fraction, long_ints

from helpers import (
    fraction_as_fraction,
    fraction_pascal_rows,
    fraction_q_measure_witness,
    fraction_tsv,
    hook_dim,
    oracle_cotransition_check,
    oracle_distributions,
    oracle_enumerate_paths,
    oracle_ergodic_components,
    oracle_harmonic_from_terminal,
    oracle_is_harmonic,
    oracle_load_measure_table,
    oracle_markov_cylinder_table,
    oracle_measure_rows,
    oracle_path,
    oracle_q_measure_witness,
    oracle_skew_product,
    oracle_stochastic_violation,
    oracle_table_from_leaves,
    partition_id,
    random_diagram,
    random_walk,
    random_walk_on,
    random_walk_with_multipath,
    young_diagram,
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
@given(randoms)
def test_transition_and_cotransition_are_edge_potentials(rng):
    w = random_walk(rng, max_depth=4)
    d = w.diagram
    assert w.cotransition is w.cotransition
    start = rng.randint(0, d.depth)
    paths = [a for end in range(start, d.depth + 1) for a in enumerate_paths(d, start, end)]
    for rho in (w.transition, w.cotransition):
        assert isinstance(rho, EdgePotential)
        rows = {n: rho.level(n) for n in range(1, d.depth + 1)}
        for a in paths:
            want = F(1)
            for n, eid in enumerate(a.edges, start=start + 1):
                want *= rows[n][eid]
            assert rho.of_path(a) == want
            if rho is w.transition and start == 0:
                assert cylinder_measure(w, a) == w.initial(a.anchor) * want
    nus = [w.nu(n) for n in range(d.depth + 1)]
    assert_same_walk(from_cotransition(d, w.cotransition, nus), w)


@kernel_settings
@given(randoms, st.sampled_from([True, False]))
# seed 76 puts 0 on edge 3 and a negative value on edge 5 of level 2: the
# first offender is named, and it is not the level's first edge
@example(random.Random(76), True)
@example(random.Random(76), False)
def test_stochastic_checks_match_oracle(rng, incoming):
    # perturb one or two edges of one level of valid data; the integer check
    # must raise exactly when the Fraction check fails, with the same message
    w = random_walk(rng)
    d = w.diagram
    if incoming:
        rows = [w.cotransition.level(n) for n in range(1, d.depth + 1)]
        cls, what, sym = CotransitionProbability, "cotransition probability", "q"
    else:
        rows = [w.transition.level(n) for n in range(1, d.depth + 1)]
        cls, what, sym = TransitionProbability, "transition probability", "p"
    n = rng.randint(1, d.depth)
    for _ in range(rng.randint(1, 2)):
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


@settings(max_examples=30, deadline=None)
@given(randoms)
def test_components_keep_q_and_decompose_to_themselves(rng):
    w = random_walk(rng, max_depth=5)
    d = w.diagram
    comps = ergodic_components(w)
    assert [(c.terminal, c.weight) for c in comps] == list(w.nu(d.depth).items())
    assert sum(c.weight for c in comps) == 1
    for c in comps:
        sub = c.walk.diagram
        for n in range(1, d.depth + 1):
            assert c.walk.cotransition.level(n) == {e.id: w.cotransition(n, e.id) for e in sub.edges(n)}
        (again,) = ergodic_components(c.walk)
        assert (again.terminal, again.weight) == (c.terminal, 1)
        assert_same_walk(again.walk, c.walk)


def _perturb(rng, d, levels):
    """``levels`` (one {vertex: value} per level) with one value, at a random
    level and vertex, moved by a random rational (zero included)."""
    n = rng.randint(0, d.depth)
    v = rng.choice(d.vertices(n))
    levels[n][v] += F(rng.randint(-3, 3), rng.randint(1, 4))
    return levels


@kernel_settings
@given(randoms)
def test_is_harmonic_matches_oracle(rng):
    w = random_walk(rng)
    d = w.diagram
    h = harmonic_from_terminal(w, {v: rng.randint(-9, 9) for v in d.vertices(d.depth)})
    h = HarmonicSequence(d, _perturb(rng, d, [h.level(n) for n in range(d.depth + 1)]))
    assert is_harmonic(w, h) == oracle_is_harmonic(w, h)


@kernel_settings
@given(randoms)
def test_cotransition_check_matches_oracle(rng):
    w = random_walk(rng)
    d = w.diagram
    nus = _perturb(rng, d, [w.nu(n) for n in range(d.depth + 1)])
    got = outcome(from_cotransition, d, w.cotransition, nus)
    want = outcome(oracle_cotransition_check, d, w.cotransition, nus)
    if want is None:
        assert_same_walk(got, w)
    else:
        assert got == want


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

    monkeypatch.setattr(bratteli.harmonic, "from_cotransition", refuse)
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


def outcome(fn, *args):
    """The value ``fn`` returns, or the class and message of its error."""
    try:
        return fn(*args)
    except BratteliError as exc:
        return type(exc), str(exc)


def assert_same_outcome(fn, oracle, *args):
    got, want = outcome(fn, *args), outcome(oracle, *args)
    assert got == want
    if isinstance(want, dict):
        assert list(got.items()) == list(want.items())


def perturbed_tables(rng, d, table, depth):
    """The table and copies with one fault each: a deleted path, a negative,
    doubled or unparsable mass, string masses, and re-weighted leaves."""
    yield table
    paths = list(table)
    for fault in ("delete", "negate", "double", "garble"):
        bad = dict(table)
        a = rng.choice(paths)
        if fault == "delete":
            del bad[a]
        elif fault == "negate":
            bad[a] = -bad[a]
        elif fault == "double":
            bad[a] *= 2
        else:
            bad[a] = "not/a/number"
        yield bad
    yield {a: f"{x.numerator}/{x.denominator}" for a, x in table.items()}
    leaves = {a: x * rng.randint(1, 3) for a, x in table.items() if len(a) == depth}
    total = sum(leaves.values())
    yield table_from_leaves(d, depth, {a: x / total for a, x in leaves.items()})


def shuffled_floors(rng, d):
    """``d`` with each floor's edges listed in random order, so that the
    out-edges of a vertex are not adjacent."""
    edges = [rng.sample(d.edges(n), len(d.edges(n))) for n in range(1, d.depth + 1)]
    return BratteliDiagram([d.vertices(n) for n in range(d.depth + 1)], edges)


@settings(max_examples=100, deadline=None)
@given(randoms)
def test_path_consumers_match_oracles(rng):
    w = random_walk_on(rng, shuffled_floors(rng, random_diagram(rng, max_depth=5)))
    d = w.diagram
    depth = rng.randint(0, d.depth)
    assert_same_outcome(markov_cylinder_table, oracle_markov_cylinder_table, w, depth)
    table = markov_cylinder_table(w, depth)
    q = rng.choice([w.cotransition, [w.cotransition.level(n) for n in range(1, d.depth + 1)]])
    for bad in perturbed_tables(rng, d, table, depth):
        assert_same_outcome(q_measure_witness, oracle_q_measure_witness, d, q, bad, depth)
        assert_same_outcome(q_measure_witness, fraction_q_measure_witness, d, q, bad, depth)
        leaves = {a: x for a, x in bad.items() if len(a) == depth}
        assert_same_outcome(table_from_leaves, oracle_table_from_leaves, d, depth, leaves)


@kernel_settings
@given(randoms, st.sampled_from(["tsv", "json"]), st.booleans())
def test_measure_matches_table_rows(rng, fmt, limited):
    # measure writes each level from the labels of the one before; its rows
    # must be those of the whole table keyed by path
    w = random_walk_with_multipath(rng, max_depth=5)
    d = w.diagram
    depth = rng.randint(0, d.depth) if limited else d.depth
    rows, columns = oracle_measure_rows(w, depth), ("level", "id", "value")
    want = json_oracle(columns, rows) if fmt == "json" else fraction_tsv(columns, rows)
    p = {(n, e.id): w.transition(n, e.id) for n in range(1, d.depth + 1) for e in d.edges(n)}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "walk.json"
        path.write_text(json.dumps(dump_diagram(d, p=p, nu0=w.initial.as_dict())))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["measure", str(path), "--format", fmt, *(["--depth", str(depth)] * limited)])
    assert (code, out.getvalue()) == (0, want)


def table_payload(table):
    """The table file of a table keyed by path, masses as 'num/den'."""
    def text(x):
        return f"{x.numerator}/{x.denominator}"

    return {
        "empty": {a.anchor: text(x) for a, x in table.items() if not a.edges},
        "paths": {a.label(): text(x) for a, x in table.items() if a.edges},
    }


TABLE_FAULTS = ["none", "missing", "negative", "non-additive", "unknown-edge", "perturbed-leaf"]
FILE_FAULTS = ["truncated", "repeated-label", "non-string-mass", "syntax-after-bad-label",
               "comma-before-inner-close", "extra-data", "integer-mass", "zero-denominator", "long-numerator"]
# characters JSON escapes, or that a reader could take for structure; no comma
ODD = ['"', "\\", "\\u0041", "\n", "\t", "\x7f", "/", " ", "{", "}", ":", "[", "@", "\u00e9", "\u2028", "\U0001f600"]


def odd_ids(rng, w):
    """``w`` on a copy of its diagram in which each vertex and edge id ends in
    a character of ``ODD``."""
    d = w.diagram
    name = {(n, v): v + rng.choice(ODD) for n in range(d.depth + 1) for v in d.vertices(n)}
    eid = {(n, e.id): e.id + rng.choice(ODD) for n in range(1, d.depth + 1) for e in d.edges(n)}
    odd = BratteliDiagram(
        [[name[n, v] for v in d.vertices(n)] for n in range(d.depth + 1)],
        [[(eid[n, e.id], name[n - 1, e.src], name[n, e.rng]) for e in d.edges(n)] for n in range(1, d.depth + 1)],
    )
    p = [{eid[n, e.id]: w.transition(n, e.id) for e in d.edges(n)} for n in range(1, d.depth + 1)]
    return build_walk(odd, p, {name[0, v]: x for v, x in w.initial.as_dict().items()})


def faulty_table(rng, fault, odd=False):
    """A diagram, a walk on it whose q checks the table, and a table payload
    with one of the ``TABLE_FAULTS``, in a random file order."""
    w = random_walk_with_multipath(rng, max_depth=5)
    w = odd_ids(rng, w) if odd else w
    d = w.diagram
    depth = rng.randint(0, d.depth)
    table = oracle_markov_cylinder_table(w, depth)
    qw = rng.choice([w, random_walk_on(rng, d)])
    a = rng.choice(list(table))
    if fault == "missing":
        del table[a]
    elif fault == "negative":
        table[a] = -table[a]
    elif fault == "non-additive":
        table[a] += F(1, 7)
    elif fault == "perturbed-leaf":
        # half a leaf's mass to a sibling: still a measure, not a q-measure
        leaves = [b for b in table if len(b) == depth]
        b = rng.choice(leaves)
        c = rng.choice([c for c in leaves if (c.anchor, c.edges[:-1]) == (b.anchor, b.edges[:-1])])
        delta = table[b] / 2
        table[b] -= delta
        table[c] += delta
    payload = table_payload(table)
    items = list(payload["paths"].items())
    if fault == "unknown-edge":
        # an unknown id, at level 1 or after a path, or two edges that do not compose
        first = [e.id for e in d.edges(1)]
        label = rng.choice(["zz", f"{rng.choice(first)},zz"])
        if d.depth > 1:
            e = rng.choice(d.edges(1))
            off = [f.id for f in d.edges(2) if f.src != e.rng]
            label = f"{e.id},{rng.choice(off)}" if off and rng.random() < 0.5 else label
        items.append((label, "1/2"))
    rng.shuffle(items)  # the file order the loader checks in
    payload["paths"] = dict(items)
    return d, qw, payload


@settings(max_examples=150, deadline=None)
@given(randoms, st.sampled_from(TABLE_FAULTS))
def test_label_read_check_matches_oracle(rng, fault):
    # the table file read by label must give the witness, or the error and
    # message, of the file read path by path and checked by the oracle
    d, qw, payload = faulty_table(rng, fault)
    q = qw.cotransition
    got = outcome(lambda: q_measure_witness(d, q, *load_measure_table(d, payload)))
    want = outcome(lambda: oracle_q_measure_witness(d, q, *oracle_load_measure_table(d, payload)))
    assert got == want


def mass_text(rng, text):
    """The JSON text of a 'num/den' mass in one of the forms a table may give
    it: as is, signed, spaced, unreduced, or where it is an integer, a bare
    integer as a string or a number."""
    num, den = map(int, text.split("/"))
    forms = [text, text, f"+{text}", f" {text}", f"{2 * num}/{2 * den}"]
    if den == 1:
        forms += [str(num), num]
    return json.dumps(rng.choice(forms))


def table_text(rng, payload, fault):
    """The JSON text of a table payload: compact or indented, 'paths' before
    or after 'empty', its members in the payload's order, shuffled again, or
    level by level with siblings adjacent, masses in the forms of
    ``mass_text``, non-ASCII escaped or not, at times with a member besides
    'empty' and 'paths'; with one of the ``FILE_FAULTS`` written in."""
    indent, ascii_only = rng.choice([None, 1, 4]), rng.random() < 0.5
    order = rng.choice(["payload", "shuffled", "levels"])
    sections = {k: [(json.dumps(x, ensure_ascii=ascii_only), mass_text(rng, y)) for x, y in v.items()]
                for k, v in payload.items()}
    if order == "shuffled":
        rng.shuffle(sections["paths"])
    elif order == "levels":  # no edge id holds a comma, so a label sorts next to its siblings
        sections["paths"].sort(key=lambda m: (json.loads(m[0]).count(","), json.loads(m[0])))
    members = sections["paths"] or sections["empty"]
    if fault == "repeated-label" and members:
        members.insert(rng.randrange(len(members) + 1), rng.choice(members))
    elif fault == "non-string-mass" and members:
        i = rng.randrange(len(members))
        members[i] = (members[i][0], rng.choice(["0.5", "null", "true", "[1]", '{"x": 1}', "1e3", "-0", "7"]))
    elif fault in ("integer-mass", "zero-denominator", "long-numerator") and members:
        i = rng.randrange(len(members))
        mass = {"integer-mass": rng.choice(['"0"', '"1"', '"2"', "0", "1", "2"]), "zero-denominator": '"1/0"',
                "long-numerator": f'"1{"0" * 4300}/3"'}[fault]
        members[i] = (members[i][0], mass)
    elif fault == "syntax-after-bad-label":
        sections["paths"].insert(0, ('"zz"', '"1/2"'))

    def obj(pairs, level):
        if indent is None:
            return "{" + ",".join(f"{k}:{v}" for k, v in pairs) + "}"
        pad = "\n" + " " * indent * (level + 1)
        body = ",".join(f"{pad}{k}: {v}" for k, v in pairs)
        return "{" + body + "\n" + " " * indent * level + "}" if pairs else "{}"

    order = rng.sample(["empty", "paths"], 2)
    top = [(json.dumps(k), obj(sections[k], 1)) for k in order]
    if fault == "comma-before-inner-close":  # a ',' before the '}' of a section that has members
        i = next(i for i, k in enumerate(order) if sections[k])
        top[i] = (top[i][0], top[i][1][:-1].rstrip() + ",}")
    if rng.random() < 0.2:
        top.insert(rng.randrange(3), ('"note"', '[1, {"a": "b"}]'))
    text = obj(top, 0)
    if fault == "syntax-after-bad-label":
        text = text[:-1].rstrip() + ",}"  # a ',' before the last '}'
    elif fault == "truncated":
        text = text[:rng.randrange(len(text))]
    elif fault == "extra-data":
        text += rng.choice([" x", "{}", "\n1", ' ""'])
    return text


def oracle_qcheck(d, q, source):
    """``bratteli qcheck``'s exit code, stdout and stderr on the table file
    ``source``, from the whole-file reader and the q-measure oracle."""
    try:
        witness = oracle_q_measure_witness(d, q, *oracle_load_measure_table(d, source))
    except (FileFormatError, json.JSONDecodeError) as exc:
        return 2, "", f"parse error: {exc}\n"
    except BratteliError as exc:
        return 1, "", f"error: {exc}\n"
    if witness is None:
        return 0, "q-measure: OK\n", ""
    a, expected, actual = witness
    return 1, f"q-measure: FAIL at {a.label()}: expected {format_fraction(expected)}, got {format_fraction(actual)}\n", ""


@settings(max_examples=200, deadline=None)
@given(randoms, st.sampled_from(TABLE_FAULTS + FILE_FAULTS))
def test_file_read_check_matches_oracle(rng, fault):
    # the same tables as files, with ids JSON escapes, in several layouts and
    # mass forms, read in chunks of a few characters and of the default size:
    # labels found one step from the last one's prefix or from V(0), masses
    # read by int() or by the rational parser, qcheck must exit and print as
    # the whole-file reader and the oracle do at every chunk size
    d, qw, payload = faulty_table(rng, fault if fault in TABLE_FAULTS else "none", odd=True)
    p = {(n, e.id): qw.transition(n, e.id) for n in range(1, d.depth + 1) for e in d.edges(n)}
    with tempfile.TemporaryDirectory() as tmp:
        walk, table = Path(tmp) / "walk.json", Path(tmp) / "table.json"
        walk.write_text(json.dumps(dump_diagram(d, p=p, nu0=qw.initial.as_dict())), encoding="utf-8")
        table.write_text(table_text(rng, payload, fault), encoding="utf-8")
        want = oracle_qcheck(d, qw.cotransition, str(table))
        for chunk in (1, 2, 3, 5, 8, 13, fileio.CHUNK):
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.object(fileio, "CHUNK", chunk):
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(["qcheck", str(walk), "--measure", str(table)])
            assert (code, out.getvalue(), err.getvalue()) == want, chunk


# a table on a diagram with two edges per floor whose level 12 has 4,096
# paths: the file is too small to hold a mass on every path of level 5, so
# its path tree stops there and the level-12 label's mass is left out; the
# check finds level 2 without a mass first.  After the label: nothing, a JSON
# fault, or the label again
PAST_LABEL = ",".join(f"a{n}" for n in range(1, 13))
PAST_TAILS = {"none": "}}", "json-fault": ', "a2": }}', "repeated": f', "{PAST_LABEL}": "1"}}}}'}


@pytest.mark.parametrize("tail", sorted(PAST_TAILS))
def test_label_past_the_held_levels_is_left_out(tmp_path, tail):
    # a streamed table takes such a label without decoding the file whole;
    # a JSON fault or a repeated key after it still reads as json reports it
    d = BratteliDiagram(
        [[f"c{n}"] for n in range(13)],
        [[(f"{x}{n}", f"c{n - 1}", f"c{n}") for x in "ab"] for n in range(1, 13)],
    )
    w = build_walk(d, [{f"a{n}": F(1, 2), f"b{n}": F(1, 2)} for n in range(1, 13)], {"c0": 1})
    p = {(n, e.id): F(1, 2) for n in range(1, 13) for e in d.edges(n)}
    walk, table = tmp_path / "walk.json", tmp_path / "table.json"
    walk.write_text(json.dumps(dump_diagram(d, p=p, nu0={"c0": 1})), encoding="utf-8")
    table.write_text('{"empty": {"c0": "1"}, "paths": {"a1": "1/2", "b1": "1/2", '
                     f'"{PAST_LABEL}": "1"' + PAST_TAILS[tail], encoding="utf-8")
    out, err, load_json = io.StringIO(), io.StringIO(), fileio._load_json

    def diagram_only(source, what):
        assert what != "measure", "the table file was decoded whole"
        return load_json(source, what)

    with mock.patch.object(fileio, "_load_json", diagram_only) if tail == "none" else contextlib.nullcontext():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["qcheck", str(walk), "--measure", str(table)])
    want = oracle_qcheck(d, w.cotransition, str(table))
    assert (code, out.getvalue(), err.getvalue()) == want
    assert want[0] == (1 if tail == "none" else 2)


@settings(max_examples=100, deadline=None)
@given(randoms)
def test_path_matches_string_walk(rng):
    # random edge ids, composable or not, unknown, empty or too many, from a
    # random start level, with or without an anchor: d.path's index walk
    # returns the same path as the string lookups, or raises the same error
    d = shuffled_floors(rng, random_diagram(rng, max_depth=4))
    ids = [e.id for n in range(1, d.depth + 1) for e in d.edges(n)] + ["", "zz"]
    anchors = [None, "zz"] + [v for n in range(d.depth + 1) for v in d.vertices(n)]
    for _ in range(20):
        start = rng.randint(0, d.depth + 1)
        edges = [rng.choice(ids) for _ in range(rng.randint(0, d.depth + 1))]
        anchor = rng.choice(anchors)
        assert_same_outcome(d.path, lambda *args: oracle_path(d, *args), edges, start, anchor)


# -- the central cotransition and pascal ----------------------------------------


@kernel_settings
@given(randoms)
def test_central_cotransition_telescopes_to_inverse_dims(rng):
    # q(e) = dim(s(e))/dim(r(e)) passes the checked constructor, and along
    # every path from V(0) it multiplies out to 1/dim(r(a)), dim counted here
    # by the oracle's own enumeration
    d = shuffled_floors(rng, random_diagram(rng))
    q = central_cotransition(d)
    rows = [q.level(n) for n in range(1, d.depth + 1)]
    assert [CotransitionProbability(d, rows).level(n) for n in range(1, d.depth + 1)] == rows
    for n in range(1, d.depth + 1):
        paths = oracle_enumerate_paths(d, 0, n)
        dims = collections.Counter(a.terminus for a in paths)
        assert all(q.of_path(a) * dims[a.terminus] == 1 for a in paths)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(2, 10**6), randoms)
def test_central_cotransition_is_the_triangle_walks_q(depth, den, rng):
    d, w = pascal_diagram(depth, F(rng.randint(1, den - 1), den))
    q = central_cotransition(d)
    assert all(q.level(n) == w.cotransition.level(n) for n in range(1, depth + 1))


def test_young_graph_central_cotransition_and_plancherel_walk():
    # the Young graph to depth 7: dims by the hook-length formula, the
    # Plancherel walk p(l -> m) = dim(m)/((n+1) dim(l)), whose q is central
    # and whose nu_n(l) is dim(l)^2/n!
    d, shapes = young_diagram(7)
    dims = [{partition_id(s): hook_dim(s) for s in level} for level in shapes]
    p = [{e.id: F(dims[n][e.rng], n * dims[n - 1][e.src]) for e in d.edges(n)} for n in range(1, d.depth + 1)]
    w = build_walk(d, p, {"0": 1})
    q = central_cotransition(d)
    for n in range(1, d.depth + 1):
        central = {e.id: F(dims[n - 1][e.src], dims[n][e.rng]) for e in d.edges(n)}
        assert q.level(n) == central == w.cotransition.level(n)
    for n in range(d.depth + 1):
        assert w.nu(n) == {v: F(x * x, math.factorial(n)) for v, x in dims[n].items()}


def pascal_t(rng):
    """A random t in (0, 1) as pascal reads it, and its Fraction."""
    den = rng.randint(2, 10**6)
    t = F(rng.randint(1, den - 1), den)
    return f"{t.numerator}/{t.denominator}", t


@settings(max_examples=5, deadline=None)
@given(randoms)
def test_pascal_rows_match_fraction_oracle(rng):
    # pascal writes each row from its word's bit count; at every depth, for
    # any t, the table must be q(a) of every path by of_path, in path order
    text, t = pascal_t(rng)
    columns = ("level", "id", "value")
    for depth in range(1, 13):
        d, w = pascal_diagram(depth, t)
        rows = fraction_pascal_rows(d, w.cotransition, depth)
        for fmt, oracle in (("tsv", fraction_tsv), ("json", json_oracle)):
            got = run_cli(["pascal", "--depth", str(depth), "--t", text, "--format", fmt])
            assert got == (0, oracle(columns, rows) + "D == 1: OK\n"), (depth, fmt)


def test_pascal_walks_no_path():
    # pascal checks q edge by edge and writes its rows from bit counts, so with
    # the path tree out of reach it prints the same tables
    argv = [["pascal", "--depth", str(depth), "--t", "2/7", "--format", fmt]
            for depth in (1, 6) for fmt in ("tsv", "json")]
    want = [run_cli(args) for args in argv]

    def no_tree(*args):
        raise AssertionError("pascal walked the path tree")

    with contextlib.ExitStack() as stack:
        for module in (bratteli.diagram, bratteli.walk):
            stack.enter_context(mock.patch.object(module, "_tree_levels", no_tree))
        with pytest.raises(AssertionError, match="path tree"):
            enumerate_paths(pascal_diagram(2, F(1, 2))[0], 0, 2)
        got = [run_cli(args) for args in argv]
    assert got == want
    assert all(code == 0 for code, _ in got)


@kernel_settings
@given(randoms)
def test_pascal_names_the_first_edge_off_centre(rng):
    # handed a random walk on the triangle, pascal names the first edge, level
    # by level in edge order, whose q is not C(n-1, k)/C(n, k + b) for its edge
    # n-1:k:b (the closed form, not the library's dims); else it passes
    depth = rng.randint(1, 7)
    text, t = pascal_t(rng)
    d, _ = pascal_diagram(depth, t)
    w = random_walk_on(rng, d)
    bad = None
    for n in range(1, depth + 1):
        for e in d.edges(n):
            k, b = map(int, e.id.split(":")[1:])
            q, expected = w.cotransition(n, e.id), F(math.comb(n - 1, k), math.comb(n, k + b))
            if bad is None and q != expected:
                bad = f"cotransition of edge {e.id} at level {n} is {format_fraction(q)}, not {format_fraction(expected)}\n"
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(bratteli.skew, "pascal_diagram", return_value=(d, w)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["pascal", "--depth", str(depth), "--t", text])
    if bad is None:
        assert (code, err.getvalue()) == (0, "")
    else:
        assert (code, out.getvalue(), err.getvalue()) == (1, "", bad)


RATIONAL_PARTS = ["0", "1", "7", "12", "00", "-", "+", "/", " ", "\t", ".", "e", "E", "_",
                  "\u0663", "\u00b2", "\u00a0", "\uff11", "x"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(RATIONAL_PARTS), max_size=8).map("".join) | st.text(max_size=12))
@example("1/0")
@example("0/0")
@example("1.5")
@example("1e3")
@example("1_0/3")
@example(" -3/4 ")
@example("+3/4")
@example("3 / 4")
@example("-0/5")
@example("007/010")
@example("\u0663/\u0664")
@example("1/\u00b2")
@example("9" * 5000 + "/7")
@example("7/" + "9" * 5000)
@example("-" + "9" * 4300 + "/" + "1" * 4300)
def test_as_fraction_matches_fraction_parser(text):
    got, want = outcome(as_fraction, text), outcome(fraction_as_fraction, text)
    assert got == want
    assert type(got) is type(want)


EXPONENT_PARTS = ["0", "1", "9", "12", "7777777", "e", "E", "-", "+", "_", ".", "/"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(EXPONENT_PARTS), max_size=10).map("".join))
@example("1e7777777")
@example("12e12121212")
@example("-1E-12_121_212")
@example("1e9999999999")
@example("1e4301")
@example("1E-4300")
@example("9" * 30 + "e4_300")
def test_short_rationals_parse_or_are_refused_at_once(text):
    # no string of a few dozen bytes asks for an unbounded power of ten: an
    # exponent over the digit limit is refused before Fraction builds 10**exp
    start = time.perf_counter()
    result = outcome(as_fraction, text)
    assert time.perf_counter() - start < 1.0
    assert result == outcome(fraction_as_fraction, text)


TSV_CELLS = st.one_of(
    st.fractions(),
    st.integers(),
    st.text(max_size=6),
    st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.text(max_size=4), min_size=1, max_size=3),
    st.lists(st.lists(TSV_CELLS, min_size=1, max_size=4).map(tuple), max_size=12),
    st.sampled_from([1, 2, 5, cli.ROW_BLOCK]),
)
def test_tsv_rows_match_fraction_renderer(columns, rows, block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), mock.patch.object(cli, "ROW_BLOCK", block):
        cli.emit(SimpleNamespace(format="tsv"), columns, iter(rows))
    assert out.getvalue() == fraction_tsv(columns, rows)


def json_oracle(columns, rows) -> str:
    """``json.dumps`` of the whole table, with ints of any length."""
    payload = {
        "columns": list(columns),
        "rows": [
            [{"num": c.numerator, "den": c.denominator} if isinstance(c, F) else c for c in row]
            for row in rows
        ],
    }
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(payload) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


LONG_INTS = st.builds(
    lambda k, sign: sign * (10**k - 1), st.integers(4301, 4400), st.sampled_from([1, -1])
)
JSON_CELLS = st.one_of(
    TSV_CELLS,
    LONG_INTS,
    st.builds(F, LONG_INTS, st.integers(1, 10**9)),
    st.text(alphabet="aé∂\u00a0\U0001d11e\"\\\n\t", max_size=6),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.text(max_size=4), min_size=1, max_size=3),
    st.lists(st.lists(JSON_CELLS, min_size=1, max_size=4).map(tuple), max_size=12),
    st.sampled_from([1, 2, 5, cli.ROW_BLOCK]),
)
@example(["level", "id", "value"], [], 1)
def test_json_rows_match_whole_table_dump(columns, rows, block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), mock.patch.object(cli, "ROW_BLOCK", block):
        cli.emit(SimpleNamespace(format="json"), columns, iter(rows))
    assert out.getvalue() == json_oracle(columns, rows)


# -- tables written from the integer core --------------------------------------


def run_cli(argv):
    """(exit code, stdout) of ``cli.main(argv)`` in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def walk_file(tmp, w):
    """``w`` as a diagram file in ``tmp``."""
    d = w.diagram
    p = {(n, e.id): w.transition(n, e.id) for n in range(1, d.depth + 1) for e in d.edges(n)}
    path = Path(tmp) / "walk.json"
    path.write_text(json.dumps(dump_diagram(d, p=p, nu0=w.initial.as_dict())))
    return str(path)


def terminal_value(rng):
    """Zero, a small rational of either sign, or one whose parts have about
    3,000 digits: each parses, and the sweep makes values of more than 4,300."""
    kind = rng.randrange(4)
    if kind == 3:
        return F(rng.choice([1, -1]) * (10**2999 + rng.randrange(10**6)), 10**2999 + rng.randrange(1, 10**6))
    return F(rng.randint(-9, 9) * (kind > 0), rng.randint(1, 9))


@settings(max_examples=40, deadline=None)
@given(randoms, st.sampled_from(["tsv", "json"]))
def test_integer_tables_match_fraction_oracles(rng, fmt):
    # distributions, cotransition and harmonic write their cells from the
    # walk's integers and the sweep's rows; each table must be what the
    # Fraction oracles give, rendered by the Fraction renderers
    w = random_walk_with_multipath(rng, max_depth=5)
    w = random_walk_on(rng, shuffled_floors(rng, w.diagram))
    d = w.diagram
    terminal = {v: terminal_value(rng) for v in d.vertices(d.depth)}
    nus, qs = oracle_distributions(w)
    hs = oracle_harmonic_from_terminal(w, terminal)
    tables = {
        "distributions": [(n, v, nus[n][v]) for n in range(d.depth + 1) for v in d.vertices(n)],
        "cotransition": [(n, e.id, qs[n - 1][e.id]) for n in range(1, d.depth + 1) for e in d.edges(n)],
        "harmonic": [(n, v, hs[n][v]) for n in range(d.depth + 1) for v in d.vertices(n)],
    }
    columns = ("level", "id", "value")
    with tempfile.TemporaryDirectory() as tmp:
        path = walk_file(tmp, w)
        term = Path(tmp) / "terminal.json"
        with long_ints():
            term.write_text(json.dumps({v: format_fraction(x) for v, x in terminal.items()}))
        for command, rows in tables.items():
            extra = ["--terminal", str(term)] if command == "harmonic" else []
            got = run_cli([command, path, *extra, "--format", fmt])
            with long_ints():
                want = json_oracle(columns, rows) if fmt == "json" else fraction_tsv(columns, rows)
            assert got == (0, want), command


def test_tables_build_no_cotransition_potential(tmp_path, monkeypatch):
    # cotransition reads q off the walk's integers, so no command here asks
    # the walk for its q Fractions (the library's cached q is unchanged)
    w = random_walk_with_multipath(random.Random(3))
    d = w.diagram
    path = walk_file(tmp_path, w)
    term = tmp_path / "terminal.json"
    term.write_text(json.dumps({v: "-1/3" for v in d.vertices(d.depth)}))
    commands = [["cotransition"], ["distributions"], ["harmonic", "--terminal", str(term)]]
    want = [run_cli([c[0], path, *c[1:], "--format", fmt]) for c in commands for fmt in ("tsv", "json")]

    def no_q(self):
        raise AssertionError("the walk's q was built")

    monkeypatch.setattr(RandomWalk, "cotransition", property(no_q))
    got = [run_cli([c[0], path, *c[1:], "--format", fmt]) for c in commands for fmt in ("tsv", "json")]
    assert got == want
    assert all(code == 0 for code, _ in got)
    _, qs = oracle_distributions(w)
    q = [(n, e, x) for n in range(1, d.depth + 1) for e, x in qs[n - 1].items()]
    assert got[0][1] == fraction_tsv(("level", "id", "value"), q)


# -- the cotransition, built on first request -----------------------------------


@kernel_settings
@given(randoms)
def test_cotransition_is_built_on_first_request(rng):
    w = random_walk(rng)
    for n in range(w.depth + 1):  # what ``distributions`` reads
        w.nu(n)
    assert "cotransition" not in vars(w)
    _, qs = oracle_distributions(w)
    assert [w.cotransition.level(n) for n in range(1, w.depth + 1)] == qs
    assert "cotransition" in vars(w)
    assert w.cotransition is w.cotransition


@settings(max_examples=20, deadline=None)
@given(randoms)
def test_concurrent_first_cotransition_requests_agree(rng):
    w = random_walk(rng)
    start = threading.Barrier(2)
    got = [None, None]

    def read(i):
        start.wait()
        got[i] = [w.cotransition.level(n) for n in range(1, w.depth + 1)]

    threads = [threading.Thread(target=read, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    _, qs = oracle_distributions(w)
    assert got[0] == got[1] == qs


@kernel_settings
@given(randoms)
def test_walk_checks_q_at_construction(rng):
    # zero the transition numerator of one edge into a vertex with another
    # in-edge: q vanishes on that edge, and building the walk must fail
    w = random_walk(rng)
    d = w.diagram
    into_shared = [
        (n, k) for n in range(1, d.depth + 1)
        for k, j in enumerate(d._rng[n - 1]) if len(d._in[n - 1][j]) > 1
    ]
    if not into_shared:
        return
    n, k = rng.choice(into_shared)
    p = TransitionProbability(d, [w.transition.level(m) for m in range(1, d.depth + 1)])
    p._num = tuple(
        tuple(0 if (m, i) == (n - 1, k) else x for i, x in enumerate(row))
        for m, row in enumerate(p._num)
    )
    with pytest.raises(SupportViolation) as info:
        RandomWalk(d, p, w.initial)
    eid = d.edges(n)[k].id
    assert str(info.value) == f"cotransition probability: q({eid}) = 0 at level {n} is not positive"


# -- the skew product against the string-id oracle ------------------------------


def random_potential(rng, d, kind):
    """A random edge potential on ``d`` and a window of two to four drawn
    elements, some written as text: rank-1 or rank-2 lattice vectors
    (``kind`` 1 or 2) or positive rationals."""
    if kind == "rationals":
        group = MultiplicativeRationals()

        def draw():
            return F(rng.randint(1, 4), rng.randint(1, 4))
    else:
        group = ZLattice(kind)

        def draw():
            return tuple(rng.randint(-2, 2) for _ in range(kind))

    values = [{e.id: draw() for e in d.edges(n)} for n in range(1, d.depth + 1)]
    window = [draw() for _ in range(rng.randint(2, 4))]
    window = [rng.choice([g, group.format(g)]) for g in window]
    return EdgePotential(d, group, values), window


@kernel_settings
@given(randoms, st.sampled_from([1, 2, "rationals"]))
def test_skew_product_matches_oracle(rng, kind):
    d = shuffled_floors(rng, random_diagram(rng, max_depth=5))
    rho, window = random_potential(rng, d, kind)
    sd = skew_product(d, rho, window)
    skewed, vertex_pairs, edge_pairs = oracle_skew_product(d, rho, window)
    for n in range(d.depth + 1):
        assert sd.diagram.vertices(n) == skewed.vertices(n)
        assert sd.vertex_pairs(n) == vertex_pairs[n]
        names = tuple(sd._names[g] for _, g in sd._keys[n])
        assert names == tuple(rho.group.format(g) for _, g in vertex_pairs[n])
    for n in range(1, d.depth + 1):
        assert sd.diagram.edges(n) == skewed.edges(n)
        assert sd.edge_pairs(n) == edge_pairs[n - 1]
    # an empty window, or a potential on an equal copy of the diagram
    twin = BratteliDiagram([d.vertices(n) for n in range(d.depth + 1)],
                           [d.edges(n) for n in range(1, d.depth + 1)])
    foreign = EdgePotential(twin, rho.group, [rho.level(n) for n in range(1, d.depth + 1)])
    for args in ((d, rho, []), (d, foreign, window)):
        want = outcome(oracle_skew_product, *args)
        assert isinstance(want, tuple) and want[0] in (WindowError, IncompatibleData)
        assert outcome(skew_product, *args) == want


def skew_oracle_rows(d, rho, window):
    """The rows ``skew`` prints, from the string-id oracle."""
    group = rho.group
    skewed, vertex_pairs, edge_pairs = oracle_skew_product(d, rho, window)
    rows = [
        (n, vid, group.format(g))
        for n in range(d.depth + 1)
        for vid, (_, g) in zip(skewed.vertices(n), vertex_pairs[n])
    ]
    rows += [
        (n, edge.id, group.format(group.op(g, rho(n, base_id))))
        for n in range(1, d.depth + 1)
        for edge, (base_id, g) in zip(skewed.edges(n), edge_pairs[n - 1])
    ]
    return rows


def skew_file(tmp, d, rho, kind):
    """``d`` with the potential ``rho`` as a diagram file in ``tmp``: lattice
    vectors as arrays, rationals as 'num/den'."""
    cell = rho.group.format if kind == "rationals" else list
    values = {(n, e): cell(g) for n in range(1, d.depth + 1) for e, g in rho.level(n).items()}
    path = Path(tmp) / "skew.json"
    path.write_text(json.dumps(dump_diagram(d, rho=values)))
    return str(path)


@settings(max_examples=30, deadline=None)
@given(randoms, st.sampled_from([1, 2, "rationals"]), st.sampled_from(["tsv", "json"]))
def test_skew_command_matches_oracle_rows(rng, kind, fmt):
    # rank-1 and rank-2 lattice vectors and 'num/den' rationals, on floors
    # listed in random order, each under two windows
    d = shuffled_floors(rng, random_diagram(rng, max_depth=4))
    rho, window = random_potential(rng, d, kind)
    _, other = random_potential(rng, d, kind)
    group = rho.group
    columns = ("level", "id", "value")
    with tempfile.TemporaryDirectory() as tmp:
        path = skew_file(tmp, d, rho, kind)
        for win in (window, other):
            rows = skew_oracle_rows(d, rho, win)
            if fmt == "json":
                want = json.dumps({"columns": list(columns), "rows": [list(row) for row in rows]}) + "\n"
            else:
                want = fraction_tsv(columns, rows)
            text = ",".join(group.format(group.parse(g)) for g in win)
            assert run_cli(["skew", path, f"--window={text}", "--format", fmt]) == (0, want)


@settings(max_examples=30, deadline=None)
@given(randoms, st.sampled_from([1, 2, "rationals"]))
def test_skew_counts_the_edge_rows_it_writes(rng, kind):
    # under the limit, the count is the number of edge rows skew writes (the
    # ids 'e<n>_<i>@g'; vertex ids start with 'v'); one fewer is refused
    # before the last floor is built, stating the count, level and limit
    d = shuffled_floors(rng, random_diagram(rng, max_depth=4))
    rho, window = random_potential(rng, d, kind)
    text = "--window=" + ",".join(rho.group.format(rho.group.parse(g)) for g in window)
    with tempfile.TemporaryDirectory() as tmp:
        path = skew_file(tmp, d, rho, kind)
        code, out = run_cli(["skew", path, text])
        count = sum(line.split("\t")[1][0] == "e" for line in out.splitlines()[1:])
        assert code == 0
        assert run_cli(["skew", path, text, f"--max-edges={count}"]) == (0, out)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_cli(["skew", path, text, f"--max-edges={count - 1}"]) == (1, "")
    message = f"skew product to level {d.depth} lists {count} edges, over the limit of {count - 1}"
    assert err.getvalue() == f"error: {message}\n"
    assert skew_product(d, rho, window, max_edges=count)._keys == skew_product(d, rho, window)._keys
    assert outcome(lambda: skew_product(d, rho, window, max_edges=count - 1)) == (WindowError, message)


def skew_accessors(sd, outside):
    """Every value a skew product hands out other than ``diagram``, with the
    outcome of ``vertex_id`` on each reached key (as an element and as its
    name), on the element ``outside`` of every window, on an unknown base
    vertex and past the last level."""
    base, depth, fmt = sd.base, sd.base.depth, sd.group.format
    values = [sd.initial_window, sd._names]
    for n in range(depth + 1):
        pairs = sd.vertex_pairs(n)
        values += [sd.window(n), pairs]
        values += [outcome(sd.vertex_id, n, v, g) for v, g in pairs]
        values += [outcome(sd.vertex_id, n, v, fmt(g)) for v, g in pairs[:2]]
        values.append(outcome(sd.vertex_id, n, base.vertices(n)[0], outside))
        values.append(outcome(sd.vertex_id, n, "no-such-vertex", sd.window(n)[0]))
    values.append(outcome(sd.vertex_id, depth + 1, base.vertices(0)[0], sd.initial_window[0]))
    values += [sd.edge_pairs(n) for n in range(1, depth + 1)]
    return values


@kernel_settings
@given(randoms, st.sampled_from([1, 2, "rationals"]))
def test_skew_accessors_do_not_need_the_diagram(rng, kind):
    d = shuffled_floors(rng, random_diagram(rng, max_depth=5))
    rho, window = random_potential(rng, d, kind)
    lazy, eager = skew_product(d, rho, window), skew_product(d, rho, window)
    # no drawn element reaches a coordinate of 100, nor a factor 7
    outside = F(7) if kind == "rationals" else (100,) * kind
    before = skew_accessors(lazy, outside)
    assert "diagram" not in vars(lazy)
    built = eager.diagram
    assert eager.diagram is built
    assert skew_accessors(eager, outside) == before
    skewed, _, _ = oracle_skew_product(d, rho, window)
    assert lazy.diagram is lazy.diagram
    for n in range(d.depth + 1):
        assert lazy.diagram.vertices(n) == built.vertices(n) == skewed.vertices(n)
        assert [lazy.vertex_id(n, v, g) for v, g in lazy.vertex_pairs(n)] == list(skewed.vertices(n))
        assert outcome(lazy.vertex_id, n, d.vertices(n)[0], outside)[0] is WindowError
    for n in range(1, d.depth + 1):
        assert lazy.diagram.edges(n) == built.edges(n) == skewed.edges(n)
    assert skew_accessors(lazy, outside) == before
    assert lazy.source_range_law_holds()


def test_diagram_file_commands_build_no_edge_objects(tmp_path, monkeypatch):
    # the diagram holds ids and indices: reading a file, building the walk,
    # its q and nu, the harmonic sweep and the skew rows ask for no Edge
    d, w = pascal_diagram(5, F(1, 3))
    rho = pascal_edge_potential(d)
    p = {(n, e.id): w.transition(n, e.id) for n in range(1, d.depth + 1) for e in d.edges(n)}
    path = tmp_path / "walk.json"
    rho = {(n, e): list(rho(n, e)) for n, e in p}
    path.write_text(json.dumps(dump_diagram(d, p=p, nu0=w.initial.as_dict(), rho=rho)))
    terminal = tmp_path / "terminal.json"
    terminal.write_text(json.dumps({v: str(k) for k, v in enumerate(d.vertices(d.depth))}))
    commands = [["distributions"], ["cotransition"], ["harmonic", "--terminal", str(terminal)],
                ["skew", "--window=0,1"]]

    def outputs():
        runs = []
        for command in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                runs.append((cli.main([command[0], str(path), *command[1:]]), out.getvalue()))
        return runs

    want = outputs()

    def no_edge(self, *args):
        raise AssertionError("an Edge object was built")

    monkeypatch.setattr(Edge, "__init__", no_edge)
    assert outputs() == want
    assert all(code == 0 for code, _ in want)


def test_skew_command_builds_only_the_base_diagram(tmp_path, monkeypatch):
    d, _ = pascal_diagram(6, F(1, 3))
    rho = pascal_edge_potential(d)
    values = {(n, e): list(g) for n in range(1, d.depth + 1) for e, g in rho.level(n).items()}
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(dump_diagram(d, rho=values)))
    built = []
    init = BratteliDiagram.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BratteliDiagram, "__init__", counting_init)
    for fmt in ("tsv", "json"):
        built.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["skew", str(path), "--window=-1,0,2", "--format", fmt]) == 0
        assert len(built) == 1 and built[0].depth == d.depth
        assert "6:2@1" in out.getvalue()
