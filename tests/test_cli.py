"""Command-line interface: output tables, formats, and exit codes."""

import contextlib
import errno
import gc
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bratteli import (
    dump_diagram,
    markov_cylinder_table,
    pascal_diagram,
    table_from_leaves,
)
from bratteli import cli, fileio
from bratteli.cli import main
from helpers import peak_rss_mb

F = Fraction

VEE = {
    "vertices": [["a", "b"], ["c"]],
    "edges": [[{"id": "ea", "src": "a", "rng": "c", "p": "1"},
               {"id": "eb", "src": "b", "rng": "c", "p": "1"}]],
    "nu0": {"a": "1/3", "b": "2/3"},
}


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def pascal_file(tmp_path, depth=2, t=F(1, 2)):
    d, w = pascal_diagram(depth, t)
    p = {(n, e.id): w.transition(n, e.id) for n in range(1, depth + 1) for e in d.edges(n)}
    return write_json(tmp_path, "pascal.json", dump_diagram(d, p=p, nu0=w.initial.as_dict()))


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(tmp_path, capsys):
    f = write_json(tmp_path, "vee.json", VEE)
    code, out, err = run_main(capsys, ["validate", f])
    assert code == 0
    assert out == "level\tsubject\trule\n"
    assert err == ""


def test_validate_reports_violations(tmp_path, capsys):
    bad = {"vertices": [["a"], ["b"]],
           "edges": [[{"id": "e", "src": "a", "rng": "zz"}]]}
    f = write_json(tmp_path, "bad.json", bad)
    code, out, err = run_main(capsys, ["validate", f])
    assert code == 1
    assert "edge 'e'" in out
    assert err.startswith("invalid diagram:")


# an invalid diagram with neither walk data nor a potential: the diagram is
# built as the file is read, so its first violation is the error reported
STRANDED = {"vertices": [["a", "b"], ["c"]], "edges": [[{"id": "e", "src": "a", "rng": "c"}]]}


@pytest.mark.parametrize("argv", [["distributions"], ["skew", "--window=0"]])
def test_a_violation_comes_before_missing_data(tmp_path, capsys, argv):
    f = write_json(tmp_path, "stranded.json", STRANDED)
    assert run_main(capsys, [argv[0], f, *argv[1:]]) == (1, "", "error: level 0: vertex 'b': emits no edge\n")


def test_an_invalid_graph_of_two_floors_reports_the_violation(tmp_path, capsys):
    # before the floors are counted: exit 1, not the parse error of a valid two-floor graph
    graph = {"vertices": [["a"], ["b"], ["c", "d"]],
             "edges": [[{"id": "e", "src": "a", "rng": "b", "p": "1"}],
                       [{"id": "f", "src": "b", "rng": "c", "p": "1"}]],
             "X": {"x": "a"}}
    f = write_json(tmp_path, "graph.json", graph)
    assert run_main(capsys, ["expect", "--graph", f]) == (1, "", "error: level 2: vertex 'd': receives no edge\n")


def test_measure_table(tmp_path, capsys):
    f = write_json(tmp_path, "vee.json", VEE)
    code, out, err = run_main(capsys, ["measure", f])
    assert code == 0
    assert out.splitlines() == [
        "level\tid\tvalue",
        "0\t@a\t1/3",
        "0\t@b\t2/3",
        "1\tea\t1/3",
        "1\teb\t2/3",
    ]


def test_measure_depth_flag(tmp_path, capsys):
    f = write_json(tmp_path, "vee.json", VEE)
    code, out, _ = run_main(capsys, ["measure", f, "--depth", "0"])
    assert code == 0
    assert out.splitlines() == ["level\tid\tvalue", "0\t@a\t1/3", "0\t@b\t2/3"]
    code, _, err = run_main(capsys, ["measure", f, "--depth", "5"])
    assert code == 1
    assert err.startswith("error: depth 5 out of range")


def test_measure_on_deep_chain(tmp_path, capsys):
    for depth in (1500, 5000):
        chain = {
            "vertices": [[f"c{n}"] for n in range(depth + 1)],
            "edges": [[{"id": f"l{n}", "src": f"c{n - 1}", "rng": f"c{n}", "p": "1"}]
                      for n in range(1, depth + 1)],
            "nu0": {"c0": "1"},
        }
        f = write_json(tmp_path, "chain.json", chain)
        # the table's labels run to tens of MB at depth 5000: write them to a file
        with open(tmp_path / "out.tsv", "w", encoding="utf-8") as out:
            with contextlib.redirect_stdout(out):
                code = main(["measure", f])
        assert (code, capsys.readouterr().err) == (0, "")
        with open(tmp_path / "out.tsv", encoding="utf-8") as out:
            lines = out.read().splitlines()
        assert len(lines) == depth + 2
        assert lines[-1] == f"{depth}\t" + ",".join(f"l{n}" for n in range(1, depth + 1)) + "\t1/1"


def test_measure_on_deep_chain_peak_rss(tmp_path):
    # only one level of labels is held: the whole table's edge tuples took
    # about 125 MB at depth 3000
    depth = 3000
    chain = {
        "vertices": [[f"c{n}"] for n in range(depth + 1)],
        "edges": [[{"id": f"l{n}", "src": f"c{n - 1}", "rng": f"c{n}", "p": "1"}]
                  for n in range(1, depth + 1)],
        "nu0": {"c0": "1"},
    }
    f = write_json(tmp_path, "chain.json", chain)
    code, peak = peak_rss_mb([sys.executable, "-m", "bratteli", "measure", f])
    assert code == 0
    assert peak <= 50


def test_qcheck_on_deep_chain_peak_rss(tmp_path):
    # the 10.3 MB table is streamed into the path tree: decoded whole with
    # json.loads and held as a label dict, it took qcheck to 53.3 MB
    depth = 2000
    chain = {
        "vertices": [[f"c{n}"] for n in range(depth + 1)],
        "edges": [[{"id": f"l{n}", "src": f"c{n - 1}", "rng": f"c{n}", "p": "1"}]
                  for n in range(1, depth + 1)],
        "nu0": {"c0": "1"},
    }
    f = write_json(tmp_path, "chain.json", chain)
    table, label = tmp_path / "table.json", "l1"
    with open(table, "w", encoding="utf-8") as out:
        out.write('{"empty": {"c0": "1"}, "paths": {"l1": "1"')
        for n in range(2, depth + 1):
            label += f",l{n}"
            out.write(f', "{label}": "1"')
        out.write("}}")
    code, peak = peak_rss_mb([sys.executable, "-m", "bratteli", "qcheck", f, "--measure", str(table)])
    assert code == 0
    assert peak <= 40


def test_qcheck_on_a_deep_label_builds_no_deep_level(tmp_path):
    # two edges per floor: level 20 has 2**20 paths, and a table naming one of
    # them lacks a mass at level 1 already; the path tree grows only while a
    # level could be complete, so qcheck never builds level 20
    depth = 20
    doubled = {
        "vertices": [[f"c{n}"] for n in range(depth + 1)],
        "edges": [[{"id": f"{x}{n}", "src": f"c{n - 1}", "rng": f"c{n}", "p": "1/2"} for x in "ab"]
                  for n in range(1, depth + 1)],
        "nu0": {"c0": "1"},
    }
    f = write_json(tmp_path, "doubled.json", doubled)
    label = ",".join(f"a{n}" for n in range(1, depth + 1))
    table = write_json(tmp_path, "table.json", {"empty": {"c0": "1"}, "paths": {label: "1"}})
    argv = [sys.executable, "-m", "bratteli", "qcheck", f, "--measure", table]
    assert subprocess.run(argv, capture_output=True, text=True).stderr == "error: no mass for path a1\n"
    code, peak = peak_rss_mb(argv)
    assert code == 1
    assert peak <= 40


def test_qcheck_reads_a_table_from_a_pipe(tmp_path):
    # a pipe has no size to bound the table by and cannot be read twice: it
    # is decoded whole, as any file was before tables were streamed, and a
    # member besides 'empty' and 'paths' is refused there as in a file
    f = write_json(tmp_path, "vee.json", VEE)
    stray = (2, "", "parse error: unexpected member 'note' in a table file\n")
    for table, want in ((MEASURE, (0, "q-measure: OK\n", "")), ({**MEASURE, "note": []}, stray)):
        proc = subprocess.run(
            [sys.executable, "-m", "bratteli", "qcheck", f, "--measure", "/dev/stdin"],
            input=json.dumps(table), capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == want


@pytest.mark.parametrize("command", ["measure", "qcheck"])
def test_comma_in_edge_id_is_refused(tmp_path, capsys, command):
    # a label joins edge ids with commas: measure would write a label that
    # qcheck cannot read back, so both refuse the diagram up front
    payload = json.loads(json.dumps(VEE))
    payload["edges"][0][1]["id"] = "e,b"
    f = write_json(tmp_path, "comma.json", payload)
    table = write_json(tmp_path, "table.json", {"empty": {"a": "1/3", "b": "2/3"}, "paths": {"ea": "1/3"}})
    argv = [command, f] + (["--measure", table] if command == "qcheck" else [])
    assert run_main(capsys, argv) == (
        1, "", "error: edge id 'e,b' at level 1 holds a comma, which path labels cannot name\n"
    )


def complete_diagram(width, depth):
    """``width`` vertices per level, each joined to every vertex below it."""
    vertices = [[f"v{n}.{i}" for i in range(width)] for n in range(depth + 1)]
    edges = [
        [{"id": f"e{n}.{i}.{j}", "src": f"v{n - 1}.{i}", "rng": f"v{n}.{j}", "p": f"1/{width}"}
         for i in range(width) for j in range(width)]
        for n in range(1, depth + 1)
    ]
    return {"vertices": vertices, "edges": edges, "nu0": {v: f"1/{width}" for v in vertices[0]}}


def test_path_requests_over_the_limit_are_refused(tmp_path, capsys):
    f = write_json(tmp_path, "complete.json", complete_diagram(4, 10))
    count = sum(4 ** (n + 1) for n in range(11))  # 4^(n+1) paths of length n
    assert run_main(capsys, ["measure", f]) == (
        1, "", f"error: measure to depth 10 lists {count} paths, over the limit of 1000000 (--max-paths)\n"
    )
    assert run_main(capsys, ["measure", f, "--depth", "5"])[0] == 0
    for depth in (20, 10**9):
        assert run_main(capsys, ["pascal", "--depth", str(depth), "--t", "1/3"]) == (
            1, "", f"error: pascal --depth {depth} lists 2^{depth} paths, "
            "over the limit of 1000000 (--max-paths)\n"
        )


def test_max_paths_sets_the_limit(tmp_path, capsys):
    f = write_json(tmp_path, "vee.json", VEE)  # 2 empty paths and 2 edges
    default = run_main(capsys, ["measure", f])
    assert run_main(capsys, ["measure", f, "--max-paths", "4"]) == default
    assert run_main(capsys, ["measure", f, "--max-paths", "3"]) == (
        1, "", "error: measure to depth 1 lists 4 paths, over the limit of 3 (--max-paths)\n"
    )
    assert run_main(capsys, ["measure", f, "--depth", "0", "--max-paths", "2"])[0] == 0
    default = run_main(capsys, ["pascal", "--depth", "3", "--t", "1/3"])
    assert run_main(capsys, ["pascal", "--depth", "3", "--t", "1/3", "--max-paths", "8"]) == default
    assert run_main(capsys, ["pascal", "--depth", "3", "--t", "1/3", "--max-paths", "7"]) == (
        1, "", "error: pascal --depth 3 lists 2^3 paths, over the limit of 7 (--max-paths)\n"
    )


def test_results_longer_than_the_digit_limit_render(tmp_path, capsys):
    # every p parses (3,000 digits), but the depth-2 masses have 5,999-digit
    # denominators, more than ints convert to strings by default
    big = 10**2999
    p = [F(1, big), 1 - F(1, big)]
    floors = [
        [{"id": f"{x}{i}", "src": u, "rng": v, "p": f"{q.numerator}/{q.denominator}"}
         for i, q in enumerate(p)]
        for x, u, v in (("e", "a", "b"), ("f", "b", "c"))
    ]
    payload = {"vertices": [["a"], ["b"], ["c"]], "edges": floors, "nu0": {"a": "1"}}
    f = write_json(tmp_path, "long.json", payload)
    limit = sys.get_int_max_str_digits()
    tsv = run_main(capsys, ["measure", f])
    doc = run_main(capsys, ["measure", f, "--format", "json"])
    assert sys.get_int_max_str_digits() == limit
    rows = [(0, "@a", F(1))] + [(1, f"e{i}", x) for i, x in enumerate(p)]
    rows += [(2, f"e{i},f{j}", x * y) for i, x in enumerate(p) for j, y in enumerate(p)]
    sys.set_int_max_str_digits(0)
    try:
        want = "".join(f"{n}\t{a}\t{x.numerator}/{x.denominator}\n" for n, a, x in rows)
        assert tsv == (0, "level\tid\tvalue\n" + want, "")
        assert doc[0] == 0 and doc[2] == ""
        assert json.loads(doc[1]) == {
            "columns": ["level", "id", "value"],
            "rows": [[n, a, {"num": x.numerator, "den": x.denominator}] for n, a, x in rows],
        }
    finally:
        sys.set_int_max_str_digits(limit)


def test_messages_longer_than_the_digit_limit_render(tmp_path, capsys):
    # each mass parses (3,000 digits), but the extensions of @a sum to a
    # rational with a ~6,000-digit denominator, named in the error message
    big = 10**2999
    floor = [{"id": f"e{i}", "src": "a", "rng": "b", "p": "1/2"} for i in range(2)]
    f = write_json(tmp_path, "one.json", {"vertices": [["a"], ["b"]], "edges": [floor], "nu0": {"a": "1"}})
    masses = [F(1, big), F(1, big + 1)]
    paths = {f"e{i}": f"{x.numerator}/{x.denominator}" for i, x in enumerate(masses)}
    m = write_json(tmp_path, "table.json", {"empty": {"a": "1"}, "paths": paths})
    limit = sys.get_int_max_str_digits()
    code, out, err = run_main(capsys, ["qcheck", f, "--measure", m])
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        want = f"error: not additive at @a: mass 1, extensions sum to {sum(masses)}\n"
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out, err) == (1, "", want)


def test_cotransition_and_distributions(tmp_path, capsys):
    f = write_json(tmp_path, "vee.json", VEE)
    code, out, _ = run_main(capsys, ["cotransition", f])
    assert code == 0
    assert out.splitlines() == ["level\tid\tvalue", "1\tea\t1/3", "1\teb\t2/3"]
    code, out, _ = run_main(capsys, ["distributions", f])
    assert code == 0
    assert out.splitlines() == [
        "level\tid\tvalue",
        "0\ta\t1/3",
        "0\tb\t2/3",
        "1\tc\t1/1",
    ]


def test_rn_value_and_json_format(tmp_path, capsys):
    f = write_json(tmp_path, "vee.json", VEE)
    code, out, _ = run_main(capsys, ["rn", f, "--a", "ea", "--b", "eb"])
    assert code == 0
    assert out.splitlines() == ["level\tid\tvalue", "1\tea|eb\t1/2"]
    code, out, _ = run_main(
        capsys, ["rn", f, "--a", "ea", "--b", "eb", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out) == {
        "columns": ["level", "id", "value"],
        "rows": [[1, "ea|eb", {"num": 1, "den": 2}]],
    }


def test_rn_rejects_unrelated_paths(tmp_path, capsys):
    f = write_json(tmp_path, "vee.json", VEE)
    code, _, err = run_main(capsys, ["rn", f, "--a", "@a", "--b", "@b"])
    assert code == 1
    assert err == "error: paths not tail equivalent\n"


def test_harmonic_from_terminal(tmp_path, capsys):
    f = write_json(tmp_path, "vee.json", VEE)
    term = write_json(tmp_path, "term.json", {"c": "3/4"})
    code, out, _ = run_main(capsys, ["harmonic", f, "--terminal", term])
    assert code == 0
    assert out.splitlines() == [
        "level\tid\tvalue",
        "0\ta\t3/4",
        "0\tb\t3/4",
        "1\tc\t3/4",
    ]


def test_decompose(tmp_path, capsys):
    f = pascal_file(tmp_path)
    code, out, _ = run_main(capsys, ["decompose", f])
    assert code == 0
    assert out.splitlines() == [
        "component\tweight\tterminal",
        "0\t1/4\t2:0",
        "1\t1/2\t2:1",
        "2\t1/4\t2:2",
    ]


def table_payload(table):
    empty = {a.anchor: f"{m.numerator}/{m.denominator}"
             for a, m in table.items() if len(a) == 0}
    paths = {a.label(): f"{m.numerator}/{m.denominator}"
             for a, m in table.items() if len(a) > 0}
    return {"empty": empty, "paths": paths}


def test_qcheck_refuses_a_stray_table_member(tmp_path, capsys):
    # a member besides 'empty' and 'paths' exits 2, after the table's members
    # (read streamed) or before them (where the stream stops at it), and so
    # does the output of measure --format json, which is no table file
    f = write_json(tmp_path, "vee.json", VEE)
    for i, table in enumerate([{**MEASURE, "extra": 1}, {"extra": 1, **MEASURE}]):
        path = write_json(tmp_path, f"stray{i}.json", table)
        assert run_main(capsys, ["qcheck", f, "--measure", path]) == (
            2, "", "parse error: unexpected member 'extra' in a table file\n")
    code, out, _ = run_main(capsys, ["measure", f, "--format", "json"])
    path = tmp_path / "measure.json"
    path.write_text(out)
    assert run_main(capsys, ["qcheck", f, "--measure", str(path)]) == (
        2, "", "parse error: unexpected member 'columns' in a table file\n")


def test_qcheck_ok_and_fail(tmp_path, capsys):
    d, w = pascal_diagram(2, F(1, 2))
    f = pascal_file(tmp_path)
    table = markov_cylinder_table(w, 2)
    good = write_json(tmp_path, "good.json", table_payload(table))
    code, out, _ = run_main(capsys, ["qcheck", f, "--measure", good])
    assert code == 0
    assert out == "q-measure: OK\n"

    # shift mass between two paths sharing a terminus, so the table's own
    # marginal is unchanged but the per-path criterion breaks
    leaves = {a: m for a, m in table.items() if len(a) == 2}
    low = d.path(["0:0:0", "1:0:1"])
    high = d.path(["0:0:1", "1:1:0"])
    delta = F(1, 1000)
    leaves[low] -= delta
    leaves[high] += delta
    skewed = table_from_leaves(d, 2, leaves)
    bad = write_json(tmp_path, "bad.json", table_payload(skewed))
    code, out, _ = run_main(capsys, ["qcheck", f, "--measure", bad])
    assert code == 1
    assert out.startswith("q-measure: FAIL at ")


GRAPH = {
    "vertices": [["v"], ["w"]],
    "edges": [[{"id": "a", "src": "v", "rng": "w", "p": "1/3"},
               {"id": "b", "src": "v", "rng": "w", "p": "2/3"}]],
    "X": {"x0": "v", "x1": "v"},
}


def test_expect_report(tmp_path, capsys):
    g = write_json(tmp_path, "graph.json", GRAPH)
    code, out, err = run_main(capsys, ["expect", "--graph", g])
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "check\tresult"
    assert set(lines[1:]) == {
        "unital\tpass", "idempotent\tpass", "range_in_subalgebra\tpass",
        "bimodular\tpass", "positive\tpass", "faithful\tpass",
    }


def test_expect_rejects_bad_weights(tmp_path, capsys):
    broken = json.loads(json.dumps(GRAPH))
    broken["edges"][0][1]["p"] = "1/3"
    g = write_json(tmp_path, "broken.json", broken)
    code, _, err = run_main(capsys, ["expect", "--graph", g])
    assert code == 1
    assert err.startswith("error:")


def test_expect_requires_weights(tmp_path, capsys):
    bare = json.loads(json.dumps(GRAPH))
    for rec in bare["edges"][0]:
        del rec["p"]
    g = write_json(tmp_path, "bare.json", bare)
    code, _, err = run_main(capsys, ["expect", "--graph", g])
    assert code == 1
    assert "no 'p' fields" in err


def test_expect_leaves_numpy_random_unloaded(tmp_path):
    # the positivity samples come from random.Random, not numpy.random
    g = write_json(tmp_path, "graph.json", GRAPH)
    script = (
        "import sys\n"
        "from bratteli.cli import main\n"
        f"code = main(['expect', '--graph', {g!r}])\n"
        "print(code, 'numpy' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "0 True False", proc.stderr


def test_extractp(tmp_path, capsys):
    g = write_json(tmp_path, "graph.json", GRAPH)
    code, out, _ = run_main(capsys, ["extractp", "--graph", g])
    assert code == 0
    assert out.splitlines() == ["level\tid\tvalue", "1\ta\t1/3", "1\tb\t2/3"]


# p(c3) = 10^-12: the class Gram matrix of ('x0', 'c3') is positive definite,
# with a smallest eigenvalue far below the 1e-9 a float check would tolerate
SMALL_P = {
    "vertices": [["v0", "v1"], ["w0", "w1"]],
    "edges": [[{"id": "c0", "src": "v1", "rng": "w1", "p": "8/25"},
               {"id": "c1", "src": "v0", "rng": "w0", "p": "1999999999991/9000000000000"},
               {"id": "c2", "src": "v0", "rng": "w0", "p": "7/9"},
               {"id": "c3", "src": "v0", "rng": "w1", "p": "1/1000000000000"},
               {"id": "c4", "src": "v1", "rng": "w0", "p": "9/25"},
               {"id": "c5", "src": "v1", "rng": "w0", "p": "8/25"}]],
    "X": {"x0": "v0", "x1": "v1", "x2": "v1", "x3": "v0"},
}


def test_expect_decides_faithfulness_exactly(tmp_path, capsys):
    g = write_json(tmp_path, "graph.json", SMALL_P)
    code, out, err = run_main(capsys, ["expect", "--graph", g])
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "faithful\tpass"
    code, out, _ = run_main(capsys, ["extractp", "--graph", g])
    assert code == 0
    assert "1\tc3\t1/1000000000000" in out.splitlines()


def _graph_file(vertices=(("v",), ("w",)), edges=(("a", "v", "w", "1/3"), ("b", "v", "w", "2/3")),
                X=None):
    return {
        "vertices": [list(level) for level in vertices],
        "edges": [[{"id": e, "src": s, "rng": r, "p": p} for e, s, r, p in edges]],
        "X": {"x0": "v", "x1": "v"} if X is None else X,
    }


TWO_LEVELS = {
    "vertices": [["v"], ["w"], ["u"]],
    "edges": [[{"id": "a", "src": "v", "rng": "w", "p": "1"}],
              [{"id": "b", "src": "w", "rng": "u", "p": "1"}]],
    "X": {"x0": "v"},
}

# (graph file, exit code, stderr line, whether it is a diagram fault that
# `validate` reports as its first violation)
GRAPH_FAULTS = {
    "vertex-emits-no-edge": (
        _graph_file(vertices=(("v", "v2"), ("w",)), edges=(("a", "v", "w", "1"),),
                    X={"x0": "v", "x1": "v2"}),
        1, "error: level 0: vertex 'v2': emits no edge", True),
    "unknown-edge-source": (
        _graph_file(edges=(("a", "zz", "w", "1"), ("b", "v", "w", "1"))),
        1, "error: level 1: edge 'a': source 'zz' not in V(0)", True),
    "duplicate-vertex-id": (
        _graph_file(vertices=(("v", "v"), ("w",))),
        1, "error: level 0: vertex 'v': duplicate identifier", True),
    "duplicate-edge-id-halves": (
        _graph_file(edges=(("a", "v", "w", "1/2"), ("a", "v", "w", "1/2"))),
        1, "error: level 1: edge 'a': duplicate identifier", True),
    "duplicate-edge-id-ones": (
        _graph_file(edges=(("a", "v", "w", "1"), ("a", "v", "w", "1"))),
        1, "error: level 1: edge 'a': duplicate identifier", True),
    "point-on-unknown-vertex": (
        _graph_file(X={"x0": "v", "x1": "nope"}),
        1, "error: relation: label 'nope' of 'x1' not in V", False),
    "point-on-level-1-vertex": (
        _graph_file(X={"x0": "w"}),
        1, "error: relation: label 'w' of 'x0' not in V", False),
    "empty-X": (
        _graph_file(X={}),
        1, "error: relation: label 'v' has an empty class", False),
    "p-sums-to-2/3": (
        _graph_file(edges=(("a", "v", "w", "1/3"), ("b", "v", "w", "1/3"))),
        1, "error: transition probability: out-edges of 'v' at level 0 sum to 2/3, not 1", False),
    "p-zero": (
        _graph_file(edges=(("a", "v", "w", "0"), ("b", "v", "w", "1"))),
        1, "error: transition probability: p(a) = 0 at level 1 is not positive", False),
    "two-edge-levels": (
        TWO_LEVELS,
        2, "parse error: inclusion graph file must have exactly one edge level, got 2", False),
    "X-as-list": (
        _graph_file(X=["x0", "x1"]),
        2, "parse error: inclusion graph file needs an 'X' object mapping points to vertices",
        False),
}


@pytest.mark.parametrize("command", ["expect", "extractp"])
@pytest.mark.parametrize("case", sorted(GRAPH_FAULTS))
def test_graph_faults(tmp_path, capsys, command, case):
    payload, expected_code, expected_err, diagram_fault = GRAPH_FAULTS[case]
    g = write_json(tmp_path, "graph.json", payload)
    code, out, err = run_main(capsys, [command, "--graph", g])
    assert (code, out, err) == (expected_code, "", expected_err + "\n")
    if diagram_fault:
        _, _, validate_err = run_main(capsys, ["validate", g])
        assert validate_err.replace("invalid diagram: ", "error: ", 1) == err


def test_pascal_closed_forms(capsys):
    code, out, err = run_main(capsys, ["pascal", "--depth", "2", "--t", "1/3"])
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        "level\tid\tvalue",
        "2\t00\t1/1",
        "2\t01\t1/2",
        "2\t10\t1/2",
        "2\t11\t1/1",
        "D == 1: OK",
    ]


def test_pascal_rejects_bad_t(capsys):
    with pytest.raises(SystemExit) as info:
        main(["pascal", "--depth", "2", "--t", "half"])
    assert info.value.code == 2
    assert "not a rational" in capsys.readouterr().err
    code, _, err = run_main(capsys, ["pascal", "--depth", "2", "--t", "3/2"])
    assert code == 1
    assert err.startswith("error:")


SKEW = {
    "vertices": [["a"], ["b"]],
    "edges": [[{"id": "e0", "src": "a", "rng": "b", "rho": 0},
               {"id": "e1", "src": "a", "rng": "b", "rho": 1}]],
}

SKEW_ROWS = [
    "level\tid\tvalue",
    "0\ta@0\t0",
    "1\tb@0\t0",
    "1\tb@1\t1",
    "1\te0@0\t0",
    "1\te1@0\t1",
]


def test_skew_window(tmp_path, capsys):
    f = write_json(tmp_path, "skew.json", SKEW)
    code, out, _ = run_main(capsys, ["skew", f, "--window", "0"])
    assert code == 0
    assert out.splitlines() == SKEW_ROWS
    code, out2, _ = run_main(capsys, ["skew", f, "--rho-window", "0"])
    assert code == 0
    assert out2.splitlines() == SKEW_ROWS


def test_skew_requires_rho(tmp_path, capsys):
    f = write_json(tmp_path, "vee.json", VEE)
    code, _, err = run_main(capsys, ["skew", f, "--window", "0"])
    assert code == 1
    assert "no 'rho' fields" in err


def test_parse_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    code, _, err = run_main(capsys, ["validate", missing])
    assert code == 2
    assert err.startswith("parse error:")

    code, _, err = run_main(capsys, ["validate", str(tmp_path)])  # a directory
    assert code == 2
    assert err.startswith("parse error:")

    mangled = tmp_path / "mangled.json"
    mangled.write_text("{not json")
    code, _, err = run_main(capsys, ["validate", str(mangled)])
    assert code == 2
    assert err.startswith("parse error:")

    floaty = json.loads(json.dumps(VEE))
    floaty["nu0"]["a"] = 0.5
    f = write_json(tmp_path, "floaty.json", floaty)
    code, _, err = run_main(capsys, ["measure", f])
    assert code == 2
    assert err.startswith("parse error:")


def _set_first_edge(key, value):
    return lambda payload: payload["edges"][0][0].update({key: value})


# argv with FILE for the file, the change to VEE's payload, the exit code
# and the stderr line
MALFORMED = {
    "p-not-a-rational": (
        ["measure", "FILE"], _set_first_edge("p", "abc"), 2,
        "parse error: edge 'ea' field 'p': not a rational: 'abc' "
        "(not an integer or 'num/den')"),
    "p-exponent-over-the-limit": (
        ["measure", "FILE"], _set_first_edge("p", "1e7777777"), 2,
        "parse error: edge 'ea' field 'p': not a rational: '1e7777777' "
        "(exponent over the digit limit, 4300)"),
    "p-zero-denominator": (
        ["measure", "FILE"], _set_first_edge("p", "1/0"), 2,
        "parse error: edge 'ea' field 'p': not a rational: '1/0' (zero denominator)"),
    "rho-on-some-edges": (
        ["skew", "FILE", "--window", "0"], _set_first_edge("rho", 1), 2,
        "parse error: some edges carry 'rho' and some do not; supply all or none"),
    "nu0-not-an-object": (
        ["measure", "FILE"], lambda payload: payload.update(nu0=["a", "b"]), 2,
        "parse error: 'nu0' must be an object mapping vertices to rationals"),
    "path-of-empty-ids": (
        ["rn", "FILE", "--a", ",", "--b", "ea"], lambda payload: None, 1,
        "error: cannot parse path ','"),
    "path-with-an-empty-inner-id": (
        ["rn", "FILE", "--a", "ea,,eb", "--b", "ea"], lambda payload: None, 1,
        "error: cannot parse path 'ea,,eb'"),
    "path-with-empty-end-ids": (
        ["rn", "FILE", "--a", ",ea,", "--b", "ea"], lambda payload: None, 1,
        "error: cannot parse path ',ea,'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exit_codes(tmp_path, capsys, case):
    argv, change, expected_code, expected_err = MALFORMED[case]
    payload = json.loads(json.dumps(VEE))
    change(payload)
    f = write_json(tmp_path, "file.json", payload)
    code, out, err = run_main(capsys, [f if x == "FILE" else x for x in argv])
    assert (code, out, err) == (expected_code, "", expected_err + "\n")


def repeated_key(payload, key):
    """JSON text of ``payload`` with its member ``key`` written twice."""
    return json.dumps(payload)[:-1] + f", {json.dumps(key)}: {json.dumps(payload[key])}}}"


# json_text writes this string as a 5,000-digit integer literal, longer than
# Python converts from a string by default
LONG = "<long integer>"


def json_text(payload):
    return json.dumps(payload).replace(json.dumps(LONG), "9" * 5000)


# argv with FILE for the file under test (the diagram is vee.json), that
# file's valid payload, and the key to repeat in it
FILE_ROLES = {
    "validate": (["validate", "FILE"], VEE, "nu0"),
    "qcheck": (["qcheck", "vee.json", "--measure", "FILE"],
               {"empty": {"a": "1/3", "b": "2/3"}, "paths": {"ea": "1/3", "eb": "2/3"}}, "empty"),
    "harmonic": (["harmonic", "vee.json", "--terminal", "FILE"], {"c": "1"}, "c"),
    "expect": (["expect", "--graph", "FILE"], GRAPH, "X"),
}
FILE_FAULTS = {
    "not-utf8": lambda payload, key: b'{"\xff": 1}',
    "deep-nesting": lambda payload, key: b"[" * 200_000,
    "repeated-key": lambda payload, key: repeated_key(payload, key).encode(),
    "long-integer": lambda payload, key: json_text({**payload, key: LONG}).encode(),
}


@pytest.mark.parametrize("fault", sorted(FILE_FAULTS))
@pytest.mark.parametrize("role", sorted(FILE_ROLES))
def test_file_faults_exit_2(tmp_path, capsys, monkeypatch, role, fault):
    argv, payload, key = FILE_ROLES[role]
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path, "vee.json", VEE)
    write_json(tmp_path, "good.json", payload)
    (tmp_path / "bad.json").write_bytes(FILE_FAULTS[fault](payload, key))
    good = [x.replace("FILE", "good.json") for x in argv]
    assert run_main(capsys, good)[0] == 0
    code, out, err = run_main(capsys, [x.replace("FILE", "bad.json") for x in argv])
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and err.count("\n") == 1


@pytest.mark.parametrize("role", sorted(FILE_ROLES))
def test_unreadable_files_are_parse_errors(tmp_path, capsys, monkeypatch, role):
    # the reader's OSError, in its own words: a missing file, then a directory
    argv, _, _ = FILE_ROLES[role]
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path, "vee.json", VEE)
    (tmp_path / "dir.json").mkdir()
    for name, number in (("none.json", errno.ENOENT), ("dir.json", errno.EISDIR)):
        code, out, err = run_main(capsys, [x.replace("FILE", name) for x in argv])
        assert (code, out, err) == (2, "", f"parse error: [Errno {number}] {os.strerror(number)}: {name!r}\n")


def test_a_read_fault_of_the_streamed_table_is_a_parse_error(tmp_path, capsys, monkeypatch):
    vee = write_json(tmp_path, "vee.json", VEE)
    table = write_json(tmp_path, "table.json", MEASURE)

    def failing_open(*args, **kwargs):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(fileio, "open", failing_open, raising=False)
    code, out, err = run_main(capsys, ["qcheck", vee, "--measure", table])
    assert (code, out, err) == (2, "", f"parse error: [Errno {errno.EIO}] {os.strerror(errno.EIO)}\n")


KEYS = ["vertices", "edges", "id", "src", "rng", "p", "rho", "nu0", "X", "empty", "paths",
        "a", "b", "c", "v", "w", "ea", "eb", "x0"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | st.text(max_size=4)
    | st.sampled_from(KEYS + ["1/2", "2/3", "1/0", "-1", "0", "ea,eb", LONG]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
MEASURE = {"empty": {"a": "1/3", "b": "2/3"}, "paths": {"ea": "1/3", "eb": "2/3"}}
TERMINAL = {"c": "1"}


@st.composite
def mutated(draw, value):
    """``value`` with one member or item, at any depth, replaced by a random
    JSON value or removed."""
    if not isinstance(value, (dict, list)) or not value:
        return draw(json_values)
    key = draw(st.sampled_from(list(value) if isinstance(value, dict) else range(len(value))))
    copy = dict(value) if isinstance(value, dict) else list(value)
    action = draw(st.sampled_from(["descend", "replace", "delete"]))
    if action == "delete":
        del copy[key]
    else:
        copy[key] = draw(mutated(value[key]) if action == "descend" else json_values)
    return copy


@settings(max_examples=40, deadline=None)
@given(json_values | st.sampled_from([VEE, SKEW, GRAPH, MEASURE, TERMINAL]).flatmap(mutated))
@example({**VEE, "nu0": {"a": LONG, "b": "2/3"}})
def test_any_json_document_exits_0_1_or_2(tmp_path_factory, document):
    tmp = tmp_path_factory.getbasetemp()
    files = {"vee.json": VEE, "measure.json": MEASURE, "terminal.json": TERMINAL}
    for name, payload in files.items():
        (tmp / name).write_text(json.dumps(payload))
    doc = tmp / "doc.json"
    doc.write_text(json_text(document))
    vee, doc = str(tmp / "vee.json"), str(doc)
    for argv in (
        *([cmd, doc] for cmd in ("validate", "measure", "distributions", "cotransition", "decompose")),
        ["rn", doc, "--a", "ea", "--b", "eb"],
        ["skew", doc, "--window", "0"],
        ["harmonic", doc, "--terminal", str(tmp / "terminal.json")],
        ["harmonic", vee, "--terminal", doc],
        ["qcheck", doc, "--measure", str(tmp / "measure.json")],
        ["qcheck", vee, "--measure", doc],
        ["expect", "--graph", doc],
        ["extractp", "--graph", doc],
    ):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv


def test_output_is_deterministic(tmp_path, capsys):
    f = pascal_file(tmp_path, depth=3)
    first = run_main(capsys, ["measure", f, "--format", "json"])
    second = run_main(capsys, ["measure", f, "--format", "json"])
    assert first == second


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "bratteli", "pascal", "--depth", "3", "--t", "1/2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("D == 1: OK")


ONE_EDGE = {"vertices": [["a"], ["b"]], "edges": [[{"id": "e", "src": "a", "rng": "b", "p": "1"}]],
            "nu0": {"a": "1"}}


def test_closed_output_pipe_exits_as_sigpipe_would():
    # about 100 KB, more than a pipe holds: the reader closes it after one line
    # and the writer meets the closed pipe mid-table
    proc = subprocess.Popen(
        [sys.executable, "-m", "bratteli", "pascal", "--depth", "12", "--t", "1/3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"level\tid\tvalue\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_pipe_closed_before_the_first_write_exits_141(tmp_path):
    # buffered, the whole table waits for the flush at the end of the command
    f = write_json(tmp_path, "one.json", ONE_EDGE)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "bratteli", "distributions", f],
                              stdout=write, stderr=subprocess.PIPE, env=buffered_env(), timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def buffered_env():
    """This process's environment with stdout left buffered in the child."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@pytest.mark.parametrize("argv", [["--help"], ["skew", "--help"]])
def test_usage_to_a_closed_pipe_exits_141(argv):
    # argparse writes the help into the buffer and exits before any command:
    # run flushes it under the same guard as a command's output
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "bratteli", *argv],
                              stdout=write, stderr=subprocess.PIPE, env=buffered_env(), timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("depth", ["3", "12"])
def test_full_disk_is_one_output_error(depth, buffered):
    # an output fault, not a parse error, and reported once: what is left in
    # the buffer goes to the null device at exit
    env = buffered_env() if buffered else dict(os.environ, PYTHONUNBUFFERED="1")
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "bratteli", "pascal", "--depth", depth, "--t", "1/3"],
                              stdout=full, stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    line = f"error: cannot write output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert (proc.returncode, proc.stderr) == (1, line)


def test_run_freezes_the_heap_before_the_command(tmp_path, capsys, monkeypatch):
    f = write_json(tmp_path, "one.json", ONE_EDGE)
    monkeypatch.setattr(sys, "argv", ["bratteli", "validate", f])
    before = gc.get_freeze_count()
    try:
        with pytest.raises(SystemExit) as exit_:
            cli.run()
        assert exit_.value.code == 0
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()
    assert capsys.readouterr() == ("level\tsubject\trule\n", "")


def test_main_leaves_the_collector_as_it_was(tmp_path, capsys):
    f = write_json(tmp_path, "one.json", ONE_EDGE)
    before = gc.get_freeze_count(), gc.isenabled()
    assert run_main(capsys, ["distributions", f]) == (0, "level\tid\tvalue\n0\ta\t1/1\n1\tb\t1/1\n", "")
    assert (gc.get_freeze_count(), gc.isenabled()) == before


# the bratteli modules each command imports, beyond bratteli, states and errors
BASE_MODULES = {"cli", "diagram", "fileio", "rational"}
COMMAND_MODULES = {
    "validate": BASE_MODULES,
    **dict.fromkeys(("distributions", "cotransition", "measure", "qcheck", "rn"), BASE_MODULES | {"walk"}),
    **dict.fromkeys(("harmonic", "decompose"), BASE_MODULES | {"walk", "harmonic"}),
    **dict.fromkeys(("skew", "pascal"), BASE_MODULES | {"walk", "skew"}),
    **dict.fromkeys(("expect", "extractp"), BASE_MODULES | {"fdalg", "walk"}),
}
LIST_MODULES = (
    "import sys\n"
    "from bratteli.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(code, *sorted(m for m in sys.modules if m.startswith('bratteli.')))\n"
)


def test_each_command_imports_only_the_modules_it_runs(tmp_path):
    vee, skew = write_json(tmp_path, "vee.json", VEE), write_json(tmp_path, "skew.json", SKEW)
    table, term = write_json(tmp_path, "table.json", MEASURE), write_json(tmp_path, "term.json", TERMINAL)
    graph = write_json(tmp_path, "graph.json", GRAPH)
    argvs = {
        "validate": [vee], "distributions": [vee], "cotransition": [vee], "measure": [vee],
        "qcheck": [vee, "--measure", table], "rn": [vee, "--a", "ea", "--b", "eb"],
        "harmonic": [vee, "--terminal", term], "decompose": [vee], "skew": [skew, "--window", "0"],
        "pascal": ["--depth", "3", "--t", "1/2"], "expect": ["--graph", graph], "extractp": ["--graph", graph],
    }
    assert argvs.keys() == COMMAND_MODULES.keys()
    for command, argv in argvs.items():
        proc = subprocess.run([sys.executable, "-c", LIST_MODULES, command, *argv], capture_output=True, text=True)
        code, *modules = proc.stdout.splitlines()[-1].split()
        assert code == "0", (command, proc.stderr)
        assert set(modules) == {f"bratteli.{m}" for m in COMMAND_MODULES[command] | {"states", "errors"}}, command


def test_import_loads_numpy_and_no_module_but_states():
    script = (
        "import sys, bratteli\n"
        "print('numpy' in sys.modules, *sorted(m for m in sys.modules if m.startswith('bratteli.')))\n"
        "print(set(bratteli.__all__) <= set(dir(bratteli)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.stdout.splitlines() == ["True bratteli.errors bratteli.states", "True"], proc.stderr


def lattice_cube(depth):
    """One vertex per level and two edges per floor: rho is 0 or e_n in rank ``depth``."""
    zero = [0] * depth
    return {
        "vertices": [[f"c{n}"] for n in range(depth + 1)],
        "edges": [[{"id": f"z{n}", "src": f"c{n}", "rng": f"c{n + 1}", "rho": zero},
                   {"id": f"e{n}", "src": f"c{n}", "rng": f"c{n + 1}", "rho": zero[:n] + [1] + zero[n + 1:]}]
                  for n in range(depth)],
    }


def test_skew_refuses_a_product_over_the_edge_limit(tmp_path, capsys):
    # the cube doubles at every level: floors 1..m hold 2^(m+1) - 2 edges
    f = write_json(tmp_path, "cube.json", lattice_cube(30))
    window = "--window=" + "_".join(["0"] * 30)
    assert run_main(capsys, ["skew", f, window, "--max-edges", "1000"]) == (
        1, "", "error: skew product to level 9 lists 1022 edges, over the limit of 1000\n"
    )
    f = write_json(tmp_path, "cube.json", lattice_cube(8))
    window = "--window=" + "_".join(["0"] * 8)
    code, out, _ = run_main(capsys, ["skew", f, window, "--max-edges", "510"])
    assert code == 0
    assert sum(line.split("\t")[1][0] in "ze" for line in out.splitlines()[1:]) == 510
    assert run_main(capsys, ["skew", f, window, "--max-edges", "509"])[:2] == (1, "")
