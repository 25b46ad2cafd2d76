"""Command scripts of the workloads and the exact checks of their outputs.

A workload's script is the list of ``bratteli`` invocations one session runs,
in order.  Each invocation names the per-command metric it counts towards and
a check that reads its stdout and exit code and returns None when the output
is right, else a one-line reason.  Checks compare with ``Fraction`` against the
facts the generator computed independently of the library.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

TSV_HEADER = "level\tid\tvalue"


@dataclass(frozen=True)
class Invocation:
    key: str  # unique within the script; samples are grouped by it
    metric: str  # per-command metric, e.g. "qcheck_s"
    argv: tuple  # arguments after ``bratteli``; file names are relative to the input dir
    check: Callable  # (stdout, exit code, facts, ctx) -> None | reason


def _rows(out, header=TSV_HEADER):
    lines = out.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header is {lines[:1]!r}, not {header!r}")
    return [line.split("\t") for line in lines[1:]]


def _checked(fn):
    """Turn parse errors and failed expectations into a reason string."""

    def check(out, code, facts, ctx):
        if code != 0:
            return f"exit code {code}"
        try:
            return fn(out, facts, ctx)
        except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            return f"{type(exc).__name__}: {exc}"

    return check


def _level_sums(rows):
    sums = {}
    for level, _, value in rows:
        sums[level] = sums.get(level, 0) + Fraction(value)
    return sums


# -- startup -------------------------------------------------------------------


@_checked
def check_validate(out, facts, ctx):
    rows = _rows(out, "level\tsubject\trule")
    return f"{len(rows)} violations on a valid file" if rows else None


STARTUP = Invocation("validate", "startup_s", ("validate", "tiny.json"), check_validate)


# -- deep-triangle -------------------------------------------------------------


@_checked
def check_distributions(out, facts, ctx):
    rows = _rows(out)
    if len(rows) != sum(map(len, facts["vertices"])):
        return f"{len(rows)} rows for {sum(map(len, facts['vertices']))} vertices"
    bad = [n for n, s in _level_sums(rows).items() if s != 1]
    if bad:
        return f"nu level {bad[0]} does not sum to 1"
    small = str(facts["decompose_depth"])
    ctx["nu_small"] = {v: Fraction(x) for n, v, x in rows if n == small}
    return None


@_checked
def check_cotransition(out, facts, ctx):
    rows = _rows(out)
    range_of = [{eid: r for eid, _, r in floor} for floor in facts["edges"]]
    sums = {}
    for level, eid, value in rows:
        key = (level, range_of[int(level) - 1][eid])
        sums[key] = sums.get(key, 0) + Fraction(value)
    expected = sum(map(len, facts["vertices"][1:]))
    if len(sums) != expected:
        return f"q rows reach {len(sums)} vertices, not {expected}"
    bad = [key for key, s in sums.items() if s != 1]
    return f"q in-edges of {bad[0]} do not sum to 1" if bad else None


@_checked
def check_harmonic(out, facts, ctx):
    rows = _rows(out)
    if len(rows) != sum(map(len, facts["vertices"])):
        return f"{len(rows)} rows for {sum(map(len, facts['vertices']))} vertices"
    depth = str(len(facts["vertices"]) - 1)
    terminal = {v: Fraction(x) for n, v, x in rows if n == depth}
    return None if terminal == facts["terminal"] else "terminal row differs from the terminal file"


@_checked
def check_skew(out, facts, ctx):
    rows = _rows(out)
    return None if len(rows) == facts["skew_rows"] else (
        f"{len(rows)} skew rows, generator reaches {facts['skew_rows']}"
    )


@_checked
def check_decompose(out, facts, ctx):
    weights = {t: Fraction(w) for _, w, t in _rows(out, "component\tweight\tterminal")}
    if "nu_small" not in ctx:
        return "no verified distributions row to compare with"
    return None if weights == ctx["nu_small"] else "weights differ from nu at the same depth"


def deep_triangle(facts):
    big, small = "triangle.json", "triangle-small.json"
    return [
        Invocation("distributions", "distributions_s", ("distributions", big), check_distributions),
        Invocation("cotransition", "cotransition_s", ("cotransition", big), check_cotransition),
        Invocation(
            "harmonic", "harmonic_s", ("harmonic", big, "--terminal", "terminal.json"), check_harmonic
        ),
        Invocation("skew", "skew_s", ("skew", big, f"--window={facts['window']}"), check_skew),
        Invocation("decompose", "decompose_s", ("decompose", small), check_decompose),
    ]


# -- wide-paths ----------------------------------------------------------------


@_checked
def check_measure(out, facts, ctx):
    rows = _rows(out)
    table = facts["table"]
    if len(rows) != len(table):
        return f"{len(rows)} rows for {len(table)} paths"
    for level, label, value in rows:
        if table[label] != Fraction(value):
            return f"mass of {label} is {value}, generator has {table[label]}"
        if int(level) != (0 if label.startswith("@") else label.count(",") + 1):
            return f"path {label} listed at level {level}"
    bad = [n for n, s in _level_sums(rows).items() if s != 1]
    return f"measure level {bad[0]} does not sum to 1" if bad else None


def check_qcheck_ok(out, code, facts, ctx):
    return None if (code, out) == (0, "q-measure: OK\n") else f"exit {code}: {out[:80]!r}"


def check_qcheck_fail(out, code, facts, ctx):
    if code == 1 and out.startswith("q-measure: FAIL at "):
        return None
    return f"perturbed table: exit {code}: {out[:80]!r}"


def _check_rn(a, b, expected):
    @_checked
    def check(out, facts, ctx):
        rows = _rows(out)
        if len(rows) != 1 or rows[0][1] != f"{a}|{b}":
            return f"unexpected rows {rows[:2]!r}"
        value = Fraction(rows[0][2])
        return None if value == expected else f"rn is {value}, generator has {expected}"

    return check


@_checked
def check_pascal(out, facts, ctx):
    lines = out.splitlines()
    if not lines or lines[-1] != "D == 1: OK":
        return f"last line is {lines[-1:]!r}"
    depth = facts["pascal_depth"]
    rows = _rows("\n".join(lines[:-1]))
    if len(rows) != 2**depth:
        return f"{len(rows)} rows, not {2 ** depth}"
    for _, bits, value in rows:
        if Fraction(value) != Fraction(1, math.comb(depth, bits.count("1"))):
            return f"q({bits}) is {value}"
    return None


def wide_paths(facts):
    script = [
        Invocation("measure", "measure_s", ("measure", "wide.json"), check_measure),
        Invocation(
            "qcheck", "qcheck_s", ("qcheck", "wide.json", "--measure", "table.json"), check_qcheck_ok
        ),
        Invocation(
            "qcheck-perturbed",
            "qcheck_s",
            ("qcheck", "wide.json", "--measure", "table-perturbed.json"),
            check_qcheck_fail,
        ),
    ]
    for i, (a, b, value) in enumerate(facts["pairs"]):
        script.append(
            Invocation(f"rn{i}", "rn_s", ("rn", "wide.json", "--a", a, "--b", b), _check_rn(a, b, value))
        )
    pascal = ("pascal", "--depth", str(facts["pascal_depth"]), "--t", facts["pascal_t"])
    script.append(Invocation("pascal", "pascal_s", pascal, check_pascal))
    return script


# -- algebra-graphs ------------------------------------------------------------

AXIOMS = ("unital", "idempotent", "range_in_subalgebra", "bimodular", "positive", "faithful")


@_checked
def check_expect(out, facts, ctx):
    rows = _rows(out, "check\tresult")
    if sorted(rows) != sorted([name, "pass"] for name in AXIOMS):
        return f"report is {rows!r}"
    return None


def _check_extractp(p):
    @_checked
    def check(out, facts, ctx):
        got = {eid: Fraction(value) for _, eid, value in _rows(out)}
        return None if got == p else "extracted p differs from the file's p"

    return check


def algebra_graphs(facts):
    script = []
    for g in facts["graphs"]:
        name = g["file"]
        script.append(Invocation(f"expect:{name}", "expect_s", ("expect", "--graph", name), check_expect))
    for g in facts["graphs"]:
        name = g["file"]
        script.append(
            Invocation(
                f"extractp:{name}", "extractp_s", ("extractp", "--graph", name), _check_extractp(g["p"])
            )
        )
    return script


SCRIPTS = {
    "deep-triangle": deep_triangle,
    "wide-paths": wide_paths,
    "algebra-graphs": algebra_graphs,
}
