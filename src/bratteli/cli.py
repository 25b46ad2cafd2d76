"""Command-line front end.

Every subcommand reads JSON input files, computes with exact rationals, and
emits a deterministic table: TSV with a header row by default, or JSON with
rationals rendered as {"num": ..., "den": ...}.  Exit codes: 0 on success,
1 on a domain error or an output fault (a one-line diagnostic on stderr),
2 on a parse error, 141 (128 + SIGPIPE) when stdout's reader has left.

Each command imports the modules it runs at its head, before it reads a
file, and no other: ``validate`` compiles no walk, ``skew`` no algebra.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import sys
from fractions import Fraction

from .diagram import _label_levels, _level_counts, _require_labels
from .errors import BratteliError, FileFormatError, InvalidDiagram, PathError
from .fileio import (
    load_diagram,
    load_inclusion_graph,
    load_measure_table,
    load_terminal,
    potential_from_file,
    walk_from_file,
)
from .rational import as_fraction, format_fraction, long_ints


def _tsv_line(row) -> str:
    cells = [
        cell if type(cell) is str
        else str(cell) if type(cell) is int
        else f"{cell.numerator}/{cell.denominator}" if isinstance(cell, Fraction)
        else str(cell)
        for cell in row
    ]
    return "\t".join(cells) + "\n"


def _json_row(row) -> list:
    return [{"num": c.numerator, "den": c.denominator} if isinstance(c, Fraction) else c for c in row]


ROW_BLOCK = 64  # rows per write: few writes, and small even where labels run long


def emit(args, columns, rows):
    """Write the table; ``rows`` is any iterable of tuples, read once.  JSON
    is byte for byte ``json.dumps({"columns": columns, "rows": rows})`` and a
    newline."""
    _write(args, columns, map(_json_row if args.format == "json" else _tsv_line, rows))


def _write(args, columns, rows):
    """Write ``rows``, TSV lines or JSON arrays as ``args.format`` asks, ROW_BLOCK at a
    time.  Ints of any length render (see ``rational.long_ints``, whose lock this holds)."""
    out, rows = sys.stdout, iter(rows)
    with long_ints():
        if args.format == "json":
            out.write(f'{{"columns": {json.dumps(list(columns))}, "rows": [')
            sep = ""
            while block := list(itertools.islice(rows, ROW_BLOCK)):
                # a block's rows without the brackets of their list
                out.write(sep + json.dumps(block)[1:-1])
                sep = ", "
            out.write("]}\n")
        else:
            out.write("\t".join(columns) + "\n")
            while block := list(itertools.islice(rows, ROW_BLOCK)):
                out.write("".join(block))


def _emit_ratios(args, first, levels):
    """Write the (level, id, value) table of ``levels``, (ids, nums, dens) per level from
    ``first`` on: ids[i] has nums[i] / dens[i], dens[i] > 0, in lowest terms by one gcd."""
    gcd = math.gcd
    cells = ((n, v, x, y, gcd(x, y)) for n, (ids, nums, dens) in enumerate(levels, first)
             for v, x, y in zip(ids, nums, dens))
    if args.format == "json":
        rows = ([n, v, {"num": x // g, "den": y // g}] for n, v, x, y, g in cells)
    else:
        rows = (f"{n}\t{v}\t{x // g}/{y // g}\n" for n, v, x, y, g in cells)
    _write(args, ("level", "id", "value"), rows)


def _parse_path(d, text: str):
    """Comma-separated edge ids; '@vertex' names an empty level-0 path."""
    if text.startswith("@"):
        return d.empty_path(text[1:])
    ids = text.split(",")
    if not all(ids):  # an empty part is refused, not dropped: the path read is the one given
        raise PathError(f"cannot parse path {text!r}")
    return d.path(ids)


def cmd_validate(args) -> int:
    try:
        load_diagram(args.file)
    except InvalidDiagram as exc:  # a file that forms no diagram is a parse error, raised as one
        emit(args, ("level", "subject", "rule"), [(v.level, v.subject, v.rule) for v in exc.violations])
        print(f"invalid diagram: {exc}", file=sys.stderr)
        return 1
    emit(args, ("level", "subject", "rule"), [])
    return 0


def _walk(args):
    from . import walk  # noqa: F401  (compiled before the file is read: a lower peak RSS)

    return walk_from_file(load_diagram(args.file))


MAX_PATHS = 1_000_000  # default of --max-paths


def _refuse(what: str, count, limit: int):
    with long_ints():
        raise PathError(f"{what} lists {count} paths, over the limit of {limit} (--max-paths)")


def cmd_measure(args) -> int:
    from .walk import _cylinder_levels

    w = _walk(args)
    _require_labels(w.diagram)  # qcheck could not read its labels back
    depth = args.depth if args.depth is not None else w.depth
    if not 0 <= depth <= w.depth:
        raise PathError(f"depth {depth} out of range 0..{w.depth}")
    count = sum(map(sum, _level_counts(w.diagram, 0, depth)))
    if count > args.max_paths:
        _refuse(f"measure to depth {depth}", count, args.max_paths)
    levels = _cylinder_levels(w, _label_levels(w.diagram, 0, depth))
    rows = ((n, a, m) for n, (labels, masses) in enumerate(levels) for a, m in zip(labels, masses))
    emit(args, ("level", "id", "value"), rows)
    return 0


def cmd_cotransition(args) -> int:
    _emit_ratios(args, 1, _walk(args)._q_ratios())  # no q is built
    return 0


def cmd_distributions(args) -> int:
    _emit_ratios(args, 0, _walk(args)._nu_ratios())
    return 0


def cmd_rn(args) -> int:
    from .walk import radon_nikodym

    w = _walk(args)
    a = _parse_path(w.diagram, args.a)
    b = _parse_path(w.diagram, args.b)
    value = radon_nikodym(w, a, b)
    emit(args, ("level", "id", "value"), [(len(a), f"{a.label()}|{b.label()}", value)])
    return 0


def cmd_harmonic(args) -> int:
    from .harmonic import _backward_sweep

    w = _walk(args)
    nums, dens = _backward_sweep(w, load_terminal(args.terminal))
    _emit_ratios(args, 0, zip(map(w.diagram.vertices, range(w.depth + 1)), nums, map(itertools.repeat, dens)))
    return 0


def cmd_decompose(args) -> int:
    from .harmonic import ergodic_components

    w = _walk(args)
    rows = [
        (i, comp.weight, comp.terminal)
        for i, comp in enumerate(ergodic_components(w))
    ]
    emit(args, ("component", "weight", "terminal"), rows)
    return 0


def cmd_qcheck(args) -> int:
    from .walk import q_measure_witness

    w = _walk(args)
    table, depth = load_measure_table(w.diagram, args.measure)
    witness = q_measure_witness(w.diagram, w.cotransition, table, depth)
    if witness is None:
        print("q-measure: OK")
        return 0
    path, expected, actual = witness
    with long_ints():
        print(
            f"q-measure: FAIL at {path.label()}: expected {format_fraction(expected)}, "
            f"got {format_fraction(actual)}"
        )
    return 1


def _model_expectation(args):
    from .fdalg import ModelExpectation

    graph, p = load_inclusion_graph(args.graph)
    if p is None:
        raise BratteliError("graph file carries no 'p' fields; cannot build the expectation")
    return graph, ModelExpectation(graph, p)


def cmd_expect(args) -> int:
    from .fdalg import verify_expectation

    graph, me = _model_expectation(args)
    report = verify_expectation(
        me.as_endomorphism(), graph.big_relation(), me.subalgebra_basis()
    )
    rows = [(check, "pass" if getattr(report, check) else "fail") for check in report.CHECKS]
    emit(args, ("check", "result"), rows)
    if not report.all_pass:
        print(f"expectation axioms violated: {report.failures[0]}", file=sys.stderr)
        return 1
    return 0


def cmd_extractp(args) -> int:
    from .fdalg import extract_transition

    graph, me = _model_expectation(args)
    extracted = extract_transition(me, graph)
    emit(args, ("level", "id", "value"), [(1, e, extracted[e]) for e in graph.E])
    return 0


def cmd_pascal(args) -> int:
    from .skew import pascal_diagram
    from .walk import central_cotransition

    depth = args.depth
    if depth >= max(args.max_paths, 0).bit_length():  # exactly when 2^depth > max_paths
        _refuse(f"pascal --depth {depth}", f"2^{depth}", args.max_paths)
    d, w = pascal_diagram(depth, args.t)
    for n, (ids, row, want) in enumerate(zip(d._ids, w.cotransition._rho, central_cotransition(d)._rho), 1):
        for e, q, expected in zip(ids, row, want):
            if q != expected:
                with long_ints():
                    print(f"cotransition of edge {e} at level {n} is {format_fraction(q)}, "
                          f"not {format_fraction(expected)}", file=sys.stderr)
                return 1
    # q is central, so q(a) = 1/dim(r(a)) and D(a, b) = q(a)/q(b) = 1; edge order is bit
    # order, so path j's word is j in binary, and it ends at (depth, k), k its 1 bits
    inverse = [Fraction(1, math.comb(depth, k)) for k in range(depth + 1)]
    rows = ((depth, format(j, f"0{depth}b"), inverse[j.bit_count()]) for j in range(1 << depth))
    emit(args, ("level", "id", "value"), rows)
    print("D == 1: OK")
    return 0


def cmd_skew(args) -> int:
    from .skew import skew_product

    df = load_diagram(args.file)
    rho = potential_from_file(df)
    window = [rho.group.parse(part) for part in args.window.split(",") if part]
    rows = skew_product(df.diagram, rho, window, max_edges=args.max_edges).rows()
    if args.format == "tsv":  # every cell is a str but the level
        rows = (f"{n}\t{v}\t{x}\n" for n, v, x in rows)
    _write(args, ("level", "id", "value"), rows)
    return 0


def _rational_arg(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except BratteliError:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


MAX_PATHS_HELP = f"refuse to list more paths than this, counted up front (default {MAX_PATHS:,})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bratteli",
        description="Exact random walks on graded diagrams: measures, cocycles, "
        "harmonic sequences, and conditional expectations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, with_file=True):
        p = sub.add_parser(name, help=help_text)
        if with_file:
            p.add_argument("file", help="diagram file (JSON)")
        p.add_argument("--format", choices=("tsv", "json"), default="tsv")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "check the diagram invariants")
    p = add("measure", cmd_measure, "cylinder masses of the walk")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--max-paths", type=int, default=MAX_PATHS, help=MAX_PATHS_HELP)
    add("cotransition", cmd_cotransition, "per-edge cotransition probabilities")
    add("distributions", cmd_distributions, "per-level vertex distributions")
    p = add("rn", cmd_rn, "density cocycle of a tail-related path pair")
    p.add_argument("--a", required=True, help="comma-separated edge ids")
    p.add_argument("--b", required=True, help="comma-separated edge ids")
    p = add("harmonic", cmd_harmonic, "harmonic sequence from terminal data")
    p.add_argument("--terminal", required=True, help="JSON file {vertex: rational}")
    add("decompose", cmd_decompose, "ergodic components by terminal vertex")
    p = add("qcheck", cmd_qcheck, "test a cylinder table against the walk's cotransition")
    p.add_argument("--measure", required=True, help="JSON file {empty: {...}, paths: {...}}")
    p = add("expect", cmd_expect, "conditional-expectation axiom report", with_file=False)
    p.add_argument("--graph", required=True, help="inclusion graph file (JSON)")
    p = add("extractp", cmd_extractp, "recover the transition from the expectation", with_file=False)
    p.add_argument("--graph", required=True, help="inclusion graph file (JSON)")
    p = add("pascal", cmd_pascal, "verify the triangle walk's closed forms", with_file=False)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--t", type=_rational_arg, required=True, help="rational in (0,1), as 'num/den'")
    p.add_argument("--max-paths", type=int, default=MAX_PATHS, help=MAX_PATHS_HELP)
    p = add("skew", cmd_skew, "windowed skew product from the 'rho' fields")
    p.add_argument("--window", "--rho-window", required=True, dest="window",
                   help="comma-separated group elements for level 0")
    p.add_argument("--max-edges", type=int, default=MAX_PATHS,
                   help=f"refuse to build more skew edges than this, counted a level ahead (default {MAX_PATHS:,})")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, json.JSONDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except BratteliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    """The process entry.  The objects the imports made are frozen first, so no full
    collection traces them again, during the command or at exit, where finalization
    collects whether or not the collector is enabled.  ``main`` freezes nothing.
    The readers raise input faults as FileFormatError, so an OSError here, of the
    command's output or of argparse's usage and help, is an output fault."""
    gc.freeze()
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse's usage, help and errors
            code = exc.code
        sys.stdout.flush()  # a write error shows here, not in the flush at exit
    except OSError as exc:  # what is left of the output goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # the reader left: exit as SIGPIPE would, silently
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            code = 1
    sys.exit(code)


if __name__ == "__main__":
    run()
