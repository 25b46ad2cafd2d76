"""The traced run: per-layer times and counts from an in-process replay.

For every invocation of the workload's script, the replay makes the same
sequence of public library calls the CLI command makes (see ``cli.py``), with
one span around each call, and then runs ``cli.main(argv)`` in process with
stdout captured.  A span is named after the layer and function it times, e.g.
``walk.cylinder_measure``; its metric is the span name plus ``_s``, summed
over one pass of the script.  ``cli.self_s`` is ``cli.main`` minus the
command's call spans: the dispatch and rendering the replay does not make.

Spans stay in memory and are written to ``traces/<workload>.jsonl`` when the
run ends: a header line, then one ``[id, parent, name, command, start_ns,
end_ns]`` array per span.  Calls a library function makes internally are not
split out; they count towards the outer span.
"""

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy
from bratteli import cli
from bratteli.diagram import BratteliDiagram, enumerate_paths
from bratteli.fdalg import ModelExpectation, extract_transition, verify_expectation
from bratteli.fileio import (
    load_diagram,
    load_inclusion_graph,
    load_measure_table,
    load_terminal,
    potential_from_file,
    walk_from_file,
)
from bratteli.harmonic import ergodic_components, harmonic_from_terminal
from bratteli.skew import pascal_diagram, pascal_path, skew_product
from bratteli.walk import cylinder_measure, q_measure_witness, radon_nikodym

import workloads

# per_layer metrics, in BENCHMARK.json order; a time metric is a span name + "_s"
TIMES = (
    "fileio.load_diagram", "fileio.load_measure_table", "fileio.load_inclusion_graph",
    "diagram.build", "diagram.enumerate_paths",
    "walk.build", "walk.cylinder_measure", "walk.q_measure_witness", "walk.radon_nikodym",
    "walk.of_path",
    "harmonic.from_terminal", "harmonic.ergodic_components",
    "skew.potential", "skew.skew_product", "skew.pascal_diagram", "skew.pascal_path",
    "fdalg.model_expectation", "fdalg.verify_expectation", "fdalg.extract_transition",
    "cli.main",
)
COUNTS = (
    "fileio.input_bytes", "fileio.table_paths",
    "diagram.vertices", "diagram.edges", "diagram.paths",
    "walk.cylinder_calls", "walk.nu_den_bits_max", "walk.q_den_bits_max",
    "harmonic.components", "harmonic.h_den_bits_max",
    "skew.vertices", "skew.edges",
    "fdalg.q_calls", "fdalg.big_pairs",
    "cli.stdout_bytes",
)
# spans that are not part of the command's own call sequence
NOT_CALLS = {"command", "cli.main", "diagram.build"}
IMPORT_PROBES = 3


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, command, start_ns, end_ns)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.command = None
        self.parent = None

    def call(self, name, fn, *args):
        start = time.perf_counter_ns()
        result = fn(*args)
        end = time.perf_counter_ns()
        self.spans.append((len(self.spans), self.parent, name, self.command, start, end))
        return result

    @contextlib.contextmanager
    def command_span(self, command):
        self.command = command
        start = time.perf_counter_ns()
        self.spans.append(None)  # reserve the id, so children can name it
        span_id = self.parent = len(self.spans) - 1
        try:
            yield
        finally:
            self.spans[span_id] = (span_id, None, "command", command, start, time.perf_counter_ns())
            self.parent = None

    def add(self, name, value):
        self.counts[name] += value

    def top(self, name, value):
        self.counts[name] = max(self.counts[name], value)


def _den_bits(values):
    return max((Fraction(x).denominator.bit_length() for x in values), default=0)


# -- replays: the calls each cmd_* function in cli.py makes, in order -----------


def _load(tr, path):
    tr.add("fileio.input_bytes", os.path.getsize(path))
    df = tr.call("fileio.load_diagram", load_diagram, path)
    d = df.diagram
    tr.add("diagram.vertices", sum(len(d.vertices(n)) for n in range(d.depth + 1)))
    tr.add("diagram.edges", sum(len(d.edges(n)) for n in range(1, d.depth + 1)))
    # the same construction on the already-parsed lists, timed on its own
    vertices = [list(d.vertices(n)) for n in range(d.depth + 1)]
    edges = [[(e.id, e.src, e.rng) for e in d.edges(n)] for n in range(1, d.depth + 1)]
    tr.call("diagram.build", BratteliDiagram, vertices, edges)
    return df


def _walk(tr, df):
    w = tr.call("walk.build", walk_from_file, df)
    tr.top("walk.nu_den_bits_max", max(_den_bits(w.nu(n).values()) for n in range(w.depth + 1)))
    tr.top(
        "walk.q_den_bits_max",
        max(_den_bits(w.cotransition.level(n).values()) for n in range(1, w.depth + 1)),
    )
    return w


def replay_walk(tr, args):  # distributions, cotransition
    _walk(tr, _load(tr, args.file))


def replay_harmonic(tr, args):
    w = _walk(tr, _load(tr, args.file))
    tr.add("fileio.input_bytes", os.path.getsize(args.terminal))
    terminal = tr.call("fileio.load_terminal", load_terminal, args.terminal)
    h = tr.call("harmonic.from_terminal", harmonic_from_terminal, w, terminal)
    tr.top("harmonic.h_den_bits_max", max(_den_bits(h.level(n).values()) for n in range(w.depth + 1)))


def replay_decompose(tr, args):
    w = _walk(tr, _load(tr, args.file))
    tr.add("harmonic.components", len(tr.call("harmonic.ergodic_components", ergodic_components, w)))


def replay_skew(tr, args):
    df = _load(tr, args.file)
    rho = tr.call("skew.potential", potential_from_file, df)
    window = [rho.group.parse(part) for part in args.window.split(",") if part]
    sd = tr.call("skew.skew_product", skew_product, df.diagram, rho, window)
    d = sd.diagram
    tr.add("skew.vertices", sum(len(d.vertices(n)) for n in range(d.depth + 1)))
    tr.add("skew.edges", sum(len(d.edges(n)) for n in range(1, d.depth + 1)))


def replay_measure(tr, args):
    w = _walk(tr, _load(tr, args.file))
    depth = args.depth if args.depth is not None else w.depth
    for n in range(depth + 1):
        paths = tr.call("diagram.enumerate_paths", enumerate_paths, w.diagram, 0, n)
        tr.add("diagram.paths", len(paths))
        tr.add("walk.cylinder_calls", len(paths))
        for a in paths:
            tr.call("walk.cylinder_measure", cylinder_measure, w, a)


def replay_qcheck(tr, args):
    w = _walk(tr, _load(tr, args.file))
    tr.add("fileio.input_bytes", os.path.getsize(args.measure))
    table, depth = tr.call("fileio.load_measure_table", load_measure_table, w.diagram, args.measure)
    tr.add("fileio.table_paths", len(table))
    tr.call("walk.q_measure_witness", q_measure_witness, w.diagram, w.cotransition, table, depth)


def replay_rn(tr, args):
    w = _walk(tr, _load(tr, args.file))
    a = tr.call("diagram.path", w.diagram.path, args.a.split(","))
    b = tr.call("diagram.path", w.diagram.path, args.b.split(","))
    tr.call("walk.radon_nikodym", radon_nikodym, w, a, b)


def replay_pascal(tr, args):
    d, w = tr.call("skew.pascal_diagram", pascal_diagram, args.depth, args.t)
    for i in range(2**args.depth):
        a = tr.call("skew.pascal_path", pascal_path, d, format(i, f"0{args.depth}b"))
        tr.call("walk.of_path", w.cotransition.of_path, a)


def _load_graph(tr, path):
    tr.add("fileio.input_bytes", os.path.getsize(path))
    graph, p = tr.call("fileio.load_inclusion_graph", load_inclusion_graph, path)
    tr.add("diagram.vertices", len(graph.V) + len(graph.Vbar))
    tr.add("diagram.edges", len(graph.E))
    return graph, tr.call("fdalg.model_expectation", ModelExpectation, graph, p)


def replay_expect(tr, args):
    graph, me = _load_graph(tr, args.graph)
    Q = me.as_endomorphism()

    def counted_q(f):
        tr.counts["fdalg.q_calls"] += 1
        return Q(f)

    big = tr.call("fdalg.big_relation", graph.big_relation)
    tr.add("fdalg.big_pairs", big.dimension)
    basis = tr.call("fdalg.subalgebra_basis", me.subalgebra_basis)
    tr.call("fdalg.verify_expectation", verify_expectation, counted_q, big, basis)


def replay_extractp(tr, args):
    graph, me = _load_graph(tr, args.graph)
    tr.call("fdalg.extract_transition", extract_transition, me, graph)


REPLAYS = {
    "distributions": replay_walk,
    "cotransition": replay_walk,
    "harmonic": replay_harmonic,
    "decompose": replay_decompose,
    "skew": replay_skew,
    "measure": replay_measure,
    "qcheck": replay_qcheck,
    "rn": replay_rn,
    "pascal": replay_pascal,
    "expect": replay_expect,
    "extractp": replay_extractp,
}


def _main_in_process(tr, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tr.call("cli.main", cli.main, list(argv))
    text = out.getvalue()
    tr.add("cli.stdout_bytes", len(text.encode()))
    return code, text


def one_pass(tr, script, tally):
    """Replay every invocation once; returns this pass's span range."""
    first = len(tr.spans)
    parser = cli.build_parser()
    for inv in script:
        with tr.command_span(inv.key):
            tally.attempted += 1
            try:
                REPLAYS[inv.argv[0]](tr, parser.parse_args(list(inv.argv)))
            except Exception as exc:  # a replay that raises is a failed operation
                tally.fail(f"{inv.key} replay: {type(exc).__name__}: {exc}")
            code, out = _main_in_process(tr, inv.argv)
            tally.check(inv, code, out)
    return first, len(tr.spans)


def pass_times(spans):
    """Per span name, seconds summed over the spans; plus cli.self."""
    totals = dict.fromkeys(TIMES, 0.0)
    calls, mains = {}, {}
    for _, parent, name, command, start, end in spans:
        seconds = (end - start) / 1e9
        totals[name] = totals.get(name, 0) + seconds
        if name == "cli.main":
            mains[parent] = mains.get(parent, 0) + seconds
        elif name not in NOT_CALLS and parent is not None:
            calls[parent] = calls.get(parent, 0) + seconds
    totals["cli.self"] = sum(t - calls.get(parent, 0) for parent, t in mains.items())
    return totals


def import_times(env):
    """Median cumulative import times of bratteli and numpy, in seconds."""
    found = {"bratteli": [], "numpy": []}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bratteli"],
            env=env, capture_output=True, text=True, check=True,
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {name: statistics.median(v) for name, v in found.items()}


def write_spans(path, workload, seed, spans):
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = ["id", "parent", "name", "command", "start_ns", "end_ns"]
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"workload": workload, "seed": seed, "fields": fields}) + "\n")
        for span in spans:
            f.write(json.dumps(span, separators=(",", ":")) + "\n")


def traced(workload, seed, facts, seconds, inputs, trace_dir, tally, env):
    """Replay passes for about ``seconds``; per-layer metrics as
    {name: (value, unit, samples)}, and the numpy version."""
    script = workloads.SCRIPTS[workload](facts)
    tr = Tracer()
    imports = import_times(env)
    passes = []
    counts = None
    cwd = os.getcwd()
    os.chdir(inputs)
    try:
        start = time.perf_counter()
        while True:
            first, last = one_pass(tr, script, tally)
            passes.append(pass_times(tr.spans[first:last]))
            counts = counts or dict(tr.counts)
            tr.counts = dict.fromkeys(COUNTS, 0)
            # stop when another pass would end more than half a pass late
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) / 2 > seconds:
                break
    finally:
        os.chdir(cwd)
    write_spans(trace_dir / f"{workload}.jsonl", workload, seed, tr.spans)
    metrics = {}
    for name in TIMES + ("cli.self",):
        metrics[f"{name}_s"] = (statistics.median(p[name] for p in passes), "s", len(passes))
    metrics["cli.import_s"] = (imports["bratteli"], "s", IMPORT_PROBES)
    metrics["cli.import_numpy_s"] = (imports["numpy"], "s", IMPORT_PROBES)
    for name in COUNTS:
        unit = "bits" if name.endswith("bits_max") else "bytes" if name.endswith("bytes") else "count"
        metrics[name] = (counts[name], unit, len(passes))
    return metrics, numpy.__version__
