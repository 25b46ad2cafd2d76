"""Compare the CLI output of this checkout with that of another source tree.

    python3 tools/same_output.py PARENT_SRC [--seeds 1 2 3]

PARENT_SRC is the ``src`` directory of the other tree, e.g. of a
``git archive`` of the parent commit.  For each benchmark workload and seed
the inputs come from ``perfbench/gen.py``; every invocation of the workload's
script in ``perfbench/workloads.py``, plus the start-up probe, then runs as
``python -m bratteli`` under both trees, once as scripted (TSV) and once
more with ``--format json``.  Each ``qcheck`` invocation runs a second time
on a copy of its table re-serialized with ``indent=1`` and 'paths' first, and
a third time on a copy with its 'paths' members in a seeded shuffled order,
so that table readers are compared on other layouts of the same input, and
labels that share no prefix with the one before are read too.  Each
``harmonic`` invocation runs again on a copy of its terminal data with every
third value zeroed and the others negated, each ``skew`` invocation
again under a second window of four seeded elements, and each ``pascal``
invocation again as ``--depth 0 --t 2/7`` (refused), ``--depth 1 --t 1/2``
and ``--depth 9 --t 9/10``, so that its check and table are compared at
other depths and values of t.  Each ``expect`` and ``extractp`` invocation
runs again on a copy of its graph file whose ``X`` points and edge records
are in a seeded shuffled order, so that the expectation check's pair
numbering is compared on another layout of the same graph.
``validate`` runs on every generated diagram file, and on copies of
``wide.json`` with one fault each (a record lacking 'src', an integer id,
'p' on some edges only, a repeated key), so that the diagram reader's
output and its messages are compared too.  Both ``validate`` and
``distributions`` run on three more copies of ``wide.json``, each breaking
diagram invariants only, 'p' and 'nu0' left whole (an edge id repeated in
its level, an edge whose 'src' names no vertex, a level-1 vertex with its
out-edges removed), so that the violation table and the ``error:`` line
are compared.  The parser is compared once,
before the workloads: ``bratteli --help``, each subcommand's ``--help`` (the
subcommands read off both trees' usage lines) and bare ``bratteli``, the
usage error that exits 2.  Exit code, stdout and stderr must be
byte-identical.  Each command that differs is listed, the counts are
reported for the parser and per format, and the exit code is 1 if any
command differs, else 0.

Each run's max RSS is read with ``os.wait4``, as the benchmark reads it.  A
command whose max RSS moved by more than RSS_MOVE_MB between the trees runs
RSS_RERUNS more times under each tree, alternating which tree runs first, and
is listed with both medians and the run count if they still differ by more
than RSS_MOVE_MB: one run per tree moves by that much on code that did not
change.  Per workload and tree, the largest max RSS over the workload's
scripted commands (TSV, all seeds, no start-up probe, first runs only) is
printed too (the derived runs above are left out): the figure
the benchmark's ``peak_rss_mb`` takes, for information only.  A child's max
RSS starts at its parent's peak, so this process stays small (the
benchmark's own figure is floored at its runner's): a helper process writes
the inputs and the re-serialized tables and lists the commands, and outputs
are compared by digest, never held whole.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave perfbench/ as committed

import gen  # noqa: E402  (only the standard library; generate() runs in the helper)

RSS_MOVE_MB = 0.5
RSS_RERUNS = 4  # more runs per tree of a command whose first runs moved

# argv: perfbench dir, workload, seed, input dir; prints the commands as JSON
# [argv, scripted] pairs, where scripted is false for the start-up probe, for
# each qcheck's second and third runs, on its table re-serialized and shuffled,
# for the validate runs on the diagram files and the faulty copies of wide.json,
# for distributions on the copies that break diagram invariants only,
# for harmonic on its terminal data with signs flipped and every third value 0,
# for skew under a second, seeded window, for pascal's runs at other depths
# and values of t, and for expect and extractp on their graph file with its
# points and edge records shuffled
LIST_COMMANDS = """
import json, random, sys
from fractions import Fraction
from pathlib import Path
sys.path.insert(0, sys.argv[1])
sys.dont_write_bytecode = True  # leave perfbench/ as committed
import gen, workloads
workload, seed, out = sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
files, facts, _ = gen.generate(workload, seed)
for name, text in files.items():
    (out / name).write_text(text, encoding="utf-8")
commands = [[list(workloads.STARTUP.argv), False]]
for name, text in sorted(files.items()):
    data = json.loads(text)
    if name not in workloads.STARTUP.argv and {"vertices", "edges"} <= set(data) and "X" not in data:
        commands.append([["validate", name], False])
INVARIANT_FAULTS = ("repeated-edge-id", "unknown-src", "stranded-vertex")
for fault in ("lacks-src", "int-id", "p-on-some", "repeated-key", *INVARIANT_FAULTS) if "wide.json" in files else ():
    data = json.loads(files["wide.json"])
    level = data["edges"][-1]
    rec = level[len(level) // 2]  # a record past the first of its level
    if fault == "lacks-src":
        del rec["src"]
    elif fault == "int-id":
        rec["id"] = 7
    elif fault == "p-on-some":
        del rec["p"]
    elif fault == "repeated-edge-id":
        rec["id"] = level[0]["id"]
    elif fault == "unknown-src":
        rec["src"] = "nowhere"
    elif fault == "stranded-vertex":  # the out-edges of a level-1 vertex removed
        data["edges"][1] = [r for r in data["edges"][1] if r["src"] != data["vertices"][1][0]]
    text = json.dumps(data)
    if fault == "repeated-key":
        key = json.dumps(rec["id"])
        text = text.replace(f'"id": {key}', f'"id": {key}, "id": {key}', 1)
    (out / f"wide-{fault}.json").write_text(text, encoding="utf-8")
    commands.append([["validate", f"wide-{fault}.json"], False])
    if fault in INVARIANT_FAULTS:
        commands.append([["distributions", f"wide-{fault}.json"], False])
for inv in workloads.SCRIPTS[workload](facts):
    argv = list(inv.argv)
    commands.append([argv, True])
    if argv[0] == "harmonic":
        i = argv.index("--terminal") + 1
        terminal = json.loads((out / argv[i]).read_text(encoding="utf-8"))
        signed = {v: "0/1" if j % 3 == 0 else str(-Fraction(x)) for j, (v, x) in enumerate(terminal.items())}
        (out / ("signed-" + argv[i])).write_text(json.dumps(signed), encoding="utf-8")
        commands.append([argv[:i] + ["signed-" + argv[i]] + argv[i + 1:], False])
    if argv[0] == "pascal":
        for depth, t in (("0", "2/7"), ("1", "1/2"), ("9", "9/10")):
            commands.append([["pascal", "--depth", depth, "--t", t], False])
    if argv[0] == "skew":
        window = random.Random(f"{workload}:{seed}:window").sample(range(-9, 10), 4)
        commands.append([[a for a in argv if not a.startswith("--window")]
                         + ["--window=" + ",".join(map(str, window))], False])
    if argv[0] in ("expect", "extractp"):
        i = argv.index("--graph") + 1
        graph = json.loads((out / argv[i]).read_text(encoding="utf-8"))
        points, order = list(graph["X"].items()), random.Random(f"{workload}:{seed}:{argv[i]}")
        order.shuffle(points)
        order.shuffle(graph["edges"][0])
        graph["X"] = dict(points)
        (out / ("shuffled-" + argv[i])).write_text(json.dumps(graph), encoding="utf-8")
        commands.append([argv[:i] + ["shuffled-" + argv[i]] + argv[i + 1:], False])
    if argv[0] == "qcheck":
        i = argv.index("--measure") + 1
        table = json.loads((out / argv[i]).read_text(encoding="utf-8"))
        paths = table.pop("paths")
        shuffled = list(paths.items())
        random.Random(f"{workload}:{seed}:{argv[i]}").shuffle(shuffled)
        for copy, text in (("reserialized-", json.dumps({"paths": paths, **table}, indent=1)),
                           ("shuffled-", json.dumps({**table, "paths": dict(shuffled)}))):
            (out / (copy + argv[i])).write_text(text, encoding="utf-8")
            commands.append([argv[:i] + [copy + argv[i]] + argv[i + 1:], False])
print(json.dumps(commands))
"""


def commands(workload, seed, cwd):
    """Write the workload's inputs for ``seed`` into ``cwd``; its (argv,
    scripted) pairs."""
    argv = [sys.executable, "-c", LIST_COMMANDS, str(ROOT / "perfbench"), workload, str(seed), cwd]
    return json.loads(subprocess.run(argv, check=True, capture_output=True, text=True).stdout)


def digest(f):
    f.seek(0)
    h = hashlib.sha256()
    for block in iter(lambda: f.read(1 << 16), b""):
        h.update(block)
    return h.digest()


def run(src, argv, cwd):
    """((exit code, stdout digest, stderr digest), max RSS in MB) of one command."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "bratteli", *argv],
            cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, digest(out), digest(err)), usage.ru_maxrss / 1024


def subcommands(src):
    """The subcommand names in the usage line of ``bratteli --help`` under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "bratteli", "--help"]
    usage = subprocess.run(argv, env=env, check=True, capture_output=True, text=True).stdout
    return re.search(r"\{([\w,]+)\}", usage)[1].split(",")


def rss_medians(here, there, argv, cwd, mine, theirs):
    """Median max RSS of ``argv`` under each tree, over the first runs' ``mine``
    and ``theirs`` and RSS_RERUNS more per tree, alternating which runs first."""
    trees, runs = (here, there), ([mine], [theirs])
    for i in range(RSS_RERUNS):
        for side in (1, 0) if i % 2 == 0 else (0, 1):
            runs[side].append(run(trees[side], argv, cwd)[1])
    return statistics.median(runs[0]), statistics.median(runs[1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="src directory of the tree to compare with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()
    here, there = ROOT / "src", args.parent_src.resolve()
    if not (there / "bratteli").is_dir():
        parser.error(f"{there} holds no bratteli package")
    formats = {"TSV": (), "JSON": ("--format", "json")}
    same = dict.fromkeys(["PARSER", *formats], 0)
    differ = dict.fromkeys(["PARSER", *formats], 0)
    names = sorted({*subcommands(here), *subcommands(there)})
    with tempfile.TemporaryDirectory() as tmp:
        for argv in ([], ["--help"], *([name, "--help"] for name in names)):
            if run(here, argv, tmp)[0] == run(there, argv, tmp)[0]:
                same["PARSER"] += 1
            else:
                differ["PARSER"] += 1
                print(f"DIFFERS: bratteli {' '.join(argv)}")
    for workload in gen.WORKLOADS:
        peak = {"here": 0.0, "there": 0.0}  # largest max RSS of the scripted commands
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as tmp:
                for inv, scripted in commands(workload, seed, tmp):
                    for fmt, extra in formats.items():
                        argv = (*inv, *extra)
                        mine, my_rss = run(here, argv, tmp)
                        theirs, their_rss = run(there, argv, tmp)
                        command = f"{workload} seed {seed}: bratteli {' '.join(argv)}"
                        if mine == theirs:
                            same[fmt] += 1
                        else:
                            differ[fmt] += 1
                            print(f"DIFFERS: {command}")
                        if abs(my_rss - their_rss) > RSS_MOVE_MB:
                            mid, their_mid = rss_medians(here, there, argv, tmp, my_rss, their_rss)
                            if abs(mid - their_mid) > RSS_MOVE_MB:
                                print(f"RSS MOVED: {command}: medians of {1 + RSS_RERUNS} runs per tree, "
                                      f"{their_mid:.2f} MB there, {mid:.2f} MB here")
                        if scripted and not extra:
                            peak["here"] = max(peak["here"], my_rss)
                            peak["there"] = max(peak["there"], their_rss)
        print(f"PEAK RSS: {workload}: {peak['there']:.2f} MB there, {peak['here']:.2f} MB here")
    for fmt in same:
        total = same[fmt] + differ[fmt]
        print(f"{fmt}: {same[fmt]} of {total} commands identical, {differ[fmt]} differ")
    return 1 if any(differ.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
