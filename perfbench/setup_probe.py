"""Time one workload's set-up in a fresh interpreter.

Run by ``run.py`` with the workload's input directory as the working
directory and the checkout's ``src`` on PYTHONPATH.  It times ``import
bratteli``, loading the inputs, and building the walks or expectations the
commands start from, then prints one JSON line.

    python3 setup_probe.py WORKLOAD [GRAPH_FILE ...]
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import bratteli  # noqa: E402
from bratteli.fdalg import ModelExpectation  # noqa: E402
from bratteli.fileio import (  # noqa: E402
    load_diagram,
    load_inclusion_graph,
    load_measure_table,
    load_terminal,
    walk_from_file,
)


def set_up(workload, graph_files):
    if workload == "deep-triangle":
        walks = [walk_from_file(load_diagram(f)) for f in ("triangle.json", "triangle-small.json")]
        return walks, load_terminal("terminal.json")
    if workload == "wide-paths":
        # the perturbed table has the same size and format as this one
        w = walk_from_file(load_diagram("wide.json"))
        return w, load_measure_table(w.diagram, "table.json")
    if workload == "algebra-graphs":
        return [ModelExpectation(*load_inclusion_graph(f)) for f in graph_files]
    raise SystemExit(f"unknown workload {workload!r}")


def main():
    set_up(sys.argv[1], sys.argv[2:])
    elapsed = time.perf_counter() - START
    import numpy

    print(json.dumps({"setup_s": elapsed, "numpy": numpy.__version__, "bratteli": bratteli.__file__}))


if __name__ == "__main__":
    main()
