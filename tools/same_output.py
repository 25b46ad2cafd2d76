"""Compare the CLI output of this checkout with that of another source tree.

    python3 tools/same_output.py PARENT_SRC [--seeds 1 2 3]

PARENT_SRC is the ``src`` directory of the other tree, e.g. of a
``git archive`` of the parent commit.  For each benchmark workload and seed
the inputs come from ``perfbench/gen.py``; every invocation of the workload's
script in ``perfbench/workloads.py``, plus the start-up probe, then runs as
``python -m bratteli`` under both trees, once as scripted (TSV) and once
more with ``--format json``.  Exit code, stdout and stderr must be
byte-identical.  Each command that differs is listed, the counts are reported
per format, and the exit code is 1 if any command differs, else 0.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave perfbench/ as committed

import gen  # noqa: E402
import workloads  # noqa: E402


def run(src, argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "bratteli", *argv], cwd=cwd, env=env, capture_output=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="src directory of the tree to compare with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()
    here, there = ROOT / "src", args.parent_src.resolve()
    if not (there / "bratteli").is_dir():
        parser.error(f"{there} holds no bratteli package")
    formats = {"TSV": (), "JSON": ("--format", "json")}
    same = dict.fromkeys(formats, 0)
    differ = dict.fromkeys(formats, 0)
    for workload in gen.WORKLOADS:
        for seed in args.seeds:
            files, facts, _ = gen.generate(workload, seed)
            with tempfile.TemporaryDirectory() as tmp:
                for name, text in files.items():
                    (Path(tmp) / name).write_text(text, encoding="utf-8")
                for inv in [workloads.STARTUP, *workloads.SCRIPTS[workload](facts)]:
                    for fmt, extra in formats.items():
                        argv = (*inv.argv, *extra)
                        if run(here, argv, tmp) == run(there, argv, tmp):
                            same[fmt] += 1
                        else:
                            differ[fmt] += 1
                            print(f"DIFFERS: {workload} seed {seed}: bratteli {' '.join(argv)}")
    for fmt in formats:
        total = same[fmt] + differ[fmt]
        print(f"{fmt}: {same[fmt]} of {total} commands identical, {differ[fmt]} differ")
    return 1 if any(differ.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
