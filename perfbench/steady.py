"""Steadiness report: run one workload repeatedly and show each metric's spread.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Run i uses seed first-seed + i, the way the
benchmark is judged: the inputs change from run to run, the program does not.
For every metric it prints the median of the per-run values, their first and
third quartiles (``statistics.quantiles(values, n=4)``), and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.  A spread
within a third of the bound is marked ``ok``.  Per-command latencies and the
unscaled timings, which have no bound, are listed after the bounded metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def one_run(workload, seed, seconds, trace):
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        record = json.loads(line)
        for name, m in record.get("per_command", {}).items():
            values[name] = m["value"]
        for name, m in record.get("unscaled", {}).items():
            values[f"unscaled.{name}"] = m["value"]
    return result, values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        result, values = one_run(args.workload, seed, seconds, args.trace)
        runs.append(values)
        status = "correct" if result["correct"] else f"{result['failed']} FAILED"
        print(f"seed {seed}: {status} of {result['attempted']}", file=sys.stderr)

    names = [n for n in runs[0] if bounds.get(n) is not None]
    names += [n for n in runs[0] if bounds.get(n) is None]
    print(f"{args.workload}, {len(runs)} runs of {seconds} s, trace {args.trace}")
    for name in names:
        if bounds.get(name) is not None or name.startswith("unscaled."):
            print(f"  {name}: " + " ".join(f"{r[name]:.4g}" for r in runs))
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in names:
        values = [r[name] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        verdict = "" if bound is None else ("ok" if spread <= bound / 3 else "WIDE")
        bound_text = "" if bound is None else f"{bound:.2f}"
        print(f"{name:34} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {bound_text:>6} {verdict}")


if __name__ == "__main__":
    main()
