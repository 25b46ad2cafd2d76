"""Benchmark of the ``bratteli`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports the package from ``./src`` and
nothing else, writes its inputs under ``./.perfbench_work`` and removes them
when it ends.  One closed-loop client runs one ``python -m bratteli`` child at
a time; inputs come from ``gen.generate(workload, seed)``.

``--trace 0`` times the workload's command script end to end.  It cycles
through the script until a full pass is done and ``--seconds`` have passed.
Between commands run startup probes (``validate`` on a one-edge file) and
reference runs (``reference.py``) in turn, and set-up probes
(``setup_probe.py``), each kind in a fixed share of the commands' time.
Timings are scaled to a fixed host speed by the reference runs of the same
pass (see ``REFERENCE_S``).  Each figure is a median over the run, so every
one of them samples the whole run; ``session_s`` is the median over complete
passes of a pass's time.
``--trace 1`` replays the same commands in process with a span around each
library call (see ``spans.py``) and reports per-layer times and counts instead.

Every command's output is checked exactly.  The last line of stdout is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
hold the run's metadata and, untraced, the unscaled timings and the
per-command latencies.
"""

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

CHILD_TIMEOUT_S = 150

REFERENCE = HERE / "reference.py"
REFERENCE_SHA256 = "8130dbe363cda168f3209b1cc645780ecab465d406bf1792a08d14db2769a7d3"
# Untraced timings are in seconds of a host on which reference.py takes
# REFERENCE_S: each is scaled by REFERENCE_S over the mean reference run of
# its pass through the script.  On a shared 2-vCPU VM the speed drifted by up
# to half over minutes; the reference drifts with it, the ratio much less.
REFERENCE_S = 0.25
# startup probes and reference runs take this share of the commands' time,
# set-up probes this one
PROBE_SHARE = 0.4
SETUP_SHARE = 0.1


class Tally:
    """Counts checked invocations; an output once verified is accepted again
    only byte for byte."""

    def __init__(self, facts):
        self.facts = facts
        self.ctx = {}
        self.verified = {}
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, inv, code, out):
        self.attempted += 1
        if self.verified.get(inv.key) == (code, out):
            return
        reason = inv.check(out, code, self.facts, self.ctx)
        if reason is None:
            self.verified[inv.key] = (code, out)
        else:
            self.fail(f"{inv.key}: {reason}")

    def fail(self, reason):
        self.failed += 1
        if len(self.reasons) < 8:
            self.reasons.append(reason)


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def run_child(argv, cwd):
    """Run one child to completion: (wall seconds, exit code, max RSS in KiB, stdout)."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss, out_path.read_text()


def bratteli(inv, cwd):
    return run_child([sys.executable, "-m", "bratteli", *inv.argv], cwd)


def set_up_sample(workload, facts, inputs, tally):
    """One fresh-interpreter set-up: (seconds, or None if it failed; the
    probe's report; the probe's wall seconds)."""
    graphs = [g["file"] for g in facts.get("graphs", ())]
    argv = [sys.executable, str(HERE / "setup_probe.py"), workload, *graphs]
    tally.attempted += 1
    wall, code, _, out = run_child(argv, inputs)
    try:
        report = json.loads(out)
    except ValueError:
        report = {}
    if code != 0 or not str(report.get("bratteli", "")).startswith(str(SRC)):
        tally.fail(f"setup probe: exit {code}, imported {report.get('bratteli')!r}")
        return None, report, wall
    return report["setup_s"], report, wall


def reference_sample(cwd):
    """Wall seconds of one run of the fixed reference work."""
    elapsed, code, _, out = run_child([sys.executable, str(REFERENCE)], cwd)
    if code != 0 or out.strip() != REFERENCE_SHA256:
        raise SystemExit(f"error: reference run: exit {code}, output {out[:80]!r}")
    return elapsed


def untraced(workload, facts, seconds, inputs, tally):
    """Cycle through the script until a full pass is done and ``seconds`` have
    passed.  Between commands, startup probes and reference runs take turns,
    as many as keep their time at PROBE_SHARE of the commands' time, and
    set-up probes, as many as keep theirs at SETUP_SHARE; one set-up probe
    runs before the first command.  Each timing is scaled to the reference
    speed by the mean reference run of its pass, and every figure is a median
    over the run."""
    script = workloads.SCRIPTS[workload](facts)
    keys = [inv.key for inv in script]
    # every sample is (seconds, pass number); a pass is one go through the script
    samples = {key: [] for key in ("setup_s", "startup_s", "reference_s", *keys)}
    taken, report, setup_wall = set_up_sample(workload, facts, inputs, tally)
    samples["setup_s"].append((taken, 0))
    peak = 0
    command_s = probe_s = 0.0
    start = time.perf_counter()
    for i in itertools.count():
        n = i // len(script)
        inv = script[i % len(script)]
        elapsed, code, rss, out = bratteli(inv, inputs)
        tally.check(inv, code, out)
        samples[inv.key].append((elapsed, n))
        command_s += elapsed
        peak = max(peak, rss)
        while probe_s < PROBE_SHARE * command_s or not samples["reference_s"]:
            if len(samples["reference_s"]) < len(samples["startup_s"]):
                elapsed = reference_sample(inputs)
                samples["reference_s"].append((elapsed, n))
            else:
                elapsed, code, _, out = bratteli(workloads.STARTUP, inputs)
                tally.check(workloads.STARTUP, code, out)
                samples["startup_s"].append((elapsed, n))
            probe_s += elapsed
        while setup_wall < SETUP_SHARE * command_s:
            taken, report, wall = set_up_sample(workload, facts, inputs, tally)
            samples["setup_s"].append((taken, n))
            setup_wall += wall
        if i + 1 >= len(script) and time.perf_counter() - start >= seconds:
            break
    samples["setup_s"] = [(t, n) for t, n in samples["setup_s"] if t is not None]
    if not samples["setup_s"]:
        raise SystemExit("error: no set-up probe succeeded")

    ref_by_pass = {}
    for t, n in samples["reference_s"]:
        ref_by_pass.setdefault(n, []).append(t)
    run_ref = statistics.mean(t for t, _ in samples["reference_s"])
    scale = {n: REFERENCE_S / statistics.mean(ts) for n, ts in ref_by_pass.items()}

    def median(pairs, scaled=True):
        """Median of (seconds, pass) samples; scaled by their pass's reference
        runs (a last, partial pass without one takes the run's)."""
        if not scaled:
            return statistics.median(t for t, _ in pairs)
        return statistics.median(t * scale.get(n, REFERENCE_S / run_ref) for t, n in pairs)

    # session and per-command figures come from the complete passes only
    passes = min(len(samples[k]) for k in keys)
    by_metric = {}
    for inv in script:
        by_metric.setdefault(inv.metric, []).append(inv.key)

    def pass_sums(group):
        return [(sum(samples[k][n][0] for k in group), n) for n in range(passes)]

    per_command = {m: (median(pass_sums(group)), "s", passes) for m, group in by_metric.items()}
    metrics = {
        "setup_s": (median(samples["setup_s"]), "s", len(samples["setup_s"])),
        "startup_s": (median(samples["startup_s"]), "s", len(samples["startup_s"])),
        "session_s": (median(pass_sums(keys)), "s", passes),
        "peak_rss_mb": (peak / 1024, "MB", sum(len(samples[k]) for k in keys)),
    }
    unscaled = {
        name: (median(samples[name], False), "s", len(samples[name]))
        for name in ("reference_s", "setup_s", "startup_s")
    }
    unscaled["session_s"] = (median(pass_sums(keys), False), "s", passes)
    return metrics, per_command, unscaled, report.get("numpy", "unknown")


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def as_json(metrics, with_samples):
    out = {}
    for name, (value, unit, samples) in metrics.items():
        out[name] = {"value": value, "unit": unit}
        if with_samples:
            out[name]["samples"] = samples
    return out


def _terminated(signum, frame):
    # unwinds through run_child, which kills and reaps the child, and through
    # main's cleanup of the input directory
    raise SystemExit(128 + signum)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _terminated)
    if not (SRC / "bratteli" / "__init__.py").is_file():
        print(f"error: no src/bratteli in {ROOT}; run from the root of a checkout", file=sys.stderr)
        return 2

    files, facts, size = gen.generate(args.workload, args.seed)
    inputs = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    tally = Tally(facts)
    try:
        for name, text in files.items():
            (inputs / name).write_text(text, encoding="utf-8")
        if args.trace:
            sys.path.insert(0, str(SRC))
            import spans

            metrics, numpy_version = spans.traced(
                args.workload, args.seed, facts, args.seconds, inputs, WORK / "traces", tally, child_env()
            )
            per_command = unscaled = {}
        else:
            metrics, per_command, unscaled, numpy_version = untraced(
                args.workload, facts, args.seconds, inputs, tally
            )
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    for reason in tally.reasons:
        print(f"check failed: {reason}", file=sys.stderr)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "input": size,
        "samples": {name: m[2] for name, m in {**metrics, **per_command}.items()},
    }
    print(json.dumps({"meta": meta}))
    if per_command:
        print(json.dumps({"unscaled": as_json(unscaled, True)}))
        print(json.dumps({"per_command": as_json(per_command, True)}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": as_json(metrics, False),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
