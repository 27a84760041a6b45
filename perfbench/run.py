"""gradecat benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload classify-m4c --seed 1 --seconds 55 --trace 0

Run from the root of a gradecat checkout.  Every sample comes from a fresh
single-threaded interpreter (perfbench/child.py) started one at a time, so
set-up and cold-pass costs are what a new CLI process pays.  Times are
scaled to a fixed reference speed by perfbench/probe.py, because the speed
of a shared host drifts; the wall times are kept in the run's record.  With --trace 0
the run reports the end-to-end metrics; with --trace 1 it runs one process
that alternates untraced and traced passes and reports the per-layer
metrics.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Details of the run, with
its provenance, go to .perfbench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Fresh interpreters that only import gradecat, started before each pass
# process so that setup_s samples spread over the run like the pass samples;
# every pass process adds one more import sample.
IMPORTS_PER_PASS_PROCESS = 5
# Pass processes per run, each with one cold and one warm pass: at least this
# many, more while the next one still fits in --seconds.  A verify-all
# process takes about 16 s, so a 30 s run gets two of them.
MIN_PASS_PROCESSES = 2
# Every process is killed and the run fails once this much time has passed.
RUN_DEADLINE_S = 170


class RunError(RuntimeError):
    """A measurement process failed; no result can be reported."""


def child(deadline: float, *args) -> dict:
    """Run perfbench/child.py in a fresh isolated interpreter; returns its report."""
    command = [sys.executable, "-I", os.path.join(HERE, "child.py"), *args]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{args[0]} process exited with {proc.returncode}: "
                       + proc.stderr.strip()[-2000:])
    return json.loads(lines[-1])


def provenance(workload: str, seed: int, mode: str, passes: int) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "gradecat_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": workload,
        "seed": seed,
        "inputs": workloads.inputs(workload, seed),
        "passes": passes,
        "mode": mode,
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, read from .git only."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_untraced(workload: str, seed: int, seconds: float, deadline: float):
    child(deadline, "import")  # unmeasured: leaves compiled bytecode, as an installed CLI has
    imports, reports = [], []
    last = 0.0
    started = time.perf_counter()
    while len(reports) < MIN_PASS_PROCESSES or (
            time.perf_counter() - started + last <= seconds):
        t0 = time.perf_counter()
        imports += [child(deadline, "import") for _ in range(IMPORTS_PER_PASS_PROCESS)]
        reports.append(child(deadline, "passes", "--workload", workload, "--seed", str(seed)))
        last = time.perf_counter() - t0
    imports = imports + reports
    samples = {
        "setup_s": [r["import_s"] for r in imports],
        "cold_s": [r["cold_s"] for r in reports],
        "warm_s": [s for r in reports for s in r["warm_s"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reports],
        # the same sections in plain wall time, for the record
        "setup_wall_s": [r["import_wall_s"] for r in imports],
        "cold_wall_s": [r["cold_wall_s"] for r in reports],
        "warm_wall_s": [s for r in reports for s in r["warm_wall_s"]],
    }
    metrics = {name: statistics.median(samples[name])
               for name in ("setup_s", "cold_s", "warm_s", "peak_rss_mb")}
    return reports, metrics, samples


def run_traced(workload: str, seed: int, seconds: float, deadline: float):
    spans_path = os.path.join(OUT, f"{workload}-seed{seed}-spans.jsonl")
    report = child(deadline, "passes", "--workload", workload, "--seed", str(seed),
                   "--budget", str(seconds), "--trace", spans_path)
    per_pass = report["layers"]
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    metrics["trace.overhead_ratio"] = (statistics.median(report["traced_s"])
                                       / statistics.median(report["warm_s"]))
    samples = {"warm_s": report["warm_s"], "traced_s": report["traced_s"],
               "spans": os.path.relpath(spans_path, ROOT)}
    return [report], metrics, samples


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("_mb"):
        return "MiB"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    run = run_traced if args.trace else run_untraced
    deadline = time.monotonic() + RUN_DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    try:
        reports, metrics, samples = run(args.workload, args.seed, args.seconds, deadline)
    except (RunError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    # every process must print the same output: one more operation
    attempted = 1 + sum(r["attempted"] for r in reports)
    failed = (len({r["digest"] for r in reports}) != 1) + sum(r["failed"] for r in reports)
    failures = [f for r in reports for f in r["failures"]]
    passes = sum(1 + len(r["warm_s"]) + len(r.get("traced_s", ())) for r in reports)
    mode = "traced" if args.trace else "untraced"
    info = provenance(args.workload, args.seed, mode, passes)

    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-{mode}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"provenance": info, "metrics": metrics, "samples": samples,
                   "failures": failures, "attempted": attempted, "failed": failed},
                  handle, indent=1)

    print("provenance: " + json.dumps(info))
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit_of(name)}")
    for name in ("setup_wall_s", "cold_wall_s", "warm_wall_s"):
        if name in samples:  # for the record; not metrics
            print(f"{name:45s} {statistics.median(samples[name]):14.6g} s (wall clock)")
    print(f"{'fail_ratio':45s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
