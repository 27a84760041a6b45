"""The body of a measurement process, after perfbench/child.py has timed the
import of gradecat: the passes, the correctness gate and the report."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import time
import traceback

import tracer as tracing
import workloads


def run_pass(cli, probe, commands):
    """Run every command once; returns (scaled seconds, wall seconds, outputs)
    with outputs as (argv, exit code, stdout text) triples.  Only cli.main is
    timed.  A command that raises gets exit code None and its traceback as
    output, and adds no time."""
    scaled = wall = 0.0
    outputs = []
    for argv in commands:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            try:
                code, command_wall, command_scaled = probe.time(cli.main, list(argv))
            except Exception:  # an internal error is a failed operation, not a crash
                code, command_wall, command_scaled = None, 0.0, 0.0
                buffer = io.StringIO(traceback.format_exc())
        scaled += command_scaled
        wall += command_wall
        outputs.append((argv, code, buffer.getvalue()))
    return scaled, wall, outputs


class Gate:
    """Applies the correctness checks to every pass and counts operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest = None

    def record(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(name)

    def check_pass(self, outputs, *, controls=False):
        digest = hashlib.sha256()
        for argv, code, text in outputs:
            digest.update(text.encode())
            try:
                doc = json.loads(text)
            except ValueError:
                self.record(f"exit {code}, no JSON: {' '.join(argv)}", False)
                continue
            for name, ok in workloads.check_command(argv, code, doc):
                self.record(name, ok)
            if argv[0] == "verify":
                for check in doc.get("checks", []):
                    self.record(f"verify-check/{check['name']}", check["ok"])
            if controls:
                for name, ok in workloads.negative_controls(argv, code, doc):
                    self.record(name, ok)
        digest = digest.hexdigest()
        if self.digest is not None:
            self.record("same-output-as-previous-pass", digest == self.digest)
        self.digest = digest


def main(cli, probe, import_s: float, import_wall_s: float, argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("import", "passes"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--trace", help="write spans here and alternate traced passes")
    args = parser.parse_args(argv)

    report = {"import_s": import_s, "import_wall_s": import_wall_s}
    if args.mode == "import":
        print(json.dumps(report))
        return 0

    commands = workloads.inputs(args.workload, args.seed)
    gate = Gate()
    started = time.perf_counter()
    cold_s, cold_wall_s, outputs = run_pass(cli, probe, commands)
    gate.check_pass(outputs, controls=True)
    warm, warm_wall, traced, per_pass = [], [], [], []
    tracer = tracing.Tracer() if args.trace else None

    def fits(last):
        return time.perf_counter() - started + last <= args.budget

    last = 0.0
    while not warm or fits(last):
        t0 = time.perf_counter()
        seconds, wall, outputs = run_pass(cli, probe, commands)
        gate.check_pass(outputs)
        warm.append(seconds)
        warm_wall.append(wall)
        if tracer is not None:
            tracer.begin_pass()
            tracer.install()
            try:
                seconds, _, outputs = run_pass(cli, probe, commands)
            finally:
                tracer.uninstall()
            gate.check_pass(outputs)
            traced.append(seconds)
            profile = tracing.pass_profile(tracer.spans, len(traced) - 1)
            per_pass.append(tracing.layer_metrics(profile, tracer.counts[-1]))
        last = time.perf_counter() - t0
    report.update(
        cold_s=cold_s,
        cold_wall_s=cold_wall_s,
        warm_s=warm,
        warm_wall_s=warm_wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=gate.attempted,
        failed=gate.failed,
        failures=gate.failures,
        digest=gate.digest,
    )
    if tracer is not None:
        report.update(traced_s=traced, layers=per_pass)
        with open(args.trace, "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
    print(json.dumps(report))
    return 0
