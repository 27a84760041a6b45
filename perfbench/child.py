"""One measurement process: a fresh interpreter that imports gradecat and runs passes.

    python3 -I perfbench/child.py import
    python3 -I perfbench/child.py passes --workload W --seed N [--budget S --trace PATH]

`import` times the import of gradecat's CLI.  `passes` also runs the
workload's passes through `gradecat.cli.main`: the first pass (cold), then
one warm pass.  With --trace, an untraced and a traced pass alternate after
the cold pass while the next pair still fits in --budget seconds, and the
spans are written to PATH.  Every section is timed by perfbench/probe.py,
as wall time and as time scaled to a reference speed.  The last line of
stdout is a JSON report.
"""

# Only modules a fresh interpreter has loaded anyway, or that gradecat never
# loads, come before the timed import, so that it loads everything a gradecat
# CLI start loads.
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_cli():
    import gradecat.cli as cli
    return cli


def import_gradecat(probe):
    """Import gradecat.cli from this checkout's src/; returns (module, wall
    seconds, scaled seconds)."""
    if not os.path.isfile(os.path.join(SRC, "gradecat", "cli.py")):
        raise SystemExit(f"gradecat sources not found under {SRC}")
    sys.path.insert(0, SRC)
    cli, wall, scaled = probe.time(_import_cli)
    if not os.path.abspath(cli.__file__).startswith(os.path.join(SRC, "gradecat")):
        raise SystemExit(f"imported gradecat from {cli.__file__}, not from {SRC}")
    return cli, wall, scaled


if __name__ == "__main__":
    sys.path.append(HERE)  # after the standard library: it shadows nothing
    from probe import Probe
    probe = Probe()
    cli, import_wall_s, import_s = import_gradecat(probe)
    import passes
    sys.exit(passes.main(cli, probe, import_s, import_wall_s))
