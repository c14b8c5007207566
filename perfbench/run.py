"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload mem-motif --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
last line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the lines above it record the environment, the
workload's input shares and every metric by name with its unit.  The exit
code is 1 when any query's hits differ from the oracle, 2 when the run cannot
start.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

#: Overrides the expansion kernel for every engine; a run under it would
#: measure a kernel other than the default the workloads are meant to track.
KERNEL_VARIABLE = "OASIS_KERNEL"


def _git_sha(root: str) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    from perfbench.workloads import POOL_SIZE, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(POOL_SIZE), default="small",
                        help="input scale; 'tiny' is for smoke tests")
    return parser.parse_args(argv)


def report_lines(report, environment, seconds: float, trace: int):
    """The run's printed output; the last line is the result object."""
    lines = [
        f"# env {json.dumps(environment, sort_keys=True)}",
        f"# workload {report.workload} seed={report.seed} seconds={seconds:g} trace={trace}",
        *report.notes,
    ]
    lines += [f"{name} {value:.6g} {report.units[name]}" for name, value in report.metrics.items()]
    lines.append(
        f"failed_ratio {report.failed / report.attempted:.6g} ratio "
        f"({report.failed} of {report.attempted} queries)"
    )
    lines.append(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": report.units[name]}
            for name, value in report.metrics.items()
        },
    }))
    return lines


def main(argv=None) -> int:
    if os.environ.get(KERNEL_VARIABLE):
        print(f"error: {KERNEL_VARIABLE} is set; unset it to benchmark the default kernel",
              file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    args = parse_args(argv)

    import numpy

    from perfbench.harness import run

    report = run(args.workload, args.seed, args.seconds, bool(args.trace), BENCH_DIR, args.scale)
    environment = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(ROOT),
        "kernel": report.kernel,
    }
    print("\n".join(report_lines(report, environment, args.seconds, args.trace)), flush=True)
    return 0 if report.correct else 1


# Process workers re-import this file as their main module: the path set-up
# above runs there too, the benchmark only here.
if __name__ == "__main__":
    sys.exit(main())
