"""Benchmark entry point.

    python3 perfbench/run.py                        # all workloads, end-to-end metrics
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick                # tiny sizes, for a smoke run
    python3 perfbench/run.py --record               # rewrite reference.json

Run it from the repository root; it imports diffeoflow from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics declared
in BENCHMARK.json, or with ``--trace 1`` the per-layer ones. Lines before it
start with ``#`` and report the environment, every metric with its unit,
the output drift and the failed fraction. Working files go to
``.perfbench_run/``, where a traced run also leaves its spans.

``--record`` is for a deliberate change of the program's results only: the
output check compares every run with the file it writes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_run"
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git_rev() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "git_rev": git_rev(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "threads": {v: os.environ[v] for v in THREAD_VARIABLES},
    }


def parse_args(argv, spec: dict, names: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0, help="workload seed, nonnegative")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="time budget of the measured commands")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from a traced run")
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the benchmark's tests")
    parser.add_argument("--record", action="store_true", help="rewrite reference.json and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    if not (ROOT / "src" / "diffeoflow").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} does not hold src/diffeoflow and BENCHMARK.json", file=sys.stderr)
        return 2
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, spec, names)

    from perfbench import bench, checks, tracing  # imports numpy, after the pin above

    if args.record:
        refs = bench.record_references(WORK)
        checks.REFERENCE_FILE.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {checks.REFERENCE_FILE}")
        return 0

    print("# environment " + json.dumps(environment()))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    chosen = names if args.workload == "all" else [args.workload]
    results = {}
    for name in chosen:
        outcome = bench.run_workload(name, args.seed, args.seconds, bool(args.trace), WORK, args.quick)
        if args.trace:
            tracing.write_spans(WORK / f"spans-{name}-seed{args.seed}.csv", outcome.spans)
        for line in bench.report_lines(outcome, declared, args.seed):
            print(line)
        for problem in outcome.problems:
            print(f"problem: {name}: {problem}", file=sys.stderr)
        results[name] = bench.result(outcome, declared)
    print(json.dumps(results[chosen[0]] if len(chosen) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
