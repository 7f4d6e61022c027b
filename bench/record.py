"""Record the benchmark and the primitive grid of this checkout in ``BENCH_<n>.json``.

    python3 bench/record.py N                    # writes BENCH_<N>.json at the repository root
    python3 bench/record.py N --quick --output FILE

Runs ``perfbench/run.py`` as it is, in a subprocess with seed ``SEED``, on
every workload, then ``bench/primitives.py``'s primitives (``calls``) at
M in ``POINTS`` x N in ``LAYERS`` for both built-in families, and writes one
JSON file with:

- ``git_rev``, the checked-out commit, as ``perfbench/run.py`` reads it,
  and ``git_dirty``, whether tracked files differ from it (None without
  git): a file recorded before its change is committed names the parent;
- ``machine``: the CPU, Python, numpy, the core that numpy's bundled
  OpenBLAS picked (``scipy_openblas_get_corename64_``) and the ``np.exp``
  kernel as ``tests/conftest.py``'s ``exp_kernel_name`` names it;
- ``workloads``: each workload's result object, with its end-to-end metrics;
- ``primitives``: one row per family, M, N and primitive, with the
  columns of ``primitives.measure`` (the median ms of ``primitives.REPEATS``
  calls, the same per point and layer in ns, the traced peak MB of one
  more call and its minor page faults; see ``bench/primitives.py``), and
  the CALL and BINARY_OP opcodes that the package's own frames run in one
  more call (``opcode_counts``): a count of interpreter work that no timer
  noise moves.  It weighs no call by its size, so it is a proxy: at the
  call-bound sizes, where a layer is mostly numpy dispatch, a change in
  it is a change in work.

Every number comes from a run; none is typed in.  One recording per side
cannot resolve a ``median_ms`` change below about 60%: two recordings of
unchanged code read 27.27 and 44.48 ms for one row.  So a speed claim
quotes ``bench/ab_pairs.py`` pairs, and the opcode and fault columns,
not the difference of two of these files.  The M 10^5 rows of
``bench/primitives.py`` are left out: their pmp pass peaks at 1.3 GB
resident.  ``--quick`` runs the benchmark's and the primitives' tiny sizes,
for a smoke test of the file's keys.  Exits 1 if the benchmark run fails or
reports incorrect outputs.
"""

from __future__ import annotations

import argparse
import ctypes
import dis
import glob
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import primitives  # noqa: E402
from conftest import exp_kernel_name  # noqa: E402
import diffeoflow  # noqa: E402  (primitives puts src/ on the path)
from diffeoflow import family_from_name  # noqa: E402

SEED = 0
FAMILIES = ("affine8", "enriched14")
POINTS = (900, 10_000)
LAYERS = (16, 32)
PACKAGE = os.path.dirname(os.path.abspath(diffeoflow.__file__)) + os.sep
OPCODES = {dis.opmap["CALL"]: "call_opcodes", dis.opmap["BINARY_OP"]: "binary_op_opcodes"}


def openblas_core() -> str:
    """The kernel core of the OpenBLAS that numpy bundles, as it names it, or "unknown"."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def git_dirty() -> bool | None:
    """Whether a tracked file differs from the checked-out commit; None if git cannot tell."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def benchmark(quick: bool) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` process on every workload: (its environment line, its result objects)."""
    argv = [sys.executable, "perfbench/run.py", "--seed", str(SEED)]
    if quick:
        argv += ["--quick", "--seconds", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"perfbench/run.py failed (exit {proc.returncode}):\n{proc.stderr}")
    environment = next(line for line in lines if line.startswith("# environment "))
    return json.loads(environment[len("# environment "):]), json.loads(lines[-1])


def opcode_counts(call) -> dict:
    """The CALL and BINARY_OP opcodes that frames of the package run during one call, by opcode tracing.

    A frame whose code lives in the package's directory traces its opcodes
    (``frame.f_trace_opcodes``); other frames, numpy's Python code among
    them, are not traced, but the package frames they call are.  The count
    is that of the bytecode as compiled, before the interpreter specializes
    it.  Tracing is slow, so this is a call of its own, never a timed one.
    """
    counts, own, code_bytes = dict.fromkeys(OPCODES.values(), 0), {}, {}

    def opcode(frame, event, arg):
        if event == "opcode":
            code = frame.f_code
            if code not in code_bytes:
                code_bytes[code] = code.co_code
            name = OPCODES.get(code_bytes[code][frame.f_lasti])
            if name:
                counts[name] += 1
        return opcode

    def enter(frame, event, arg):
        code = frame.f_code
        if code not in own:
            own[code] = os.path.abspath(code.co_filename).startswith(PACKAGE)
        if not own[code]:
            return None
        frame.f_trace_opcodes = True
        return opcode

    sys.settrace(enter)
    try:
        call()
    finally:
        sys.settrace(None)
    return counts


def primitive_rows(quick: bool) -> list[dict]:
    """The primitives of both families at every size, each as one row."""
    points, layers = primitives.QUICK if quick else (POINTS, LAYERS)
    repeats = 1 if quick else primitives.REPEATS
    rows = []
    for kind in FAMILIES:
        family = family_from_name(kind)
        for n_pts in points:
            for n_layers in layers:
                calls = primitives.calls(family, n_pts, n_layers)
                for name in primitives.PRIMITIVES:
                    row = primitives.measure(calls[name], n_pts, n_layers, repeats)
                    rows.append({
                        "family": kind, "primitive": name, "M": n_pts, "N": n_layers, **row,
                        **opcode_counts(calls[name]),
                    })
                    print(f"# {kind} {name} M {n_pts} N {n_layers}: {row['median_ms']:.3f} ms", flush=True)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/record.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, help="the number in the file name BENCH_<n>.json")
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for a smoke run")
    parser.add_argument("--output", type=Path, help="the file to write, instead of BENCH_<n>.json at the root")
    args = parser.parse_args(argv)
    environment, workloads = benchmark(args.quick)
    record = {
        "git_rev": environment["git_rev"],
        "git_dirty": git_dirty(),
        "machine": {
            "cpu": environment["cpu"], "nproc": environment["nproc"], "python": environment["python"],
            "numpy": np.__version__, "openblas_core": openblas_core(), "exp_kernel": exp_kernel_name(),
        },
        "seed": SEED,
        "quick": args.quick,
        "workloads": workloads,
        "primitives": primitive_rows(args.quick),
    }
    output = args.output or ROOT / f"BENCH_{args.n}.json"
    output.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    return 0 if all(result["correct"] for result in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
