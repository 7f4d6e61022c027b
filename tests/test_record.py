"""Smoke test of the script that records the benchmark and the primitive grid in one file."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE = {"cpu", "nproc", "python", "numpy", "openblas_core", "exp_kernel"}
ROW = {
    "family", "primitive", "M", "N", "median_ms", "ns_per_point_layer", "peak_traced_mb", "minor_faults",
    "call_opcodes", "binary_op_opcodes",
}


def test_quick_record_has_every_key(tmp_path):
    output = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, "bench/record.py", "0", "--quick", "--output", str(output)],
        cwd=ROOT, capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(output.read_text(encoding="utf-8"))
    assert set(record) == {"git_rev", "git_dirty", "machine", "seed", "quick", "workloads", "primitives"}
    assert set(record["machine"]) == MACHINE and record["quick"] is True
    assert len(record["git_rev"]) == 40 or record["git_rev"] == "unknown"
    assert record["git_dirty"] in (True, False, None)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert list(record["workloads"]) == [w["name"] for w in declared["workloads"]]
    for result in record["workloads"].values():
        assert result["correct"] and set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    rows = record["primitives"]
    assert [(r["family"], r["primitive"]) for r in rows] == [
        (kind, name) for kind in ("affine8", "enriched14") for name in (
            "forward_euler", "flow_endpoints", "control_gradient", "gd_passes", "pmp_pass", "pmp_passes",
            "build_metrics",
        )
    ]
    assert all(set(r) == ROW and (r["M"], r["N"]) == (30, 4) and r["median_ms"] > 0.0 for r in rows)
    assert all(r["call_opcodes"] > 0 and r["binary_op_opcodes"] > 0 for r in rows)


def load_record():
    spec = importlib.util.spec_from_file_location("record", ROOT / "bench" / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_opcode_counts_repeat_exactly_and_count_the_package_alone():
    record = load_record()
    for kind in ("affine8", "enriched14"):
        calls = record.primitives.calls(record.family_from_name(kind), 30, 4)
        for name in record.primitives.PRIMITIVES:
            first = record.opcode_counts(calls[name])
            assert set(first) == {"call_opcodes", "binary_op_opcodes"} and min(first.values()) > 0, (kind, name)
            assert record.opcode_counts(calls[name]) == first, (kind, name)
    # Code outside the package, here numpy's Python einsum and this lambda, is not counted.
    assert record.opcode_counts(lambda: record.np.einsum("i,i->", [1.0], [2.0]) + 1.0) == dict.fromkeys(first, 0)
