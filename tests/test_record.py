"""Smoke test of the script that records the benchmark and the primitive grid in one file."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE = {"cpu", "nproc", "python", "numpy", "openblas_core", "exp_kernel"}
ROW = {"family", "primitive", "M", "N", "median_ms", "ns_per_point_layer", "peak_traced_mb"}


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
