"""Smoke test of the per-primitive timing script."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRIMITIVES = [
    "forward_euler", "flow_endpoints", "control_gradient", "gd_passes", "pmp_pass", "pmp_passes", "build_metrics"
]


def test_quick_run_times_every_primitive_once():
    proc = subprocess.run(
        [sys.executable, "bench/primitives.py", "--quick", "--family", "enriched14"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("# enriched14, median of 1 calls")
    assert lines[1].split() == [
        "primitive", "M", "N", "median_ms", "ns_per_point_layer", "peak_traced_mb", "minor_faults"
    ]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == PRIMITIVES
    assert all(row[1:3] == ["30", "4"] and all(float(v) > 0.0 for v in row[3:6]) for row in rows)
    # A warm call may take no fault at all.
    assert all(int(row[6]) >= 0 for row in rows)

