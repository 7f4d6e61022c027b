"""Smoke test of the alternating-pairs benchmark script."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_quick_a_a_pair_reports_every_metric_with_quartiles_and_wins():
    proc = subprocess.run(
        [sys.executable, "bench/ab_pairs.py", ".", ".", "--workload", "gd_affine8_m900_n16",
         "--pairs", "1", "--seconds", "0", "--quick", "--seed-base", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    runs = [line for line in lines if line.startswith("# pair 1 seed 3 ")]
    assert [line.split()[5] for line in runs] == ["parent:", "change:"]
    assert all("correct True failed 0/" in line for line in runs)
    rows = {line.split()[0]: line.split() for line in lines if not line.startswith("#")}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    assert {m["name"] for m in declared} <= set(rows)
    for m in declared:
        row = rows[m["name"]]
        assert row[1] == m["unit"] and row[-1] in ("0/1", "1/1")
        assert row[2] == row[3][1:-1] == row[4][:-1]  # one value is its own median and quartiles


def test_bad_checkout_is_refused():
    proc = subprocess.run(
        [sys.executable, "bench/ab_pairs.py", "src", ".", "--workload", "gd_affine8_m900_n16"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and "parent:" in proc.stderr
