"""Smoke test of the alternating-pairs benchmark script."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
VERDICTS = ("gain shown", "no regression", "regression", "unresolved")


def load_ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "bench" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_a_a_pairs_of_two_workloads_report_every_metric_with_quartiles_and_wins():
    workloads = ["pmp_affine8_m900_n16", "gd_affine8_m900_n16"]
    proc = subprocess.run(
        [sys.executable, "bench/ab_pairs.py", ".", ".", "--workload", workloads[0], "--workload", workloads[1],
         "--pairs", "1", "--seconds", "0", "--quick", "--seed-base", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr
    runs, blocks, block = [], {}, None
    for line in proc.stdout.splitlines():
        if line.startswith("# pair "):
            runs.append(line)
            block = None
        elif re.match(r"# \S+, 1 pairs, ", line):
            block = blocks.setdefault(line.split()[1][:-1], [])
        else:
            block.append(line)
    assert list(blocks) == workloads  # in the order given, each after its own pairs
    assert [line.split()[5] for line in runs] == ["parent:", "change:"] * 2
    assert all(line.startswith("# pair 1 seed 3 ") and "correct True failed 0/" in line for line in runs)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    for lines in blocks.values():
        rows = {line.split()[0]: line.split() for line in lines if not line.startswith("#")}
        assert {m["name"] for m in declared} <= set(rows)
        for m in declared:
            row = rows[m["name"]]
            assert row[1] == m["unit"] and row[-1] in ("0/1", "1/1")
            assert row[2] == row[3][1:-1] == row[4][:-1]  # one value is its own median and quartiles
        verdicts = dict(line[len("# verdict "):].split(": ", 1) for line in lines
                        if line.startswith("# verdict "))
        assert set(verdicts) == {m["name"] for m in declared}
        assert all(v.startswith(VERDICTS) for v in verdicts.values())


def test_unknown_workload_is_refused():
    proc = subprocess.run(
        [sys.executable, "bench/ab_pairs.py", ".", ".", "--workload", "gd_affine8_m900_n16", "--workload", "nope"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and "unknown workload nope" in proc.stderr


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


@pytest.mark.parametrize("change, better, want", [
    ([0.7 + 0.001 * i for i in range(10)], "lower", "gain shown"),
    ([1.3 + 0.001 * i for i in range(10)], "higher", "gain shown"),
    ([0.7] * 8 + [1.5] * 2, "lower", "no regression"),  # 8/10 wins are too few
    (PARENT[1:] + PARENT[:1], "lower", "no regression"),
    ([1.3] * 10, "lower", "regression"),
    ([0.7] * 10, "higher", "regression"),
])
def test_verdict_applies_each_rule(change, better, want):
    got = load_ab_pairs().verdict(list(zip(PARENT, change)), better, 0.25)
    assert got.split(" (")[0] == want


def test_verdict_is_unresolved_when_the_parent_spreads_wider_than_the_bound():
    ab_pairs = load_ab_pairs()
    parent = [0.6, 1.0, 1.4, 0.6, 1.0, 1.4, 0.6, 1.0, 1.4, 1.0]
    assert ab_pairs.verdict(list(zip(parent, parent[::-1])), "lower", 0.25).startswith("unresolved")
    # unless every run of the change is better than every run of the parent; a
    # median gap (0.55) inside the parent's IQR (0.6) still shows no gain
    faster = [0.5 - 0.01 * i for i in range(10)]
    assert ab_pairs.verdict(list(zip(parent, faster)), "lower", 0.25).startswith("no regression")


def test_bad_checkout_is_refused():
    proc = subprocess.run(
        [sys.executable, "bench/ab_pairs.py", "src", ".", "--workload", "gd_affine8_m900_n16"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and "parent:" in proc.stderr


def test_trace_runs_one_traced_run_per_side_and_prints_every_declared_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "bench/ab_pairs.py", ".", ".", "--workload", "gd_affine8_m900_n16",
         "--pairs", "1", "--seconds", "0", "--quick", "--seed-base", "5", "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    start = lines.index("# gd_affine8_m900_n16, one traced run per side, --seconds 0, seed 5")
    assert lines[start + 1].split() == ["metric", "unit", "parent", "change", "change"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    rows = [line.split() for line in lines[start + 2:]]
    assert [row[:2] for row in rows] == [[m["name"], m["unit"]] for m in declared]
    calls = next(row for row in rows if row[0] == "objective.control_gradient.calls")
    assert float(calls[2]) > 0 and calls[2] == calls[3] and calls[4] == "+0.0%"


def test_trace_table_gives_the_change_of_each_metric_and_n_a_without_a_base():
    ab_pairs = load_ab_pairs()
    declared = [{"name": "a.s", "unit": "s"}, {"name": "b.calls", "unit": "count"}, {"name": "c.s", "unit": "s"}]
    traced = {
        "parent": {"metrics": {"a.s": {"value": 2.0}, "b.calls": {"value": 0.0}, "c.s": {"value": None}}},
        "change": {"metrics": {"a.s": {"value": 1.5}, "b.calls": {"value": 0.0}, "c.s": {"value": 1.0}}},
    }
    rows = [line.split() for line in ab_pairs.trace_table(traced, declared)[1:]]
    assert rows == [["a.s", "s", "2", "1.5", "-25.0%"], ["b.calls", "count", "0", "0", "n/a"],
                    ["c.s", "s", "n/a", "1", "n/a"]]
