"""Self-tests of the benchmark, run at the quick sizes."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diffeoflow
from perfbench import bench, checks, tracing, workloads
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_declared_metrics_are_named_with_units_and_workloads_say_why():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    for m in metrics:
        assert METRIC_NAME.fullmatch(m["name"]), m
        assert m["unit"], m
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(w["why"].strip() for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_run_is_correct_and_reports_every_declared_metric(name, trace, tmp_path):
    outcome = bench.run_workload(name, seed=3, seconds=0.0, trace=trace, work_root=tmp_path, quick=True)
    assert outcome.correct, outcome.problems
    assert outcome.drift == 0.0 and outcome.identical
    declared = SPEC["per_layer" if trace else "end_to_end"]
    result = bench.result(outcome, declared)
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert all(v["value"] is not None for v in result["metrics"].values()), result


def _bindings():
    """Every function and family method that tracing may replace, by owner and name."""
    owners = [diffeoflow, np.linalg, *tracing.LAYERS.values()]
    owners += [c for c in vars(tracing.LAYERS["fields"]).values() if isinstance(c, type)]
    return {(id(o), k): v for o in owners for k, v in vars(o).items() if callable(v)}


def test_tracing_keeps_outputs_and_restores_every_binding(tmp_path):
    inputs = workloads.generate_inputs(WORKLOADS["pmp_affine8_m900_n16"], 4, True, tmp_path)
    files = ("trace.csv", "control.csv")
    before = _bindings()
    assert bench.run_command(inputs.argv)[0] == 0
    plain = {f: (inputs.out_dir / f).read_bytes() for f in files}
    original = tracing.LAYERS["flow"].forward_euler
    importers = [diffeoflow] + [tracing.LAYERS[m] for m in ("flow", "objective", "train_gd", "train_pmp", "cli")]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert all(m.forward_euler is not original for m in importers)
        assert bench.run_command(inputs.argv)[0] == 0
    assert {f: (inputs.out_dir / f).read_bytes() for f in files} == plain
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s[tracing.NAME] for s in tracer.spans}
    assert {"cli.main", "fields.values", "flow.backward_covector.implicit", "flow.cond_guard"} <= names


def test_check_trips_on_a_perturbed_trained_control(tmp_path):
    w = WORKLOADS["gd_affine8_m900_n16"]
    inputs = workloads.generate_inputs(w, 5, True, tmp_path)
    assert bench.run_command(inputs.argv)[0] == 0
    checker = bench.Checker(w.name, inputs, quick=True)
    assert checker.check().ok
    path = inputs.out_dir / "control.csv"
    control = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    control[0, 0] += 1e-3
    workloads.write_control_csv(path, control)
    perturbed = checker.check()
    assert not perturbed.ok
    assert perturbed.drift > checks.TOLERANCE and not perturbed.identical


def test_check_trips_on_a_perturbed_eval_control(tmp_path):
    w = WORKLOADS["eval_enriched14_m100k_n32"]
    inputs = workloads.generate_inputs(w, 6, True, tmp_path)
    checker = bench.Checker(w.name, inputs, quick=True)
    control = inputs.control.copy()
    control[0, 0] += 1e-3
    workloads.write_control_csv(Path(inputs.argv[inputs.argv.index("--control") + 1]), control)
    assert bench.run_command(inputs.argv)[0] == 0
    assert not checker.check().ok


def test_command_prints_the_result_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--quick", "--seconds", "0", "--workload", "gd_affine8_m900_n16"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert all(line.startswith("#") for line in lines[:-1])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"} and result["correct"]


def test_command_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gd_affine8_m900_n16"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
