"""End-to-end checks of the command line interface.

Everything here drives ``diffeoflow.cli.main`` in process with tiny problem
sizes; one smoke test exercises the installed console script, and two more
check ``python -m diffeoflow`` and the console-script entry without an
install.
"""

import csv
import dataclasses
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diffeoflow import (
    Affine8,
    ControlGrid,
    TargetMap,
    VectorFieldFamily,
    builtin_target,
    forward_euler,
    loss,
    save_dataset_csv,
    target_from_name,
    target_lipschitz_estimate,
)
from diffeoflow import cli, flow
from diffeoflow.cli import (
    GRADCHECK_TOLERANCE,
    REFERENCE_RESULTS,
    TRACE_COLUMNS,
    RunConfig,
    load_config,
    load_control_csv,
    main,
    run_gradcheck,
    save_control_csv,
)
from diffeoflow.flow import FlowError
from diffeoflow.metrics import lipschitz_estimate
from diffeoflow.objective import Dataset, ObjectiveValue
from diffeoflow.train_gd import IterationRecord, TrainAbort, TrainReport

SMALL = {
    "family": "affine8",
    "n_layers": 4,
    "algorithm": "gd",
    "beta": 1e-3,
    "max_iter": 3,
    "grid_per_axis": 3,
    "test_count": 5,
}


def write_config(tmp_path, name="run.json", **overrides):
    doc = dict(SMALL)
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def read_trace(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_load_config_round_trip(tmp_path):
    path = write_config(tmp_path, seed=11, gamma0=2.0, algorithm="pmp")
    cfg = load_config(path)
    assert cfg.n_layers == 4
    assert cfg.algorithm == "pmp"
    assert cfg.seed == 11
    assert cfg.gamma0 == 2.0
    # untouched keys keep their defaults
    assert cfg.tau == 0.5
    assert cfg.dataset_file is None
    assert dataclasses.asdict(cfg)["grid_per_axis"] == 3


def test_load_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, learning_rate=0.1)
    with pytest.raises(ValueError, match="learning_rate"):
        load_config(path)


@pytest.mark.parametrize(
    "overrides",
    [
        {"family": "cubic99"},
        {"algorithm": "adam"},
        {"tau": 1.0},
        {"c": 0.0},
        {"gamma0": 0.0},
        {"beta": -1e-3},
        {"grid_per_axis": 1},
        {"target": "rotation"},
        {"max_iter": -1},
        {"seed": -1},
        {"test_seed": -1},
    ],
)
def test_load_config_validation(tmp_path, overrides):
    path = write_config(tmp_path, **overrides)
    (field,) = overrides
    with pytest.raises(ValueError, match=f"^{field}: "):
        load_config(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_layers", "16"),
        ("n_layers", 16.5),
        ("n_layers", True),
        ("max_iter", 3.0),
        ("seed", None),
        ("grid_per_axis", "3"),
        ("test_count", 5.5),
        ("test_seed", [0]),
        ("gamma0", float("inf")),
        ("beta", float("nan")),
        ("nu", "20"),
        ("tau", True),
        pytest.param("grid_side", 10**400, id="grid_side-int_beyond_float"),
        ("family", 8),
        ("dataset_file", 5),
    ],
)
def test_wrongly_typed_config_field_exits_two_naming_it(field, value, tmp_path, capsys):
    path = write_config(tmp_path, **{field: value})
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}:"), err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "field, value",
    [("max_iter", -1), ("gamma0", -2.0), ("tau", 1.0), ("c", 1.5)],
)
def test_trainer_field_value_error_exits_two_naming_it(field, value, tmp_path, capsys):
    # Well-typed but out-of-range trainer fields are rejected by TrainConfig;
    # the CLI reports its message as one error line that names the field.
    path = write_config(tmp_path, **{field: value})
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: "), err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "key, value", [("gradient_method", "exact"), ("rate_constant", 0.5), ("batch_size", 4)]
)
def test_removed_config_keys_are_unknown(key, value, tmp_path, capsys):
    path = write_config(tmp_path, **{key: value})
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: unknown config keys: {key}\n"


@pytest.mark.parametrize(
    "command, field", [("train", "seed"), ("train", "test_seed"), ("reproduce-tables", "test_seed")]
)
def test_negative_seed_exits_two_naming_it_before_any_output(command, field, tmp_path, capsys):
    out = tmp_path / "o"
    if command == "train":
        argv = ["train", "--config", str(write_config(tmp_path, **{field: -1})), "--out", str(out)]
    else:
        argv = ["reproduce-tables", "--table", "1", "--test-seed", "-1", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {field}: must be nonnegative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    ["train_config_directory", "eval_control_directory", "train_out_file", "reproduce_tables_out_file"],
)
def test_unusable_path_exits_two_with_one_error_line(command, tmp_path, capsys):
    config = write_config(tmp_path)
    directory = tmp_path / "a_directory"
    directory.mkdir()
    existing = tmp_path / "a_file"
    existing.write_text("x", encoding="utf-8")
    out = str(tmp_path / "o")
    argv = {
        "train_config_directory": ["train", "--config", str(directory), "--out", out],
        "eval_control_directory": ["eval", "--config", str(config), "--control", str(directory), "--out", out],
        "train_out_file": ["train", "--config", str(config), "--out", str(existing)],
        "reproduce_tables_out_file": ["reproduce-tables", "--table", "1", "--max-iter", "0", "--out", str(existing)],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_grid_out_of_memory_exits_two_naming_grid_per_axis(tmp_path, capsys, monkeypatch):
    # Stands in for a grid that cannot be allocated; nothing is allocated for real.
    def out_of_memory(target, side, per_axis):
        raise MemoryError(f"Unable to allocate the {per_axis}x{per_axis} grid")

    monkeypatch.setattr(cli, "make_grid_dataset", out_of_memory)
    config = write_config(tmp_path, grid_per_axis=100000)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid_per_axis: ") and err.count("\n") == 1, err


def test_other_out_of_memory_exits_two_with_one_line(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate the probe Jacobians")

    monkeypatch.setattr(cli, "build_metrics", out_of_memory)
    assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate the probe Jacobians\n"


@pytest.mark.parametrize("field", ["n_layers", "test_count"])
def test_size_too_large_for_memory_exits_two_naming_it(field, tmp_path, capsys):
    # 2**52 rows of floats are petabytes, so the allocation fails at once.
    config = write_config(tmp_path, **{field: 2**52})
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1, err
    assert "does not fit" in err or "do not fit" in err, err


def test_main_exits_two_on_bad_input(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["train", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    unknown = write_config(tmp_path, name="u.json", workers=4)
    assert main(["train", "--config", str(unknown), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 3


def test_train_writes_outputs(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0

    rows = read_trace(out / "trace.csv")
    assert rows[0] == list(
        ("iteration", "cost", "training_error", "testing_error", "gamma", "accepted")
    )
    assert len(rows) == 1 + 1 + SMALL["max_iter"]  # header, initial state, passes
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]

    u = load_control_csv(out / "control.csv")
    assert u.values.shape == (4, 8)

    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["n_train"] == 9
    assert summary["n_test"] == 5
    assert summary["iterations"] == 3
    assert 0 <= summary["accepted"] <= 3
    assert summary["config"]["family"] == "affine8"
    final = summary["final"]
    assert final["cost"] == pytest.approx(final["training_error"] + final["reg_term"])
    assert summary["metrics"]["lipschitz_flow"] >= 1.0
    assert "done:" in capsys.readouterr().out


def test_train_zero_iterations_records_initial_state(tmp_path):
    cfg_path = write_config(tmp_path, max_iter=0)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = read_trace(out / "trace.csv")
    assert len(rows) == 2
    assert rows[1][0] == "0" and rows[1][5] == "1"
    u = load_control_csv(out / "control.csv")
    assert np.all(u.values == 0.0)


def test_train_reruns_are_bit_identical(tmp_path):
    cfg_path = write_config(tmp_path, max_iter=6)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["train", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    for name in ("trace.csv", "control.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    summaries = []
    for out in (out_a, out_b):
        doc = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert doc.pop("wall_clock_seconds") > 0.0
        summaries.append(doc)
    assert summaries[0] == summaries[1]


@pytest.mark.parametrize("algorithm", ["gd", "pmp"])
def test_train_flows_the_training_set_once_per_proposal_and_once_for_lipschitz(
    algorithm, tmp_path, monkeypatch
):
    # The training set, with the held-out cloud below it, is flowed once at
    # the start and, by the gradient flow, once per proposal; the sweep flows
    # its proposals itself.  No trajectory outlives the trainer, so the
    # summary's Lipschitz constant flows the training sources alone once
    # more, in ``variational_jacobian``, which stores no trajectory, and is
    # the estimate at them.
    flowed = {"forward_euler": [], "variational_jacobian": []}

    def counting(real, calls):
        def run(family, u, sources, **kwargs):
            calls.append(np.array(sources))
            return real(family, u, sources, **kwargs)

        return run

    wrapped = {name: (getattr(flow, name), counting(getattr(flow, name), calls)) for name, calls in flowed.items()}
    for module_name in ("", ".flow", ".objective", ".train_gd", ".train_pmp", ".metrics", ".cli"):
        module = importlib.import_module(f"diffeoflow{module_name}")
        for name, (real, run) in wrapped.items():
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, run)
    assert importlib.import_module("diffeoflow").forward_euler is wrapped["forward_euler"][1]
    cfg_path = write_config(tmp_path, algorithm=algorithm, max_iter=4)
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
    passes = len(read_trace(tmp_path / "run" / "trace.csv")) - 2  # the header and row 0
    assert passes == 4
    assert len(flowed["forward_euler"]) == (1 + passes if algorithm == "gd" else 1)
    family, _, train, test = cli.build_problem(load_config(cfg_path))
    stacked = np.concatenate([train.sources, test.sources])
    assert all(np.array_equal(sources, stacked) for sources in flowed["forward_euler"])
    assert len(flowed["variational_jacobian"]) == 1
    assert np.array_equal(flowed["variational_jacobian"][0], train.sources)

    summary = json.loads((tmp_path / "run" / "summary.json").read_text(encoding="utf-8"))
    control = load_control_csv(tmp_path / "run" / "control.csv")
    assert summary["metrics"]["lipschitz_flow"] == lipschitz_estimate(family, control, train.sources)


def test_train_abort_leaves_partial_outputs(tmp_path, capsys):
    # |x|^2 overflows at the far test point, so the quadratic fields of
    # enriched14 are inf * 0 there and the initial test-cloud flow fails.
    far = np.array([[1e200, 0.0], [0.5, 0.5]])
    save_dataset_csv(tmp_path / "test.csv", Dataset(far, far))
    cfg_path = write_config(tmp_path, family="enriched14", test_file=str(tmp_path / "test.csv"))
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    assert read_trace(out / "trace.csv") == [list(TRACE_COLUMNS)]
    assert (out / "control.csv").exists()
    assert not (out / "summary.json").exists()
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: flow failed at training pass 0: non-finite state for sample 0 at layer 1; "
                   "the flow overflowed, reduce the step size or the controls"]


def test_gradcheck_command_passes_on_clean_instance(tmp_path, capsys):
    cfg_path = write_config(tmp_path, beta=0.1, seed=3)
    assert main(["gradcheck", "--config", str(cfg_path)]) == 0
    assert "gradcheck OK" in capsys.readouterr().out


class _SkewedJacobians(VectorFieldFamily):
    """Delegate a field family but rescale its Jacobians.

    The forward flow stays intact while every covector transport step picks
    up a systematic error, which the finite-difference comparison must flag.
    The contractions are the base class's dense ones, so the flow's layer
    matrices see the skewed Jacobians.
    """

    kind = "skewed"

    def __init__(self, base, factor=1.01):
        self._base = base
        self._factor = factor
        self.n_fields = base.n_fields
        self.dim = base.dim

    def values(self, x):
        return self._base.values(x)

    def jacobians(self, x):
        return self._factor * self._base.jacobians(x)


def test_gradcheck_flags_corrupted_jacobians(tmp_path, monkeypatch):
    cfg = load_config(write_config(tmp_path, beta=0.1, seed=3))
    clean, _, _ = run_gradcheck(cfg)
    assert clean <= GRADCHECK_TOLERANCE
    monkeypatch.setattr(cli, "family_from_name", lambda name, nu: _SkewedJacobians(Affine8(nu)))
    skewed, _, _ = run_gradcheck(cfg)
    assert skewed > 1e-4


def test_gradcheck_rejects_oversized_instances(tmp_path):
    big_layers = load_config(write_config(tmp_path, name="l.json", n_layers=9))
    with pytest.raises(ValueError, match="layers"):
        run_gradcheck(big_layers)
    big_grid = load_config(write_config(tmp_path, name="g.json", grid_per_axis=4))
    with pytest.raises(ValueError, match="samples"):
        run_gradcheck(big_grid)


def test_eval_with_zero_control_reports_plain_target_mismatch(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    control_path = tmp_path / "zero.csv"
    save_control_csv(control_path, ControlGrid(np.zeros((4, 8))))
    out = tmp_path / "ev"
    code = main(
        ["eval", "--config", str(cfg_path), "--control", str(control_path), "--out", str(out)]
    )
    assert code == 0
    with open(out / "eval.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "mapped1", "mapped2", "y1", "y2", "point_loss"]
    assert len(rows) == 1 + 9
    for row in rows[1:]:
        x = np.array([float(row[0]), float(row[1])])
        mapped = np.array([float(row[2]), float(row[3])])
        y = np.array([float(row[4]), float(row[5])])
        # zero control flows nowhere
        assert np.array_equal(mapped, x)
        assert float(row[6]) == pytest.approx(float(loss(x - y)), rel=1e-15)
    assert "mean error" in capsys.readouterr().out


def test_eval_applies_trained_control(tmp_path):
    cfg_path = write_config(tmp_path, max_iter=10)
    run_out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run_out)]) == 0
    out = tmp_path / "ev"
    code = main(
        [
            "eval",
            "--config",
            str(cfg_path),
            "--control",
            str(run_out / "control.csv"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    u = load_control_csv(run_out / "control.csv")
    cfg = load_config(cfg_path)
    from diffeoflow.cli import build_problem

    family, _, train, _ = build_problem(cfg)
    endpoints = forward_euler(family, u, train.sources)[:, -1]
    with open(out / "eval.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    mapped = np.array([[float(r[2]), float(r[3])] for r in rows])
    np.testing.assert_allclose(mapped, endpoints, rtol=0, atol=0)


def test_eval_does_not_read_the_test_file(tmp_path):
    cfg_path = write_config(tmp_path, test_file=str(tmp_path / "missing.csv"))
    control_path = tmp_path / "zero.csv"
    save_control_csv(control_path, ControlGrid(np.zeros((4, 8))))
    out = tmp_path / "ev"
    assert main(["eval", "--config", str(cfg_path), "--control", str(control_path), "--out", str(out)]) == 0
    assert (out / "eval.csv").exists()


def test_eval_rejects_control_width_mismatch(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    control_path = tmp_path / "narrow.csv"
    save_control_csv(control_path, ControlGrid(np.zeros((4, 3))))
    code = main(
        [
            "eval",
            "--config",
            str(cfg_path),
            "--control",
            str(control_path),
            "--out",
            str(tmp_path / "ev"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "field columns" in err and "narrow.csv" in err and "affine8" in err


DATASET_HEADER = b"x1,x2,y1,y2\r\n"
CONTROL_HEADER = b",".join(b"u%d" % (i + 1) for i in range(8)) + b"\r\n"


@pytest.mark.parametrize(
    "which, content",
    [
        pytest.param("dataset_file", b"", id="dataset_file"),
        pytest.param("control", b"", id="control"),
        pytest.param("dataset_file", DATASET_HEADER, id="dataset_file-header_only"),
        pytest.param("test_file", DATASET_HEADER + b"\r\n", id="test_file-header_only"),
        pytest.param("control", CONTROL_HEADER, id="control-header_only"),
    ],
)
def test_empty_csv_is_a_bad_input(which, content, tmp_path, capsys):
    empty = tmp_path / "empty_input.csv"
    empty.write_bytes(content)
    out = str(tmp_path / "out")
    if which == "control":
        argv = ["eval", "--config", str(write_config(tmp_path)), "--control", str(empty), "--out", out]
    else:
        argv = ["train", "--config", str(write_config(tmp_path, **{which: str(empty)})), "--out", out]
    assert main(argv) == 2
    assert "empty_input.csv" in capsys.readouterr().err


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize(
    "command, which", [("train", "dataset_file"), ("train", "test_file"), ("eval", "dataset_file"),
                       ("gradcheck", "dataset_file")]
)
def test_non_planar_dataset_exits_two_with_one_line_naming_the_file(command, which, dim, tmp_path, capsys):
    bad = tmp_path / f"cloud{dim}d.csv"
    rows = np.arange(8.0 * dim).reshape(4, 2 * dim).tolist()
    header = [f"x{i + 1}" for i in range(dim)] + [f"y{i + 1}" for i in range(dim)]
    bad.write_text("\n".join([",".join(header)] + [",".join(map(repr, row)) for row in rows]) + "\n")
    control = tmp_path / "zero.csv"
    save_control_csv(control, ControlGrid(np.zeros((4, 8))))
    argv = [command, "--config", str(write_config(tmp_path, **{which: str(bad)}))]
    argv += {"train": ["--out", str(tmp_path / "out")], "gradcheck": [],
             "eval": ["--control", str(control), "--out", str(tmp_path / "ev")]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(bad) in err, err
    assert f"got shape (4, {dim})" in err, err


def test_control_csv_round_trip(tmp_path):
    rng = np.random.Generator(np.random.Philox(5))
    u = ControlGrid(rng.standard_normal((6, 14)))
    path = tmp_path / "u.csv"
    save_control_csv(path, u)
    back = load_control_csv(path)
    assert np.array_equal(back.values, u.values)
    assert path.read_text(encoding="utf-8").splitlines()[0].startswith("u1,u2,")


def test_load_control_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_control_csv(path)


def test_reproduce_tables_smoke(tmp_path, capsys):
    out = tmp_path / "tables"
    code = main(
        [
            "reproduce-tables",
            "--table",
            "1",
            "--out",
            str(out),
            "--max-iter",
            "2",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "table 1 written" in lines[-1]
    progress = re.compile(r"table 1, beta (\S+): training error \d+\.\d{4}, Lipschitz \d+\.\d{2}, \d+\.\d s")
    runs = [progress.fullmatch(line) for line in lines[:-1]]
    assert all(runs) and [m.group(1) for m in runs] == ["1", "0.1", "0.01", "0.001", "0.0001"], lines

    with open(out / "table1.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 5
    header = rows[0]
    betas = [float(r[header.index("beta")]) for r in rows[1:]]
    assert betas == [1e0, 1e-1, 1e-2, 1e-3, 1e-4]
    for row in rows[1:]:
        beta = float(row[header.index("beta")])
        ref = REFERENCE_RESULTS[1][beta]
        assert float(row[header.index("ref_lipschitz")]) == ref[0]
        assert float(row[header.index("ref_training_error")]) == ref[1]
        assert float(row[header.index("ref_testing_error")]) == ref[2]

    md = (out / "table1.md").read_text(encoding="utf-8")
    assert md.count("\n") >= 9
    assert "affine8" in md
    for beta in betas:
        assert (out / f"table1_beta{beta:g}" / "summary.json").exists()


def test_reproduce_tables_abort_keeps_finished_runs_and_writes_no_table(tmp_path, capsys, monkeypatch):
    # Table 1's beta-0.1 run aborts with a one-row partial report; the beta-1
    # run before it stays complete and the sweep stops before any table file.
    real_run_training = cli.run_training

    def abort_at_beta_0_1(cfg):
        if cfg.beta != 0.1:
            return real_run_training(cfg)
        row = IterationRecord(0, math.inf, math.inf, math.inf, cfg.gamma0, True)
        inf_cost = ObjectiveValue(math.inf, math.inf, math.inf)
        partial = TrainReport([row], ControlGrid.zeros(cfg.n_layers, 8), inf_cost)
        raise TrainAbort("flow failed at training pass 0: injected", partial, FlowError("injected"))

    monkeypatch.setattr(cli, "run_training", abort_at_beta_0_1)
    out = tmp_path / "tables"
    assert main(["reproduce-tables", "--table", "1", "--max-iter", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: table 1, beta 0.1: flow failed at training pass 0: injected"
    ]
    assert sorted(p.name for p in (out / "table1_beta1").iterdir()) == [
        "control.csv", "summary.json", "trace.csv"
    ]
    assert sorted(p.name for p in (out / "table1_beta0.1").iterdir()) == ["control.csv", "trace.csv"]
    assert len(read_trace(out / "table1_beta0.1" / "trace.csv")) == 2  # header and the one row
    assert not (out / "table1.csv").exists() and not (out / "table1.md").exists()


def test_console_script_help():
    proc = subprocess.run(
        ["diffeoflow", "--help"], capture_output=True, text=True, check=False
    )
    assert proc.returncode == 0
    for word in ("train", "reproduce-tables", "gradcheck", "eval"):
        assert word in proc.stdout


SRC = Path(__file__).resolve().parent.parent / "src"


def test_module_entry_point_help_without_install(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "diffeoflow", "--help"],
        capture_output=True, text=True, check=False, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    for word in ("train", "reproduce-tables", "gradcheck", "eval"):
        assert word in proc.stdout


def run_warnings_as_errors(tmp_path, *args):
    """Run ``python -W error -m diffeoflow`` with the given arguments."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "diffeoflow", *args],
        capture_output=True, text=True, check=False, env=env, cwd=tmp_path,
    )


def test_overflowing_sweep_is_a_rejected_row_under_warnings_as_errors(tmp_path):
    # The sweep with gamma0 5 on enriched14 (nu 5) overflows at pass 3; with
    # warnings turned into errors, any numpy RuntimeWarning would end the
    # run in a traceback instead of a rejected row.
    cfg_path = write_config(
        tmp_path, family="enriched14", nu=5.0, algorithm="pmp", n_layers=10,
        grid_per_axis=12, gamma0=5.0, beta=1e-3, max_iter=10, test_count=20,
    )
    proc = run_warnings_as_errors(tmp_path, "train", "--config", str(cfg_path), "--out", "run")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    header, *rows = read_trace(tmp_path / "run" / "trace.csv")
    row = dict(zip(header, rows[3]))
    assert (row["iteration"], row["cost"], row["training_error"], row["accepted"]) == ("3", "inf", "inf", "0")
    assert float(dict(zip(header, rows[4]))["gamma"]) == 0.5 * float(row["gamma"])


@pytest.mark.parametrize(
    "cloud, side",
    [("grid", 60.0), ("test cloud", 60.0), ("grid", 30.0), ("test cloud", 30.0)],
    ids=["grid", "test cloud", "grid-jacobian", "test cloud-jacobian"],
)
def test_square_too_large_for_the_target_exits_two_naming_grid_side(cloud, side, tmp_path):
    # On a square of side 60 the builtin target overflows, on one of side 30
    # only its Jacobian does; either way the check of the Jacobian at the
    # corners names grid_side before any point is drawn.  With a dataset
    # file only the held-out cloud is drawn on that square.
    extra = {}
    if cloud == "test cloud":
        data = Dataset(np.array([[0.0, 0.0], [0.5, 0.5]]), np.array([[1.0, 1.0], [1.0, 1.5]]))
        save_dataset_csv(tmp_path / "data.csv", data)
        extra["dataset_file"] = str(tmp_path / "data.csv")
    cfg_path = write_config(tmp_path, grid_side=side, **extra)
    proc = run_warnings_as_errors(tmp_path, "train", "--config", str(cfg_path), "--out", "run")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: grid_side: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert not (tmp_path / "run" / "trace.csv").exists()  # rejected before training


@pytest.mark.parametrize("cloud", ["grid", "test cloud"])
def test_collapsing_square_exits_two_naming_grid_side(cloud, tmp_path):
    # A square of side 1e-322 holds about 21 distinct values per axis, so the
    # 30**2 grid points collide, and so do two of the 5 points that test_seed
    # 129 draws for the held-out cloud of a dataset file run.
    extra = {}
    if cloud == "test cloud":
        data = Dataset(np.array([[0.0, 0.0], [0.5, 0.5]]), np.array([[1.0, 1.0], [1.0, 1.5]]))
        save_dataset_csv(tmp_path / "data.csv", data)
        extra = {"dataset_file": str(tmp_path / "data.csv"), "test_seed": 129}
    cfg_path = write_config(tmp_path, grid_side=1e-322, grid_per_axis=30, **extra)
    proc = run_warnings_as_errors(tmp_path, "train", "--config", str(cfg_path), "--out", "run")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: grid_side: no usable dataset of the builtin target "), proc.stderr
    assert proc.stderr.endswith(": source points must be pairwise distinct\n"), proc.stderr
    assert proc.stderr.count("\n") == 1
    assert not (tmp_path / "run" / "trace.csv").exists()


@pytest.mark.parametrize("side", [0.3, 1.5, 10.0])
@pytest.mark.parametrize("per_axis", [2, 5, 30, 100])
@pytest.mark.parametrize("target", ["builtin", "identity"])
def test_square_check_gives_the_grid_wide_target_lipschitz(target, per_axis, side, tmp_path):
    cfg = load_config(write_config(tmp_path, target=target, grid_per_axis=per_axis, grid_side=side))
    _, lipschitz_target, train, _ = cli.build_problem(cfg)
    want = target_lipschitz_estimate(target_from_name(target), train.sources)
    assert np.array_equal(np.float64(lipschitz_target).view(np.int64), np.float64(want).view(np.int64))


def test_dataset_file_run_has_no_target_lipschitz_with_the_test_cloud_on_the_square(tmp_path):
    data = Dataset(np.array([[0.0, 0.0], [0.5, 0.5]]), np.ones((2, 2)))
    save_dataset_csv(tmp_path / "data.csv", data)
    cfg = load_config(write_config(tmp_path, dataset_file=str(tmp_path / "data.csv")))
    _, lipschitz_target, _, test = cli.build_problem(cfg)
    assert lipschitz_target is None
    assert test.n_samples == SMALL["test_count"]  # drawn on the square, which was checked


def test_train_evaluates_the_target_jacobian_once_at_the_four_corners(tmp_path, monkeypatch):
    shapes = []
    jacobian = TargetMap.jacobian
    monkeypatch.setattr(TargetMap, "jacobian", lambda t, x: shapes.append(np.shape(x)) or jacobian(t, x))
    cfg_path = write_config(tmp_path, grid_per_axis=30)
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
    assert shapes == [(4, 2)]
    summary = json.loads((tmp_path / "run" / "summary.json").read_text(encoding="utf-8"))
    _, _, train, _ = cli.build_problem(load_config(cfg_path))
    want = target_lipschitz_estimate(builtin_target(), train.sources)
    assert summary["metrics"]["lipschitz_target"] == want


def test_train_has_no_seed_flag(tmp_path):
    cfg_path = write_config(tmp_path)
    proc = run_warnings_as_errors(tmp_path, "train", "--config", str(cfg_path), "--out", "run", "--seed", "9")
    assert proc.returncode == 2
    assert "error: unrecognized arguments: --seed 9" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_overflowing_eval_exits_one_with_one_error_line(tmp_path):
    cfg_path = write_config(tmp_path, family="enriched14", nu=5.0, n_layers=4, grid_per_axis=5, test_count=0)
    control_path = tmp_path / "huge.csv"
    save_control_csv(control_path, ControlGrid(np.full((4, 14), 1e150)))
    proc = run_warnings_as_errors(
        tmp_path, "eval", "--config", str(cfg_path), "--control", str(control_path), "--out", "ev"
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: non-finite state for sample 0 at layer 3;")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not (tmp_path / "ev").exists()


def test_overflowing_gradcheck_exits_one_with_one_error_line(tmp_path):
    huge = np.array([[1e308, 1e308], [-1e308, 1e308]])
    save_dataset_csv(tmp_path / "huge.csv", Dataset(huge, huge))
    cfg_path = write_config(tmp_path, n_layers=1, dataset_file=str(tmp_path / "huge.csv"), test_count=0)
    proc = run_warnings_as_errors(tmp_path, "gradcheck", "--config", str(cfg_path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: non-finite state for sample 1 at layer 1;")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_overflowing_gradient_step_is_a_rejected_row_under_warnings_as_errors(tmp_path):
    # With gamma0 1e308 the step gamma * grad overflows, so the proposed
    # control itself is not finite: the pass is rejected like a flow overflow.
    src = np.array([[100.0, 50.0], [80.0, -30.0], [-60.0, 20.0]])
    save_dataset_csv(tmp_path / "far.csv", Dataset(src, src + 5.0))
    cfg_path = write_config(
        tmp_path, n_layers=4, beta=0.0, gamma0=1e308, max_iter=3, target="identity",
        test_count=0, dataset_file=str(tmp_path / "far.csv"),
    )
    proc = run_warnings_as_errors(tmp_path, "train", "--config", str(cfg_path), "--out", "run")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    header, *rows = read_trace(tmp_path / "run" / "trace.csv")
    assert [(r[0], r[1], r[-1]) for r in rows[1:]] == [(str(i), "inf", "0") for i in (1, 2, 3)]


def test_dataset_file_summary_is_strict_json_with_null_bounds(tmp_path):
    # The builtin target's Jacobian overflows at |z1| > ~26.6; the grid
    # bounds describe the config's grid, not the file, so none is computed.
    rows = np.array([[60.0, 0.0, 60.0, 0.0], [0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0]])
    save_dataset_csv(tmp_path / "far.csv", Dataset(rows[:, :2], rows[:, 2:]))
    cfg_path = write_config(
        tmp_path, n_layers=2, max_iter=1, test_count=0, dataset_file=str(tmp_path / "far.csv")
    )
    proc = run_warnings_as_errors(tmp_path, "train", "--config", str(cfg_path), "--out", "run")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    text = (tmp_path / "run" / "summary.json").read_text(encoding="utf-8")
    metrics = json.loads(text, parse_constant=reject)["metrics"]
    for key in ("lipschitz_target", "w1_bound", "generalization_bound"):
        assert metrics[key] is None, key
    assert np.isfinite(metrics["lipschitz_flow"])


def test_gradcheck_far_from_the_origin_runs_under_warnings_as_errors(tmp_path):
    # |x|^2 overflows in the Gaussian weight, whose limit exp(-inf) = 0 is exact.
    src = np.array([[1e308, 1e308], [-1e308, 5e307]])
    save_dataset_csv(tmp_path / "far.csv", Dataset(src, np.array([[0.0, 0.0], [1.0, 1.0]])))
    cfg_path = write_config(
        tmp_path, n_layers=1, seed=1, test_count=0, dataset_file=str(tmp_path / "far.csv")
    )
    proc = run_warnings_as_errors(tmp_path, "gradcheck", "--config", str(cfg_path))
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert proc.stdout.startswith("gradcheck MISMATCH: ") and proc.stdout.count("\n") == 1


def test_reproduce_table_6_runs_under_warnings_as_errors(tmp_path):
    # The beta 0.1 sweep of table 6 overflows at pass 2; that pass is a
    # rejected row and every run of the table finishes.
    proc = run_warnings_as_errors(tmp_path, "reproduce-tables", "--table", "6", "--max-iter", "3", "--out", "t")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    header, *rows = read_trace(tmp_path / "t" / "table6_beta0.1" / "trace.csv")
    assert [dict(zip(header, r))["cost"] for r in rows].count("inf") >= 1
    assert len(read_trace(tmp_path / "t" / "table6.csv")) == 1 + 5


def test_console_script_entry_resolves_to_cli_main():
    section, scripts = None, {}
    for line in (SRC.parent / "pyproject.toml").read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            name, target = (part.strip().strip('"') for part in line.split("=", 1))
            scripts[name] = target
    assert scripts == {"diffeoflow": "diffeoflow.cli:main"}
    module, attr = scripts["diffeoflow"].split(":")
    assert getattr(importlib.import_module(module), attr) is main


def test_run_config_defaults_are_valid():
    RunConfig()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["nu", "grid_side"])
def test_run_config_rejects_non_finite_widths_naming_the_field(name, value):
    with pytest.raises(ValueError, match=f"^{name}: must be positive and finite"):
        RunConfig(**{name: value})


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
