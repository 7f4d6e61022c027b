"""End-to-end checks of the command line interface.

Everything here drives ``diffeoflow.cli.main`` in process with tiny problem
sizes; one smoke test exercises the installed console script, and two more
check ``python -m diffeoflow`` and the console-script entry without an
install.
"""

import csv
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diffeoflow import ControlGrid, VectorFieldFamily, forward_euler, loss, make_affine8
from diffeoflow.cli import (
    GRADCHECK_TOLERANCE,
    REFERENCE_RESULTS,
    RunConfig,
    ConfigError,
    load_config,
    load_control_csv,
    main,
    run_gradcheck,
    save_control_csv,
)

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
    assert cfg.as_dict()["grid_per_axis"] == 3


def test_load_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, learning_rate=0.1)
    with pytest.raises(ConfigError, match="learning_rate"):
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
        {"batch_size": 0},
        {"gradient_method": "midpoint"},
        {"target": "rotation"},
    ],
)
def test_load_config_validation(tmp_path, overrides):
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_layers", "16"),
        ("n_layers", 16.5),
        ("n_layers", True),
        ("max_iter", 3.0),
        ("batch_size", False),
        ("seed", None),
        ("grid_per_axis", "3"),
        ("test_count", 5.5),
        ("test_seed", [0]),
        ("gamma0", float("inf")),
        ("beta", float("nan")),
        ("nu", "20"),
        ("tau", True),
        pytest.param("grid_side", 10**400, id="grid_side-int_beyond_float"),
        ("rate_constant", float("-inf")),
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


def test_train_seed_override_is_recorded(tmp_path):
    cfg_path = write_config(tmp_path, seed=0)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out), "--seed", "9"]) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["config"]["seed"] == 9


def test_train_abort_leaves_partial_outputs(tmp_path, capsys):
    cfg_path = write_config(tmp_path, gamma0=1e160, algorithm="pmp", beta=0.0)
    out = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    assert (out / "trace.csv").exists()
    assert (out / "control.csv").exists()
    assert not (out / "summary.json").exists()
    assert "error:" in capsys.readouterr().err


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
        self.nu = base.nu

    def values(self, x):
        return self._base.values(x)

    def jacobians(self, x):
        return self._factor * self._base.jacobians(x)

    def _check_index(self, i):
        self._base._check_index(i)

    def value(self, i, x):
        return self._base.value(i, x)

    def jacobian(self, i, x):
        return self._factor * self._base.jacobian(i, x)


def test_gradcheck_flags_corrupted_jacobians(tmp_path):
    cfg = load_config(write_config(tmp_path, beta=0.1, seed=3))
    clean, _, _ = run_gradcheck(cfg)
    assert clean <= GRADCHECK_TOLERANCE
    skewed, _, _ = run_gradcheck(cfg, family=_SkewedJacobians(make_affine8(20.0)))
    assert skewed > 1e-4


def test_gradcheck_rejects_oversized_instances(tmp_path):
    big_layers = load_config(write_config(tmp_path, name="l.json", n_layers=9))
    with pytest.raises(ConfigError, match="layers"):
        run_gradcheck(big_layers)
    big_grid = load_config(write_config(tmp_path, name="g.json", grid_per_axis=4))
    with pytest.raises(ConfigError, match="samples"):
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
    assert "table 1 written" in capsys.readouterr().out

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
    RunConfig().validate()


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
