"""Fuzzed exit-code contract: a malformed input exits 2 with one line naming it.

Each case takes a valid config, dataset CSV or control CSV and breaks it in
one way: a wrongly typed or out-of-range config value, an unknown key, a
root that is not an object, a truncated document, a byte that is not UTF-8,
a ragged row, a wrong header, a cell that is not finite or not a number,
repeated source points, the wrong dimension or an empty file.  It then runs
``cli.main`` in process with every warning turned into an error and checks
the documented contract: exit code 2 and exactly one stderr line, which
starts with ``error:`` and names the config field or the path of the bad
file.  Cases are drawn from a Philox stream at import, so each one
reproduces from its id.

A second test runs valid but extreme inputs, which may overflow: they must
exit 0, or 1 with one ``error:`` line, and never raise a numpy warning.
"""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from diffeoflow import ControlGrid, builtin_target, make_grid_dataset, save_dataset_csv
from diffeoflow.cli import RunConfig, main, save_control_csv
from diffeoflow.objective import Dataset

N_CASES = 300


def pick(rng, choices):
    return choices[int(rng.integers(len(choices)))]


BASE = {
    "family": "affine8",
    "n_layers": 4,
    "algorithm": "gd",
    "beta": 1e-3,
    "max_iter": 3,
    "grid_per_axis": 3,
    "test_count": 5,
}

KINDS = {f.name: f.type.partition(" | ")[0] for f in dataclasses.fields(RunConfig)}
OPTIONAL = {f.name for f in dataclasses.fields(RunConfig) if f.type.endswith("| None")}

WRONG_TYPES = {
    "int": ["4", 2.5, 4.0, True, [1], {"n": 1}, float("inf")],
    "float": ["0.5", True, [0.5], {"x": 0.5}, float("nan"), float("inf"), -float("inf"), 10**400],
    "str": [1, 2.5, False, ["affine8"], {"s": "gd"}],
}

# Integers of magnitude 2**53 and above fail the type check of every int field.
HUGE_INTS = [2**53, 2**63, 10**22, -(2**60)]


# A value each field rejects, drawn with rng.
OUT_OF_RANGE = {
    "n_layers": lambda rng: int(rng.integers(-10, 1)),
    "grid_per_axis": lambda rng: int(rng.integers(-10, 2)),
    "test_count": lambda rng: int(rng.integers(-10, 0)),
    "max_iter": lambda rng: int(rng.integers(-10, 0)),
    "seed": lambda rng: int(rng.integers(-10, 0)),
    "test_seed": lambda rng: int(rng.integers(-10, 0)),
    "beta": lambda rng: -float(rng.uniform(1e-9, 10.0)),
    "gamma0": lambda rng: -float(rng.uniform(0.0, 10.0)),
    "nu": lambda rng: -float(rng.uniform(0.0, 10.0)),
    "grid_side": lambda rng: -float(rng.uniform(0.0, 10.0)),
    "tau": lambda rng: pick(rng, [0.0, 1.0, -0.5, 1.5, float(rng.uniform(1.0, 5.0))]),
    "c": lambda rng: pick(rng, [0.0, 1.0, -0.5, 1.5, float(rng.uniform(1.0, 5.0))]),
    "family": lambda rng: pick(rng, ["affine9", "Affine8", "", "enriched", " affine8"]),
    "algorithm": lambda rng: pick(rng, ["sgd", "GD", "", "pmp ", "adam"]),
    "target": lambda rng: pick(rng, ["rotation", "Builtin", "", "identity2"]),
}

DATASET_MUTATIONS = ["ragged", "wrong_header", "non_finite", "non_numeric", "duplicate_source",
                     "wrong_dimension", "not_utf8", "empty"]
CONTROL_MUTATIONS = ["ragged", "wrong_header", "non_finite", "non_numeric", "wrong_dimension",
                     "not_utf8", "empty"]
CONFIG_MUTATIONS = ["wrong_type", "out_of_range", "huge_int", "unknown_key", "unusable_path",
                    "non_object_root", "truncated", "not_utf8"]
MUTATIONS = (
    [("config", m) for m in CONFIG_MUTATIONS]
    + [(what, m) for what in ("dataset_file", "test_file") for m in DATASET_MUTATIONS]
    + [("control", m) for m in CONTROL_MUTATIONS]
)


def draw_case(rng, what, mutation):
    """One case: (input, mutation, command, config field, seed for the mutation's details)."""
    commands = ["train", "gradcheck", "eval"]
    field = None
    if what == "control":
        commands = ["eval"]
    elif what == "test_file":
        commands = ["train"]  # eval and gradcheck never read the test file
    elif mutation == "wrong_type":
        field = pick(rng, sorted(KINDS))
    elif mutation == "huge_int":
        field = pick(rng, sorted(f for f, kind in KINDS.items() if kind == "int"))
    elif mutation == "out_of_range":
        field = pick(rng, sorted(OUT_OF_RANGE))
    return what, mutation, pick(rng, commands), field, int(rng.integers(2**32))


# Every mutation in turn, so each is drawn about equally often.
_stream = np.random.Generator(np.random.Philox(20211))
CASES = [draw_case(_stream, *MUTATIONS[i % len(MUTATIONS)]) for i in range(N_CASES)]


def case_id(case):
    what, mutation, command, field, seed = case
    return "-".join(str(p) for p in (what, mutation, field, command, seed) if p is not None)


def dataset_lines(rng, dim=2):
    """The text lines of a valid dataset CSV: header first, one sample per row."""
    if dim == 2:
        data = make_grid_dataset(builtin_target(), side=1.5, per_axis=3)
        rows = np.hstack([data.sources, data.targets])
    else:  # written directly, since a Dataset refuses points that are not planar
        sources = rng.uniform(-1.0, 1.0, size=(9, dim))
        rows = np.hstack([sources, 2.0 * sources])
    header = [f"x{i + 1}" for i in range(dim)] + [f"y{i + 1}" for i in range(dim)]
    return [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in rows]


def control_lines(rng, n_fields=8):
    values = rng.uniform(-0.1, 0.1, size=(BASE["n_layers"], n_fields))
    header = [f"u{i + 1}" for i in range(n_fields)]
    return [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in values]


def set_cell(lines, rng, text):
    row = int(rng.integers(1, len(lines)))
    cells = lines[row].split(",")
    cells[int(rng.integers(len(cells)))] = text
    lines[row] = ",".join(cells)


def mutate_table(lines, mutation, rng, what):
    """Break a CSV's lines in one way and return the file's bytes."""
    lines = list(lines)
    if mutation == "ragged":
        row = int(rng.integers(1, len(lines)))
        cells = lines[row].split(",")
        lines[row] = ",".join(cells[:-1] if rng.uniform() < 0.5 else cells + ["0.5"])
    elif mutation == "wrong_header":
        names = lines[0].split(",")
        choice = pick(rng, range(4))
        if choice == 0:
            names = names[:-1]
        elif choice == 1:
            names = names + [names[-1][0] + str(len(names) + 1)]
        elif choice == 2:
            names[0], names[-1] = names[-1], names[0]
        else:
            names[pick(rng, range(len(names)))] = pick(rng, ["a", "z1", "x", "", "u0", "x1 "])
        lines[0] = ",".join(names)
    elif mutation == "non_finite":
        set_cell(lines, rng, pick(rng, ["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e999"]))
    elif mutation == "non_numeric":
        set_cell(lines, rng, pick(rng, ["abc", "1.2.3", "--1", "0x10", "", " ", "1e", "one"]))
    elif mutation == "duplicate_source":
        i, j = rng.choice(np.arange(1, len(lines)), size=2, replace=False)
        src, dst = lines[i].split(","), lines[j].split(",")
        lines[j] = ",".join(src[:2] + dst[2:])
    elif mutation == "wrong_dimension":
        if what == "control":
            lines = control_lines(rng, n_fields=pick(rng, [1, 7, 9, 14]))
        else:
            lines = dataset_lines(rng, dim=pick(rng, [1, 3]))
    elif mutation == "empty":
        return b"" if rng.uniform() < 0.5 else (lines[0] + "\r\n").encode()
    data = ("\r\n".join(lines) + "\r\n").encode()
    if mutation == "not_utf8":
        at = int(rng.integers(len(data) + 1))
        data = data[:at] + b"\xff" + data[at:]
    return data


def mutate_config(doc, mutation, field, rng, path):
    """Break the config in one way; return its bytes and the name its error line must carry."""
    doc = dict(doc)
    if mutation == "wrong_type":
        doc[field] = pick(rng, WRONG_TYPES[KINDS[field]] + ([] if field in OPTIONAL else [None]))
    elif mutation == "out_of_range":
        doc[field] = OUT_OF_RANGE[field](rng)
    elif mutation == "huge_int":
        doc[field] = pick(rng, HUGE_INTS)
    elif mutation == "unknown_key":
        field = "".join(pick(rng, "abcdefghijklmnopqrstuvwxyz_") for _ in range(pick(rng, range(1, 12))))
        field = field if field not in KINDS else field + "_x"
        doc[field] = int(rng.integers(10))
    elif mutation == "unusable_path":  # a missing file or a directory
        doc["dataset_file"] = str(path.parent / "missing.csv" if rng.uniform() < 0.5 else path.parent)
        return json.dumps(doc).encode(), doc["dataset_file"]
    elif mutation == "non_object_root":
        roots = [[doc], [], 3, "config", None, True, 1.5]
        return json.dumps(pick(rng, roots)).encode(), str(path)
    text = json.dumps(doc).encode()
    if mutation == "truncated":
        return text[: pick(rng, range(len(text)))], str(path)
    if mutation == "not_utf8":
        at = int(rng.integers(len(text) + 1))
        return text[:at] + b"\xff" + text[at:], str(path)
    return text, field


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_malformed_input_exits_two_with_one_line_naming_it(case, tmp_path, capsys):
    what, mutation, command, field, seed = case
    rng = np.random.Generator(np.random.Philox(seed))
    config = tmp_path / "run.json"
    control = tmp_path / "control.csv"
    doc = dict(BASE)
    save_control_csv(control, ControlGrid(rng.uniform(-0.1, 0.1, size=(BASE["n_layers"], 8))))
    if what == "config":
        text, name = mutate_config(doc, mutation, field, rng, config)
    else:
        bad = tmp_path / f"bad_{what}.csv"
        if what == "control":
            bad.write_bytes(mutate_table(control_lines(rng), mutation, rng, what))
            control = bad
        else:
            bad.write_bytes(mutate_table(dataset_lines(rng), mutation, rng, what))
            doc[what] = str(bad)
        text, name = json.dumps(doc).encode(), str(bad)
    config.write_bytes(text)
    argv = {
        "train": ["train", "--config", str(config), "--out", str(tmp_path / "out")],
        "gradcheck": ["gradcheck", "--config", str(config)],
        "eval": ["eval", "--config", str(config), "--control", str(control), "--out", str(tmp_path / "e")],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert err.startswith("error: ") and name in err, (name, err)


# Valid but extreme inputs: values at the edges of what a config accepts and
# datasets whose entries span 1e-300 to 1e307.  Such a run may overflow, but
# it must end in the documented way: exit 0, or exit 1 with one line when a
# flow fails, and never a numpy warning.
EXTREME = {
    "gamma0": [1e-300, 1.0, 1e200, 1e308],
    "beta": [0.0, 1e-3, 1e300],
    "nu": [1e-310, 20.0, 1e300],
    "grid_side": [1e-300, 1.5, 26.0],
}
N_EXTREME = 40


def extreme_rows(rng):
    """Two to four dataset rows x1,x2,y1,y2 of magnitude 1e-300 to 1e307 and random sign.

    Four rows keep the initial mean loss below the largest float; the fixed
    cases below whose mean loss overflows pin what the summary holds then.
    """
    shape = (int(rng.integers(2, 5)), 4)
    signs = np.where(rng.uniform(size=shape) < 0.5, -1.0, 1.0)
    return signs * 10.0 ** rng.uniform(-300, 307, size=shape)


def draw_extreme(rng):
    """One case: (command, config, dataset rows by config key, control values).

    The rows go to ``dataset_file`` or, when there are none, the run trains
    on the target's grid.
    """
    doc = {key: pick(rng, values) for key, values in EXTREME.items()}
    doc.update(
        family=pick(rng, ["affine8", "enriched14"]),
        algorithm=pick(rng, ["gd", "pmp"]),
        n_layers=int(rng.integers(1, 4)),
        grid_per_axis=3,
        max_iter=int(rng.integers(1, 5)),
        test_count=0,
    )
    files = {"dataset_file": extreme_rows(rng)} if rng.uniform() < 0.5 else {}
    n_fields = 8 if doc["family"] == "affine8" else 14
    control = pick(rng, [0.0, 1e-3, 1.0, 1e200]) * rng.normal(size=(doc["n_layers"], n_fields))
    return pick(rng, ["train", "eval"]), doc, files, control


ONE_LAYER = {"family": "affine8", "algorithm": "gd", "n_layers": 1, "beta": 0.0, "test_count": 0}
ZERO_CONTROL = np.zeros((1, 8))
HUGE_LOSSES = [[0.0, 0.0, 1.5e308, 0.0], [1.0, 1.0, -1.5e308, 0.0]]  # their sum overflows
# The Armijo margin c * gamma * h * |grad|^2 overflows in |grad|^2 alone.
ARMIJO_MARGIN = ("train", {**ONE_LAYER, "gamma0": 1e-300, "max_iter": 3},
                 {"dataset_file": [[1e200, 2e200, 3e200, 1e200], [-2e200, 1e200, -1e200, 5e199],
                                   [5e199, -3e200, 1e200, -2e200]]}, ZERO_CONTROL)
# The initial mean loss overflows on the training set, or on the test set.
INFINITE_COSTS = {
    "train-infinite-initial-cost": (
        ("train", {**ONE_LAYER, "max_iter": 2}, {"dataset_file": HUGE_LOSSES}, ZERO_CONTROL),
        ["final.cost", "final.training_error"],
    ),
    "train-infinite-testing-error": (
        ("train", {**ONE_LAYER, "max_iter": 2, "grid_per_axis": 3}, {"test_file": HUGE_LOSSES},
         ZERO_CONTROL),
        ["final.testing_error"],
    ),
}
_extreme_stream = np.random.Generator(np.random.Philox(20212))
EXTREME_CASES = [
    # The regularizer 0.5 * beta * |u|^2 of every proposal overflows.
    pytest.param(("train", {**ONE_LAYER, "algorithm": "pmp", "gamma0": 1e200, "nu": 1e-310,
                            "grid_side": 1e-300, "grid_per_axis": 3, "max_iter": 4},
                  {}, ZERO_CONTROL), id="pmp-regularizer"),
    pytest.param(ARMIJO_MARGIN, id="gd-armijo-margin"),
    # A step of 1e308 moves every point about 1e308 along x1: each loss is finite, their sum is not.
    pytest.param(("train", {**ONE_LAYER, "gamma0": 1e308, "max_iter": 2},
                  {"dataset_file": [[0.0, 0.0, 1.0, 0.0], [0.0, 0.5, 1.0, 0.5], [0.5, 0.0, 1.5, 0.0]]},
                  ZERO_CONTROL), id="gd-mean-loss"),
    pytest.param(("eval", ONE_LAYER, {"dataset_file": HUGE_LOSSES}, ZERO_CONTROL), id="eval-mean-loss"),
    *(pytest.param(case, id=name) for name, (case, _) in INFINITE_COSTS.items()),
    *(pytest.param(draw_extreme(_extreme_stream), id=f"draw{i}") for i in range(N_EXTREME)),
]


def run_extreme(case, tmp_path):
    """Run one case under warnings-as-errors; return its exit code and output directory."""
    command, doc, files, control = case
    doc = dict(doc)
    for key, rows in files.items():
        rows = np.array(rows)
        save_dataset_csv(tmp_path / f"{key}.csv", Dataset(rows[:, :2], rows[:, 2:]))
        doc[key] = str(tmp_path / f"{key}.csv")
    config, out, control_path = tmp_path / "run.json", tmp_path / "out", tmp_path / "control.csv"
    config.write_text(json.dumps(doc), encoding="utf-8")
    save_control_csv(control_path, ControlGrid(control))
    argv = [command, "--config", str(config), "--out", str(out)]
    if command == "eval":
        argv += ["--control", str(control_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv), out


@pytest.mark.parametrize("case", EXTREME_CASES)
def test_extreme_valid_input_exits_zero_or_one_without_warnings(case, tmp_path, capsys):
    command = case[0]
    code, out = run_extreme(case, tmp_path)
    err = capsys.readouterr().err
    assert code in (0, 1), err
    if code == 1:
        assert err.count("\n") == 1 and err.startswith("error: "), err
    else:
        assert err == ""
    if command == "train":  # an overflowing cost reads +inf, never nan
        lines = (out / "trace.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert not any(np.isnan(float(cell)) for line in lines for cell in line.split(",")[1:3])


@pytest.mark.parametrize("name", sorted(INFINITE_COSTS))
def test_overflowed_summary_values_are_null_and_listed(name, tmp_path, capsys):
    case, keys = INFINITE_COSTS[name]
    code, out = run_extreme(case, tmp_path)
    assert code == 0
    # The printed line keeps the overflowed value; summary.json is strict JSON.
    done = capsys.readouterr().out
    assert done.startswith("done: ") and " inf" in done, done

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"), parse_constant=reject)
    assert summary["non_finite"] == keys
    for key in keys:
        section, field = key.split(".")
        assert summary[section][field] is None, key


def test_armijo_margin_past_the_largest_float_accepts_a_pass(tmp_path):
    code, out = run_extreme(ARMIJO_MARGIN, tmp_path)
    assert code == 0
    rows = (out / "trace.csv").read_text(encoding="utf-8").splitlines()[2:]
    assert any(row.split(",")[-1] == "1" for row in rows), rows
