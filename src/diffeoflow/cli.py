"""Command-line front end.

Subcommands:

    train             train one configuration, write trace/control/summary
    reproduce-tables  rerun one of the six benchmark settings over the
                      standard beta sweep, next to the reference results
    gradcheck         compare the covector gradient against central finite
                      differences on a deliberately small instance
    eval              apply a saved control to a dataset and report errors

Exit codes: 0 on success; 1 when a flow overflows (an aborted training run
first writes its partial trace and control) or gradcheck finds a mismatch;
2 for a bad config or input file, named by the one ``error:`` line, an
unusable path, or an allocation that does not fit in memory.

Configuration is a flat JSON object; unknown keys are rejected and every
validation message names the offending field.  All outputs are plain CSV
(the table format of ``data.write_table``) and JSON, so reruns with the same
config and seed reproduce them byte for byte (the summary additionally
carries a wall-clock figure, which of course varies).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import operator
import sys
import time
from pathlib import Path

import numpy as np

from .data import (
    load_dataset_csv,
    make_grid_dataset,
    make_random_testset,
    read_table,
    square_grid,
    target_from_name,
    write_table,
)
from .fields import family_from_name
from .flow import ControlGrid, FlowError, flow_endpoints
# forward_euler is unused here, but perfbench's tracing self-test expects this module to bind it.
from .flow import forward_euler  # noqa: F401
from .metrics import build_metrics, target_lipschitz_estimate
from .objective import Dataset, adjoint_gradient, fd_gradient_oracle, loss
from .train_gd import IterationRecord, TrainAbort, TrainConfig, TrainReport, train_gradient_flow
from .train_pmp import train_pmp

TRACE_COLUMNS = ("iteration", "cost", "training_error", "testing_error", "gamma", "accepted")
# The fields of a record, in the order of the trace columns, as a plain tuple.
_TRACE_ROW = operator.attrgetter(*(f.name for f in dataclasses.fields(IterationRecord)))
EVAL_COLUMNS = ("x1", "x2", "mapped1", "mapped2", "y1", "y2", "point_loss")
TABLE_COLUMNS = (
    "beta", "lipschitz", "training_error", "testing_error",
    "ref_lipschitz", "ref_training_error", "ref_testing_error", "wall_clock_seconds",
)
TABLE_MD_ROW = "| {:g} | {:.4f} | {:.4f} | {:.4f} | {:.2f} | {:.4f} | {:.4f} | {:.1f} |"

# Previously reported results for the six benchmark settings, keyed by
# table id, then by beta: (lipschitz, training error, testing error).
# Bundled so reproduce-tables can print them next to fresh runs.
REFERENCE_RESULTS: dict[int, dict[float, tuple[float, float, float]]] = {
    1: {
        1e0: (1.19, 3.8785, 3.8173),
        1e-1: (8.40, 1.3143, 1.2476),
        1e-2: (9.32, 1.1991, 1.1451),
        1e-3: (9.37, 1.1852, 1.1330),
        1e-4: (9.37, 1.1839, 1.1318),
    },
    2: {
        1e0: (1.19, 3.8749, 3.8157),
        1e-1: (8.40, 1.3084, 1.2455),
        1e-2: (9.32, 1.2014, 1.1486),
        1e-3: (9.33, 1.1898, 1.1387),
        1e-4: (9.33, 1.1898, 1.1379),
    },
    3: {
        1e0: (1.19, 3.8779, 3.8168),
        1e-1: (8.40, 1.3074, 1.2425),
        1e-2: (9.26, 1.2015, 1.1477),
        1e-3: (9.34, 1.1860, 1.1352),
        1e-4: (9.34, 1.1842, 1.1332),
    },
    4: {
        1e0: (1.19, 3.8739, 3.8148),
        1e-1: (8.35, 1.3085, 1.2449),
        1e-2: (9.23, 1.2075, 1.1538),
        1e-3: (9.26, 1.1931, 1.1416),
        1e-4: (9.26, 1.1918, 1.1404),
    },
    5: {
        1e0: (10.14, 2.3791, 2.3036),
        1e-1: (13.84, 0.1809, 0.2314),
        1e-2: (15.64, 0.1290, 0.1784),
        1e-3: (15.83, 0.1254, 0.1747),
        1e-4: (15.86, 0.1257, 0.1751),
    },
    6: {
        1e0: (10.78, 2.3638, 2.3910),
        1e-1: (14.32, 0.1921, 0.2422),
        1e-2: (15.43, 0.1887, 0.2347),
        1e-3: (15.56, 0.2260, 0.2719),
        1e-4: (15.59, 0.2127, 0.2564),
    },
}

# (family, layers, algorithm) of each benchmark table.
TABLE_SETTINGS: dict[int, tuple[str, int, str]] = {
    1: ("affine8", 16, "gd"),
    2: ("affine8", 16, "pmp"),
    3: ("affine8", 32, "gd"),
    4: ("affine8", 32, "pmp"),
    5: ("enriched14", 16, "gd"),
    6: ("enriched14", 16, "pmp"),
}

BETA_SWEEP = (1e0, 1e-1, 1e-2, 1e-3, 1e-4)


@dataclasses.dataclass(frozen=True)
class RunConfig(TrainConfig):
    """Flat run configuration; every field has a JSON key of the same name.

    The trainer fields (beta, max_iter, gamma0, tau, c) are TrainConfig's,
    with beta defaulting to 1e-3; the rest describe the problem.  seed only
    picks the random control of gradcheck's instance, and test_seed the
    held-out cloud.  Each invalid value raises a ValueError naming the field.
    """

    beta: float = 1e-3
    family: str = "affine8"
    nu: float = 20.0
    n_layers: int = 16
    algorithm: str = "gd"
    seed: int = 0
    target: str = "builtin"
    grid_side: float = 1.5
    grid_per_axis: int = 30
    dataset_file: str | None = None
    test_count: int = 300
    test_seed: int = 0
    test_file: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        family_from_name(self.family, self.nu)
        if self.n_layers < 1:
            raise ValueError(f"n_layers: must be a positive integer, got {self.n_layers}")
        _trainer(self.algorithm)
        if self.seed < 0:
            raise ValueError(f"seed: must be nonnegative, got {self.seed}")
        target_from_name(self.target)
        if self.grid_side <= 0.0 or not math.isfinite(self.grid_side):
            raise ValueError(f"grid_side: must be positive and finite, got {self.grid_side}")
        if self.grid_per_axis < 2:
            raise ValueError(f"grid_per_axis: must be at least 2, got {self.grid_per_axis}")
        if self.test_count < 0:
            raise ValueError(f"test_count: must be nonnegative, got {self.test_count}")
        if self.test_seed < 0:
            raise ValueError(f"test_seed: must be nonnegative, got {self.test_seed}")


def _trainer(algorithm: str):
    """The trainer named ``algorithm``; the table is made per call, so a wrapper bound to a trainer's name here runs."""
    trainers = {"gd": train_gradient_flow, "pmp": train_pmp}
    if algorithm not in trainers:
        raise ValueError(f"algorithm: expected {' or '.join(map(repr, trainers))}, got {algorithm!r}")
    return trainers[algorithm]


def _check_types(raw: dict) -> None:
    """Reject a JSON value whose type does not match its RunConfig field.

    Integer fields take integers of magnitude below 2**53 (the range JSON
    tools agree on) but not booleans; float fields take finite real numbers
    (an integer included); the rest take strings.  A field annotated
    ``| None`` also takes null.
    """
    for f in dataclasses.fields(RunConfig):
        if f.name not in raw:
            continue
        value = raw[f.name]
        kind, _, optional = f.type.partition(" | ")
        if value is None and optional:
            continue
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if kind == "int":
            ok = number and isinstance(value, int) and abs(value) < 2**53
            want = "an integer of magnitude below 2**53"
        elif kind == "float":
            # abs(x) <= max is False for NaN, infinities and ints too large for a float.
            ok, want = number and abs(value) <= sys.float_info.max, "a finite number"
        else:
            ok, want = isinstance(value, str), "a string"
        if not ok:
            or_null = " or null" if optional else ""
            raise ValueError(f"{f.name}: must be {want}{or_null}, got {json.dumps(value)}")


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as err:  # invalid JSON or bytes that are not UTF-8
        raise ValueError(f"could not parse {path} as JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ValueError(f"config root in {path} must be a JSON object")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    _check_types(raw)
    return RunConfig(**raw)


def build_problem(cfg: RunConfig) -> tuple:
    """Resolve a config into (family, target Lipschitz constant or None, train dataset, test dataset)."""
    family = family_from_name(cfg.family, cfg.nu)
    target = target_from_name(cfg.target)
    if cfg.dataset_file is None or (cfg.test_file is None and cfg.test_count > 0):
        lipschitz_target = _check_square(target, cfg)  # a cloud below is drawn on the square
    if cfg.dataset_file is not None:
        train = load_dataset_csv(cfg.dataset_file)
        lipschitz_target = None  # the summary's bounds describe the target's grid only
    else:
        oom = f"grid_per_axis: a grid of {cfg.grid_per_axis}**2 points does not fit in memory"
        train = _square_dataset(make_grid_dataset, target, cfg, oom, per_axis=cfg.grid_per_axis)
    if cfg.test_file is not None:
        test = load_dataset_csv(cfg.test_file)
    elif cfg.test_count > 0:
        oom = f"test_count: a cloud of {cfg.test_count} points does not fit in memory"
        test = _square_dataset(
            make_random_testset, target, cfg, oom, count=cfg.test_count, seed=cfg.test_seed
        )
    else:
        test = None
    return family, lipschitz_target, train, test


def _check_square(target, cfg: RunConfig) -> float:
    """The target's Lipschitz constant on the square of side grid_side; name grid_side if it overflows.

    It is the largest Jacobian norm at the square's four corners (the 2x2
    grid), which are points of every grid and where the builtin target's
    norm peaks: |z1| and |z2| are convex in x, and both entries of its
    deformation grow with them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        corner_norm = target_lipschitz_estimate(target, square_grid(cfg.grid_side, 2))
    if not math.isfinite(corner_norm):
        raise ValueError(
            f"grid_side: the Jacobian of the {cfg.target} target overflows on the square "
            f"of side {cfg.grid_side:g}"
        )
    return corner_norm


def _square_dataset(make, target, cfg: RunConfig, oom: str, **kwargs) -> Dataset:
    """A cloud on the square of side grid_side; one it cannot make raises a ValueError.

    One too large for memory raises ``oom``.  Otherwise ``_check_square`` has
    already named a square on which the target overflows; what is left is
    points that collapse onto each other on a subnormal side, named by grid_side.
    """
    try:
        return make(target, side=cfg.grid_side, **kwargs)
    except MemoryError as err:
        raise ValueError(oom) from err
    except ValueError as err:
        raise ValueError(
            f"grid_side: no usable dataset of the {cfg.target} target on the square "
            f"of side {cfg.grid_side:g}: {err}"
        ) from err


def run_training(cfg: RunConfig) -> tuple[TrainReport, dict]:
    """Train per config and return the report plus the summary document."""
    family, lipschitz_target, train, test = build_problem(cfg)
    trainer = _trainer(cfg.algorithm)
    start = time.perf_counter()
    try:
        report = trainer(family, train, cfg.n_layers, cfg, test_data=test)
    except MemoryError as err:  # the controls and trajectories grow with n_layers
        raise ValueError(
            f"n_layers: {cfg.n_layers} layers of {train.n_samples} points do not fit in memory"
        ) from err
    elapsed = time.perf_counter() - start

    block = build_metrics(
        family,
        report.control,
        lipschitz_target,
        probes=train.sources,
        training_error=report.final_cost.data_term,
        side=cfg.grid_side,
    )
    final_test = report.records[-1].testing_error
    summary = {
        "config": dataclasses.asdict(cfg),
        "metrics": dataclasses.asdict(block),
        "final": {
            "cost": report.final_cost.total,
            "training_error": report.final_cost.data_term,
            "reg_term": report.final_cost.reg_term,
            "testing_error": None if math.isnan(final_test) else final_test,
        },
        "n_train": train.n_samples,
        "n_test": 0 if test is None else test.n_samples,
        "iterations": len(report.records) - 1,
        "accepted": sum(1 for r in report.records[1:] if r.accepted),
        "wall_clock_seconds": elapsed,
    }
    return report, summary


def save_control_csv(path, u: ControlGrid) -> None:
    write_table(path, [f"u{i + 1}" for i in range(u.n_fields)], u.values)


def load_control_csv(path) -> ControlGrid:
    header, values = read_table(path, "control")
    if header != [f"u{i + 1}" for i in range(len(header))]:
        raise ValueError(f"unexpected control header in {path}: {header}")
    return ControlGrid(values)


def _write_run(out: Path, report: TrainReport, summary: dict | None) -> None:
    """Write a run's trace.csv and control.csv, and summary.json when there is one.

    summary.json is strict JSON, which has no token for an overflowed value:
    each non-finite float is written as null, and the dotted keys of those
    values are listed under ``non_finite`` when there are any.
    """
    trace = [_TRACE_ROW(r) for r in report.records]  # none when the initial flow failed
    write_table(out / "trace.csv", TRACE_COLUMNS, np.reshape(trace, (-1, len(TRACE_COLUMNS))))
    save_control_csv(out / "control.csv", report.control)
    if summary is not None:
        non_finite: list[str] = []
        doc = _nulled(summary, "", non_finite)
        if non_finite:
            doc["non_finite"] = non_finite
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
        (out / "summary.json").write_text(text + "\n", encoding="utf-8")


def _nulled(doc: dict, prefix: str, non_finite: list[str]) -> dict:
    """A copy of ``doc`` with each non-finite float as None, its dotted key appended to ``non_finite``."""
    out = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            value = _nulled(value, f"{prefix}{key}.", non_finite)
        elif isinstance(value, float) and not math.isfinite(value):
            value = None
            non_finite.append(prefix + key)
        out[key] = value
    return out


def _train_into(out: Path, cfg: RunConfig) -> dict:
    """Train per config into ``out`` and return the summary.

    An aborted run writes its partial trace and control and re-raises TrainAbort.
    """
    out.mkdir(parents=True, exist_ok=True)
    try:
        report, summary = run_training(cfg)
    except TrainAbort as err:
        _write_run(out, err.report, None)
        raise
    _write_run(out, report, summary)
    return summary


def cmd_train(args) -> int:
    final = _train_into(Path(args.out), load_config(args.config))["final"]
    test_msg = "n/a" if final["testing_error"] is None else f"{final['testing_error']:.6f}"
    print(
        f"done: cost {final['cost']:.6f}, training error {final['training_error']:.6f}, "
        f"testing error {test_msg}"
    )
    return 0


def cmd_reproduce_tables(args) -> int:
    """Run the beta sweep of each table into ``table<t>_beta<beta>``, then its table files.

    Prints one line per finished run, flushed, so a long sweep shows its progress.
    """
    out = Path(args.out)  # made with the first run directory
    for table in [args.table] if args.table is not None else sorted(TABLE_SETTINGS):
        family_name, n_layers, algorithm = TABLE_SETTINGS[table]
        rows = []
        for beta in BETA_SWEEP:
            cfg = RunConfig(family=family_name, n_layers=n_layers, algorithm=algorithm, beta=beta,
                            max_iter=args.max_iter, test_seed=args.test_seed)
            try:
                summary = _train_into(out / f"table{table}_beta{beta:g}", cfg)
            except TrainAbort as err:
                print(f"error: table {table}, beta {beta:g}: {err}", file=sys.stderr)
                return 1
            final, lipschitz = summary["final"], summary["metrics"]["lipschitz_flow"]
            rows.append((beta, lipschitz, final["training_error"], final["testing_error"],
                         *REFERENCE_RESULTS[table][beta], summary["wall_clock_seconds"]))
            print(f"table {table}, beta {beta:g}: training error {final['training_error']:.4f}, "
                  f"Lipschitz {lipschitz:.2f}, {summary['wall_clock_seconds']:.1f} s", flush=True)
        write_table(out / f"table{table}.csv", TABLE_COLUMNS, rows)
        lines = [
            f"# Benchmark table {table}: {family_name}, {n_layers} layers, {algorithm}",
            "",
            "| beta | Lipschitz | train err | test err | ref Lipschitz | ref train | ref test | seconds |",
            "| --- | --- | --- | --- | --- | --- | --- | --- |",
        ] + [TABLE_MD_ROW.format(*row) for row in rows]
        (out / f"table{table}.md").write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"table {table} written to {out / f'table{table}.md'}")
    return 0


GRADCHECK_MAX_LAYERS = 8
GRADCHECK_MAX_SAMPLES = 10


def run_gradcheck(cfg: RunConfig) -> tuple[float, int, int]:
    """Compare covector and finite-difference gradients on a small instance.

    Returns (max relative error, worst layer, worst field).
    """
    if cfg.n_layers > GRADCHECK_MAX_LAYERS:
        raise ValueError(
            f"n_layers: gradcheck instances are capped at {GRADCHECK_MAX_LAYERS} layers, "
            f"got {cfg.n_layers}"
        )
    family, _, train, _ = build_problem(dataclasses.replace(cfg, test_count=0, test_file=None))
    if train.n_samples > GRADCHECK_MAX_SAMPLES:
        raise ValueError(
            f"dataset: gradcheck instances are capped at {GRADCHECK_MAX_SAMPLES} samples, "
            f"got {train.n_samples}; lower grid_per_axis or point dataset_file at a smaller file"
        )
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    u = ControlGrid(rng.uniform(-1.0, 1.0, size=(cfg.n_layers, family.n_fields)))
    got = adjoint_gradient(family, u, train, cfg.beta).values
    want = fd_gradient_oracle(family, u, train, cfg.beta).values
    denom = np.abs(want) + 1e-8
    rel = np.abs(got - want) / denom
    worst = np.unravel_index(int(np.argmax(rel)), rel.shape)
    return float(rel[worst]), int(worst[0]), int(worst[1])


GRADCHECK_TOLERANCE = 1e-5


def cmd_gradcheck(args) -> int:
    cfg = load_config(args.config)
    err, layer, field_idx = run_gradcheck(cfg)
    ok = err <= GRADCHECK_TOLERANCE
    status = "OK" if ok else "MISMATCH"
    print(
        f"gradcheck {status}: max relative error {err:.3e} "
        f"(layer {layer}, field {field_idx}, tolerance {GRADCHECK_TOLERANCE:.0e})"
    )
    return 0 if ok else 1


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    family, _, data, _ = build_problem(dataclasses.replace(cfg, test_count=0, test_file=None))
    u = load_control_csv(args.control)
    if u.n_fields != family.n_fields:
        raise ValueError(
            f"control {args.control} has {u.n_fields} field columns, family {cfg.family} "
            f"has {family.n_fields}"
        )
    endpoints = flow_endpoints(family, u, data.sources)
    point_loss = loss(endpoints - data.targets)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table = np.column_stack([data.sources, endpoints, data.targets, point_loss])
    write_table(out / "eval.csv", EVAL_COLUMNS, table)
    with np.errstate(over="ignore"):
        mean = np.mean(point_loss)
    print(f"mean error {mean:.6f} over {data.n_samples} samples")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffeoflow",
        description="Train linear-control ResNets to approximate planar diffeomorphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one configuration")
    p_train.add_argument("--config", required=True, help="path to a flat JSON config")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.set_defaults(func=cmd_train)

    p_tab = sub.add_parser("reproduce-tables", help="rerun the benchmark beta sweeps")
    p_tab.add_argument("--table", type=int, choices=sorted(TABLE_SETTINGS), default=None,
                       help="single table to run (default: all six)")
    p_tab.add_argument("--out", required=True, help="output directory")
    p_tab.add_argument("--max-iter", type=int, default=500, help="passes per run")
    p_tab.add_argument("--test-seed", type=int, default=0, help="seed of the held-out cloud")
    p_tab.set_defaults(func=cmd_reproduce_tables)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p_grad.add_argument("--config", required=True, help="path to a flat JSON config")
    p_grad.set_defaults(func=cmd_gradcheck)

    p_eval = sub.add_parser("eval", help="apply a saved control to a dataset")
    p_eval.add_argument("--config", required=True, help="path to a flat JSON config")
    p_eval.add_argument("--control", required=True, help="path to a control.csv")
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:  # grid_per_axis, test_count and n_layers are named as ValueErrors
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 2
    except FlowError as err:  # a flow overflowed; training wrote its partial outputs
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
