"""Run one workload: set up, repeat its command for a time budget, check outputs.

Each command is one in-process call of ``diffeoflow.cli.main``, the CLI
entry point, on the inputs ``workloads.generate_inputs`` wrote. The loop is
closed: the next command starts when the previous one has returned and its
outputs are checked. ``run_s`` is the wall time of one call, calibrated.

On the 2-vCPU VM the benchmark was built on, the same command ran up to 80%
slower for minutes at a time. CPU time rose with wall time, so the cause is
contention for the core, not time stolen from the VM. A ``Calibration`` is
timed in the gap before and after setup and every command. Each wall time
is scaled by the recorded calibration time over the median of the
calibrations on either side of it. In two sets of ten seeds this cut the
spread of run_s from 8-27% to 4-8%. The raw wall-clock figures are
printed as well.

With ``trace`` set, commands alternate between untraced and traced, the
traced ones inside ``tracing.installed``. The per-layer metrics are medians
over the traced commands, unscaled, and the overhead of tracing is the
difference of the two medians.
"""

from __future__ import annotations

import contextlib
import gc
import io
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from diffeoflow import cli

from . import checks, reference, tracing
from .workloads import WORKLOADS, Inputs, generate_inputs, jittered_cloud

MIN_COMMANDS = 3
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 200
SETUP_SECONDS = 1.0
CALIBRATION_POINTS = 10_000
CALIBRATION_POINT_LAYERS = 320_000
CALIBRATION_MAX_REPS = 25
CALIBRATION_RECORD_SAMPLES = 11
CALIBRATIONS_PER_GAP = 3


@dataclass
class Outcome:
    """Everything one workload run measured."""

    workload: str
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    drift: float = 0.0
    identical: bool = True
    samples: int = 0
    wall: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


class Calibration:
    """Fixed work in the benchmark's own code that measures the host's speed.

    It runs ``reference.flow_endpoints`` for the workload's family and
    depth on a fixed cloud and control: the same dense numpy work as the
    program's forward flow, in code no program change can alter.
    """

    def __init__(self, config: dict, points: int) -> None:
        n = min(points, CALIBRATION_POINTS)
        rng = np.random.Generator(np.random.Philox(0))
        self.sources = jittered_cloud(rng, n, config["grid_side"])
        self.control = rng.uniform(
            -0.1, 0.1, size=(config["n_layers"], reference.FAMILY_FIELDS[config["family"]])
        )
        self.family, self.nu = config["family"], config["nu"]
        self.reps = max(1, min(CALIBRATION_MAX_REPS, CALIBRATION_POINT_LAYERS // (n * config["n_layers"])))

    def measure(self) -> float:
        t0 = time.perf_counter()
        for _ in range(self.reps):
            reference.flow_endpoints(self.family, self.control, self.sources, self.nu)
        return time.perf_counter() - t0

    def gap(self) -> list[float]:
        """The times of a few back-to-back runs, taken between two timed steps."""
        return [self.measure() for _ in range(CALIBRATIONS_PER_GAP)]


def time_setup(config_path: Path) -> float:
    """Median time of config load plus ``build_problem``, over several repeats."""
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or (
        time.perf_counter() - start < SETUP_SECONDS and len(times) < SETUP_MAX_REPS
    ):
        t0 = time.perf_counter()
        cli.build_problem(cli.load_config(config_path))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_command(argv: list[str]) -> tuple[int, float]:
    """Call the CLI once, its chatter kept off stdout; return exit code and wall time."""
    gc.collect()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    return code, time.perf_counter() - t0


class Checker:
    """Checks each command's outputs against the reference and the run's first command."""

    def __init__(self, workload: str, inputs: Inputs, quick: bool) -> None:
        self.inputs = inputs
        self.train = WORKLOADS[workload].command == "train"
        self.ref = checks.load_references(quick)[workload]
        cfg = inputs.config
        if not self.train:
            self.mapped = reference.flow_endpoints(cfg["family"], inputs.control, inputs.sources, cfg["nu"])
            self.point_loss = reference.loss(self.mapped - inputs.targets)
        self.first_digest: str | None = None
        self.first_check: checks.Check | None = None

    def digest(self) -> str:
        """Digest of the outputs that every command of the run must repeat."""
        out = self.inputs.out_dir
        if self.train:
            return checks.sha256_of(out / "control.csv") + checks.seedless_trace_digest(out / "trace.csv")
        return checks.sha256_of(out / "eval.csv")

    def check(self) -> checks.Check:
        digest = self.digest()
        if self.train:
            inputs = self.inputs
            expected = checks.expected_testing_error(self.ref, inputs.config, inputs.sources, inputs.targets)
            result = checks.check_train(inputs.out_dir, self.ref, expected)
        elif digest == self.first_digest:
            return self.first_check
        else:
            result = checks.check_eval(
                self.inputs.out_dir, self.inputs.sources, self.inputs.targets, self.mapped, self.point_loss
            )
        if self.first_digest is None:
            self.first_digest, self.first_check = digest, result
        elif digest != self.first_digest:
            result.problems.append("outputs differ from the run's first command")
        return result


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, work_root: Path, quick: bool = False
) -> Outcome:
    """Measure one workload for ``seconds`` of commands; see the module docstring."""
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        inputs = generate_inputs(WORKLOADS[name], seed, quick, work)
        return _measure(name, inputs, seconds, trace, quick)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(name: str, inputs: Inputs, seconds: float, trace: bool, quick: bool) -> Outcome:
    out = Outcome(workload=name)
    checker = Checker(name, inputs, quick)
    calibration = Calibration(inputs.config, inputs.points)
    # gaps[i] and gaps[i + 1] bracket setup (i = 0) and command i (i >= 1).
    gaps = [calibration.gap()]
    setup_s = time_setup(inputs.config_path)
    tracer = tracing.Tracer()
    plain_times, plain_commands, traced_times, results, per_layer = [], [], [], [], []
    start = time.perf_counter()
    while out.attempted < MIN_COMMANDS or time.perf_counter() - start < seconds:
        gaps.append(calibration.gap())
        traced = trace and out.attempted % 2 == 1
        if checker.train and out.attempted > 0:
            inputs.write_cloud(out.attempted)
        out.attempted += 1
        try:
            if traced:
                tracer.run_id, first_span = out.attempted, len(tracer.spans)
                with tracing.installed(tracer):
                    code, elapsed = run_command(inputs.argv)
            else:
                code, elapsed = run_command(inputs.argv)
            if traced:
                traced_times.append(elapsed)
            else:
                plain_times.append(elapsed)
                plain_commands.append(out.attempted)
            if code != 0:
                raise RuntimeError(f"diffeoflow {inputs.argv[0]} exited with code {code}")
            result = checker.check()
        except Exception as err:  # a failed command is counted, not fatal
            out.failed += 1
            out.problems.append(f"command {out.attempted}: {err}")
            traceback.print_exc()
            continue
        if not result.ok:
            out.failed += 1
            out.problems.extend(f"command {out.attempted}: {p}" for p in result.problems)
        out.drift = max(out.drift, result.drift)
        out.identical = out.identical and result.identical
        results.append(result)
        if traced:
            per_layer.append(tracing.command_metrics(tracer.spans, first_span, tracer.names))
    gaps.append(calibration.gap())
    out.samples = len(plain_times)
    run_s = statistics.median(plain_times) if plain_times else float("nan")
    if trace:
        out.spans = tracer.spans
        if per_layer:
            out.metrics = tracing.median_metrics(per_layer)
            out.metrics["trace.run_s"] = statistics.median(traced_times)
            out.metrics["trace.overhead_s"] = out.metrics["trace.run_s"] - run_s
        return out
    # Each time is scaled by the host speed the calibrations on either side of it saw.
    recorded = checker.ref["calibration_s"]
    scaled = [t * recorded / statistics.median(gaps[i] + gaps[i + 1]) for t, i in zip(plain_times, plain_commands)]
    out.wall = {
        "run_s": run_s,
        "run_s_p90": _p90(plain_times),
        "setup_s": setup_s,
        "calibration_s": statistics.median(t for g in gaps for t in g),
    }
    out.metrics = {
        "run_s": statistics.median(scaled),
        "setup_s": setup_s * recorded / statistics.median(gaps[0] + gaps[1]),
        "point_layer_passes_per_s": inputs.points * inputs.config["n_layers"] * inputs.passes
        / statistics.median(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if results:
        out.metrics["mean_error"] = statistics.median(r.mean_error for r in results)
        out.metrics["testing_error"] = statistics.fmean(r.testing_error for r in results)
        out.metrics["passes_to_target"] = statistics.median(r.passes_to_target for r in results)
    return out


def _p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0] if samples else float("nan")
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def record_references(work_root: Path) -> dict:
    """Collect, per workload and size, the calibration time and a training run's seedless outputs."""
    refs = {}
    for size, quick in (("full", False), ("quick", True)):
        refs[size] = {}
        for name, w in WORKLOADS.items():
            work_root.mkdir(parents=True, exist_ok=True)
            work = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=work_root))
            try:
                inputs = generate_inputs(w, 0, quick, work)
                calibration = Calibration(inputs.config, inputs.points)
                samples = [calibration.measure() for _ in range(CALIBRATION_RECORD_SAMPLES)]
                refs[size][name] = {"calibration_s": statistics.median(samples)}
                if w.command != "train":
                    continue
                code, _ = run_command(inputs.argv)
                if code != 0:
                    raise RuntimeError(f"{name}: diffeoflow exited with code {code}")
                got = checks.read_train_outputs(inputs.out_dir)
                del got["testing_error"]
                refs[size][name].update(got)
            finally:
                shutil.rmtree(work, ignore_errors=True)
    return refs


def report_lines(outcome: Outcome, declared: list[dict], seed: int) -> list[str]:
    """Human-readable lines, each starting with ``#``, for one workload run."""
    lines = [
        f"# workload {outcome.workload}  seed {seed}  commands {outcome.attempted}  "
        f"failed {outcome.failed}"
    ]
    for m in declared:
        value = outcome.metrics.get(m["name"], float("nan"))
        lines.append(f"#   {m['name']:<44} {value:>14.6g} {m['unit']}")
    if outcome.wall:
        w = outcome.wall
        lines.append(
            f"#   wall clock: run_s median {w['run_s']:.6g} s, 90th percentile {w['run_s_p90']:.6g} s "
            f"over {outcome.samples} samples; setup_s {w['setup_s']:.6g} s; calibration {w['calibration_s']:.6g} s"
        )
    if outcome.spans:
        lines.append(f"#   spans recorded {len(outcome.spans)}")
    lines.append(
        f"#   output_drift {outcome.drift:.3g} (tolerance {checks.TOLERANCE:.0e})  "
        f"bit_identical {'yes' if outcome.identical else 'no'}  "
        f"failed_fraction {outcome.failed / max(outcome.attempted, 1):.3g} "
        f"({outcome.failed} of {outcome.attempted})"
    )
    return lines


def result(outcome: Outcome, declared: list[dict]) -> dict:
    """The result object: the declared metrics, with units, and the check counts."""
    metrics = {}
    for m in declared:
        value = outcome.metrics.get(m["name"], float("nan"))
        metrics[m["name"]] = {"value": value if np.isfinite(value) else None, "unit": m["unit"]}
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
