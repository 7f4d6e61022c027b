"""Output checks: compare what a command wrote with the recorded reference.

A training workload's control, training error, Lipschitz constant and
trace do not depend on the workload seed, because only the held-out cloud
does. They are compared with ``reference.json``, recorded once from the
unchanged program. The held-out testing error and every eval output depend
on the seed; they are compared with ``reference.py`` applied to the same
inputs.

The drift of a run is the largest relative deviation it shows, normwise for
arrays. A command fails its check when the drift exceeds TOLERANCE, which
leaves room for float reassociation (about 1e-15 per operation) but not for
a changed result. Bit-identity with the reference is reported separately.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import reference

TOLERANCE = 1e-6
REFERENCE_FILE = Path(__file__).with_name("reference.json")
TESTING_ERROR_COLUMN = 3
TARGET_SHARE = 0.01


@dataclass
class Check:
    """What one command's outputs showed."""

    drift: float = 0.0
    identical: bool = True
    problems: list[str] = field(default_factory=list)
    mean_error: float = math.nan
    testing_error: float = math.nan
    passes_to_target: float = math.nan

    @property
    def ok(self) -> bool:
        return not self.problems

    def compare(self, what: str, got, want) -> None:
        """Fold the relative deviation of ``got`` from ``want`` into the drift."""
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.problems.append(f"{what}: shape {got.shape}, expected {want.shape}")
            return
        scale = float(np.max(np.abs(want))) if want.size else 0.0
        dev = float(np.max(np.abs(got - want))) if want.size else 0.0
        drift = dev / scale if scale > 0.0 else dev
        if not math.isfinite(drift):
            self.problems.append(f"{what}: non-finite deviation")
            return
        self.identical = self.identical and dev == 0.0
        if drift > TOLERANCE:
            self.problems.append(f"{what}: relative drift {drift:.3e} exceeds {TOLERANCE:.0e}")
        self.drift = max(self.drift, drift)


def load_references(quick: bool) -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)["quick" if quick else "full"]


def sha256_of(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def seedless_trace_digest(path: Path) -> str:
    """Digest of trace.csv without its testing-error column, the one seeded column."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row[:TESTING_ERROR_COLUMN] + row[TESTING_ERROR_COLUMN + 1:] for row in csv.reader(fh)]
    text = "\n".join(",".join(row) for row in rows)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def passes_to_target(trace_path: Path, target: float) -> float:
    """First accepted pass whose training error is within 1% of ``target``.

    A run that never gets there reports one more than its pass count.
    """
    with open(trace_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if row["accepted"] == "1" and abs(float(row["training_error"]) - target) <= TARGET_SHARE * target:
            return float(row["iteration"])
    return float(len(rows))


def read_train_outputs(out_dir: Path) -> dict:
    """The values of a training run that the reference records."""
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    return {
        "control": np.loadtxt(out_dir / "control.csv", delimiter=",", skiprows=1, ndmin=2).tolist(),
        "control_sha256": sha256_of(out_dir / "control.csv"),
        "trace_sha256": seedless_trace_digest(out_dir / "trace.csv"),
        "training_error": summary["final"]["training_error"],
        "testing_error": summary["final"]["testing_error"],
        "lipschitz_flow": summary["metrics"]["lipschitz_flow"],
    }


def expected_testing_error(ref: dict, config: dict, sources: np.ndarray, targets: np.ndarray) -> float:
    """Held-out error of the reference control on a seeded cloud."""
    control = np.asarray(ref["control"], dtype=float)
    ends = reference.flow_endpoints(config["family"], control, sources, config["nu"])
    return float(np.mean(reference.loss(ends - targets)))


def check_train(out_dir: Path, ref: dict, testing_error: float) -> Check:
    """Compare a training run's outputs with the reference and the expected testing error."""
    check = Check()
    got = read_train_outputs(out_dir)
    check.compare("control.csv", got["control"], ref["control"])
    for key in ("training_error", "lipschitz_flow"):
        check.compare(key, got[key], ref[key])
    check.compare("testing_error", got["testing_error"], testing_error)
    check.identical = (
        check.identical
        and got["control_sha256"] == ref["control_sha256"]
        and got["trace_sha256"] == ref["trace_sha256"]
    )
    check.mean_error = got["training_error"]
    check.testing_error = got["testing_error"]
    check.passes_to_target = passes_to_target(out_dir / "trace.csv", ref["training_error"])
    return check


def check_eval(out_dir: Path, sources, targets, mapped, point_loss) -> Check:
    """Compare eval.csv with the inputs and the reference flow's results."""
    check = Check()
    path = out_dir / "eval.csv"
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    if header != "x1,x2,mapped1,mapped2,y1,y2,point_loss":
        check.problems.append(f"eval.csv: unexpected header {header!r}")
        return check
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (len(sources), 7):
        check.problems.append(f"eval.csv: shape {table.shape}, expected {(len(sources), 7)}")
        return check
    check.compare("eval.csv sources", table[:, 0:2], sources)
    check.compare("eval.csv mapped", table[:, 2:4], mapped)
    check.compare("eval.csv targets", table[:, 4:6], targets)
    check.compare("eval.csv point_loss", table[:, 6], point_loss)
    mean_error = float(np.mean(table[:, 6]))
    check.compare("eval mean error", mean_error, float(np.mean(point_loss)))
    # The eval cloud is held out from any training, so its error is also
    # the testing error; a single forward pass reaches it.
    check.mean_error = check.testing_error = mean_error
    check.passes_to_target = 1.0
    return check
