"""The benchmark workloads and the inputs they hand the program.

Why each workload exists is recorded in BENCHMARK.json at the repository
root; README.md in this directory maps them onto the ROADMAP's primitive
grid.

Every input that depends on the workload seed is generated here and written
to files: the held-out cloud of a training workload, and the cloud and
control of the eval workload. The program receives a config naming those
files and never sees the seed. A training workload draws a fresh held-out
cloud for every command, and its testing error is the mean over them, so
that a run averages over many clouds rather than resting on one.

Clouds are jittered grids: one uniform point in each cell of a rows x cols
partition of the square. Each point is uniform on the square, like the
package's own random clouds, but the mean error over a jittered cloud varies
far less from seed to seed than over an i.i.d. cloud of the same size (about
25% interquartile spread over ten seeds at 300 i.i.d. points). That keeps the
error metrics comparable across seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import reference

# Half-width of the eval control's uniform entries. The flow cost does not
# depend on the values; a small control keeps the eval mean error, which
# the map's offset from the identity dominates, steady across seeds.
EVAL_CONTROL_AMPLITUDE = 0.1


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a diffeoflow command and how to size it.

    ``config`` holds the RunConfig fields of the full-size run; ``quick``
    overrides them for the tiny sizes the benchmark's own tests use.
    ``cloud`` is the size of the seeded cloud: the held-out cloud of a
    training workload, the dataset of the eval workload.
    """

    name: str
    command: str
    config: dict
    cloud: int
    quick: dict = field(default_factory=dict)
    quick_cloud: int = 0

    def sized(self, quick: bool) -> tuple[dict, int]:
        if quick:
            return {**self.config, **self.quick}, self.quick_cloud
        return dict(self.config), self.cloud


_AFFINE8_M900_N16 = {
    "family": "affine8",
    "nu": 20.0,
    "n_layers": 16,
    "beta": 1e-4,
    "grid_side": 1.5,
    "grid_per_axis": 30,
}
_QUICK_AFFINE8 = {"n_layers": 4, "grid_per_axis": 5}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="gd_affine8_m900_n16",
            command="train",
            config={**_AFFINE8_M900_N16, "algorithm": "gd", "max_iter": 100},
            cloud=300,
            quick={**_QUICK_AFFINE8, "max_iter": 6},
            quick_cloud=20,
        ),
        Workload(
            name="pmp_affine8_m900_n16",
            command="train",
            config={**_AFFINE8_M900_N16, "algorithm": "pmp", "max_iter": 30},
            cloud=300,
            quick={**_QUICK_AFFINE8, "max_iter": 6},
            quick_cloud=20,
        ),
        Workload(
            name="gd_enriched14_m10k_n32",
            command="train",
            config={
                "family": "enriched14",
                "nu": 20.0,
                "n_layers": 32,
                "algorithm": "gd",
                "beta": 1e-3,
                "grid_side": 1.5,
                "grid_per_axis": 100,
                "max_iter": 6,
            },
            cloud=3000,
            quick={"n_layers": 4, "grid_per_axis": 6, "max_iter": 4},
            quick_cloud=30,
        ),
        Workload(
            name="eval_enriched14_m100k_n32",
            command="eval",
            config={
                "family": "enriched14",
                "nu": 20.0,
                "n_layers": 32,
                "grid_side": 1.5,
                "test_count": 0,
            },
            cloud=100_000,
            quick={"n_layers": 4},
            quick_cloud=200,
        ),
    )
}


@dataclass
class Inputs:
    """The generated inputs of one run and the command line that uses them.

    ``sources`` and ``targets`` hold the cloud currently in ``cloud_path``.
    """

    argv: list[str]
    config_path: Path
    cloud_path: Path
    out_dir: Path
    config: dict
    seed: int
    cloud_size: int
    sources: np.ndarray
    targets: np.ndarray
    control: np.ndarray | None
    points: int
    passes: int

    def write_cloud(self, index: int) -> None:
        """Write the seed's ``index``-th cloud to ``cloud_path``."""
        rng = np.random.Generator(np.random.Philox([self.seed, index]))
        self.sources = jittered_cloud(rng, self.cloud_size, self.config["grid_side"])
        self.targets = reference.target(self.sources)
        write_dataset_csv(self.cloud_path, self.sources, self.targets)


def jittered_cloud(rng: np.random.Generator, count: int, side: float) -> np.ndarray:
    """``count`` points on the centered square, one per cell of a near-square grid."""
    rows = max(d for d in range(1, math.isqrt(count) + 1) if count % d == 0)
    cols = count // rows
    i, j = np.divmod(np.arange(count), cols)
    u = rng.random((count, 2))
    unit = np.stack([(i + u[:, 0]) / rows, (j + u[:, 1]) / cols], axis=1)
    return side * (unit - 0.5)


def write_dataset_csv(path: Path, sources: np.ndarray, targets: np.ndarray) -> None:
    """The package's dataset format: header x1,x2,y1,y2, 17 significant digits."""
    np.savetxt(path, np.hstack([sources, targets]), fmt="%.17g", delimiter=",",
               header="x1,x2,y1,y2", comments="")


def write_control_csv(path: Path, control: np.ndarray) -> None:
    """The package's control format: header u1..ul, one row per layer."""
    header = ",".join(f"u{i + 1}" for i in range(control.shape[1]))
    np.savetxt(path, control, fmt="%.17g", delimiter=",", header=header, comments="")


def generate_inputs(w: Workload, seed: int, quick: bool, work: Path) -> Inputs:
    """Write the seeded inputs of ``w`` into ``work`` and build its command line."""
    config, cloud_size = w.sized(quick)
    cloud_path = work / "cloud.csv"
    config_path = work / "config.json"
    out_dir = work / "out"
    control = None
    if w.command == "train":
        config["test_file"] = str(cloud_path)
        argv = ["train", "--config", str(config_path), "--out", str(out_dir)]
        points = config["grid_per_axis"] ** 2
        passes = config["max_iter"]
    else:
        config["dataset_file"] = str(cloud_path)
        n_fields = reference.FAMILY_FIELDS[config["family"]]
        rng = np.random.Generator(np.random.Philox(seed))
        control = rng.uniform(
            -EVAL_CONTROL_AMPLITUDE, EVAL_CONTROL_AMPLITUDE, size=(config["n_layers"], n_fields)
        )
        control_path = work / "control_in.csv"
        write_control_csv(control_path, control)
        argv = ["eval", "--config", str(config_path), "--control", str(control_path),
                "--out", str(out_dir)]
        points = cloud_size
        passes = 1
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    inputs = Inputs(
        argv=argv,
        config_path=config_path,
        cloud_path=cloud_path,
        out_dir=out_dir,
        config=config,
        seed=seed,
        cloud_size=cloud_size,
        sources=np.empty((0, 2)),
        targets=np.empty((0, 2)),
        control=control,
        points=points,
        passes=passes,
    )
    inputs.write_cloud(0)
    return inputs
