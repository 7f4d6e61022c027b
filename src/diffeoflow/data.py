"""Target maps, dataset construction, and CSV serialization.

The built-in benchmark target is the composition Psi_tilde o T o R of three
planar diffeomorphisms, applied in the order rotate, translate, deform:

    R: counterclockwise rotation by pi/3 about the origin,
    T: translation by (0.3, 0.2),
    Psi_tilde(z) = z + (2 z1 exp(z1^2 - 1), 2 z2^3) + (-4, -4.5).

Each factor is a diffeomorphism connected to the identity, so the
composition is one as well; its Jacobian is available in closed form and is
used by the Lipschitz diagnostics.

Training clouds are uniform m x m grids on an axis-aligned square centered
at the origin (endpoints included).  Held-out clouds are drawn uniformly at
random from the same square with the Philox counter-based 64-bit generator,
so a seed pins the cloud down across platforms and runs.

Every float file the package writes or reads (datasets, controls, traces,
evaluations, benchmark tables) is one table format, kept here in
``write_table``/``read_table``: a header line of comma-separated column
names, then one comma-separated row per record, every value written as
``%.17g`` (so reading it back reproduces the float bit for bit) and every
line ended by CRLF.  Dataset files carry one sample per row with header
``x1,...,xn,y1,...,yn``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .objective import Dataset

TRANSLATION = (0.3, 0.2)
ROTATION_ANGLE = math.pi / 3.0


@dataclass(frozen=True)
class TargetMap:
    """A smooth map R^n -> R^n with an explicit Jacobian.

    ``value_fn`` maps (..., dim) to (..., dim); ``jacobian_fn`` maps
    (..., dim) to (..., dim, dim).
    """

    kind: str
    dim: int
    value_fn: Callable[[np.ndarray], np.ndarray]
    jacobian_fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.value_fn(np.asarray(x, dtype=float))

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return self.jacobian_fn(np.asarray(x, dtype=float))


def identity_target() -> TargetMap:
    def value(x: np.ndarray) -> np.ndarray:
        return x.copy()

    def jac(x: np.ndarray) -> np.ndarray:
        return np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()

    return TargetMap(kind="identity", dim=2, value_fn=value, jacobian_fn=jac)


def builtin_target() -> TargetMap:
    """The benchmark planar diffeomorphism: rotate, translate, deform."""
    c, s = math.cos(ROTATION_ANGLE), math.sin(ROTATION_ANGLE)
    rot = np.array([[c, -s], [s, c]])
    shift = np.array(TRANSLATION)
    offset = np.array([-4.0, -4.5])

    def value(x: np.ndarray) -> np.ndarray:
        z = x @ rot.T + shift
        z1, z2 = z[..., 0], z[..., 1]
        out = z.copy()
        # Far out the deformation overflows to inf, which Dataset rejects;
        # no warning is raised on the way.
        with np.errstate(over="ignore"):
            out[..., 0] += 2.0 * z1 * np.exp(z1 * z1 - 1.0)
            out[..., 1] += 2.0 * z2 ** 3
        return out + offset

    def jac(x: np.ndarray) -> np.ndarray:
        z = x @ rot.T + shift
        z1, z2 = z[..., 0], z[..., 1]
        deform = np.zeros(x.shape[:-1] + (2, 2))
        deform[..., 0, 0] = 1.0 + 2.0 * np.exp(z1 * z1 - 1.0) * (1.0 + 2.0 * z1 * z1)
        deform[..., 1, 1] = 1.0 + 6.0 * z2 * z2
        return deform @ rot

    return TargetMap(kind="builtin", dim=2, value_fn=value, jacobian_fn=jac)


def target_from_name(name: str) -> TargetMap:
    if name == "builtin":
        return builtin_target()
    if name == "identity":
        return identity_target()
    raise ValueError(f"unknown target {name!r} (expected 'builtin' or 'identity')")


def square_grid(side: float, per_axis: int) -> np.ndarray:
    """Uniform per_axis x per_axis grid on the centered square, endpoints included.

    Rows are ordered with the first coordinate varying slowest.
    """
    if side <= 0.0:
        raise ValueError(f"side must be positive, got {side}")
    if per_axis < 2:
        raise ValueError(f"per_axis must be at least 2, got {per_axis}")
    axis = np.linspace(-0.5 * side, 0.5 * side, per_axis)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([g1.ravel(), g2.ravel()], axis=1)


def make_grid_dataset(
    target: TargetMap, side: float = 1.5, per_axis: int = 30
) -> Dataset:
    """Grid sources on the centered square paired with their target images."""
    sources = square_grid(side, per_axis)
    return Dataset(sources=sources, targets=target(sources))


def make_random_testset(
    target: TargetMap, side: float = 1.5, count: int = 300, seed: int = 0
) -> Dataset:
    """Uniform random sources on the same square, paired with target images.

    Sampling uses numpy's Philox bit generator (counter-based, 64-bit), so
    the same seed yields the same cloud on every platform.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if side <= 0.0:
        raise ValueError(f"side must be positive, got {side}")
    rng = np.random.Generator(np.random.Philox(seed))
    sources = rng.uniform(-0.5 * side, 0.5 * side, size=(count, target.dim))
    return Dataset(sources=sources, targets=target(sources))


_ROWS_PER_BLOCK = 4096


def write_table(path, header, table) -> None:
    """Write a header line and one row per record of a 2-D float table.

    The bytes are those of ``np.savetxt`` with ``fmt="%.17g"``, a comma
    delimiter and CRLF line ends, but each block of ``_ROWS_PER_BLOCK`` rows
    is formatted by a single ``%`` instead of one per row.
    """
    table = np.asarray(table)
    row = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, table.shape[0], _ROWS_PER_BLOCK):
            block = table[start:start + _ROWS_PER_BLOCK]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def read_table(path, what: str) -> tuple[list[str], np.ndarray]:
    """Read a table written by write_table: its header names and a 2-D float array.

    Quoted or space-padded numbers, blank lines and a missing final newline
    are accepted.  ``what`` names the kind of file in error messages; an
    empty file, a header without rows, a malformed row, rows whose width is
    not the header's, a value that is not finite and bytes that are not
    UTF-8 are ValueErrors naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
            first = next((line for line in fh if line.strip()), None)
            table = None if first is None else np.loadtxt(
                itertools.chain([first], fh), delimiter=",", ndmin=2, quotechar='"', comments=None
            )
    except ValueError as err:  # UnicodeDecodeError is one
        raise ValueError(f"malformed {what} file {path}: {err}") from err
    if not header:
        raise ValueError(f"empty {what} file {path}")
    if first is None:
        raise ValueError(f"{what} file {path} has a header but no rows")
    names = header.rstrip("\n").split(",")
    if table.shape[1] != len(names):
        raise ValueError(f"{what} file {path} has {len(names)} header names, {table.shape[1]} columns")
    if not np.isfinite(table).all():
        raise ValueError(f"{what} file {path} holds a value that is not finite")
    return names, table


def _dataset_header(dim: int) -> list[str]:
    return [f"x{i + 1}" for i in range(dim)] + [f"y{i + 1}" for i in range(dim)]


def save_dataset_csv(path, data: Dataset) -> None:
    """Write one sample per row as x1..xn,y1..yn."""
    write_table(path, _dataset_header(data.dim), np.hstack([data.sources, data.targets]))


def load_dataset_csv(path) -> Dataset:
    """Read a dataset written by save_dataset_csv."""
    header, arr = read_table(path, "dataset")
    dim = len(header) // 2
    if header != _dataset_header(dim):
        raise ValueError(f"unexpected dataset header in {path}: {header}")
    try:
        return Dataset(sources=arr[:, :dim], targets=arr[:, dim:])
    except ValueError as err:  # repeated source points
        raise ValueError(f"dataset file {path}: {err}") from err
