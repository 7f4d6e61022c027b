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
line ended by CRLF.  The writer computes those correctly rounded digits
exactly and in bulk, block by block, and leaves only zeros, subnormals, inf,
nan and magnitudes outside [1e-4, 1e16) to Python's ``%``; a value's decade
is the table ``_EXPONENT_DECADES`` at its binary exponent, raised by one
where it reaches the next power of ten.  Dataset files carry one sample per
row with header ``x1,x2,y1,y2``.
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
    """A smooth planar map R^2 -> R^2 with an explicit Jacobian.

    ``value_fn`` maps (..., 2) to (..., 2); ``jacobian_fn`` maps (..., 2)
    to (..., 2, 2).
    """

    kind: str
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

    return TargetMap(kind="identity", value_fn=value, jacobian_fn=jac)


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

    return TargetMap(kind="builtin", value_fn=value, jacobian_fn=jac)


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
    sources = rng.uniform(-0.5 * side, 0.5 * side, size=(count, 2))
    return Dataset(sources=sources, targets=target(sources))


_ROWS_PER_BLOCK = 4096


# _DECADES[j + 4] is the double 1e{j}, j = -4..16.  Each is the least double
# not below 10**j (1e-1 to 1e-4 round up), so a double x has floor(log10 x) = j
# exactly when _DECADES[j + 4] <= x < _DECADES[j + 5].  ``%.17g`` writes every
# x with 1e-4 <= |x| < 1e16 in fixed notation; these are the values
# _format_rows computes in bulk.
_DECADES = np.array([float(f"1e{j}") for j in range(-4, 17)])
# _EXPONENT_DECADES[e] = floor((e - 1023) * log10(2)): a double of biased exponent
# e lies in decade _EXPONENT_DECADES[e] or the next, which _DECADES tells apart.
# No product here is within 1e-4 of an integer, so the float floor is exact.
_EXPONENT_DECADES = np.floor((np.arange(2048) - 1023) * math.log10(2)).astype(np.intp)
_POW5 = np.array([5 ** k for k in range(21)], dtype=np.uint64)
# The four ASCII digits of 0..9999 as one 32-bit word each, and the number of
# those digits up to the last nonzero one.
_QUAD_DIGITS = np.stack(np.meshgrid(*[np.arange(10, dtype=np.uint8)] * 4, indexing="ij"), -1)
_QUADS = (ord("0") + _QUAD_DIGITS).view(np.uint32).ravel()
_QUAD_LEN = (np.arange(1, 5, dtype=np.uint8) * (_QUAD_DIGITS != 0)).max(axis=-1).ravel()
# A value's text is picked out of a 44-byte row by the mask _KEEP[X, last,
# negative, ends_row], where X is its decade and d_last its last nonzero digit.
# Its row holds, from the quads of "000" d0 ... d16 written twice:
#   bytes  0-19   '0' '-' '0' d0 ... d15 '.'   (X <= 15: d16 is never an integer digit)
#   bytes 20-39   '0' '0' '0' d0 ... d16
#   bytes 40-43   ',' CR LF NUL
# and the text is, in order: '-' (byte 1) when negative; the integer part
# d0 ... dX (bytes 3 to 3 + X), or the '0' of byte 2 when X < 0; '.' (byte 19)
# when a fraction digit is left; the fraction, bytes 24 + X to 23 + last, which
# begins with -X - 1 of the zeros in bytes 20-22 when X < 0; then ',' (byte 40),
# or CRLF (bytes 41-42) after the last value of a table row.
_ROW_BYTES = 44
_SEPARATORS = np.frombuffer(b",\r\n\0", dtype=np.uint32)[0]
_X, _LAST, _NEG, _END, _B = np.ogrid[-4:16, 0:17, 0:2, 0:2, 0:_ROW_BYTES]
_KEEP = (
    ((_B == 1) & (_NEG == 1)) | ((_B == 2) & (_X < 0)) | ((3 <= _B) & (_B <= 3 + _X))
    | ((_B == 19) & (_LAST > _X)) | ((24 + _X <= _B) & (_B <= 23 + _LAST))
    | np.where(_END == 1, (_B == 41) | (_B == 42), _B == 40)
).reshape(-1, _ROW_BYTES)
del _X, _LAST, _NEG, _END, _B


def _format_rows(block: np.ndarray) -> bytes:
    """The table rows of a 2-D float block: ``%.17g`` values, commas and CRLFs.

    Every value x with 1e-4 <= |x| < 1e16 and X = floor(log10 |x|) gets its 17
    significant digits D = round-half-even(|x| * 10**(16 - X)) exactly: the
    product of its 53-bit mantissa and 5**(16 - X) is held in two 64-bit words
    and shifted right, ties broken on the dropped bits.  D never rounds up to
    10**17 there: no double of that range lies within half a unit of the 17th
    digit below a power of ten.  Every other value (zeros, subnormals, small
    or huge magnitudes, inf, nan) is formatted by ``%`` one at a time.
    """
    u64 = np.uint64
    values = block.ravel()
    n = values.size
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0
    bits = a.view(u64)
    b = (bits >> u64(52)).astype(np.intp)
    x = _EXPONENT_DECADES[b]
    x += a >= _DECADES[x + 5]
    k = 16 - x
    # |x| * 10**k = (8 * mantissa) * 5**k / 2**s with 1 <= s <= 49; the product,
    # below 2**103, is held in the words (hi, lo).
    mant = ((bits & u64(2 ** 52 - 1)) | u64(2 ** 52)) << u64(3)
    pow5 = _POW5[k]
    m_lo, m_hi = mant & u64(0xFFFFFFFF), mant >> u64(32)
    p_lo, p_hi = pow5 & u64(0xFFFFFFFF), pow5 >> u64(32)
    low = m_lo * p_lo
    mid = m_hi * p_lo + m_lo * p_hi
    lo = low + (mid << u64(32))
    hi = m_hi * p_hi + (mid >> u64(32)) + (lo < low)
    s = (1078 - b - k).astype(u64)
    d = (hi << (u64(64) - s)) | (lo >> s)
    dropped = lo & ((u64(1) << s) - u64(1))
    d += dropped + (d & u64(1)) > (u64(1) << (s - u64(1)))  # half to even
    # D as the quads "000" d0, d1-d4, ..., d13-d16, and the index of its last
    # nonzero digit (d0 is not zero).
    quads = np.empty((n, 5), dtype=u64)
    for j in range(4, 0, -1):
        q = d // u64(10 ** 4)
        quads[:, j] = d - q * u64(10 ** 4)
        d = q
    quads[:, 0] = d
    last = np.zeros(n, dtype=np.intp)
    for j in range(1, 5):
        quad = quads[:, j]
        last = np.where(quad != 0, 4 * (j - 1) + _QUAD_LEN[quad], last)
    words = np.empty((n, _ROW_BYTES // 4), dtype=np.uint32)
    words[:, 0:5] = words[:, 5:10] = _QUADS.take(quads)
    words[:, 10] = _SEPARATORS
    chars = words.view(np.uint8)
    chars[:, 1] = ord("-")
    chars[:, 19] = ord(".")
    end = np.zeros(block.shape, dtype=np.intp)
    end[:, -1:] = 1
    keep = _KEEP.take((((x + 4) * 17 + last) * 2 + (values < 0)) * 2 + end.ravel(), axis=0)
    slow = np.flatnonzero(~fast)
    if slow.size:  # at most 24 bytes each, as in -2.2250738585072014e-308
        texts = [b"%.17g" % v for v in values[slow].tolist()]
        words[slow, 0:6] = np.array(texts, dtype="S24").view(np.uint32).reshape(-1, 6)
        keep[slow, :40] = np.arange(40) < np.array([len(t) for t in texts])[:, None]
    return chars[keep].tobytes()


def write_table(path, header, table) -> None:
    """Write a header line and one row per record of a 2-D float table.

    The bytes are those of ``np.savetxt`` with ``fmt="%.17g"``, a comma
    delimiter and CRLF line ends; each block of ``_ROWS_PER_BLOCK`` rows is
    formatted in bulk by ``_format_rows``.
    """
    table = np.asarray(table, dtype=float)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode("utf-8"))
        for start in range(0, table.shape[0], _ROWS_PER_BLOCK):
            fh.write(_format_rows(table[start:start + _ROWS_PER_BLOCK]))


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


def _dataset_header(width: int) -> list[str]:
    return [f"x{i + 1}" for i in range(width)] + [f"y{i + 1}" for i in range(width)]


def save_dataset_csv(path, data: Dataset) -> None:
    """Write one sample per row as x1,x2,y1,y2."""
    write_table(path, _dataset_header(2), np.hstack([data.sources, data.targets]))


def load_dataset_csv(path) -> Dataset:
    """Read a dataset written by save_dataset_csv."""
    header, arr = read_table(path, "dataset")
    width = len(header) // 2  # any width, so that a 1-D or 3-D file meets Dataset's shape check
    if header != _dataset_header(width):
        raise ValueError(f"unexpected dataset header in {path}: {header}")
    try:
        return Dataset(sources=arr[:, :width], targets=arr[:, width:])
    except ValueError as err:  # a width other than 2, or repeated source points
        raise ValueError(f"dataset file {path}: {err}") from err
