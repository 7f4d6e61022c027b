"""Controlled vector-field families: batched values and Jacobians.

A family is an ordered tuple of smooth fields F_1, ..., F_l on R^n.  The
network layers move points along constant-coefficient combinations of these
fields, so everything downstream (flow, gradients, metrics) only ever needs
two primitives per field: its value and its Jacobian at a batch of points.

Two planar built-ins are provided.

``affine8`` (n = 2, l = 8), in this order:

    0: d/dx1                          (constant)
    1: d/dx2                          (constant)
    2: exp(-|x|^2 / (2 nu)) d/dx1     (Gaussian-damped constant)
    3: exp(-|x|^2 / (2 nu)) d/dx2
    4: x1 d/dx1                       (linear)
    5: x2 d/dx1
    6: x1 d/dx2
    7: x2 d/dx2

``enriched14`` (n = 2, l = 14) keeps fields 0-7 above and appends the six
Gaussian-damped quadratic fields, first the three pushing along d/dx1, then
the three along d/dx2, each with monomials ordered (x1^2, x1*x2, x2^2):

    8:  x1^2  exp(-|x|^2 / (2 nu)) d/dx1
    9:  x1*x2 exp(-|x|^2 / (2 nu)) d/dx1
    10: x2^2  exp(-|x|^2 / (2 nu)) d/dx1
    11: x1^2  exp(-|x|^2 / (2 nu)) d/dx2
    12: x1*x2 exp(-|x|^2 / (2 nu)) d/dx2
    13: x2^2  exp(-|x|^2 / (2 nu)) d/dx2

The ordering is part of the interface: control column i always multiplies
the field listed at position i.

Points are arrays whose last axis holds the coordinates; any number of
leading batch axes is allowed and preserved.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

DEFAULT_GAUSSIAN_WIDTH = 20.0


class VectorFieldFamily(ABC):
    """Ordered family of smooth fields on R^n.

    Evaluation is pure: instances hold no mutable state and may be shared
    freely across threads.
    """

    kind: str
    dim: int
    n_fields: int
    nu: float

    @abstractmethod
    def values(self, x: np.ndarray) -> np.ndarray:
        """Stacked field values at ``x``: shape ``(..., n_fields, dim)``."""

    @abstractmethod
    def jacobians(self, x: np.ndarray) -> np.ndarray:
        """Stacked field Jacobians at ``x``: shape ``(..., n_fields, dim, dim)``."""

    def value(self, i: int, x: np.ndarray) -> np.ndarray:
        """Value of field ``i`` (0-based) at ``x``: shape ``(..., dim)``."""
        self._check_index(i)
        return self.values(x)[..., i, :]

    def jacobian(self, i: int, x: np.ndarray) -> np.ndarray:
        """Jacobian of field ``i`` (0-based) at ``x``: shape ``(..., dim, dim)``."""
        self._check_index(i)
        return self.jacobians(x)[..., i, :, :]

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.n_fields:
            raise IndexError(
                f"field index {i} out of range for family {self.kind!r} "
                f"with {self.n_fields} fields"
            )


def _as_points(x: np.ndarray, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (dim,):
        raise ValueError(f"points must have {dim} coordinates on the last axis, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class Affine8(VectorFieldFamily):
    """Constant, Gaussian-damped constant, and linear fields on the plane.

    ``values`` and ``jacobians`` fill fields 0-7 and leave any further
    fields to ``_fill_extra_values`` and ``_fill_extra_jacobians``.
    """

    nu: float = DEFAULT_GAUSSIAN_WIDTH
    kind: ClassVar[str] = "affine8"
    dim: ClassVar[int] = 2
    n_fields: ClassVar[int] = 8

    def values(self, x: np.ndarray) -> np.ndarray:
        x = _as_points(x, 2)
        x1, x2 = x[..., 0], x[..., 1]
        g = np.exp(-0.5 * (x1 * x1 + x2 * x2) / self.nu)
        out = np.zeros(x.shape[:-1] + (self.n_fields, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 1.0
        out[..., 2, 0] = g
        out[..., 3, 1] = g
        out[..., 4, 0] = x1
        out[..., 5, 0] = x2
        out[..., 6, 1] = x1
        out[..., 7, 1] = x2
        self._fill_extra_values(out, x1, x2, g)
        return out

    def jacobians(self, x: np.ndarray) -> np.ndarray:
        x = _as_points(x, 2)
        x1, x2 = x[..., 0], x[..., 1]
        g = np.exp(-0.5 * (x1 * x1 + x2 * x2) / self.nu)
        dg1 = -g * x1 / self.nu
        dg2 = -g * x2 / self.nu
        out = np.zeros(x.shape[:-1] + (self.n_fields, 2, 2))
        out[..., 2, 0, 0] = dg1
        out[..., 2, 0, 1] = dg2
        out[..., 3, 1, 0] = dg1
        out[..., 3, 1, 1] = dg2
        out[..., 4, 0, 0] = 1.0
        out[..., 5, 0, 1] = 1.0
        out[..., 6, 1, 0] = 1.0
        out[..., 7, 1, 1] = 1.0
        self._fill_extra_jacobians(out, x1, x2, g, dg1, dg2)
        return out

    def _fill_extra_values(self, out, x1, x2, g) -> None:
        pass

    def _fill_extra_jacobians(self, out, x1, x2, g, dg1, dg2) -> None:
        pass


@dataclass(frozen=True)
class Enriched14(Affine8):
    """Affine8 plus the six Gaussian-damped quadratic fields."""

    kind: ClassVar[str] = "enriched14"
    n_fields: ClassVar[int] = 14

    def _fill_extra_values(self, out, x1, x2, g) -> None:
        quads = (x1 * x1 * g, x1 * x2 * g, x2 * x2 * g)
        for m, q in enumerate(quads):
            out[..., 8 + m, 0] = q
            out[..., 11 + m, 1] = q

    def _fill_extra_jacobians(self, out, x1, x2, g, dg1, dg2) -> None:
        # grad(p * g) = g * grad(p) + p * grad(g), with grad(g) = -g x / nu.
        monomials = (
            (x1 * x1, 2.0 * x1, np.zeros_like(x1)),
            (x1 * x2, x2, x1),
            (x2 * x2, np.zeros_like(x2), 2.0 * x2),
        )
        for m, (p, dp1, dp2) in enumerate(monomials):
            row1 = g * dp1 + p * dg1
            row2 = g * dp2 + p * dg2
            out[..., 8 + m, 0, 0] = row1
            out[..., 8 + m, 0, 1] = row2
            out[..., 11 + m, 1, 0] = row1
            out[..., 11 + m, 1, 1] = row2


@dataclass(frozen=True)
class FieldSpec:
    """One user-supplied field: a value callable and its Jacobian callable.

    Both callables receive points of shape ``(..., dim)`` and must return
    arrays broadcastable to ``(..., dim)`` and ``(..., dim, dim)``.
    """

    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class CustomFamily(VectorFieldFamily):
    """Family assembled from user-supplied field callables."""

    fields: tuple[FieldSpec, ...]
    dim: int
    nu: float = DEFAULT_GAUSSIAN_WIDTH
    kind: ClassVar[str] = "custom"

    @property
    def n_fields(self) -> int:
        return len(self.fields)

    def values(self, x: np.ndarray) -> np.ndarray:
        x = _as_points(x, self.dim)
        out = np.empty(x.shape[:-1] + (len(self.fields), self.dim))
        for i, f in enumerate(self.fields):
            out[..., i, :] = f.value(x)
        return out

    def jacobians(self, x: np.ndarray) -> np.ndarray:
        x = _as_points(x, self.dim)
        out = np.empty(x.shape[:-1] + (len(self.fields), self.dim, self.dim))
        for i, f in enumerate(self.fields):
            out[..., i, :, :] = f.jacobian(x)
        return out


def _check_width(nu: float) -> float:
    nu = float(nu)
    if not np.isfinite(nu) or nu <= 0.0:
        raise ValueError(f"Gaussian width nu must be positive and finite, got {nu}")
    return nu


def make_affine8(nu: float = DEFAULT_GAUSSIAN_WIDTH) -> Affine8:
    """Eight-field planar family: constants, damped constants, linears."""
    return Affine8(nu=_check_width(nu))


def make_enriched14(nu: float = DEFAULT_GAUSSIAN_WIDTH) -> Enriched14:
    """Fourteen-field planar family: affine8 plus damped quadratics."""
    return Enriched14(nu=_check_width(nu))


def make_custom(
    fields: Sequence[FieldSpec], dim: int, nu: float = DEFAULT_GAUSSIAN_WIDTH
) -> CustomFamily:
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if len(fields) == 0:
        raise ValueError("a family needs at least one field")
    return CustomFamily(fields=tuple(fields), dim=int(dim), nu=_check_width(nu))


def family_from_name(name: str, nu: float = DEFAULT_GAUSSIAN_WIDTH) -> VectorFieldFamily:
    """Resolve one of the built-in family names."""
    if name == "affine8":
        return make_affine8(nu)
    if name == "enriched14":
        return make_enriched14(nu)
    raise ValueError(f"unknown field family {name!r} (expected 'affine8' or 'enriched14')")
