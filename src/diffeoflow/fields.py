"""Controlled vector-field families: values, Jacobians and their contractions.

A family is an ordered tuple of smooth fields F_1, ..., F_l on R^n.  The
network layers move points along constant-coefficient combinations of these
fields, so the flow, the gradients and the metrics use four contractions
of the fields at a batch of points:

    displacement(x, u)  = sum_i u_i F_i(x)           (one layer's step),
    layer_matrix(x, u)  = sum_i u_i DF_i(x)          (its state matrix),
    pairing(x, lam)[i]  = sum_j <lam^j, F_i(x^j)>    (the control gradient),
    adjoint_step(x, u, lam, h)                        (one node of the
                        = (pairing(x, lam),            backward sweep: its
                           lam (I + h layer_matrix))   gradient row and the
                                                       stepped covector).

The base class computes them from the stacked ``values`` and ``jacobians``
of the fields, so a family only has to supply those two.  The built-in
families compute them in closed form instead, without the mostly-zero
``(..., l, n[, n])`` tensors, and add terms in the same order as the dense
contraction, so both give bit-identical results.

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
leading batch axes is allowed and preserved.  They may come in any memory
layout: the flow passes (M, dim) views whose coordinate columns are
contiguous, and the closed-form contractions return their (M, dim) results
in the layout of their input.
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
    freely across threads.  Subclasses supply ``values`` and ``jacobians``;
    the contractions default to dense einsums over them.
    """

    kind: str
    dim: int
    n_fields: int

    @abstractmethod
    def values(self, x: np.ndarray) -> np.ndarray:
        """Stacked field values at ``x``: shape ``(..., n_fields, dim)``."""

    @abstractmethod
    def jacobians(self, x: np.ndarray) -> np.ndarray:
        """Stacked field Jacobians at ``x``: shape ``(..., n_fields, dim, dim)``."""

    def displacement(self, x: np.ndarray, u_row: np.ndarray) -> np.ndarray:
        """sum_i u_row[i] * F_i(x): shape ``(..., dim)``."""
        return np.einsum("...ln,l->...n", self.values(x), u_row)

    def layer_matrix(self, x: np.ndarray, u_row: np.ndarray) -> np.ndarray:
        """sum_i u_row[i] * DF_i(x): shape ``(..., dim, dim)``."""
        return np.einsum("...lpq,l->...pq", self.jacobians(x), u_row)

    def pairing(self, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """sum_j <lam^j, F_i(x^j)> over the first axis of ``x`` and ``lam``.

        Both have shape ``(M, ..., dim)``; the result has shape
        ``(..., n_fields)``, keeping any middle axes.
        """
        return np.einsum("m...n,m...ln->...l", lam, self.values(x))

    def adjoint_step(
        self, x: np.ndarray, u_row: np.ndarray, lam: np.ndarray, h: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """One node of the backward sweep through the layer x -> x + h sum_i u_row[i] F_i(x).

        ``x`` and ``lam`` have shape ``(M, dim)``.  Returns the pairing row
        ``sum_j <lam^j, F_i(x^j)>`` of shape ``(n_fields,)`` and the covector
        ``lam (I + h sum_i u_row[i] DF_i(x))`` of shape ``(M, dim)``.
        """
        eye = np.eye(self.dim)
        step = np.einsum("mp,mpn->mn", lam, eye + h * self.layer_matrix(x, u_row))
        return self.pairing(x, lam), step


def _as_points(x: np.ndarray, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (dim,):
        raise ValueError(f"points must have {dim} coordinates on the last axis, got shape {x.shape}")
    return x


def _axis_sums(axes, terms, weights) -> list:
    """Per axis, the sum of terms[i] * weights[i] over the fields along it.

    Each sum starts from 0 and adds its terms in family order, as the dense
    einsum does, so it is bit-identical to it; a None term is zero.  A sum
    stays a scalar while its terms are; from its first array term on it is
    one fresh array, and every later term is added into it in place.
    """
    sums = [0.0, 0.0]
    for axis, t, w in zip(axes, terms, weights):
        if t is None:
            continue
        term = t * w
        if isinstance(sums[axis], np.ndarray):
            sums[axis] += term
        elif isinstance(term, np.ndarray):
            sums[axis] = np.add(sums[axis], term, out=term)
        else:
            sums[axis] = sums[axis] + term
    return sums


@dataclass(frozen=True)
class Affine8(VectorFieldFamily):
    """Constant, Gaussian-damped constant, and linear fields on the plane.

    Each field is a scalar coefficient times one coordinate direction:
    field i is c_i(x) e_{axes[i]}.  ``_coefficients`` and ``_gradients``
    list c_i and grad c_i in family order, and values, Jacobians and the
    three contractions are all computed from these lists, so a subclass
    that appends fields only extends the lists.
    """

    nu: float = DEFAULT_GAUSSIAN_WIDTH
    kind: ClassVar[str] = "affine8"
    dim: ClassVar[int] = 2
    n_fields: ClassVar[int] = 8
    axes: ClassVar[tuple[int, ...]] = (0, 1, 0, 1, 0, 0, 1, 1)

    def _coefficients(self, x1, x2, g) -> tuple:
        """c_i at the points; 1.0 stands for a constant coefficient."""
        return (1.0, 1.0, g, g, x1, x2, x1, x2)

    def _gradients(self, x1, x2, g, dg1, dg2) -> tuple:
        """(dc_i/dx1, dc_i/dx2) at the points; None stands for zero."""
        return (
            (None, None), (None, None), (dg1, dg2), (dg1, dg2),
            (1.0, None), (None, 1.0), (1.0, None), (None, 1.0),
        )

    def _planar(self, x: np.ndarray) -> tuple:
        x = _as_points(x, 2)
        x1, x2 = x[..., 0], x[..., 1]
        with np.errstate(over="ignore"):  # |x|^2 = inf gives g = exp(-inf) = 0, the exact limit
            g = np.exp(-0.5 * (x1 * x1 + x2 * x2) / self.nu)
        return x, x1, x2, g

    def _planar_gradients(self, x1, x2, g) -> tuple:
        dg1 = -g * x1 / self.nu
        dg2 = -g * x2 / self.nu
        return self._gradients(x1, x2, g, dg1, dg2)

    def _layer_entries(self, grads, u_row) -> list:
        """Entries a[p][q] of sum_i u_row[i] DF_i, each summed column by column."""
        columns = [_axis_sums(self.axes, [grad[q] for grad in grads], u_row) for q in (0, 1)]
        return [[columns[q][p] for q in (0, 1)] for p in (0, 1)]

    def values(self, x: np.ndarray) -> np.ndarray:
        x, x1, x2, g = self._planar(x)
        out = np.zeros(x.shape[:-1] + (self.n_fields, 2))
        for i, (axis, c) in enumerate(zip(self.axes, self._coefficients(x1, x2, g))):
            out[..., i, axis] = c
        return out

    def jacobians(self, x: np.ndarray) -> np.ndarray:
        x, x1, x2, g = self._planar(x)
        grads = self._planar_gradients(x1, x2, g)
        out = np.zeros(x.shape[:-1] + (self.n_fields, 2, 2))
        for i, (axis, grad) in enumerate(zip(self.axes, grads)):
            for j, d in enumerate(grad):
                if d is not None:
                    out[..., i, axis, j] = d
        return out

    def displacement(self, x: np.ndarray, u_row: np.ndarray) -> np.ndarray:
        x, x1, x2, g = self._planar(x)
        out = np.empty_like(x)  # in the layout of x, so each coordinate is written in one pass
        out[..., 0], out[..., 1] = _axis_sums(self.axes, self._coefficients(x1, x2, g), u_row)
        return out

    def layer_matrix(self, x: np.ndarray, u_row: np.ndarray) -> np.ndarray:
        x, x1, x2, g = self._planar(x)
        a = self._layer_entries(self._planar_gradients(x1, x2, g), u_row)
        out = np.empty(x.shape + (2,))
        for p in (0, 1):
            out[..., p, 0], out[..., p, 1] = a[p]
        return out

    def _pairing(self, lam, x1, x2, g) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        terms = np.empty(lam.shape[:-1] + (self.n_fields,))
        for i, (axis, c) in enumerate(zip(self.axes, self._coefficients(x1, x2, g))):
            np.multiply(lam[..., axis], c, out=terms[..., i])
        # This einsum adds the samples in order, starting from +0.0, as the
        # dense einsum does; a 1-D sum per field would add them pairwise.
        return np.einsum("m...i->...i", terms)

    def pairing(self, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
        x, x1, x2, g = self._planar(x)
        return self._pairing(lam, x1, x2, g)

    def adjoint_step(
        self, x: np.ndarray, u_row: np.ndarray, lam: np.ndarray, h: float
    ) -> tuple[np.ndarray, np.ndarray]:
        x, x1, x2, g = self._planar(x)
        lam = np.asarray(lam, dtype=float)
        row = self._pairing(lam, x1, x2, g)
        a = self._layer_entries(self._planar_gradients(x1, x2, g), u_row)
        # b = I + h a entry by entry; 0.0 + keeps the signed zeros of eye + h * a.
        b = [[(1.0 if p == q else 0.0) + h * a[p][q] for q in (0, 1)] for p in (0, 1)]
        l0, l1 = lam[:, 0], lam[:, 1]
        step = np.empty_like(lam)
        for q in (0, 1):
            step[:, q] = l0 * b[0][q] + l1 * b[1][q]
        # The einsum sums into a zeroed output; adding 0.0 turns -0.0 into 0.0 as it does.
        step += 0.0
        return row, step


@dataclass(frozen=True)
class Enriched14(Affine8):
    """Affine8 plus the six Gaussian-damped quadratic fields."""

    kind: ClassVar[str] = "enriched14"
    n_fields: ClassVar[int] = 14
    axes: ClassVar[tuple[int, ...]] = Affine8.axes + (0, 0, 0, 1, 1, 1)

    def _coefficients(self, x1, x2, g) -> tuple:
        quads = (x1 * x1 * g, x1 * x2 * g, x2 * x2 * g)
        return super()._coefficients(x1, x2, g) + quads + quads

    def _gradients(self, x1, x2, g, dg1, dg2) -> tuple:
        # grad(p * g) = g * grad(p) + p * grad(g), with grad(g) = -g x / nu.
        p11, p12, p22 = x1 * x1, x1 * x2, x2 * x2
        quads = (
            (g * (2.0 * x1) + p11 * dg1, p11 * dg2),
            (g * x2 + p12 * dg1, g * x1 + p12 * dg2),
            (p22 * dg1, g * (2.0 * x2) + p22 * dg2),
        )
        return super()._gradients(x1, x2, g, dg1, dg2) + quads + quads


@dataclass(frozen=True)
class FieldSpec:
    """One user-supplied field: a value callable and its Jacobian callable.

    Both callables receive points of shape ``(..., dim)``, in any memory
    layout, and must return arrays broadcastable to ``(..., dim)`` and
    ``(..., dim, dim)``.
    """

    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class CustomFamily(VectorFieldFamily):
    """Family assembled from user-supplied field callables."""

    fields: tuple[FieldSpec, ...]
    dim: int
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


def make_custom(fields: Sequence[FieldSpec], dim: int) -> CustomFamily:
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if len(fields) == 0:
        raise ValueError("a family needs at least one field")
    return CustomFamily(fields=tuple(fields), dim=int(dim))


def family_from_name(name: str, nu: float = DEFAULT_GAUSSIAN_WIDTH) -> VectorFieldFamily:
    """Resolve one of the built-in family names."""
    if name == "affine8":
        return make_affine8(nu)
    if name == "enriched14":
        return make_enriched14(nu)
    raise ValueError(f"unknown field family {name!r} (expected 'affine8' or 'enriched14')")
