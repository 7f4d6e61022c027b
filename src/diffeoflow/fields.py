"""Controlled vector-field families: values, Jacobians and their contractions.

A family is an ordered tuple of smooth fields F_1, ..., F_l on R^n.  The
network layers move points along constant-coefficient combinations of these
fields, so the flow, the gradients and the metrics use five contractions
of the fields at a batch of points:

    displacement(x, u)  = sum_i u_i F_i(x)           (one layer's step),
    layer_matrix(x, u)  = sum_i u_i DF_i(x)          (its state matrix),
    layer_factor(x, u, h)                             (the layer's
                        = I + h layer_matrix(x, u)     Jacobian),
    pairing(x, lam)[i]  = sum_j <lam^j, F_i(x^j)>    (the control gradient),
    adjoint_step(x, u, lam, h)                        (one node of the
                        = (pairing(x, lam),            backward sweep: its
                           lam layer_factor(x, u, h))  gradient row and the
                                                       stepped covector).

The base class computes them from the stacked ``values`` and ``jacobians``
of the fields, so a family only has to supply those two.  The built-in
families compute the four that a run calls, all but ``layer_matrix``, in
closed form instead, without the mostly-zero ``(..., l, n[, n])`` tensors,
and add terms in the same order as the dense contraction, so both give
bit-identical results.  Their ``layer_matrix``, ``values`` and ``jacobians``
are dense.  Within one call each per-point quantity (a square, the Gaussian
weight and its gradient, a product of coordinates) is computed once, and
nothing computed for one call is kept for the next.

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
from functools import cached_property
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

    def layer_factor(self, x: np.ndarray, u_row: np.ndarray, h: float) -> np.ndarray:
        """I + h * sum_i u_row[i] * DF_i(x), the Jacobian of one layer: shape ``(..., dim, dim)``.

        Called with -h it gives the backward-Euler factor I - h sum_i u_row[i] DF_i(x)
        bit for bit: (-h) * a is -(h * a), and y + (-z) is y - z in IEEE
        arithmetic.
        """
        return np.eye(self.dim) + h * self.layer_matrix(x, u_row)

    def adjoint_step(
        self, x: np.ndarray, u_row: np.ndarray, lam: np.ndarray, h: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """One node of the backward sweep through the layer x -> x + h sum_i u_row[i] F_i(x).

        ``x`` and ``lam`` have shape ``(M, dim)``.  Returns the pairing row
        ``sum_j <lam^j, F_i(x^j)>`` of shape ``(n_fields,)`` and the covector
        ``lam layer_factor(x, u_row, h)`` of shape ``(M, dim)``.
        """
        step = np.einsum("mp,mpn->mn", lam, self.layer_factor(x, u_row, h))
        return self.pairing(x, lam), step


def _as_points(x: np.ndarray, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (dim,):
        raise ValueError(f"points must have {dim} coordinates on the last axis, got shape {x.shape}")
    return x


def _axis_sums(axes, terms, weights, out=None) -> list:
    """Per axis, the sum of terms[i] * weights[i] over the fields along it.

    Each sum starts from 0 and adds its terms in family order, as the dense
    einsum does, so it is bit-identical to it; a None term is zero.  A sum
    stays a scalar while its terms are; from its first array term on it is
    one array, and every later term is added into it in place.  That array
    is fresh, or with ``out`` the column ``out[..., axis]``, so a caller that
    passes ``out`` must give every axis an array term.
    """
    sums = [0.0, 0.0]
    for axis, t, w in zip(axes, terms, weights):
        if t is None:
            continue
        if isinstance(sums[axis], np.ndarray):
            sums[axis] += t * w
        elif isinstance(t, np.ndarray):
            term = np.multiply(t, w, out=None if out is None else out[..., axis])
            sums[axis] = np.add(sums[axis], term, out=term)
        else:
            sums[axis] = sums[axis] + t * w
    return sums


class _Planar:
    """The per-point quantities of one call on planar points, each computed once.

    ``x`` holds the points, checked by ``_as_points``; ``x1``, ``x2`` are
    their coordinates, ``sq1`` and ``sq2`` the squares and ``g`` the Gaussian
    weight exp(-(sq1 + sq2) / (2 nu)).  The mixed monomial ``x1x2`` and the
    gradient ``dg`` = -g x / nu are computed on first use.  An instance lives
    only as long as the call that made it, so no array outlives its call.
    """

    def __init__(self, x: np.ndarray, nu: float):
        self.x, self.nu = _as_points(x, 2), nu
        self.x1, self.x2 = self.x[..., 0], self.x[..., 1]
        with np.errstate(over="ignore"):  # |x|^2 = inf gives g = exp(-inf) = 0, the exact limit
            self.sq1, self.sq2 = self.x1 * self.x1, self.x2 * self.x2
            self.g = np.exp(-0.5 * (self.sq1 + self.sq2) / nu)

    @cached_property
    def x1x2(self) -> np.ndarray:
        return self.x1 * self.x2

    @cached_property
    def dg(self) -> tuple[np.ndarray, np.ndarray]:
        neg_g = -self.g
        return neg_g * self.x1 / self.nu, neg_g * self.x2 / self.nu


@dataclass(frozen=True)
class Affine8(VectorFieldFamily):
    """Constant, Gaussian-damped constant, and linear fields on the plane.

    Each field is a scalar coefficient times one coordinate direction:
    field i is c_i(x) e_{axes[i]}.  ``_coefficients`` and ``_gradients``
    list c_i and grad c_i in family order, and values, Jacobians and the
    contractions are all computed from these lists, so a subclass
    that appends fields only extends the lists.
    """

    nu: float = DEFAULT_GAUSSIAN_WIDTH
    kind: ClassVar[str] = "affine8"
    dim: ClassVar[int] = 2
    n_fields: ClassVar[int] = 8
    axes: ClassVar[tuple[int, ...]] = (0, 1, 0, 1, 0, 0, 1, 1)

    def _coefficients(self, pts: _Planar) -> tuple:
        """c_i at the points; 1.0 stands for a constant coefficient."""
        return (1.0, 1.0, pts.g, pts.g, pts.x1, pts.x2, pts.x1, pts.x2)

    def _gradients(self, pts: _Planar) -> tuple:
        """(dc_i/dx1, dc_i/dx2) at the points; None stands for zero."""
        return (
            (None, None), (None, None), pts.dg, pts.dg,
            (1.0, None), (None, 1.0), (1.0, None), (None, 1.0),
        )

    def _factor_entries(self, pts: _Planar, u_row, h: float) -> list:
        """Entries b[p][q] of I + h sum_i u_row[i] DF_i; 0.0 + keeps the signed zeros of eye + h * a."""
        grads = self._gradients(pts)
        # columns[q][p] is entry a[p][q] of a = sum_i u_row[i] DF_i, summed column by column.
        columns = [_axis_sums(self.axes, [grad[q] for grad in grads], u_row) for q in (0, 1)]
        return [[(1.0 if p == q else 0.0) + h * columns[q][p] for q in (0, 1)] for p in (0, 1)]

    def values(self, x: np.ndarray) -> np.ndarray:
        pts = _Planar(x, self.nu)
        out = np.zeros(pts.x.shape[:-1] + (self.n_fields, 2))
        for i, (axis, c) in enumerate(zip(self.axes, self._coefficients(pts))):
            out[..., i, axis] = c
        return out

    def jacobians(self, x: np.ndarray) -> np.ndarray:
        pts = _Planar(x, self.nu)
        out = np.zeros(pts.x.shape[:-1] + (self.n_fields, 2, 2))
        for i, (axis, grad) in enumerate(zip(self.axes, self._gradients(pts))):
            for j, d in enumerate(grad):
                if d is not None:
                    out[..., i, axis, j] = d
        return out

    def displacement(self, x: np.ndarray, u_row: np.ndarray) -> np.ndarray:
        pts = _Planar(x, self.nu)
        out = np.empty_like(pts.x)  # in the layout of x, so each coordinate is summed in one pass
        _axis_sums(self.axes, self._coefficients(pts), u_row, out=out)
        return out

    def layer_factor(self, x: np.ndarray, u_row: np.ndarray, h: float) -> np.ndarray:
        # C order, like eye + h * layer_matrix, so that a product of factors stays on one path.
        pts = _Planar(x, self.nu)
        out = np.empty(pts.x.shape[:-1] + (2, 2))
        for p, row in enumerate(self._factor_entries(pts, u_row, h)):
            out[..., p, 0], out[..., p, 1] = row
        return out

    def _pairing(self, lam, pts: _Planar) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        terms = np.empty(lam.shape[:-1] + (self.n_fields,))
        for i, (axis, c) in enumerate(zip(self.axes, self._coefficients(pts))):
            np.multiply(lam[..., axis], c, out=terms[..., i])
        # This einsum adds the samples in order, starting from +0.0, as the
        # dense einsum does; a 1-D sum per field would add them pairwise.
        return np.einsum("m...i->...i", terms)

    def pairing(self, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
        return self._pairing(lam, _Planar(x, self.nu))

    def adjoint_step(
        self, x: np.ndarray, u_row: np.ndarray, lam: np.ndarray, h: float
    ) -> tuple[np.ndarray, np.ndarray]:
        pts = _Planar(x, self.nu)
        lam = np.asarray(lam, dtype=float)
        row = self._pairing(lam, pts)
        b = self._factor_entries(pts, u_row, h)
        l0, l1 = lam[:, 0], lam[:, 1]
        step = np.empty_like(lam)
        for q in (0, 1):
            column = np.multiply(l0, b[0][q], out=step[:, q])
            column += l1 * b[1][q]
        # The einsum sums into a zeroed output; adding 0.0 turns -0.0 into 0.0 as it does.
        step += 0.0
        return row, step


@dataclass(frozen=True)
class Enriched14(Affine8):
    """Affine8 plus the six Gaussian-damped quadratic fields."""

    kind: ClassVar[str] = "enriched14"
    n_fields: ClassVar[int] = 14
    axes: ClassVar[tuple[int, ...]] = Affine8.axes + (0, 0, 0, 1, 1, 1)

    def _coefficients(self, pts: _Planar) -> tuple:
        quads = (pts.sq1 * pts.g, pts.x1x2 * pts.g, pts.sq2 * pts.g)
        return super()._coefficients(pts) + quads + quads

    def _gradients(self, pts: _Planar) -> tuple:
        # grad(p * g) = g * grad(p) + p * grad(g), with grad(g) = -g x / nu.
        x1, x2, g, (dg1, dg2) = pts.x1, pts.x2, pts.g, pts.dg
        p11, p12, p22 = pts.sq1, pts.x1x2, pts.sq2
        quads = (
            (g * (2.0 * x1) + p11 * dg1, p11 * dg2),
            (g * x2 + p12 * dg1, g * x1 + p12 * dg2),
            (p22 * dg1, g * (2.0 * x2) + p22 * dg2),
        )
        return super()._gradients(pts) + quads + quads


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
