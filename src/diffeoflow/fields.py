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
closed form instead, without the mostly-zero ``(..., l, n[, n])`` tensors:
each field is a coefficient K_j(x) times one axis, for one list K that both
axes share, and each closed form is written once over K and its gradients.
It assembles each sum in place, adding terms in the dense contraction's
order, so both give the same bits; only a sum's leading ``0.0 +`` may move,
to its end or into a scalar term, since adding +0.0 only turns -0.0 into
+0.0.  Their ``layer_matrix``, ``values`` and ``jacobians`` are dense.
Nothing computed for one call is kept for the next.

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


class _Planar:
    """The per-point quantities of one call on planar points, each computed once.

    ``x`` holds the points, checked by ``_as_points``; ``x1``, ``x2`` are
    their coordinates, ``q1`` and ``q2`` the squares and ``g`` the Gaussian
    weight exp(-(q1 + q2) / (2 nu)).  An instance lives only as long as the
    call that made it, so no array outlives its call.
    """

    __slots__ = ("x", "x1", "x2", "q1", "q2", "g")

    def __init__(self, x: np.ndarray, nu: float):
        self.x = x = _as_points(x, 2)
        self.x1, self.x2 = x1, x2 = x[..., 0], x[..., 1]
        with np.errstate(over="ignore"):  # |x|^2 = inf gives g = exp(-inf) = 0, the exact limit
            self.q1, self.q2 = x1 * x1, x2 * x2
            g = self.q1 + self.q2
            g *= -0.5
            g /= nu
        self.g = np.exp(g)

    def gradient(self, nu: float) -> tuple:
        """The gradient -g x / nu of g, as (g x) / (-nu): IEEE rounding is symmetric in sign."""
        dg1, dg2 = self.g * self.x1, self.g * self.x2
        dg1 /= -nu
        dg2 /= -nu
        return dg1, dg2


@dataclass(frozen=True)
class Affine8(VectorFieldFamily):
    """Constant, Gaussian-damped constant, and linear fields on the plane.

    Field ``columns[a][j]`` is K_j(x) e_a, for one coefficient list K that
    both axes share in the same order: K = (1, g, x1, x2).  A subclass that
    appends fields appends to K, to its gradients and to both axes' columns.
    Each contraction adds its terms in the order of K, into arrays it
    allocates once per call.
    """

    nu: float = DEFAULT_GAUSSIAN_WIDTH
    kind: ClassVar[str] = "affine8"
    dim: ClassVar[int] = 2
    n_fields: ClassVar[int] = 8
    columns: ClassVar[tuple[tuple[int, ...], ...]] = ((0, 2, 4, 5), (1, 3, 6, 7))

    def _coefficients(self, pts: _Planar) -> tuple:
        """K at the points, 1.0 for the constant coefficient."""
        return (1.0, pts.g, pts.x1, pts.x2)

    def _gradients(self, pts: _Planar) -> tuple:
        """(dK_j/dx1, dK_j/dx2) at the points, in the order of K."""
        return ((0.0, 0.0), pts.gradient(self.nu), (1.0, 0.0), (0.0, 1.0))

    def _factor_entries(self, pts: _Planar, u_row: np.ndarray, h: float) -> list:
        """Entries b00, b01, b10, b11 of I + h sum_i u_row[i] DF_i, each a fresh array.

        Entry a[p][q] of a = sum_i u_row[i] DF_i sums dK_j/dx_q u_row[columns[p][j]]
        over the K_j whose derivative is not zero, in the order of K: g, then
        x_q (derivative 1, so its term is a scalar, into which the sum's
        leading 0.0 moves), then the appended coefficients.
        """
        u = np.asarray(u_row, dtype=float).tolist()
        grads = self._gradients(pts)
        tmp = np.empty_like(pts.g)
        entries = []
        for p, cols in enumerate(self.columns):
            for q in (0, 1):
                b = grads[1][q] * u[cols[1]]
                b += 0.0 + u[cols[2 + q]]
                for grad, i in zip(grads[4:], cols[4:]):
                    b += np.multiply(grad[q], u[i], out=tmp)
                b *= h
                b += 1.0 if p == q else 0.0
                entries.append(b)
        return entries

    def values(self, x: np.ndarray) -> np.ndarray:
        pts = _Planar(x, self.nu)
        out = np.zeros(pts.x.shape[:-1] + (self.n_fields, 2))
        coefficients = self._coefficients(pts)
        for a, cols in enumerate(self.columns):
            for i, c in zip(cols, coefficients):
                out[..., i, a] = c
        return out

    def jacobians(self, x: np.ndarray) -> np.ndarray:
        pts = _Planar(x, self.nu)
        out = np.zeros(pts.x.shape[:-1] + (self.n_fields, 2, 2))
        grads = self._gradients(pts)
        for a, cols in enumerate(self.columns):
            for i, grad in zip(cols, grads):
                out[..., i, a, 0], out[..., i, a, 1] = grad
        return out

    def displacement(self, x: np.ndarray, u_row: np.ndarray) -> np.ndarray:
        pts = _Planar(x, self.nu)
        u = np.asarray(u_row, dtype=float).tolist()
        coefficients = self._coefficients(pts)
        out = np.empty_like(pts.x)  # in the layout of x, so each coordinate is summed in one pass
        tmp = np.empty_like(pts.g)
        for a, cols in enumerate(self.columns):
            col = np.multiply(pts.g, u[cols[1]], out=out[..., a])
            col += 0.0 + u[cols[0]]  # the sum's leading 0.0, moved into its constant term
            for c, i in zip(coefficients[2:], cols[2:]):
                col += np.multiply(c, u[i], out=tmp)
        return out

    def layer_factor(self, x: np.ndarray, u_row: np.ndarray, h: float) -> np.ndarray:
        # C order, like eye + h * layer_matrix, so that a product of factors stays on one path.
        pts = _Planar(x, self.nu)
        out = np.empty(pts.x.shape[:-1] + (2, 2))
        out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = self._factor_entries(pts, u_row, h)
        return out

    def _pairing(self, lam, pts: _Planar) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        terms = np.empty(lam.shape[:-1] + (self.n_fields,))
        coefficients = self._coefficients(pts)
        for a, cols in enumerate(self.columns):
            lam_a = lam[..., a]
            for i, c in zip(cols, coefficients):
                np.multiply(lam_a, c, out=terms[..., i])
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
            b[q] *= l0
            b[2 + q] *= l1
            np.add(b[q], b[2 + q], out=step[:, q])
        # The einsum sums into a zeroed output; adding 0.0 turns -0.0 into 0.0 as it does.
        step += 0.0
        return row, step


@dataclass(frozen=True)
class Enriched14(Affine8):
    """Affine8 plus the six Gaussian-damped quadratic fields: K gains x1^2 g, x1 x2 g and x2^2 g."""

    kind: ClassVar[str] = "enriched14"
    n_fields: ClassVar[int] = 14
    columns: ClassVar[tuple[tuple[int, ...], ...]] = ((0, 2, 4, 5, 8, 9, 10), (1, 3, 6, 7, 11, 12, 13))

    def _coefficients(self, pts: _Planar) -> tuple:
        g = pts.g
        return super()._coefficients(pts) + (pts.q1 * g, pts.x1 * pts.x2 * g, pts.q2 * g)

    def _gradients(self, pts: _Planar) -> tuple:
        # grad(p * g) = g * grad(p) + p * grad(g), with grad(g) = -g x / nu.
        grads = super()._gradients(pts)
        x1, x2, g, p11, p22, (dg1, dg2) = pts.x1, pts.x2, pts.g, pts.q1, pts.q2, grads[1]
        p12 = x1 * x2
        return grads + (
            (g * (2.0 * x1) + p11 * dg1, p11 * dg2),
            (g * x2 + p12 * dg1, g * x1 + p12 * dg2),
            (p22 * dg1, g * (2.0 * x2) + p22 * dg2),
        )


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
