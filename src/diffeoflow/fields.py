"""Controlled vector-field families: values, Jacobians and the sweep that contracts them.

A family is an ordered tuple of smooth fields F_1, ..., F_l on the plane.  The
network layers move points along constant-coefficient combinations of these
fields, so every layer quantity is one contraction of the fields at a node.
A family supplies the stacked ``values`` and ``jacobians`` of its fields,
its whole public surface, and every layer loop of the flow, the gradients
and the metrics runs on one ``_sweep`` of the family, which it hands each
node once, ``load(x, g=None)``; four kernels then read the loaded node, and
a loop calls only those it needs:

    displace(u_row, out)   sum_i u_row[i] F_i(x)          (one layer's step),
    factor(row, h)         I + h sum_i row[i] DF_i(x)     (the layer's Jacobian),
    pair(lam, out)         sum_j <lam^j, F_i(x^j)>        (the control gradient,
                                                          written into out),
    step(row, lam, h)      lam factor(row, h)             (the covector a node back).

The base class's sweep is the dense one, the reference every fast path is
tested against: each kernel is one einsum over ``values`` or ``jacobians``.
In the built-ins each kernel is a closed form.  The closed forms do
without the mostly-zero ``(..., l, n[, n])`` tensors: each field is a
coefficient K_j(x) times one axis, for one list K that both axes share.  A
built-in states only K, its gradients and its fields' columns; its sweep, a
``_Planar`` workspace of arrays made when the sweep starts, refilled at
every node and dropped at its end, writes each closed form once over them
for every built-in.  It assembles each sum in place, adding terms in the
dense einsum's order, so both give the same bits; only a sum's leading
``0.0 +`` may move, to its end or into a scalar term, since adding +0.0
only turns -0.0 into +0.0.  The sweep forms what ``factor`` and ``step``
read of the control once for all layers (``rows``), and a flow may keep
each node's Gaussian weight g in an array of its caller's (``hold``), which
the gradient's ``load`` then reads back instead of computing g again.

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
contiguous, and the built-ins' kernels return their (M, dim) results in
the layout of their input.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

DEFAULT_GAUSSIAN_WIDTH = 20.0
_EYE = np.eye(2)


class VectorFieldFamily(ABC):
    """Ordered family of smooth fields on the plane R^2.

    Evaluation is pure: instances hold no mutable state and may be shared
    freely across threads, since each sweep and call makes its own arrays.
    Subclasses supply ``values`` and ``jacobians``, the whole public
    surface of a family; the kernels of the base class's sweep are dense
    einsums over them.
    """

    kind: str
    dim: ClassVar[int] = 2  # every family is planar
    n_fields: int

    @abstractmethod
    def values(self, x: np.ndarray) -> np.ndarray:
        """Stacked field values at ``x``: shape ``(..., n_fields, dim)``."""

    @abstractmethod
    def jacobians(self, x: np.ndarray) -> np.ndarray:
        """Stacked field Jacobians at ``x``: shape ``(..., n_fields, dim, dim)``."""

    def _sweep(self, shape: tuple) -> "_Dense":
        """The layer loop over nodes of leading shape ``shape``: here the dense one, for nodes of any shape."""
        return _Dense(self)


class _Dense:
    """The dense sweep of a family: each kernel one einsum over its ``values`` or ``jacobians`` at the loaded node.

    ``pair`` sums over the first axis of x and ``lam``, keeping any middle axes; ``displace`` ignores ``out``, the
    ``rows`` are the control rows themselves, and ``hold`` and a node's weight ``g`` do nothing.  With -h, ``factor``
    is I - h sum_i row[i] DF_i(x) bit for bit: (-h) * a is -(h * a), and y + (-z) is y - z in IEEE arithmetic.  It is a
    class, since closures over the node would make a reference cycle that keeps its flow's buffer alive after the loop.
    """

    def __init__(self, family: VectorFieldFamily):
        self.fields = family

    def hold(self, g: np.ndarray) -> None:
        pass

    def rows(self, values: np.ndarray) -> np.ndarray:
        return values

    def load(self, x: np.ndarray, g: np.ndarray | None = None) -> "_Dense":
        self.x = x
        return self

    def displace(self, u_row: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        return np.einsum("...ln,l->...n", self.fields.values(self.x), u_row)

    def factor(self, row: np.ndarray, h: float) -> np.ndarray:
        return _EYE + h * np.einsum("...lpq,l->...pq", self.fields.jacobians(self.x), row)

    def pair(self, lam: np.ndarray, out: np.ndarray) -> None:
        np.copyto(out, np.einsum("m...n,m...ln->...l", lam, self.fields.values(self.x)))

    def step(self, row: np.ndarray, lam: np.ndarray, h: float) -> np.ndarray:
        return np.einsum("mp,mpn->mn", lam, self.factor(row, h))


def _as_points(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (2,):
        raise ValueError(f"points must have 2 coordinates on the last axis, got shape {x.shape}")
    return x


class _Planar:
    """The layer loop of a planar built-in over nodes of one shape: a workspace that loads a node, four closed forms.

    ``load(x, g=None)`` takes node x into the workspace: its coordinates ``x1``, ``x2``, squares ``q1``, ``q2`` and
    g = exp(-(q1 + q2) / (2 nu)), 0 at |x|^2 = inf under the caller's ``np.errstate``.  Given ``g``, the node's weight
    that a flow kept, it reads g back instead and forms only the squares the family reads besides g.  ``hold(g)``, as
    a load given ``g`` does, has every later load write g into the caller's array ``g``.  The kernels ``displace``,
    ``factor``, ``pair`` and ``step`` sum their closed forms at the loaded node over the family's K and its gradients,
    in scratch arrays made on first use; the covector ``lam`` that ``step`` is given becomes the buffer of the next
    step's.  ``rows(values)`` gives the rows that ``factor`` and ``step`` take, each a control row with the columns of
    its factor entries formed once for all layers.
    """

    def __init__(self, family: "Affine8", shape: tuple):
        self.family, self.shape, self.nu, self.lead = family, shape, family.nu, (1,) * len(shape)
        self.q1, self.q2, self.g = np.empty(shape), np.empty(shape), np.empty(shape)
        self.eye, self.ks, self.spare, self.arrays = _EYE.reshape((2, 2) + self.lead), None, None, {}

    def array(self, name: str, *lead: int) -> np.ndarray:
        """The scratch array ``name`` of shape ``lead`` + the nodes' shape."""
        key = (name, *lead)
        if key not in self.arrays:
            self.arrays[key] = np.empty(lead + self.shape)
        return self.arrays[key]

    def hold(self, g: np.ndarray) -> None:
        """Write the Gaussian weight of every later loaded node into ``g``, an array of the nodes' shape."""
        self.g = g

    def load(self, x: np.ndarray, g: np.ndarray | None = None) -> "_Planar":
        """Load the node ``x``, reading its Gaussian weight from ``g`` if a flow kept it there."""
        self.x1, self.x2 = x[..., 0], x[..., 1]
        if g is None or self.family._squares:
            np.multiply(self.x1, self.x1, out=self.q1)
            np.multiply(self.x2, self.x2, out=self.q2)
        if g is None:
            g = np.add(self.q1, self.q2, out=self.g)
            g *= -0.5
            g /= self.nu
            np.exp(g, out=g)
        self.g = g
        return self

    def rows(self, values: np.ndarray) -> list:
        """The rows of the control ``values`` (N, l) for ``factor`` and ``step``, one per layer.

        Each is the row as a list, then the (2, 1) g columns and the (2, 2) x columns of the factor entries per axis
        (see ``_factor_entries``), the x ones with the sums' leading 0.0 added.
        """
        gx = values[:, self.family._gx].reshape((len(values), 2, 3) + self.lead)
        return list(zip(values.tolist(), gx[:, :, :1], 0.0 + gx[:, :, 1:]))

    def displace(self, u_row, out: np.ndarray) -> np.ndarray:
        """sum_i u_row[i] F_i at the loaded node, into ``out`` (..., 2)."""
        coefficients, tmp = self.family._coefficients(self), self.array("tmp")
        for a, cols in enumerate(self.family.columns):
            col = np.multiply(self.g, u_row[cols[1]], out=out[..., a])
            col += 0.0 + u_row[cols[0]]  # the sum's leading 0.0, moved into its constant term
            for c, i in zip(coefficients[2:], cols[2:]):
                col += np.multiply(c, u_row[i], out=tmp)
        return out

    def factor(self, row: tuple, h: float) -> np.ndarray:
        """I + h sum_i u[i] DF_i at the loaded node for one of ``rows``, C order like the dense ``factor``."""
        b = self._factor_entries(row, h)
        out = np.empty(self.shape + (2, 2))
        out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = b.reshape((4,) + self.shape)
        return out

    def pair(self, lam: np.ndarray, out: np.ndarray) -> None:
        """sum_j <lam^j, F_i(x^j)> at the loaded node into ``out`` (..., l), through ``ks``, a C-order (..., len(K)) K.

        Field columns[a][j] pairs to sum_m lam[m, a] K_j[m], its samples added in order from +0.0
        as the dense einsum does, since they are the outer axis of ``ks`` (not the contiguous one).
        """
        if self.ks is None:  # its column 0, of the constant coefficient, stays 1.0
            columns = self.family.columns
            self.ks, self.order = np.ones(self.shape + (len(columns[0]),)), np.array(columns[0] + columns[1])
        for j, c in enumerate(self.family._coefficients(self)[1:], 1):
            self.ks[..., j] = c
        sums = np.einsum("m...a,m...j->...aj", lam, self.ks)
        out[..., self.order] = sums.reshape(out.shape)

    def step(self, row: tuple, lam: np.ndarray, h: float) -> np.ndarray:
        """lam (I + h sum_i u[i] DF_i) at the loaded node for one of ``rows``, in a spare buffer."""
        if self.spare is None:  # the first step: it reads none of the pairing's arrays, so free them first
            self.ks, self.arrays, self.spare = None, {}, np.empty_like(lam)
        step, self.spare = self.spare, lam
        b = self._factor_entries(row, h)
        np.multiply(b[0], lam[:, 0], out=b[0])
        np.multiply(b[1], lam[:, 1], out=b[1])
        np.add(b[0], b[1], out=step.T)
        step += 0.0  # the einsum sums into a zeroed output; adding 0.0 turns -0.0 into 0.0 as it does
        return step

    def _factor_entries(self, row: tuple, h: float) -> np.ndarray:
        """Entries b[p, q] of I + h sum_i u[i] DF_i at the loaded node, for one of ``rows``, in a (2, 2, ...) array.

        Entry a[p][q] of a = sum_i u[i] DF_i sums dK_j/dx_q u[columns[p][j]]
        over the K_j whose derivative is not zero, in the order of K: g, then
        x_q (derivative 1, so its term is a scalar, into which the sum's
        leading 0.0 moves), then the appended coefficients; all four at once.
        """
        (u, g_columns, x_columns), family = row, self.family
        grads, b = family._gradients(self), self.array("b", 2, 2)
        np.multiply(grads[1], g_columns, out=b)
        b += x_columns
        for j in range(4, len(grads)):
            for p, cols in enumerate(family.columns):
                np.add(b[p], np.multiply(grads[j], u[cols[j]], out=grads[1]), out=b[p])  # dg is read by now
        b *= h
        b += self.eye
        return b


@dataclass(frozen=True)
class Affine8(VectorFieldFamily):
    """Constant, Gaussian-damped constant, and linear fields on the plane.

    Field ``columns[a][j]`` is K_j(x) e_a, for one coefficient list K that
    both axes share in the same order: K = (1, g, x1, x2).  A subclass that
    appends fields appends to K, to its gradients and to both axes' columns.
    The family states only K and its gradients at a loaded ``_Planar``
    workspace; the kernels of its ``_sweep`` sum the closed forms over them,
    and its public ``values`` and ``jacobians`` write the same fields out as
    dense tensors.
    """

    nu: float = DEFAULT_GAUSSIAN_WIDTH
    kind: ClassVar[str] = "affine8"
    n_fields: ClassVar[int] = 8
    columns: ClassVar[tuple[tuple[int, ...], ...]] = ((0, 2, 4, 5), (1, 3, 6, 7))
    _gx: ClassVar[np.ndarray] = np.array(columns)[:, 1:4]  # the columns of g, x1 and x2 per axis, kept by subclasses
    _squares: ClassVar[bool] = False  # whether K or its gradients read the squares q1, q2 besides through g

    def _sweep(self, shape: tuple) -> _Planar:
        return _Planar(self, shape)

    def _coefficients(self, ws: _Planar) -> tuple:
        """K at the loaded node, 1.0 for the constant coefficient."""
        return (1.0, ws.g, ws.x1, ws.x2)

    def _gradients(self, ws: _Planar) -> tuple:
        """grad K_j at the loaded node, in the order of K, each indexed by q; dg/dx_q = -g x_q / nu as (g x_q) / (-nu)."""
        dg = ws.array("dg", 2)
        np.multiply(ws.g, ws.x1, out=dg[0, ...])
        np.multiply(ws.g, ws.x2, out=dg[1, ...])
        dg /= -self.nu
        return ((0.0, 0.0), dg, (1.0, 0.0), (0.0, 1.0))

    def _dense(self, out: np.ndarray, parts: tuple) -> np.ndarray:
        """Write part j of K, or of its gradient, into ``out[..., columns[a][j], a]``."""
        for a, cols in enumerate(self.columns):
            for i, part in zip(cols, parts):
                out[..., i, a] = part
        return out

    def values(self, x: np.ndarray) -> np.ndarray:
        x = _as_points(x)
        with np.errstate(over="ignore", invalid="ignore"):  # as in a flow: at |x|^2 = inf, g is 0 and x1^2 g NaN
            ws = _Planar(self, x.shape[:-1]).load(x)
            return self._dense(np.zeros(ws.shape + (self.n_fields, 2)), self._coefficients(ws))

    def jacobians(self, x: np.ndarray) -> np.ndarray:
        x = _as_points(x)
        with np.errstate(over="ignore", invalid="ignore"):
            ws = _Planar(self, x.shape[:-1]).load(x)
            out, grads = np.zeros(ws.shape + (self.n_fields, 2, 2)), self._gradients(ws)
        for q in (0, 1):
            self._dense(out[..., q], [part[q] for part in grads])
        return out


@dataclass(frozen=True)
class Enriched14(Affine8):
    """Affine8 plus the six Gaussian-damped quadratic fields: K gains x1^2 g, x1 x2 g and x2^2 g."""

    kind: ClassVar[str] = "enriched14"
    n_fields: ClassVar[int] = 14
    columns: ClassVar[tuple[tuple[int, ...], ...]] = ((0, 2, 4, 5, 8, 9, 10), (1, 3, 6, 7, 11, 12, 13))
    _squares: ClassVar[bool] = True

    def _coefficients(self, ws: _Planar) -> tuple:
        g, p12g = ws.g, np.multiply(ws.x1, ws.x2, out=ws.array("p12g"))
        p12g *= g
        p11g, p22g = np.multiply(ws.q1, g, out=ws.array("p11g")), np.multiply(ws.q2, g, out=ws.array("p22g"))
        return super()._coefficients(ws) + (p11g, p12g, p22g)

    def _gradients(self, ws: _Planar) -> tuple:
        # d(p g) = g dp + p dg for p = x1^2, x1 x2, x2^2, formed as p dg + g dp (addition commutes):
        # dp/dx is (2 x1, 0), (x2, x1) and (0, 2 x2).
        grads, g = super()._gradients(ws), ws.g
        p12, tmp = np.multiply(ws.x1, ws.x2, out=ws.array("p12")), ws.array("tmp")
        quad = [np.multiply(p, grads[1], out=ws.array(name, 2)) for p, name in zip((ws.q1, p12, ws.q2), ("d11", "d12", "d22"))]
        for d, x in ((quad[0][0, ...], ws.x1), (quad[2][1, ...], ws.x2)):
            square = np.multiply(x, 2.0, out=tmp)
            square *= g
            d += square
        for d, x in ((quad[1][0, ...], ws.x2), (quad[1][1, ...], ws.x1)):
            d += np.multiply(g, x, out=tmp)
        return grads + tuple(quad)


@dataclass(frozen=True)
class FieldSpec:
    """One user-supplied planar field: a value callable and its Jacobian callable.

    Both callables receive points of shape ``(..., 2)``, in any memory
    layout, and must return arrays broadcastable to ``(..., 2)`` and
    ``(..., 2, 2)``.
    """

    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class CustomFamily(VectorFieldFamily):
    """Family assembled from user-supplied planar field callables."""

    fields: tuple[FieldSpec, ...]
    kind: ClassVar[str] = "custom"

    @property
    def n_fields(self) -> int:
        return len(self.fields)

    def values(self, x: np.ndarray) -> np.ndarray:
        x = _as_points(x)
        out = np.empty(x.shape[:-1] + (len(self.fields), 2))
        for i, f in enumerate(self.fields):
            out[..., i, :] = f.value(x)
        return out

    def jacobians(self, x: np.ndarray) -> np.ndarray:
        x = _as_points(x)
        out = np.empty(x.shape[:-1] + (len(self.fields), 2, 2))
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


def make_custom(fields: Sequence[FieldSpec]) -> CustomFamily:
    """Family of user-supplied planar fields, in the order given."""
    if len(fields) == 0:
        raise ValueError("a family needs at least one field")
    return CustomFamily(fields=tuple(fields))


def family_from_name(name: str, nu: float = DEFAULT_GAUSSIAN_WIDTH) -> VectorFieldFamily:
    """Resolve one of the built-in family names."""
    if name == "affine8":
        return make_affine8(nu)
    if name == "enriched14":
        return make_enriched14(nu)
    raise ValueError(f"unknown field family {name!r} (expected 'affine8' or 'enriched14')")
