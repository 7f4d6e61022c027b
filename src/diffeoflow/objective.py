"""Training objective: endpoint mismatch plus control energy, and its gradient.

For a dataset of M source/target pairs the cost of a control u is

    cost(u) = (1/M) sum_j a(x_N^j - y^j)  +  (beta/2) * |u|_{L2}^2,

where x_N^j is the flow endpoint of source j, a(z) = sqrt(1 + |z|^2) - 1 is
a smooth 1-Lipschitz penalty, and |u|_{L2}^2 = h * sum over all entries
squared.  Gradients are returned in slab-average coordinates: the array
g[k-1, i] such that the partial derivative of cost with respect to the
control entry u[k-1, i] equals h * g[k-1, i].  Updates of the form
u - gamma * g then discretize the continuous gradient flow with a step
that does not degenerate as layers are added.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import VectorFieldFamily
from .flow import ControlGrid, _as_bundle, flow_endpoints, forward_euler


@dataclass(frozen=True)
class Dataset:
    """Paired planar source and target point clouds, one (M, 2) row per sample.

    Both are stored coordinate-major (Fortran order), like the nodes of the
    flow's bundles, so that residuals between flowed points and targets run
    over contiguous coordinate rows.  Any other shape is a ValueError naming
    it.  Sources must be pairwise distinct, -0.0 equal to 0.0: one sort of the
    rows as complex keys x1 + i x2 (numpy orders them by x1, then x2) puts
    equal rows together.
    """

    sources: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        src = np.asfortranarray(self.sources, dtype=float)
        tgt = np.asfortranarray(self.targets, dtype=float)
        if src.ndim != 2 or src.shape[0] < 1 or src.shape[1] != 2:
            raise ValueError(f"sources must be a (M, 2) array, got shape {src.shape}")
        if tgt.shape != src.shape:
            raise ValueError(f"targets shape {tgt.shape} does not match sources shape {src.shape}")
        if not (np.isfinite(src).all() and np.isfinite(tgt).all()):
            raise ValueError("dataset points must all be finite")
        keys = np.sort(np.ascontiguousarray(src).view(complex).ravel())
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("source points must be pairwise distinct")
        object.__setattr__(self, "sources", src)
        object.__setattr__(self, "targets", tgt)

    @property
    def n_samples(self) -> int:
        return self.sources.shape[0]


@dataclass(frozen=True)
class ObjectiveValue:
    """Cost split into its endpoint-mismatch and control-energy parts."""

    total: float
    data_term: float
    reg_term: float


def _squared_norm(z: np.ndarray, out: np.ndarray | None = None, spare: np.ndarray | None = None) -> np.ndarray:
    """|z|^2 of planar residuals z (..., 2) as z0 * z0 + z1 * z1, in ``out`` with ``spare`` when given.

    The two-term ``np.sum(z * z, axis=-1)`` bit for bit: the one formula of
    the penalty, its gradient and the sweep's penalty gradients.
    """
    z0, z1 = z[..., 0], z[..., 1]
    out = np.multiply(z0, z0, out=out)
    out += np.multiply(z1, z1, out=spare)
    return out


def _scaled_norm(z: np.ndarray) -> np.ndarray:
    """|z| along the last axis, safe against |z|^2 overflowing."""
    m = np.maximum(np.max(np.abs(z), axis=-1, keepdims=True), 1.0)
    return m[..., 0] * np.sqrt(np.sum((z / m) ** 2, axis=-1))


def loss(z: np.ndarray) -> np.ndarray:
    """Pointwise penalty sqrt(1 + |z|^2) - 1, batched over the leading axes.

    Written as s / (1 + sqrt(1 + s)) with s = |z|^2, which is the same value
    without cancellation near z = 0.  Residuals so large that |z|^2 overflows
    (diverged flow proposals) fall back to |z| - 1, exact to machine accuracy
    there, so a runaway proposal reports a huge cost instead of NaN.
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # s = inf gives inf / inf here
        s = _squared_norm(z)
        plain = s / (1.0 + np.sqrt(1.0 + s))
    if np.isfinite(s).all():
        return plain
    return np.where(np.isfinite(s), plain, _scaled_norm(z) - 1.0)


def loss_grad(z: np.ndarray) -> np.ndarray:
    """Gradient z / sqrt(1 + |z|^2) of the penalty; norm is always below 1.

    Uses the unit vector z / |z| when |z|^2 overflows, matching the loss
    fallback above.
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        s = _squared_norm(z)[..., None]
        plain = z / np.sqrt(1.0 + s)
    if np.isfinite(s).all():
        return plain
    unit = z / np.maximum(_scaled_norm(z)[..., None], 1.0)
    return np.where(np.isfinite(s), plain, unit)


def mean_loss(endpoints: np.ndarray, targets: np.ndarray) -> float:
    """Average penalty between mapped points and their targets; inf if the sum overflows."""
    with np.errstate(over="ignore"):
        return float(np.mean(loss(endpoints - targets)))


def cost_of_endpoints(
    endpoints: np.ndarray, targets: np.ndarray, u: ControlGrid, beta: float
) -> ObjectiveValue:
    """Assemble the objective from precomputed flow endpoints."""
    data = mean_loss(endpoints, targets)
    reg = 0.5 * beta * u.l2_norm_sq()
    return ObjectiveValue(total=data + reg, data_term=data, reg_term=reg)


def cost(
    family: VectorFieldFamily, u: ControlGrid, data: Dataset, beta: float
) -> ObjectiveValue:
    """Run the flow on the dataset sources and evaluate the objective."""
    if beta < 0.0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    return cost_of_endpoints(flow_endpoints(family, u, data.sources), data.targets, u, beta)


def control_gradient(
    family: VectorFieldFamily,
    u: ControlGrid,
    states: np.ndarray,
    targets: np.ndarray,
    beta: float,
    *,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient array (N, l) in slab-average coordinates, from a stored trajectory.

    Backpropagates through the discrete layers in one sweep, k = N..1, on
    one ``family._sweep``: it loads the node x_{k-1} where the control
    acts, its ``pair`` kernel pairs the covector with the fields there, and
    its ``step`` kernel steps the covector back with the explicit factor
    (Id + h A_k),

        g[k-1, i]     = sum_j <lambda_k^j, F_i(x_{k-1}^j)> + beta * u[k-1, i],
        lambda_{k-1}  = lambda_k (Id + h A_k),

    which makes h * g[k-1, i] the exact partial derivative of cost.  The
    node k = 1 only pairs, since lambda_0 is never read.  Only the current
    node's (M, dim) covector is held; none are stored.  It starts in the
    memory layout of the trajectory's nodes (coordinate-major for a
    ``forward_euler`` bundle), so each adjoint step reads and writes
    contiguous coordinate rows; the result does not depend on the layout.
    The sweep forms what ``step`` reads of the control once, for all
    layers, and ``pair`` writes each row straight into the gradient.

    ``weights``, an (N, M') array with M' >= M, is what the flow of
    ``states`` wrote with ``forward_euler(..., weights=...)``: the sweep's
    ``load`` of node k-1 is given row k-1, and the built-ins read the
    node's Gaussian weight from its first M columns instead of computing it
    again, with the same bits.  Other families ignore it.
    """
    states = _as_bundle(family, u, states, u.n_layers + 1)
    n_pts = states.shape[0]
    if weights is not None and (weights.shape[0] != u.n_layers or weights.shape[1] < n_pts):
        raise ValueError(f"weights have shape {weights.shape}, expected ({u.n_layers}, at least {n_pts})")
    lam = np.empty_like(states[:, -1])
    np.divide(loss_grad(states[:, -1] - targets), n_pts, out=lam)
    grad, sweep = np.empty(u.values.shape), family._sweep(lam.shape[:-1])
    rows, g = sweep.rows(u.values), [None] * u.n_layers if weights is None else weights[:, :n_pts]
    with np.errstate(over="ignore", invalid="ignore"):  # as in a flow: at |x|^2 = inf, g is 0 and x1^2 g NaN
        for k in range(u.n_layers, 0, -1):
            sweep.load(states[:, k - 1], g[k - 1]).pair(lam, grad[k - 1])
            if k > 1:
                lam = sweep.step(rows[k - 1], lam, u.step)
    return grad + beta * u.values


def adjoint_gradient(
    family: VectorFieldFamily, u: ControlGrid, data: Dataset, beta: float
) -> ControlGrid:
    """Objective gradient in slab-average coordinates via covector transport."""
    states = forward_euler(family, u, data.sources)
    return ControlGrid(control_gradient(family, u, states, data.targets, beta))


def fd_gradient_oracle(
    family: VectorFieldFamily, u: ControlGrid, data: Dataset, beta: float
) -> ControlGrid:
    """Central-difference gradient of cost, entry by entry, divided by h.

    Dividing by h expresses the result in the same slab-average coordinates
    as adjoint_gradient, so the two can be compared directly.  Intended for
    small problems only; every entry costs two flow evaluations.
    """
    step = 1e-5
    h = u.step
    base = u.values
    grad = np.empty_like(base)
    for k in range(base.shape[0]):
        for i in range(base.shape[1]):
            bumped = base.copy()
            bumped[k, i] = base[k, i] + step
            hi = cost(family, ControlGrid(bumped), data, beta).total
            bumped[k, i] = base[k, i] - step
            lo = cost(family, ControlGrid(bumped), data, beta).total
            grad[k, i] = (hi - lo) / (2.0 * step * h)
    return ControlGrid(grad)
