"""Discrete flow of the control-affine system and its linearizations.

The network is the explicit-Euler discretization of

    x'(s) = sum_i u_i(s) F_i(x(s)),   s in [0, 1],

with piecewise-constant controls on N equal slabs of width h = 1/N:

    x_k = x_{k-1} + h * sum_i u[k-1, i] * F_i(x_{k-1}),   k = 1..N.

This module advances point bundles through that recursion, transports row
covectors backward through its linearization, accumulates the Jacobian of
the input-to-output map, and provides a numerical check that composing
small flows back and forth realizes the commutator field at second order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import VectorFieldFamily

CONDITION_LIMIT = 1e12


class FlowError(RuntimeError):
    """Numerical failure inside a flow sweep, located at a sample and layer."""

    def __init__(self, message: str, sample: int | None = None, layer: int | None = None):
        super().__init__(message)
        self.sample = sample
        self.layer = layer


@dataclass
class ControlGrid:
    """Piecewise-constant control: ``values[k-1, i]`` weights field i on slab k.

    Rows index the N time slabs in order, columns index the fields in family
    order.  The slab width is ``step = 1/N``.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"control values must be a (layers, fields) array, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("control values must all be finite")
        self.values = v

    @classmethod
    def zeros(cls, n_layers: int, n_fields: int) -> "ControlGrid":
        return cls(np.zeros((n_layers, n_fields)))

    @property
    def n_layers(self) -> int:
        return self.values.shape[0]

    @property
    def n_fields(self) -> int:
        return self.values.shape[1]

    @property
    def step(self) -> float:
        return 1.0 / self.values.shape[0]

    def l2_norm_sq(self) -> float:
        """Squared L2 norm of the control, ``step * sum(values**2)``."""
        return float(self.step * np.sum(self.values * self.values))


def _check_compatible(family: VectorFieldFamily, u: ControlGrid) -> None:
    if u.n_fields != family.n_fields:
        raise ValueError(
            f"control has {u.n_fields} field columns but family {family.kind!r} "
            f"has {family.n_fields} fields"
        )


def _as_bundle(points: np.ndarray, dim: int) -> tuple[np.ndarray, bool]:
    """Coerce to an (M, dim) bundle; report whether the input was a single point."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"points must have shape (M, {dim}) or ({dim},), got {np.shape(points)}")
    return pts, single


def displacement(family: VectorFieldFamily, x: np.ndarray, u_row: np.ndarray) -> np.ndarray:
    """sum_i u_row[i] * F_i(x) for a bundle x of shape (M, dim)."""
    return family.displacement(x, u_row)


def layer_matrix(family: VectorFieldFamily, x: np.ndarray, u_row: np.ndarray) -> np.ndarray:
    """sum_i u_row[i] * DF_i(x): the state matrix of one layer, shape (M, dim, dim)."""
    return family.layer_matrix(x, u_row)


def _spectral_norm_2x2(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of a batch of 2x2 matrices, in closed form:

        sigma_max = ( sqrt((a+d)^2 + (b-c)^2) + sqrt((a-d)^2 + (b+c)^2) ) / 2.
    """
    a = mats[..., 0, 0]
    b = mats[..., 0, 1]
    c = mats[..., 1, 0]
    d = mats[..., 1, 1]
    s1 = np.sqrt((a + d) ** 2 + (b - c) ** 2)
    s2 = np.sqrt((a - d) ** 2 + (b + c) ** 2)
    return 0.5 * (s1 + s2)


def _worst_conditioned(mats: np.ndarray) -> tuple[int, float]:
    """Index and 2-norm condition number of the worst-conditioned matrix in a batch.

    2x2 batches are screened in closed form, cond = sigma_max^2 / |det|
    (since sigma_max * sigma_min = |det|), and LAPACK computes the condition
    number of the single worst matrix only; larger matrices go to LAPACK
    whole.  A NaN ranks as worst, so it fails the guard.
    """
    if mats.shape[-2:] != (2, 2):
        conds = np.linalg.cond(mats)
        j = int(np.argmax(conds))
        return j, float(conds[j])
    smax = _spectral_norm_2x2(mats)
    det = mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        screen = smax * smax / np.abs(det)
    j = int(np.argmax(screen))
    return j, float(np.linalg.cond(mats[j]))


def _check_finite(states: np.ndarray, layer: int, context: str) -> None:
    """Raise FlowError naming the first sample whose (M, dim) state at ``layer`` is not finite."""
    if not np.isfinite(states).all():
        j = int(np.argmin(np.isfinite(states).all(axis=1)))
        raise FlowError(
            f"non-finite state for sample {j} at layer {layer}{context}", sample=j, layer=layer
        )


def forward_euler(
    family: VectorFieldFamily, u: ControlGrid, sources: np.ndarray
) -> np.ndarray:
    """Push a bundle of points through all layers.

    Returns the full trajectory bundle of shape (M, N+1, dim); node 0 holds
    the sources and node N the mapped points.  Each sample is advanced
    independently, so results do not depend on batch composition.

    Raises FlowError if any state turns non-finite, naming the first
    offending sample and the layer where it happened.
    """
    _check_compatible(family, u)
    pts, _ = _as_bundle(sources, family.dim)
    n_pts = pts.shape[0]
    n_layers = u.n_layers
    h = u.step
    states = np.empty((n_pts, n_layers + 1, family.dim))
    states[:, 0] = pts
    for k in range(1, n_layers + 1):
        prev = states[:, k - 1]
        states[:, k] = prev + h * displacement(family, prev, u.values[k - 1])
        _check_finite(states[:, k], k, "; the flow overflowed, reduce the step size or the controls")
    return states


def backward_covector(
    family: VectorFieldFamily,
    u: ControlGrid,
    states: np.ndarray,
    terminal: np.ndarray,
    scheme: str = "implicit",
    cond_limit: float = CONDITION_LIMIT,
) -> np.ndarray:
    """Transport row covectors from node N back to node 0.

    With A_k = sum_i u[k-1, i] * DF_i(x_{k-1}) the two schemes are

      implicit:  lambda_{k-1} = lambda_k (Id - h A_k)^{-1}
                 (backward-Euler transport of the continuous covector flow),
      explicit:  lambda_{k-1} = lambda_k (Id + h A_k)
                 (the exact transpose of the forward layer linearization).

    ``states`` must be the trajectory bundle the controls produced.  Returns
    covectors of shape (M, N+1, dim).  The implicit solve fails with a
    FlowError naming sample and layer when a layer matrix has condition
    estimate above ``cond_limit``.
    """
    if scheme not in ("implicit", "explicit"):
        raise ValueError(f"unknown covector scheme {scheme!r}")
    _check_compatible(family, u)
    states = np.asarray(states, dtype=float)
    n_pts, n_nodes, dim = states.shape
    n_layers = u.n_layers
    if n_nodes != n_layers + 1 or dim != family.dim:
        raise ValueError(
            f"trajectory bundle shape {states.shape} does not match "
            f"{n_layers} layers in dimension {family.dim}"
        )
    term = np.asarray(terminal, dtype=float)
    if term.shape != (n_pts, dim):
        raise ValueError(f"terminal covectors must have shape ({n_pts}, {dim}), got {term.shape}")
    h = u.step
    eye = np.eye(dim)
    lam = np.empty_like(states)
    lam[:, n_layers] = term
    for k in range(n_layers, 0, -1):
        a = layer_matrix(family, states[:, k - 1], u.values[k - 1])
        if scheme == "implicit":
            b = eye - h * a
            j, worst = _worst_conditioned(b)
            if not np.isfinite(worst) or worst > cond_limit:
                raise FlowError(
                    f"covector solve ill-conditioned for sample {j} at layer {k} "
                    f"(condition estimate {worst:.3e} exceeds {cond_limit:.1e})",
                    sample=j,
                    layer=k,
                )
            # Row convention: lambda_{k-1} B = lambda_k, so solve B^T y = lambda_k^T.
            lam[:, k - 1] = np.linalg.solve(
                np.swapaxes(b, -1, -2), lam[:, k][..., None]
            )[..., 0]
        else:
            lam[:, k - 1] = np.einsum("mp,mpn->mn", lam[:, k], eye + h * a)
    return lam


def variational_jacobian(
    family: VectorFieldFamily, u: ControlGrid, x0: np.ndarray
) -> np.ndarray:
    """Jacobian of the input-to-output map at x0.

    Accumulates V <- (Id + h A_k) V along the trajectory started at x0, which
    is the exact derivative of the discrete flow.  Accepts a single point
    (dim,) or a bundle (M, dim) and returns (dim, dim) or (M, dim, dim).
    """
    _check_compatible(family, u)
    pts, single = _as_bundle(x0, family.dim)
    h = u.step
    eye = np.eye(family.dim)
    jac = np.broadcast_to(eye, (pts.shape[0], family.dim, family.dim)).copy()
    x = pts
    for k in range(1, u.n_layers + 1):
        a = layer_matrix(family, x, u.values[k - 1])
        jac = (eye + h * a) @ jac
        x = x + h * displacement(family, x, u.values[k - 1])
    return jac[0] if single else jac


def _rk4(rhs: Callable[[np.ndarray], np.ndarray], x: np.ndarray, span: float, steps: int) -> np.ndarray:
    dt = span / steps
    for _ in range(steps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def commutator_order_check(
    family: VectorFieldFamily,
    i1: int,
    i2: int,
    x: np.ndarray,
    step: float,
    substeps: int = 64,
) -> float:
    """Second-order defect of the back-and-forth flow composition.

    Composes time-``step`` flows of F_{i1}, F_{i2}, -F_{i1}, -F_{i2} (in that
    application order) starting at x, flows the commutator field
    DF_{i2} F_{i1} - DF_{i1} F_{i2} for time step**2 from the same x, and
    returns the distance between the two endpoints divided by step**2.
    The ratio tends to zero as the step shrinks; each flow is integrated
    with fixed-step RK4.
    """
    if not 0.0 < step < 0.25:
        raise ValueError(f"step must lie in (0, 0.25), got {step}")
    if substeps < 64:
        raise ValueError("at least 64 RK4 substeps are required")
    family._check_index(i1)
    family._check_index(i2)
    x = np.asarray(x, dtype=float)

    def f1(y: np.ndarray) -> np.ndarray:
        return family.value(i1, y)

    def f2(y: np.ndarray) -> np.ndarray:
        return family.value(i2, y)

    def bracket(y: np.ndarray) -> np.ndarray:
        v1 = family.value(i1, y)
        v2 = family.value(i2, y)
        j1 = family.jacobian(i1, y)
        j2 = family.jacobian(i2, y)
        return j2 @ v1 - j1 @ v2

    y = _rk4(f1, x, step, substeps)
    y = _rk4(f2, y, step, substeps)
    y = _rk4(lambda z: -f1(z), y, step, substeps)
    y = _rk4(lambda z: -f2(z), y, step, substeps)
    z = _rk4(bracket, x, step * step, substeps)
    return float(np.linalg.norm(y - z) / (step * step))
