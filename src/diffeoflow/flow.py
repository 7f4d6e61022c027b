"""Discrete flow of the control-affine system and its linearizations.

The network is the explicit-Euler discretization of

    x'(s) = sum_i u_i(s) F_i(x(s)),   s in [0, 1],

with piecewise-constant controls on N equal slabs of width h = 1/N:

    x_k = x_{k-1} + h * sum_i u[k-1, i] * F_i(x_{k-1}),   k = 1..N.

This module advances point bundles through that recursion, transports row
covectors backward through its linearization and accumulates the Jacobian
of the input-to-output map.

Point bundles keep the (M, dim) and (M, N+1, dim) shapes of their callers,
but the flow stores them coordinate-major: each coordinate of each node,
``states[:, k, d]``, is one contiguous row of M values.  Every per-point
formula of the fields reads and writes such rows, so the elementwise passes
at large M run over contiguous memory.  Results do not depend on the layout
a caller passes in; only the speed does.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _cond(mats: np.ndarray) -> np.ndarray:
    """``np.linalg.cond`` of each matrix, but inf without LAPACK for one with a NaN or inf entry."""
    finite = np.isfinite(mats).all(axis=(-2, -1))
    conds = np.full(finite.shape, np.inf)
    conds[finite] = np.linalg.cond(mats[finite])
    return conds


def _worst_conditioned(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index and 2-norm condition number of the worst-conditioned matrix in each batch.

    ``mats`` has shape (..., M, d, d): the leading axes index batches of M
    matrices, and the results have the shape of those axes (scalars for a
    single batch).  2x2 matrices are screened in closed form, cond =
    sigma_max^2 / |det| (since sigma_max * sigma_min = |det|), and LAPACK
    computes the condition numbers of the worst matrices only; larger ones
    go to LAPACK whole.  Either way one LAPACK call covers every batch.  A
    NaN or inf entry ranks as worst, with condition inf, so it fails the guard.
    """
    if mats.shape[-2:] != (2, 2):
        conds = _cond(mats)
        j = np.argmax(conds, axis=-1)
        return j, np.take_along_axis(conds, j[..., None], axis=-1)[..., 0]
    smax = _spectral_norm_2x2(mats)
    det = mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        screen = smax * smax / np.abs(det)
    j = np.argmax(screen, axis=-1)
    worst = np.take_along_axis(mats, j[..., None, None, None], axis=-3)[..., 0, :, :]
    return j, _cond(worst)


def _solve_backward(factors: np.ndarray, terminal: np.ndarray) -> np.ndarray:
    """The covectors with lambda_{k-1} B_k = lambda_k, k = N..1, in an (N+1, dim, M) buffer.

    ``factors`` (N, M, dim, dim) holds the finite, nonsingular B_k, ``terminal``
    (M, dim) lambda_N.  Each node is ``np.linalg.solve(B_k^T, lambda_k)`` bit for
    bit: non-2x2 factors go to it, 2x2 ones replay LAPACK's dgesv on A = B^T.  As
    dgetf2, one pass factors all layers: rows swap only where |a10| > |a00|
    (idamax takes the first maximum), l = a10 * (1/a00), u11 = a11 - l a01 unfused.
    As dgetrs, each layer substitutes x1 = fma(-l, c0, c1) / u11, x0 = fma(-a01,
    x1, c0) / a00 for the swapped right-hand side c, the fma being a stacked
    matmul of (1, -l) with (c1, c0).  LAPACK takes the rows this misses: a pivot
    below the smallest normal (dgetf2 divides by it) and a -0.0 right-hand side
    (the matmul's sum starts at +0.0).  NaNs from infinite ones may differ in sign.
    """
    n_layers, n_pts, dim = factors.shape[:3]
    lam = np.empty((n_layers + 1, dim, n_pts))
    lam[n_layers] = terminal.T

    def lapack(k: int, rows) -> None:
        # Row convention: lambda_{k-1} B = lambda_k, so solve B^T y = lambda_k^T.
        b = np.swapaxes(factors[k - 1, rows], -1, -2)
        lam[k - 1][:, rows] = np.linalg.solve(b, lam[k][:, rows].T[..., None])[..., 0].T

    if dim != 2:
        for k in range(n_layers, 0, -1):
            lapack(k, slice(None))
        return lam
    a00, a10, a01, a11 = (factors[..., i, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    swap = np.abs(a10) > np.abs(a00)
    p00 = np.where(swap, a10, a00)
    tiny_pivot = np.abs(p00) < np.finfo(float).tiny
    # The rows (1, -l) and (1, -a01) of the fused multiply-adds, (N, M, 1, 2) each.
    lower, upper = np.ones((2, n_layers, n_pts, 1, 2))
    column = np.empty((n_pts, 2, 1))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.multiply(np.where(swap, a00, a10), -1.0 / p00, out=lower[..., 0, 1])
        np.negative(np.where(swap, a11, a01), out=upper[..., 0, 1])
        u11 = np.where(swap, a01, a11) - lower[..., 0, 1] * upper[..., 0, 1]
        for k in range(n_layers, 0, -1):
            s, rhs, x = swap[k - 1], lam[k], lam[k - 1]
            # The column (c1, c0) of the swapped right-hand side, then (c0, x1).
            column[:, 0, 0], column[:, 1, 0] = np.where(s, rhs[0], rhs[1]), np.where(s, rhs[1], rhs[0])
            np.divide((lower[k - 1] @ column)[:, 0, 0], u11[k - 1], out=x[1])
            column[:, 0, 0], column[:, 1, 0] = column[:, 1, 0], x[1]
            np.divide((upper[k - 1] @ column)[:, 0, 0], p00[k - 1], out=x[0])
            missed = tiny_pivot[k - 1] | (np.signbit(rhs) & (rhs == 0)).any(axis=0)
            if missed.any():
                lapack(k, missed)
    return lam


def _check_finite(states: np.ndarray, layer: int, context: str) -> None:
    """Raise FlowError naming the first sample whose (M, dim) state at ``layer`` is not finite."""
    if not np.isfinite(states).all():
        j = int(np.argmin(np.isfinite(states).all(axis=1)))
        raise FlowError(
            f"non-finite state for sample {j} at layer {layer}{context}", sample=j, layer=layer
        )


def _as_trajectory(family: VectorFieldFamily, u: ControlGrid, states: np.ndarray) -> np.ndarray:
    """Check that ``states`` is an (M, N+1, dim) bundle for the controls ``u``."""
    _check_compatible(family, u)
    states = np.asarray(states, dtype=float)
    if states.ndim != 3 or states.shape[1:] != (u.n_layers + 1, family.dim):
        raise ValueError(
            f"trajectory bundle shape {states.shape} does not match "
            f"{u.n_layers} layers in dimension {family.dim}"
        )
    return states


def _euler(
    family: VectorFieldFamily, u: ControlGrid, sources: np.ndarray, keep: int, row=None
) -> np.ndarray:
    """Run the Euler recursion, holding node k in slot ``k % keep`` of a (keep, dim, M) buffer.

    With ``keep = N+1`` the buffer is the whole coordinate-major trajectory;
    with ``keep = 2`` it holds the current node and the previous one only.
    Each slot is handed to the family as its transpose, an (M, dim) view
    whose coordinate columns are contiguous rows of the buffer.

    ``row(k, x)`` returns the control row of layer k from node x_{k-1}, such
    an (M, dim) view; it defaults to ``u.values[k-1]``.  With the default
    each sample is advanced independently, so results do not depend on batch
    composition; with any rule they do not depend on ``keep``.

    Raises FlowError if any state turns non-finite, naming the first
    offending sample and the layer where it happened; overflow inside the
    fields is left to that check rather than reported as a numpy warning.
    """
    _check_compatible(family, u)
    pts, _ = _as_bundle(sources, family.dim)
    h = u.step
    nodes = np.empty((keep, pts.shape[1], pts.shape[0]))
    nodes[0] = pts.T
    row = row or (lambda k, x: u.values[k - 1])
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, u.n_layers + 1):
            prev, node = nodes[(k - 1) % keep].T, nodes[k % keep].T
            np.add(prev, h * displacement(family, prev, row(k, prev)), out=node)
            _check_finite(node, k, "; the flow overflowed, reduce the step size or the controls")
    return nodes


def forward_euler(
    family: VectorFieldFamily, u: ControlGrid, sources: np.ndarray
) -> np.ndarray:
    """Push a bundle of points through all layers, keeping every node.

    Returns the full trajectory bundle of shape (M, N+1, dim); node 0 holds
    the sources and node N the mapped points.

    The bundle is stored coordinate-major: the result is a transposed view
    of an (N+1, dim, M) C-order buffer, so each coordinate row
    ``states[:, k, d]`` is contiguous and each node ``states[:, k]`` is an
    (M, dim) Fortran-order block, which is what every layer loop reads.

    Raises FlowError if any state turns non-finite, naming the first
    offending sample and the layer where it happened.
    """
    return _euler(family, u, sources, u.n_layers + 1).transpose(2, 0, 1)


def flow_endpoints(
    family: VectorFieldFamily, u: ControlGrid, sources: np.ndarray
) -> np.ndarray:
    """The mapped points, shape (M, dim): node N of ``forward_euler``, bit for bit.

    Holds two nodes at a time instead of the (N+1, dim, M) trajectory, for
    callers that read the endpoints only; the result is stored like a node
    of ``forward_euler``, with contiguous coordinate columns.  Raises the
    same FlowError as ``forward_euler``.
    """
    return _euler(family, u, sources, 2)[u.n_layers % 2].T


def backward_covector(
    family: VectorFieldFamily,
    u: ControlGrid,
    states: np.ndarray,
    terminal: np.ndarray,
) -> np.ndarray:
    """Transport row covectors from node N back to node 0 by backward Euler.

    With A_k = sum_i u[k-1, i] * DF_i(x_{k-1}) each step solves

        lambda_{k-1} = lambda_k (Id - h A_k)^{-1},

    the backward-Euler transport of the continuous covector flow.  The
    factor Id - h A_k is the family's ``layer_factor`` with step -h.  (The
    exact transpose of the forward layer, lambda_k (Id + h A_k), is the
    family's ``adjoint_step``.)

    ``states`` must be the trajectory bundle the controls produced, in any
    memory layout.  Returns covectors of shape (M, N+1, dim), stored
    coordinate-major like ``forward_euler``'s trajectory: a transposed view
    of an (N+1, dim, M) buffer, so each row ``lam[:, k, d]`` is contiguous.

    All N factors are built, then screened by one ``_worst_conditioned``
    call in any dimension, before the first solve.  When some have a
    condition estimate above ``CONDITION_LIMIT``, the FlowError names the
    highest such layer, the first the transport would reach, and that
    layer's worst-conditioned sample.  The solves are ``np.linalg.solve``'s
    bit for bit, and planar ones make no LAPACK call (``_solve_backward``).
    """
    states = _as_trajectory(family, u, states)
    n_pts, _, dim = states.shape
    n_layers = u.n_layers
    term = np.asarray(terminal, dtype=float)
    if term.shape != (n_pts, dim):
        raise ValueError(f"terminal covectors must have shape ({n_pts}, {dim}), got {term.shape}")
    h = u.step
    factors = np.empty((n_layers, n_pts, dim, dim))
    for k in range(1, n_layers + 1):
        factors[k - 1] = family.layer_factor(states[:, k - 1], u.values[k - 1], -h)
    samples, conds = _worst_conditioned(factors)
    for k in range(n_layers, 0, -1):
        j, worst = int(samples[k - 1]), float(conds[k - 1])
        if not np.isfinite(worst) or worst > CONDITION_LIMIT:
            raise FlowError(
                f"covector solve ill-conditioned for sample {j} at layer {k} "
                f"(condition estimate {worst:.3e} exceeds {CONDITION_LIMIT:.1e})",
                sample=j,
                layer=k,
            )
    return _solve_backward(factors, term).transpose(2, 0, 1)


def variational_jacobian(
    family: VectorFieldFamily, u: ControlGrid, x0: np.ndarray
) -> np.ndarray:
    """Jacobian of the input-to-output map at x0.

    Runs ``forward_euler`` from x0 and accumulates the Jacobian along that
    trajectory as ``jacobian_along`` does, which is the exact derivative of
    the discrete flow.  Accepts a single point (dim,) or a bundle (M, dim)
    and returns (dim, dim) or (M, dim, dim); raises the trajectory's
    FlowError if the flow overflows.
    """
    pts, single = _as_bundle(x0, family.dim)
    jac = jacobian_along(family, u, forward_euler(family, u, pts))
    return jac[0] if single else jac


def jacobian_along(family: VectorFieldFamily, u: ControlGrid, states: np.ndarray) -> np.ndarray:
    """Jacobian of the input-to-output map at node 0 of a stored trajectory, shape (M, dim, dim).

    ``states`` is the (M, N+1, dim) bundle the controls produced from the
    points, in any memory layout, such as a trainer's final trajectory.
    Accumulates V <- (Id + h A_k) V over the layers, with each factor the
    family's ``layer_factor``; no point is flowed again.
    """
    states = _as_trajectory(family, u, states)
    jac = np.broadcast_to(np.eye(family.dim), (states.shape[0], family.dim, family.dim)).copy()
    for k in range(1, u.n_layers + 1):
        jac = family.layer_factor(states[:, k - 1], u.values[k - 1], u.step) @ jac
    return jac
