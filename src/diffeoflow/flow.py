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
_BLOCK_ROWS = 16384  # the most points flowed together: a coordinate of 128 KiB stays in L2


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
        """Squared L2 norm of the control, ``step * sum(values**2)``; inf if that overflows."""
        with np.errstate(over="ignore"):
            return float(self.step * np.sum(self.values * self.values))


def _as_bundle(family: VectorFieldFamily, u: ControlGrid, points: np.ndarray, *nodes: int) -> np.ndarray:
    """Check ``u`` against ``family``; return ``points`` as an (M, *nodes, dim) float array."""
    if u.n_fields != family.n_fields:
        raise ValueError(
            f"control has {u.n_fields} field columns but family {family.kind!r} "
            f"has {family.n_fields} fields"
        )
    pts = np.asarray(points, dtype=float)
    if pts.shape[1:] != (*nodes, family.dim):
        want = ", ".join(["M", *map(str, (*nodes, family.dim))])
        raise ValueError(f"points have shape {pts.shape}, expected ({want})")
    return pts


def displacement(family: VectorFieldFamily, x: np.ndarray, u_row: np.ndarray) -> np.ndarray:
    """sum_i u_row[i] * F_i(x) for points x of shape (..., dim): the ``displace`` kernel of the dense sweep."""
    return VectorFieldFamily._sweep(family, np.shape(x)[:-1]).load(x).displace(u_row, None)


def layer_matrix(family: VectorFieldFamily, x: np.ndarray, u_row: np.ndarray) -> np.ndarray:
    """sum_i u_row[i] * DF_i(x) for points x of shape (..., dim): the state matrix of one layer, (..., dim, dim)."""
    return np.einsum("...lpq,l->...pq", family.jacobians(x), u_row)


def _spectral_norm_2x2(mats: np.ndarray, out: np.ndarray | None = None, scratch: tuple | None = None) -> np.ndarray:
    """Largest singular value of a batch of 2x2 matrices, in closed form:

        sigma_max = ( sqrt((a+d)^2 + (b-c)^2) + sqrt((a-d)^2 + (b+c)^2) ) / 2.

    Written into ``out``, with the two arrays ``scratch`` of its shape as
    temporaries; each is made when not given.  One matrix gives a scalar.
    """
    a, b, c, d = _entries(mats)
    out = np.empty(a.shape) if out is None else out
    s, t = (np.empty(a.shape), np.empty(a.shape)) if scratch is None else scratch
    np.square(np.add(a, d, out=out), out=out)
    out += np.square(np.subtract(b, c, out=s), out=s)
    np.sqrt(out, out=out)
    np.square(np.subtract(a, d, out=s), out=s)
    s += np.square(np.add(b, c, out=t), out=t)
    out += np.sqrt(s, out=s)
    out *= 0.5
    return out[()]


def _entries(mats: np.ndarray) -> tuple:
    """The entries a, b, c, d of ``mats[..., :, :]`` = [[a, b], [c, d]], as views."""
    return tuple(mats[..., i, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))


def _buffer(workspace: dict, name: str, shape: tuple) -> np.ndarray:
    """The float array ``workspace[name]`` if it has ``shape``; else a new one, kept there."""
    buf = workspace.get(name)
    if buf is None or buf.shape != shape:
        buf = workspace[name] = np.empty(shape)
    return buf


def _screen(factors: np.ndarray, scratch: np.ndarray) -> None:
    """Raise FlowError if a layer of ``factors`` (N, M, 2, 2) has a condition above ``CONDITION_LIMIT``.

    The factors are screened in closed form, cond = sigma_max^2 / |det|
    (since sigma_max * sigma_min = |det|), which picks each layer's worst
    sample; one LAPACK call then gives the condition numbers of those N
    matrices.  A NaN or inf entry has condition inf without LAPACK, so it
    fails.  The error names the highest failing layer, the first the
    transport would reach, and that layer's worst sample.  The closed form
    runs in ``scratch``, two (N, M) arrays, and one more array of that shape.
    """
    ratio, det = scratch
    spare = np.empty_like(det)
    _spectral_norm_2x2(factors, ratio, (det, spare))
    a, b, c, d = _entries(factors)
    np.multiply(a, d, out=det)
    det -= np.multiply(b, c, out=spare)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio *= ratio
        ratio /= np.abs(det, out=det)
        samples = np.argmax(ratio, axis=1)
    mats = factors[np.arange(len(factors)), samples]
    finite = np.isfinite(mats).all(axis=(-2, -1))
    conds = np.full(finite.shape, np.inf)
    conds[finite] = np.linalg.cond(mats[finite])
    failing = np.flatnonzero(~np.isfinite(conds) | (conds > CONDITION_LIMIT))
    if failing.size:
        k = int(failing[-1])
        j, worst = int(samples[k]), float(conds[k])
        raise FlowError(
            f"covector solve ill-conditioned for sample {j} at layer {k + 1} "
            f"(condition estimate {worst:.3e} exceeds {CONDITION_LIMIT:.1e})", sample=j, layer=k + 1
        )


def _solve_backward(factors: np.ndarray, terminal: np.ndarray, lam: np.ndarray, refactor) -> np.ndarray:
    """The covectors with lambda_{k-1} B_k = lambda_k, k = N..1, into the (N+1, 2, M) buffer ``lam``.

    ``factors`` (N, M, 2, 2) holds the finite, nonsingular B_k, ``terminal``
    (M, 2) lambda_N.  Each node is ``np.linalg.solve(B_k^T, lambda_k)`` bit for
    bit: it replays LAPACK's dgesv on A = B^T.  As dgetf2, one pass factors all
    layers: rows swap only where |a10| > |a00| (idamax takes the first
    maximum), l = a10 * (1/a00), u11 = a11 - l a01 unfused.  As dgetrs, each
    layer substitutes x1 = fma(-l, c0, c1) / u11, x0 = fma(-a01, x1, c0) / a00
    for the swapped right-hand side c, the fma being a matmul of the row
    (1, -l) with the column (c1, c0).  LAPACK takes the rows this misses: a
    pivot below the smallest normal (dgetf2 divides by it) and a -0.0
    right-hand side (the matmul's sum starts at +0.0).  NaNs from infinite
    ones may differ in sign.

    The factorization consumes ``factors``: each entry slot of A is
    overwritten, once read, by what the substitution reads, a00 by the pivot,
    a10 by -l, a01 by -a01 and a11 by u11 (of the swapped rows), and nodes
    0..N-1 of ``lam`` hold its two temporaries until the substitution writes
    them.  ``refactor(k, rows)`` gives LAPACK the (n, 2, 2) factors B_k of
    the rows of the bool mask ``rows`` anew.
    """
    n_layers, n_pts = factors.shape[:2]
    lam[n_layers] = terminal.T
    pivot, lower, upper, u11 = a00, a10, a01, a11 = _entries(factors)
    s, t = lam[:n_layers].reshape(2, n_layers, n_pts)
    swap = np.abs(a10, out=s) > np.abs(a00, out=t)
    np.copyto(s, a00)
    np.copyto(s, a10, where=swap)  # the pivot
    tiny_pivot = np.abs(s, out=t) < np.finfo(float).tiny
    # The row (1, -l), then (1, -a01), of the fused multiply-adds of one layer.
    row = np.ones((n_pts, 1, 2))
    column = np.empty((n_pts, 2, 1))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(-1.0, s, out=t)
        np.copyto(a10, a00, where=swap)
        lower *= t  # -l: the swapped a10 times -1 / pivot
        pivot[...] = s
        np.copyto(t, a01)
        np.copyto(t, a11, where=swap)  # the swapped a01
        np.copyto(s, a11)
        np.copyto(s, a01, where=swap)  # the swapped a11
        np.negative(t, out=upper)
        np.subtract(s, np.multiply(lower, upper, out=t), out=u11)
        for k in range(n_layers, 0, -1):
            sw, rhs, x = swap[k - 1], lam[k], lam[k - 1]
            # The column (c1, c0) of the swapped right-hand side, then (c0, x1).
            column[:, 0, 0], column[:, 1, 0] = np.where(sw, rhs[0], rhs[1]), np.where(sw, rhs[1], rhs[0])
            row[:, 0, 1] = lower[k - 1]
            np.divide((row @ column)[:, 0, 0], u11[k - 1], out=x[1])
            column[:, 0, 0], column[:, 1, 0] = column[:, 1, 0], x[1]
            row[:, 0, 1] = upper[k - 1]
            np.divide((row @ column)[:, 0, 0], pivot[k - 1], out=x[0])
            missed = tiny_pivot[k - 1] | (np.signbit(rhs) & (rhs == 0)).any(axis=0)
            if missed.any():
                # Row convention: lambda_{k-1} B = lambda_k, so solve B^T y = lambda_k^T.
                b = np.swapaxes(refactor(k, missed), -1, -2)
                x[:, missed] = np.linalg.solve(b, rhs[:, missed].T[..., None])[..., 0].T
    return lam


def _check_finite(states: np.ndarray, layer: int) -> None:
    """Raise FlowError naming the first sample whose (M, dim) state at ``layer`` is not finite."""
    if not np.isfinite(states).all():
        j = int(np.argmin(np.isfinite(states).all(axis=1)))
        raise FlowError(
            f"non-finite state for sample {j} at layer {layer}; the flow overflowed, "
            "reduce the step size or the controls", sample=j, layer=layer
        )


def _check_nodes(states: np.ndarray) -> None:
    """Raise the FlowError of the first non-finite node of an (M, N+1, dim) trajectory, if any.

    Only node N is tested first: x_k = x_{k-1} + h F(x_{k-1}) keeps a
    non-finite coordinate non-finite (inf or NaN plus anything is not
    finite), so node N shows any overflow.  Only then are the nodes searched,
    so the error names the sample and layer that a check after every layer
    would.
    """
    if not np.isfinite(states[:, -1]).all():
        for k in range(1, states.shape[1]):
            _check_finite(states[:, k], k)


def _euler(
    family: VectorFieldFamily, u: ControlGrid, sources: np.ndarray, keep: int, row=None, *, checked=None, tangent=None,
    weights=None,
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

    The default rule runs in row blocks of at most ``_BLOCK_ROWS`` points,
    each through all N layers before the next, in one ``family._sweep``, so
    a layer's temporaries stay in cache; every sample follows its own
    elementwise arithmetic, so no bit depends on the blocking.  A row rule
    reads all samples: one block.  At layer k the block's sweep loads
    x_{k-1} once, and its ``displace`` kernel gives the Euler step.

    ``tangent``, an (M, dim, dim) array, receives the Jacobian of the
    input-to-output map at the sources: each block starts V at the identity
    and takes V <- (Id + h A_k) V at every layer, the factor coming from the
    ``factor`` kernel at the node that the Euler step loaded.  It is taken
    with the default rule only.

    ``weights``, an (N, M) array, receives in row k-1 the Gaussian weight
    g(x_{k-1}) that the load of node k-1 computes, through the sweep's
    ``hold``; a family without one leaves it as it is.

    Raises FlowError if a state of the first ``checked`` samples (all by
    default) turns non-finite, naming the first such sample and its layer;
    overflow inside the fields is left to that check, not a numpy warning.
    The flow checks node N of all blocks once (``_check_nodes``); a row rule
    may see the non-finite rows of a flow that then fails.  With ``keep = 2``
    a failing flow is run again keeping every node, to find the layer.
    """
    pts = _as_bundle(family, u, sources)
    if weights is not None and weights.shape != (u.n_layers, pts.shape[0]):
        raise ValueError(f"weights have shape {weights.shape}, expected ({u.n_layers}, {pts.shape[0]})")
    h, n_rows = u.step, max(pts.shape[0], 1)  # an empty bundle is one empty block
    nodes = np.empty((keep, pts.shape[1], pts.shape[0]))
    nodes[0] = pts.T
    size = n_rows if row else _BLOCK_ROWS
    rows = u.values.tolist()
    rule = row or (lambda k, x: rows[k - 1])
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_rows, size):
            slots = [slot[:, start:start + size].T for slot in nodes]
            sweep, step = family._sweep(slots[0].shape[:-1]), np.empty_like(slots[0])
            if tangent is not None:
                v, factor_rows = np.broadcast_to(np.eye(2), (step.shape[0], 2, 2)).copy(), sweep.rows(u.values)
            held = None if weights is None else list(weights[:, start:start + size])
            for k in range(1, u.n_layers + 1):
                prev = slots[(k - 1) % keep]
                if held:
                    sweep.hold(held[k - 1])
                moved = sweep.load(prev).displace(rule(k, prev), step)
                if tangent is not None:
                    v = sweep.factor(factor_rows[k - 1], h) @ v
                np.multiply(moved, h, out=step)
                np.add(prev, step, out=slots[k % keep])
            if tangent is not None:
                tangent[start:start + size] = v
    if keep > u.n_layers:
        _check_nodes(nodes.transpose(2, 0, 1)[:checked])
    elif not np.isfinite(nodes[u.n_layers % keep, :, :checked]).all():  # flow again, to name the layer
        _euler(family, u, sources, u.n_layers + 1, row, checked=checked)
    return nodes


def forward_euler(
    family: VectorFieldFamily, u: ControlGrid, sources: np.ndarray, *, checked: int | None = None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Push a bundle of points through all layers, keeping every node.

    Returns the full trajectory bundle of shape (M, N+1, dim); node 0 holds
    the sources and node N the mapped points.

    The bundle is stored coordinate-major: the result is a transposed view
    of an (N+1, dim, M) C-order buffer, so each coordinate row
    ``states[:, k, d]`` is contiguous and each node ``states[:, k]`` is an
    (M, dim) Fortran-order block, which is what every layer loop reads.

    Raises FlowError if any state turns non-finite, naming the first
    offending sample and the layer where it happened.  With ``checked = n``
    only the first n samples are checked, and the caller checks the rest.
    The check tests node N once and searches the nodes only if that fails.
    Points flow in row blocks of at most 16384, each through all N layers;
    as each sample follows its own arithmetic, no bit depends on the blocks.

    ``weights``, an (N, M) float array, receives the built-ins' Gaussian
    weight g(x_{k-1}) of every sample in row k-1, at no extra numpy call,
    for ``control_gradient`` to read back; other families leave it as it is.
    """
    return _euler(family, u, sources, u.n_layers + 1, checked=checked, weights=weights).transpose(2, 0, 1)


def flow_endpoints(
    family: VectorFieldFamily, u: ControlGrid, sources: np.ndarray
) -> np.ndarray:
    """The mapped points, shape (M, dim): node N of ``forward_euler``, bit for bit.

    Holds two nodes at a time instead of the (N+1, dim, M) trajectory, for
    callers that read the endpoints only; the result is stored like a node
    of ``forward_euler``, with contiguous coordinate columns.  Raises the
    same FlowError as ``forward_euler``: a flow whose node N is not finite
    is run again with every node kept, to find the layer.  It flows in the
    same row blocks of at most 16384 points, on which no bit depends.
    """
    return _euler(family, u, sources, 2)[u.n_layers % 2].T


def backward_covector(
    family: VectorFieldFamily,
    u: ControlGrid,
    states: np.ndarray,
    terminal: np.ndarray,
    *,
    workspace: dict | None = None,
) -> np.ndarray:
    """Transport row covectors from node N back to node 0 by backward Euler.

    With A_k = sum_i u[k-1, i] * DF_i(x_{k-1}) each step solves

        lambda_{k-1} = lambda_k (Id - h A_k)^{-1},

    the backward-Euler transport of the continuous covector flow.  The
    factor Id - h A_k is the ``factor`` kernel, with step -h, of one
    ``family._sweep`` that loads x_{k-1}.  (The exact transpose of the
    forward layer, lambda_k (Id + h A_k), is the sweep's ``step`` kernel,
    which ``objective.control_gradient`` runs.)

    ``states`` must be the trajectory bundle the controls produced, in any
    memory layout.  Returns covectors of shape (M, N+1, dim), stored
    coordinate-major like ``forward_euler``'s trajectory: a transposed view
    of an (N+1, dim, M) buffer, so each row ``lam[:, k, d]`` is contiguous.

    All N factors are built, then screened by one ``_screen`` call, before
    the first solve.  When some have a condition estimate above
    ``CONDITION_LIMIT``, the FlowError names the highest such layer, the
    first the transport would reach, and that layer's worst-conditioned
    sample.  The solves are ``np.linalg.solve``'s bit for bit, and make no
    LAPACK call but for the rows ``_solve_backward`` cannot replay; those
    rows' factors are formed again from ``states``, by the same kernel.

    ``workspace``, a dict, keeps the transport's buffers between calls: the
    first call of a trajectory shape makes there the (N, M, 2, 2)
    ``"factors"`` and the (N+1, 2, M) ``"covectors"``, and every later call
    of that shape refills them.  The result is then a view of the
    covectors, which the next call into the same workspace overwrites.  A
    call that raises leaves both half-written.  Without a workspace each
    call makes its own buffers.
    """
    states = _as_bundle(family, u, states, u.n_layers + 1)
    n_pts, n_layers = states.shape[0], u.n_layers
    term = np.array(terminal, dtype=float)  # a copy: it may be a view of the workspace's earlier covectors
    if term.shape != (n_pts, 2):
        raise ValueError(f"terminal covectors must have shape ({n_pts}, 2), got {term.shape}")
    workspace = {} if workspace is None else workspace
    factors = _buffer(workspace, "factors", (n_layers, n_pts, 2, 2))
    lam = _buffer(workspace, "covectors", (n_layers + 1, 2, n_pts))
    sweep = family._sweep((n_pts,))
    rows = sweep.rows(u.values)
    with np.errstate(over="ignore", invalid="ignore"):  # as in a flow: at |x|^2 = inf, g is 0 and x1^2 g NaN
        for k in range(1, n_layers + 1):
            factors[k - 1] = sweep.load(states[:, k - 1]).factor(rows[k - 1], -u.step)
    _screen(factors, lam[:n_layers].reshape(2, n_layers, n_pts))

    def refactor(k: int, missed: np.ndarray) -> np.ndarray:
        x = states[missed, k - 1]
        return family._sweep(x.shape[:1]).load(x).factor(rows[k - 1], -u.step)

    return _solve_backward(factors, term, lam, refactor).transpose(2, 0, 1)


def variational_jacobian(family: VectorFieldFamily, u: ControlGrid, x0: np.ndarray) -> np.ndarray:
    """Jacobian of the input-to-output map at x0, the exact derivative of the discrete flow.

    Takes an (M, dim) bundle and returns (M, dim, dim).  The Jacobian is
    accumulated inside the flow's own row blocks, next to each Euler step,
    holding two nodes at a time: no trajectory is stored.  Raises the
    trajectory's FlowError if the flow overflows.
    """
    pts = _as_bundle(family, u, x0)
    jac = np.empty((pts.shape[0], 2, 2))
    _euler(family, u, pts, 2, tangent=jac)
    return jac
