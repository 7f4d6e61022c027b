"""The dense oracle: one copy of each reference that the package's fast paths are checked against.

The built-ins take every layer step of the flow, the gradients and the
covector transport from the closed forms of ``family._sweep``.  The
references are plain loops of the kernels of the dense sweep, the einsums
of ``VectorFieldFamily._sweep`` over ``values`` and ``jacobians`` at one
node (``dense_node``), and ``reference_pmp`` writes the pmp sweep out
densely.  ``planted`` builds a problem with a known answer for the
trainers: targets that the flow of a given control reaches exactly, the
values of ``planted_map``.  Test modules import them, ``assert_same_bits``
and the shared families from here; ``test_hygiene.py`` checks that no other
test helper loops over a sweep's kernels, so that the references do not
fork.
"""

import numpy as np

from diffeoflow import (
    ControlGrid,
    Dataset,
    FieldSpec,
    TargetMap,
    VectorFieldFamily,
    flow_endpoints,
    make_custom,
)
from diffeoflow.flow import _check_finite, variational_jacobian
from diffeoflow.objective import cost_of_endpoints, loss_grad
from diffeoflow.train_gd import _descend
from diffeoflow.train_pmp import _maximized_controls

LAYOUTS = {
    "c_order": np.ascontiguousarray,
    "fortran_order": np.asfortranarray,
    # Every row and every column strided: one plane of an (M, 2, 2) stack.
    "strided_view": lambda a: np.stack([a, a], axis=-1)[..., 0],
}

# The rotation field (-x2, x1) and the shift (1, 1), with their constant Jacobians.
ROTATION = FieldSpec(
    value=lambda x: np.stack([-x[..., 1], x[..., 0]], axis=-1),
    jacobian=lambda x: np.broadcast_to(np.array([[0.0, -1.0], [1.0, 0.0]]), x.shape[:-1] + (2, 2)).copy(),
)
DIAGONAL_SHIFT = FieldSpec(value=np.ones_like, jacobian=lambda x: np.zeros(x.shape + (2,)))


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def rows_are_contiguous(bundle):
    """Each coordinate of each node, ``bundle[:, k, d]``, is one contiguous row."""
    return all(bundle[:, k, d].flags.c_contiguous for k in range(bundle.shape[1]) for d in range(bundle.shape[2]))


def dense(base):
    """A subclass of ``base`` whose layer loops run on the dense sweep of VectorFieldFamily."""
    return type(f"Dense{base.__name__}", (base,), {"_sweep": VectorFieldFamily._sweep})


def dense_node(family, x):
    """The node ``x`` loaded into the dense sweep of ``family``: each kernel one einsum over its fields at x."""
    return VectorFieldFamily._sweep(family, np.shape(x)[:-1]).load(x)


def shift_family():
    """Two constant fields, e1 and e2: the flow endpoint is x plus the mean control."""
    return make_custom([
        FieldSpec(value=lambda x, e=e: np.broadcast_to(e, x.shape).copy(), jacobian=lambda x: np.zeros(x.shape + (2,)))
        for e in np.eye(2)
    ])


def nan_jacobian_family():
    """One field, the constant e_1, whose Jacobian reads NaN where x1 = 0: the flow stays finite."""
    return make_custom([FieldSpec(
        value=lambda x: np.broadcast_to(np.array([1.0, 0.0]), x.shape).copy(),
        jacobian=lambda x: np.einsum("...,pq->...pq", np.where(x[..., 0] == 0.0, np.nan, 0.0), np.eye(2)),
    )])


def planted_map(family, u_star):
    """The flow of ``u_star`` as a target map, whose Jacobian is the flow's own ``variational_jacobian``."""
    return TargetMap(
        "planted", lambda x: flow_endpoints(family, u_star, x), lambda x: variational_jacobian(family, u_star, x)
    )


def planted(family, u_star, sources):
    """The dataset whose targets are ``planted_map``'s values: at beta 0 its cost is exactly 0 at ``u_star``."""
    return Dataset(sources, planted_map(family, u_star)(sources))


def per_layer_flow(family, u, pts, row=None):
    """The (M, N+1, 2) trajectory, one dense ``displace`` per layer; ``row(k, x)`` is layer k's control if given."""
    nodes = [pts]
    for k in range(1, u.n_layers + 1):
        x = nodes[-1]
        nodes.append(x + u.step * dense_node(family, x).displace(u.values[k - 1] if row is None else row(k, x), None))
    return np.stack(nodes, axis=1)


def explicit_covectors(family, u, states, terminal):
    """The transport lambda_{k-1} = lambda_k (Id + h A_k) from ``terminal`` at node N, a dense ``pair`` and ``step`` a node.

    Returns the (N, l) pairing rows, row k-1 that of lambda_k at node k-1, and lambda_0.
    """
    rows, lam = np.empty(u.values.shape), terminal
    for k in range(u.n_layers, 0, -1):
        node = dense_node(family, states[:, k - 1])
        node.pair(lam, rows[k - 1])
        lam = node.step(u.values[k - 1], lam, u.step)
    return rows, lam


def per_layer_gradient(family, u, states, targets, beta):
    """``control_gradient``: the pairing rows of ``explicit_covectors`` from the mean loss's gradient, plus beta u."""
    rows, _ = explicit_covectors(family, u, states, loss_grad(states[:, -1] - targets) / states.shape[0])
    return rows + beta * u.values


def two_pass_gradient(fam, u, states, targets, beta):
    """The exact gradient as two passes: store every covector, then pair them all.

    The covectors are transported with explicit einsums over the Jacobians,
    lambda (I + h A), and the pairing is the dense ``pair`` over all layers at once.
    """
    n_pts, n_nodes, dim = states.shape
    h = u.step
    lam = np.empty((n_pts, n_nodes, dim))
    lam[:, -1] = loss_grad(states[:, -1] - targets) / n_pts
    for k in range(n_nodes - 1, 0, -1):
        a = np.einsum("...lpq,l->...pq", fam.jacobians(states[:, k - 1]), u.values[k - 1])
        lam[:, k - 1] = np.einsum("mp,mpn->mn", lam[:, k], np.eye(dim) + h * a)
    rows = np.empty(u.values.shape)
    dense_node(fam, states[:, :-1]).pair(lam[:, 1:], rows)
    return rows + beta * u.values


def lapack_transport(factors, terminal):
    """The transport lambda_{k-1} = lambda_k factors[k-1]^{-1}: one np.linalg.solve per layer, shape (N+1, M, dim)."""
    lam = np.empty((factors.shape[0] + 1,) + terminal.shape)
    lam[-1] = terminal
    for k in range(factors.shape[0], 0, -1):
        lam[k - 1] = np.linalg.solve(np.swapaxes(factors[k - 1], -1, -2), lam[k][..., None])[..., 0]
    return lam


def per_layer_transport(family, u, states, terminal):
    """``backward_covector``: ``lapack_transport`` through the dense ``factor``s of step -h, shaped (M, N+1, dim)."""
    factors = np.stack([dense_node(family, states[:, k]).factor(u.values[k], -u.step) for k in range(u.n_layers)])
    return lapack_transport(factors, terminal).transpose(1, 0, 2)


def per_layer_jacobian(family, u, states):
    """``variational_jacobian`` as one product of dense ``factor``s over all points of a stored trajectory."""
    v = np.broadcast_to(np.eye(2), (states.shape[0], 2, 2)).copy()
    for k in range(1, u.n_layers + 1):
        v = dense_node(family, states[:, k - 1]).factor(u.values[k - 1], u.step) @ v
    return v


def reference_pmp(family, data, n_layers, cfg):
    """train_pmp with the sweep written out densely: the LAPACK transport, the
    dense einsum step, the penalty gradient of the accepted node recomputed on
    every layer, and a full copy of the accepted trajectory."""
    n_pts, targets = data.n_samples, data.targets

    def transport(u, states):
        terminal = -loss_grad(states[:, -1] - targets) / n_pts
        return states, per_layer_transport(family, u, states, terminal)

    def sweep(u, prepared, current, gamma, sources):
        states, cov = prepared
        swept = np.copy(states)
        new_controls = u.values.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, u.n_layers + 1):
                drift = loss_grad(states[:, k - 1] - targets) - loss_grad(swept[:, k - 1] - targets)
                lam = cov[:, k - 1] + drift / n_pts
                vals = family.values(swept[:, k - 1])
                pairing = np.einsum("mn,mln->l", lam, vals)
                new_controls[k - 1] = _maximized_controls(pairing, u.values[k - 1], gamma, cfg.beta)
                step = np.einsum("mln,l->mn", vals, new_controls[k - 1])
                swept[:, k] = swept[:, k - 1] + u.step * step
                _check_finite(swept[:, k], k)
        proposal = ControlGrid(new_controls)
        cost_new = cost_of_endpoints(swept[:, -1], targets, proposal, cfg.beta)
        return proposal, swept, cost_new, current.total > cost_new.total

    return _descend(family, data, n_layers, cfg, None, None, transport, sweep)
