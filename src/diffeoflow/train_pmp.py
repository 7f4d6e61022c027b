"""Maximum-principle trainer: layerwise Hamiltonian maximization.

Instead of stepping along a gradient, each pass sweeps the layers k = 1..N
in time order and replaces the control of layer k with the maximizer of the
proximally damped Hamiltonian

    v  |->  H(x_{k-1}, lambda_{k-1}, v) - |v - u_old_k|^2 / (2 gamma),

where H(x, lambda, v) = sum_j <lambda^j, sum_i v_i F_i(x^j)> - (beta/2)|v|^2.
The maximizer is available in closed form because H is quadratic in v:

    v_i = (u_old_k[i] + gamma * sum_j <lambda_{k-1}^j, F_i(x_{k-1}^j)>) / (1 + gamma * beta).

Covectors solve the backward-Euler transport of ``flow.backward_covector``
with terminal value -(1/M) grad a(x_N - y); inside a sweep they are corrected
at each node for the drift of the updated trajectory before the control
update uses them.

The sweep is the ``propose`` step of the loop shared with the gradient-flow
trainer (``train_gd._descend``): a pass is accepted only if the cost
strictly decreased, otherwise gamma shrinks by tau, and a rejected row
reports the testing error of the unchanged control.  The sweep flows the
stacked sources anew and reads only what the loop's ``prepare`` step took
from the accepted trajectory, which the loop then dropped, so a rejection
needs no restore.  The held-out rows ride below the training rows and
move under the new controls; only the training rows pair.  ``prepare``
computes the penalty gradients grad a(x_k - y), ``loss_grad`` at every
training node of the accepted trajectory, and from the last of them the
covectors (or keeps the FlowError of a transport that fails the guard);
both are recomputed only after an accepted pass, into the buffers of the
run's one transport workspace.

The sweep is ``flow._euler``, the Euler recursion of every other flow, with
the maximizer as its row rule: at each node it reached, it pairs with the
``pair`` kernel of the base class's dense sweep, an einsum over the field
``values`` for every family, whose spans perfbench's tracing self-test reads
from a pmp run; the forward steps and the transport's factors are the
``displace`` and ``factor`` kernels of the family's own ``_sweep``.
"""

from __future__ import annotations

import numpy as np

from .fields import VectorFieldFamily
# forward_euler is unused here, but perfbench's tracing self-test expects this module to bind it.
from .flow import ControlGrid, FlowError, _buffer, _euler, backward_covector, forward_euler  # noqa: F401
from .objective import Dataset, cost_of_endpoints, loss_grad
from .train_gd import TrainConfig, TrainReport, _descend


def _maximized_controls(
    field_pairing: np.ndarray, u_old: np.ndarray, gamma: float, beta: float
) -> np.ndarray:
    """Closed-form maximizer of the proximally damped Hamiltonian.

    field_pairing[i] = sum_j <lambda^j, F_i(x^j)> at the node in question.
    With beta >= 0 and gamma > 0 the problem is strictly concave, so this
    is the unique maximizer.
    """
    return (u_old + gamma * field_pairing) / (1.0 + gamma * beta)


def _penalty_gradients(states: np.ndarray, targets: np.ndarray, workspace: dict) -> np.ndarray:
    """``loss_grad(states - targets[:, None])`` node by node, in the workspace's (N+1, 2, M) ``"penalties"``."""
    n_pts, n_nodes = states.shape[:2]
    penalty = _buffer(workspace, "penalties", (n_nodes, 2, n_pts)).transpose(2, 0, 1)
    for k in range(n_nodes):
        penalty[:, k] = loss_grad(states[:, k] - targets)
    return penalty


def train_pmp(
    family: VectorFieldFamily,
    data: Dataset,
    n_layers: int,
    cfg: TrainConfig,
    init: ControlGrid | None = None,
    test_data: Dataset | None = None,
) -> TrainReport:
    """Train by successive layerwise Hamiltonian maximization.

    Accepts the same configuration as the gradient-flow trainer, except that
    c is ignored.  Records follow the same convention: iteration 0 is the
    initial state, then one row per pass with its proposal cost and
    accepted flag.  The penalties (``loss_grad``, one call per node) and
    covectors of each accepted control are read off its trajectory once,
    which the shared loop then drops; each sweep flows the sources anew.

    Both live in one workspace per run: the first transport makes its
    (N, M, 2, 2) factors and the (N+1, 2, M) covectors and penalty
    gradients, and every later one refills them.  A transport follows an
    acceptance only, when the previous control's covectors and penalties
    are dead, so no pass hands these arrays back to the allocator.
    """
    n_pts, targets = data.n_samples, data.targets
    workspace: dict = {}

    def transport(u, states):
        # The penalties and then the covectors of the accepted trajectory,
        # from the last penalty, in the run's workspace; or the FlowError.
        with np.errstate(over="ignore", invalid="ignore"):
            penalty = _penalty_gradients(states, targets, workspace)
        try:
            return penalty, backward_covector(family, u, states, -penalty[:, -1] / n_pts, workspace=workspace)
        except FlowError as err:
            return err

    def sweep(u, prepared, current, gamma, sources):
        if isinstance(prepared, FlowError):
            raise prepared.with_traceback(None)
        penalty, cov = prepared
        new_controls, dense = u.values.copy(), VectorFieldFamily._sweep(family, (n_pts,))

        def maximize(k, x):
            # The sweep has already moved nodes 1..k-1; shift the covector
            # by the change this causes in the endpoint penalty gradients.
            x, row = x[:n_pts], new_controls[k - 1]
            lam = cov[:, k - 1] + (penalty[:, k - 1] - loss_grad(x - targets)) / n_pts
            dense.load(x).pair(lam, row)
            row[...] = _maximized_controls(row, u.values[k - 1], gamma, cfg.beta)
            return row

        swept = _euler(family, u, sources, u.n_layers + 1, maximize, checked=n_pts).transpose(2, 0, 1)
        proposal = ControlGrid(new_controls)
        cost_new = cost_of_endpoints(swept[:n_pts, -1], targets, proposal, cfg.beta)
        return proposal, swept, cost_new, current.total > cost_new.total

    return _descend(family, data, n_layers, cfg, init, test_data, transport, sweep)
