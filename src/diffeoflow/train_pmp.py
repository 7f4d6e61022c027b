"""Maximum-principle trainer: layerwise Hamiltonian maximization.

Instead of stepping along a gradient, each pass sweeps the layers k = 1..N
in time order and replaces the control of layer k with the maximizer of the
proximally damped Hamiltonian

    v  |->  H(x_{k-1}, lambda_{k-1}, v) - |v - u_old_k|^2 / (2 gamma),

where H(x, lambda, v) = sum_j <lambda^j, sum_i v_i F_i(x^j)> - (beta/2)|v|^2.
The maximizer is available in closed form because H is quadratic in v:

    v_i = (u_old_k[i] + gamma * sum_j <lambda_{k-1}^j, F_i(x_{k-1}^j)>) / (1 + gamma * beta).

Covectors solve the backward-Euler transport of ``flow.backward_covector``
with terminal value -(1/M) grad a(x_N - y); inside a sweep they are corrected at each node for
the drift of the updated trajectory before the control update uses them.

The sweep is the ``propose`` step of the loop shared with the gradient-flow
trainer (``train_gd._descend``): a pass is accepted only if the cost
strictly decreased, otherwise gamma shrinks by tau, and a rejected row
reports the testing error of the unchanged control.  The sweep writes a
new trajectory and reads the accepted one and its cache without changing
them, so a rejection needs no restore.  The cache holds the covectors (or
the FlowError of a transport that fails the guard) and the penalty
gradients grad a(x_k - y) at every node of the accepted trajectory, which
the drift correction reads; both are recomputed only after an accepted pass.

The sweep is ``flow._euler``, the Euler recursion of every other flow, with
the maximizer as its row rule: at each node it reached, the sweep pairs with
``VectorFieldFamily.pairing``, the dense einsum over the (M, l, dim) field
``values``, not the built-ins' closed form, because perfbench's tracing
self-test requires a ``fields.values`` span from a pmp run.
"""

from __future__ import annotations

import numpy as np

from .fields import VectorFieldFamily
# forward_euler is unused here, but perfbench's tracing self-test expects this module to bind it.
from .flow import ControlGrid, FlowError, _euler, backward_covector, forward_euler  # noqa: F401
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
    accepted flag.
    """
    n_pts, targets = data.n_samples, data.targets
    # Cached until the control changes: the penalties and the covectors (or the transport's FlowError).
    cov_u = cov = penalty = None

    def sweep(u, states, current, gamma):
        nonlocal cov_u, cov, penalty
        if cov_u is not u:
            with np.errstate(over="ignore", invalid="ignore"):
                penalty = loss_grad(states - targets[:, None])
            try:
                cov = backward_covector(family, u, states, -penalty[:, -1] / n_pts)
            except FlowError as err:
                cov = err
            cov_u = u
        if isinstance(cov, FlowError):
            raise cov.with_traceback(None)
        new_controls = u.values.copy()

        def maximize(k, x):
            # The sweep has already moved nodes 1..k-1; shift the covector
            # by the change this causes in the endpoint penalty gradients.
            lam = cov[:, k - 1] + (penalty[:, k - 1] - loss_grad(x - targets)) / n_pts
            # Not family.pairing: a built-in's closed form would drop the fields.values span.
            pairing = VectorFieldFamily.pairing(family, x, lam)
            new_controls[k - 1] = _maximized_controls(pairing, u.values[k - 1], gamma, cfg.beta)
            return new_controls[k - 1]

        swept = _euler(family, u, states[:, 0], u.n_layers + 1, maximize).transpose(2, 0, 1)
        proposal = ControlGrid(new_controls)
        cost_new = cost_of_endpoints(swept[:, -1], targets, proposal, cfg.beta)
        return proposal, swept, cost_new, current.total > cost_new.total

    return _descend(family, data, n_layers, cfg, init, test_data, sweep)
