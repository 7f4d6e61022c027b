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
reports the testing error of the unchanged control.  The sweep works on a
copy of the accepted states and reads the cached covectors without
changing them, so a rejection needs no restore.  The cache holds the
covectors only; they are recomputed only after an accepted pass.
"""

from __future__ import annotations

import numpy as np

from .fields import VectorFieldFamily
# forward_euler is unused here, but perfbench's tracing self-test expects this module to bind it.
from .flow import ControlGrid, _check_finite, backward_covector, forward_euler  # noqa: F401
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
    n_pts = data.n_samples
    targets = data.targets
    cov_u = cov = None  # the covectors are cached until the control changes

    def sweep(u, states, current, gamma):
        nonlocal cov_u, cov
        if cov_u is not u:
            terminal = -loss_grad(states[:, -1] - targets) / n_pts
            cov_u, cov = u, backward_covector(family, u, states, terminal)
        # np.copy keeps the layer-major layout (order 'K'); ndarray.copy would not.
        swept = np.copy(states)
        new_controls = u.values.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, u.n_layers + 1):
                # The sweep has already moved nodes 1..k-1; shift the covector
                # by the change this causes in the endpoint penalty gradients.
                lam = cov[:, k - 1] + (
                    loss_grad(states[:, k - 1] - targets) - loss_grad(swept[:, k - 1] - targets)
                ) / n_pts
                vals = family.values(swept[:, k - 1])  # (M, l, dim), feeds pairing and update
                pairing = np.einsum("mn,mln->l", lam, vals)
                new_controls[k - 1] = _maximized_controls(pairing, u.values[k - 1], gamma, cfg.beta)
                swept[:, k] = swept[:, k - 1] + u.step * np.einsum(
                    "mln,l->mn", vals, new_controls[k - 1]
                )
                _check_finite(swept[:, k], k, " during a maximization sweep")
        proposal = ControlGrid(new_controls)
        cost_new = cost_of_endpoints(swept[:, -1], targets, proposal, cfg.beta)
        return proposal, swept, cost_new, current.total > cost_new.total

    return _descend(family, data, n_layers, cfg, init, test_data, sweep)
