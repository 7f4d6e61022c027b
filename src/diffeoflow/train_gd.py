"""Projected-gradient-flow trainer with Armijo backtracking, and the shared loop.

Both trainers run one loop, ``_descend``, each with its own ``propose``
step; the loop accepts the proposal or shrinks gamma by tau (never growing
it back).  Every pass counts toward max_iter and produces one trace record,
so backtracking is visible; a rejected row reports the testing error of the
unchanged control.

The gradient-flow step proposes u_new = u - gamma * g, where g is the
objective gradient in slab-average coordinates, and accepts it only under
sufficient decrease:

    cost(u) >= cost(u_new) + c * gamma * |g|_{L2}^2.

A rejected step leaves the trajectories unchanged, so the gradient is
recomputed only after an accepted one.  An optional mini-batch mode draws a
fresh subset of samples (without replacement) each pass and runs the same
proposal/acceptance logic on the batch cost alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fields import VectorFieldFamily
from .flow import ControlGrid, FlowError, forward_euler
from .objective import (
    Dataset,
    ObjectiveValue,
    control_gradient,
    cost,
    cost_of_endpoints,
    mean_loss,
)


@dataclass(frozen=True)
class TrainConfig:
    """Shared knobs for both trainers.

    gamma0 is the initial step size, tau the backtracking factor, c the
    sufficient-decrease constant (ignored by the maximum-principle trainer,
    which accepts on any strict decrease).  batch_size, when set, must be
    at most the dataset size; seed feeds the batch sampler.
    gradient_method selects "exact" backpropagation or the "trapezoid"
    slab-average quadrature (gradient-flow trainer only).
    """

    beta: float
    max_iter: int = 500
    gamma0: float = 1.0
    tau: float = 0.5
    c: float = 0.1
    batch_size: int | None = None
    seed: int = 0
    gradient_method: str = "exact"

    def __post_init__(self) -> None:
        if self.beta < 0.0 or not math.isfinite(self.beta):
            raise ValueError(f"beta must be nonnegative and finite, got {self.beta}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {self.max_iter}")
        if self.gamma0 <= 0.0:
            raise ValueError(f"gamma0 must be positive, got {self.gamma0}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"c must lie in (0, 1), got {self.c}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be positive when set, got {self.batch_size}")
        if self.gradient_method not in ("exact", "trapezoid"):
            raise ValueError(f"unknown gradient_method {self.gradient_method!r}")


@dataclass(frozen=True)
class IterationRecord:
    """One trace row; iteration 0 is the initial state before any proposal.

    cost and data_term describe the proposal evaluated in that pass (for
    row 0, the initial control).  testing_error is NaN when no test set was
    supplied.  gamma is the step size the proposal used.
    """

    iteration: int
    cost: float
    data_term: float
    testing_error: float
    gamma: float
    accepted: bool


@dataclass
class TrainReport:
    """Everything a training run produced."""

    records: list[IterationRecord]
    control: ControlGrid
    final_cost: ObjectiveValue
    metrics: dict | None = field(default=None)

    @property
    def accepted_costs(self) -> list[float]:
        return [r.cost for r in self.records if r.accepted]


class TrainAbort(RuntimeError):
    """Flow failure mid-training; carries the report for the completed part."""

    def __init__(self, message: str, report: TrainReport, cause: FlowError):
        super().__init__(message)
        self.report = report
        self.cause = cause


def _testing_error(
    family: VectorFieldFamily, u: ControlGrid, test_data: Dataset | None
) -> float:
    if test_data is None:
        return float("nan")
    states = forward_euler(family, u, test_data.sources)
    return mean_loss(states[:, -1], test_data.targets)


def _descend(
    family: VectorFieldFamily,
    data: Dataset,
    n_layers: int,
    cfg: TrainConfig,
    init: ControlGrid | None,
    test_data: Dataset | None,
    propose: Callable[..., tuple],
) -> TrainReport:
    """The loop both trainers share: propose, accept or shrink gamma, record.

    ``propose(u, states, current, gamma)`` gets the accepted control, its
    trajectories and cost, and returns ``(proposal, states_new, cost_new,
    accepted)``.  The test cloud is flowed once initially and once per
    accepted pass.
    """
    if data.dim != family.dim:
        raise ValueError(f"dataset dimension {data.dim} does not match family dimension {family.dim}")
    if n_layers < 1:
        raise ValueError(f"n_layers must be positive, got {n_layers}")
    if init is None:
        u = ControlGrid.zeros(n_layers, family.n_fields)
    elif init.n_layers != n_layers or init.n_fields != family.n_fields:
        raise ValueError(
            f"init control has shape {init.values.shape}, expected ({n_layers}, {family.n_fields})"
        )
    else:
        u = ControlGrid(init.values.copy())

    states = forward_euler(family, u, data.sources)
    current = cost_of_endpoints(states[:, -1], data.targets, u, cfg.beta)
    testing_error = _testing_error(family, u, test_data)
    records = [
        IterationRecord(0, current.total, current.data_term, testing_error, cfg.gamma0, True)
    ]
    gamma = cfg.gamma0
    try:
        for it in range(1, cfg.max_iter + 1):
            proposal, states_new, cost_new, accepted = propose(u, states, current, gamma)
            if accepted:
                u, states, current = proposal, states_new, cost_new
                testing_error = _testing_error(family, u, test_data)
            records.append(
                IterationRecord(
                    it, cost_new.total, cost_new.data_term, testing_error, gamma, accepted
                )
            )
            if not accepted:
                gamma *= cfg.tau
    except FlowError as err:
        partial = TrainReport(records, u, cost(family, u, data, cfg.beta))
        raise TrainAbort(
            f"flow failed at training pass {len(records)}: {err}", partial, err
        ) from err
    return TrainReport(records, u, cost(family, u, data, cfg.beta))


def train_gradient_flow(
    family: VectorFieldFamily,
    data: Dataset,
    n_layers: int,
    cfg: TrainConfig,
    init: ControlGrid | None = None,
    test_data: Dataset | None = None,
) -> TrainReport:
    """Minimize the objective by backtracking gradient descent.

    Returns a TrainReport whose records include the initial state (iteration
    0) and one row per pass.  The reported final cost is always evaluated on
    the full dataset, also in mini-batch mode.
    """
    if cfg.batch_size is not None and cfg.batch_size > data.n_samples:
        raise ValueError(f"batch_size {cfg.batch_size} exceeds dataset size {data.n_samples}")
    batching = cfg.batch_size is not None and cfg.batch_size < data.n_samples
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    grad_u = grad = None  # the gradient is cached until the control changes

    def armijo_step(u, states, current, gamma):
        nonlocal grad_u, grad
        batch = data
        if batching:
            batch = data.subset(rng.choice(data.n_samples, size=cfg.batch_size, replace=False))
            states = forward_euler(family, u, batch.sources)
            current = cost_of_endpoints(states[:, -1], batch.targets, u, cfg.beta)
        if batching or grad_u is not u:
            grad_u, grad = u, control_gradient(
                family, u, states, batch.targets, cfg.beta, cfg.gradient_method
            )
        proposal = ControlGrid(u.values - gamma * grad)
        states_new = forward_euler(family, proposal, batch.sources)
        cost_new = cost_of_endpoints(states_new[:, -1], batch.targets, proposal, cfg.beta)
        decrease = cfg.c * gamma * proposal.step * float(np.sum(grad * grad))
        return proposal, states_new, cost_new, current.total >= cost_new.total + decrease

    return _descend(family, data, n_layers, cfg, init, test_data, armijo_step)
