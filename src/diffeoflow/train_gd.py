"""Projected-gradient-flow trainer with Armijo backtracking, and the shared loop.

Both trainers run one loop, ``_descend``, each with its own ``prepare``
and ``propose`` steps; the loop accepts the proposal or shrinks gamma by
tau (never growing it back).  Every pass counts toward max_iter and
produces one trace record, so backtracking is visible; a rejected row
reports the testing error of the unchanged control, and a proposal whose
control or flow overflows is a rejected row with cost +inf.  The held-out
sources ride below the training sources in every flow, so no pass flows
the held-out cloud on its own.  The loop holds one trajectory at a time:
an accepted one is read once, by ``prepare``, and dropped before the next
proposal is flowed.

The gradient-flow step proposes u_new = u - gamma * g, where g is the
objective gradient in slab-average coordinates, and accepts it only under
sufficient decrease:

    cost(u) >= cost(u_new) + c * gamma * |g|_{L2}^2.

A rejected step leaves the control unchanged, so the gradient is
recomputed only after an accepted one.  Both trainers work on the full
dataset: the cost is the training error over every sample plus the
control penalty.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import VectorFieldFamily
from .flow import ControlGrid, FlowError, _buffer, _check_nodes, forward_euler
from .objective import (
    Dataset,
    ObjectiveValue,
    control_gradient,
    cost_of_endpoints,
    mean_loss,
)


@dataclass(frozen=True)
class TrainConfig:
    """Shared knobs for both trainers.

    gamma0 is the initial step size, tau the backtracking factor, c the
    sufficient-decrease constant (ignored by the maximum-principle trainer,
    which accepts on any strict decrease).  Each invalid value raises a
    ValueError whose message starts with the field name.
    """

    beta: float
    max_iter: int = 500
    gamma0: float = 1.0
    tau: float = 0.5
    c: float = 0.1

    def __post_init__(self) -> None:
        if self.beta < 0.0 or not math.isfinite(self.beta):
            raise ValueError(f"beta: must be nonnegative and finite, got {self.beta}")
        if self.gamma0 <= 0.0 or not math.isfinite(self.gamma0):
            raise ValueError(f"gamma0: must be positive and finite, got {self.gamma0}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau: must lie strictly between 0 and 1, got {self.tau}")
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"c: must lie strictly between 0 and 1, got {self.c}")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 0:
            raise ValueError(f"max_iter: must be a nonnegative integer, got {self.max_iter}")


@dataclass(frozen=True)
class IterationRecord:
    """One trace row; iteration 0 is the initial state before any proposal.

    cost and data_term describe the proposal evaluated in that pass (for
    row 0, the initial control); both are +inf when its flow overflowed.
    testing_error is NaN when no test set was supplied.  gamma is the step
    size the proposal used.  The fields, in order, are the trace's columns.
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


class TrainAbort(FlowError):
    """The FlowError ``err`` mid-training, at its sample and layer, with the report of the completed part."""

    def __init__(self, message: str, report: TrainReport, err: FlowError):
        super().__init__(message, err.sample, err.layer)
        self.report = report


# The cost recorded for a proposal whose control or flow overflowed, and the
# final cost of a run whose initial flow failed.
_OVERFLOWED = ObjectiveValue(math.inf, math.inf, math.inf)


def _testing_error(held: np.ndarray, test_data: Dataset | None) -> float:
    """The mean loss at node N of an accepted bundle's held-out rows ``held``.

    An overflow there raises the FlowError that the flow of the held-out
    cloud alone would (``_check_nodes``).
    """
    if test_data is None:
        return float("nan")
    _check_nodes(held)
    return mean_loss(held[:, -1], test_data.targets)


def _descend(
    family: VectorFieldFamily,
    data: Dataset,
    n_layers: int,
    cfg: TrainConfig,
    init: ControlGrid | None,
    test_data: Dataset | None,
    prepare: Callable[[ControlGrid, np.ndarray], object],
    propose: Callable[..., tuple],
) -> TrainReport:
    """The loop both trainers share: prepare, propose, accept or shrink gamma, record.

    ``prepare(u, states)`` reads the training rows ``states`` of the accepted
    control's trajectory once, at the start of the first pass after each
    acceptance (and of pass 1); the loop then drops the trajectory, so no
    two are held at once.  ``propose(u, prepared, current, gamma, sources)``
    gets the accepted control, what ``prepare`` returned for it, its cost,
    the step size and the stacked sources, and returns ``(proposal,
    states_new, cost_new, accepted)``.  Trajectories bundle the training
    sources, then the held-out ones: ``propose`` flows ``sources`` and checks
    and reads only the first ``data.n_samples`` rows.  A proposal whose
    control or training rows overflow (a FlowError inside ``propose``), or
    whose cost does, is a rejected pass with cost +inf.  The held-out rows
    are read initially and once per accepted pass; a non-finite one there,
    or a FlowError in the initial flow, aborts training with TrainAbort,
    whose partial report carries the last accepted control and its cost
    (+inf when the initial flow failed).
    """
    if not isinstance(n_layers, numbers.Integral) or n_layers < 1:
        raise ValueError(f"n_layers: must be a positive integer, got {n_layers}")
    if init is None:
        u = ControlGrid.zeros(n_layers, family.n_fields)
    elif init.n_layers != n_layers or init.n_fields != family.n_fields:
        raise ValueError(
            f"init control has shape {init.values.shape}, expected ({n_layers}, {family.n_fields})"
        )
    else:
        u = ControlGrid(init.values.copy())
    sources = data.sources if test_data is None else np.concatenate([data.sources, test_data.sources])
    n_train = data.n_samples

    records: list[IterationRecord] = []
    gamma = cfg.gamma0
    current = _OVERFLOWED  # an abort reports the last accepted cost
    try:
        bundle = forward_euler(family, u, sources, checked=n_train)
        current = cost_of_endpoints(bundle[:n_train, -1], data.targets, u, cfg.beta)
        testing_error = _testing_error(bundle[n_train:], test_data)
        records.append(
            IterationRecord(0, current.total, current.data_term, testing_error, gamma, True)
        )
        for it in range(1, cfg.max_iter + 1):
            if bundle is not None:  # the accepted trajectory is read once, then dropped
                prepared, bundle = prepare(u, bundle[:n_train]), None
            try:
                proposal, bundle, cost_new, accepted = propose(u, prepared, current, gamma, sources)
            except FlowError:
                cost_new = _OVERFLOWED
            if not math.isfinite(cost_new.total):
                cost_new, accepted = _OVERFLOWED, False
            if accepted:
                testing_error = _testing_error(bundle[n_train:], test_data)
                u, current, prepared = proposal, cost_new, None
            else:
                bundle = None  # a rejected trajectory must not outlive its pass
            records.append(
                IterationRecord(
                    it, cost_new.total, cost_new.data_term, testing_error, gamma, accepted
                )
            )
            if not accepted:
                gamma *= cfg.tau
        return TrainReport(records, u, current)
    except FlowError as err:
        raise TrainAbort(
            f"flow failed at training pass {len(records)}: {err}", TrainReport(records, u, current), err
        ) from err


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
    0) and one row per pass.  The gradient of each accepted control is read
    off its trajectory by ``control_gradient``, which is then dropped; each
    proposal is flowed anew.

    The run keeps one (N, M) buffer of the Gaussian weights of every node,
    made by the first proposal's flow, which every proposal's flow refills:
    the gradient of an accepted control reads its nodes' weights back from
    it before the next proposal is flowed.  The loop flows the initial
    control itself, without the buffer, so its gradient computes them.
    """
    n_train = data.n_samples
    workspace: dict = {}

    def gradient(u, states):
        return control_gradient(family, u, states, data.targets, cfg.beta, weights=workspace.get("weights"))

    def armijo_step(u, grad, current, gamma, sources):
        with np.errstate(over="ignore"):
            values = u.values - gamma * grad
        if not np.isfinite(values).all():
            raise FlowError(f"the proposed control overflowed at step size {gamma:g}")
        proposal = ControlGrid(values)
        weights = _buffer(workspace, "weights", (proposal.n_layers, len(sources)))
        states_new = forward_euler(family, proposal, sources, checked=n_train, weights=weights)
        cost_new = cost_of_endpoints(states_new[:n_train, -1], data.targets, proposal, cfg.beta)
        scale = cfg.c * gamma * proposal.step
        with np.errstate(over="ignore"):
            decrease = scale * float(np.sum(grad * grad))
        if not math.isfinite(decrease):  # |g|^2 overflowed: form m^2 |g/m|^2 with m = max|g| instead
            m = float(np.max(np.abs(grad)))
            decrease = scale * m * float(np.sum((grad / m) ** 2)) * m
        return proposal, states_new, cost_new, current.total >= cost_new.total + decrease

    return _descend(family, data, n_layers, cfg, init, test_data, gradient, armijo_step)
