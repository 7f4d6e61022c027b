"""Regularity and generalization diagnostics for a trained flow.

The headline quantity is an empirical Lipschitz constant of the trained
map: the largest spectral norm of its Jacobian over a cloud of probe
points.  Together with the Lipschitz constant of the target map and a
covering bound on the 1-Wasserstein distance between the empirical training
measure and the uniform measure on the square, it yields an a-posteriori
upper bound for the expected error on unseen points:

    test_error <= train_error + (L_target + L_flow) * W1,

since the pointwise penalty is 1-Lipschitz.  For a uniform m x m grid of
M = m^2 points on a square of side length s, endpoints included, send the
uniform measure to the grid by the quantile coupling of each axis: the
slab of width s/m at quantile i goes to grid line i.  Its mean squared
distance is E|x - p|^2 = (s/m)^2 m / (3 (m - 1)), so for m >= 3

    W1 <= (s/m) sqrt(m / (3 (m - 1))) <= sqrt(2) s / (2m).

For m = 2 the grid is the four corners, each the nearest grid point to a
quadrant of mass 1/4, and W1 is exactly the mean distance to the nearest
corner, (s/6) (sqrt(2) + asinh(1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import VectorFieldFamily
from .flow import ControlGrid, _spectral_norm_2x2, variational_jacobian


@dataclass(frozen=True)
class MetricsBlock:
    """Diagnostics attached to a finished run; see ``build_metrics`` for the None fields."""

    lipschitz_flow: float
    lipschitz_target: float | None
    control_norm: float
    w1_bound: float | None
    generalization_bound: float | None


def spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of a batch of 2x2 matrices, shape (..., 2, 2).

    Uses the closed form of ``flow._spectral_norm_2x2``, which the covector
    conditioning guard shares.  Other shapes are a ValueError naming them.
    """
    mats = np.asarray(mats, dtype=float)
    if mats.shape[-2:] != (2, 2):
        raise ValueError(f"spectral norms are of 2x2 matrices, got shape {mats.shape}")
    return _spectral_norm_2x2(mats)


def lipschitz_estimate(
    family: VectorFieldFamily, u: ControlGrid, probes: np.ndarray
) -> float:
    """Largest Jacobian spectral norm of the trained map over probe points."""
    return float(np.max(spectral_norms(variational_jacobian(family, u, probes))))


def target_lipschitz_estimate(target, probes: np.ndarray) -> float:
    """Largest Jacobian spectral norm of a target map over probe points.

    ``target`` must expose a ``jacobian(points)`` method returning
    (..., dim, dim); the built-in target maps do.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    return float(np.max(spectral_norms(target.jacobian(probes))))


def w1_grid_bound(n_samples: int, side: float) -> float:
    """Upper bound on W1 between the uniform measure on the square and
    the empirical measure of a uniform sqrt(n_samples)^2 grid on it.

    sqrt(2) side / (2 sqrt(n_samples)) from the module's quantile coupling;
    the exact W1 of the four corners, the 2x2 grid, for n_samples = 4.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    if side <= 0.0:
        raise ValueError(f"side must be positive, got {side}")
    if n_samples == 4:
        return side / 6.0 * (math.sqrt(2.0) + math.asinh(1.0))
    return math.sqrt(2.0) * side / (2.0 * math.sqrt(n_samples))


def generalization_bound(
    training_error: float, lipschitz_target: float, lipschitz_flow: float, w1: float
) -> float:
    """Expected-error bound: training error plus (L_target + L_flow) * W1.

    The unit factor in front of the sum is the Lipschitz constant of the
    pointwise penalty.
    """
    if min(training_error, lipschitz_target, lipschitz_flow, w1) < 0.0:
        raise ValueError("all bound ingredients must be nonnegative")
    return training_error + 1.0 * (lipschitz_target + lipschitz_flow) * w1


def build_metrics(
    family: VectorFieldFamily,
    u: ControlGrid,
    lipschitz_target: float | None,
    probes: np.ndarray,
    training_error: float,
    side: float,
) -> MetricsBlock:
    """Assemble the full diagnostics block for a finished run.

    ``probes`` is an (M, 2) cloud, such as the training sources; the flow's
    Lipschitz constant is ``lipschitz_estimate`` at them, which flows them
    under ``u`` and raises that flow's FlowError if it overflows.
    ``lipschitz_target`` is the target's Lipschitz constant on the square of
    side ``side``, or None when the training data are not the target's grid
    on it; W1 and the bound then describe no data and are None too.  Otherwise
    the probes are that grid, and W1 is ``w1_grid_bound`` of their number.
    """
    l_flow = lipschitz_estimate(family, u, probes)
    w1 = bound = None
    if lipschitz_target is not None:
        w1 = w1_grid_bound(len(probes), side)
        bound = generalization_bound(training_error, lipschitz_target, l_flow, w1)
    return MetricsBlock(
        lipschitz_flow=l_flow,
        lipschitz_target=lipschitz_target,
        control_norm=math.sqrt(u.l2_norm_sq()),
        w1_bound=w1,
        generalization_bound=bound,
    )
