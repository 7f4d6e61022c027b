"""Lipschitz estimates, Wasserstein grid bound, generalization bound."""

import dataclasses

import numpy as np
import pytest

from diffeoflow import (
    ControlGrid,
    build_metrics,
    forward_euler,
    generalization_bound,
    spectral_norms,
    square_grid,
    target_lipschitz_estimate,
    w1_grid_bound,
)
from diffeoflow.metrics import lipschitz_estimate


def test_spectral_norm_closed_form_matches_svd(rng):
    mats = rng.normal(size=(40, 2, 2))
    want = np.linalg.svd(mats, compute_uv=False)[..., 0]
    assert np.allclose(spectral_norms(mats), want, rtol=1e-12)
    assert np.isclose(spectral_norms(np.eye(2)), 1.0, rtol=1e-15)
    assert np.isclose(spectral_norms(np.diag([3.0, -7.0])), 7.0, rtol=1e-15)


def test_identity_flow_has_unit_lipschitz(affine8, rng):
    probes = rng.uniform(-1, 1, size=(30, 2))
    assert np.isclose(lipschitz_estimate(affine8, ControlGrid.zeros(8, 8), probes), 1.0, rtol=1e-14)


def test_lipschitz_estimate_dominates_difference_quotients(affine8, rng):
    u = ControlGrid(rng.normal(scale=0.4, size=(12, 8)))
    probes = rng.uniform(-1, 1, size=(40, 2))
    est = lipschitz_estimate(affine8, u, probes)
    eps = 1e-5
    dirs = rng.normal(size=(40, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    hi = forward_euler(affine8, u, probes + eps * dirs)[:, -1]
    lo = forward_euler(affine8, u, probes - eps * dirs)[:, -1]
    quotients = np.linalg.norm(hi - lo, axis=1) / (2 * eps)
    assert quotients.max() <= est * (1 + 1e-6)
    # The estimate is attained along some direction at some probe, so the
    # best sampled quotient should come reasonably close.
    assert quotients.max() >= 0.5 * est


def test_target_lipschitz_against_independent_jacobian(target):
    """Rebuild the target Jacobian from its defining pieces and compare."""
    probes = square_grid(1.5, 30)
    ang = np.pi / 3.0
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    z = probes @ rot.T + np.array([0.3, 0.2])
    d1 = 1.0 + 2.0 * np.exp(z[:, 0] ** 2 - 1.0) * (1.0 + 2.0 * z[:, 0] ** 2)
    d2 = 1.0 + 6.0 * z[:, 1] ** 2
    jac = np.zeros((probes.shape[0], 2, 2))
    jac[:, 0] = d1[:, None] * rot[0]
    jac[:, 1] = d2[:, None] * rot[1]
    want = np.linalg.svd(jac, compute_uv=False)[..., 0].max()
    got = target_lipschitz_estimate(target, probes)
    assert np.isclose(got, want, rtol=1e-12)
    assert 20.1 < got < 20.25


def test_w1_bound_frozen_values():
    assert np.isclose(w1_grid_bound(900, 1.5), 0.035355339059327376, rtol=1e-14)
    assert np.isclose(w1_grid_bound(4, 3.0), 1.147793574696319, rtol=1e-14)
    with pytest.raises(ValueError):
        w1_grid_bound(0, 1.5)
    with pytest.raises(ValueError):
        w1_grid_bound(900, 0.0)


def test_w1_bound_of_the_four_corners_is_their_exact_transport_cost():
    # Each corner is the nearest grid point to a quadrant of mass 1/4, so the
    # optimal plan sends every point to its nearest corner: W1 is the mean
    # distance to the nearest corner, here by a 400^2 midpoint rule.
    side, n = 3.0, 400
    axis = (np.arange(n) + 0.5) / n * side - side / 2
    points = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 1, 2)
    corners = square_grid(side, 2)
    nearest = np.min(np.linalg.norm(points - corners, axis=-1), axis=1)
    assert np.isclose(w1_grid_bound(4, side), np.mean(nearest), rtol=1e-5)
    # The former half-cell-diagonal value sqrt(2) side / 4 is below it, so no bound.
    assert w1_grid_bound(4, side) > np.sqrt(2.0) * side / 4.0


def test_generalization_bound_arithmetic():
    assert np.isclose(generalization_bound(0.5, 20.0, 3.0, 0.01), 0.5 + 23.0 * 0.01, rtol=1e-15)
    with pytest.raises(ValueError):
        generalization_bound(-0.1, 1.0, 1.0, 0.1)


def test_build_metrics_assembly(affine8, target, rng):
    u = ControlGrid(rng.normal(scale=0.3, size=(8, 8)))
    probes = square_grid(1.5, 10)
    l_target = target_lipschitz_estimate(target, probes)
    block = build_metrics(affine8, u, l_target, probes, training_error=0.4, side=1.5)
    assert block.lipschitz_flow == lipschitz_estimate(affine8, u, probes)
    assert block.lipschitz_target == l_target
    assert np.isclose(block.w1_bound, w1_grid_bound(100, 1.5), rtol=1e-15)
    assert np.isclose(
        block.generalization_bound,
        0.4 + (block.lipschitz_target + block.lipschitz_flow) * block.w1_bound,
        rtol=1e-15,
    )
    assert np.isclose(block.control_norm, np.sqrt(u.l2_norm_sq()), rtol=1e-15)
    d = dataclasses.asdict(block)
    assert set(d) == {
        "lipschitz_flow",
        "lipschitz_target",
        "control_norm",
        "w1_bound",
        "generalization_bound",
    }
    # Without a target constant (data from a file) the grid-bound fields are None.
    bare = build_metrics(affine8, u, None, probes, training_error=0.4, side=1.5)
    assert dataclasses.astuple(bare) == (block.lipschitz_flow, None, block.control_norm, None, None)
