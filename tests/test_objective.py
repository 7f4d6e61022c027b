"""Loss, cost assembly, and the adjoint gradient against finite differences.

The exact gradient is also checked bit for bit against ``oracle.py``'s
two-pass gradient, which pairs all layers in one einsum.
"""

import re
import tracemalloc

import numpy as np
import pytest

from diffeoflow import (
    Affine8,
    ControlGrid,
    CustomFamily,
    Enriched14,
    FieldSpec,
    adjoint_gradient,
    cost,
    cost_of_endpoints,
    fd_gradient_oracle,
    forward_euler,
    loss,
    loss_grad,
    mean_loss,
    spectral_norms,
)
from diffeoflow.objective import Dataset, control_gradient

from oracle import DIAGONAL_SHIFT, ROTATION, assert_same_bits, two_pass_gradient


def test_loss_known_values():
    assert loss(np.zeros(2)) == 0.0
    assert np.isclose(loss(np.array([3.0, 4.0])), np.sqrt(26.0) - 1.0, rtol=1e-15)


def test_loss_is_stable_near_zero():
    z = np.array([1e-8, 0.0])
    val = loss(z)
    assert val > 0.0
    assert np.isclose(val, 0.5e-16, rtol=1e-10)


def test_loss_handles_large_residuals():
    val = loss(np.array([1e150, 0.0]))
    assert np.isfinite(val)
    assert np.isclose(val, 1e150, rtol=1e-12)


def test_loss_grad_values_and_bound(rng):
    g = loss_grad(np.array([3.0, 4.0]))
    assert np.allclose(g, np.array([3.0, 4.0]) / np.sqrt(26.0), rtol=1e-15)
    z = rng.normal(scale=5.0, size=(200, 2))
    assert np.linalg.norm(loss_grad(z), axis=-1).max() < 1.0

    eps = 1e-7
    for zz in z[:10]:
        want = np.array(
            [
                (loss(zz + [eps, 0]) - loss(zz - [eps, 0])) / (2 * eps),
                (loss(zz + [0, eps]) - loss(zz - [0, eps])) / (2 * eps),
            ]
        )
        assert np.allclose(loss_grad(zz), want, atol=1e-9)


def test_cost_at_zero_control_is_mean_identity_mismatch(affine8, grid25):
    val = cost(affine8, ControlGrid.zeros(16, 8), grid25, beta=0.5)
    assert val.reg_term == 0.0
    assert np.isclose(val.data_term, mean_loss(grid25.sources, grid25.targets), rtol=1e-15)
    assert val.total == val.data_term


def test_reg_term_assembly():
    endpoints = np.array([[1.0, 2.0]])
    u = ControlGrid(np.ones((4, 8)))
    val = cost_of_endpoints(endpoints, endpoints, u, beta=2.0)
    assert val.data_term == 0.0
    assert np.isclose(val.reg_term, 8.0, rtol=1e-15)
    assert np.isclose(val.total, 8.0, rtol=1e-15)


def test_beta_must_be_nonnegative_and_finite(affine8, grid25):
    # On the zero control an infinite beta times the zero norm would make the total NaN.
    for beta in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"^beta: must be nonnegative and finite, got {beta}$"):
            cost(affine8, ControlGrid.zeros(4, 8), grid25, beta=beta)


def test_constant_channel_gradient_at_zero_control(affine8):
    # One sample, zero control, target offset by (3, 4): the covector is the
    # constant -(3,4)/sqrt(26) at every node, so the two constant-field
    # channels read off its components directly.
    src = np.array([[0.2, -0.4]])
    data = Dataset(src, src + np.array([3.0, 4.0]))
    g = adjoint_gradient(affine8, ControlGrid.zeros(6, 8), data, beta=0.0)
    assert np.allclose(g.values[:, 0], -3.0 / np.sqrt(26.0), rtol=1e-14)
    assert np.allclose(g.values[:, 1], -4.0 / np.sqrt(26.0), rtol=1e-14)


def test_exact_gradient_matches_finite_differences(rng):
    families = [Affine8(20.0), Enriched14(20.0)]
    cases = 0
    for n_layers in (2, 4, 8):
        for m in (1, 3, 10):
            fam = families[cases % 2]
            beta = 0.0 if cases % 3 else 0.1
            src = rng.uniform(-1.5, 1.5, size=(m, 2))
            tgt = src + rng.normal(scale=0.8, size=(m, 2))
            data = Dataset(src, tgt)
            u = ControlGrid(rng.normal(scale=0.5, size=(n_layers, fam.n_fields)))
            got = adjoint_gradient(fam, u, data, beta).values
            want = fd_gradient_oracle(fam, u, data, beta).values
            assert np.allclose(got, want, rtol=1e-5, atol=1e-7), (n_layers, m)
            cases += 1
    assert cases == 9


def test_gradient_step_decreases_cost(enriched14, grid25, rng):
    u = ControlGrid(rng.normal(scale=0.3, size=(8, 14)))
    base = cost(enriched14, u, grid25, beta=0.05)
    g = adjoint_gradient(enriched14, u, grid25, beta=0.05)
    stepped = ControlGrid(u.values - 1e-3 * g.values)
    assert cost(enriched14, stepped, grid25, beta=0.05).total < base.total


def test_gradient_invariant_under_sample_permutation(affine8, grid25, rng):
    u = ControlGrid(rng.normal(scale=0.3, size=(6, 8)))
    g1 = adjoint_gradient(affine8, u, grid25, beta=0.1).values
    perm = rng.permutation(grid25.n_samples)
    g2 = adjoint_gradient(affine8, u, Dataset(grid25.sources[perm], grid25.targets[perm]), beta=0.1).values
    assert np.allclose(g1, g2, rtol=0, atol=1e-12)


def test_dataset_validation():
    good = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        Dataset(np.array([[0.0, 0.0], [0.0, 0.0]]), good)  # duplicate sources
    with pytest.raises(ValueError):
        Dataset(good, good[:1])
    with pytest.raises(ValueError):
        Dataset(good, np.array([[np.nan, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 2)), np.zeros((0, 2)))
    d = Dataset(good, good + 1.0)
    sub = Dataset(d.sources[[1]], d.targets[[1]])
    assert sub.n_samples == 1 and sub.sources.shape == sub.targets.shape == (1, 2)


def test_non_planar_input_is_refused_naming_its_shape():
    for dim in (1, 3):
        points = np.arange(4.0 * dim).reshape(4, dim)
        with pytest.raises(ValueError, match=re.escape(f"got shape (4, {dim})")):
            Dataset(points, points)
    with pytest.raises(ValueError, match=re.escape("got shape (5, 3, 3)")):
        spectral_norms(np.ones((5, 3, 3)))


def test_dataset_finds_a_repeated_source_anywhere(rng):
    src = rng.uniform(-1, 1, size=(50, 2))
    Dataset(src, src)
    repeated = src.copy()
    repeated[37] = src[4]  # far from its twin in input order
    with pytest.raises(ValueError, match="pairwise distinct"):
        Dataset(repeated, src)


def test_dataset_treats_signed_zeros_as_equal():
    src = np.array([[0.0, 1.0], [-0.0, 0.0], [2.0, 2.0], [-0.0, 1.0]])
    with pytest.raises(ValueError, match="pairwise distinct"):
        Dataset(src, src)
    with pytest.raises(ValueError, match="finite"):
        Dataset(np.array([[np.nan, 0.0], [np.nan, 0.0]]), np.zeros((2, 2)))
    Dataset(np.array([[0.0, 1.0], [-0.0, 0.0]]), np.zeros((2, 2)))


def test_dataset_reports_exactly_the_repeated_rows(rng):
    # Small integers collide often; rows sharing a first coordinate are not repeats.
    distinct = "^source points must be pairwise distinct$"
    for _ in range(20):
        src = rng.integers(-3, 4, size=(8, 2)).astype(float)
        src[rng.uniform(size=src.shape) < 0.2] *= -1.0  # signed zeros
        if len({tuple(r) for r in (src + 0.0).tolist()}) < len(src):
            with pytest.raises(ValueError, match=distinct):
                Dataset(src, src)
        else:
            Dataset(src, src)


def test_dataset_keeps_rows_that_share_only_a_first_coordinate():
    src = np.zeros((6, 2))
    src[:, 1] = np.arange(6.0)[::-1]
    Dataset(src, src)
    twin = src[4].copy()
    twin[0] = -0.0
    with pytest.raises(ValueError, match="^source points must be pairwise distinct$"):
        Dataset(np.vstack([src, twin]), np.zeros((7, 2)))


def test_endpoint_states_feed_cost(affine8, grid25):
    u = ControlGrid(np.full((5, 8), 0.1))
    states = forward_euler(affine8, u, grid25.sources)
    via_states = cost_of_endpoints(states[:, -1], grid25.targets, u, beta=0.2)
    direct = cost(affine8, u, grid25, beta=0.2)
    assert via_states == direct


def three_field_family():
    bend = FieldSpec(
        value=lambda x: np.stack([x[..., 0] ** 2, np.sin(x[..., 1])], axis=-1),
        jacobian=lambda x: np.stack(
            [np.stack([2.0 * x[..., 0], 0.0 * x[..., 0]], axis=-1),
             np.stack([0.0 * x[..., 1], np.cos(x[..., 1])], axis=-1)],
            axis=-2,
        ),
    )
    return CustomFamily([ROTATION, DIAGONAL_SHIFT, bend])


@pytest.mark.parametrize("size", [(7, 3), (900, 16), (10_000, 32)], ids=lambda s: f"m{s[0]}_n{s[1]}")
@pytest.mark.parametrize("name", ["affine8", "enriched14", "custom"])
def test_exact_gradient_is_the_two_pass_gradient_bit_for_bit(name, size):
    fam = {"affine8": Affine8(20.0), "enriched14": Enriched14(5.0), "custom": three_field_family()}[name]
    n_pts, n_layers = size
    rng = np.random.Generator(np.random.Philox(n_pts + n_layers))
    u = ControlGrid(rng.normal(scale=0.5, size=(n_layers, fam.n_fields)))
    src = rng.uniform(-1.5, 1.5, size=(n_pts, 2))
    src[::5] = 0.0
    targets = src + rng.normal(scale=0.5, size=src.shape)
    targets[::7] = src[::7]  # zero residuals give zero covectors
    states = forward_euler(fam, u, src)
    want = two_pass_gradient(fam, u, states, targets, 1e-3)
    for layout in (states, np.ascontiguousarray(states)):
        assert_same_bits(control_gradient(fam, u, layout, targets, 1e-3), want)


def test_exact_gradient_stores_no_covectors(enriched14):
    rng = np.random.Generator(np.random.Philox(5))
    u = ControlGrid(rng.normal(scale=0.3, size=(32, 14)))
    src = rng.uniform(-1.5, 1.5, size=(2000, 2))
    states = forward_euler(enriched14, u, src)
    tracemalloc.start()
    try:
        control_gradient(enriched14, u, states, src + 0.3, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < states.nbytes
