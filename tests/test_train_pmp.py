"""Maximum-principle trainer: sweep updates, acceptance, closed-form maximizer.

The sweep is checked bit for bit against ``oracle.py``'s ``reference_pmp``,
which transports the covectors through LAPACK and writes the sweep out densely.
"""

import importlib

import numpy as np
import pytest

from diffeoflow import (
    ControlGrid,
    TrainConfig,
    VectorFieldFamily,
    forward_euler,
    train_pmp,
)
from diffeoflow.objective import Dataset, loss_grad
from diffeoflow.train_pmp import _maximized_controls, _penalty_gradients

from oracle import assert_same_bits, nan_jacobian_family, reference_pmp, rows_are_contiguous, shift_family


def endpoints_of(family, u, sources):
    return forward_euler(family, u, sources)[:, -1]


def test_zero_iterations_returns_initial_state(affine8, grid25):
    rep = train_pmp(affine8, grid25, 8, TrainConfig(beta=0.1, max_iter=0))
    assert len(rep.records) == 1
    assert rep.records[0].iteration == 0
    assert np.array_equal(rep.control.values, np.zeros((8, 8)))


def test_perfect_fit_is_a_fixed_point_when_unregularized(rng):
    # With zero residuals the covectors vanish, and with beta = 0 the
    # proximal maximizer returns the old control on every layer; the sweep
    # changes nothing, so no pass is ever accepted.
    fam = shift_family()
    u0 = ControlGrid(rng.normal(scale=0.4, size=(5, 2)))
    src = rng.uniform(-1, 1, size=(9, 2))
    data = Dataset(src, endpoints_of(fam, u0, src))
    rep = train_pmp(fam, data, 5, TrainConfig(beta=0.0, max_iter=10), init=u0)
    assert np.array_equal(rep.control.values, u0.values)
    assert not any(r.accepted for r in rep.records[1:])
    assert rep.final_cost.total == rep.records[0].cost


def test_first_layer_shrinks_exactly_at_perfect_fit(affine8, rng):
    # Zero covectors leave only the proximal-regularization balance, whose
    # maximizer divides the old first-layer control by (1 + gamma * beta).
    u0 = ControlGrid(rng.normal(scale=0.3, size=(6, 8)))
    src = rng.uniform(-1, 1, size=(8, 2))
    data = Dataset(src, endpoints_of(affine8, u0, src))
    cfg = TrainConfig(beta=0.5, max_iter=1, gamma0=1.0)
    rep = train_pmp(affine8, data, 6, cfg, init=u0)
    assert rep.records[1].accepted
    assert np.allclose(rep.control.values[0], u0.values[0] / 1.5, rtol=1e-14)


def test_heavy_regularization_shrinks_controls(affine8, grid25, rng):
    u0 = ControlGrid(rng.normal(scale=0.5, size=(6, 8)))
    rep = train_pmp(affine8, grid25, 6, TrainConfig(beta=100.0, max_iter=40), init=u0)
    assert rep.control.l2_norm_sq() < 0.01 * u0.l2_norm_sq()


def test_accepted_costs_strictly_decrease(affine8, grid25):
    rep = train_pmp(affine8, grid25, 8, TrainConfig(beta=0.01, max_iter=60))
    acc = [r.cost for r in rep.records if r.accepted]
    assert len(acc) > 10
    assert all(a > b for a, b in zip(acc, acc[1:]))
    assert rep.final_cost.total < rep.records[0].cost


def test_rejected_sweep_restores_everything(affine8, grid25):
    cfg = TrainConfig(beta=0.01, max_iter=40, gamma0=50.0)
    rep = train_pmp(affine8, grid25, 6, cfg)
    assert any(not r.accepted for r in rep.records[1:])
    acc = [r.cost for r in rep.records if r.accepted]
    assert all(a > b for a, b in zip(acc, acc[1:]))
    gammas = [r.gamma for r in rep.records[1:]]
    assert all(a >= b for a, b in zip(gammas, gammas[1:]))


def test_deterministic(affine8, grid25):
    cfg = TrainConfig(beta=0.01, max_iter=30)
    r1 = train_pmp(affine8, grid25, 6, cfg, test_data=grid25)
    r2 = train_pmp(affine8, grid25, 6, cfg, test_data=grid25)
    assert np.array_equal(r1.control.values, r2.control.values)
    assert r1.records == r2.records


def test_maximizer_matches_dense_grid_search(rng):
    # The damped Hamiltonian is separable across control coordinates, so a
    # per-coordinate grid search pins the argmax to grid resolution.
    for _ in range(10):
        n = int(rng.integers(1, 6))
        pairing = rng.normal(scale=2.0, size=n)
        u_old = rng.normal(scale=1.0, size=n)
        gamma = float(rng.uniform(0.05, 2.0))
        beta = float(rng.uniform(0.0, 1.5))
        got = _maximized_controls(pairing, u_old, gamma, beta)
        grid = np.arange(-20.0, 20.0, 1e-3)
        for i in range(n):
            phi = (
                pairing[i] * grid
                - 0.5 * beta * grid**2
                - (grid - u_old[i]) ** 2 / (2.0 * gamma)
            )
            assert abs(got[i] - grid[np.argmax(phi)]) <= 1e-3


def test_overflowing_sweep_is_a_rejected_pass(affine8, grid25):
    cfg = TrainConfig(beta=0.0, max_iter=5, gamma0=1e160)
    rep = train_pmp(affine8, grid25, 4, cfg)
    rows = rep.records[1:]
    assert [r.iteration for r in rows] == [1, 2, 3, 4, 5]
    assert all(r.cost == np.inf and r.data_term == np.inf and not r.accepted for r in rows)
    assert [r.gamma for r in rows] == [1e160 * 0.5**k for k in range(5)]
    assert np.array_equal(rep.control.values, np.zeros((4, 8)))


def test_sweep_whose_training_row_overflows_is_a_rejected_pass(affine8, grid25):
    # The far source pairs to a huge x1-stretching control, so it overflows
    # at layer 1; the later layers pair and move its non-finite row, and the
    # check at node N rejects the sweep.
    src = np.vstack([grid25.sources, [[1e300, 0.0]]])
    data = Dataset(src, src + 0.1)
    rep = train_pmp(affine8, data, 4, TrainConfig(beta=0.0, max_iter=3))
    rows = rep.records[1:]
    assert all(r.cost == np.inf and r.data_term == np.inf and not r.accepted for r in rows)
    assert [r.gamma for r in rows] == [1.0, 0.5, 0.25]
    assert np.array_equal(rep.control.values, np.zeros((4, 8)))


def test_nan_layer_factor_is_a_rejected_pass(monkeypatch):
    # The flow is finite, but the implicit factor at the source with x1 = 0
    # is NaN, so the covector guard rejects every sweep.  The guard reads
    # only the accepted control and trajectory, so its FlowError is cached:
    # later passes re-raise it without another transport.
    pmp_module = importlib.import_module("diffeoflow.train_pmp")
    transport = pmp_module.backward_covector
    calls = []
    monkeypatch.setattr(pmp_module, "backward_covector", lambda *a, **k: calls.append(1) or transport(*a, **k))
    fam = nan_jacobian_family()
    data = Dataset(np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[2.0, 1.0], [1.0, 1.5]]))
    rep = train_pmp(fam, data, 1, TrainConfig(beta=1e-3, gamma0=2.0, max_iter=3))
    rows = rep.records[1:]
    assert np.isfinite(rep.records[0].cost)
    assert [(r.cost, r.accepted, r.gamma) for r in rows] == [(np.inf, False, 2.0 * 0.5**k) for k in range(3)]
    assert np.array_equal(rep.control.values, np.zeros((1, 1)))
    assert len(calls) == 1


def test_argument_validation(affine8, grid25):
    with pytest.raises(ValueError):
        train_pmp(affine8, grid25, 0, TrainConfig(beta=0.1))


def test_matches_gradient_trainer_on_translation(rng):
    from diffeoflow import train_gradient_flow

    fam = shift_family()
    src = rng.uniform(-1, 1, size=(10, 2))
    data = Dataset(src, src + np.array([0.6, -0.3]))
    cfg = TrainConfig(beta=0.01, max_iter=150)
    rep_p = train_pmp(fam, data, 4, cfg)
    rep_g = train_gradient_flow(fam, data, 4, cfg)
    assert abs(rep_p.final_cost.total - rep_g.final_cost.total) < 5e-3


def test_sweep_proposals_keep_the_layer_major_layout(affine8, grid25, monkeypatch):
    # The package re-exports the trainers under their module names.
    pmp_module = importlib.import_module("diffeoflow.train_pmp")
    descend = importlib.import_module("diffeoflow.train_gd")._descend
    seen = []

    def recording_descend(family, data, n_layers, cfg, init, test_data, prepare, propose):
        def prepared(u, states):
            seen.append(states)
            return prepare(u, states)

        def recorded(*call):
            result = propose(*call)
            seen.append(result[1])
            return result

        return descend(family, data, n_layers, cfg, init, test_data, prepared, recorded)

    monkeypatch.setattr(pmp_module, "_descend", recording_descend)
    rep = train_pmp(affine8, grid25, 6, TrainConfig(beta=0.01, max_iter=5))
    accepted = sum(r.accepted for r in rep.records[1:-1])
    assert len(seen) == 5 + 1 + accepted and accepted
    for bundle in seen:
        assert bundle.shape == (25, 7, 2)
        assert rows_are_contiguous(bundle)


def test_the_sweep_rule_reads_every_row_in_one_block(affine8, grid25, monkeypatch):
    # Row blocks apply to the per-sample default rule only: the maximizer
    # pairs over all training rows, with the held-out rows below them.
    pmp_module = importlib.import_module("diffeoflow.train_pmp")
    flow_module = importlib.import_module("diffeoflow.flow")
    monkeypatch.setattr(flow_module, "_BLOCK_ROWS", 7)
    seen = []

    def recording_euler(family, u, sources, keep, row, **kwargs):
        return flow_module._euler(family, u, sources, keep, lambda k, x: seen.append(len(x)) or row(k, x), **kwargs)

    monkeypatch.setattr(pmp_module, "_euler", recording_euler)
    held = Dataset(np.linspace(-0.6, 0.6, 8)[:, None] * [[1.0, 0.5]], np.zeros((8, 2)))
    train_pmp(affine8, grid25, 4, TrainConfig(beta=0.01, max_iter=2), test_data=held)
    assert seen == 2 * 4 * [25 + 8]


def test_sweep_covectors_are_coordinate_major(affine8, grid25, monkeypatch):
    # The cached covectors, the penalty gradients and the targets share the
    # trajectory's layout, so the covector paired at each node has contiguous
    # coordinate columns.
    dense_sweep, seen = VectorFieldFamily._sweep, []

    def spied(family, shape):
        sweep = dense_sweep(family, shape)
        pair = sweep.pair
        sweep.pair = lambda lam, out: seen.append(lam) or pair(lam, out)
        return sweep

    monkeypatch.setattr(VectorFieldFamily, "_sweep", spied)
    train_pmp(affine8, grid25, 6, TrainConfig(beta=0.01, max_iter=3))
    assert len(seen) == 3 * 6
    assert all(lam[:, d].flags.c_contiguous for lam in seen for d in range(2))


@pytest.mark.parametrize("kind", ["affine8", "enriched14"])
@pytest.mark.parametrize("grid", ["grid25", "grid900"])
@pytest.mark.parametrize("n_layers", [4, 16])
def test_sweep_is_the_dense_reference_sweep_bit_for_bit(kind, grid, n_layers, request):
    family, data = request.getfixturevalue(kind), request.getfixturevalue(grid)
    cfg = TrainConfig(beta=0.01, max_iter=12, gamma0=40.0)
    rep = train_pmp(family, data, n_layers, cfg)
    ref = reference_pmp(family, data, n_layers, cfg)
    rows = [(r.cost, r.data_term, r.gamma, r.accepted) for r in rep.records]
    assert rows == [(r.cost, r.data_term, r.gamma, r.accepted) for r in ref.records]
    assert any(r.accepted for r in rep.records[1:]) and not all(r.accepted for r in rep.records)
    assert np.array_equal(rep.control.values, ref.control.values)
    assert rep.final_cost == ref.final_cost


def test_penalty_gradients_are_computed_once_per_accepted_control(affine8, grid25, monkeypatch):
    pmp_module = importlib.import_module("diffeoflow.train_pmp")
    calls = {"loss_grad": 0, "backward_covector": 0, "_penalty_gradients": 0}

    def counted(name):
        original = getattr(pmp_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(pmp_module, name, counted(name))
    n_layers, passes = 6, 10
    rep = train_pmp(affine8, grid25, n_layers, TrainConfig(beta=0.01, max_iter=passes, gamma0=40.0))
    rows = rep.records[1:]
    assert all(np.isfinite(r.cost) for r in rows)
    assert any(not r.accepted for r in rows[:-1]) and any(r.accepted for r in rows[:-1])
    # The cache is filled for the initial control and after every accepted
    # pass that another pass follows.
    transports = 1 + sum(r.accepted for r in rows[:-1])
    assert calls["backward_covector"] == transports
    # Every fill computes the penalty gradients over the accepted trajectory
    # once, after the transport.  Every pass evaluates the N swept nodes, and
    # every fill adds one call at the last node for the terminal covector.
    assert calls["_penalty_gradients"] == transports
    assert calls["loss_grad"] == passes * n_layers + transports


def test_penalty_gradients_in_the_workspace_are_loss_grads_bits(rng):
    # Three fills of one workspace; the last overflows |z|^2 on one sample,
    # which takes loss_grad's own path.  Each sample of the second sits on
    # its target at node 0, a residual of +0.0.
    workspace = {}
    for scale in (1.0, 1.0, 1e200):
        states = np.empty((7, 2, 50)).transpose(2, 0, 1)
        states[...] = rng.normal(size=(50, 7, 2))
        states[0, 3] *= scale
        targets = rng.normal(size=(50, 2))
        if scale == 1.0 and "penalties" in workspace:
            targets = states[:, 0].copy()
        with np.errstate(over="ignore", invalid="ignore"):
            got = _penalty_gradients(states, targets, workspace)
            want = loss_grad(states - targets[:, None])
        assert np.shares_memory(got, workspace["penalties"])
        assert rows_are_contiguous(got)
        assert_same_bits(got, want)
