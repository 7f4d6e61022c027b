"""Backtracking gradient-descent trainer behavior."""

import numpy as np
import pytest

import diffeoflow.train_gd as train_gd_module
from diffeoflow import (
    ControlGrid,
    FieldSpec,
    TrainAbort,
    TrainConfig,
    cost,
    make_custom,
    train_gradient_flow,
    train_pmp,
)
from diffeoflow.objective import Dataset


def shift_family():
    """Two constant fields: the flow endpoint is x plus the mean control."""
    e1 = FieldSpec(
        value=lambda x: np.broadcast_to(np.array([1.0, 0.0]), x.shape).copy(),
        jacobian=lambda x: np.zeros(x.shape[:-1] + (2, 2)),
    )
    e2 = FieldSpec(
        value=lambda x: np.broadcast_to(np.array([0.0, 1.0]), x.shape).copy(),
        jacobian=lambda x: np.zeros(x.shape[:-1] + (2, 2)),
    )
    return make_custom([e1, e2], dim=2)


def shift_dataset(rng, m=12, shift=(0.8, -0.5)):
    src = rng.uniform(-1, 1, size=(m, 2))
    return Dataset(src, src + np.asarray(shift))


def test_zero_iterations_returns_initial_state(affine8, grid25):
    rep = train_gradient_flow(affine8, grid25, 8, TrainConfig(beta=0.1, max_iter=0))
    assert len(rep.records) == 1
    assert rep.records[0].iteration == 0
    assert rep.records[0].accepted
    assert np.array_equal(rep.control.values, np.zeros((8, 8)))
    assert np.isclose(rep.final_cost.total, cost(affine8, rep.control, grid25, 0.1).total)
    assert np.isnan(rep.records[0].testing_error)


def test_solves_pure_translation_problem(rng):
    fam = shift_family()
    data = shift_dataset(rng)
    rep = train_gradient_flow(fam, data, 4, TrainConfig(beta=0.0, max_iter=200))
    assert rep.final_cost.total < 1e-3
    # The minimizer shifts every slab by the same target offset.
    assert np.allclose(rep.control.values.mean(axis=0), [0.8, -0.5], atol=0.05)


def test_accepted_costs_are_nonincreasing(affine8, grid25):
    rep = train_gradient_flow(affine8, grid25, 8, TrainConfig(beta=0.01, max_iter=80))
    acc = rep.accepted_costs
    assert len(acc) > 10
    assert all(a >= b for a, b in zip(acc, acc[1:]))


def test_final_energy_bounded_by_initial_cost(affine8, grid25):
    for beta in (1.0, 1e-3):
        rep = train_gradient_flow(affine8, grid25, 8, TrainConfig(beta=beta, max_iter=60))
        initial = rep.records[0].cost
        assert rep.final_cost.reg_term <= initial + 1e-12
        assert rep.final_cost.total <= initial + 1e-12


def test_gamma_never_grows(affine8, grid25):
    rep = train_gradient_flow(affine8, grid25, 8, TrainConfig(beta=0.01, max_iter=60, gamma0=64.0))
    gammas = [r.gamma for r in rep.records[1:]]
    assert all(a >= b for a, b in zip(gammas, gammas[1:]))
    assert any(not r.accepted for r in rep.records), "expected some backtracking at gamma0=64"
    assert gammas[-1] < 64.0


def test_rejected_rows_leave_control_unchanged(affine8, grid25):
    cfg = TrainConfig(beta=0.01, max_iter=30, gamma0=1e4)
    rep = train_gradient_flow(affine8, grid25, 6, cfg)
    rejected = [r for r in rep.records[1:] if not r.accepted]
    assert rejected, "expected rejections with a huge initial step"
    # Costs on rejected rows describe the failed proposal, not the iterate,
    # so they may exceed the running cost; the accepted subsequence may not.
    acc = rep.accepted_costs
    assert all(a >= b for a, b in zip(acc, acc[1:]))


@pytest.mark.parametrize(
    "trainer, gamma0", [(train_gradient_flow, 1e4), (train_pmp, 50.0)], ids=["gd", "pmp"]
)
def test_shared_loop_flows_test_cloud_only_for_accepted_controls(
    trainer, gamma0, affine8, grid25, testset300, monkeypatch
):
    flowed = []
    real = train_gd_module.forward_euler

    def counting(family, u, sources):
        if sources is testset300.sources:
            flowed.append(u)
        return real(family, u, sources)

    monkeypatch.setattr(train_gd_module, "forward_euler", counting)
    cfg = TrainConfig(beta=0.01, max_iter=30, gamma0=gamma0)
    rep = trainer(affine8, grid25, 6, cfg, test_data=testset300)
    rows = rep.records[1:]
    assert any(r.accepted for r in rows) and any(not r.accepted for r in rows)
    assert len(flowed) == 1 + sum(r.accepted for r in rows)
    for prev, row in zip(rep.records, rows):
        if not row.accepted:
            assert row.testing_error == prev.testing_error


def test_deterministic_given_seed(affine8, grid25):
    cfg = TrainConfig(beta=0.01, max_iter=40, batch_size=10, seed=7)
    r1 = train_gradient_flow(affine8, grid25, 6, cfg, test_data=grid25)
    r2 = train_gradient_flow(affine8, grid25, 6, cfg, test_data=grid25)
    assert np.array_equal(r1.control.values, r2.control.values)
    assert r1.records == r2.records
    r3 = train_gradient_flow(affine8, grid25, 6, TrainConfig(beta=0.01, max_iter=40, batch_size=10, seed=8))
    assert not np.array_equal(r1.control.values, r3.control.values)


def test_minibatch_final_cost_uses_full_dataset(affine8, grid25):
    cfg = TrainConfig(beta=0.05, max_iter=50, batch_size=5, seed=3)
    rep = train_gradient_flow(affine8, grid25, 6, cfg, test_data=grid25)
    full = cost(affine8, rep.control, grid25, 0.05)
    assert np.isclose(rep.final_cost.total, full.total, rtol=1e-14)
    assert np.isfinite(rep.records[-1].testing_error)


def test_custom_init_control_is_used(affine8, grid25, rng):
    init = ControlGrid(rng.normal(scale=0.2, size=(6, 8)))
    rep = train_gradient_flow(affine8, grid25, 6, TrainConfig(beta=0.1, max_iter=0), init=init)
    assert np.isclose(rep.records[0].cost, cost(affine8, init, grid25, 0.1).total)


def test_trapezoid_method_also_descends(affine8, grid25):
    cfg = TrainConfig(beta=0.01, max_iter=60, gradient_method="trapezoid")
    rep = train_gradient_flow(affine8, grid25, 8, cfg)
    acc = rep.accepted_costs
    assert all(a >= b for a, b in zip(acc, acc[1:]))
    assert rep.final_cost.total < rep.records[0].cost


def test_flow_failure_becomes_train_abort(affine8, grid25):
    cfg = TrainConfig(beta=0.0, max_iter=5, gamma0=1e160)
    with np.errstate(over="ignore"), pytest.raises(TrainAbort) as err:
        train_gradient_flow(affine8, grid25, 4, cfg)
    assert err.value.report.records
    assert err.value.cause.layer is not None


def test_argument_validation(affine8, grid25, rng):
    with pytest.raises(ValueError):
        train_gradient_flow(affine8, grid25, 0, TrainConfig(beta=0.1))
    with pytest.raises(ValueError):
        train_gradient_flow(affine8, grid25, 4, TrainConfig(beta=0.1, batch_size=26))
    with pytest.raises(ValueError):
        bad_init = ControlGrid(rng.normal(size=(3, 8)))
        train_gradient_flow(affine8, grid25, 4, TrainConfig(beta=0.1), init=bad_init)
    one_d = Dataset(np.array([[0.0], [1.0]]), np.array([[0.5], [1.5]]))
    with pytest.raises(ValueError):
        train_gradient_flow(affine8, one_d, 4, TrainConfig(beta=0.1))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"beta": -1.0},
        {"beta": 0.1, "max_iter": -1},
        {"beta": 0.1, "gamma0": 0.0},
        {"beta": 0.1, "tau": 1.0},
        {"beta": 0.1, "tau": 0.0},
        {"beta": 0.1, "c": 0.0},
        {"beta": 0.1, "c": 1.5},
        {"beta": 0.1, "batch_size": 0},
        {"beta": 0.1, "gradient_method": "simpson"},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)
