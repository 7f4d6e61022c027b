"""Backtracking gradient-descent trainer behavior."""

import numpy as np
import pytest

import diffeoflow.objective as objective_module
import diffeoflow.train_gd as train_gd_module
from diffeoflow import (
    ControlGrid,
    FieldSpec,
    TrainAbort,
    TrainConfig,
    cost,
    forward_euler,
    make_custom,
    make_grid_dataset,
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
    acc = [r.cost for r in rep.records if r.accepted]
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
    acc = [r.cost for r in rep.records if r.accepted]
    assert all(a >= b for a, b in zip(acc, acc[1:]))


@pytest.mark.parametrize(
    "trainer, gamma0", [(train_gradient_flow, 1e4), (train_pmp, 50.0)], ids=["gd", "pmp"]
)
def test_shared_loop_flows_test_cloud_only_for_accepted_controls(
    trainer, gamma0, affine8, grid25, testset300, monkeypatch
):
    flowed = []
    real = train_gd_module.flow_endpoints

    def counting(family, u, sources):
        if sources is testset300.sources:
            flowed.append(u)
        return real(family, u, sources)

    monkeypatch.setattr(train_gd_module, "flow_endpoints", counting)
    cfg = TrainConfig(beta=0.01, max_iter=30, gamma0=gamma0)
    rep = trainer(affine8, grid25, 6, cfg, test_data=testset300)
    rows = rep.records[1:]
    assert any(r.accepted for r in rows) and any(not r.accepted for r in rows)
    assert len(flowed) == 1 + sum(r.accepted for r in rows)
    for prev, row in zip(rep.records, rows):
        if not row.accepted:
            assert row.testing_error == prev.testing_error


@pytest.mark.parametrize("kind", ["affine8", "enriched14"])
@pytest.mark.parametrize(
    "trainer, gamma0", [(train_gradient_flow, 1e4), (train_pmp, 50.0)], ids=["gd", "pmp"]
)
def test_final_cost_is_the_cost_of_the_final_control_exactly(trainer, gamma0, kind, grid25, request):
    family = request.getfixturevalue(kind)
    rep = trainer(family, grid25, 6, TrainConfig(beta=0.01, max_iter=30, gamma0=gamma0))
    assert any(r.accepted for r in rep.records[1:])
    assert rep.final_cost == cost(family, rep.control, grid25, 0.01)


@pytest.mark.parametrize("kind", ["affine8", "enriched14"])
@pytest.mark.parametrize(
    "trainer, gamma0", [(train_gradient_flow, 100.0), (train_pmp, 40.0)], ids=["gd", "pmp"]
)
def test_final_states_are_the_forward_flow_of_the_final_control(trainer, gamma0, kind, target, request):
    family = request.getfixturevalue(kind)
    data = make_grid_dataset(target, side=1.5, per_axis=6)
    rep = trainer(family, data, 5, TrainConfig(beta=0.01, max_iter=8, gamma0=gamma0))
    # The states must be those of the last accepted control, not of the rejected last proposal.
    rows = rep.records[1:]
    assert any(r.accepted for r in rows) and not rows[-1].accepted
    flowed = forward_euler(family, rep.control, data.sources)
    assert np.array_equal(rep.states.view(np.int64), flowed.view(np.int64))


def test_custom_init_control_is_used(affine8, grid25, rng):
    init = ControlGrid(rng.normal(scale=0.2, size=(6, 8)))
    rep = train_gradient_flow(affine8, grid25, 6, TrainConfig(beta=0.1, max_iter=0), init=init)
    assert np.isclose(rep.records[0].cost, cost(affine8, init, grid25, 0.1).total)


def test_overflowing_proposal_is_a_rejected_pass(affine8, grid25):
    cfg = TrainConfig(beta=0.0, max_iter=5, gamma0=1e160)
    rep = train_gradient_flow(affine8, grid25, 4, cfg)
    rows = rep.records[1:]
    assert [r.iteration for r in rows] == [1, 2, 3, 4, 5]
    assert all(r.cost == np.inf and r.data_term == np.inf and not r.accepted for r in rows)
    assert [r.gamma for r in rows] == [1e160 * 0.5**k for k in range(5)]
    assert np.array_equal(rep.control.values, np.zeros((4, 8)))
    assert rep.final_cost.total == rep.records[0].cost


def dilation_family():
    """One field F(x) = x: every layer scales all points by one factor."""
    return make_custom(
        [FieldSpec(value=np.array, jacobian=lambda x: np.broadcast_to(np.eye(2), x.shape + (2,)).copy())],
        dim=2,
    )


@pytest.mark.parametrize("trainer", [train_gradient_flow, train_pmp])
def test_test_cloud_overflow_aborts_with_the_partial_report(trainer, rng):
    # The first accepted pass dilates the plane, which carries the far test
    # point past the largest float; the training cloud stays finite.
    src = rng.uniform(-1, 1, size=(12, 2))
    far = np.array([[1.7e308, 0.0], [0.5, 0.5]])
    with pytest.raises(TrainAbort, match="training pass 1") as err:
        trainer(dilation_family(), Dataset(src, 2.0 * src), 4, TrainConfig(beta=0.0, max_iter=5),
                test_data=Dataset(far, far))
    assert (err.value.sample, err.value.layer) == (0, 1)
    # The partial report ends at the last recorded control, the initial one.
    assert [r.iteration for r in err.value.report.records] == [0]
    assert np.array_equal(err.value.report.control.values, np.zeros((4, 1)))
    assert err.value.report.final_cost.total == err.value.report.records[0].cost


@pytest.mark.parametrize("trainer", [train_gradient_flow, train_pmp])
def test_abort_reports_the_last_accepted_cost_without_flowing_again(trainer, rng, monkeypatch):
    # The far test point survives the first accepted control (it dilates by
    # at most 1.68) and overflows under the second (by at least 2.1).
    flowed = []
    real = objective_module.flow_endpoints

    def counting(family, u, sources):
        flowed.append(u)
        return real(family, u, sources)

    monkeypatch.setattr(objective_module, "flow_endpoints", counting)
    src = rng.uniform(-1, 1, size=(12, 2))
    far = np.array([[1e308, 0.0], [0.5, 0.5]])
    with pytest.raises(TrainAbort, match="training pass 2") as err:
        trainer(dilation_family(), Dataset(src, 2.0 * src), 4, TrainConfig(beta=0.0, max_iter=5),
                test_data=Dataset(far, far))
    report = err.value.report
    assert [(r.iteration, r.accepted) for r in report.records] == [(0, True), (1, True)]
    assert report.final_cost.total == report.records[-1].cost
    assert report.final_cost.data_term == report.records[-1].data_term
    assert flowed == []


@pytest.mark.parametrize("trainer", [train_gradient_flow, train_pmp])
def test_initial_flow_overflow_aborts_at_pass_0(trainer, enriched14, grid25):
    # |x|^2 overflows at the far source, where the quadratic fields are inf * 0.
    far = Dataset(np.vstack([grid25.sources, [[1e200, 0.0]]]), np.vstack([grid25.targets, [[0.0, 0.0]]]))
    cfg = TrainConfig(beta=0.1, max_iter=3)
    with pytest.raises(TrainAbort, match="training pass 0: non-finite state for sample 25 at layer 1") as err:
        trainer(enriched14, far, 4, cfg)
    assert err.value.report.records == [] and err.value.report.final_cost.total == np.inf
    with pytest.raises(TrainAbort, match="training pass 0") as err:
        trainer(enriched14, grid25, 4, cfg, test_data=far)
    assert err.value.report.records == [] and np.isfinite(err.value.report.final_cost.total)


def test_argument_validation(affine8, grid25, rng):
    with pytest.raises(ValueError):
        train_gradient_flow(affine8, grid25, 0, TrainConfig(beta=0.1))
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
        {"beta": 0.1, "gamma0": float("inf")},
        {"beta": 0.1, "gamma0": float("nan")},
        {"beta": 0.1, "tau": 1.0},
        {"beta": 0.1, "tau": 0.0},
        {"beta": 0.1, "c": 0.0},
        {"beta": 0.1, "c": 1.5},
    ],
)
def test_config_validation(kwargs):
    field = list(kwargs)[-1]  # the one invalid value
    with pytest.raises(ValueError, match=f"^{field}: "):
        TrainConfig(**kwargs)
