"""Backtracking gradient-descent trainer behavior, and the loop both trainers share."""

import importlib
import tracemalloc
import weakref

import numpy as np
import pytest

import diffeoflow.objective as objective_module
import diffeoflow.train_gd as train_gd_module
from diffeoflow import (
    ControlGrid,
    CustomFamily,
    FieldSpec,
    FlowError,
    TrainAbort,
    TrainConfig,
    cost,
    flow_endpoints,
    forward_euler,
    make_grid_dataset,
    make_random_testset,
    train_gradient_flow,
    train_pmp,
)
from diffeoflow.objective import Dataset, control_gradient, cost_of_endpoints, mean_loss

from oracle import shift_family

# The package's ``train_pmp`` attribute is the trainer, so fetch the module by name.
train_pmp_module = importlib.import_module("diffeoflow.train_pmp")


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


def spy_on_proposals(monkeypatch, on_call, before=lambda call: None, on_prepare=lambda call, out: None):
    """Make both trainers' shared loop call ``before(args)`` and ``on_call(args, out)`` around each ``propose``.

    ``args`` is ``(u, prepared, current, gamma, sources)`` and ``out`` what
    ``propose`` returned, or None when it raised a FlowError.  Each
    ``prepare`` call reports its ``(u, states)`` and result to ``on_prepare``.
    """
    real = train_gd_module._descend

    def spying(*args):
        *rest, prepare, propose = args

        def prepared(*call):
            out = prepare(*call)
            on_prepare(call, out)
            return out

        def recorded(*call):
            before(call)
            try:
                out = propose(*call)
            except FlowError:
                on_call(call, None)
                raise
            on_call(call, out)
            return out

        return real(*rest, prepared, recorded)

    for module in (train_gd_module, train_pmp_module):
        monkeypatch.setattr(module, "_descend", spying)


@pytest.mark.parametrize(
    "trainer, gamma0", [(train_gradient_flow, 1e4), (train_pmp, 50.0)], ids=["gd", "pmp"]
)
def test_shared_loop_flows_test_cloud_only_for_accepted_controls(
    trainer, gamma0, affine8, grid25, testset300, monkeypatch
):
    # The held-out rows ride in every proposal's bundle, but only an accepted
    # proposal's are read: its testing error is that of flowing the test
    # cloud alone under its control, bit for bit, and a rejected row repeats
    # the error of the unchanged control.
    proposals = []
    spy_on_proposals(monkeypatch, lambda call, out: proposals.append(None if out is None else out[0]))
    cfg = TrainConfig(beta=0.01, max_iter=30, gamma0=gamma0)
    rep = trainer(affine8, grid25, 6, cfg, test_data=testset300)
    rows = rep.records[1:]
    assert any(r.accepted for r in rows) and any(not r.accepted for r in rows)
    assert len(proposals) == len(rows)

    def alone(u):
        return mean_loss(flow_endpoints(affine8, u, testset300.sources), testset300.targets)

    expected = alone(ControlGrid.zeros(6, 8))
    assert rep.records[0].testing_error == expected
    for row, proposal in zip(rows, proposals):
        if row.accepted:
            expected = alone(proposal)
        assert row.testing_error == expected


@pytest.mark.parametrize(
    "trainer, gamma0", [(train_gradient_flow, 1e4), (train_pmp, 50.0)], ids=["gd", "pmp"]
)
def test_rejected_trajectory_is_freed_before_the_next_proposal(
    trainer, gamma0, affine8, grid25, testset300, monkeypatch
):
    # A rejected proposal's bundle must not stay alive while the next one is
    # built, or three (N+1)-node trajectories are held at the peak.
    rejected = []

    def on_call(call, out):
        if out is not None and not out[3]:
            rejected.append(weakref.ref(out[1].base))

    def before(call):
        assert all(ref() is None for ref in rejected)

    spy_on_proposals(monkeypatch, on_call, before)
    rep = trainer(affine8, grid25, 6, TrainConfig(beta=0.01, max_iter=30, gamma0=gamma0),
                  test_data=testset300)
    assert rejected and any(r.accepted for r in rep.records[1:])


@pytest.mark.parametrize(
    "trainer, gamma0", [(train_gradient_flow, 1e4), (train_pmp, 50.0)], ids=["gd", "pmp"]
)
def test_accepted_trajectory_is_freed_once_prepared(trainer, gamma0, affine8, grid25, testset300, monkeypatch):
    # The loop reads an accepted bundle once, in ``prepare``, and drops it
    # before the next proposal is flowed, so one trajectory is held at a time.
    accepted = []

    def on_call(call, out):
        if out is not None and out[3]:
            accepted.append(weakref.ref(out[1].base))

    def before(call):
        assert all(ref() is None for ref in accepted)

    spy_on_proposals(monkeypatch, on_call, before)
    rep = trainer(affine8, grid25, 6, TrainConfig(beta=0.01, max_iter=30, gamma0=gamma0),
                  test_data=testset300)
    assert len(accepted) > 1 and any(not r.accepted for r in rep.records[1:])


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
def test_prepared_states_are_the_forward_flow_of_the_accepted_control(
    trainer, gamma0, kind, target, request, monkeypatch
):
    family = request.getfixturevalue(kind)
    data = make_grid_dataset(target, side=1.5, per_axis=6)
    prepared = []
    spy_on_proposals(monkeypatch, lambda call, out: None, on_prepare=lambda call, out: prepared.append(call))
    rep = trainer(family, data, 5, TrainConfig(beta=0.01, max_iter=8, gamma0=gamma0))
    # Each prepared trajectory is that of the control accepted last, not of
    # a rejected proposal; it is read once, at the first pass after acceptance.
    rows = rep.records[1:]
    assert any(r.accepted for r in rows) and not rows[-1].accepted
    assert len(prepared) == 1 + sum(r.accepted for r in rows[:-1])
    assert prepared[-1][0] is rep.control
    for u, states in prepared:
        flowed = forward_euler(family, u, data.sources)
        assert np.array_equal(states.view(np.int64), flowed.view(np.int64))


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
    return CustomFamily(
        [FieldSpec(value=np.array, jacobian=lambda x: np.broadcast_to(np.eye(2), x.shape + (2,)).copy())]
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


@pytest.mark.parametrize("start", ["initial flow", "accepted pass"])
def test_held_out_overflow_names_its_own_sample_and_first_layer(start, rng):
    # With the control 1 on every layer of the dilation field, each layer
    # scales the plane by 1.25: sample 1 (1.2e308) first overflows at layer
    # 2, sample 2 (1e308) only at layer 3, and sample 0 never.
    family, dilating = dilation_family(), ControlGrid(np.ones((4, 1)))
    src = rng.uniform(-1, 1, size=(12, 2))
    held = np.array([[0.5, 0.5], [1.2e308, 0.0], [1e308, 0.0]])
    data, test = Dataset(src, 2.0 * src), Dataset(held, held)
    cfg = TrainConfig(beta=0.0, max_iter=3)
    if start == "initial flow":
        with pytest.raises(TrainAbort, match="training pass 0: non-finite state for sample 1 at layer 2") as err:
            train_gradient_flow(family, data, 4, cfg, init=dilating, test_data=test)
        assert err.value.report.records == [] and np.isfinite(err.value.report.final_cost.total)
    else:
        def propose(u, prepared, current, gamma, sources):
            states_new = forward_euler(family, dilating, sources, checked=12)
            return dilating, states_new, cost_of_endpoints(states_new[:12, -1], data.targets, dilating, 0.0), True

        with pytest.raises(TrainAbort, match="training pass 1: non-finite state for sample 1 at layer 2") as err:
            train_gd_module._descend(family, data, 4, cfg, None, test, lambda u, states: None, propose)
        report = err.value.report
        assert [r.iteration for r in report.records] == [0]
        assert np.array_equal(report.control.values, np.zeros((4, 1)))
    assert (err.value.sample, err.value.layer) == (1, 2)


@pytest.mark.parametrize("trainer", [train_gradient_flow, train_pmp])
def test_held_out_overflow_under_a_rejected_proposal_does_not_abort(trainer, rng, monkeypatch):
    # At gamma0 8 the first gd proposal dilates the plane about 21-fold and
    # the third pmp proposal about 15-fold; both are rejected, and the
    # accepted ones stay below 3.  So the far held-out point overflows only
    # in rejected bundles.
    src = rng.uniform(-1, 1, size=(12, 2))
    far = np.array([[0.5, 0.5], [1.5e307, 0.0]])
    outcomes = []
    spy_on_proposals(
        monkeypatch,
        lambda call, out: out is None or outcomes.append((bool(out[3]), bool(np.isfinite(out[1][12:]).all()))),
    )
    rep = trainer(dilation_family(), Dataset(src, 2.0 * src), 4, TrainConfig(beta=0.0, max_iter=6, gamma0=8.0),
                  test_data=Dataset(far, far))
    assert (False, False) in outcomes and (True, True) in outcomes
    assert all(held_finite for accepted, held_finite in outcomes if accepted)
    assert len(rep.records) == 7 and np.isfinite([r.testing_error for r in rep.records]).all()


@pytest.mark.parametrize("kind", ["affine8", "enriched14"])
def test_stacked_flow_is_the_separate_flows_bit_for_bit(kind, request):
    family = request.getfixturevalue(kind)
    rng = np.random.Generator(np.random.Philox(22))
    train, test = (
        Dataset(rng.uniform(-1.5, 1.5, size=(m, 2)), rng.uniform(-1.5, 1.5, size=(m, 2)))
        for m in (900, 300)
    )
    u = ControlGrid(rng.normal(scale=0.5, size=(16, family.n_fields)))
    n = train.n_samples
    stacked = forward_euler(family, u, np.concatenate([train.sources, test.sources]), checked=n)
    alone = forward_euler(family, u, train.sources)
    assert np.array_equal(stacked[:n].view(np.int64), alone.view(np.int64))
    assert cost_of_endpoints(stacked[:n, -1], train.targets, u, 0.01) == cost_of_endpoints(
        alone[:, -1], train.targets, u, 0.01
    )
    grads = [control_gradient(family, u, states, train.targets, 0.01) for states in (stacked[:n], alone)]
    assert np.array_equal(grads[0].view(np.int64), grads[1].view(np.int64))
    assert mean_loss(stacked[n:, -1], test.targets) == mean_loss(
        flow_endpoints(family, u, test.sources), test.targets
    )


@pytest.mark.parametrize("kind", ["affine8", "enriched14"])
@pytest.mark.parametrize(
    "trainer, gamma0", [(train_gradient_flow, 1e4), (train_pmp, 50.0)], ids=["gd", "pmp"]
)
def test_held_out_cloud_leaves_the_training_bit_for_bit(trainer, gamma0, kind, grid25, testset300, request):
    family = request.getfixturevalue(kind)
    cfg = TrainConfig(beta=0.01, max_iter=30, gamma0=gamma0)
    with_test = trainer(family, grid25, 6, cfg, test_data=testset300)
    alone = trainer(family, grid25, 6, cfg)
    strip = [(r.cost, r.data_term, r.gamma, r.accepted) for r in with_test.records]
    assert strip == [(r.cost, r.data_term, r.gamma, r.accepted) for r in alone.records]
    assert np.array_equal(with_test.control.values.view(np.int64), alone.control.values.view(np.int64))
    assert with_test.final_cost == alone.final_cost


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
    for n_layers in (0, 2.5, 4.0):
        with pytest.raises(ValueError, match="^n_layers: "):
            train_gradient_flow(affine8, grid25, n_layers, TrainConfig(beta=0.1))
    # Numpy integers are integers.
    rep = train_gradient_flow(affine8, grid25, np.int64(2), TrainConfig(beta=0.1, max_iter=np.int32(1)))
    assert len(rep.records) == 2
    with pytest.raises(ValueError):
        bad_init = ControlGrid(rng.normal(size=(3, 8)))
        train_gradient_flow(affine8, grid25, 4, TrainConfig(beta=0.1), init=bad_init)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"beta": -1.0},
        {"beta": 0.1, "max_iter": -1},
        {"beta": 0.1, "max_iter": 2.5},
        {"beta": 0.1, "max_iter": 3.0},
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


@pytest.mark.parametrize(
    "trainer, bound", [(train_gradient_flow, 1.75), (train_pmp, 5.65)], ids=["gd", "pmp"]
)
def test_peak_traced_memory_in_stacked_trajectories(trainer, bound, affine8, target):
    # gamma0 64 makes the early passes rejections, and a later acceptance is
    # followed by more passes, so the loop reads an accepted trajectory anew.
    # The gradient flow holds one (M + M_test, N+1, 2) bundle at a time and
    # the run's (N, M + M_test) buffer of Gaussian weights, about half a
    # bundle (1.65 bundles at the peak; 1.15 without the buffer, 2.65 if the
    # accepted bundle outlives its reading).  The sweep peaks in the covector transport of the accepted
    # trajectory (5.25: it, the run's workspace of factors, covectors and
    # penalties, and one (N, M) array of the screen; 6.99 when every
    # transport made its own buffers), and keeps the penalties and covectors
    # for its passes.
    train = make_grid_dataset(target, side=1.5, per_axis=60)
    test = make_random_testset(target, side=1.5, count=400, seed=0)
    n_layers = 64
    bundle = (train.n_samples + test.n_samples) * (n_layers + 1) * 2 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = trainer(affine8, train, n_layers, TrainConfig(beta=1e-3, max_iter=6, gamma0=64.0), test_data=test)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    accepted = [r.accepted for r in rep.records[1:]]
    assert not accepted[0] and any(accepted[:-1])
    assert peak < bound * bundle, peak / bundle
