"""Maximum-principle trainer: sweep updates, acceptance, closed-form maximizer."""

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
from diffeoflow.flow import _check_finite, backward_covector
from diffeoflow.objective import Dataset, cost_of_endpoints, loss_grad
from diffeoflow.train_gd import _descend
from diffeoflow.train_pmp import _maximized_controls

from test_flow import nan_jacobian_family
from test_train_gd import shift_family


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


def test_nan_layer_factor_is_a_rejected_pass(monkeypatch):
    # The flow is finite, but the implicit factor at the source with x1 = 0
    # is NaN, so the covector guard rejects every sweep.  The guard reads
    # only the accepted control and trajectory, so its FlowError is cached:
    # later passes re-raise it without another transport.
    pmp_module = importlib.import_module("diffeoflow.train_pmp")
    transport = pmp_module.backward_covector
    calls = []
    monkeypatch.setattr(pmp_module, "backward_covector", lambda *a: calls.append(1) or transport(*a))
    fam = nan_jacobian_family(2)
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
    one_d = Dataset(np.array([[0.0], [1.0]]), np.array([[0.5], [1.5]]))
    with pytest.raises(ValueError):
        train_pmp(affine8, one_d, 4, TrainConfig(beta=0.1))


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

    def recording_descend(family, data, n_layers, cfg, init, test_data, propose):
        def recorded(u, states, current, gamma):
            result = propose(u, states, current, gamma)
            seen.append((states, result[1]))
            return result

        return descend(family, data, n_layers, cfg, init, test_data, recorded)

    monkeypatch.setattr(pmp_module, "_descend", recording_descend)
    rep = train_pmp(affine8, grid25, 6, TrainConfig(beta=0.01, max_iter=5))
    assert len(seen) == 5 and any(r.accepted for r in rep.records[1:])
    for accepted, proposal in seen:
        for bundle in (accepted, proposal):
            assert bundle.shape == (25, 7, 2)
            assert all(bundle[:, k, d].flags.c_contiguous for k in range(7) for d in range(2))


def test_sweep_covectors_are_coordinate_major(affine8, grid25, monkeypatch):
    # The cached covectors, the penalty gradients and the targets share the
    # trajectory's layout, so the covector paired at each node has contiguous
    # coordinate columns.
    pairing = VectorFieldFamily.pairing
    seen = []
    monkeypatch.setattr(VectorFieldFamily, "pairing", lambda f, x, lam: seen.append(lam) or pairing(f, x, lam))
    train_pmp(affine8, grid25, 6, TrainConfig(beta=0.01, max_iter=3))
    assert len(seen) == 3 * 6
    assert all(lam[:, d].flags.c_contiguous for lam in seen for d in range(2))


def reference_pmp(family, data, n_layers, cfg):
    """train_pmp with the sweep written out densely: the dense einsum step,
    the penalty gradient of the accepted node recomputed on every layer, and
    a full copy of the accepted trajectory."""
    n_pts, targets = data.n_samples, data.targets
    cache = {}

    def sweep(u, states, current, gamma):
        if cache.get("u") is not u:
            terminal = -loss_grad(states[:, -1] - targets) / n_pts
            cache.update(u=u, cov=backward_covector(family, u, states, terminal))
        cov = cache["cov"]
        swept = np.copy(states)
        new_controls = u.values.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, u.n_layers + 1):
                drift = loss_grad(states[:, k - 1] - targets) - loss_grad(swept[:, k - 1] - targets)
                lam = cov[:, k - 1] + drift / n_pts
                vals = family.values(swept[:, k - 1])
                pairing = np.einsum("mn,mln->l", lam, vals)
                new_controls[k - 1] = _maximized_controls(pairing, u.values[k - 1], gamma, cfg.beta)
                step = np.einsum("mln,l->mn", vals, new_controls[k - 1])
                swept[:, k] = swept[:, k - 1] + u.step * step
                _check_finite(swept[:, k], k, " during a maximization sweep")
        proposal = ControlGrid(new_controls)
        cost_new = cost_of_endpoints(swept[:, -1], targets, proposal, cfg.beta)
        return proposal, swept, cost_new, current.total > cost_new.total

    return _descend(family, data, n_layers, cfg, None, None, sweep)


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
    assert np.array_equal(rep.states, ref.states)
    assert rep.final_cost == ref.final_cost


def test_penalty_gradients_are_computed_once_per_accepted_control(affine8, grid25, monkeypatch):
    pmp_module = importlib.import_module("diffeoflow.train_pmp")
    calls = {"loss_grad": 0, "backward_covector": 0}

    def counted(name):
        original = getattr(pmp_module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

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
    # Every pass evaluates the N swept nodes; every fill adds one batched call
    # over the accepted trajectory, whose last node gives the terminal covector.
    assert calls["loss_grad"] == passes * n_layers + 1 * transports
