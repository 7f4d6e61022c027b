"""Acceptance criteria, one test per criterion.

``pytest -v tests/test_acceptance.py`` prints the scoreboard: eleven lines,
one pass/fail verdict each.  The six benchmark runs (500 passes on the 900
point grid) are trained once in a module fixture and shared, so this module
takes well under a minute; everything else is cheap.

Criteria 4, 5 and 9 compare against recorded benchmark results that both
trainers, run exactly as configured, land far away from.  After 500 passes
from the zero control at beta 1e-4, both end near a training error of 0.11
and a flow Lipschitz constant of 2.7-2.9, where the recorded tables report
1.18 and 9.37; at beta 1 the gradient flow ends at a training error of 0.87,
against a recorded 3.88.  These are where 500 passes end, not minimizers of
the objective: at beta 1e-3 and below a deeper basin exists, with a far
smaller training error and a Lipschitz constant of 7 to 10.  Those tests
assert the recorded intervals anyway and fail with the measured values in
the message.
"""

import time
from pathlib import Path

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
    fd_gradient_oracle,
    forward_euler,
)
from diffeoflow.cli import build_problem, load_config, run_training
from diffeoflow.objective import Dataset
from diffeoflow.train_pmp import _maximized_controls

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# benchmark configs; the keys name the runs inside this module
BENCHMARK_CONFIGS = {
    "gd_beta1": "affine8_gd_n16_beta1.json",
    "gd_beta1e-4": "affine8_gd_n16_beta1e-4.json",
    "pmp_beta1": "affine8_pmp_n16_beta1.json",
    "pmp_beta1e-4": "affine8_pmp_n16_beta1e-4.json",
    "gd_n32_beta1e-4": "affine8_gd_n32_beta1e-4.json",
    "gd_enriched_beta1e-3": "enriched14_gd_n16_beta1e-3.json",
}


@pytest.fixture(scope="module")
def benchmark_runs():
    runs = {}
    for key, filename in BENCHMARK_CONFIGS.items():
        cfg = load_config(CONFIG_DIR / filename)
        report, summary = run_training(cfg)
        runs[key] = (cfg, report, summary)
    return runs


def test_criterion_01_adjoint_gradient_matches_finite_differences():
    """20 random small instances, both families, beta in {0, 0.1}: rel err <= 1e-5."""
    rng = np.random.Generator(np.random.Philox(20260816))
    families = (Affine8(20.0), Enriched14(20.0))
    start = time.perf_counter()
    worst = 0.0
    for idx in range(20):
        n_layers = int(rng.choice([2, 4, 8]))
        m = int(rng.choice([1, 3, 10]))
        family = families[idx % 2]
        beta = 0.0 if idx % 4 < 2 else 0.1
        data = Dataset(
            rng.uniform(-1.5, 1.5, size=(m, 2)),
            rng.uniform(-1.5, 1.5, size=(m, 2)),
        )
        u = ControlGrid(rng.uniform(-1.0, 1.0, size=(n_layers, family.n_fields)))
        got = adjoint_gradient(family, u, data, beta).values
        want = fd_gradient_oracle(family, u, data, beta).values
        worst = max(worst, float(np.max(np.abs(got - want) / (np.abs(want) + 1e-8))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-5, f"worst relative error {worst:.3e} exceeds 1e-5"
    assert elapsed < 10.0, f"20 gradient checks took {elapsed:.1f}s, budget is 10s"


def test_criterion_02_closed_form_flows_are_exact():
    """Identity, pure translation and a linear field agree with closed forms to 1e-12."""
    rng = np.random.Generator(np.random.Philox(2))
    x0 = rng.uniform(-1.5, 1.5, size=(40, 2))

    def rel_err(got, want):
        return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))

    # zero control: every layer is the identity
    affine8 = Affine8(20.0)
    u = ControlGrid(np.zeros((16, affine8.n_fields)))
    got = forward_euler(affine8, u, x0)[:, -1]
    assert rel_err(got, x0) <= 1e-12

    # one constant field: endpoint = x0 + (mean of the controls) * shift
    shift = np.array([0.8, -0.5])
    const = CustomFamily(
        [
            FieldSpec(
                value=lambda x: np.broadcast_to(shift, x.shape).copy(),
                jacobian=lambda x: np.zeros(x.shape + (x.shape[-1],)),
            )
        ]
    )
    n_layers = 12
    weights = rng.uniform(-1.0, 1.0, size=(n_layers, 1))
    got = forward_euler(const, ControlGrid(weights), x0)[:, -1]
    want = x0 + weights.mean() * shift
    assert rel_err(got, want) <= 1e-12

    # one linear field with unit control: N Euler steps apply (I + A/N)^N
    mat = np.array([[0.3, -1.1], [0.7, 0.2]])
    linear = CustomFamily(
        [
            FieldSpec(
                value=lambda x: x @ mat.T,
                jacobian=lambda x: np.broadcast_to(mat, x.shape + (x.shape[-1],)).copy(),
            )
        ]
    )
    n_layers = 16
    got = forward_euler(linear, ControlGrid(np.ones((n_layers, 1))), x0)[:, -1]
    power = np.linalg.matrix_power(np.eye(2) + mat / n_layers, n_layers)
    want = x0 @ power.T
    assert rel_err(got, want) <= 1e-12


def test_criterion_03_shipped_configs_descend_from_zero_control(benchmark_runs):
    """Every config under configs/: accepted costs never increase, and the
    regularization spent on the final control stays below the zero-control cost."""
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert len(paths) >= 6, f"expected shipped configs under {CONFIG_DIR}"
    by_file = {CONFIG_DIR / name: key for key, name in BENCHMARK_CONFIGS.items()}
    for path in paths:
        if path in by_file:
            cfg, report, _ = benchmark_runs[by_file[path]]
        else:
            cfg = load_config(path)
            report, _ = run_training(cfg)
        accepted = [r.cost for r in report.records if r.accepted]
        drops = np.diff(accepted)
        assert np.all(drops <= 0.0), (
            f"{path.name}: accepted cost increased by {drops.max():.3e}"
        )
        family, _, train, _ = build_problem(cfg)
        zero = ControlGrid(np.zeros((cfg.n_layers, family.n_fields)))
        cost_at_zero = cost(family, zero, train, cfg.beta).total
        assert report.records[0].cost == pytest.approx(cost_at_zero, rel=1e-12)
        assert report.final_cost.reg_term <= cost_at_zero, (
            f"{path.name}: regularization {report.final_cost.reg_term:.4f} exceeds "
            f"the zero-control cost {cost_at_zero:.4f}"
        )


def test_criterion_04_affine8_gradient_flow_matches_recorded_table(benchmark_runs):
    """affine8, 16 layers, gradient flow, 500 passes on the 900 point grid."""
    problems = []
    _, _, summary = benchmark_runs["gd_beta1e-4"]
    train = summary["final"]["training_error"]
    lip = summary["metrics"]["lipschitz_flow"]
    if not 0.95 <= train <= 1.45:
        problems.append(
            f"beta=1e-4 training error {train:.4f} not in [0.95, 1.45]; 500 passes "
            f"from the zero control end at a near-affine map whose error is an order "
            f"of magnitude below the recorded 1.18; that is where the passes stop, "
            f"not a minimizer"
        )
    if not 7.0 <= lip <= 12.0:
        problems.append(
            f"beta=1e-4 flow Lipschitz constant {lip:.4f} not in [7, 12]; after "
            f"500 passes the map is still close to affine, short of the recorded 9.37"
        )
    _, _, summary = benchmark_runs["gd_beta1"]
    train = summary["final"]["training_error"]
    if not 3.4 <= train <= 4.3:
        problems.append(
            f"beta=1 training error {train:.4f} not in [3.4, 4.3]; the recorded "
            f"value 3.88 is not a stationary point of this objective, the line "
            f"search descends well past it"
        )
    assert not problems, "; ".join(problems)


def test_criterion_05_affine8_maximum_principle_matches_recorded_table(benchmark_runs):
    """Same benchmark trained with the sweep trainer instead of the gradient flow."""
    _, _, summary = benchmark_runs["pmp_beta1e-4"]
    train = summary["final"]["training_error"]
    assert 0.95 <= train <= 1.45, (
        f"beta=1e-4 training error {train:.4f} not in [0.95, 1.45]; 500 passes of "
        f"the sweep trainer end at the same near-affine map as the gradient flow, "
        f"whose error is an order of magnitude below the recorded 1.19; that is "
        f"where they stop, not a minimizer"
    )


def test_criterion_06_enriched14_training_and_testing_errors(benchmark_runs):
    """enriched14, 16 layers, beta=1e-3: train <= 0.25 and test <= 0.30."""
    _, _, summary = benchmark_runs["gd_enriched_beta1e-3"]
    train = summary["final"]["training_error"]
    test = summary["final"]["testing_error"]
    assert train <= 0.25, f"training error {train:.4f} exceeds 0.25"
    assert test <= 0.30, f"testing error {test:.4f} exceeds 0.30"


def test_criterion_07_doubling_layers_changes_little(benchmark_runs):
    """At beta=1e-4 the move from 16 to 32 layers improves training by < 5%."""
    _, _, sum16 = benchmark_runs["gd_beta1e-4"]
    _, _, sum32 = benchmark_runs["gd_n32_beta1e-4"]
    t16 = sum16["final"]["training_error"]
    t32 = sum32["final"]["training_error"]
    improvement = (t16 - t32) / t16
    assert improvement < 0.05, (
        f"doubling the layer count improved training error by {improvement:.1%} "
        f"({t16:.4f} -> {t32:.4f})"
    )


def test_criterion_08_generalization_bound_holds_on_benchmark_runs(benchmark_runs):
    """test error <= train error + (L_target + L_flow) * W1 on every benchmark run."""
    for key, (_, _, summary) in benchmark_runs.items():
        train = summary["final"]["training_error"]
        test = summary["final"]["testing_error"]
        metrics = summary["metrics"]
        slack = (metrics["lipschitz_target"] + metrics["lipschitz_flow"]) * metrics["w1_bound"]
        assert test <= train + slack, (
            f"{key}: testing error {test:.4f} exceeds training error {train:.4f} "
            f"plus the transport slack {slack:.4f}"
        )


def test_criterion_09_lipschitz_decreases_with_stronger_regularization(benchmark_runs):
    """Within each table the beta=1 flow must be strictly less expansive than beta=1e-4."""
    problems = []
    for name, strong, weak in (
        ("gradient flow", "gd_beta1", "gd_beta1e-4"),
        ("sweep trainer", "pmp_beta1", "pmp_beta1e-4"),
    ):
        lip_strong = benchmark_runs[strong][2]["metrics"]["lipschitz_flow"]
        lip_weak = benchmark_runs[weak][2]["metrics"]["lipschitz_flow"]
        if not lip_strong < lip_weak:
            problems.append(
                f"{name}: Lipschitz {lip_strong:.4f} at beta=1 is not strictly below "
                f"{lip_weak:.4f} at beta=1e-4; both runs settle in the same "
                f"near-affine basin with almost identical flow maps"
            )
    assert not problems, "; ".join(problems)


def test_criterion_10_closed_form_maximizer_beats_grid_search():
    """50 random proximal steps: closed form within 1e-3 of a dense grid argmax."""
    rng = np.random.Generator(np.random.Philox(10))
    for _ in range(50):
        pairing = float(rng.uniform(-3.0, 3.0))
        u_old = float(rng.uniform(-2.0, 2.0))
        gamma = float(rng.uniform(0.05, 4.0))
        beta = float(rng.choice([0.0, 0.1, 1.0, 10.0]))
        closed = float(
            _maximized_controls(np.array([pairing]), np.array([u_old]), gamma, beta)[0]
        )
        # the objective is separable per component, so a scalar grid is exhaustive
        reach = abs(u_old) + gamma * abs(pairing) + 1.0
        grid = np.arange(-reach, reach, 2.5e-4)
        score = (
            pairing * grid
            - 0.5 * beta * grid**2
            - (grid - u_old) ** 2 / (2.0 * gamma)
        )
        best = grid[int(np.argmax(score))]
        assert abs(best - closed) <= 1e-3, (
            f"closed form {closed:.6f} vs grid argmax {best:.6f} "
            f"(pairing={pairing:.3f}, u_old={u_old:.3f}, gamma={gamma:.3f}, beta={beta})"
        )


def test_criterion_11_commutator_defect_ratio_decreases(commutator_defect):
    """The normalized back-and-forth defect of the two Gaussian-damped rotations
    shrinks with the step, as a vanishing commutator requires."""
    family = Affine8(20.0)
    x = np.array([1.0, 1.0])
    ratios = [commutator_defect(family, 5, 6, x, step) for step in (0.2, 0.1, 0.05)]
    assert ratios[0] > ratios[1] > ratios[2], (
        f"defect ratios {ratios} do not decrease over steps 0.2, 0.1, 0.05"
    )
