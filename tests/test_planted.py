"""Planted-control problems: targets that a known control's flow reaches exactly.

At beta 0 the cost of the planted control u* is exactly 0, the infimum of
the objective, so each trainer's progress is measured against a known
answer.  Many controls reach the same endpoints, and u* is not recovered:
the tests compare costs and errors, never controls.  The target map is the
flow of u* itself, so its Lipschitz constant is the flow's, exactly.
"""

import numpy as np
import pytest

from diffeoflow import (
    Affine8,
    ControlGrid,
    Enriched14,
    TrainConfig,
    build_metrics,
    cost,
    forward_euler,
    square_grid,
    target_lipschitz_estimate,
    train_gradient_flow,
    train_pmp,
)
from diffeoflow.metrics import lipschitz_estimate

from oracle import assert_same_bits, planted, planted_map

N_LAYERS, PASSES = 8, 50
FAMILIES = {"affine8": lambda: Affine8(20.0), "enriched14": lambda: Enriched14(5.0)}

# The least factor by which 50 passes from the zero control lower the
# training error on the 10x10 grid of side 1.5, beta 0, u* ~ N(0, 1) from
# Philox(19).  Measured: affine8 7964 (gd) and 8297 (pmp), from 0.2807 to
# 3.5e-5 and 3.4e-5; enriched14 27.8 and 58.7, from 0.0508 to 1.8e-3 and
# 8.6e-4.  Each bound keeps a margin of 2.7x or more.
MIN_FACTOR = {
    ("affine8", "gd"): 1000.0,
    ("affine8", "pmp"): 1000.0,
    ("enriched14", "gd"): 10.0,
    ("enriched14", "pmp"): 20.0,
}
TRAINERS = {"gd": train_gradient_flow, "pmp": train_pmp}


def planted_problem(kind):
    family = FAMILIES[kind]()
    u_star = ControlGrid(np.random.Generator(np.random.Philox(19)).normal(size=(N_LAYERS, family.n_fields)))
    return family, u_star, planted(family, u_star, square_grid(1.5, 10))


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_the_planted_control_costs_exactly_zero(kind):
    family, u_star, data = planted_problem(kind)
    value = cost(family, u_star, data, 0.0)
    assert (value.total, value.data_term, value.reg_term) == (0.0, 0.0, 0.0)
    assert cost(family, ControlGrid(np.zeros(u_star.values.shape)), data, 0.0).data_term > 0.01


@pytest.mark.parametrize("kind, algorithm", sorted(MIN_FACTOR))
def test_trainers_approach_the_planted_minimum(kind, algorithm):
    family, _, data = planted_problem(kind)
    report = TRAINERS[algorithm](family, data, N_LAYERS, TrainConfig(beta=0.0, max_iter=PASSES))
    start, end = report.records[0].data_term, report.final_cost.data_term
    assert report.records[0].cost == start  # the zero control: no energy
    assert 0.0 <= end and end * MIN_FACTOR[kind, algorithm] <= start, (start, end)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_the_planted_map_is_the_flow_of_the_planted_control(kind):
    family, u_star, data = planted_problem(kind)
    target = planted_map(family, u_star)
    assert target.kind == "planted"
    assert_same_bits(target(data.sources), data.targets)
    assert_same_bits(data.targets, forward_euler(family, u_star, data.sources)[:, -1])
    probes = np.random.Generator(np.random.Philox(23)).uniform(-1.0, 1.0, size=(200, 2))
    assert target_lipschitz_estimate(target, probes) == lipschitz_estimate(family, u_star, probes)
    # At u* the flow is the target map: on the planted grid both read one Lipschitz constant.
    lipschitz_target = target_lipschitz_estimate(target, data.sources)
    metrics = build_metrics(family, u_star, lipschitz_target, data.sources, 0.0, 1.5)
    assert metrics.lipschitz_flow == metrics.lipschitz_target == lipschitz_target
