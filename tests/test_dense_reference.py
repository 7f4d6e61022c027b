"""End-to-end reference runs: both trainers against the dense contractions.

The built-in families compute the four contractions the flow and the
gradients use in closed form, and the flow stores its bundles in its own
memory layout.  Neither may change a number: a short run of each trainer
must give byte-identical trace rows and controls when the family uses the
base class's dense einsums instead, and when the dataset arrives in any
memory layout.
"""

import numpy as np
import pytest

from diffeoflow import (
    Dataset,
    TrainConfig,
    VectorFieldFamily,
    builtin_target,
    make_grid_dataset,
    make_random_testset,
    train_gradient_flow,
    train_pmp,
)
from diffeoflow.fields import Affine8, Enriched14


def dense(base):
    """A subclass of ``base`` whose contractions are the dense einsums of VectorFieldFamily."""
    return type(
        f"Dense{base.__name__}",
        (base,),
        {
            name: getattr(VectorFieldFamily, name)
            for name in ("displacement", "layer_matrix", "pairing", "adjoint_step")
        },
    )


LAYOUTS = {
    "c_order": np.ascontiguousarray,
    "fortran_order": np.asfortranarray,
    # Every row and every column strided: one plane of an (M, 2, 2) stack.
    "strided_view": lambda a: np.stack([a, a], axis=-1)[..., 0],
}
TRAINERS = {"gd": train_gradient_flow, "pmp": train_pmp}


def run_bits(trainer, family, data, test):
    """The trace rows and the control of a short run, as raw 64-bit words."""
    rep = trainer(family, data, 4, TrainConfig(beta=1e-3, max_iter=8), test_data=test)
    rows = np.array(
        [[r.iteration, r.cost, r.data_term, r.testing_error, r.gamma, r.accepted] for r in rep.records],
        dtype=float,
    )
    assert rep.records[-1].iteration == 8 and any(r.accepted for r in rep.records[1:])
    return rows.view(np.int64), rep.control.values.view(np.int64)


@pytest.mark.parametrize("algorithm", sorted(TRAINERS))
@pytest.mark.parametrize("base", [Affine8, Enriched14], ids=lambda b: b.kind)
def test_runs_match_the_dense_family_in_every_input_layout(base, algorithm):
    target = builtin_target()
    grid = make_grid_dataset(target, side=1.5, per_axis=6)
    test = make_random_testset(target, side=1.5, count=10, seed=3)
    trainer = TRAINERS[algorithm]
    want_rows, want_control = run_bits(trainer, dense(base)(nu=20.0), grid, test)
    for layout, arrange in LAYOUTS.items():
        data = Dataset(arrange(grid.sources), arrange(grid.targets))
        assert np.array_equal(data.sources, grid.sources)
        for family in (base(nu=20.0), dense(base)(nu=20.0)):
            rows, control = run_bits(trainer, family, data, test)
            assert np.array_equal(rows, want_rows), (layout, type(family).__name__)
            assert np.array_equal(control, want_control), (layout, type(family).__name__)
