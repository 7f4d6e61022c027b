"""diffeoflow: train linear-control ResNets to approximate diffeomorphisms.

The network layers move points along fixed vector fields with trainable
per-layer coefficients; training fits the flow map to source/target point
clouds either by backtracking gradient descent or by layerwise Hamiltonian
maximization.
"""

from .data import (
    TargetMap,
    builtin_target,
    identity_target,
    load_dataset_csv,
    make_grid_dataset,
    make_random_testset,
    save_dataset_csv,
    square_grid,
    target_from_name,
)
from .fields import (
    Affine8,
    CustomFamily,
    Enriched14,
    FieldSpec,
    VectorFieldFamily,
    family_from_name,
)
from .flow import (
    ControlGrid,
    FlowError,
    backward_covector,
    flow_endpoints,
    forward_euler,
)
from .metrics import (
    MetricsBlock,
    build_metrics,
    generalization_bound,
    spectral_norms,
    target_lipschitz_estimate,
    w1_grid_bound,
)
from .objective import (
    Dataset,
    ObjectiveValue,
    adjoint_gradient,
    cost,
    cost_of_endpoints,
    fd_gradient_oracle,
    loss,
    loss_grad,
    mean_loss,
)
from .train_gd import (
    IterationRecord,
    TrainAbort,
    TrainConfig,
    TrainReport,
    train_gradient_flow,
)
from .train_pmp import train_pmp

__version__ = "0.1.0"

__all__ = [
    "Affine8",
    "ControlGrid",
    "CustomFamily",
    "Dataset",
    "Enriched14",
    "FieldSpec",
    "FlowError",
    "IterationRecord",
    "MetricsBlock",
    "ObjectiveValue",
    "TargetMap",
    "TrainAbort",
    "TrainConfig",
    "TrainReport",
    "VectorFieldFamily",
    "adjoint_gradient",
    "backward_covector",
    "build_metrics",
    "builtin_target",
    "cost",
    "cost_of_endpoints",
    "family_from_name",
    "fd_gradient_oracle",
    "flow_endpoints",
    "forward_euler",
    "generalization_bound",
    "identity_target",
    "load_dataset_csv",
    "loss",
    "loss_grad",
    "make_grid_dataset",
    "make_random_testset",
    "mean_loss",
    "save_dataset_csv",
    "spectral_norms",
    "square_grid",
    "target_from_name",
    "target_lipschitz_estimate",
    "train_gradient_flow",
    "train_pmp",
    "w1_grid_bound",
]
