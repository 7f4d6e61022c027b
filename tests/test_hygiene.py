"""Package hygiene: no unused imports in the sources or the tests, and a pinned public API."""

import ast
import re
from pathlib import Path

import pytest

import diffeoflow

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "diffeoflow"
README = TESTS.parent / "README.md"

PUBLIC_API = [
    "ControlGrid",
    "CustomFamily",
    "Dataset",
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
    "make_affine8",
    "make_custom",
    "make_enriched14",
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


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that nothing in the module reads.

    An import whose lines carry ``# noqa: F401`` is exempt, and a name listed
    in a module-level ``__all__`` counts as read.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read:
                unused.append(f"line {node.lineno}: {bound}")
    return unused


def test_unused_import_check_flags_a_leftover():
    assert unused_imports("from typing import Callable\nimport numpy as np\nnp.zeros(1)\n") == [
        "line 1: Callable"
    ]
    assert unused_imports("from .flow import forward_euler  # noqa: F401\n") == []


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda p: p.name
)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_public_api_is_pinned():
    assert diffeoflow.__all__ == PUBLIC_API
    assert [name for name in PUBLIC_API if not hasattr(diffeoflow, name)] == []
    stated = re.findall(r"public surface is the (\d+) names", README.read_text(encoding="utf-8"))
    assert stated == [str(len(PUBLIC_API))]
