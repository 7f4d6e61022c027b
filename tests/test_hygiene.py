"""Package hygiene: no unused imports, test-only helpers or unread attributes,
one copy of each dense reference, and a pinned public API.
"""

import ast
import re
from pathlib import Path

import pytest

import diffeoflow
from diffeoflow import Affine8, CustomFamily, Enriched14, VectorFieldFamily

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "diffeoflow"
README = TESTS.parent / "README.md"

PUBLIC_API = [
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


def unnamed_private_functions(sources: list[str]) -> list[str]:
    """Module-level functions with a leading underscore that no source names.

    A name counts when some source reads it, as a name or an attribute,
    anywhere but in the function's own ``def`` line.
    """
    trees = [ast.parse(source) for source in sources]
    named = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    named |= {n.attr for t in trees for n in ast.walk(t) if isinstance(n, ast.Attribute)}
    return [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and node.name not in named
    ]


def test_private_function_check_flags_a_test_only_helper():
    sources = ["def _used():\n    pass\n\n\ndef _orphan():\n    pass\n", "from .a import _used\n_used()\n"]
    assert unnamed_private_functions(sources) == ["_orphan"]


def test_every_private_function_is_named_in_the_package():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    assert unnamed_private_functions(sources) == []


def unread_attributes(modules: dict[str, str]) -> list[str]:
    """Attributes assigned on ``self``, as ``file:line name``, that no module reads.

    ``modules`` maps each file's name to its source.  An attribute counts as
    read when any module loads it, as ``anything.name``.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    attributes = [n for t in trees.values() for n in ast.walk(t) if isinstance(n, ast.Attribute)]
    read = {n.attr for n in attributes if isinstance(n.ctx, ast.Load)}
    return sorted(
        f"{name}:{n.lineno} {n.attr}"
        for name, tree in trees.items()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
        and isinstance(n.value, ast.Name) and n.value.id == "self" and n.attr not in read
    )


def test_unread_attribute_check_flags_dead_state():
    modules = {
        "a.py": "class A:\n    def load(self, x):\n        self.x, self.x1 = x, x[0]\n        self.kept = 1\n",
        "b.py": "def first(ws):\n    return ws.x1\n\n\ndef kept(a):\n    a.kept = 2\n",
    }
    assert unread_attributes(modules) == ["a.py:3 x", "a.py:4 kept"]


def test_every_attribute_the_package_sets_is_read():
    modules = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_attributes(modules) == []


def dimension_reads(source: str) -> list[str]:
    """Lines that read a dimension other than through ``VectorFieldFamily.dim``.

    Flags every ``.dim`` attribute read but ``family.dim`` and every ``range``
    call over a name or attribute ``dim``: the package is planar, so only a
    family states the plane's 2.
    """
    flagged = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "dim" and isinstance(node.ctx, ast.Load):
            if not (isinstance(node.value, ast.Name) and node.value.id == "family"):
                flagged.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "range":
            if any((isinstance(n, ast.Name) and n.id == "dim") or (isinstance(n, ast.Attribute) and n.attr == "dim")
                   for arg in node.args for n in ast.walk(arg)):
                flagged.append(f"line {node.lineno}: {ast.unparse(node)}")
    return flagged


def test_dimension_check_flags_a_generic_dimension():
    source = "n = family.dim\nm = data.dim\nfor i in range(dim):\n    pass\nlist(range(family.dim))\n"
    assert dimension_reads(source) == ["line 2: data.dim", "line 3: range(dim)", "line 5: range(family.dim)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_reads_no_dimension_but_the_family_one(path):
    assert dimension_reads(path.read_text(encoding="utf-8")) == []


# The whole public surface of a family: the dense fields it supplies.  Every
# layer quantity is a kernel of its private ``_sweep``.
FAMILY_INTERFACE = ["jacobians", "values"]


def public_callables(cls: type) -> list[str]:
    """The names of the public methods of ``cls``, its own and inherited; properties and data are not callables."""
    return sorted(name for name in dir(cls) if not name.startswith("_") and callable(getattr(cls, name)))


def test_public_callable_check_lists_public_methods_alone():
    class Base:
        kind = "base"

        def values(self):
            pass

        def _sweep(self):
            pass

    class Family(Base):
        n_fields = property(lambda self: 1)

        def pairing(self):
            pass

    assert public_callables(Family) == ["pairing", "values"]


@pytest.mark.parametrize("cls", [VectorFieldFamily, Affine8, Enriched14, CustomFamily], ids=lambda c: c.__name__)
def test_a_family_supplies_values_and_jacobians_alone(cls):
    assert public_callables(cls) == FAMILY_INTERFACE


def interface_calls(source: str) -> list[str]:
    """Calls of a family's public method, as ``function.method`` of the innermost enclosing function.

    A call counts when it reads one of ``FAMILY_INTERFACE`` as an attribute
    and passes arguments, such as ``family.values(x)``; a dict's
    ``values()`` passes none, and a sweep's kernels have other names.
    """
    calls = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and child.args:
                if child.func.attr in FAMILY_INTERFACE:
                    calls.append(f"{where}.{child.func.attr}")
            visit(child, child.name if isinstance(child, ast.FunctionDef) else where)

    visit(ast.parse(source), "<module>")
    return calls


def test_interface_check_flags_a_dense_call_in_a_loop():
    source = (
        "def product(family, x, rows, workspace):\n"
        "    sweep = family._sweep(x.shape[:1])\n"
        "    for row in rows:\n"
        "        family.jacobians(x) @ sweep.load(x).factor(row, 0.5)\n"
        "    return list(workspace.values())\n"
    )
    assert interface_calls(source) == ["product.jacobians"]


def test_layer_loops_take_their_steps_from_a_sweep():
    # Outside fields.py the package reads a family's fields through a sweep's
    # kernels alone, but in the thin public wrapper that the benchmark keeps.
    calls = [
        f"{path.stem}.{call}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "fields.py"
        for call in interface_calls(path.read_text(encoding="utf-8"))
    ]
    assert calls == ["flow.layer_matrix.jacobians"]


KERNELS = ("displace", "factor", "pair", "step")


def kernel_loops(source: str) -> list[str]:
    """Functions not named ``test_*`` with a ``for`` loop or a comprehension that calls one of a sweep's ``KERNELS``."""
    loops = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    return [
        f"line {func.lineno}: {func.name}"
        for func in ast.walk(ast.parse(source))
        if isinstance(func, ast.FunctionDef) and not func.name.startswith("test_") and any(
            isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr in KERNELS
            for loop in ast.walk(func) if isinstance(loop, loops)
            for call in ast.walk(loop)
        )
    ]


def test_kernel_loop_check_flags_a_leftover_reference():
    source = (
        "def forward(node, u, x):\n    for row in u.values:\n        x = x + node.load(x).displace(row, None)\n"
        "def factors(node, u, x):\n    return [node.load(x).factor(row, u.step) for row in u.values]\n"
        "def one_node(node, x, lam, out):\n    return node.load(x).pair(lam, out)\n"
        "def steps(u):\n    return [step(row) for row in u.values]\n"
        "def test_layers(node, u, x):\n    for row in u.values:\n        node.load(x).step(row, x, u.step)\n"
    )
    assert kernel_loops(source) == ["line 1: forward", "line 4: factors"]


def test_the_dense_references_live_in_the_oracle_alone():
    # A per-node loop over a sweep's kernels is a layer loop: outside the
    # package only the oracle writes one, over the kernels of the dense sweep.
    flagged = [
        f"{path.name} {helper}"
        for path in sorted(TESTS.glob("*.py")) if path.name != "oracle.py"
        for helper in kernel_loops(path.read_text(encoding="utf-8"))
    ]
    assert flagged == []


def unused_public_functions(modules: dict[str, str]) -> list[str]:
    """Public module-level functions, as ``module.name``, that nothing in the package uses.

    ``modules`` maps each module's name to its source.  A function counts as
    used when another module imports it (``__init__`` imports every name of
    ``__all__``) or its own module reads its name.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    unused = []
    for name, tree in trees.items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {
            alias.name
            for other, t in trees.items() if other != name
            for n in ast.walk(t) if isinstance(n, ast.ImportFrom) and n.module == name
            for alias in n.names
        }
        unused += [
            f"{name}.{node.name}"
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and node.name not in used
        ]
    return unused


def test_public_function_check_flags_a_pin_only_function():
    modules = {
        "a": "def read():\n    pass\n\n\ndef imported():\n    pass\n\n\ndef orphan():\n    pass\n\n\nread()\n",
        "b": "from .a import imported\n",
    }
    assert unused_public_functions(modules) == ["a.orphan"]


# Public functions that only BENCHMARK.json's declared spans use
# (flow.displacement.*, flow.layer_matrix.*); they go when the benchmark
# stops declaring those spans.
KEPT_FOR_BENCHMARK_SPANS = ["flow.displacement", "flow.layer_matrix"]


def test_every_public_function_is_used_in_the_package():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_public_functions(modules) == KEPT_FOR_BENCHMARK_SPANS


def test_public_api_is_pinned():
    assert diffeoflow.__all__ == PUBLIC_API
    assert [name for name in PUBLIC_API if not hasattr(diffeoflow, name)] == []
    stated = re.findall(r"public surface is the (\d+) names", README.read_text(encoding="utf-8"))
    assert stated == [str(len(PUBLIC_API))]
