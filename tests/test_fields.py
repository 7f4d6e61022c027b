"""Field families: values, Jacobians, sweep kernels, ordering, and input validation.

The closed-form kernels of the built-ins' sweep are checked bit for bit
against the kernels of the dense sweep, the base class's einsums.
"""

import ast
import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from diffeoflow import (
    Affine8,
    CustomFamily,
    Enriched14,
    VectorFieldFamily,
    family_from_name,
)
from diffeoflow import fields, flow

from oracle import DIAGONAL_SHIFT, LAYOUTS, ROTATION, assert_same_bits, dense_node


def fd_jacobian(family, i, x, eps=1e-6):
    """Central-difference Jacobian of field i at a single point x."""
    x = np.asarray(x, dtype=float)
    cols = []
    for d in range(family.dim):
        e = np.zeros(family.dim)
        e[d] = eps
        cols.append((family.values(x + e)[i] - family.values(x - e)[i]) / (2 * eps))
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize("maker", [Affine8, Enriched14])
def test_jacobians_match_finite_differences(maker, rng):
    fam = maker(20.0)
    pts = rng.uniform(-2.0, 2.0, size=(100, 2))
    jac = fam.jacobians(pts)
    for i in range(fam.n_fields):
        for m in range(0, 100, 7):
            want = fd_jacobian(fam, i, pts[m])
            assert np.allclose(jac[m, i], want, atol=1e-6), (i, m)


def test_affine8_values_at_known_point():
    fam = Affine8(20.0)
    x = np.array([1.0, 2.0])
    g = np.exp(-5.0 / 40.0)
    vals = fam.values(x)
    expected = np.array(
        [
            [1.0, 0.0],
            [0.0, 1.0],
            [g, 0.0],
            [0.0, g],
            [1.0, 0.0],
            [2.0, 0.0],
            [0.0, 1.0],
            [0.0, 2.0],
        ]
    )
    assert np.allclose(vals, expected, rtol=0, atol=1e-15)


def test_enriched14_extends_affine8_in_order():
    a = Affine8(20.0)
    e = Enriched14(20.0)
    pts = np.array([[0.3, -1.1], [2.0, 0.5]])
    assert np.allclose(e.values(pts)[:, :8], a.values(pts))
    assert np.allclose(e.jacobians(pts)[:, :8], a.jacobians(pts))

    x1, x2 = pts[..., 0], pts[..., 1]
    g = np.exp(-0.5 * (x1**2 + x2**2) / 20.0)
    tail = e.values(pts)[:, 8:]
    assert np.allclose(tail[:, 0, 0], x1 * x1 * g)
    assert np.allclose(tail[:, 1, 0], x1 * x2 * g)
    assert np.allclose(tail[:, 2, 0], x2 * x2 * g)
    assert np.allclose(tail[:, 0:3, 1], 0.0)
    assert np.allclose(tail[:, 3, 1], x1 * x1 * g)
    assert np.allclose(tail[:, 4, 1], x1 * x2 * g)
    assert np.allclose(tail[:, 5, 1], x2 * x2 * g)
    assert np.allclose(tail[:, 3:6, 0], 0.0)


def test_field_magnitudes_bounded_on_test_square(rng):
    # On [-2, 2]^2: constants give 1, damped constants at most 1, linear
    # fields at most 2, damped quadratics at most 4.
    pts = rng.uniform(-2.0, 2.0, size=(500, 2))
    bounds = [1, 1, 1, 1, 2, 2, 2, 2] + [4] * 6
    fam = Enriched14(20.0)
    norms = np.linalg.norm(fam.values(pts), axis=-1)
    for i, b in enumerate(bounds):
        assert norms[:, i].max() <= b + 1e-12


def test_gaussian_width_changes_damping():
    narrow = Affine8(0.5)
    wide = Affine8(50.0)
    x = np.array([1.0, 1.0])
    assert narrow.values(x)[2, 0] < wide.values(x)[2, 0]


def test_batch_shapes_preserved():
    fam = Enriched14(20.0)
    pts = np.zeros((3, 4, 5, 2))
    assert fam.values(pts).shape == (3, 4, 5, 14, 2)
    assert fam.jacobians(pts).shape == (3, 4, 5, 14, 2, 2)


def test_shape_errors():
    fam = Affine8(20.0)
    with pytest.raises(ValueError):
        fam.values(np.zeros(3))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_invalid_width_rejected(bad):
    # A family checks its own width when it is made, by any route, before it
    # can flow; the suite turns any numpy warning on the way into a failure.
    for build in (Affine8, Enriched14, lambda nu: dataclasses.replace(Affine8(), nu=nu),
                  lambda nu: family_from_name("enriched14", nu)):
        with pytest.raises(ValueError, match=f"^nu: must be positive and finite, got {bad}$"):
            build(bad)


def test_family_from_name():
    assert family_from_name("affine8", 20.0) == Affine8(20.0)
    assert family_from_name("enriched14", 20.0) == Enriched14(20.0)
    with pytest.raises(ValueError, match="^family: expected 'affine8' or 'enriched14', got 'cubic99'$"):
        family_from_name("cubic99", 20.0)


def test_custom_family_round_trip(rng):
    fam = CustomFamily(iter([ROTATION]))  # any iterable of fields, kept as a tuple
    assert fam.fields == (ROTATION,) and fam.n_fields == 1
    pts = rng.normal(size=(6, 2))
    assert np.allclose(fam.values(pts)[:, 0], np.stack([-pts[:, 1], pts[:, 0]], axis=-1))
    for m in range(6):
        assert np.allclose(fd_jacobian(fam, 0, pts[m]), fam.jacobians(pts[m])[0], atol=1e-6)
    with pytest.raises(ValueError, match="^a family needs at least one field$"):
        CustomFamily(())


KERNELS = ("displace", "factor", "pair", "pair_and_step")


def _kernel(fam, name, x, *args, dense=False):
    """Kernel ``name`` of a fresh sweep of ``fam`` at the points ``x``: its own sweep, or the dense one if ``dense``.

    ``pair_and_step`` is one node of the gradient's backward loop: the pairing row, then the stepped covector.  A
    control row is handed to a kernel as the sweep's row of it; a pairing row is written into a new array.
    """
    sweep = dense_node(fam, x) if dense else fam._sweep(x.shape[:-1]).load(x)
    if name == "displace":
        return sweep.displace(*args, np.empty_like(x))
    out = np.empty(x.shape[1:-1] + (fam.n_fields,))
    if name == "pair":
        sweep.pair(*args, out)
        return out
    u_row, *rest = args
    row = sweep.rows(u_row[None])[0]
    if name == "factor":
        return sweep.factor(row, *rest)
    lam, h = rest
    sweep.pair(lam, out)
    return out, sweep.step(row, lam, h)


def _kernel_args(fam, name, x, rng, signed_zeros=False):
    """Random arguments of a kernel, x first; with ``signed_zeros`` its control row or covector rows are +-0.0."""
    if name == "pair":
        lam = rng.normal(size=x.shape)
        if signed_zeros:
            lam[::3] = -0.0  # rows of signed zeros
            lam[1::7, ..., 0] = 0.0
        return (x, lam)
    if signed_zeros:
        u_row = np.where(np.arange(fam.n_fields) % 2, -0.0, 0.0)
    else:
        u_row = rng.normal(size=fam.n_fields)
    if name == "factor":
        return (x, u_row, 1.0 / 16)
    if name == "pair_and_step":
        return (x, u_row, rng.normal(size=x.shape), 1.0 / 16)
    return (x, u_row)


@pytest.mark.parametrize("shape", [(1, 2), (900, 2), (10_000, 2), (900, 16, 2), (1_000, 33, 2)])
@pytest.mark.parametrize("maker", [Affine8, Enriched14])
@pytest.mark.parametrize("name", KERNELS[:3])
def test_closed_form_kernels_equal_the_dense_sweep_bit_for_bit(name, maker, shape, rng):
    fam = maker(20.0)
    x = rng.normal(scale=1.5, size=shape)
    x.reshape(-1)[::5] = 0.0  # grid points on the axes
    for signed_zeros in (False, True):
        args = _kernel_args(fam, name, x, rng, signed_zeros)
        assert_same_bits(_kernel(fam, name, *args), _kernel(fam, name, *args, dense=True))


@pytest.mark.parametrize("cls", [Affine8, Enriched14])
def test_builtins_state_only_their_fields(cls):
    # A built-in states K, its gradients and the dense tensors; ``_Planar`` sums every closed form over them.
    assert isinstance(cls()._sweep((1,)), fields._Planar)
    kernels = KERNELS + ("_displacement", "_pairing", "_step", "_factor_entries", "_node")
    assert [name for name in kernels if hasattr(cls, name)] == []


def _makes_planar(value: ast.expr) -> bool:
    """Whether ``value`` is a ``_Planar(...)`` or ``._sweep(...)`` call, or a ``.load(...)`` of one."""
    while isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute) and value.func.attr == "load":
        value = value.func.value
    func = getattr(value, "func", None)
    return isinstance(value, ast.Call) and (
        getattr(func, "id", None) == "_Planar" or getattr(func, "attr", None) == "_sweep"
    )


def _planar_names(function: ast.FunctionDef) -> set:
    """The names in ``function`` that can hold a ``_Planar``: bound from a maker call, or parameters annotated so."""
    args = function.args
    names = {
        a.arg
        for a in args.posonlyargs + args.args + args.kwonlyargs
        if a.annotation is not None and ast.unparse(a.annotation).strip("'\"") == "_Planar"
    }
    for n in ast.walk(function):
        if isinstance(n, ast.Assign):
            for target in n.targets:
                pairs = [(target, n.value)]
                if isinstance(target, ast.Tuple) and isinstance(n.value, ast.Tuple):
                    pairs = zip(target.elts, n.value.elts)
                names |= {t.id for t, v in pairs if isinstance(t, ast.Name) and _makes_planar(v)}
    return names


def _sweep_attribute_stores(trees: dict) -> list:
    """Attribute stores outside class ``_Planar`` whose target can be a ``_Planar``, as ``file:line code``."""
    inside = {
        id(n)
        for tree in trees.values()
        for planar in ast.walk(tree)
        if isinstance(planar, ast.ClassDef) and planar.name == "_Planar"
        for n in ast.walk(planar)
    }
    stores = set()
    for name, tree in trees.items():
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)) or id(function) in inside:
                continue
            planar = _planar_names(function)
            stores |= {
                f"{name}:{n.lineno} {ast.unparse(n)}"
                for n in ast.walk(function)
                if isinstance(n, ast.Attribute)
                and isinstance(n.ctx, ast.Store)
                and isinstance(n.value, ast.Name)
                and n.value.id in planar
            }
    return sorted(stores)


def test_no_package_code_outside_the_sweep_sets_its_attributes():
    package = Path(fields.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    assert _sweep_attribute_stores(trees) == []


def test_the_sweep_attribute_check_flags_stores_on_a_sweep_only():
    source = """
class _Planar:
    def load(self, x):
        self.x1 = x

class Affine8:
    def _coefficients(self, ws: _Planar):
        ws.ks = None

    def values(self, x):
        ws = _Planar(self, x.shape[:-1]).load(x)
        ws.g = 0.0

class _Dense:
    def __init__(self, family):
        self.family = family

def flow(family, x):
    sweep, step = family._sweep(x.shape[:1]), None
    step = object()
    step.family = family
    sweep.q1 = x
"""
    assert _sweep_attribute_stores({"m.py": ast.parse(source)}) == [
        "m.py:12 ws.g",
        "m.py:22 sweep.q1",
        "m.py:8 ws.ks",
    ]


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("h", [1.0 / 16, 0.7, -1.0 / 16])
@pytest.mark.parametrize("maker", [Affine8, Enriched14])
def test_layer_factor_is_the_dense_eye_plus_h_layer_matrix_bit_for_bit(maker, h, layout, rng):
    fam = maker(20.0)
    x = rng.normal(scale=1.5, size=(900, 2))
    x.reshape(-1)[::5] = 0.0  # grid points on the axes
    x[1::7] *= 1e3  # far away: the Gaussian weight underflows to 0
    x[3::11] = [1e150, -1e150]
    x, sweep = LAYOUTS[layout](x), fam._sweep((900,))
    for u_row in (rng.normal(size=fam.n_fields), np.where(np.arange(fam.n_fields) % 2, -0.0, 0.0)):
        got = sweep.load(x).factor(sweep.rows(u_row[None])[0], h)
        dense = np.einsum("mlpq,l->mpq", fam.jacobians(x), u_row)
        assert got.shape == (900, 2, 2) and got.flags.c_contiguous
        assert_same_bits(got, np.eye(2) + h * dense)
        assert_same_bits(got, dense_node(fam, x).factor(u_row, h))
        if h < 0:  # the backward-Euler factor of the covector transport
            assert_same_bits(got, np.eye(2) - (-h) * dense)


def _explicit_einsum(fam, name, x, u_row_or_lam, h=None):
    """Kernel ``name`` at x of shape (M, [K,] 2) as one einsum with every index spelled out."""
    lead = "mk"[: x.ndim - 1]
    if name == "displace":
        return np.einsum(f"{lead}ln,l->{lead}n", fam.values(x), u_row_or_lam)
    if name == "factor":
        return np.eye(2) + h * np.einsum(f"{lead}lpq,l->{lead}pq", fam.jacobians(x), u_row_or_lam)
    return np.einsum(f"{lead}n,{lead}ln->{lead[1:]}l", u_row_or_lam, fam.values(x))


@pytest.mark.parametrize("name", KERNELS[:3])
@pytest.mark.parametrize("kind, shape", [("enriched14", (50, 7, 2)), ("custom", (10_000, 2))])
def test_dense_kernels_match_explicit_einsums(kind, shape, name, rng):
    """The dense sweep is the einsums over ``values`` and ``jacobians``; a custom family runs on it."""
    fam = CustomFamily([ROTATION, DIAGONAL_SHIFT]) if kind == "custom" else Enriched14(20.0)
    assert kind != "custom" or type(fam)._sweep is VectorFieldFamily._sweep
    args = _kernel_args(fam, name, rng.normal(size=shape), rng)
    want = _explicit_einsum(fam, name, *args)
    assert np.array_equal(_kernel(fam, name, *args, dense=True), want)
    if kind == "custom":
        assert np.array_equal(_kernel(fam, name, *args), want)


def test_pairing_keeps_middle_axes_and_accepts_strided_slices(affine8, rng):
    states = rng.normal(size=(40, 9, 2))
    lam = rng.normal(size=(40, 9, 2))
    got, want = np.empty((8, 8)), np.empty((8, 8))
    affine8._sweep((40, 8)).load(states[:, :-1]).pair(lam[:, 1:], got)
    dense_node(affine8, states[:, :-1]).pair(lam[:, 1:], want)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["affine8", "enriched14", "custom"])
def test_the_benchmark_kept_wrappers_are_the_dense_contractions(kind, rng):
    """``flow.displacement`` and ``flow.layer_matrix``, which no package code calls, on batch axes and on lists."""
    fam = CustomFamily([ROTATION, DIAGONAL_SHIFT]) if kind == "custom" else family_from_name(kind, 20.0)
    u_row = rng.normal(size=fam.n_fields)
    for x in (rng.normal(size=(900, 2)), rng.normal(size=(5, 7, 2)), rng.normal(size=2)):
        displaced = dense_node(fam, x).displace(u_row, None)
        matrix = np.einsum("...lpq,l->...pq", fam.jacobians(x), u_row)
        assert_same_bits(displaced, fam._sweep(x.shape[:-1]).load(x).displace(u_row, np.empty_like(x)))
        for points in (x, x.tolist()):
            assert_same_bits(flow.displacement(fam, points, u_row), displaced)
            assert_same_bits(flow.layer_matrix(fam, points, u_row), matrix)


@pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 3, 0.7, 1.0])
@pytest.mark.parametrize("maker", [Affine8, Enriched14])
def test_closed_form_step_equals_the_dense_step_bit_for_bit(maker, h, rng):
    fam = maker(20.0)
    x = rng.normal(scale=1.5, size=(900, 2))
    x.reshape(-1)[::5] = 0.0  # grid points on the axes
    lam = rng.normal(size=(900, 2))
    lam[::3] = -0.0  # rows of signed zeros
    lam[1::7, 0] = 0.0
    for u_row in (rng.normal(size=fam.n_fields), np.where(np.arange(fam.n_fields) % 2, -0.0, 0.0)):
        row, step = _kernel(fam, "pair_and_step", x, u_row, lam, h)
        dense_row, dense_step = _kernel(fam, "pair_and_step", x, u_row, lam, h, dense=True)
        assert row.shape == (fam.n_fields,) and step.shape == lam.shape
        assert_same_bits(row, dense_row)
        assert_same_bits(step, dense_step)


def _flat(result):
    """A result as one flat array; ``pair_and_step`` returns two."""
    return np.concatenate([np.ravel(part) for part in (result if isinstance(result, tuple) else (result,))])


QUIET_CALLS = ("values", "jacobians", "displacement", "layer_matrix") + tuple(f"dense {name}" for name in KERNELS)


@pytest.mark.parametrize("name", QUIET_CALLS)
@pytest.mark.parametrize("maker", [Affine8, Enriched14])
def test_public_calls_are_quiet_where_the_squares_overflow(maker, name, rng):
    """At |x|^2 = inf, g is 0 and x1^2 g is inf * 0: the NaN of a kernel, with no warning (an error under pytest).

    The public calls are the fields, the two ``flow`` wrappers and the kernels of the dense sweep.
    """
    fam = maker(20.0)
    x = np.array([[1e200, 0.0], [0.5, -0.25], [1e200, 1e200]])
    u_row = rng.normal(size=fam.n_fields)
    if name in ("values", "jacobians"):
        got, twin = getattr(fam, name)(x), None
    elif name in ("displacement", "layer_matrix"):
        got = getattr(flow, name)(fam, x, u_row)
        twin = ("displace", (x, u_row)) if name == "displacement" else None
    else:
        kernel = name.removeprefix("dense ")
        args = _kernel_args(fam, kernel, x, rng)
        got, twin = _flat(_kernel(fam, kernel, *args, dense=True)), (kernel, args)
    assert np.isnan(got).any() == (fam.kind == "enriched14")
    if twin is not None:  # the same NaN as the family's own kernel
        with np.errstate(over="ignore", invalid="ignore"):  # the forward flow's
            want = _flat(_kernel(fam, twin[0], *twin[1]))
        assert np.array_equal(_flat(got), want, equal_nan=True)


def test_the_dense_step_is_the_pairing_and_the_transposed_layer():
    fam = Affine8(20.0)
    rng = np.random.Generator(np.random.Philox(2))
    x, lam, u_row = rng.normal(size=(40, 2)), rng.normal(size=(40, 2)), rng.normal(size=8)
    row, step = _kernel(fam, "pair_and_step", x, u_row, lam, 0.25, dense=True)
    assert np.array_equal(row, np.einsum("mn,mln->l", lam, fam.values(x)))
    want = np.einsum("mp,mpn->mn", lam, np.eye(2) + 0.25 * np.einsum("mlpq,l->mpq", fam.jacobians(x), u_row))
    assert np.array_equal(step, want)


# The peak bytes that a closed-form kernel, one node of a fresh sweep on
# 10^4 points, may allocate with its output, in float columns of 10^4
# values: its measured peak (6.02, 9.03, 11.06 and 19.07 columns) rounded
# up to a whole column.  The sums are assembled in place, into the output
# and one scratch column.
PEAK_COLUMNS = {
    ("affine8", "displace"): 7,
    ("enriched14", "displace"): 10,
    ("affine8", "pair_and_step"): 12,
    ("enriched14", "pair_and_step"): 22,
}


@pytest.mark.parametrize("kind, name", sorted(PEAK_COLUMNS))
def test_closed_forms_assemble_their_sums_in_place(kind, name):
    fam = family_from_name(kind, 20.0)
    rng = np.random.Generator(np.random.Philox(7))
    x = np.asfortranarray(rng.uniform(-1.5, 1.5, size=(10_000, 2)))
    args = (x, rng.normal(size=fam.n_fields))
    if name == "pair_and_step":
        args += (np.asfortranarray(rng.normal(size=x.shape)), 1.0 / 16)
    _kernel(fam, name, *args)
    tracemalloc.start()
    try:
        _kernel(fam, name, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_COLUMNS[kind, name] * x[:, 0].nbytes
