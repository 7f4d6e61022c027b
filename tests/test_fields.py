"""Field families: values, Jacobians, contractions, ordering, and input validation.

The closed-form kernels of the built-ins' sweep are checked bit for bit
against the dense contractions, the base class's einsums.
"""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from diffeoflow import (
    VectorFieldFamily,
    family_from_name,
    make_affine8,
    make_custom,
    make_enriched14,
)
from diffeoflow import fields
from diffeoflow.fields import Affine8, Enriched14

from oracle import DIAGONAL_SHIFT, LAYOUTS, ROTATION, assert_same_bits


def fd_jacobian(family, i, x, eps=1e-6):
    """Central-difference Jacobian of field i at a single point x."""
    x = np.asarray(x, dtype=float)
    cols = []
    for d in range(family.dim):
        e = np.zeros(family.dim)
        e[d] = eps
        cols.append((family.values(x + e)[i] - family.values(x - e)[i]) / (2 * eps))
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize("maker", [make_affine8, make_enriched14])
def test_jacobians_match_finite_differences(maker, rng):
    fam = maker(20.0)
    pts = rng.uniform(-2.0, 2.0, size=(100, 2))
    jac = fam.jacobians(pts)
    for i in range(fam.n_fields):
        for m in range(0, 100, 7):
            want = fd_jacobian(fam, i, pts[m])
            assert np.allclose(jac[m, i], want, atol=1e-6), (i, m)


def test_affine8_values_at_known_point():
    fam = make_affine8(20.0)
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
    a = make_affine8(20.0)
    e = make_enriched14(20.0)
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
    fam = make_enriched14(20.0)
    norms = np.linalg.norm(fam.values(pts), axis=-1)
    for i, b in enumerate(bounds):
        assert norms[:, i].max() <= b + 1e-12


def test_gaussian_width_changes_damping():
    narrow = make_affine8(0.5)
    wide = make_affine8(50.0)
    x = np.array([1.0, 1.0])
    assert narrow.values(x)[2, 0] < wide.values(x)[2, 0]


def test_batch_shapes_preserved():
    fam = make_enriched14(20.0)
    pts = np.zeros((3, 4, 5, 2))
    assert fam.values(pts).shape == (3, 4, 5, 14, 2)
    assert fam.jacobians(pts).shape == (3, 4, 5, 14, 2, 2)


def test_shape_errors():
    fam = make_affine8(20.0)
    with pytest.raises(ValueError):
        fam.values(np.zeros(3))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_invalid_width_rejected(bad):
    with pytest.raises(ValueError):
        make_affine8(bad)


def test_family_from_name():
    assert family_from_name("affine8", 20.0).n_fields == 8
    assert family_from_name("enriched14", 20.0).n_fields == 14
    with pytest.raises(ValueError):
        family_from_name("cubic99", 20.0)


def test_custom_family_round_trip(rng):
    fam = make_custom([ROTATION])
    assert fam.n_fields == 1
    pts = rng.normal(size=(6, 2))
    assert np.allclose(fam.values(pts)[:, 0], np.stack([-pts[:, 1], pts[:, 0]], axis=-1))
    for m in range(6):
        assert np.allclose(fd_jacobian(fam, 0, pts[m]), fam.jacobians(pts[m])[0], atol=1e-6)
    with pytest.raises(ValueError):
        make_custom([])


CONTRACTIONS = ("displacement", "layer_matrix", "layer_factor", "pairing")
# The contractions whose closed forms are the built-ins' sweep kernels; layer_matrix has none.
CLOSED_FORMS = ("displacement", "layer_factor", "pairing")
EINSUMS = ("displacement", "layer_matrix", "pairing")


def _sweep_kernel(fam, name, x, *args):
    """The closed form of contraction ``name`` at the points ``x``: the kernels of a fresh sweep of ``fam`` at x.

    A control row is handed to a kernel as the sweep's row of it; a pairing row is written into a new array.
    """
    sweep = fam._sweep(x.shape[:-1]).load(x)
    if name == "displacement":
        return sweep.displace(*args, np.empty_like(x))
    out = np.empty(x.shape[1:-1] + (fam.n_fields,))
    if name == "pairing":
        sweep.pair(*args, out)
        return out
    u_row, *rest = args
    row = sweep.rows(u_row[None])[0]
    if name == "layer_factor":
        return sweep.factor(row, *rest)
    lam, h = rest
    sweep.pair(lam, out)
    return out, sweep.step(row, lam, h)


def _contraction_args(fam, name, x, rng, signed_zeros=False):
    """Random arguments of a contraction; with ``signed_zeros`` its control row or covector rows are +-0.0."""
    if name == "pairing":
        lam = rng.normal(size=x.shape)
        if signed_zeros:
            lam[::3] = -0.0  # rows of signed zeros
            lam[1::7, ..., 0] = 0.0
        return (x, lam)
    if signed_zeros:
        u_row = np.where(np.arange(fam.n_fields) % 2, -0.0, 0.0)
    else:
        u_row = rng.normal(size=fam.n_fields)
    if name == "layer_factor":
        return (x, u_row, 1.0 / 16)
    if name == "adjoint_step":
        return (x, u_row, rng.normal(size=x.shape), 1.0 / 16)
    return (x, u_row)


@pytest.mark.parametrize("shape", [(1, 2), (900, 2), (10_000, 2), (900, 16, 2), (1_000, 33, 2)])
@pytest.mark.parametrize("maker", [make_affine8, make_enriched14])
@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_closed_form_contractions_equal_dense_path_bit_for_bit(name, maker, shape, rng):
    fam = maker(20.0)
    x = rng.normal(scale=1.5, size=shape)
    x.reshape(-1)[::5] = 0.0  # grid points on the axes
    for signed_zeros in (False, True):
        args = _contraction_args(fam, name, x, rng, signed_zeros)
        assert_same_bits(_sweep_kernel(fam, name, *args), getattr(VectorFieldFamily, name)(fam, *args))


@pytest.mark.parametrize("cls", [Affine8, Enriched14])
def test_builtins_inherit_every_dense_contraction(cls):
    for name in CONTRACTIONS + ("adjoint_step",):
        assert name not in vars(cls)
        assert getattr(cls, name) is getattr(VectorFieldFamily, name)
    # A built-in states K, its gradients and the dense tensors; ``_Planar`` sums every closed form over them.
    kernels = ("_displacement", "_pairing", "_step", "_factor_entries", "_node")
    assert [name for name in kernels if hasattr(cls, name)] == []


def test_no_package_code_outside_the_sweep_sets_its_attributes():
    package = Path(fields.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    planar = next(n for n in ast.walk(trees["fields.py"]) if isinstance(n, ast.ClassDef) and n.name == "_Planar")
    inside = {id(n) for n in ast.walk(planar)}
    own = {n.attr for n in ast.walk(planar) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)}
    stores = sorted(
        f"{name}:{n.lineno} {ast.unparse(n)}"
        for name, tree in trees.items()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store) and n.attr in own and id(n) not in inside
    )
    assert own and stores == []


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("h", [1.0 / 16, 0.7, -1.0 / 16])
@pytest.mark.parametrize("maker", [make_affine8, make_enriched14])
def test_layer_factor_is_the_dense_eye_plus_h_layer_matrix_bit_for_bit(maker, h, layout, rng):
    fam = maker(20.0)
    x = rng.normal(scale=1.5, size=(900, 2))
    x.reshape(-1)[::5] = 0.0  # grid points on the axes
    x[1::7] *= 1e3  # far away: the Gaussian weight underflows to 0
    x[3::11] = [1e150, -1e150]
    x, sweep = LAYOUTS[layout](x), fam._sweep((900,))
    for u_row in (rng.normal(size=fam.n_fields), np.where(np.arange(fam.n_fields) % 2, -0.0, 0.0)):
        got = sweep.load(x).factor(sweep.rows(u_row[None])[0], h)
        dense = VectorFieldFamily.layer_matrix(fam, x, u_row)
        assert got.shape == (900, 2, 2) and got.flags.c_contiguous
        assert_same_bits(got, np.eye(2) + h * dense)
        if h < 0:  # the backward-Euler factor of the covector transport
            assert_same_bits(got, np.eye(2) - (-h) * dense)


@pytest.mark.parametrize("name", EINSUMS)
def test_dense_contractions_match_explicit_einsums(name, enriched14, rng):
    x = rng.normal(size=(50, 7, 2))
    args = _contraction_args(enriched14, name, x, rng)
    dense = getattr(VectorFieldFamily, name)(enriched14, *args)
    if name == "displacement":
        want = np.einsum("mkln,l->mkn", enriched14.values(x), args[1])
    elif name == "layer_matrix":
        want = np.einsum("mklpq,l->mkpq", enriched14.jacobians(x), args[1])
    else:
        want = np.einsum("mkn,mkln->kl", args[1], enriched14.values(x))
    assert np.array_equal(dense, want)


def test_pairing_keeps_middle_axes_and_accepts_strided_slices(affine8, rng):
    states = rng.normal(size=(40, 9, 2))
    lam = rng.normal(size=(40, 9, 2))
    got = np.empty((8, 8))
    affine8._sweep((40, 8)).load(states[:, :-1]).pair(lam[:, 1:], got)
    assert got.shape == (8, 8)
    want = VectorFieldFamily.pairing(affine8, states[:, :-1], lam[:, 1:])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", CONTRACTIONS)
def test_custom_family_inherits_dense_contractions(name, rng):
    fam = make_custom([ROTATION, DIAGONAL_SHIFT])
    assert getattr(type(fam), name) is getattr(VectorFieldFamily, name)
    x = rng.normal(size=(10_000, 2))
    args = _contraction_args(fam, name, x, rng)
    if name == "displacement":
        want = np.einsum("mln,l->mn", fam.values(x), args[1])
    elif name == "layer_matrix":
        want = np.einsum("mlpq,l->mpq", fam.jacobians(x), args[1])
    elif name == "layer_factor":
        want = np.eye(2) + args[2] * np.einsum("mlpq,l->mpq", fam.jacobians(x), args[1])
    else:
        want = np.einsum("mn,mln->l", args[1], fam.values(x))
    assert np.array_equal(getattr(fam, name)(*args), want)


@pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 3, 0.7, 1.0])
@pytest.mark.parametrize("maker", [make_affine8, make_enriched14])
def test_closed_form_adjoint_step_equals_dense_step_bit_for_bit(maker, h, rng):
    fam = maker(20.0)
    x = rng.normal(scale=1.5, size=(900, 2))
    x.reshape(-1)[::5] = 0.0  # grid points on the axes
    lam = rng.normal(size=(900, 2))
    lam[::3] = -0.0  # rows of signed zeros
    lam[1::7, 0] = 0.0
    for u_row in (rng.normal(size=fam.n_fields), np.where(np.arange(fam.n_fields) % 2, -0.0, 0.0)):
        row, step = _sweep_kernel(fam, "adjoint_step", x, u_row, lam, h)
        dense_row, dense_step = VectorFieldFamily.adjoint_step(fam, x, u_row, lam, h)
        assert row.shape == (fam.n_fields,) and step.shape == lam.shape
        assert_same_bits(row, dense_row)
        assert_same_bits(step, dense_step)


def _flat(result):
    """A result as one flat array; ``adjoint_step`` returns two."""
    return np.concatenate([np.ravel(part) for part in (result if isinstance(result, tuple) else (result,))])


@pytest.mark.parametrize("name", ("values", "jacobians") + CONTRACTIONS + ("adjoint_step",))
@pytest.mark.parametrize("maker", [make_affine8, make_enriched14])
def test_public_calls_are_quiet_where_the_squares_overflow(maker, name, rng):
    """At |x|^2 = inf, g is 0 and x1^2 g is inf * 0: the NaN of a kernel, with no warning (an error under pytest)."""
    fam = maker(20.0)
    x = np.array([[1e200, 0.0], [0.5, -0.25], [1e200, 1e200]])
    args = (x,) if name in ("values", "jacobians") else _contraction_args(fam, name, x, rng)
    got = _flat(getattr(fam, name)(*args))
    assert np.isnan(got).any() == (fam.kind == "enriched14")
    if name in CLOSED_FORMS + ("adjoint_step",):
        with np.errstate(over="ignore", invalid="ignore"):  # the forward flow's
            want = _flat(_sweep_kernel(fam, name, *args))
        assert np.array_equal(got, want, equal_nan=True)


def test_dense_adjoint_step_is_the_pairing_and_the_transposed_layer():
    fam = make_affine8(20.0)
    rng = np.random.Generator(np.random.Philox(2))
    x, lam, u_row = rng.normal(size=(40, 2)), rng.normal(size=(40, 2)), rng.normal(size=8)
    row, step = VectorFieldFamily.adjoint_step(fam, x, u_row, lam, 0.25)
    assert np.array_equal(row, fam.pairing(x, lam))
    want = np.einsum("mp,mpn->mn", lam, np.eye(2) + 0.25 * np.einsum("mlpq,l->mpq", fam.jacobians(x), u_row))
    assert np.array_equal(step, want)


# The peak bytes that the closed form of a contraction, one node of a fresh
# sweep on 10^4 points, may allocate with its output, in float columns of
# 10^4 values: its measured peak (6.02, 9.03, 11.06 and 19.07 columns)
# rounded up to a whole column.  The sums are assembled in place, into the
# output and one scratch column.
PEAK_COLUMNS = {
    ("affine8", "displacement"): 7,
    ("enriched14", "displacement"): 10,
    ("affine8", "adjoint_step"): 12,
    ("enriched14", "adjoint_step"): 22,
}


@pytest.mark.parametrize("kind, name", sorted(PEAK_COLUMNS))
def test_closed_forms_assemble_their_sums_in_place(kind, name):
    fam = family_from_name(kind, 20.0)
    rng = np.random.Generator(np.random.Philox(7))
    x = np.asfortranarray(rng.uniform(-1.5, 1.5, size=(10_000, 2)))
    args = (x, rng.normal(size=fam.n_fields))
    if name == "adjoint_step":
        args += (np.asfortranarray(rng.normal(size=x.shape)), 1.0 / 16)
    _sweep_kernel(fam, name, *args)
    tracemalloc.start()
    try:
        _sweep_kernel(fam, name, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_COLUMNS[kind, name] * x[:, 0].nbytes
