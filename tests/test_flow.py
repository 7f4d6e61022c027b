"""Flow map, covector transport, variational Jacobian, commutator probe.

The dense references that the flow and the transport are checked against
bit for bit, and the ``nan_jacobian_family``, come from ``oracle.py``.
"""

import re
import tracemalloc

import numpy as np
import pytest

from diffeoflow import (
    ControlGrid,
    FieldSpec,
    FlowError,
    VectorFieldFamily,
    backward_covector,
    flow_endpoints,
    forward_euler,
    make_affine8,
    make_custom,
    make_enriched14,
)
from diffeoflow import flow
from diffeoflow.flow import (
    _screen,
    _solve_backward,
    _spectral_norm_2x2,
    layer_matrix,
    variational_jacobian,
)
from diffeoflow.objective import control_gradient

from oracle import (
    ROTATION,
    assert_same_bits,
    explicit_covectors,
    lapack_transport,
    nan_jacobian_family,
    per_layer_transport,
    rows_are_contiguous,
)


def linear_grid(n_layers, a11, a12, a21, a22):
    """Constant controls on the four linear fields of affine8."""
    u = np.zeros((n_layers, 8))
    u[:, 4] = a11
    u[:, 5] = a12
    u[:, 6] = a21
    u[:, 7] = a22
    return ControlGrid(u)


def test_zero_control_is_identity(affine8, rng):
    pts = rng.uniform(-2, 2, size=(20, 2))
    states = forward_euler(affine8, ControlGrid.zeros(16, 8), pts)
    assert states.shape == (20, 17, 2)
    assert np.array_equal(states, np.broadcast_to(pts[:, None, :], (20, 17, 2)))


def test_constant_fields_translate_exactly(affine8, rng):
    u = np.zeros((8, 8))
    u[:, 0] = -0.7
    u[:, 1] = 0.3
    pts = rng.uniform(-2, 2, size=(15, 2))
    end = forward_euler(affine8, ControlGrid(u), pts)[:, -1]
    assert np.allclose(end, pts + np.array([-0.7, 0.3]), rtol=0, atol=1e-15)


def test_linear_fields_match_matrix_power(affine8, rng):
    n = 16
    grid = linear_grid(n, 0.4, -0.9, 0.2, 0.1)
    step_mat = np.eye(2) + (1.0 / n) * np.array([[0.4, -0.9], [0.2, 0.1]])
    total = np.linalg.matrix_power(step_mat, n)
    pts = rng.uniform(-2, 2, size=(10, 2))
    end = forward_euler(affine8, grid, pts)[:, -1]
    want = pts @ total.T
    assert np.allclose(end, want, rtol=1e-12, atol=1e-14)


def test_scalar_stretch_endpoint(affine8):
    # Two layers of unit control on the x1-stretching field: each step
    # multiplies x1 by 1.5, so (1, 0) lands on (2.25, 0).
    u = np.zeros((2, 8))
    u[:, 4] = 1.0
    states = forward_euler(affine8, ControlGrid(u), np.array([[1.0, 0.0]]))
    assert np.allclose(states[0, -1], [2.25, 0.0], rtol=0, atol=1e-15)
    assert np.allclose(states[0, 1], [1.5, 0.0], rtol=0, atol=1e-15)


def test_explicit_covector_known_value(affine8):
    # One layer, h = 1, control 3 on the x1-stretching field. The explicit
    # transport multiplies the first component by (1 + 3) = 4.
    u = np.zeros((1, 8))
    u[0, 4] = 3.0
    states = forward_euler(affine8, ControlGrid(u), np.array([[1.0, 0.0]]))
    lam0 = explicit_covectors(affine8, ControlGrid(u), states, np.array([[1.0, 1.0]]))[1]
    assert np.allclose(lam0[0], [4.0, 1.0], rtol=0, atol=1e-14)


def test_explicit_covector_dual_to_variational_jacobian(affine8, rng):
    u = ControlGrid(rng.normal(scale=0.4, size=(12, 8)))
    x0 = rng.uniform(-1, 1, size=(5, 2))
    states = forward_euler(affine8, u, x0)
    term = rng.normal(size=(5, 2))
    lam0 = explicit_covectors(affine8, u, states, term)[1]
    v0 = rng.normal(size=(5, 2))
    for m in range(5):
        v_end = variational_jacobian(affine8, u, x0[m : m + 1])[0] @ v0[m]
        assert abs(term[m] @ v_end - lam0[m] @ v0[m]) <= 1e-10


def smooth_controls(n_layers, n_fields):
    s = (np.arange(n_layers) + 0.5) / n_layers
    u = np.zeros((n_layers, n_fields))
    u[:, 4] = 0.8 * np.sin(2 * np.pi * s)
    u[:, 5] = -0.6 * np.cos(np.pi * s)
    u[:, 1] = 0.5
    return ControlGrid(u)


def test_scheme_mismatch_shrinks_under_refinement(affine8):
    """Implicit and explicit transport agree as the layer count grows.

    A single backward step differs by O(h^2); composing N of them leaves an
    O(h) gap across the whole pipeline.  Halving the step should shrink the
    one-step gap about 4x and the pipeline gap about 2x.
    """
    x = np.array([[0.4, -0.3]])
    u_row = np.array([0.0, 0.5, 0.0, 0.0, 0.8, -0.6, 0.3, 0.2])
    a = layer_matrix(affine8, x, u_row)[0]
    term = np.array([1.0, 2.0])
    one_step = []
    for h in (1 / 8, 1 / 16, 1 / 32, 1 / 64):
        explicit = term @ (np.eye(2) + h * a)
        implicit = np.linalg.solve((np.eye(2) - h * a).T, term)
        one_step.append(np.abs(explicit - implicit).max())
    for coarse, fine in zip(one_step, one_step[1:]):
        assert 3.5 < coarse / fine < 4.5

    x0 = np.array([[0.4, -0.3]])
    terminal = np.array([[1.0, 2.0]])
    pipeline = []
    for n in (8, 16, 32, 64):
        u = smooth_controls(n, 8)
        states = forward_euler(affine8, u, x0)
        li = backward_covector(affine8, u, states, terminal)
        le = explicit_covectors(affine8, u, states, terminal)[1]
        pipeline.append(np.abs(li[0, 0] - le[0]).max())
    for coarse, fine in zip(pipeline, pipeline[1:]):
        assert 1.6 < coarse / fine < 2.5


def test_forward_is_permutation_equivariant(affine8, rng):
    u = ControlGrid(rng.normal(scale=0.3, size=(10, 8)))
    pts = rng.uniform(-1, 1, size=(30, 2))
    perm = rng.permutation(30)
    direct = forward_euler(affine8, u, pts)
    shuffled = forward_euler(affine8, u, pts[perm])
    assert np.array_equal(direct[perm], shuffled)


def test_overflow_raises_flow_error(affine8):
    # The first step is still finite (about 2.5e199); squaring it inside
    # the next layer overflows, so the error is reported at layer 2.
    u = np.zeros((4, 8))
    u[:, 4] = 1e200
    with np.errstate(over="ignore"), pytest.raises(FlowError) as err:
        forward_euler(affine8, ControlGrid(u), np.array([[1.0, 1.0], [2.0, 2.0]]))
    assert err.value.layer == 2
    assert err.value.sample == 0


@pytest.mark.parametrize("n_layers", [1, 2, 5, 16])
@pytest.mark.parametrize("n_pts", [1, 900])
@pytest.mark.parametrize("kind", ["affine8", "enriched14"])
def test_flow_endpoints_equal_the_last_trajectory_node_bit_for_bit(kind, n_pts, n_layers, request, rng):
    family = request.getfixturevalue(kind)
    u = ControlGrid(rng.normal(scale=2.0, size=(n_layers, family.n_fields)))
    pts = rng.uniform(-1.5, 1.5, size=(n_pts, 2))
    pts[: n_pts // 2] *= 1e-300  # underflowing products and signed zeros in the fields
    pts[0] = [-0.0, 0.0]
    assert_same_bits(flow_endpoints(family, u, pts), forward_euler(family, u, pts)[:, -1])


@pytest.mark.parametrize("n_layers", [3, 4])
def test_every_flow_raises_the_trajectory_flow_error(affine8, n_layers):
    u = np.zeros((n_layers, 8))
    u[:, 4] = 1e200  # stretches x1 only, so the sample with x1 = 0 stays finite
    pts = np.array([[0.0, 1.0], [2.0, 2.0], [1.0, 1.0]])
    errors = []
    for fn in (forward_euler, flow_endpoints, variational_jacobian):
        with pytest.raises(FlowError) as err:
            fn(affine8, ControlGrid(u), pts)
        errors.append((str(err.value), err.value.sample, err.value.layer))
    assert errors[0] == errors[1] == errors[2]
    assert errors[0][1:] == (1, 2)


def test_checked_rows_are_the_only_ones_the_flow_checks(affine8):
    # x1 doubles on each of 4 layers, and its displacement 4 x1 overflows
    # first at layer 1 from 1e308 and at layer 2 from 3e307; (1, 1) stays finite.
    u = linear_grid(4, 4.0, 0.0, 0.0, 0.0)
    pts = np.array([[1.0, 1.0], [1e308, 0.0], [3e307, 1.0]])
    states = forward_euler(affine8, u, pts, checked=1)
    assert np.isfinite(states[0]).all()
    assert not np.isfinite(states[1, 1:, 0]).any() and not np.isfinite(states[2, 2:, 0]).any()
    assert np.array_equal(states[:1], forward_euler(affine8, u, pts[:1]))
    for checked in (2, 3, None):
        with pytest.raises(FlowError) as err:
            forward_euler(affine8, u, pts, checked=checked)
        assert (err.value.sample, err.value.layer) == (1, 1)
    with pytest.raises(FlowError) as err:
        forward_euler(affine8, u, pts[[0, 2, 1]], checked=2)
    assert (err.value.sample, err.value.layer) == (1, 2)


def test_flows_name_the_overflowing_layer_though_the_row_turns_nan_after_it(affine8):
    # The flow checks node N only.  Sample 1 doubles x1 on layers 1 and 2,
    # reaching inf at layer 2; layer 3 subtracts it from itself, so it is NaN
    # from then on.  The error still names layer 2; (1, 1) and (2, 0.5) stay finite.
    u = linear_grid(4, 0.0, 0.0, 0.0, 0.0)
    u.values[:, 4] = [4.0, 4.0, -4.0, 0.0]
    pts = np.array([[1.0, 1.0], [3e307, 0.0], [2.0, 0.5]])
    states = forward_euler(affine8, u, pts, checked=1)
    assert np.isfinite(states[1, 1, 0]) and states[1, 2, 0] == np.inf and np.isnan(states[1, 3:, 0]).all()
    assert np.isfinite(states[[0, 2]]).all()
    flows = {
        "forward_euler": lambda: forward_euler(affine8, u, pts),
        "forward_euler checked": lambda: forward_euler(affine8, u, pts, checked=2),
        "flow_endpoints": lambda: flow_endpoints(affine8, u, pts),
    }
    for name, run in flows.items():
        with pytest.raises(FlowError, match="^non-finite state for sample 1 at layer 2; ") as err:
            run()
        assert (err.value.sample, err.value.layer) == (1, 2), name


def wavy_planar_family():
    """A custom planar family, flowed through the dense einsum of ``values``."""
    return make_custom([
        FieldSpec(value=lambda x: np.stack([np.sin(x[..., 1]), x[..., 0] * x[..., 1]], axis=-1),
                  jacobian=lambda x: np.zeros(x.shape + (2,))),
        FieldSpec(value=lambda x: np.stack([np.exp(-x[..., 0] ** 2), np.cos(x[..., 0])], axis=-1),
                  jacobian=lambda x: np.zeros(x.shape + (2,))),
    ])


def counted_blocks(family, monkeypatch):
    """Record each ``family._sweep``, one per row block, as its rows and the rows of each factor its kernel makes.

    In a flow the ``factor`` kernel reads the node that the Euler step loaded.
    """
    sweeps = []
    plain = type(family)._sweep

    def counted(fam, shape):
        sweep, factors = plain(fam, shape), []
        kernel = sweep.factor

        def factor(*args):
            out = kernel(*args)
            factors.append(out.shape[0])
            return out

        sweep.factor = factor
        sweeps.append((shape[0], factors))
        return sweep

    monkeypatch.setattr(type(family), "_sweep", counted)
    return sweeps


@pytest.mark.parametrize("kind", ["affine8", "enriched14", "custom"])
def test_row_blocks_change_no_bit(kind, request, rng, monkeypatch):
    family = wavy_planar_family() if kind == "custom" else request.getfixturevalue(kind)
    u = ControlGrid(rng.normal(scale=2.0, size=(5, family.n_fields)))
    pts = rng.uniform(-1.5, 1.5, size=(25, 2))
    pts[:6] *= 1e-300  # underflowing products and signed zeros in the fields
    pts[3] = [-0.0, 0.0]
    flows = (forward_euler, flow_endpoints, variational_jacobian)
    whole = [fn(family, u, pts) for fn in flows]
    sweeps, blocks = counted_blocks(family, monkeypatch), [7, 7, 7, 4]
    monkeypatch.setattr(flow, "_BLOCK_ROWS", 7)  # three full blocks and a ragged tail of 4
    blocked = [fn(family, u, pts) for fn in flows]
    # One sweep per block, through all five layers; the Jacobian's flow takes one factor step per layer.
    assert sweeps == [(n, []) for n in 2 * blocks] + [(n, [n] * 5) for n in blocks]
    for one, many in zip(whole, blocked):
        assert one.strides == many.strides
        assert one.tobytes() == many.tobytes()


def overflowing(n_pts, **layers):
    """Points (1, 1) except x1 = 1e308 at the samples to overflow at layer 1, 3e307 at layer 2.

    Under ``linear_grid(4, 4.0, 0, 0, 0)`` x1 doubles on each layer, and its
    displacement 4 x1 overflows at layer 1 from 1e308 and at layer 2 from 3e307.
    """
    pts = np.ones((n_pts, 2))
    pts[layers.get("at_1", []), 0] = 1e308
    pts[layers.get("at_2", []), 0] = 3e307
    return pts


def test_an_overflow_in_an_early_block_fails_the_flow(affine8, monkeypatch):
    u = linear_grid(4, 4.0, 0.0, 0.0, 0.0)
    monkeypatch.setattr(flow, "_BLOCK_ROWS", 7)
    pts = overflowing(25, at_1=[3])  # the first block only; the last block stays finite
    for run in (flow_endpoints, forward_euler, variational_jacobian):
        with pytest.raises(FlowError, match="^non-finite state for sample 3 at layer 1; ") as err:
            run(affine8, u, pts)
        assert (err.value.sample, err.value.layer) == (3, 1)


def test_overflows_in_two_blocks_name_the_earliest_layer_as_one_block_does(affine8, monkeypatch):
    u = linear_grid(4, 4.0, 0.0, 0.0, 0.0)
    pts = overflowing(25, at_2=[2], at_1=[20, 9])  # blocks 0, 2 and 1 of 7 rows
    flows = {
        "forward_euler": lambda: forward_euler(affine8, u, pts),
        "flow_endpoints": lambda: flow_endpoints(affine8, u, pts),
        "variational_jacobian": lambda: variational_jacobian(affine8, u, pts),
    }
    errors = {}
    for block_rows in (flow._BLOCK_ROWS, 7):
        monkeypatch.setattr(flow, "_BLOCK_ROWS", block_rows)
        for name, run in flows.items():
            with pytest.raises(FlowError) as err:
                run()
            errors[name, block_rows] = (str(err.value), err.value.sample, err.value.layer)
    assert len(set(errors.values())) == 1
    assert errors["flow_endpoints", 7][1:] == (9, 1)


def test_checked_rows_end_inside_a_later_block(affine8, monkeypatch):
    # checked = 10 ends inside the second block of 7 rows: sample 12 overflows
    # first, at layer 1, but it is not checked; sample 8 overflows at layer 2.
    u = linear_grid(4, 4.0, 0.0, 0.0, 0.0)
    monkeypatch.setattr(flow, "_BLOCK_ROWS", 7)
    states = forward_euler(affine8, u, overflowing(25, at_1=[12]), checked=10)
    assert not np.isfinite(states[12, 1:, 0]).any() and np.isfinite(np.delete(states, 12, axis=0)).all()
    nodes = flow._euler(affine8, u, overflowing(25, at_1=[12]), 2, checked=10)
    assert np.array_equal(nodes[0].T, states[:, -1], equal_nan=True)
    pts = overflowing(25, at_1=[12], at_2=[8])
    for keep in (2, u.n_layers + 1):
        with pytest.raises(FlowError, match="^non-finite state for sample 8 at layer 2; ") as err:
            flow._euler(affine8, u, pts, keep, checked=10)
        assert (err.value.sample, err.value.layer) == (8, 2)


def test_flows_take_bundles_shaped_for_the_controls(affine8):
    u = ControlGrid.zeros(3, 8)
    with pytest.raises(ValueError, match=re.escape("points have shape (2,), expected (M, 2)")):
        forward_euler(affine8, u, np.zeros(2))
    with pytest.raises(ValueError, match="control has 7 field columns"):  # checked first
        forward_euler(affine8, ControlGrid.zeros(3, 7), np.zeros(2))
    states = forward_euler(affine8, u, np.zeros((5, 2)))
    on_trajectories = [
        lambda fam, u, s: backward_covector(fam, u, s, np.ones((5, 2))),
        lambda fam, u, s: control_gradient(fam, u, s, np.ones((5, 2)), 0.0),
    ]
    for fn in on_trajectories:
        with pytest.raises(ValueError, match=re.escape("points have shape (5, 3, 2), expected (M, 4, 2)")):
            fn(affine8, u, states[:, 1:])
    assert forward_euler(affine8, u, np.zeros((0, 2))).shape == (0, 4, 2)


def test_singular_implicit_transport_raises(affine8):
    # With h = 1 and unit control on the x1-stretching field, the implicit
    # factor Id - h A has a zero row and cannot be inverted.
    u = np.zeros((1, 8))
    u[0, 4] = 1.0
    states = forward_euler(affine8, ControlGrid(u), np.array([[1.0, 0.0]]))
    with pytest.raises(FlowError):
        backward_covector(affine8, ControlGrid(u), states, np.array([[1.0, 1.0]]))


def test_nan_factor_fails_the_guard_naming_its_sample_and_layer(monkeypatch):
    # LAPACK cannot decompose a NaN factor, so it must not see it: the
    # closed-form screen ranks it worst with condition inf.
    fam = nan_jacobian_family()
    u = ControlGrid(np.ones((1, 1)))
    states = forward_euler(fam, u, np.array([[1.0, 1.0], [0.0, 1.0]]))
    shapes = []
    lapack_cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda m: shapes.append(np.shape(m)) or lapack_cond(m))
    with pytest.raises(FlowError, match="sample 1 at layer 1 .condition estimate inf") as err:
        backward_covector(fam, u, states, np.ones((2, 2)))
    assert (err.value.sample, err.value.layer) == (1, 1)
    assert shapes == [(0, 2, 2)]  # the finite factors only


def test_variational_jacobian_closed_form(affine8, rng):
    assert np.allclose(
        variational_jacobian(affine8, ControlGrid.zeros(6, 8), np.array([[0.3, 0.5]]))[0],
        np.eye(2),
        atol=1e-15,
    )
    n = 16
    grid = linear_grid(n, 0.4, -0.9, 0.2, 0.1)
    step_mat = np.eye(2) + (1.0 / n) * np.array([[0.4, -0.9], [0.2, 0.1]])
    want = np.linalg.matrix_power(step_mat, n)
    got = variational_jacobian(affine8, grid, np.array([[1.3, -0.2]]))[0]
    assert np.allclose(got, want, rtol=1e-12)

    # Nonlinear case against central differences of the endpoint map.
    u = ControlGrid(rng.normal(scale=0.4, size=(12, 8)))
    x = np.array([0.7, -0.4])
    got = variational_jacobian(affine8, u, x[None])[0]
    eps = 1e-6
    for d in range(2):
        e = np.zeros(2)
        e[d] = eps
        hi = forward_euler(affine8, u, (x + e)[None])[0, -1]
        lo = forward_euler(affine8, u, (x - e)[None])[0, -1]
        assert np.allclose(got[:, d], (hi - lo) / (2 * eps), atol=1e-7)


def test_control_grid_validation():
    with pytest.raises(ValueError):
        ControlGrid(np.zeros(8))
    with pytest.raises(ValueError):
        ControlGrid(np.array([[1.0, np.nan]]))
    g = ControlGrid(np.full((4, 3), 2.0))
    assert g.n_layers == 4
    assert g.n_fields == 3
    assert g.step == 0.25
    assert np.isclose(g.l2_norm_sq(), 0.25 * 12 * 4.0)


def test_commutator_defect_shrinks_for_noncommuting_pair(affine8, commutator_defect):
    rs = [commutator_defect(affine8, 5, 6, np.array([1.0, 1.0]), h) for h in (0.2, 0.1, 0.05)]
    assert rs[0] > rs[1] > rs[2] > 0


def test_commutator_defect_vanishes_for_commuting_pair(affine8, commutator_defect):
    # The two constant fields commute, so the composed back-and-forth flows
    # cancel to machine precision at any step size.
    r = commutator_defect(affine8, 0, 1, np.array([0.5, -0.2]), 0.1)
    assert r <= 1e-12


def test_guard_names_the_one_singular_sample_and_its_layer(affine8):
    # On layer 3 the damped field 2 and the x1-stretch field 4 give
    # Id - h A a (0, 0) entry of 1 - h (u2 dg/dx1 + u4) = 1 - h u4 = 0 exactly
    # where x1 = 0 (dg/dx1 vanishes there), and about 0.05 elsewhere.  Layer 1
    # does the same along x2 with fields 3 and 7, singular only at sample 4,
    # where x2 = 0; it leaves x1 alone, so sample 2 stays on x1 = 0.
    u = np.zeros((4, 8))
    u[2, 2] = 5.0
    u[2, 4] = 4.0
    u[0, 3] = 5.0
    u[0, 7] = 4.0
    pts = np.array([[1.0, 0.5], [-0.8, 0.2], [0.0, 0.7], [0.6, -0.9], [0.3, 0.0]])
    states = forward_euler(affine8, ControlGrid(u), pts)
    # The transport reaches layer 3 first, so it is the one reported.
    with pytest.raises(FlowError, match="sample 2 at layer 3") as err:
        backward_covector(affine8, ControlGrid(u), states, np.ones((5, 2)))
    assert (err.value.sample, err.value.layer) == (2, 3)
    # Layer 1 alone reports its own worst sample.
    u[2] = 0.0
    states = forward_euler(affine8, ControlGrid(u), pts)
    with pytest.raises(FlowError, match="sample 4 at layer 1") as err:
        backward_covector(affine8, ControlGrid(u), states, np.ones((5, 2)))
    assert (err.value.sample, err.value.layer) == (4, 1)


def test_guard_limit_applies_to_the_lapack_condition_of_the_worst_sample(affine8, rng, monkeypatch):
    u = ControlGrid(rng.normal(scale=2.0, size=(1, 8)))
    pts = rng.uniform(-1.5, 1.5, size=(500, 2))
    states = forward_euler(affine8, u, pts)
    conds = np.linalg.cond(np.eye(2) - u.step * layer_matrix(affine8, pts, u.values[0]))
    worst = int(np.argmax(conds))
    term = rng.normal(size=(500, 2))
    monkeypatch.setattr(flow, "CONDITION_LIMIT", conds[worst] * (1 - 1e-12))
    with pytest.raises(FlowError) as err:
        backward_covector(affine8, u, states, term)
    assert (err.value.sample, err.value.layer) == (worst, 1)
    assert f"{conds[worst]:.3e}" in str(err.value)
    monkeypatch.setattr(flow, "CONDITION_LIMIT", conds[worst] * (1 + 1e-12))
    backward_covector(affine8, u, states, term)


@pytest.mark.parametrize("seed", range(5))
def test_closed_form_screen_picks_the_lapack_argmax(seed, monkeypatch):
    rng = np.random.Generator(np.random.Philox(seed))
    mats = np.eye(2) + 0.3 * rng.normal(size=(10_000, 2, 2))
    conds = np.linalg.cond(mats)
    j = int(np.argmax(conds))
    monkeypatch.setattr(flow, "CONDITION_LIMIT", 0.0)
    want = re.escape(f"sample {j} at layer 1 (condition estimate {conds[j]:.3e} ")
    with pytest.raises(FlowError, match=want) as err:
        _screen(mats[None], np.empty((2, 1, len(mats))))
    assert (err.value.sample, err.value.layer) == (j, 1)
    smax = _spectral_norm_2x2(mats)
    screen = smax * smax / np.abs(np.linalg.det(mats))
    assert np.allclose(screen, conds, rtol=1e-10)


def test_planar_guard_screens_every_layer_in_one_lapack_call(monkeypatch):
    # F_a = (x1^2 / 2, 0) and F_b = (0, x2^2 / 2) have DF_a = diag(x1, 0) and
    # DF_b = diag(0, x2).  With h u = 1, layer 3 (on F_a) has a singular
    # factor exactly where x1 = 1, at sample 2, and layer 1 (on F_b) where
    # x2 = 1, at sample 4; layer 1 leaves x1 alone.
    half_squares = [
        FieldSpec(
            value=lambda x, a=a: np.einsum("...,p->...p", 0.5 * x[..., a] ** 2, np.eye(2)[a]),
            jacobian=lambda x, a=a: np.einsum("...,pq->...pq", x[..., a], np.diag(np.eye(2)[a])),
        )
        for a in (0, 1)
    ]
    fam = make_custom(half_squares)
    u = np.zeros((4, 2))
    u[2, 0] = 4.0
    u[0, 1] = 4.0
    pts = np.array([[0.2, 0.5], [-0.8, 0.2], [1.0, 0.7], [0.6, -0.9], [0.3, 1.0]])
    shapes = []
    lapack_cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda m: shapes.append(np.shape(m)) or lapack_cond(m))
    states = forward_euler(fam, ControlGrid(u), pts)
    with pytest.raises(FlowError, match="sample 2 at layer 3") as err:
        backward_covector(fam, ControlGrid(u), states, np.ones((5, 2)))
    assert (err.value.sample, err.value.layer) == (2, 3)
    assert shapes == [(4, 2, 2)]  # each layer's worst sample, all 4 layers at once
    # Layer 1 alone reports its own worst sample.
    u[2] = 0.0
    states = forward_euler(fam, ControlGrid(u), pts)
    with pytest.raises(FlowError, match="sample 4 at layer 1") as err:
        backward_covector(fam, ControlGrid(u), states, np.ones((5, 2)))
    assert (err.value.sample, err.value.layer) == (4, 1)


def test_planar_transport_makes_one_lapack_call(affine8, rng, monkeypatch):
    # The closed-form screen picks the worst sample of every layer, and one
    # LAPACK call gives the condition numbers of those 16 matrices.  The
    # solves replay dgesv without LAPACK.
    u = ControlGrid(rng.normal(scale=0.5, size=(16, 8)))
    states = forward_euler(affine8, u, rng.uniform(-1.5, 1.5, size=(900, 2)))
    shapes, solves = [], []
    lapack_cond, lapack_solve = np.linalg.cond, np.linalg.solve
    monkeypatch.setattr(np.linalg, "cond", lambda m: shapes.append(np.shape(m)) or lapack_cond(m))
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(np.shape(a)) or lapack_solve(a, b))
    lam = backward_covector(affine8, u, states, rng.normal(size=(900, 2)))
    assert np.isfinite(lam).all()
    assert shapes == [(16, 2, 2)]
    assert solves == []


def replica_transport(factors, terminal):
    """``_solve_backward`` in the (N+1, M, dim) shape of ``lapack_transport``.

    The solve consumes a copy of ``factors``, and its LAPACK fallback reads
    the rows it asks for from the original.
    """
    lam = np.empty((factors.shape[0] + 1, 2, factors.shape[1]))
    _solve_backward(factors.copy(), terminal, lam, lambda k, rows: factors[k - 1, rows])
    return lam.transpose(0, 2, 1)


def test_planar_solve_is_lapacks_bit_for_bit(rng):
    n = 40_000
    # Factors near the identity, factors with independently scaled entries,
    # and exact pivot ties |a10| = |a00| (a10 = B[0, 1], a00 = B[0, 0]).
    near = np.eye(2) + 10.0 ** rng.uniform(-3, 3, size=(n, 1, 1)) * rng.normal(size=(n, 2, 2))
    spread = rng.choice([-1.0, 1.0], size=(n, 2, 2)) * 10.0 ** rng.uniform(-3, 3, size=(n, 2, 2))
    ties = spread.copy()
    ties[:, 0, 1] = rng.choice([-1.0, 1.0], size=n) * ties[:, 0, 0]
    factors = np.concatenate([near, spread, ties])
    rhs = rng.normal(size=(3 * n, 2)) * 10.0 ** rng.uniform(-8, 8, size=(3 * n, 2))
    rhs[::7] *= 1e-310  # subnormal
    rhs[rng.random(rhs.shape) < 0.05] = 0.0
    rhs[rng.random(rhs.shape) < 0.05] = -0.0
    keep = np.linalg.cond(factors) <= flow.CONDITION_LIMIT  # what the guard lets through
    factors, rhs = factors[keep][None], rhs[keep]
    assert factors.shape[1] >= 100_000
    swapped = np.abs(factors[0, :, 0, 1]) > np.abs(factors[0, :, 0, 0])
    assert 10_000 < swapped.sum() < factors.shape[1] - 10_000
    assert_same_bits(replica_transport(factors, rhs), lapack_transport(factors, rhs))


@pytest.mark.parametrize("n_pts, n_layers", [(1, 3), (900, 16), (5000, 4)])
def test_planar_transport_is_lapacks_bit_for_bit_over_layers(n_pts, n_layers, rng):
    factors = np.eye(2) + 0.2 * rng.normal(size=(n_layers, n_pts, 2, 2))
    terminal = rng.normal(size=(n_pts, 2))
    assert_same_bits(replica_transport(factors, terminal), lapack_transport(factors, terminal))


def test_stacked_matmul_rounds_like_one_fused_multiply_add(rng):
    # _solve_backward replays dgetrs's fma(-l, c0, c1) as the stacked matmul
    # of the rows (1, -l) with the columns (c1, c0); check that against the
    # exactly rounded value, for contiguous and strided operands.
    from fractions import Fraction

    n = 3000
    l = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
    c0 = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, size=n)
    c1 = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, size=n)
    c1[::2] = l[::2] * c0[::2] * (1.0 + rng.normal(scale=1e-10, size=n // 2))  # cancellation
    want = np.array([float(Fraction(b) - Fraction(a) * Fraction(c)) for a, b, c in zip(l, c1, c0)])
    assert (c1 - l * c0 != want).sum() > 100  # unfused arithmetic would fail this test
    rows = np.stack([np.ones(n), -l], axis=-1)[:, None, :]
    strided_rows = np.repeat(rows, 2, axis=-1)[..., ::2]
    cols = np.stack([c1, c0], axis=-1)[..., None]
    strided_cols = np.stack([c1, c0])[:, :, None].transpose(1, 0, 2)
    for lo, hi in [(0, 1), (1, 3), (3, 67), (67, 967), (967, n)]:
        for r, c in [(rows, cols), (strided_rows, strided_cols)]:
            assert_same_bits((r[lo:hi] @ c[lo:hi])[:, 0, 0], want[lo:hi])


def test_subnormal_pivots_get_lapacks_answer_through_the_fallback(rng, monkeypatch):
    factors = np.eye(2) + 0.3 * rng.normal(size=(2, 40, 2, 2))
    factors[1, :5] *= 1e-310  # every entry subnormal on five samples of layer 2
    terminal = rng.normal(size=(40, 2))
    terminal[:5] *= 1e-310  # so that their covectors stay finite
    want = lapack_transport(factors, terminal)
    solves = []
    lapack_solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(np.shape(a)) or lapack_solve(a, b))
    assert_same_bits(replica_transport(factors, terminal), want)
    assert solves == [(5, 2, 2)]


def test_negative_zero_covectors_keep_lapacks_signs():
    # Identity factors, as under a zero control, and -0.0 entries, as for a
    # point that sits on its target.
    factors = np.broadcast_to(np.eye(2), (3, 6, 2, 2)).copy()
    factors[1, :, 1, 0] = 0.5
    terminal = np.array([[-0.0, 1.0], [1.0, -0.0], [-0.0, -0.0], [0.0, -0.0], [0.5, 0.25], [0.0, 0.0]])
    assert_same_bits(replica_transport(factors, terminal), lapack_transport(factors, terminal))


def rotation_and_bump():
    """A nonlinear planar custom family: the rotation field and a Gaussian bump along e1."""

    def bump(x):
        return np.exp(-0.5 * np.sum(x * x, axis=-1))

    def bump_jacobian(x):
        out = np.zeros(x.shape + (2,))
        out[..., 0, :] = -bump(x)[..., None] * x
        return out

    bump_e1 = FieldSpec(
        value=lambda x: np.stack([bump(x), np.zeros(x.shape[:-1])], axis=-1),
        jacobian=bump_jacobian,
    )
    return make_custom([ROTATION, bump_e1])


FAMILIES = {
    "affine8": lambda: make_affine8(20.0),
    "enriched14": lambda: make_enriched14(20.0),
    "custom": rotation_and_bump,
}


def random_problem(name, n_pts, n_layers, seed=7):
    fam = FAMILIES[name]()
    rng = np.random.Generator(np.random.Philox(seed))
    u = ControlGrid(rng.normal(scale=0.3, size=(n_layers, fam.n_fields)))
    return fam, u, rng.uniform(-1.0, 1.0, size=(n_pts, 2)), rng


@pytest.mark.parametrize("size", [(900, 16), (10_000, 32)], ids=lambda s: f"m{s[0]}_n{s[1]}")
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_transport_and_gradients_do_not_depend_on_the_trajectory_layout(name, size):
    fam, u, pts, rng = random_problem(name, *size)
    states = forward_euler(fam, u, pts)
    dense = np.ascontiguousarray(states)
    assert dense.flags.c_contiguous and not states.flags.c_contiguous
    terminal = rng.normal(size=pts.shape)
    lam = backward_covector(fam, u, states, terminal)
    lam_dense = backward_covector(fam, u, dense, terminal)
    assert rows_are_contiguous(lam) and rows_are_contiguous(lam_dense)
    assert_same_bits(lam, lam_dense)
    targets = pts + 0.5
    grad = control_gradient(fam, u, states, targets, 1e-3)
    grad_dense = control_gradient(fam, u, dense, targets, 1e-3)
    assert_same_bits(grad, grad_dense)


def test_linearizations_of_an_overflowing_node_give_nan_without_a_warning(enriched14):
    # At x1 = 1e200 the square x1^2 is inf and the Gaussian weight 0, so the
    # quadratic fields are inf * 0 = NaN; the suite turns any numpy warning
    # into an error, so each call must meet it silently, as a flow does.
    u, bundle = ControlGrid.zeros(1, 14), np.array([[[1e200, 0.0], [1e200, 0.0]]])
    assert np.isnan(control_gradient(enriched14, u, bundle, np.zeros((1, 2)), 1e-3)).any()
    # The flow of the Jacobian goes NaN at that node too, so it fails; unchecked, its Jacobian is NaN.
    with pytest.raises(FlowError, match="^non-finite state for sample 0 at layer 1; "):
        variational_jacobian(enriched14, u, bundle[:, 0])
    jac = np.empty((1, 2, 2))
    flow._euler(enriched14, u, bundle[:, 0], 2, checked=0, tangent=jac)
    assert np.isnan(jac).all()
    # The transport's factor is NaN too, which its conditioning guard names.
    with pytest.raises(FlowError, match="sample 0 at layer 1"):
        backward_covector(enriched14, u, bundle, np.ones((1, 2)))


class ScaledRotations(VectorFieldFamily):
    """A still flow whose backward factor at x = (s, t) under u is s u_0 [[1, t], [-t, 1]].

    A factor of condition 1 whose entries are all subnormal where s is, so
    that its pivot is below the smallest normal and LAPACK solves that row.
    Its sweep is the dense one with that ``factor`` (no I + h A has such
    entries).
    """

    kind = "scaled_rotations"
    n_fields = 1

    def values(self, x):
        return np.zeros(x.shape[:-1] + (1, 2))

    def jacobians(self, x):
        return np.zeros(x.shape[:-1] + (1, 2, 2))

    def _sweep(self, shape):
        node = super()._sweep(shape)
        node.factor = lambda row, h: self._factor(node.x, row)
        return node

    @staticmethod
    def _factor(x, u_row):
        scale = x[..., 0] * u_row[0]
        out = np.empty(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = out[..., 1, 1] = scale
        out[..., 0, 1] = scale * x[..., 1]
        out[..., 1, 0] = -out[..., 0, 1]
        return out


def transports_into_one_workspace(family, problems):
    """Each (u, states, terminal) transported fresh and into one workspace; assert the same bits."""
    workspace, previous = {}, None
    for u, states, terminal in problems:
        fresh = backward_covector(family, u, states, terminal)
        reused = backward_covector(family, u, states, terminal, workspace=workspace)
        assert_same_bits(reused, fresh)
        assert rows_are_contiguous(reused)
        # The result is a view of the workspace, which the next call refills.
        assert previous is None or np.shares_memory(previous, reused)
        previous = reused


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_a_reused_workspace_gives_the_bits_of_a_fresh_transport(name):
    fam, _, _, rng = random_problem(name, 900, 16)
    problems = []
    for _ in range(5):
        u = ControlGrid(rng.normal(scale=0.3, size=(16, fam.n_fields)))
        states = forward_euler(fam, u, rng.uniform(-1.0, 1.0, size=(900, 2)))
        problems.append((u, states, rng.normal(size=(900, 2))))
    transports_into_one_workspace(fam, problems)


def test_a_reused_workspace_refactors_the_rows_of_subnormal_pivots(rng, monkeypatch):
    fam, n_pts = ScaledRotations(), 40
    problems = []
    for _ in range(5):
        u = ControlGrid(rng.uniform(0.5, 2.0, size=(3, 1)))
        pts = np.stack([rng.uniform(0.5, 1.5, n_pts), rng.uniform(-1.0, 1.0, n_pts)], axis=-1)
        tiny = rng.permutation(n_pts)[:5]
        pts[tiny, 0] *= 1e-310  # every entry of their factors subnormal
        states = forward_euler(fam, u, pts)
        terminal = rng.normal(size=(n_pts, 2))
        terminal[tiny] *= 1e-310  # so that their covectors stay finite
        want = lapack_transport(np.stack([fam._factor(states[:, k], u.values[k]) for k in range(3)]), terminal)
        assert_same_bits(backward_covector(fam, u, states, terminal), want.transpose(1, 0, 2))
        problems.append((u, states, terminal))
    solves = []
    lapack_solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(np.shape(a)) or lapack_solve(a, b))
    transports_into_one_workspace(fam, problems)
    assert solves == 2 * 5 * 3 * [(5, 2, 2)]  # fresh and reused, five problems, three layers


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_a_reused_workspace_keeps_lapacks_signs_of_negative_zero_covectors(name, monkeypatch):
    fam, _, _, rng = random_problem(name, 300, 8)
    problems = []
    for _ in range(5):
        u = ControlGrid(rng.normal(scale=0.3, size=(8, fam.n_fields)))
        states = forward_euler(fam, u, rng.uniform(-1.0, 1.0, size=(300, 2)))
        terminal = rng.normal(size=(300, 2))
        terminal[rng.random(terminal.shape) < 0.05] = -0.0  # as for a point that sits on its target
        assert_same_bits(backward_covector(fam, u, states, terminal), per_layer_transport(fam, u, states, terminal))
        problems.append((u, states, terminal))
    solves = []
    lapack_solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(np.shape(a)) or lapack_solve(a, b))
    transports_into_one_workspace(fam, problems)
    assert solves  # the -0.0 right-hand sides are LAPACK's


def test_a_workspace_left_by_a_guard_error_gives_exact_transports(affine8, rng):
    # The singular layer of test_guard_names_the_one_singular_sample_and_its_layer.
    u = np.zeros((4, 8))
    u[2, 2], u[2, 4] = 5.0, 4.0
    pts = np.array([[1.0, 0.5], [-0.8, 0.2], [0.0, 0.7], [0.6, -0.9], [0.3, 0.0]])
    singular = (ControlGrid(u), forward_euler(affine8, ControlGrid(u), pts), np.ones((5, 2)))
    good = []
    for _ in range(2):
        v = ControlGrid(rng.normal(scale=0.3, size=(4, 8)))
        good.append((v, forward_euler(affine8, v, pts), rng.normal(size=(5, 2))))
    workspace = {}
    for problem in (good[0], singular, good[1], singular, good[0]):
        if problem is singular:
            with pytest.raises(FlowError, match="sample 2 at layer 3"):
                backward_covector(affine8, *problem, workspace=workspace)
            continue
        reused = backward_covector(affine8, *problem, workspace=workspace)
        assert_same_bits(reused, backward_covector(affine8, *problem))


def test_a_warm_workspace_transports_in_little_more_memory():
    fam, u, pts, rng = random_problem("affine8", 3600, 64)
    states, terminal = forward_euler(fam, u, pts), rng.normal(size=(3600, 2))
    bundle = states.nbytes
    workspace = {}
    backward_covector(fam, u, states, terminal, workspace=workspace)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lam = backward_covector(fam, u, states, terminal, workspace=workspace)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.isfinite(lam).all()
    # Warm, the transport makes only the screen's third (N, M) array, the
    # solve's masks and per-layer rows: 0.72 trajectories.  Without a
    # workspace it peaks at 3.69, its factors and covectors included.
    assert peak < 1.0 * bundle, peak / bundle


@pytest.mark.parametrize("name", ["affine8", "enriched14"])
def test_the_variational_jacobian_stores_no_trajectory(name):
    fam, u, pts, _ = random_problem(name, 3 * flow._BLOCK_ROWS, 32)
    trajectory = pts.nbytes * (u.n_layers + 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        jac = variational_jacobian(fam, u, pts)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.isfinite(jac).all()
    # The flow holds the result, two nodes and one block's factors and
    # sweep: 0.24 trajectories for affine8 and 0.29 for enriched14, against
    # 1.17 and 1.21 when the Jacobian was taken along a stored trajectory.
    assert peak < trajectory, peak / trajectory


def test_a_terminal_read_from_the_workspace_is_read_before_the_refill(affine8, rng):
    u = ControlGrid(rng.normal(scale=0.3, size=(4, 8)))
    states = forward_euler(affine8, u, rng.uniform(-1.0, 1.0, size=(50, 2)))
    workspace = {}
    first = backward_covector(affine8, u, states, rng.normal(size=(50, 2)), workspace=workspace)
    want = backward_covector(affine8, u, states, first[:, 0].copy())
    assert_same_bits(backward_covector(affine8, u, states, first[:, 0], workspace=workspace), want)
