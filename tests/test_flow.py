"""Flow map, covector transport, variational Jacobian, commutator probe."""

import numpy as np
import pytest

from diffeoflow import (
    ControlGrid,
    FieldSpec,
    FlowError,
    backward_covector,
    flow_endpoints,
    forward_euler,
    make_affine8,
    make_custom,
    make_enriched14,
)
from diffeoflow import flow
from diffeoflow.flow import _spectral_norm_2x2, _worst_conditioned, layer_matrix, variational_jacobian
from diffeoflow.objective import control_gradient


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


def explicit_covector_at_source(family, u, states, terminal):
    """lambda_0 of the explicit transport lambda_{k-1} = lambda_k (Id + h A_k), via adjoint_step."""
    lam = terminal
    for k in range(u.n_layers, 0, -1):
        lam = family.adjoint_step(states[:, k - 1], u.values[k - 1], lam, u.step)[1]
    return lam


def test_explicit_covector_known_value(affine8):
    # One layer, h = 1, control 3 on the x1-stretching field. The explicit
    # transport multiplies the first component by (1 + 3) = 4.
    u = np.zeros((1, 8))
    u[0, 4] = 3.0
    states = forward_euler(affine8, ControlGrid(u), np.array([[1.0, 0.0]]))
    lam0 = explicit_covector_at_source(affine8, ControlGrid(u), states, np.array([[1.0, 1.0]]))
    assert np.allclose(lam0[0], [4.0, 1.0], rtol=0, atol=1e-14)


def test_explicit_covector_dual_to_variational_jacobian(affine8, rng):
    u = ControlGrid(rng.normal(scale=0.4, size=(12, 8)))
    x0 = rng.uniform(-1, 1, size=(5, 2))
    states = forward_euler(affine8, u, x0)
    term = rng.normal(size=(5, 2))
    lam0 = explicit_covector_at_source(affine8, u, states, term)
    v0 = rng.normal(size=(5, 2))
    for m in range(5):
        v_end = variational_jacobian(affine8, u, x0[m]) @ v0[m]
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
        le = explicit_covector_at_source(affine8, u, states, terminal)
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
    end = flow_endpoints(family, u, pts)
    assert end.shape == (n_pts, 2)
    assert np.array_equal(end.view(np.int64), forward_euler(family, u, pts)[:, -1].view(np.int64))


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


def test_singular_implicit_transport_raises(affine8):
    # With h = 1 and unit control on the x1-stretching field, the implicit
    # factor Id - h A has a zero row and cannot be inverted.
    u = np.zeros((1, 8))
    u[0, 4] = 1.0
    states = forward_euler(affine8, ControlGrid(u), np.array([[1.0, 0.0]]))
    with pytest.raises(FlowError):
        backward_covector(affine8, ControlGrid(u), states, np.array([[1.0, 1.0]]))


def nan_jacobian_family(dim):
    """One field, the constant e_1, whose Jacobian reads NaN where x1 = 0: the flow stays finite."""

    def value(x):
        out = np.zeros_like(x)
        out[..., 0] = 1.0
        return out

    def jacobian(x):
        return np.einsum("...,pq->...pq", np.where(x[..., 0] == 0.0, np.nan, 0.0), np.eye(dim))

    return make_custom([FieldSpec(value=value, jacobian=jacobian)], dim=dim)


@pytest.mark.parametrize("dim", [2, 3])
def test_nan_factor_fails_the_guard_naming_its_sample_and_layer(dim, monkeypatch):
    # LAPACK cannot decompose a NaN factor, so it must not see it: the 2x2
    # screen and the per-layer dim-3 path both rank it worst with condition inf.
    fam = nan_jacobian_family(dim)
    u = ControlGrid(np.ones((1, 1)))
    states = forward_euler(fam, u, np.array([[1.0] * dim, [0.0] + [1.0] * (dim - 1)]))
    shapes = []
    lapack_cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda m: shapes.append(np.shape(m)) or lapack_cond(m))
    with pytest.raises(FlowError, match="sample 1 at layer 1 .condition estimate inf") as err:
        backward_covector(fam, u, states, np.ones((2, dim)))
    assert (err.value.sample, err.value.layer) == (1, 1)
    assert shapes == ([(0, 2, 2)] if dim == 2 else [(1, 3, 3)])  # the finite factors only


def test_variational_jacobian_closed_form(affine8, rng):
    assert np.allclose(
        variational_jacobian(affine8, ControlGrid.zeros(6, 8), np.array([0.3, 0.5])),
        np.eye(2),
        atol=1e-15,
    )
    n = 16
    grid = linear_grid(n, 0.4, -0.9, 0.2, 0.1)
    step_mat = np.eye(2) + (1.0 / n) * np.array([[0.4, -0.9], [0.2, 0.1]])
    want = np.linalg.matrix_power(step_mat, n)
    got = variational_jacobian(affine8, grid, np.array([1.3, -0.2]))
    assert np.allclose(got, want, rtol=1e-12)

    # Nonlinear case against central differences of the endpoint map.
    u = ControlGrid(rng.normal(scale=0.4, size=(12, 8)))
    x = np.array([0.7, -0.4])
    got = variational_jacobian(affine8, u, x)
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
def test_closed_form_screen_picks_the_lapack_argmax(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    mats = np.eye(2) + 0.3 * rng.normal(size=(10_000, 2, 2))
    conds = np.linalg.cond(mats)
    j, worst = _worst_conditioned(mats)
    assert j == int(np.argmax(conds))
    assert worst == conds[j]
    smax = _spectral_norm_2x2(mats)
    screen = smax * smax / np.abs(np.linalg.det(mats))
    assert np.allclose(screen, conds, rtol=1e-10)


def test_three_dimensional_family_goes_through_lapack(monkeypatch):
    # F(x) = (x1^2 / 2, 0, 0) has DF = diag(x1, 0, 0), so with h u = 1 the
    # implicit factor is singular exactly at the sample with x1 = 1.
    half_square = FieldSpec(
        value=lambda x: np.stack([0.5 * x[..., 0] ** 2, 0 * x[..., 1], 0 * x[..., 2]], axis=-1),
        jacobian=lambda x: np.einsum("...,pq->...pq", x[..., 0], np.diag([1.0, 0.0, 0.0])),
    )
    fam = make_custom([half_square], dim=3)
    u = ControlGrid(np.array([[1.0]]))
    pts = np.array([[0.2, 0.0, 1.0], [1.0, 2.0, 0.0], [-0.5, 1.0, 1.0]])
    states = forward_euler(fam, u, pts)
    shapes = []
    lapack_cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda m: shapes.append(np.shape(m)) or lapack_cond(m))
    with pytest.raises(FlowError) as err:
        backward_covector(fam, u, states, np.ones((3, 3)))
    assert (err.value.sample, err.value.layer) == (1, 1)
    assert shapes == [(3, 3, 3)]
    lam = backward_covector(fam, ControlGrid(np.array([[0.5]])), states, np.ones((3, 3)))
    assert np.isfinite(lam).all()
    assert shapes[1:] == [(3, 3, 3)]


def test_three_dimensional_guard_screens_every_layer_in_one_lapack_call(monkeypatch):
    # F_a = (x1^2 / 2, 0, 0) and F_b = (0, x2^2 / 2, 0) have DF_a = diag(x1, 0, 0)
    # and DF_b = diag(0, x2, 0).  With h u = 1, layer 3 (on F_a) has a singular
    # factor exactly where x1 = 1, at sample 2, and layer 1 (on F_b) where
    # x2 = 1, at sample 4; layer 1 leaves x1 alone.
    half_squares = [
        FieldSpec(
            value=lambda x, a=a: np.einsum("...,p->...p", 0.5 * x[..., a] ** 2, np.eye(3)[a]),
            jacobian=lambda x, a=a: np.einsum("...,pq->...pq", x[..., a], np.diag(np.eye(3)[a])),
        )
        for a in (0, 1)
    ]
    fam = make_custom(half_squares, dim=3)
    u = np.zeros((4, 2))
    u[2, 0] = 4.0
    u[0, 1] = 4.0
    pts = np.array(
        [[0.2, 0.5, 0.0], [-0.8, 0.2, 1.0], [1.0, 0.7, 0.0], [0.6, -0.9, 2.0], [0.3, 1.0, -1.0]]
    )
    shapes = []
    lapack_cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda m: shapes.append(np.shape(m)) or lapack_cond(m))
    states = forward_euler(fam, ControlGrid(u), pts)
    with pytest.raises(FlowError, match="sample 2 at layer 3") as err:
        backward_covector(fam, ControlGrid(u), states, np.ones((5, 3)))
    assert (err.value.sample, err.value.layer) == (2, 3)
    assert shapes == [(20, 3, 3)]  # all 4 layers of 5 samples at once
    # Layer 1 alone reports its own worst sample.
    u[2] = 0.0
    states = forward_euler(fam, ControlGrid(u), pts)
    with pytest.raises(FlowError, match="sample 4 at layer 1") as err:
        backward_covector(fam, ControlGrid(u), states, np.ones((5, 3)))
    assert (err.value.sample, err.value.layer) == (4, 1)


def test_planar_transport_makes_one_lapack_call(affine8, rng, monkeypatch):
    # The closed-form screen picks the worst sample of every layer, and one
    # LAPACK call gives the condition numbers of those 16 matrices.
    u = ControlGrid(rng.normal(scale=0.5, size=(16, 8)))
    states = forward_euler(affine8, u, rng.uniform(-1.5, 1.5, size=(900, 2)))
    shapes = []
    lapack_cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda m: shapes.append(np.shape(m)) or lapack_cond(m))
    lam = backward_covector(affine8, u, states, rng.normal(size=(900, 2)))
    assert np.isfinite(lam).all()
    assert shapes == [(16, 2, 2)]


def sample_major_forward(family, u, pts):
    """The forward recursion on an (M, N+1, dim) C-order buffer, written out."""
    states = np.empty((pts.shape[0], u.n_layers + 1, family.dim))
    states[:, 0] = pts
    for k in range(1, u.n_layers + 1):
        prev = states[:, k - 1]
        states[:, k] = prev + u.step * family.displacement(prev, u.values[k - 1])
    return states


def rotation_and_bump():
    """A nonlinear planar custom family: the rotation field and a Gaussian bump along e1."""
    rot = FieldSpec(
        value=lambda x: np.stack([-x[..., 1], x[..., 0]], axis=-1),
        jacobian=lambda x: np.broadcast_to(np.array([[0.0, -1.0], [1.0, 0.0]]), x.shape + (2,)).copy(),
    )

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
    return make_custom([rot, bump_e1], dim=2)


FAMILIES = {
    "affine8": lambda: make_affine8(20.0),
    "enriched14": lambda: make_enriched14(20.0),
    "custom": rotation_and_bump,
}
SIZES = [(900, 16), (10_000, 32)]


def random_problem(name, n_pts, n_layers, seed=7):
    fam = FAMILIES[name]()
    rng = np.random.Generator(np.random.Philox(seed))
    u = ControlGrid(rng.normal(scale=0.3, size=(n_layers, fam.n_fields)))
    return fam, u, rng.uniform(-1.0, 1.0, size=(n_pts, 2)), rng


def nodes_are_contiguous(bundle):
    return all(bundle[:, k].flags.c_contiguous for k in range(bundle.shape[1]))


def rows_are_contiguous(bundle):
    """Each coordinate of each node, ``bundle[:, k, d]``, is one contiguous row."""
    return all(
        bundle[:, k, d].flags.c_contiguous
        for k in range(bundle.shape[1])
        for d in range(bundle.shape[2])
    )


@pytest.mark.parametrize("size", SIZES, ids=lambda s: f"m{s[0]}_n{s[1]}")
@pytest.mark.parametrize("name", ["affine8", "enriched14"])
def test_forward_is_layer_major_and_matches_the_sample_major_loop(name, size):
    fam, u, pts, _ = random_problem(name, *size)
    states = forward_euler(fam, u, pts)
    assert states.shape == (size[0], size[1] + 1, 2)
    assert rows_are_contiguous(states)
    want = sample_major_forward(fam, u, pts)
    assert np.array_equal(states.view(np.int64), want.view(np.int64))
    ends = flow_endpoints(fam, u, pts)
    assert ends.shape == (size[0], 2)
    assert all(ends[:, d].flags.c_contiguous for d in range(2))
    assert np.array_equal(ends.view(np.int64), want[:, -1].view(np.int64))


@pytest.mark.parametrize("size", SIZES, ids=lambda s: f"m{s[0]}_n{s[1]}")
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_transport_and_gradients_do_not_depend_on_the_trajectory_layout(name, size):
    fam, u, pts, rng = random_problem(name, *size)
    states = forward_euler(fam, u, pts)
    dense = np.ascontiguousarray(states)
    assert dense.flags.c_contiguous and not states.flags.c_contiguous
    terminal = rng.normal(size=pts.shape)
    lam = backward_covector(fam, u, states, terminal)
    lam_dense = backward_covector(fam, u, dense, terminal)
    assert nodes_are_contiguous(lam) and nodes_are_contiguous(lam_dense)
    assert np.array_equal(lam.view(np.int64), lam_dense.view(np.int64))
    targets = pts + 0.5
    grad = control_gradient(fam, u, states, targets, 1e-3)
    grad_dense = control_gradient(fam, u, dense, targets, 1e-3)
    assert np.array_equal(grad.view(np.int64), grad_dense.view(np.int64))
