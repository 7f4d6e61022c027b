"""The built-ins' workspace sweeps against the loops of the dense oracle, bit for bit.

Every layer loop runs on the kernels of one ``family._sweep``: ``flow._euler``
one per row block (it also takes ``variational_jacobian``'s product of
factors), ``control_gradient`` and ``backward_covector`` one over the whole
trajectory.  The built-ins' sweep is one workspace that every node is
loaded into once, and its kernels are their closed forms.  The references are the
loops of the dense sweep's kernels in ``oracle.py``.  M = 16385 is
one full row block of 16384 points and a ragged one of a single point.
"""

import weakref

import numpy as np
import pytest

from diffeoflow import (
    ControlGrid,
    CustomFamily,
    Dataset,
    TrainConfig,
    backward_covector,
    builtin_target,
    family_from_name,
    flow_endpoints,
    forward_euler,
    square_grid,
    train_pmp,
)
from diffeoflow import flow
from diffeoflow.flow import variational_jacobian
from diffeoflow.objective import control_gradient, loss_grad

from oracle import (
    DIAGONAL_SHIFT,
    ROTATION,
    assert_same_bits,
    dense_node,
    per_layer_flow,
    per_layer_gradient,
    per_layer_jacobian,
    per_layer_transport,
    rows_are_contiguous,
)

N_LAYERS = 4
FAMILIES = {kind: family_from_name(kind, 5.0) for kind in ("affine8", "enriched14")}


def points(n_pts, rng):
    """Sources on the side-1.5 square, a third of them scaled by 1e-300 (underflowing squares), with signed zeros."""
    pts = rng.uniform(-1.5, 1.5, size=(n_pts, 2))
    pts[: (n_pts + 2) // 3] *= 1e-300
    pts[1::4] = [-0.0, 0.0]
    pts[2::5] = [0.0, -0.0]
    return pts


def damped_rows(u):
    """A row rule that reads every sample, independent of their memory layout."""
    return lambda k, x: u.values[k - 1] / (1.0 + np.max(np.abs(x)))


def problem(family, n_pts, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    u = ControlGrid(rng.normal(scale=2.0, size=(N_LAYERS, family.n_fields)))
    pts = points(n_pts, rng)
    return u, pts, pts + rng.normal(scale=0.5, size=pts.shape)


# Two input sets: nu 5, N 4 on ``points`` under controls of scale 2, seeded by M; and
# nu 20 at the trainers' sizes, on the side-2 square under controls of scale 0.3, seed 7.
FLOW_CASES = [(5.0, n_pts, N_LAYERS) for n_pts in (1, 7, 900, 16385)] + [(20.0, 900, 16), (20.0, 10_000, 32)]


def flow_problem(kind, nu, n_pts, n_layers):
    family = family_from_name(kind, nu)
    if nu == 5.0:
        return (family,) + problem(family, n_pts, n_pts)[:2]
    rng = np.random.Generator(np.random.Philox(7))
    u = ControlGrid(rng.normal(scale=0.3, size=(n_layers, family.n_fields)))
    return family, u, rng.uniform(-1.0, 1.0, size=(n_pts, 2))


@pytest.mark.parametrize("nu, n_pts, n_layers", FLOW_CASES, ids=[f"nu{nu:g}_m{m}_n{n}" for nu, m, n in FLOW_CASES])
@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_flows_are_layer_major_and_match_the_per_layer_loop(kind, nu, n_pts, n_layers):
    family, u, pts = flow_problem(kind, nu, n_pts, n_layers)
    want = per_layer_flow(family, u, pts)
    states, ends = forward_euler(family, u, pts), flow_endpoints(family, u, pts)
    assert_same_bits(states, want)
    assert_same_bits(ends, want[:, -1])
    assert rows_are_contiguous(states) and all(ends[:, d].flags.c_contiguous for d in range(2))
    row = damped_rows(u)
    want = per_layer_flow(family, u, pts, row)
    assert_same_bits(flow._euler(family, u, pts, n_layers + 1, row).transpose(2, 0, 1), want)
    assert_same_bits(flow._euler(family, u, pts, 2, row)[n_layers % 2].T, want[:, -1])


@pytest.mark.parametrize("n_pts", [1, 7, 900, 16385])
@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_gradient_sweep_matches_a_loop_of_dense_steps(kind, n_pts):
    family = FAMILIES[kind]
    u, pts, targets = problem(family, n_pts, n_pts + 1)
    states = forward_euler(family, u, pts)
    targets[::3] = states[::3, -1]  # zero residuals give zero covectors
    want = per_layer_gradient(family, u, states, targets, 1e-3)
    for layout in (states, np.ascontiguousarray(states)):
        assert_same_bits(control_gradient(family, u, layout, targets, 1e-3), want)


@pytest.mark.parametrize("n_pts", [1, 7, 900, 16385])
@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_transport_and_jacobian_sweeps_match_loops_of_dense_factors(kind, n_pts):
    family = FAMILIES[kind]
    u, pts, targets = problem(family, n_pts, n_pts + 2)
    states = forward_euler(family, u, pts)
    targets[::3] = states[::3, -1]  # zero residuals give zero covectors
    terminal = loss_grad(states[:, -1] - targets) / n_pts
    transport, jacobian = per_layer_transport(family, u, states, terminal), per_layer_jacobian(family, u, states)
    for layout in (states, np.ascontiguousarray(states)):
        assert_same_bits(backward_covector(family, u, layout, terminal), transport)
    for layout in (np.ascontiguousarray(pts), np.asfortranarray(pts)):
        assert_same_bits(variational_jacobian(family, u, layout), jacobian)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_interleaved_sweeps_on_one_family_share_no_state(kind):
    family = FAMILIES[kind]
    u, pts, targets = problem(family, 900, 11)
    u_small, small, small_targets = problem(family, 7, 12)
    inner = []

    def row(k, x):
        # Two sweeps of another size on the same family, between two layers of this flow.
        states = forward_euler(family, u_small, small)
        inner.append((states, control_gradient(family, u_small, states, small_targets, 1e-3)))
        return damped_rows(u)(k, x)

    swept = flow._euler(family, u, pts, N_LAYERS + 1, row).transpose(2, 0, 1)
    assert_same_bits(swept, per_layer_flow(family, u, pts, damped_rows(u)))
    small_states = per_layer_flow(family, u_small, small)
    small_grad = per_layer_gradient(family, u_small, small_states, small_targets, 1e-3)
    assert len(inner) == N_LAYERS
    for states, grad in inner:
        assert_same_bits(states, small_states)
        assert_same_bits(grad, small_grad)
    states = forward_euler(family, u, pts)
    first = control_gradient(family, u, states, targets, 1e-3)
    assert_same_bits(control_gradient(family, u_small, small_states, small_targets, 1e-3), small_grad)
    assert_same_bits(control_gradient(family, u, states, targets, 1e-3), first)
    assert_same_bits(first, per_layer_gradient(family, u, states, targets, 1e-3))


def counted_loads(family, monkeypatch):
    """Record each ``family._sweep`` as [rows of its nodes, calls of its ``load``], in the order they were made."""
    sweeps = []
    plain = type(family)._sweep

    def counted(fam, shape):
        sweep, entry = plain(fam, shape), [shape[0], 0]
        load = sweep.load

        def spy(*args):
            entry[1] += 1
            return load(*args)

        sweep.load = spy
        sweeps.append(entry)
        return sweep

    monkeypatch.setattr(type(family), "_sweep", counted)
    return sweeps


@pytest.mark.parametrize("kind", sorted(FAMILIES) + ["custom"])
def test_every_layer_loop_loads_each_node_once(kind, monkeypatch):
    """One ``load`` per node per row block, whichever kernels the loop reads.

    pmp's dense pairing runs on the base class's sweep, which this counts for no family.
    """
    family = CustomFamily([ROTATION, DIAGONAL_SHIFT]) if kind == "custom" else FAMILIES[kind]
    sources = square_grid(1.5, 5)
    targets = builtin_target()(sources)
    u = ControlGrid(np.random.Generator(np.random.Philox(5)).normal(scale=0.3, size=(5, family.n_fields)))
    weights = np.empty((5, 25))
    states = forward_euler(family, u, sources, weights=weights)
    terminal = loss_grad(states[:, -1] - targets) / 25
    sweeps, blocks = counted_loads(family, monkeypatch), [[7, 5], [7, 5], [7, 5], [4, 5]]
    monkeypatch.setattr(flow, "_BLOCK_ROWS", 7)  # three full blocks and a ragged tail of 4
    runs = {
        "forward_euler": lambda: forward_euler(family, u, sources, weights=weights),
        "flow_endpoints": lambda: flow_endpoints(family, u, sources),
        "variational_jacobian": lambda: variational_jacobian(family, u, sources),
        "control_gradient": lambda: control_gradient(family, u, states, targets, 1e-3),
        "weighted_gradient": lambda: control_gradient(family, u, states, targets, 1e-3, weights=weights),
        "backward_covector": lambda: backward_covector(family, u, states, terminal),
    }
    for name, run in runs.items():
        sweeps.clear()
        run()
        assert sweeps == (blocks if name in ("forward_euler", "flow_endpoints", "variational_jacobian") else [[25, 5]])
    # One pmp pass: the initial flow in row blocks, the transport, then the sweep, one block under its row rule.
    sweeps.clear()
    train_pmp(family, Dataset(sources, targets), 5, TrainConfig(beta=1e-3, max_iter=1), init=u)
    assert sweeps == blocks + [[25, 5], [25, 5]]


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray], ids=["c_order", "fortran_order"])
@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_pairing_adds_the_samples_in_order(kind, layout):
    """Each field's pairing is a running sum over the samples from +0.0, also past numpy's 8192-element buffers."""
    family = FAMILIES[kind]
    rng = np.random.Generator(np.random.Philox(13))
    for n_pts in (8193, 100_000):
        x = layout(points(n_pts, rng))
        lam = layout(rng.normal(size=x.shape) * rng.choice([1e-300, 1.0, 1e8], size=(n_pts, 1)))
        terms = (lam[:, None, :] * family.values(x)).sum(axis=-1)  # one product and a zero per field
        in_order = np.cumsum(terms, axis=0)[-1] + 0.0
        for node in (family._sweep(x.shape[:-1]).load(x), dense_node(family, x)):
            got = np.empty(family.n_fields)
            node.pair(lam, got)
            assert_same_bits(got, in_order)


def carried_problem(family, n_pts, n_layers, seed):
    """A flow that writes the Gaussian weights into its buffer: (u, states, weights, targets).

    The sources are ``points``; from M 900 on, the last few start where |x|^2
    overflows, so their g is 0 and, for enriched14, x1^2 g is NaN.  Only the
    rows before them are checked for overflow.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    u = ControlGrid(rng.normal(scale=0.5, size=(n_layers, family.n_fields)))
    pts = points(n_pts, rng)
    far = [[1e200, 0.0], [-1e160, 1e160], [3e154, -3e154]] if n_pts >= 900 else []
    pts[n_pts - len(far):] = np.reshape(far, (-1, 2))
    weights = np.full((n_layers, n_pts), np.nan)
    states = forward_euler(family, u, pts, checked=n_pts - len(far), weights=weights)
    return u, states, weights, states[:, -1] + rng.normal(scale=0.5, size=pts.shape)


@pytest.mark.parametrize("n_layers", [1, 2, 16])
@pytest.mark.parametrize("n_pts", [1, 900, 2 * 16384 + 5])
@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_gradient_from_carried_weights_is_the_loaded_one_bit_for_bit(kind, n_pts, n_layers):
    family = FAMILIES[kind]
    u, states, weights, targets = carried_problem(family, n_pts, n_layers, n_pts + n_layers)
    for k in range(n_layers):  # row k-1 is g at node k-1: field 2 is g e_1
        assert_same_bits(weights[k], family.values(states[:, k])[:, 2, 0])
    # All rows, then the rows above the far ones, which ride below them as the
    # trainers' held-out rows do: the gradient reads the buffer's first columns.
    far = n_pts >= 900
    for n in (n_pts, n_pts - 3) if far else (n_pts,):
        loaded = control_gradient(family, u, states[:n], targets[:n], 1e-3)
        for layout in (states[:n], np.ascontiguousarray(states[:n])):
            assert_same_bits(control_gradient(family, u, layout, targets[:n], 1e-3, weights=weights), loaded)
        assert_same_bits(loaded, per_layer_gradient(family, u, states[:n], targets[:n], 1e-3))
        # g is 0 at the far sources; enriched14's x1^2 g is NaN there and spreads to every sum
        assert np.isfinite(loaded).all() == (n < n_pts or not far or kind == "affine8")
    assert not far or (weights[0, -3:] == 0.0).all()


def test_families_without_a_gaussian_weight_ignore_the_buffer():
    family = CustomFamily([ROTATION, DIAGONAL_SHIFT])
    u, pts, targets = problem(family, 7, 3)
    weights = np.full((N_LAYERS, 7), 5.0)
    states = forward_euler(family, u, pts, weights=weights)
    assert (weights == 5.0).all()
    assert_same_bits(states, forward_euler(family, u, pts))
    want = per_layer_gradient(family, u, states, targets, 1e-3)
    assert_same_bits(control_gradient(family, u, states, targets, 1e-3, weights=weights), want)


@pytest.mark.parametrize("shape", [(N_LAYERS - 1, 7), (N_LAYERS, 6), (N_LAYERS, 8)])
def test_a_buffer_of_the_wrong_shape_is_refused(shape):
    family = FAMILIES["affine8"]
    u, pts, targets = problem(family, 7, 3)
    states = forward_euler(family, u, pts)
    with pytest.raises(ValueError, match="weights have shape"):
        forward_euler(family, u, pts, weights=np.empty(shape))
    if shape[1] < 7 or shape[0] != N_LAYERS:
        with pytest.raises(ValueError, match="weights have shape"):
            control_gradient(family, u, states, targets, 1e-3, weights=np.empty(shape))


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_the_buffer_keeps_no_trajectory_alive(kind):
    family = FAMILIES[kind]
    u, pts, targets = problem(family, 900, 4)
    weights = np.empty((N_LAYERS, 900))
    states = forward_euler(family, u, pts, weights=weights)
    trajectory = weakref.ref(states.base)
    control_gradient(family, u, states, targets, 1e-3, weights=weights)
    del states
    assert trajectory() is None
    assert weights.base is None and np.isfinite(weights).all()
