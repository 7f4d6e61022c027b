"""Taylor-remainder test of the exact control gradient at production sizes.

The cost J has the partial derivatives h * g of ``control_gradient``'s g
(slab-average coordinates, h = 1/N).  For a direction d the remainder

    r(eps) = |J(u + eps d) - J(u) - eps h <g, d>|

falls as eps^2 when g is J's gradient, so log2 r(eps) / r(eps/4) is 4 over
the window eps = 1e-2 4^-j, j = 0..5.  A gradient that is off in one layer's
row by a factor 1.001 leaves a first-order term eps * 1e-3 h <g_k, d_k>,
which takes the rate down to about 2 at the smallest eps: the same window
then fails.  Each case costs one gradient and seven flows, where a central
difference check would cost two flows per control entry (3584 for
enriched14 at N 128).

The test is that of Farrell, Ham, Funke and Rognes, "Automated derivation
of the adjoint of high-level transient finite element programs", SIAM J.
Sci. Comput. 2013.
"""

import numpy as np
import pytest

from diffeoflow import ControlGrid, CustomFamily, FieldSpec, VectorFieldFamily, builtin_target, cost, forward_euler
from diffeoflow import flow
from diffeoflow.objective import Dataset, control_gradient

from oracle import DIAGONAL_SHIFT, ROTATION

EPS = 1e-2 * 4.0 ** -np.arange(6)
RATE_WINDOW = (3.9, 4.1)
BETA = 1e-3
THREE_BLOCKS = 2 * flow._BLOCK_ROWS + 1  # the flows run two full row blocks and one of a single point


def problem(family, n_layers, n_pts, seed=7):
    """Random sources on the side-3 square with their builtin-target images, controls in [-1, 1], a direction."""
    rng = np.random.Generator(np.random.Philox(seed))
    src = rng.uniform(-1.5, 1.5, size=(n_pts, 2))
    u = ControlGrid(rng.uniform(-1.0, 1.0, size=(n_layers, family.n_fields)))
    return Dataset(src, builtin_target()(src)), u, rng.normal(size=u.values.shape)


def taylor_rates(family, u, data, direction, *grads):
    """log2 r(eps) / r(eps/4) over ``EPS`` for each gradient in ``grads``, one row each."""
    j0 = cost(family, u, data, BETA).total
    moved = np.array([cost(family, ControlGrid(u.values + e * direction), data, BETA).total for e in EPS])
    rates = []
    for g in grads:
        r = np.abs(moved - j0 - EPS * (u.step * np.sum(g * direction)))
        rates.append(np.log2(r[:-1] / r[1:]))
    return rates


def second_order(rates):
    return bool(((RATE_WINDOW[0] <= rates) & (rates <= RATE_WINDOW[1])).all())


def assert_taylor(family, n_layers, n_pts):
    data, u, d = problem(family, n_layers, n_pts)
    g = control_gradient(family, u, forward_euler(family, u, data.sources), data.targets, BETA)
    off = g.copy()
    off[n_layers // 2] *= 1.001
    exact, perturbed = taylor_rates(family, u, data, d, g, off)
    assert second_order(exact), exact
    assert not second_order(perturbed), perturbed
    assert 1.5 <= perturbed[-1] <= 3.0, perturbed  # first order at the smallest eps


@pytest.mark.parametrize("n_pts", [900, THREE_BLOCKS])
@pytest.mark.parametrize("n_layers", [16, 128])
@pytest.mark.parametrize("kind", ["affine8", "enriched14"])
def test_builtin_gradient_is_second_order_accurate(kind, n_layers, n_pts, request):
    assert_taylor(request.getfixturevalue(kind), n_layers, n_pts)


def test_custom_gradient_is_second_order_accurate():
    # A rotation, a constant shift and a bend: the dense base-class sweep.
    def bend_jacobian(x):
        jac = np.zeros(x.shape + (2,))
        jac[..., 0, 1], jac[..., 1, 0] = np.cos(x[..., 1]), 2.0 * x[..., 0]
        return jac

    bend = FieldSpec(value=lambda x: np.stack([np.sin(x[..., 1]), x[..., 0] ** 2], axis=-1), jacobian=bend_jacobian)
    family = CustomFamily([ROTATION, DIAGONAL_SHIFT, bend])
    assert type(family)._sweep is VectorFieldFamily._sweep
    assert_taylor(family, 8, 50)
