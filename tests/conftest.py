"""Shared fixtures: the benchmark target, grids, field families, and the np.exp kernel."""

import hashlib
import math

import numpy as np
import pytest

from diffeoflow import (
    builtin_target,
    make_affine8,
    make_enriched14,
    make_grid_dataset,
    make_random_testset,
)

# np.exp on these arguments tells which kernel numpy runs, and the golden
# digests depend on it.  libm's exp matches math.exp on every one; numpy
# 2.4.6's AVX-512 kernel, which is not correctly rounded, differs on 245 of
# them and gives the recorded SHA-256 of its results.
EXP_ARGUMENTS = np.linspace(-0.2, 0.0, 4001)
AVX512_EXP_SHA256 = "9553372b9e58055be131f6537a267d902786e5663f24a1c163aeafde805cbef7"


def exp_kernel_name() -> str:
    """The np.exp kernel of this process: "libm", "avx512", or "unknown (...)" with its fingerprint."""
    got = np.exp(EXP_ARGUMENTS)
    differ = int((got != [math.exp(v) for v in EXP_ARGUMENTS.tolist()]).sum())
    sha = hashlib.sha256(got.tobytes()).hexdigest()
    if differ == 0:
        return "libm"
    if sha == AVX512_EXP_SHA256:
        return "avx512"
    return f"unknown (np.exp differs from math.exp on {differ} of {EXP_ARGUMENTS.size} arguments, sha256 {sha})"


@pytest.fixture(scope="session")
def exp_kernel():
    return exp_kernel_name()


@pytest.fixture(scope="session")
def target():
    return builtin_target()


@pytest.fixture(scope="session")
def affine8():
    return make_affine8(20.0)


@pytest.fixture(scope="session")
def enriched14():
    return make_enriched14(20.0)


@pytest.fixture(scope="session")
def grid900(target):
    """The full 30x30 training grid on the side-1.5 square."""
    return make_grid_dataset(target, side=1.5, per_axis=30)


@pytest.fixture(scope="session")
def testset300(target):
    return make_random_testset(target, side=1.5, count=300, seed=0)


@pytest.fixture(scope="session")
def grid25(target):
    """A cheap 5x5 grid for unit tests that train."""
    return make_grid_dataset(target, side=1.5, per_axis=5)


@pytest.fixture(scope="session")
def commutator_defect():
    """Second-order defect of the back-and-forth flow composition.

    ``defect(family, i1, i2, x, step)`` composes time-``step`` flows of
    F_{i1}, F_{i2}, -F_{i1}, -F_{i2} (in that application order) from x,
    flows the commutator field DF_{i2} F_{i1} - DF_{i1} F_{i2} for time
    step**2 from the same x, and returns the distance between the two
    endpoints divided by step**2.  The ratio tends to zero as the step
    shrinks; each flow is integrated with 64 fixed RK4 steps.
    """

    def rk4(rhs, x, span, steps=64):
        dt = span / steps
        for _ in range(steps):
            k1 = rhs(x)
            k2 = rhs(x + 0.5 * dt * k1)
            k3 = rhs(x + 0.5 * dt * k2)
            k4 = rhs(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return x

    def defect(family, i1, i2, x, step):
        def bracket(y):
            v, j = family.values(y), family.jacobians(y)
            return j[i2] @ v[i1] - j[i1] @ v[i2]

        y = np.asarray(x, dtype=float)
        for i, sign in ((i1, 1.0), (i2, 1.0), (i1, -1.0), (i2, -1.0)):
            y = rk4(lambda z, i=i, sign=sign: sign * family.values(z)[i], y, step)
        z = rk4(bracket, np.asarray(x, dtype=float), step * step)
        return float(np.linalg.norm(y - z) / (step * step))

    return defect


@pytest.fixture()
def rng():
    return np.random.Generator(np.random.Philox(1234))
