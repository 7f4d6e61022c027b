"""Reference computations that the output checks compare the program against.

This module does not import diffeoflow. It restates the benchmark target
map, the two built-in field families, the explicit Euler flow and the
pointwise penalty from their definitions in the package docstrings. It uses
the same floating-point operations in the same order as the package, so an
unchanged program matches it bit for bit. The flow keeps only the current
layer's points, not the trajectory, so that the check never needs more
memory than the program it checks.
"""

from __future__ import annotations

import math

import numpy as np

ROTATION_ANGLE = math.pi / 3.0
TRANSLATION = (0.3, 0.2)
OFFSET = (-4.0, -4.5)
FAMILY_FIELDS = {"affine8": 8, "enriched14": 14}


def target(x: np.ndarray) -> np.ndarray:
    """Rotate by pi/3, translate by (0.3, 0.2), then apply the deformation."""
    c, s = math.cos(ROTATION_ANGLE), math.sin(ROTATION_ANGLE)
    rot = np.array([[c, -s], [s, c]])
    z = x @ rot.T + np.array(TRANSLATION)
    z1, z2 = z[..., 0], z[..., 1]
    out = z.copy()
    out[..., 0] += 2.0 * z1 * np.exp(z1 * z1 - 1.0)
    out[..., 1] += 2.0 * z2 ** 3
    return out + np.array(OFFSET)


def field_values(family: str, x: np.ndarray, nu: float) -> np.ndarray:
    """Dense stacked field values at points x of shape (M, 2): (M, l, 2)."""
    x1, x2 = x[..., 0], x[..., 1]
    g = np.exp(-0.5 * (x1 * x1 + x2 * x2) / nu)
    out = np.zeros(x.shape[:-1] + (FAMILY_FIELDS[family], 2))
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = 1.0
    out[..., 2, 0] = g
    out[..., 3, 1] = g
    out[..., 4, 0] = x1
    out[..., 5, 0] = x2
    out[..., 6, 1] = x1
    out[..., 7, 1] = x2
    if family == "enriched14":
        for m, q in enumerate((x1 * x1 * g, x1 * x2 * g, x2 * x2 * g)):
            out[..., 8 + m, 0] = q
            out[..., 11 + m, 1] = q
    return out


def flow_endpoints(family: str, control: np.ndarray, sources: np.ndarray, nu: float) -> np.ndarray:
    """Endpoints of the explicit Euler flow with step 1/N under an (N, l) control."""
    h = 1.0 / control.shape[0]
    x = np.array(sources, dtype=float)
    for row in control:
        x = x + h * np.einsum("mln,l->mn", field_values(family, x, nu), row)
    return x


def loss(z: np.ndarray) -> np.ndarray:
    """Pointwise penalty sqrt(1 + |z|^2) - 1, in its cancellation-free form."""
    s = np.sum(z * z, axis=-1)
    return s / (1.0 + np.sqrt(1.0 + s))
