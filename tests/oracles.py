"""Oracles the package is checked against; the pipeline itself never runs them.

- :func:`hessian`: symmetrized central finite differences of an exact
  gradient, the cross-check of the exact Hessian ``lyapunov_report`` takes.
- :func:`apply_dissipation`: the matrix-free ``G v`` beside the dense
  ``build_dissipation_matrix``.
- :func:`rigid_body_perturbed_rhs`: the perturbed rigid body written out by
  hand from its componentwise equations (independent of the expression
  layer and the generic field assembly), with the coefficients of
  :func:`rigid_body_coefficients`.
"""

from typing import NamedTuple, Optional, Sequence

import numpy as np

import metriplectic as mp
from metriplectic.geometry import ScalarField, _check_positive

DEFAULT_FD_SCALE = 1e-4


def hessian(field: ScalarField, x: Sequence[float], h: Optional[float] = None) -> np.ndarray:
    """Symmetrized central finite differences of the gradient: the exact Hessian's cross-check.

    ``M[i][j] = (d_j f(x + h e_i) - d_j f(x - h e_i)) / (2h)`` followed by
    ``(M + M^T)/2``.  The default step ``1e-4 * (1 + ||x||_inf)`` balances
    truncation against rounding for exact gradients in double precision;
    a given ``h`` must be a finite number > 0.
    """
    point = np.asarray(x, dtype=float)
    if point.shape != (field.arity,):
        raise ValueError(f"point has shape {point.shape}, expected ({field.arity},)")
    if h is None:
        h = DEFAULT_FD_SCALE * (1.0 + float(np.max(np.abs(point))))
    else:
        _check_positive(h, "finite-difference step")
    steps = h * np.eye(field.arity)
    raw = np.array([(field.gradient_at(point + e) - field.gradient_at(point - e)) / (2.0 * h) for e in steps])
    return (raw + raw.T) / 2.0


def apply_dissipation(gradH: Sequence[float], v: Sequence[float]) -> np.ndarray:
    """Matrix-free ``G v = (g . v) g - ||g||^2 v`` in O(n)."""
    g = np.asarray(gradH, dtype=float)
    w = np.asarray(v, dtype=float)
    if g.shape != w.shape or g.ndim != 1:
        raise ValueError(f"shape mismatch: {g.shape} vs {w.shape}")
    return np.dot(g, w) * g - np.dot(g, g) * w


class RigidBodyCoefficients(NamedTuple):
    a1: float
    a2: float
    a3: float
    c_phi: float  # constant in the expanded dissipative factor, M0^2 + 1/I1


def rigid_body_coefficients(params: mp.RigidBodyParams) -> RigidBodyCoefficients:
    """a1 = 1/I3 - 1/I2, a2 = 1/I1 - 1/I3, a3 = 1/I2 - 1/I1 and c_phi = M0^2 + 1/I1."""
    return RigidBodyCoefficients(
        1.0 / params.I3 - 1.0 / params.I2,
        1.0 / params.I1 - 1.0 / params.I3,
        1.0 / params.I2 - 1.0 / params.I1,
        params.M0 * params.M0 + 1.0 / params.I1,
    )


def rigid_body_perturbed_rhs(params: mp.RigidBodyParams, x: Sequence[float]) -> np.ndarray:
    """Hand-expanded right-hand side of the perturbed rigid body.

    Written directly from the componentwise equations (independent of the
    expression layer and the generic field assembly) so the two can be
    compared against each other.
    """
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"state must have 3 components, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"state must be finite, got {v.tolist()}")
    x1, x2, x3 = float(v[0]), float(v[1]), float(v[2])
    a1, a2, a3, c_phi = rigid_body_coefficients(params)
    s = x1 * x1 + x2 * x2 + x3 * x3 - c_phi
    return np.array(
        [
            a1 * x2 * x3 + x1 * s * (-(a3 / params.I2) * x2 * x2 + (a2 / params.I3) * x3 * x3),
            a2 * x1 * x3 + x2 * s * ((a3 / params.I1) * x1 * x1 - (a1 / params.I3) * x3 * x3),
            a3 * x1 * x2 + x3 * s * (-(a2 / params.I1) * x1 * x1 + (a1 / params.I2) * x2 * x2),
        ]
    )
