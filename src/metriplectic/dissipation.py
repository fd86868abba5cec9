"""The energy-orthogonal dissipation matrix and its structural checks.

From a gradient g = grad H the symmetric matrix

    G[i][j] = g_i * g_j          (i != j)
    G[j][j] = -sum_{i != j} g_i^2

is, entry for entry, the closed form ``G = g g^T - ||g||^2 I``.  It
annihilates g (so H is conserved) and is negative semidefinite with
kernel span{g}: for any vector u,

    u^T G u = (g . u)^2 - ||g||^2 ||u||^2
            = -sum_{i<j} (u_i g_j - u_j g_i)^2 <= 0,

with equality exactly when g and u are linearly dependent.  The closed
form is the internal representation (O(n) application); the entrywise
grid and the pairwise minor sum serve as independent cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import expressions as ex
from .geometry import SystemDefinition, _check_positive, _replaces, compose_entropy, poisson_matrix

__all__ = [
    "DissipationMatrix",
    "ConditionReport",
    "build_dissipation_matrix",
    "apply_dissipation",
    "entropy_production",
    "verify_metriplectic_conditions",
]


@dataclass(frozen=True)
class DissipationMatrix:
    """Symmetric dissipation matrix together with the gradient it was built from."""

    matrix: np.ndarray
    grad: np.ndarray

    @property
    def n(self) -> int:
        return len(self.grad)


def build_dissipation_matrix(gradH: Sequence[float]) -> DissipationMatrix:
    """Dense ``g g^T - ||g||^2 I`` for g = gradH."""
    g = np.asarray(gradH, dtype=float)
    if g.ndim != 1:
        raise ValueError(f"gradient must be a vector, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError(f"gradient has non-finite components: {g.tolist()}")
    mat = np.outer(g, g) - np.dot(g, g) * np.eye(len(g))
    return DissipationMatrix(matrix=mat, grad=g.copy())


def apply_dissipation(gradH: Sequence[float], v: Sequence[float]) -> np.ndarray:
    """Matrix-free ``G v = (g . v) g - ||g||^2 v`` in O(n)."""
    g = np.asarray(gradH, dtype=float)
    w = np.asarray(v, dtype=float)
    if g.shape != w.shape or g.ndim != 1:
        raise ValueError(f"shape mismatch: {g.shape} vs {w.shape}")
    return np.dot(g, w) * g - np.dot(g, g) * w


def entropy_production(gradH: Sequence[float], gradS: Sequence[float]) -> float:
    """The quadratic form ``(grad S)^T G grad S`` via the pairwise minor sum.

    Each term is a negated square, so the result is <= 0 by construction;
    it vanishes exactly when the two gradients are linearly dependent.
    """
    g = np.asarray(gradH, dtype=float)
    s = np.asarray(gradS, dtype=float)
    if g.shape != s.shape or g.ndim != 1:
        raise ValueError(f"shape mismatch: {g.shape} vs {s.shape}")
    total = 0.0
    n = len(g)
    for i in range(n):
        for j in range(i + 1, n):
            m = s[i] * g[j] - s[j] * g[i]
            total -= m * m
    return float(total)


@dataclass(frozen=True)
class ConditionReport:
    """Worst residuals of the three structural conditions over a point sample."""

    m1_max: float  # max ||Pi grad C_i||_inf  (Casimir condition)
    m2_max: float  # max ||G grad H||_inf     (energy orthogonality)
    m3_max_positive: float  # positive part of max u^T G u for u = grad phi(C)
    passed: bool
    worst_points: dict = None  # condition name -> point where the max was attained

    def failed_conditions(self, tol: float) -> list:
        maxima = {"m1": self.m1_max, "m2": self.m2_max, "m3": self.m3_max_positive}
        return [name for name, value in maxima.items() if not value <= tol]  # nan fails


def verify_metriplectic_conditions(
    sys: SystemDefinition,
    points: Sequence[Sequence[float]],
    tol: float,
) -> ConditionReport:
    """Check the three defining conditions at every point of ``points``.

    Each passes iff its worst residual is <= ``tol``, a finite number > 0.
    Empty maxima (k = 0 systems) count as 0; the first residual that is
    not finite is reported and fails its condition, and a point where
    grad H is not finite has a nan m2 and m3 residual.  ``m2`` multiplies the dense
    matrix against the gradient so the cancellation of the entrywise
    construction is exercised honestly rather than being zero by
    algebraic identity.
    """
    if len(points) == 0:
        raise ValueError("at least one sample point is required")
    _check_positive(tol, "tolerance")
    entropy = compose_entropy(sys)
    m1 = m3 = -math.inf  # raised by the first point; left at that for k = 0
    m2 = 0.0
    worst = {"m1": None, "m2": None, "m3": None}
    for p in points:
        try:
            pi = poisson_matrix(sys.poisson, p)
            g = sys.hamiltonian.gradient_at(p)
            u = entropy.gradient_at(p)
            for c in sys.casimirs:
                residual = float(np.max(np.abs(pi @ c.gradient_at(p))))
                if _replaces(residual, m1):
                    m1 = residual
                    worst["m1"] = np.asarray(p, dtype=float)
        except ex.EvaluationError as exc:
            raise ex.EvaluationError(
                f"condition check failed at {np.asarray(p).tolist()}: {exc}"
            ) from exc
        try:
            g_residual = float(np.max(np.abs(build_dissipation_matrix(g).matrix @ g)))
            production = entropy_production(g, u) if sys.k > 0 else 0.0
        except ValueError:  # grad H is not finite, so G is not defined: the point fails m2 and m3
            g_residual = production = math.nan
        if _replaces(g_residual, m2, ties=True):
            m2 = g_residual
            worst["m2"] = np.asarray(p, dtype=float)
        if sys.k > 0 and _replaces(production, m3, ties=True):
            m3 = production
            worst["m3"] = np.asarray(p, dtype=float)
    if sys.k == 0:
        m1 = m3 = 0.0
    m3_pos = m3 if not m3 <= 0.0 else 0.0  # the positive part; nan stays nan
    report = ConditionReport(m1_max=m1, m2_max=m2, m3_max_positive=m3_pos, passed=False, worst_points=worst)
    return replace(report, passed=not report.failed_conditions(tol))
