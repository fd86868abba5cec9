"""The energy-orthogonal dissipation matrix and its structural checks.

From a gradient g = grad H the symmetric matrix

    G[i][j] = g_i * g_j          (i != j)
    G[j][j] = -sum_{i != j} g_i^2

is, entry for entry, the closed form ``G = g g^T - ||g||^2 I``.  It
annihilates g (so H is conserved) and is negative semidefinite with
kernel span{g}: for any vector u,

    u^T G u = (g . u)^2 - ||g||^2 ||u||^2
            = -sum_{i<j} (u_i g_j - u_j g_i)^2 <= 0,

with equality exactly when g and u are linearly dependent.  The fields
apply the closed form matrix-free; the dense matrix and the minor sum, for
one gradient or a stack of them, serve the public functions and the checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import expressions as ex
from .geometry import SystemDefinition, _on_columns, _worst, compose_entropy, verify_casimir

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


def _dense(g: np.ndarray) -> np.ndarray:
    """``g g^T - (g . g) I`` for a gradient g, or one matrix per row of a (..., n) stack."""
    return g[..., :, None] * g[..., None, :] - (g[..., None, :] @ g[..., :, None]) * np.eye(g.shape[-1])


def build_dissipation_matrix(gradH: Sequence[float]) -> DissipationMatrix:
    """Dense ``g g^T - ||g||^2 I`` for g = gradH."""
    g = np.asarray(gradH, dtype=float)
    if g.ndim != 1:
        raise ValueError(f"gradient must be a vector, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError(f"gradient has non-finite components: {g.tolist()}")
    return DissipationMatrix(matrix=_dense(g), grad=g.copy())


def apply_dissipation(gradH: Sequence[float], v: Sequence[float]) -> np.ndarray:
    """Matrix-free ``G v = (g . v) g - ||g||^2 v`` in O(n)."""
    g = np.asarray(gradH, dtype=float)
    w = np.asarray(v, dtype=float)
    if g.shape != w.shape or g.ndim != 1:
        raise ValueError(f"shape mismatch: {g.shape} vs {w.shape}")
    return np.dot(g, w) * g - np.dot(g, g) * w


def entropy_production(gradH: Sequence[float], gradS: Sequence[float]) -> float | np.ndarray:
    """The quadratic form ``(grad S)^T G grad S`` via the pairwise minor sum.

    Each term is a negated square, so the result is <= 0 by construction;
    it vanishes exactly when the two gradients are linearly dependent.
    Two vectors give a float; two (..., n) stacks give one value per row.
    """
    g = np.asarray(gradH, dtype=float)
    s = np.asarray(gradS, dtype=float)
    if g.shape != s.shape or g.ndim == 0:
        raise ValueError(f"shape mismatch: {g.shape} vs {s.shape}")
    total = np.zeros(g.shape[:-1])
    for i in range(g.shape[-1]):
        for j in range(i + 1, g.shape[-1]):
            m = s[..., i] * g[..., j] - s[..., j] * g[..., i]
            total -= m * m
    return float(total) if g.ndim == 1 else total


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
    m1 is the worst :func:`geometry.verify_casimir` report (the first
    Casimir holding it); that pass raises its evaluation errors before
    grad H and grad phi(C) are evaluated, each by one array-mode call of its
    kernel (point by point where that call raises).  m2 and m3 are one
    stacked pass; ``m2`` multiplies each point's dense matrix against its
    gradient, so the cancellation of the entrywise construction is exercised
    honestly.  Empty maxima (k = 0 systems) count as 0; the first residual
    that is not finite is reported and fails its condition, and a point
    where grad H is not finite has a nan m2 and m3 residual.
    """
    casimirs = verify_casimir(sys.poisson, sys.casimirs, points, tol)
    fields = sys.hamiltonian, compose_entropy(sys)
    xs = np.asarray(points, dtype=float)
    rows = _on_columns([f._array_gradient for f in fields], xs)
    if rows is None:
        rows = []
        for p in xs.tolist():
            try:
                rows.append([f._gradient(p) for f in fields])
            except ex.EvaluationError as exc:
                raise ex.EvaluationError(f"condition check failed at {p}: {exc}") from exc
    g, u = np.asarray(rows).transpose(1, 0, 2)  # grad H and grad phi(C), one row per point
    with np.errstate(all="ignore"):
        g_residuals = np.max(np.abs(_dense(g) @ g[..., None]), axis=(1, 2))
        productions = entropy_production(g, u)
    undefined = ~np.all(np.isfinite(g), axis=1)  # G is not defined there
    g_residuals[undefined] = productions[undefined] = math.nan
    i = _worst(g_residuals, ties=True)
    m1, m2, m3_pos = 0.0, float(g_residuals[i]), 0.0
    worst = {"m1": None, "m2": xs[i], "m3": None}
    if sys.k > 0:
        casimir = casimirs[_worst([r.max_residual for r in casimirs])]
        j = _worst(productions, ties=True)
        m1, m3 = casimir.max_residual, float(productions[j])
        m3_pos = m3 if not m3 <= 0.0 else 0.0  # the positive part; nan stays nan
        worst.update(m1=casimir.worst_point, m3=xs[j])
    report = ConditionReport(m1_max=m1, m2_max=m2, m3_max_positive=m3_pos, passed=False, worst_points=worst)
    return replace(report, passed=not report.failed_conditions(tol))
