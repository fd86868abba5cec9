"""Per-point sampled checks the stacked ones are checked against, bit for bit.

These are the point-by-point forms of :func:`metriplectic.verify_casimir`
and :func:`metriplectic.verify_metriplectic_conditions`: each point goes
through :func:`metriplectic.poisson_matrix` and ``ScalarField.gradient_at``,
and its residuals are numpy reductions on that point's small arrays.  The
dense matrix and the minor sum are written out here, so they do not share
the package's implementation.  Their signatures are the package's; call
them under ``np.errstate(all="ignore")``, since an overflow warns here.
"""

import math
from dataclasses import replace

import numpy as np

import metriplectic as mp
from metriplectic import expressions as ex
from metriplectic.geometry import _check_positive, _worst


def dense_dissipation(g: np.ndarray) -> np.ndarray:
    """``g g^T - ||g||^2 I`` for one finite gradient; ValueError for a non-finite one."""
    if not np.all(np.isfinite(g)):
        raise ValueError(f"gradient has non-finite components: {g.tolist()}")
    return np.outer(g, g) - np.dot(g, g) * np.eye(len(g))


def minor_sum(g: np.ndarray, s: np.ndarray) -> float:
    total = 0.0
    n = len(g)
    for i in range(n):
        for j in range(i + 1, n):
            m = s[i] * g[j] - s[j] * g[i]
            total -= m * m
    return float(total)


def verify_casimir(structure, casimirs, points, tol):
    if len(points) == 0:
        raise ValueError("at least one sample point is required")
    _check_positive(tol, "tolerance")
    for c in casimirs:
        if c.arity != structure.n:
            raise ValueError(f"field arity {c.arity} does not match dimension {structure.n}")
    residuals = []  # point by point, each point's Casimirs in order
    for p in points:
        try:
            pi = mp.poisson_matrix(structure, p)
            for c in casimirs:
                residuals.append(float(np.max(np.abs(pi @ c.gradient_at(p)))))
        except ex.EvaluationError as exc:
            raise ex.EvaluationError(
                f"casimir residual evaluation failed at {np.asarray(p).tolist()}: {exc}"
            ) from exc
    reports = []
    for l in range(len(casimirs)):
        column = residuals[l::len(casimirs)]
        index = _worst(column)
        reports.append(mp.CasimirReport(column[index], column[index] <= tol, np.asarray(points[index], dtype=float)))
    return reports


def verify_metriplectic_conditions(sys, points, tol):
    casimirs = verify_casimir(sys.poisson, sys.casimirs, points, tol)
    entropy = mp.compose_entropy(sys)
    g_residuals, productions = [], []
    for p in points:
        try:
            g = sys.hamiltonian.gradient_at(p)
            u = entropy.gradient_at(p)
        except ex.EvaluationError as exc:
            raise ex.EvaluationError(
                f"condition check failed at {np.asarray(p).tolist()}: {exc}"
            ) from exc
        try:
            g_residual = float(np.max(np.abs(dense_dissipation(g) @ g)))
            production = minor_sum(g, u) if sys.k > 0 else 0.0
        except ValueError:  # grad H is not finite, so G is not defined: the point fails m2 and m3
            g_residual = production = math.nan
        g_residuals.append(g_residual)
        productions.append(production)
    i = _worst(g_residuals, ties=True)
    m1, m2, m3_pos = 0.0, g_residuals[i], 0.0
    worst = {"m1": None, "m2": np.asarray(points[i], dtype=float), "m3": None}
    if sys.k > 0:
        casimir = casimirs[_worst([r.max_residual for r in casimirs])]
        j = _worst(productions, ties=True)
        m1, m3 = casimir.max_residual, productions[j]
        m3_pos = m3 if not m3 <= 0.0 else 0.0
        worst.update(m1=casimir.worst_point, m3=np.asarray(points[j], dtype=float))
    report = mp.ConditionReport(m1_max=m1, m2_max=m2, m3_max_positive=m3_pos, passed=False, worst_points=worst)
    return replace(report, passed=not report.failed_conditions(tol))
