"""Energy-Casimir stability tests and trajectory convergence diagnostics.

An equilibrium x_e is certified by the augmented energy
``H_phi = H + phi(C_1, ..., C_k)``: if its gradient vanishes and its
Hessian is positive definite at x_e, then ``L = H_phi - H_phi(x_e)`` is
a Lyapunov function for the dissipative dynamics and trajectories
started nearby approach the set where grad H and grad phi(C) are
linearly dependent.  Each report compiles one kernel from the trees of
H and :func:`geometry.compose_entropy` that returns the gradient of
H_phi, the upper triangle of its exact Hessian and its value; the
finite-difference :func:`hessian` is kept as a cross-check.  The
convergence half is checked a posteriori on a computed trajectory: L
must be nonincreasing step to step (within slack), and the trajectory
tail, the computable stand-in for the omega-limit set, must sit at a
small dependence defect.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import expressions as ex
from .dynamics import _compiled, _equilibrium_threshold, conservative_field
from .geometry import ScalarField, SystemDefinition, _check_positive, _compile, as_state, compose_entropy
from .integrators import MONOTONE_SLACK, Trajectory

__all__ = [
    "LyapunovReport",
    "LaSalleReport",
    "PD_TOL",
    "hessian",
    "lyapunov_report",
    "lasalle_diagnostics",
]

PD_TOL = 1e-8
DEFAULT_FD_SCALE = 1e-4
# lasalle_diagnostics' defaults: the tail share of the samples and the dependence defect it must reach
TAIL_FRACTION = 0.1
DEFECT_TOL = 1e-6


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


@dataclass(frozen=True)
class LyapunovReport:
    """Energy-Casimir test of an equilibrium candidate."""

    point: np.ndarray
    grad_norm: float  # ||grad H_phi(x_e)||_inf; ~0 is the critical-point condition
    hessian: np.ndarray  # exact, symmetric by construction
    eigenvalues: np.ndarray  # ascending
    positive_definite: bool
    lyapunov_offset: float  # H_phi(x_e); the Lyapunov candidate is H_phi - offset
    pd_tol: float = PD_TOL


def lyapunov_report(
    sys: SystemDefinition,
    x_e: Sequence[float],
    pd_tol: float = PD_TOL,
) -> LyapunovReport:
    """Evaluate both energy-Casimir conditions at ``x_e``.

    Warns (without failing) when ``x_e`` is not an equilibrium of the
    conservative field, since the test is then vacuous; the verdict is that
    of :func:`dynamics.classify_equilibrium` at its default tolerance.
    ``pd_tol``, the least eigenvalue of a positive definite Hessian, must
    be a finite number > 0.
    """
    _check_positive(pd_tol, "pd_tol")
    point = np.asarray(x_e, dtype=float)
    xi_pi_norm = float(np.max(np.abs(conservative_field(sys, point))))
    if not xi_pi_norm <= _equilibrium_threshold(point):
        warnings.warn(
            f"point {point.tolist()} is not an equilibrium of the conservative field "
            f"(|Pi grad H|_inf = {xi_pi_norm:.3e})",
            stacklevel=2,
        )
    n, h, entropy = sys.n, sys.hamiltonian, compose_entropy(sys)
    gradient = [ex.add(g_i, u_i) for g_i, u_i in zip(h.gradient, entropy.gradient)]
    upper = [ex.differentiate(gradient[i], j + 1) for i in range(n) for j in range(i, n)]
    # gradient, Hessian triangle, value: a point where several fail raises the gradient's error first
    kernel = _compile(n, "energy-casimir", "report", gradient + upper + [ex.add(h.value, entropy.value)])
    values = kernel(as_state(point, n))
    sym = np.empty((n, n))
    rows, cols = np.triu_indices(n)  # row by row, the order of upper
    sym[rows, cols] = sym[cols, rows] = values[n:-1]
    eigenvalues = np.linalg.eigvalsh(sym)
    return LyapunovReport(
        point=point,
        grad_norm=float(np.max(np.abs(values[:n]))),
        hessian=sym,
        eigenvalues=eigenvalues,
        positive_definite=bool(eigenvalues[0] > pd_tol),
        lyapunov_offset=values[-1],
        pd_tol=pd_tol,
    )


@dataclass(frozen=True)
class LaSalleReport:
    """A posteriori convergence evidence from a trajectory."""

    monotone_violations: int  # per-step increases of L by the MONOTONE_SLACK rule
    worst_increase: float  # most positive per-step change of L (can be <= 0)
    tail_states: np.ndarray  # final tail_fraction of the samples
    tail_max_defect: float  # max dependence defect over the tail
    tail_spread: np.ndarray  # per-coordinate peak-to-peak extent of the tail
    converged_to_E: bool


def _check_lasalle_arguments(tail_fraction: float, defect_tol: float) -> None:
    """Raise ValueError unless ``tail_fraction`` is in (0, 1] and ``defect_tol`` is a finite number > 0."""
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must be in (0, 1]")
    _check_positive(defect_tol, "defect_tol")


def lasalle_diagnostics(
    traj: Trajectory,
    sys: SystemDefinition,
    x_e: Sequence[float],
    tail_fraction: float = TAIL_FRACTION,
    defect_tol: float = DEFECT_TOL,
) -> LaSalleReport:
    """Scan ``L = H_phi(x(t)) - H_phi(x_e)`` and the trajectory tail.

    A per-step increase counts as a violation when it exceeds
    ``MONOTONE_SLACK * (1 + |L|)``, ``L`` taken before the step: the rule
    :func:`integrators.integrate` counts entropy increases by.  The tail (last ``tail_fraction`` of the
    samples) approximates the omega-limit set; convergence to the
    linear-dependence set is declared when its worst defect is within
    ``defect_tol``, a finite number > 0; ``tail_fraction`` lies in
    (0, 1].
    """
    _check_lasalle_arguments(tail_fraction, defect_tol)
    if traj.states.shape[1] != sys.n:
        raise ValueError(f"trajectory dimension {traj.states.shape[1]} != system dimension {sys.n}")
    # H(x_e) + phi(C(x_e)) from the value kernels: the sum the L series makes of the H and phi(C) columns
    offset = sys.hamiltonian.value_at(x_e) + compose_entropy(sys).value_at(x_e)

    if traj.diagnostics is not None:
        energy = traj.column("H")
        entropy = traj.column("phi_c")
        defects = traj.column("dependence_defect")
    else:
        diag = _compiled(sys, "diagnostics")
        records = np.array([diag(s) for s in traj.states.tolist()])
        energy, entropy, defects = records[:, 0], records[:, 1], records[:, 3]

    lyap = energy + entropy - offset
    increases = np.diff(lyap)
    if len(increases):
        slack = MONOTONE_SLACK * (1.0 + np.abs(lyap[:-1]))
        violations = int(np.sum(increases > slack))
        worst = float(np.max(increases))
    else:
        violations = 0
        worst = 0.0

    m_tail = max(1, int(np.ceil(tail_fraction * len(traj))))
    tail_states = traj.states[-m_tail:]
    tail_max_defect = float(np.max(defects[-m_tail:]))
    return LaSalleReport(
        monotone_violations=violations,
        worst_increase=worst,
        tail_states=tail_states,
        tail_max_defect=tail_max_defect,
        tail_spread=np.ptp(tail_states, axis=0),
        converged_to_E=bool(tail_max_defect <= defect_tol),
    )
