"""Fixed and adaptive Runge-Kutta integration with per-step monitors.

The stepper is the classical 4th-order scheme.  Adaptive mode estimates
the local error by step doubling (one full step against two half steps,
Richardson factor 1/15 for an order-4 method) and accepts a step only
when the estimate is below ``abs_tol + rel_tol * ||x||_inf``.

When a diagnostics callable is supplied, every accepted step is scored
with ``(H, phi(C), entropy production, dependence defect)``; energy
drift and entropy increases are tracked per step even if the trajectory
itself is stored at a coarser stride.  Entropy increases are reported,
never corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .expressions import EvaluationError

__all__ = [
    "StepControl",
    "Trajectory",
    "MonitorSummary",
    "IntegrationError",
    "DivergenceError",
    "FieldEvaluationError",
    "rk4_step",
    "integrate",
    "DIAGNOSTIC_COLUMNS",
]

DIAGNOSTIC_COLUMNS = ("H", "phi_c", "entropy_production", "dependence_defect")


class IntegrationError(RuntimeError):
    """The run could not be completed (e.g. step budget exhausted)."""


class FieldEvaluationError(RuntimeError):
    """The vector field failed inside a Runge-Kutta stage."""

    def __init__(self, stage: int, t: float, cause: Exception):
        super().__init__(f"field evaluation failed at stage {stage}, t={t!r}: {cause}")
        self.stage = stage
        self.t = t


class DivergenceError(RuntimeError):
    """The state became non-finite or left the divergence bound.

    Carries the partial trajectory accumulated so far in ``trajectory``.
    """

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class StepControl:
    """Step-size policy: fixed step or step-doubling adaptivity."""

    mode: str = "fixed"  # "fixed" | "adaptive"
    h: float = 1e-3
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_steps: int = 10_000_000

    def __post_init__(self):
        if self.mode not in ("fixed", "adaptive"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.h <= 0:
            raise ValueError("step size must be > 0")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be > 0")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be > 0")


@dataclass
class MonitorSummary:
    """Per-step accounting accumulated while integrating."""

    steps_accepted: int = 0
    steps_rejected: int = 0
    initial_energy: Optional[float] = None
    max_energy_drift: Optional[float] = None
    initial_entropy: Optional[float] = None
    entropy_increase_count: Optional[int] = None
    max_entropy_increase: Optional[float] = None
    max_error_ratio: Optional[float] = None  # adaptive: max est/tolerance over accepted steps


@dataclass
class Trajectory:
    """Time-ordered samples with optional per-sample diagnostics.

    ``diagnostics`` has one row per sample with columns
    :data:`DIAGNOSTIC_COLUMNS`.  ``status`` is "completed" or "escaped"
    (the escape guard truncates the run without raising).
    """

    times: np.ndarray
    states: np.ndarray
    diagnostics: Optional[np.ndarray] = None
    status: str = "completed"
    monitor: MonitorSummary = field(default_factory=MonitorSummary)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1 or self.states.ndim != 2:
            raise ValueError("times must be 1-D and states 2-D")
        if len(self.times) != len(self.states):
            raise ValueError("times and states disagree in length")
        if len(self.times) == 0:
            raise ValueError("a trajectory needs at least one sample")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.diagnostics is not None:
            self.diagnostics = np.asarray(self.diagnostics, dtype=float)
            if self.diagnostics.shape != (len(self.times), 4):
                raise ValueError("diagnostics must have shape (samples, 4)")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def column(self, name: str) -> np.ndarray:
        if self.diagnostics is None:
            raise ValueError("trajectory carries no diagnostics")
        return self.diagnostics[:, DIAGNOSTIC_COLUMNS.index(name)]


def rk4_step(field: Callable, x: Sequence[float], t: float, h: float) -> np.ndarray:
    """One classical Runge-Kutta step of size ``h`` from state ``x``.

    ``field`` maps a state vector to its derivative.  Evaluation failures
    are re-raised as :class:`FieldEvaluationError` with the stage index.
    """
    if h <= 0:
        raise ValueError("step size must be > 0")
    x = np.asarray(x, dtype=float)
    stage = 1
    try:
        k1 = field(x)
        stage = 2
        k2 = field(x + (0.5 * h) * k1)
        stage = 3
        k3 = field(x + (0.5 * h) * k2)
        stage = 4
        k4 = field(x + h * k3)
    except EvaluationError as exc:
        raise FieldEvaluationError(stage, t, exc) from exc
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class _Recorder:
    def __init__(self, diagnostics, stride: int, entropy_slack: float,
                 divergence_bound: float, escape_center, escape_radius):
        self.diag_fn = diagnostics
        self.stride = stride
        self.entropy_slack = entropy_slack
        self.divergence_bound = divergence_bound
        self.escape_center = escape_center
        self.escape_radius = escape_radius
        self.times: list[float] = []
        self.states: list[np.ndarray] = []
        self.records: list[tuple] = []
        self.monitor = MonitorSummary()
        self._last_entropy = None

    def observe(self, t: float, x: np.ndarray, accepted_index: int):
        """Score ``x``, store it on the stride (always for index < 0), return its record."""
        record = None
        if self.diag_fn is not None:
            record = self.diag_fn(x)
            mon = self.monitor
            if mon.initial_energy is None:
                mon.initial_energy = record[0]
                mon.max_energy_drift = 0.0
                mon.initial_entropy = record[1]
                mon.entropy_increase_count = 0
                mon.max_entropy_increase = 0.0
            else:
                drift = abs(record[0] - mon.initial_energy)
                if drift > mon.max_energy_drift:
                    mon.max_energy_drift = drift
                increase = record[1] - self._last_entropy
                if increase > self.entropy_slack:
                    mon.entropy_increase_count += 1
                if increase > mon.max_entropy_increase:
                    mon.max_entropy_increase = increase
            self._last_entropy = record[1]
        if accepted_index % self.stride == 0 or accepted_index < 0:
            self._store(t, x, record)
        return record

    def accept(self, t: float, x: np.ndarray, last: bool) -> bool:
        """Check, count and observe an accepted step ending at ``(t, x)``;
        True when the escape guard fires (the escaping state is stored)."""
        if not np.all(np.isfinite(x)):
            raise self.divergence(f"state became non-finite at t={t!r}")
        if np.max(np.abs(x)) > self.divergence_bound:
            raise self.divergence(f"state exceeded divergence bound {self.divergence_bound:g} at t={t!r}")
        self.monitor.steps_accepted += 1
        record = self.observe(t, x, -1 if last else self.monitor.steps_accepted)
        if self.escape_center is not None and np.linalg.norm(x - self.escape_center) > self.escape_radius:
            self._store(t, x, record)
            return True
        return False

    def divergence(self, message: str) -> DivergenceError:
        return DivergenceError(message, self.build("diverged"))

    def _store(self, t, x, record):
        if self.times and t <= self.times[-1]:
            return  # final sample already stored by the stride
        self.times.append(t)
        self.states.append(np.array(x))
        if self.diag_fn is not None:
            self.records.append(record)

    def build(self, status: str) -> Trajectory:
        diag = np.array(self.records) if self.diag_fn is not None else None
        return Trajectory(
            times=np.array(self.times),
            states=np.array(self.states),
            diagnostics=diag,
            status=status,
            monitor=self.monitor,
        )


def integrate(
    field: Callable,
    x0: Sequence[float],
    t_span: Sequence[float],
    control: StepControl = StepControl(),
    *,
    diagnostics: Optional[Callable] = None,
    stride: int = 1,
    entropy_slack: float = 1e-10,
    divergence_bound: float = 1e6,
    escape_center: Optional[Sequence[float]] = None,
    escape_radius: Optional[float] = None,
) -> Trajectory:
    """Integrate ``dx/dt = field(x)`` over ``t_span = (t0, t1)``.

    Samples are stored at every accepted step (or every ``stride``-th,
    plus always the final state).  ``diagnostics`` is an optional
    state -> 4-tuple callable; when given, each stored sample carries a
    record and per-step monitors are maintained regardless of stride.

    Raises :class:`DivergenceError` (with the partial trajectory) when
    the state becomes non-finite, exceeds ``divergence_bound``, or the
    field fails to evaluate, and in adaptive mode when the error
    estimate is non-finite or an accepted step no longer advances t.
    The escape guard --- leaving the ball of ``escape_radius`` around
    ``escape_center`` --- truncates the run and flags the trajectory
    instead of raising.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got {t_span!r}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise ValueError(f"initial state must be a finite vector, got {x0!r}")
    if escape_center is not None:
        escape_center = np.asarray(escape_center, dtype=float)
        if escape_radius is None or escape_radius <= 0:
            raise ValueError("escape guard needs a positive radius")

    recorder = _Recorder(diagnostics, stride, entropy_slack, divergence_bound, escape_center, escape_radius)
    recorder.observe(t0, x, 0)

    if control.mode == "fixed":
        h = control.h
        span = t1 - t0
        n_steps = max(1, math.ceil(span / h - 1e-9))
        if n_steps > control.max_steps:
            raise IntegrationError(
                f"{n_steps} steps of h={h:g} exceed max_steps={control.max_steps}"
            )
        for i in range(1, n_steps + 1):
            t_next = t0 + i * h if i < n_steps else t1
            step = t_next - (t0 + (i - 1) * h) if i == n_steps else h
            try:
                x = rk4_step(field, x, t0 + (i - 1) * h, step)
            except FieldEvaluationError as exc:
                raise recorder.divergence(str(exc)) from exc
            if recorder.accept(t_next, x, i == n_steps):
                return recorder.build("escaped")
        return recorder.build("completed")

    # adaptive: step doubling on RK4
    t = t0
    h = min(control.h, t1 - t0)
    t_end = t1 - 1e-12 * max(1.0, abs(t1))
    attempts = 0
    recorder.monitor.max_error_ratio = 0.0
    while t < t_end:
        h = min(h, t1 - t)
        attempts += 1
        if attempts > control.max_steps:
            raise IntegrationError(f"step budget max_steps={control.max_steps} exhausted")
        try:
            full = rk4_step(field, x, t, h)
            half = rk4_step(field, x, t, 0.5 * h)
            double = rk4_step(field, half, t + 0.5 * h, 0.5 * h)
        except FieldEvaluationError as exc:
            raise recorder.divergence(str(exc)) from exc
        est = float(np.max(np.abs(full - double))) / 15.0
        if not math.isfinite(est):
            raise recorder.divergence(f"non-finite error estimate at t={t!r}")
        tol = control.abs_tol + control.rel_tol * float(np.max(np.abs(x)))
        if est <= tol:
            t_next = min(t + h, t1)
            if t_next == t:
                raise recorder.divergence(f"step h={h!r} no longer advances t={t!r}")
            x = double
            recorder.monitor.max_error_ratio = max(recorder.monitor.max_error_ratio, est / tol)
            if recorder.accept(t_next, x, t_next >= t_end):
                return recorder.build("escaped")
            t = t_next
        else:
            recorder.monitor.steps_rejected += 1
        factor = 0.9 * (tol / est) ** 0.2 if est > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return recorder.build("completed")
