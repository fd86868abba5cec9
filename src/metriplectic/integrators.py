"""Fixed and adaptive Runge-Kutta integration with per-step monitors.

The stepper is the classical 4th-order scheme.  Adaptive mode estimates
the local error by step doubling (one full step against two half steps,
Richardson factor 1/15 for an order-4 method) and accepts a step only
when the estimate is below ``abs_tol + rel_tol * ||x||_inf``.

When a diagnostics callable is supplied, every accepted step is scored
with ``(H, phi(C), entropy production, dependence defect)``; energy
drift and entropy increases (by the rule of :data:`MONOTONE_SLACK`) are
tracked per step even if the trajectory itself is stored at a coarser
stride.  Entropy increases are reported, never corrected.

Both modes run in a loop emitted from one template per state dimension
n, over float locals.  It calls the system's compiled kernels directly
when ``field`` and ``diagnostics`` come from :mod:`dynamics`, and any
other callable through a thin array adapter; either way it computes the
bits that :func:`rk4_step` computes on arrays.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .expressions import EvaluationError, exec_source
from .geometry import KernelFunction, _check_positive

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

# one step increases a nonincreasing v (phi(C) here, L in stability) if v_new - v_old > this * (1 + |v_old|)
MONOTONE_SLACK = 1e-10
# integrate's default bound on |x_i|
DIVERGENCE_BOUND = 1e6


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
    """Step-size policy: fixed step or step-doubling adaptivity.

    ``h``, ``abs_tol``, ``rel_tol`` and ``max_steps`` must each be a finite
    number > 0.
    """

    mode: str = "fixed"  # "fixed" | "adaptive"
    h: float = 1e-3
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_steps: int = 10_000_000

    def __post_init__(self):
        if self.mode not in ("fixed", "adaptive"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("h", "abs_tol", "rel_tol", "max_steps"):
            _check_positive(getattr(self, name), name)


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

    ``field`` maps a state vector to its derivative; ``h`` must be a finite
    number > 0.  Evaluation failures are re-raised as
    :class:`FieldEvaluationError` with the stage index.
    """
    _check_positive(h, "step size")
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


def _loop_source(n: int, adaptive: bool) -> str:
    """Source of ``run``: the fixed or the adaptive RK4 loop over float locals.

    The state is unrolled into ``x1..xn``; ``F`` and ``D`` take a list of n
    floats and return a tuple.  Each ``rk4`` block is :func:`rk4_step`
    operation for operation, and the checks and monitors are those
    documented on :func:`integrate`, written as float comparisons.
    ``run`` returns ``(status, message, cause, *MonitorSummary fields)``.
    """
    ix = range(1, n + 1)
    vec = lambda p: ", ".join(f"{p}{i}" for i in ix) + ("," if n == 1 else "")
    lst = lambda p: f"[{vec(p)}]"
    sup = lambda terms: terms[0] if n == 1 else f"max({', '.join(terms)})"
    mon = "acc, rej, e0, md, s0, cnt, mi, mer"

    def rk4(src, dst, step, t):  # dst = rk4_step(F, src, t, step)
        axpy = lambda k, a: "[" + ", ".join(f"{src}{i} + {a}*{k}{i}" for i in ix) + "]"
        return [
            f"if {step} <= 0: raise ValueError('step size must be > 0')",
            f"p = 0.5*{step}",
            "try:",
            f"    stage = 1; {vec('a')} = F({lst(src)})",
            f"    stage = 2; {vec('b')} = F({axpy('a', 'p')})",
            f"    stage = 3; {vec('c')} = F({axpy('b', 'p')})",
            f"    stage = 4; {vec('d')} = F({axpy('c', step)})",
            "except EvaluationError as exc:",
            f"    err = FieldEvaluationError(stage, {t}, exc); err.__cause__ = exc",
            f"    return 'diverged', str(err), err, {mon}",
            f"w = {step}/6.0",
        ] + [f"{dst}{i} = {src}{i} + w*(a{i} + 2.0*b{i} + 2.0*c{i} + d{i})" for i in ix]

    def accept(last):  # the accepted state x at time tn
        return [
            f"if not ({' and '.join(f'abs(x{i}) <= B' for i in ix)}):",
            f"    return 'diverged', bad_state({lst('x')}, tn, bound), None, {mon}",
            "acc += 1",
            "if D is not None:",
            f"    rec = D({lst('x')}); dr = abs(rec[0] - e0); inc = rec[1] - sl",
            "    if dr > md: md = dr",
            f"    if inc > {MONOTONE_SLACK!r} and inc > {MONOTONE_SLACK!r} * (1.0 + abs(sl)): cnt += 1",
            "    if inc > mi: mi = inc",
            "    sl = rec[1]",
            f"out = escaped is not None and escaped({lst('x')})",
            f"if (acc % stride == 0 or {last} or out) and tn > tl:",
            f"    T.append(tn); X.extend({lst('x')}); tl = tn",
            "    if D is not None: R.extend(rec)",
            f"if out: return 'escaped', None, None, {mon}",
        ]

    indent = lambda lines, depth: "".join("    " * depth + line + "\n" for line in lines)
    head = "def run(F, D, T, X, R, xs, t0, t1, h, stride, bound, escaped," \
           " n_steps, abs_tol, rel_tol, max_steps):\n" + indent([
               f"{vec('x')} = xs; T.append(t0); X.extend(xs); tl = t0",
               "acc = rej = 0; e0 = md = s0 = cnt = mi = mer = None",
               f"B = bound if bound <= {_FLOAT_MAX!r} else {_FLOAT_MAX!r}  # so abs(x) <= B fails on inf and nan",
               "if D is not None:",
               f"    rec = D({lst('x')}); e0 = rec[0]; s0 = sl = rec[1]; md = mi = 0.0; cnt = 0; R.extend(rec)",
           ], 1)
    if not adaptive:
        body = indent([
            "for i in range(1, n_steps + 1):",
            "    tn = t0 + i * h if i < n_steps else t1",
            "    hs = tn - (t0 + (i - 1) * h) if i == n_steps else h",
        ], 1) + indent(rk4("x", "x", "hs", "t0 + (i - 1) * h") + accept("i == n_steps"), 2)
    else:
        body = indent([
            "t = t0; h = min(h, t1 - t0); t_end = t1 - 1e-12 * max(1.0, abs(t1)); mer = 0.0",
            "while t < t_end or acc == 0:  # a span shorter than the end slack still takes a step",
            "    h = min(h, t1 - t); hh = 0.5 * h",
            "    if acc + rej >= max_steps:",
            "        raise IntegrationError(f'step budget max_steps={max_steps} exhausted')",
        ], 1) + indent(rk4("x", "f", "h", "t") + rk4("x", "y", "hh", "t") + rk4("y", "z", "hh", "t + 0.5 * h") + [
            f"est = {sup([f'abs(f{i} - z{i})' for i in ix])} / 15.0",
            "if " + " + ".join(f"(f{i} - z{i})*0.0" for i in ix) + " != 0.0:  # an inf or nan difference",
            f"    return 'diverged', f'non-finite error estimate at t={{t!r}}', None, {mon}",
            f"tol = abs_tol + rel_tol * {sup([f'abs(x{i})' for i in ix])}",
            "if est <= tol:",
            "    tn = min(t + h, t1)",
            "    if tn == t:",
            f"        return 'diverged', f'step h={{h!r}} no longer advances t={{t!r}}', None, {mon}",
            f"    {vec('x')} = {vec('z')}",
            "    mer = max(mer, est / tol)",
        ], 2) + indent(accept("tn >= t_end") + ["t = tn"], 3) + indent([
            "else:",
            "    rej += 1",
            "factor = 0.9 * (tol / est) ** 0.2 if est > 0 else 5.0",
            "h *= min(5.0, max(0.2, factor))",
        ], 2)
    return head + body + indent([f"return 'completed', None, None, {mon}"], 1)


_FLOAT_MAX = sys.float_info.max


def _bad_state(xs: list, t: float, bound: float) -> str:
    """Why a state with some ``abs(x) <= B`` false failed: non-finite or beyond ``bound``."""
    if not all(map(math.isfinite, xs)):
        return f"state became non-finite at t={t!r}"
    return f"state exceeded divergence bound {bound:g} at t={t!r}"


@functools.lru_cache(maxsize=None)
def _loop(n: int, adaptive: bool) -> Callable:
    env = {"EvaluationError": EvaluationError, "FieldEvaluationError": FieldEvaluationError,
           "IntegrationError": IntegrationError, "bad_state": _bad_state}
    label = f"rk4-{'adaptive' if adaptive else 'fixed'}-n{n}"
    return exec_source(_loop_source(n, adaptive), label, env, "run")["run"]


def _kernel(fn: Callable, n: int) -> Optional[Callable]:
    """The list-in/tuple-out kernel of a :class:`KernelFunction` over n floats."""
    return fn.kernel if type(fn) is KernelFunction and fn.n == n else None


def integrate(
    field: Callable,
    x0: Sequence[float],
    t_span: Sequence[float],
    control: StepControl = StepControl(),
    *,
    diagnostics: Optional[Callable] = None,
    stride: int = 1,
    divergence_bound: float = DIVERGENCE_BOUND,
    escape_center: Optional[Sequence[float]] = None,
    escape_radius: Optional[float] = None,
) -> Trajectory:
    """Integrate ``dx/dt = field(x)`` over ``t_span = (t0, t1)``.

    The span ``t1 - t0`` must be a finite number > 0, and so must
    ``escape_radius`` when a guard is set and, in adaptive mode, the
    first half step ``min(h, t1 - t0) / 2``.  Samples are stored at every
    accepted step (or every ``stride``-th, plus always the final state).  ``diagnostics`` is an optional
    state -> 4-tuple callable; when given, each stored sample carries a
    record and per-step monitors are maintained regardless of stride
    (an entropy increase counts when phi(C) rises by more than
    ``MONOTONE_SLACK * (1 + |phi(C)|)`` over one step).

    Raises :class:`DivergenceError` (with the partial trajectory) when
    the state becomes non-finite, exceeds ``divergence_bound``, or the
    field fails to evaluate, and in adaptive mode when the error
    estimate is non-finite or an accepted step no longer advances t.
    The escape guard --- leaving the ball of ``escape_radius`` around
    ``escape_center`` --- truncates the run and flags the trajectory
    instead of raising.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    _check_positive(t1 - t0, f"span t1 - t0 of {t_span!r}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise ValueError(f"initial state must be a finite vector, got {x0!r}")
    n = len(x)
    escaped = None
    if escape_center is not None:
        escape_center = np.asarray(escape_center, dtype=float)
        if escape_radius is None:
            raise ValueError("escape guard needs a radius")
        _check_positive(escape_radius, "escape radius")
        escaped = lambda xs: np.linalg.norm(np.array(xs) - escape_center) > escape_radius

    if control.mode == "adaptive":  # the loop's first half step, which must not underflow to 0
        _check_positive(0.5 * min(control.h, t1 - t0), f"first half step of h={control.h!r} over span {t_span!r}")
    n_steps = 0
    if control.mode == "fixed":
        steps = (t1 - t0) / control.h - 1e-9
        n_steps = max(1, math.ceil(steps)) if steps < math.inf else steps  # inf fails the budget
        if n_steps > control.max_steps:
            raise IntegrationError(
                f"{n_steps} steps of h={control.h:g} exceed max_steps={control.max_steps}"
            )

    def adapter(xs):  # any other field callable; a scalar broadcasts as it does in rk4_step
        k = np.asarray(field(np.array(xs)), dtype=float)
        return k.tolist() if k.ndim else [float(k)] * n

    F = _kernel(field, n) or adapter
    D = None if diagnostics is None else _kernel(diagnostics, n) or (lambda xs: diagnostics(np.array(xs)))
    times, states, records = [], [], []
    status, message, cause, *counts = _loop(n, control.mode == "adaptive")(
        F, D, times, states, records, x.tolist(), t0, t1, control.h, stride, divergence_bound,
        escaped, n_steps, control.abs_tol, control.rel_tol, control.max_steps,
    )
    traj = Trajectory(
        times=np.array(times),
        states=np.array(states).reshape(-1, n),
        diagnostics=None if D is None else np.array(records).reshape(len(times), -1),
        status=status,
        monitor=MonitorSummary(*counts),
    )
    if message is not None:
        raise DivergenceError(message, traj) from cause
    return traj
