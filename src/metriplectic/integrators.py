"""Fixed and adaptive Runge-Kutta integration with per-step monitors.

Fixed mode steps with the classical 4th-order scheme, adaptive mode with
the embedded Dormand-Prince 5(4) pair: it accepts a step only when the
estimate ``||h * sum_i e_i k_i||_inf`` (e = 5th- less 4th-order weights) is
below ``abs_tol + rel_tol * ||x||_inf``, advances with the 5th-order solution
and reuses its last stage as the next first (FSAL): six field calls an attempt.

When a diagnostics callable is supplied, every accepted step is scored
with ``(H, phi(C), entropy production, dependence defect)``; energy
drift and entropy increases (by the rule of :data:`MONOTONE_SLACK`) are
tracked per step even if the trajectory itself is stored at a coarser
stride.  Entropy increases are reported, never corrected.

Both modes run in a loop emitted from one template over float locals.
For a field from :mod:`dynamics` the loop runs its kernel's body inline at
every stage, and the diagnostics body when it comes from the same system;
in fixed mode stage 1 then reuses the diagnostics' g, u, g.u and |g|^2.
That loop is compiled once per system and mode.  Any other callable is
called from the loop of its dimension n, through a thin array adapter
unless it is a kernel.  Every path computes the bits that :func:`rk4_step`
computes on arrays in fixed mode.
"""

from __future__ import annotations

import functools
import math
import re
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
# Dormand-Prince 5(4): rows a_2..a_7 (a_7 = b, the 5th-order weights) and e = b - b*, b* the 4th-order ones
_DP_A = ((1/5,), (3/40, 9/40), (44/45, -56/15, 32/9), (19372/6561, -25360/2187, 64448/6561, -212/729),
         (9017/3168, -355/33, 46732/5247, 49/176, -5103/18656), (35/384, 0.0, 500/1113, 125/192, -2187/6784, 11/84))
_DP_E = (71/57600, 0.0, -71/16695, 71/1920, -17253/339200, 22/525, -1/40)


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
    """Step-size policy: fixed RK4 step or Dormand-Prince 5(4) adaptivity.

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
    :data:`DIAGNOSTIC_COLUMNS`.  ``status`` is "completed", "escaped"
    (the escape guard truncates the run without raising) or "diverged"
    (the partial trajectory a :class:`DivergenceError` carries).
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


def _loop_source(n: int, adaptive: bool, field: Optional[Sequence[str]] = None,
                 diagnostics: Optional[Sequence[str]] = None, tail: Optional[Sequence[str]] = None) -> str:
    """Source of ``run``: the fixed RK4 or the adaptive Dormand-Prince loop over float locals.

    The state is unrolled into ``x1..xn``; ``F`` and ``D`` take a list of n floats and return
    a tuple, unless kernel bodies ``field`` and ``diagnostics`` run inline (locals renamed
    ``_<name>``, a math error raised as the kernel raises it), and in fixed mode ``tail``, over
    the diagnostics' locals, is stage 1 at the state they have just scored.  The fixed step is
    :func:`rk4_step` operation for operation, and the checks and monitors are those
    documented on :func:`integrate`, written as float comparisons.
    ``run`` returns ``(status, message, cause, *MonitorSummary fields)``.
    """
    ix = range(1, n + 1)
    vec = lambda p: ", ".join(f"{p}{i}" for i in ix) + ("," if n == 1 else "")
    lst = lambda p: f"[{vec(p)}]"
    sup = lambda terms: terms[0] if n == 1 else f"max({', '.join(terms)})"
    mon = "acc, rej, e0, md, s0, cnt, mi, mer"
    xs = [f"x{i}" for i in ix]
    local = set(xs) | {name for body in (field, diagnostics, tail) if body
                       for line in body for name in re.findall(r"(\w+) = ", line)}
    rename = lambda line: re.sub(r"\b[A-Za-z_]\w*", lambda m: "_" + m[0] if m[0] in local else m[0], line)

    def evaluate(body, call, args, out):  # out = the kernel at args: its body inline, or a call
        if body is None:
            return [f"{out} = {call}([{', '.join(args)}])"]
        return [f"_x{i} = {a}" for i, a in zip(ix, args)] + [rename(line) for line in body[:-1]] + [
            f"{out} = {rename(body[-1]).removeprefix('return ')}"]

    def guard(lines, body, fail):  # lines under one handler: the kernel's EvaluationError exc ends the run by fail
        caught = f"KERNEL_ERRORS as exc: exc = kernel_error(exc, {lst('_x')});" if body else "EvaluationError as exc:"
        return ["try:"] + ["    " + line for line in lines] + [f"except {caught} {fail}"]

    def at(s, k, args):  # stage s: k1..kn is the field at args
        first, *rest = evaluate(tail if s == 1 and tail else field, "F", args, vec(k))
        return [f"stage = {s}; {first}"] + rest

    def calls(lines, t):  # the stage lines under one handler: an EvaluationError ends the run at time t
        return guard(lines, field, f"err = FieldEvaluationError(stage, {t}, exc); err.__cause__ = exc;"
                                   f" return 'diverged', str(err), err, {mon}")

    def diagnose(fail):  # rec = D(x), or fail with the EvaluationError exc
        return ["    " + line for line in guard(evaluate(diagnostics, "D", xs, "rec"), diagnostics, fail)]

    def accept(last):  # the accepted state x at time tn
        return [
            f"if not ({' and '.join(f'abs(x{i}) <= B' for i in ix)}):",
            f"    return 'diverged', bad_state({lst('x')}, tn, bound), None, {mon}",
            "acc += 1",
            "if D is not None:",
        ] + diagnose(f"return 'diverged', f'diagnostics evaluation failed at t={{tn!r}}: {{exc}}', exc, {mon}") + [
            "    dr = abs(rec[0] - e0); inc = rec[1] - sl",
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
           ] + diagnose("raise exc") + [
               "    e0 = rec[0]; s0 = sl = rec[1]; md = mi = 0.0; cnt = 0; R.extend(rec)",
           ], 1)
    if not adaptive:  # x = rk4_step(F, x, t, hs), operation for operation
        axpy = lambda k, a: [f"x{i} + {a}*{k}{i}" for i in ix]
        body = indent([
            "for i in range(1, n_steps + 1):",
            "    tn = t0 + i * h if i < n_steps else t1",
            "    hs = tn - (t0 + (i - 1) * h) if i == n_steps else h",
        ], 1) + indent(["if hs <= 0: raise ValueError('step size must be > 0')", "p = 0.5*hs"] + calls(
            at(1, "a", xs) + at(2, "b", axpy("a", "p")) + at(3, "c", axpy("b", "p")) + at(4, "d", axpy("c", "hs")),
            "t0 + (i - 1) * h") + ["w = hs/6.0"] + [f"x{i} = x{i} + w*(a{i} + 2.0*b{i} + 2.0*c{i} + d{i})" for i in ix]
            + accept("i == n_steps"), 2)
    else:  # k1..k7 are a..g, stage s is F(x + h*sum_j A[s-2][j]*k_j), and k7 = F(y) is the next k1 once y is accepted
        dp = lambda row, i: " + ".join(f"{w!r}*{'abcdefg'[j]}{i}" for j, w in enumerate(row) if w)
        stages = [line for s, row in enumerate(_DP_A[:-1], 2)
                  for line in at(s, "abcdefg"[s - 1], [f"x{i} + h*({dp(row, i)})" for i in ix])]
        body = indent([
            "t = t0; h = min(h, t1 - t0); t_end = t1 - 1e-12 * max(1.0, abs(t1)); mer = 0.0",
        ] + calls(at(1, "a", xs), "t") + [
            "while t < t_end or acc == 0:  # a span shorter than the end slack still takes a step",
            "    h = min(h, t1 - t)",
            "    if acc + rej >= max_steps:",
            "        raise IntegrationError(f'step budget max_steps={max_steps} exhausted')",
        ], 1) + indent(calls(stages + [f"y{i} = x{i} + h*({dp(_DP_A[-1], i)})" for i in ix]
                             + at(7, "g", [f"y{i}" for i in ix]), "t") + [f"r{i} = h*({dp(_DP_E, i)})" for i in ix] + [
            f"est = {sup([f'abs(r{i})' for i in ix])}",
            "if " + " + ".join(f"r{i}*0.0" for i in ix) + " != 0.0:  # an inf or nan component",
            f"    return 'diverged', f'non-finite error estimate at t={{t!r}}', None, {mon}",
            f"tol = abs_tol + rel_tol * {sup([f'abs(x{i})' for i in ix])}",
            "if est <= tol:",
            "    tn = min(t + h, t1)",
            "    if tn == t:",
            f"        return 'diverged', f'step h={{h!r}} no longer advances t={{t!r}}', None, {mon}",
            f"    {vec('x')} = {vec('y')}; {vec('a')} = {vec('g')}",
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


_LOOP_ENV = {"EvaluationError": EvaluationError, "FieldEvaluationError": FieldEvaluationError,
             "IntegrationError": IntegrationError, "bad_state": _bad_state}


@functools.lru_cache(maxsize=None)
def _loop(n: int, adaptive: bool) -> Callable:
    label = f"rk4-{'adaptive' if adaptive else 'fixed'}-n{n}"
    return exec_source(_loop_source(n, adaptive), label, _LOOP_ENV, "run")["run"]


def _inlined_loop(field: KernelFunction, diagnostics: Optional[Callable], adaptive: bool) -> Callable:
    """The loop running ``field``'s body inline, and ``diagnostics``' when it is a kernel of the
    same system, fused in fixed mode; compiled once and kept in that system's kernel table."""
    kind, table = field.body
    same = _kernel(diagnostics, field.n) and diagnostics.body and diagnostics.body[1] is table
    key = ("loop", kind, diagnostics.body[0] if same else None, adaptive)
    if key not in table:
        tail = table["body", kind + "-tail"] if key[2] == "diagnostics" and not adaptive else None
        source = _loop_source(field.n, adaptive, table["body", kind], table.get(("body", key[2])), tail)
        env = {**field.kernel.__globals__, **_LOOP_ENV}  # the environment all of a system's kernels share
        table[key] = exec_source(source, f"rk4-{'adaptive' if adaptive else 'fixed'}-{kind}", env, "run")["run"]
    return table[key]


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
    first stage step ``min(h, t1 - t0) / 5``.  Samples are stored at every
    accepted step (or every ``stride``-th, plus always the final state).  ``diagnostics`` is an optional
    state -> 4-tuple callable; when given, each stored sample carries a
    record and per-step monitors are maintained regardless of stride
    (an entropy increase counts when phi(C) rises by more than
    ``MONOTONE_SLACK * (1 + |phi(C)|)`` over one step).

    Raises :class:`DivergenceError` (with the partial trajectory) when the state becomes non-finite
    or exceeds ``divergence_bound``; when the field fails, naming its stage (1-4 fixed, 1-7 adaptive,
    where stage 7 is the candidate state, the final one included) and the step's start time; when an
    accepted state's diagnostics fail; and in adaptive mode when the error estimate is non-finite or
    an accepted step no longer advances t.
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

    if control.mode == "adaptive":  # the loop's first stage step, which must not underflow to 0
        _check_positive(min(control.h, t1 - t0) / 5, f"first stage step h/5 of h={control.h!r} over span {t_span!r}")
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
    adaptive = control.mode == "adaptive"
    run = _inlined_loop(field, diagnostics, adaptive) if F is not adapter and field.body else _loop(n, adaptive)
    times, states, records = [], [], []
    status, message, cause, *counts = run(
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
