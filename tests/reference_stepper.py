"""Reference integrator the generated RK4 loop is checked against, bit for bit.

It steps with the public :func:`metriplectic.rk4_step` on numpy arrays and
keeps the accept logic of an array stepper written out plainly: state
checks, per-step monitors, stride storage and the escape guard (measured
with ``np.linalg.norm``), on the fixed schedule ``t0 + i*h`` and the
adaptive Dormand-Prince 5(4) controller, whose stages it forms on arrays
with the generated loop's operations in the same order.  Its signature is
that of :func:`metriplectic.integrate`.
"""

import functools
import math
import operator

import numpy as np

import metriplectic as mp
from metriplectic.integrators import _DP_A, _DP_E, MONOTONE_SLACK, FieldEvaluationError


def _combine(weights, ks):
    """``sum_j w_j * k_j`` over the nonzero weights, added left to right."""
    return functools.reduce(operator.add, [w * k for w, k in zip(weights, ks) if w])


class _Recorder:
    def __init__(self, diagnostics, stride, divergence_bound, escape_center, escape_radius):
        self.diag_fn = diagnostics
        self.stride = stride
        self.divergence_bound = divergence_bound
        self.escape_center = escape_center
        self.escape_radius = escape_radius
        self.times, self.states, self.records = [], [], []
        self.monitor = mp.MonitorSummary()
        self._last_entropy = None

    def observe(self, t, x, accepted_index):
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
                if increase > MONOTONE_SLACK * (1.0 + abs(self._last_entropy)):
                    mon.entropy_increase_count += 1
                if increase > mon.max_entropy_increase:
                    mon.max_entropy_increase = increase
            self._last_entropy = record[1]
        if accepted_index % self.stride == 0 or accepted_index < 0:
            self._store(t, x, record)
        return record

    def accept(self, t, x, last):
        if not np.all(np.isfinite(x)):
            raise self.divergence(f"state became non-finite at t={t!r}")
        if np.max(np.abs(x)) > self.divergence_bound:
            raise self.divergence(f"state exceeded divergence bound {self.divergence_bound:g} at t={t!r}")
        self.monitor.steps_accepted += 1
        try:
            record = self.observe(t, x, -1 if last else self.monitor.steps_accepted)
        except mp.EvaluationError as exc:
            raise self.divergence(f"diagnostics evaluation failed at t={t!r}: {exc}") from exc
        if self.escape_center is not None and np.linalg.norm(x - self.escape_center) > self.escape_radius:
            self._store(t, x, record)
            return True
        return False

    def divergence(self, message):
        return mp.DivergenceError(message, self.build("diverged"))

    def _store(self, t, x, record):
        if self.times and t <= self.times[-1]:
            return
        self.times.append(t)
        self.states.append(np.array(x))
        if self.diag_fn is not None:
            self.records.append(record)

    def build(self, status):
        return mp.Trajectory(
            times=np.array(self.times),
            states=np.array(self.states),
            diagnostics=np.array(self.records) if self.diag_fn is not None else None,
            status=status,
            monitor=self.monitor,
        )


def reference_integrate(field, x0, t_span, control=mp.StepControl(), *, diagnostics=None, stride=1,
                        divergence_bound=1e6, escape_center=None, escape_radius=None):
    t0, t1 = float(t_span[0]), float(t_span[1])
    x = np.asarray(x0, dtype=float)
    if escape_center is not None:
        escape_center = np.asarray(escape_center, dtype=float)
    recorder = _Recorder(diagnostics, stride, divergence_bound, escape_center, escape_radius)
    recorder.observe(t0, x, 0)

    if control.mode == "fixed":
        h = control.h
        n_steps = max(1, math.ceil((t1 - t0) / h - 1e-9))
        if n_steps > control.max_steps:
            raise mp.IntegrationError(f"{n_steps} steps of h={h:g} exceed max_steps={control.max_steps}")
        for i in range(1, n_steps + 1):
            t_next = t0 + i * h if i < n_steps else t1
            step = t_next - (t0 + (i - 1) * h) if i == n_steps else h
            try:
                x = mp.rk4_step(field, x, t0 + (i - 1) * h, step)
            except FieldEvaluationError as exc:
                raise recorder.divergence(str(exc)) from exc
            if recorder.accept(t_next, x, i == n_steps):
                return recorder.build("escaped")
        return recorder.build("completed")

    t = t0
    h = min(control.h, t1 - t0)
    t_end = t1 - 1e-12 * max(1.0, abs(t1))
    attempts = 0
    recorder.monitor.max_error_ratio = 0.0

    def stage(number, state):
        try:
            return np.asarray(field(state), dtype=float)
        except mp.EvaluationError as exc:
            err = FieldEvaluationError(number, t, exc)
            err.__cause__ = exc
            raise recorder.divergence(str(err)) from err

    k1 = stage(1, x)
    while t < t_end or recorder.monitor.steps_accepted == 0:
        h = min(h, t1 - t)
        attempts += 1
        if attempts > control.max_steps:
            raise mp.IntegrationError(f"step budget max_steps={control.max_steps} exhausted")
        ks = [k1]
        for number, row in enumerate(_DP_A[:-1], 2):
            ks.append(stage(number, x + h * _combine(row, ks)))
        y = x + h * _combine(_DP_A[-1], ks)
        k7 = stage(7, y)
        est = float(np.max(np.abs(h * _combine(_DP_E, ks + [k7]))))
        if not math.isfinite(est):
            raise recorder.divergence(f"non-finite error estimate at t={t!r}")
        tol = control.abs_tol + control.rel_tol * float(np.max(np.abs(x)))
        if est <= tol:
            t_next = min(t + h, t1)
            if t_next == t:
                raise recorder.divergence(f"step h={h!r} no longer advances t={t!r}")
            x, k1 = y, k7
            recorder.monitor.max_error_ratio = max(recorder.monitor.max_error_ratio, est / tol)
            if recorder.accept(t_next, x, t_next >= t_end):
                return recorder.build("escaped")
            t = t_next
        else:
            recorder.monitor.steps_rejected += 1
        factor = 0.9 * (tol / est) ** 0.2 if est > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return recorder.build("completed")
