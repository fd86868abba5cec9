"""In-memory span tracer wrapped around the public functions of the package.

The benchmark measures each layer from outside: it replaces a public
function, in every package module that holds it, by a wrapper that
times and counts the call, and puts the originals back afterwards.  No
file under ``src/`` is changed.

A call is a span with a name, start, end, parent span and job id.  Calls
made once per sampled point or per RK4 stage (``hot`` in ``TRACED``, the
field and diagnostics callables, and ``evaluate``) run hundreds of
thousands of times a run, so they are folded into one aggregate per
(parent span, name, job) holding their count, total and self time; all
other calls are kept as individual spans.  A span's self
time is its duration minus the time its child spans cover (children run
nested on one thread, so that is the sum of their durations).
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

_clock = time.perf_counter

# (module, attribute, span name, hot)
TRACED = (
    ("expressions", "parse", "expressions.parse", False),
    ("expressions", "differentiate", "expressions.differentiate", False),
    ("geometry", "verify_casimir", "geometry.verify_casimir", False),
    ("geometry", "poisson_matrix", "geometry.poisson_matrix", True),
    ("geometry", "ScalarField.__init__", "geometry.ScalarField", False),
    ("geometry", "ScalarField.gradient_at", "geometry.gradient_at", True),
    ("systems", "rigid_body_system", "systems.rigid_body_system", False),
    ("systems", "load_system", "systems.load_system", False),
    ("systems", "load_system_file", "systems.load_system_file", False),
    ("dissipation", "verify_metriplectic_conditions", "dissipation.verify_metriplectic_conditions", False),
    ("dynamics", "field_function", "dynamics.field_function", False),
    ("dynamics", "diagnostics_function", "dynamics.diagnostics_function", False),
    ("dynamics", "conservative_field", "dynamics.conservative_field", False),
    ("dynamics", "metriplectic_field", "dynamics.metriplectic_field", False),
    ("dynamics", "classify_equilibrium", "dynamics.classify_equilibrium", False),
    ("integrators", "integrate", "integrators.integrate", False),
    ("stability", "lyapunov_report", "stability.lyapunov_report", False),
    ("stability", "lasalle_diagnostics", "stability.lasalle_diagnostics", False),
    ("cli", "main", "cli.main", False),
)

LAYERS = ("expressions", "geometry", "systems", "dissipation", "dynamics", "integrators", "stability", "cli")


class Tracer:
    """Collects spans and counts while installed; restores the package on uninstall."""

    def __init__(self, package):
        self.package = package
        self.job = None
        self.spans = []  # (id, name, start, end, parent, job)
        self.aggregates = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name, job) -> calls, total, self
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total, self
        self.counts = Counter()
        self._stack = []  # open frames: [id of the nearest individual span, child time]
        self._next_id = 0
        self._in_evaluate = False
        self._restore = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [self.package] + [getattr(self.package, m) for m in LAYERS]
        for module_name, attr, name, hot in TRACED:
            module = getattr(self.package, module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, meth, self._wrap(getattr(cls, meth), name, hot))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, hot, _RESULT_WRAPPERS.get(name))
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, key, wrapper)
        self._install_evaluate()

    def uninstall(self) -> None:
        while self._restore:
            holder, key, original = self._restore.pop()
            setattr(holder, key, original)

    def _replace(self, holder, key, wrapper) -> None:
        self._restore.append((holder, key, getattr(holder, key)))
        setattr(holder, key, wrapper)

    def _install_evaluate(self) -> None:
        # evaluate recurses through its module global, so every node entry
        # reaches this wrapper; only the outermost entry opens a span
        ex = self.package.expressions
        original = ex.evaluate
        outer = self._wrap(original, "expressions.evaluate", True)
        tracer = self

        def evaluate(e, point):
            tracer.counts["expressions.evaluate_nodes"] += 1
            if tracer._in_evaluate:
                return original(e, point)
            tracer._in_evaluate = True
            try:
                return outer(e, point)
            finally:
                tracer._in_evaluate = False

        for holder in [self.package, ex]:
            if vars(holder).get("evaluate") is original:
                self._replace(holder, "evaluate", evaluate)

    # -- spans ------------------------------------------------------------

    def _wrap(self, fn, name, hot, on_result=None):
        tracer = self
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            if hot:
                span_id = parent
            else:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                tracer._close(name, hot, span_id, parent, start, end, frame[1])
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            if on_result is not None:
                result = on_result(tracer, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, name, hot, span_id, parent, start, end, child) -> None:
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        own = duration - child
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += own
        if hot:
            agg = self.aggregates[(parent, name, self.job)]
            agg[0] += 1
            agg[1] += duration
            agg[2] += own
        else:
            self.spans.append((span_id, name, start, end, parent, self.job))

    # -- results ----------------------------------------------------------

    def calls(self, name) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def total_s(self, name) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def self_s(self, name) -> float:
        return self.totals[name][2] if name in self.totals else 0.0

    def layer_self_s(self, layer) -> float:
        prefix = layer + "."
        return sum((v[2] for k, v in self.totals.items() if k.startswith(prefix)), 0.0)

    def calls_under(self, name, parent_name) -> int:
        """Calls of hot span ``name`` whose nearest individual span is ``parent_name``."""
        parents = {s[0] for s in self.spans if s[1] == parent_name}
        return sum(v[0] for (p, n, _), v in self.aggregates.items() if n == name and p in parents)

    def dump(self, path, header: dict) -> None:
        payload = dict(header)
        payload["span_fields"] = ["id", "name", "start", "end", "parent", "job"]
        payload["spans"] = self.spans
        payload["aggregate_fields"] = ["parent", "name", "job", "calls", "total_s", "self_s"]
        payload["aggregates"] = [[p, n, j] + v for (p, n, j), v in self.aggregates.items()]
        payload["counts"] = dict(self.counts)
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _count_points(key, index):
    def count(counts, args, kwargs, result):
        points = args[index] if len(args) > index else kwargs["points"]
        counts[key] += len(points)
    return count


def _count_steps(counts, args, kwargs, traj):
    counts["integrators.steps_accepted"] += traj.monitor.steps_accepted
    counts["integrators.steps_rejected"] += traj.monitor.steps_rejected


def _count_samples(counts, args, kwargs, report):
    traj = args[0] if args else kwargs["traj"]
    counts["stability.lasalle_samples"] += len(traj)


_COUNTERS = {
    "geometry.verify_casimir": _count_points("geometry.casimir_points", 2),
    "dissipation.verify_metriplectic_conditions": _count_points("dissipation.points", 1),
    "integrators.integrate": _count_steps,
    "stability.lasalle_diagnostics": _count_samples,
}

# the callables returned by the kernel factories are what integrate calls
_RESULT_WRAPPERS = {
    "dynamics.field_function": lambda tracer, fn: tracer._wrap(fn, "dynamics.field", True),
    "dynamics.diagnostics_function": lambda tracer, fn: tracer._wrap(fn, "dynamics.diag", True),
}
