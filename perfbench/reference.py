"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark shares its machine with other work, and the speed at which
the same Python code runs switches between a fast and a slow state (about
1.7 times slower) every few seconds.  While jobs run, :class:`Sampler`
times this kernel from a timer signal every ``PERIOD_S`` seconds, also in
the middle of a job, and the runner scales each job's wall time (less the
kernel time spent inside it) by the mean of ``REFERENCE_S / t_kernel`` over
the samples during and just around the job, which cancels that drift.
The kernel does the package's kind of work with none of the package's
code: an RK4 loop on 3-element numpy arrays around an ``exec``-compiled
closure, a recursive tree walk, and storing and ``%.17g``-formatting fifty
rows the way a trajectory is stored and written.  It must not change, or
scaled times stop being comparable across commits.
"""

import signal
import time

import numpy as np

# scaled times read as wall times on a machine where the kernel takes this long
REFERENCE_S = 1e-3
_REPEATS = 3
PERIOD_S = 0.025  # sampling period of the kernel while jobs run


class _Num:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v


class _Var:
    __slots__ = ("i",)

    def __init__(self, i):
        self.i = i


class _Add:
    __slots__ = ("l", "r")

    def __init__(self, l, r):
        self.l, self.r = l, r


class _Mul(_Add):
    __slots__ = ()


def _walk(e, x):
    if isinstance(e, _Num):
        return e.v
    if isinstance(e, _Var):
        return x[e.i]
    if isinstance(e, _Add):
        return _walk(e.l, x) + _walk(e.r, x)
    return _walk(e.l, x) * _walk(e.r, x)


def _tree(depth, i=0):
    if depth == 0:
        return _Var(i % 3) if i % 2 else _Num(0.5 + i)
    node = _Add if depth % 2 else _Mul
    return node(_tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1))


_TREE = _tree(6)
_NS = {}
exec("def f(xs):\n    x1, x2, x3 = xs\n"
     "    return (0.5*x2*x3 - 0.1*x1, -0.3*x1*x3 - 0.1*x2, 0.2*x1*x2 - 0.1*x3)\n", _NS)
_F = _NS["f"]


def _field(x):
    return np.array(_F(np.asarray(x, dtype=float).tolist()))


def _kernel():
    x = np.array([1.0, 0.1, 0.05])
    h = 1e-3
    states = []
    for _ in range(15):
        k1 = _field(x)
        k2 = _field(x + 0.5 * h * k1)
        k3 = _field(x + 0.5 * h * k2)
        k4 = _field(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    total = 0.0
    for i in range(6):
        total += _walk(_TREE, [1.0 + i, 2.0, 0.5])
    for i in range(50):
        x = x * 1.0000001 + 1e-9
        states.append((i * 1e-3, np.array(x), (x[0] * 0.5, x[1] * 0.25, x[2] * 0.125, 0.0)))
    lines = [",".join([f"{t:.17g}"] + [f"{v:.17g}" for v in s] + [f"{v:.17g}" for v in d]) for t, s, d in states]
    return total, len("\n".join(lines))


def reference_time() -> float:
    """Median of a few timed runs of the kernel, in seconds."""
    times = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


class Sampler:
    """Times the kernel every ``PERIOD_S`` seconds of wall time while entered.

    The kernel runs in a ``SIGALRM`` handler, so between two bytecodes of
    whatever the main thread is doing; ``samples`` holds (start, duration).
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _kernel()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        _kernel()  # warm up
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
