"""Every numeric option of the CLI, at the edges of the float line, ends in a defined exit.

``cli.main`` runs in-process on the rigid body with each float option
drawn from nan, +-inf, +-0, subnormals, -1, 1e300 and one ordinary value,
each vector component from the same set and each int option from -1, 0,
1 and one ordinary value.  Whatever the mix, the run exits 0, 1, 2 or 3
without a traceback, a usage error says what is wrong, a successful
``simulate`` has really stepped, and every JSON file it writes is strict.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metriplectic import cli
from test_cli import _strict_json

EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-320, -1.0, 1e300)


def _values(normal, edges):
    """The edges and, three times as often as all of them together, the ordinary value."""
    return st.sampled_from((normal,) * (3 * len(edges)) + tuple(edges))


def floats(normal, edges=EDGES):
    return _values(normal, edges).map(repr)


def ints(normal):
    return _values(normal, (-1, 0, 1)).map(str)


def vectors(normal):
    """Three components, one of them drawn as a float option is."""
    return st.tuples(_values(normal, EDGES), st.integers(0, 2)).map(
        lambda drawn: ",".join(repr(drawn[0] if i == drawn[1] else normal) for i in range(3)))


# option -> strategy for its value; ``True`` marks a flag without a value.
# The step budget and sample count stay small so that every run is short;
# t1 takes every edge but 1e300, and the budget bounds every longer span.
COMMANDS = {
    "verify": ({"--samples": ints(20)}, {
        "--box-lo": floats(-2.0), "--box-hi": floats(2.0), "--tol": floats(1e-10), "--seed": ints(7),
    }),
    "equilibrium": ({"--point": vectors(1.0)}, {
        "--tol": floats(1e-9), "--pd-tol": floats(1e-8),
    }),
    "simulate": ({"--x0": vectors(0.5), "--t1": floats(1.0, EDGES[:-1]), "--max-steps": ints(2000)}, {
        "--adaptive": st.just(True), "--t0": floats(0.0), "--h": floats(1e-2),
        "--abs-tol": floats(1e-9), "--rel-tol": floats(1e-9), "--stride": ints(3),
        "--divergence-bound": floats(1e6), "--guard-center": vectors(0.5), "--guard-radius": floats(1.0),
        "--analyze": st.just(True), "--x-e": vectors(1.0), "--tail-fraction": floats(0.1),
        "--defect-tol": floats(1e-6),
    }),
}


EXAMPLES = {"verify": 30, "equilibrium": 20, "simulate": 45}


def _argv(command, options):
    argv = [command]
    for flag, value in options.items():
        argv += [flag] if value is True else [f"{flag}={value}"]  # "=" keeps argparse off "-inf"
    return argv


def invocations(command):
    required, optional = COMMANDS[command]
    return st.fixed_dictionaries(required, optional=optional).map(lambda options: _argv(command, options))


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_numeric_input_ends_in_a_defined_exit(command):
    run_and_check = settings(derandomize=True, database=None, max_examples=EXAMPLES[command], deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])(given(invocations(command))(_run_and_check))
    run_and_check()


def _run_and_check(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--out-dir", tmp])
        stderr = err.getvalue()
        assert code in (0, 1, 2, 3), (code, stderr)
        assert "Traceback" not in stderr + out.getvalue()
        if code == 2:
            assert stderr.startswith(("error:", "cannot load")), stderr
        reports = {path.name: _strict_json(path) for path in Path(tmp).glob("*.json")}
        if code == 0 and argv[0] == "simulate":
            summary = reports["simulate_summary.json"]
            assert summary["status"] == "completed" and summary["samples"] >= 2, summary
