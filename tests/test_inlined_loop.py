"""The loop with a system's kernel bodies inlined against the loop that calls them, bit for bit.

``integrate`` runs the body of a ``field_function`` kernel inline, and that
of the same system's ``diagnostics_function`` too; in fixed mode stage 1
then reuses the diagnostics' g, u, g.u and |g|^2.  Wrapped in plain
functions, the same callables take the loop that calls them.  Both must
give the same samples, diagnostics and monitors, and the same exception
(type, message, stage, t and partial trajectory) on every generated
system, and at a domain exit forced at each stage.
"""

import gc
import linecache
import traceback

import numpy as np
import pytest

import metriplectic as mp
from metriplectic import expressions as ex
from metriplectic import integrators
from expr_gen import random_tree
from test_generated_loop import _both, _check, _run, assert_same_run

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FIXED = mp.StepControl(h=0.05)
ADAPTIVE = mp.StepControl(mode="adaptive", h=0.1, abs_tol=1e-7, rel_tol=1e-7, max_steps=60)


def generated_system(seed, n, k):
    """Random antisymmetric Pi, H, k Casimirs and phi from expr_gen trees, built without certification."""
    rng = np.random.default_rng(seed)
    entries = [[ex.Num(0.0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            entries[i][j] = random_tree(rng, n, 2)
            entries[j][i] = ex.neg(entries[i][j])
    casimirs = [mp.ScalarField(n, random_tree(rng, n, 2)) for _ in range(k)]
    return mp.SystemDefinition(
        mp.PoissonStructure(n, entries), mp.ScalarField(n, random_tree(rng, n, 3)), casimirs,
        random_tree(rng, k, 2) if k else None, verification=mp.VerificationPolicy(samples=0),
    ), rng.uniform(-1.0, 1.0, n)


@settings(derandomize=True, database=None, deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), k=st.integers(0, 2), stride=st.integers(1, 3),
       guard=st.booleans())
def test_inlined_loop_matches_the_calling_loop_on_generated_systems(seed, n, k, stride, guard):
    sys_def, x0 = generated_system(seed, n, k)
    escape = {"escape_center": x0, "escape_radius": 0.2} if guard else {}
    for kind in ("conservative", "metriplectic"):
        field = mp.field_function(sys_def, kind)
        for control in (FIXED, ADAPTIVE):
            for diagnostics in (mp.diagnostics_function(sys_def), None):
                (f, d), (wrapped_f, wrapped_d) = _both(field, diagnostics)
                run = lambda f, d: _run(mp.integrate, f, x0, (0.0, 0.5), control, diagnostics=d, stride=stride,
                                        **escape)
                ref = run(wrapped_f, wrapped_d)
                for pair in ((f, d), (f, wrapped_d), (wrapped_f, d)):  # inlined, diagnostics called, field called
                    assert_same_run(run(*pair), ref)
                assert ("loop", kind, d and "diagnostics", control.mode == "adaptive") in sys_def._compiled


# ---------------------------------------------------------------------------
# a domain exit forced at each stage and in the diagnostics

def _rotor(pi_term="", h_term=""):
    """x1, x2 turn clockwise at unit rate while x3, the Casimir's coordinate, dissipates."""
    return mp.load_system({
        "name": "rotor", "dimension": 3,
        "poisson": [["0", "1" + pi_term, "0"], ["-1" + pi_term.replace("+", "-"), "0", "0"], ["0", "0", "0"]],
        "hamiltonian": "(x1^2 + x2^2)/2 + x1*x3/10 + x3^2/4" + h_term, "casimirs": ["x3^2/2"],
        "phi": "(s1 - 0.3)^2",
    }, mp.VerificationPolicy(samples=0))


def _events(control):
    """(label, point) of every field and diagnostics call on the rotor, in order: stage number or "D"."""
    events = []
    sys_def = _rotor()
    field, diagnostics = mp.field_function(sys_def, "metriplectic"), mp.diagnostics_function(sys_def)

    def record(fn, label):
        def call(x):
            calls = sum(1 for e in events if e[0] != "D")
            stage = calls % 4 + 1 if control.mode == "fixed" else 1 if calls == 0 else (calls - 1) % 6 + 2
            events.append((label or stage, x.copy()))
            return fn(x)
        return call

    mp.integrate(record(field, None), [1.0, 0.0, 0.5], (0.0, 3.0), control, diagnostics=record(diagnostics, "D"))
    return events


def _half_plane(events, target):
    """``c1*x1 + c2*x2`` positive at the first target event past an earlier one of its kind (field
    or diagnostics; stage 1 may come first) and at no earlier event of its kind."""
    angle = -np.unwrap([np.arctan2(p[1], p[0]) for _, p in events])  # grows along the run
    kind = lambda label: label == "D"
    for e, (label, _) in enumerate(events):
        before = [angle[j] for j in range(e) if kind(events[j][0]) == kind(target)]
        if label == target and (before or target == 1) and angle[e] > max(before, default=-1.0) + 1e-6:
            cut = -(angle[e] + max(before, default=-1.0)) / 2  # a ray between them
            return float(np.sin(cut)), float(-np.cos(cut))  # past the ray, turning clockwise: positive
    raise AssertionError(f"no event {target!r} ahead of all earlier ones")


@pytest.mark.parametrize("mode, target", [("fixed", s) for s in (1, 2, 3, 4, "D")]
                         + [("adaptive", s) for s in (1, 2, 3, 4, 5, 6, 7, "D")])
def test_a_domain_exit_at_each_stage_parity(mode, target):
    control = FIXED if mode == "fixed" else mp.StepControl(mode="adaptive", h=0.2, abs_tol=1e-6, rel_tol=1e-6)
    c1, c2 = _half_plane(_events(control), target)
    region = f"{c1!r}*x1 + {c2!r}*x2"
    if target == "D":  # ln fails in H's value only: its derivative divides by the argument instead
        sys_def = _rotor(h_term=f" + 1e-300*ln(-({region}))")
    else:  # sqrt fails in Pi, which only the field evaluates
        sys_def = _rotor(pi_term=f" + 1e-300*sqrt(-({region}))")
    field = mp.field_function(sys_def, "metriplectic")
    for diagnostics in (mp.diagnostics_function(sys_def),) + ((None,) if target != "D" else ()):
        ref = _check(field, [1.0, 0.0, 0.5], (0.0, 3.0), control, diagnostics=diagnostics)
        assert isinstance(ref, mp.DivergenceError) and "math domain error at x=[" in str(ref)
        if target == "D":
            assert str(ref).startswith("diagnostics evaluation failed at t=")
        else:
            assert ref.__cause__.stage == target


# ---------------------------------------------------------------------------
# one compile per system, and its source in linecache and tracebacks

def test_runs_on_one_system_exec_one_loop_source(monkeypatch):
    sys_def = mp.rigid_body_system()
    mp.field_function(sys_def, "metriplectic"), mp.diagnostics_function(sys_def)  # kernels compile here
    labels, original = [], integrators.exec_source
    monkeypatch.setattr(integrators, "exec_source", lambda source, label, *args: (
        labels.append(label), original(source, label, *args))[1])
    for _ in range(2):
        mp.integrate(mp.field_function(sys_def, "metriplectic"), [1.01, 0.05, -0.03], (0.0, 0.1), FIXED,
                     diagnostics=mp.diagnostics_function(sys_def))
    assert labels == ["rk4-fixed-metriplectic"]


def test_inlined_loop_leaves_linecache_with_its_system():
    existing = set(linecache.cache)
    sys_def = mp.rigid_body_system()
    mp.integrate(mp.field_function(sys_def, "metriplectic"), [1.01, 0.05, -0.03], (0.0, 0.1), FIXED,
                 diagnostics=mp.diagnostics_function(sys_def))
    added = {name for name in set(linecache.cache) - existing if name.startswith("<rk4-fixed-metriplectic-")}
    assert len(added) == 1
    del sys_def
    gc.collect()
    assert not added & set(linecache.cache)


def test_a_kernel_failing_inside_the_inlined_loop_shows_the_loop_line():
    # x1' = -1 takes x1 out of sqrt's domain at the stage-4 point of step 5
    sys_def = mp.load_system({"name": "edge", "dimension": 2, "poisson": [["0", "1"], ["-1", "0"]],
                              "hamiltonian": "-x2 + 0.01*sqrt(x1)"})
    with pytest.raises(mp.DivergenceError) as err:
        mp.integrate(mp.field_function(sys_def, "conservative"), [0.47, 0.0], (0.0, 1.0), mp.StepControl(h=0.1))
    text = "".join(traceback.format_exception(err.value))
    assert 'File "<rk4-fixed-conservative-' in text and "_sqrt(_x1)" in text
    assert "stage 4, t=0.4" in text and "math domain error at x=[" in text
