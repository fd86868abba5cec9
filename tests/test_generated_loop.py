"""The generated RK4 loop against the array reference stepper, bit for bit.

``integrate`` binds the compiled kernels directly when its callables come
from ``field_function``/``diagnostics_function`` and goes through an
array adapter otherwise (a ``lambda`` around the same callable), so every
case runs both ways and must match ``reference_integrate`` exactly:
samples, diagnostics and monitors on success, and exception type,
message and partial trajectory on failure.
"""

import functools
import gc
import inspect
import linecache
import math
import traceback

import numpy as np
import pytest

import metriplectic as mp
from metriplectic import integrators
from metriplectic.geometry import KernelFunction
from reference_stepper import reference_integrate
from test_compiled_path import E3_DOCUMENT


def _generic_document(n):
    """n-D system: Pi couples (x1, x2) with a state-dependent entry; x3..xn carry the Casimir."""
    poisson = [["0"] * n for _ in range(n)]
    if n >= 2:
        poisson[0][1], poisson[1][0] = "1 + x1^2/4", "-1 - x1^2/4"
    doc = {"name": f"generic-{n}", "dimension": n, "poisson": poisson,
           "hamiltonian": " + ".join(f"x{i}^2/{i + 1}" for i in range(1, n + 1)) + " + x1^4/8"}
    if n >= 2:
        doc["hamiltonian"] += " + x1*x2/5" + (" + x1*x3/3" if n >= 3 else "")
    if n != 2:
        cas = "x1^2/2" if n == 1 else " + ".join(f"x{i}^2" for i in range(3, n + 1)) + "/2"
        doc["casimirs"] = [f"({cas})" if n > 3 else cas]
        doc["phi"] = "(s1 - 0.3)^2 - s1/5"
    return doc


SYSTEMS = {
    1: (_generic_document(1), [0.7]),
    2: (_generic_document(2), [0.6, -0.4]),
    3: (None, [1.01, 0.05, -0.03]),
    4: (_generic_document(4), [0.3, -0.2, 0.5, 0.4]),
    5: (_generic_document(5), [0.3, -0.2, 0.5, 0.4, -0.1]),
    6: (E3_DOCUMENT, [0.01, -0.02, 0.015, 0.01, -0.01, -2.49]),
}


def _system(n):
    doc = SYSTEMS[n][0]
    return mp.rigid_body_system() if doc is None else mp.load_system(doc)


def _run(fn, *args, **kwargs):
    """``fn``'s result, or a comparable record of what it raised."""
    try:
        with np.errstate(all="ignore"):  # the reference's array overflow warnings
            return fn(*args, **kwargs)
    except Exception as exc:
        return exc


def _same_trajectory(a, b):
    assert a.times.tobytes() == b.times.tobytes()
    assert a.states.shape == b.states.shape and a.states.tobytes() == b.states.tobytes()
    if a.diagnostics is None or b.diagnostics is None:
        assert a.diagnostics is None and b.diagnostics is None
    else:
        assert a.diagnostics.tobytes() == b.diagnostics.tobytes()
    assert a.status == b.status
    assert repr(a.monitor) == repr(b.monitor)  # repr keeps nan, -0.0 and numpy scalar types apart


def assert_same_run(new, ref):
    if isinstance(ref, Exception):
        assert type(new) is type(ref), f"{new!r} vs {ref!r}"
        assert str(new) == str(ref)
        assert type(new.__cause__) is type(ref.__cause__)
        if isinstance(ref.__cause__, integrators.FieldEvaluationError):
            assert (new.__cause__.stage, new.__cause__.t) == (ref.__cause__.stage, ref.__cause__.t)
        if isinstance(ref, mp.DivergenceError):
            _same_trajectory(new.trajectory, ref.trajectory)
        return
    assert not isinstance(new, Exception), f"raised {new!r}"
    _same_trajectory(new, ref)


def _both(field, diagnostics=None):
    """(field, diagnostics) as given, and wrapped so that integrate cannot see a kernel."""
    wrap = lambda fn: None if fn is None else (lambda x: fn(x))
    return [(field, diagnostics), (wrap(field), wrap(diagnostics))]


def _check(field, x0, t_span, control, diagnostics=None, **kwargs):
    ref = _run(reference_integrate, field, x0, t_span, control, diagnostics=diagnostics, **kwargs)
    for f, d in _both(field, diagnostics):
        assert_same_run(_run(mp.integrate, f, x0, t_span, control, diagnostics=d, **kwargs), ref)
    return ref


# ---------------------------------------------------------------------------
# bit-for-bit runs

@pytest.mark.parametrize("n", sorted(SYSTEMS))
@pytest.mark.parametrize("mode", ["fixed", "adaptive"])
def test_generated_loop_matches_reference(n, mode):
    sys_def = _system(n)
    x0 = SYSTEMS[n][1]
    field = mp.field_function(sys_def, "metriplectic")
    diag = mp.diagnostics_function(sys_def)
    assert integrators._kernel(field, n) is not None and integrators._kernel(diag, n) is not None
    control = (mp.StepControl(h=0.01) if mode == "fixed"
               else mp.StepControl(mode="adaptive", h=0.4, abs_tol=1e-12, rel_tol=1e-12, max_steps=1500))
    span = (0.1, 0.837)  # 73.7 steps of h: the last fixed step is short
    for stride in (1, 3):
        for d in (diag, None):
            ref = _check(field, x0, span, control, diagnostics=d, stride=stride)
            assert ref.status == "completed" and ref.times[-1] == 0.837
            if mode == "adaptive" and n > 1:  # the 1-D metriplectic field is zero
                assert ref.monitor.steps_rejected > 0


@pytest.mark.parametrize("n", range(1, 7))
def test_generated_loop_matches_reference_on_array_fields(n):
    # a plain numpy field (adapter only) that moves every coordinate, n = 1 included
    field = lambda x: -x ** 3 + 0.5 * np.roll(x, 1) - 0.2 * x
    diag = lambda x: (float(x @ x), float(np.sum(x)), float(x[0]), -0.0)
    x0 = np.linspace(0.9, -0.4, n)
    for control in (mp.StepControl(h=0.03), mp.StepControl(mode="adaptive", h=0.5, abs_tol=1e-8, rel_tol=1e-8, max_steps=250)):
        for stride in (1, 3):
            ref = reference_integrate(field, x0, (0.0, 2.01), control, diagnostics=diag, stride=stride)
            assert_same_run(mp.integrate(field, x0, (0.0, 2.01), control, diagnostics=diag, stride=stride), ref)


def test_scalar_valued_field_broadcasts_as_in_rk4_step():
    for n in (1, 3):
        for control in (mp.StepControl(h=0.1), mp.StepControl(mode="adaptive", h=0.1, max_steps=200)):
            ref = reference_integrate(lambda x: -x[0] ** 2, [1.0] * n, (0.0, 1.0), control)
            assert_same_run(mp.integrate(lambda x: -x[0] ** 2, [1.0] * n, (0.0, 1.0), control), ref)


def test_kernel_of_another_dimension_is_not_used():
    rigid = mp.rigid_body_system()
    field = mp.field_function(rigid, "metriplectic")
    assert integrators._kernel(field, 2) is None
    with pytest.raises(ValueError, match="state has shape"):
        mp.integrate(field, [1.0, 0.0], (0.0, 1.0))


def test_only_kernel_functions_bind_their_kernel():
    # callables of any other type go through the adapter, whatever attributes they carry
    rigid = mp.rigid_body_system()
    field = mp.field_function(rigid, "metriplectic")
    never = lambda xs: pytest.fail("a kernel attribute was called")

    class Model:
        kernel = (3, never)

        def __call__(self, x):
            return field(x)

    class Named:
        kernel = "rigid body"

        def __call__(self, x):
            return field(x)

    class Scaled(KernelFunction):
        def __call__(self, x):
            return 2.0 * super().__call__(x)

    @functools.wraps(field)
    def doubled(x):
        return 2.0 * field(x)

    doubled.kernel = (3, never)
    x0, span, control = [1.01, 0.05, -0.03], (0.0, 1.0), mp.StepControl(h=0.05)
    for f in (Model(), Named(), Scaled(3, field.kernel, np.array), doubled):
        assert integrators._kernel(f, 3) is None
        assert_same_run(mp.integrate(f, x0, span, control), reference_integrate(f, x0, span, control))


# ---------------------------------------------------------------------------
# failure parity, both bindings

def _marked(kernel, n):
    """A field callable around a list-in/tuple-out kernel, of the type dynamics returns."""
    return KernelFunction(n, kernel, np.array)


def test_non_finite_state_parity():
    # x1' = 1e200 x1 overflows to inf inside one step, without a math error
    sys_def = mp.load_system({"name": "overflow", "dimension": 2, "poisson": [["0", "1"], ["-1", "0"]],
                              "hamiltonian": "1e200*x1*x2"})
    field = mp.field_function(sys_def, "conservative")
    ref = _check(field, [1.0, 1.0], (0.0, 1.0), mp.StepControl(h=0.01), diagnostics=mp.diagnostics_function(sys_def))
    assert isinstance(ref, mp.DivergenceError) and "state became non-finite at t=0.01" in str(ref)


def test_nan_in_a_later_component_is_caught():
    # Python's max() would skip a nan that is not its first argument
    field = _marked(lambda xs: (1.0, math.nan if xs[0] > 0.05 else 1.0, 0.0), 3)
    for bound in (1e6, math.inf, math.nan):  # the last two never fire on a finite state
        ref = _check(field, [0.0, 0.0, 0.0], (0.0, 1.0), mp.StepControl(h=0.01), divergence_bound=bound)
        assert str(ref) == "state became non-finite at t=0.06"


def test_divergence_bound_parity():
    rigid = mp.rigid_body_system()
    field = mp.field_function(rigid, "conservative")
    for control in (mp.StepControl(h=1e-2), mp.StepControl(mode="adaptive", h=0.1, max_steps=50)):
        ref = _check(field, [1.0, 1.0, 1.0], (0.0, 20.0), control, diagnostics=mp.diagnostics_function(rigid),
                     stride=3, divergence_bound=1.2)
        assert "exceeded divergence bound 1.2 at t=" in str(ref)
        assert len(ref.trajectory) > 1
    ref = _check(field, [1.0, 1.0, 1.0], (0.0, 1.0), mp.StepControl(h=1e-2), divergence_bound=-math.inf)
    assert str(ref) == "state exceeded divergence bound -inf at t=0.01"


# fixed: the four stages of step 11; adaptive: stage 1 (call 1, reused by FSAL after it), then six calls an
# attempt for stages 2-7: stage 7 of attempt 6, all of attempt 7 and stages 2-6 of attempt 8
@pytest.mark.parametrize("mode, failing_call", [("fixed", c) for c in range(41, 45)] +
                         [("adaptive", c) for c in [1, *range(37, 49)]])
def test_stage_error_parity(mode, failing_call):
    calls = [0]

    def kernel(xs):
        calls[0] += 1
        if calls[0] == failing_call:
            raise mp.EvaluationError(f"boom at x={xs}")
        return tuple(-0.5 * v for v in xs)

    field = _marked(kernel, 2)
    control = mp.StepControl(h=0.1) if mode == "fixed" else mp.StepControl(mode="adaptive", h=0.1, max_steps=80)
    ref = _run(reference_integrate, field, [1.0, -2.0], (0.0, 5.0), control, stride=2)
    for f, _ in _both(field):
        calls[0] = 0
        assert_same_run(_run(mp.integrate, f, [1.0, -2.0], (0.0, 5.0), control, stride=2), ref)
    stage = (failing_call - 1) % 4 + 1 if mode == "fixed" else 1 if failing_call == 1 else (failing_call - 2) % 6 + 2
    assert isinstance(ref, mp.DivergenceError) and f"stage {stage}, t=" in str(ref)
    assert ref.__cause__.stage == stage


def test_field_undefined_exactly_at_the_final_state_ends_the_run_parity():
    # stage 7 evaluates the field at the candidate state, the final one included
    field = lambda xs: (1.0 - xs[0], 0.5)
    control = mp.StepControl(mode="adaptive", h=0.1, max_steps=160)
    final = mp.integrate(_marked(field, 2), [0.0, 0.0], (0.0, 1.0), control).final_state.tolist()

    def kernel(xs):
        if xs == final:
            raise mp.EvaluationError(f"undefined at x={xs}")
        return field(xs)

    ref = _check(_marked(kernel, 2), [0.0, 0.0], (0.0, 1.0), control, stride=3)
    assert isinstance(ref, mp.DivergenceError) and ref.__cause__.stage == 7
    assert ref.trajectory.times[-1] <= ref.__cause__.t < 1.0


# call 1 is the diagnostics of the initial state; fixed: steps 1 and 6; adaptive: accepted steps 1 and 6
@pytest.mark.parametrize("mode", ["fixed", "adaptive"])
@pytest.mark.parametrize("failing_call", [1, 2, 7])
def test_diagnostics_error_parity(mode, failing_call):
    calls = [0]

    def kernel(xs):
        calls[0] += 1
        if calls[0] == failing_call:
            raise mp.EvaluationError(f"boom at x={xs}")
        return (xs[0] ** 2, xs[1], 0.0, 0.0)

    field = _marked(lambda xs: tuple(-0.5 * v for v in xs), 2)
    diagnostics = KernelFunction(2, kernel, tuple)  # as diagnostics_function returns it
    control = mp.StepControl(h=0.1) if mode == "fixed" else mp.StepControl(mode="adaptive", h=0.1, max_steps=70)
    ref = _run(reference_integrate, field, [1.0, -2.0], (0.0, 5.0), control, diagnostics=diagnostics)
    for f, d in _both(field, diagnostics):
        calls[0] = 0
        assert_same_run(_run(mp.integrate, f, [1.0, -2.0], (0.0, 5.0), control, diagnostics=d), ref)
    if failing_call == 1:  # no step has been taken: the error itself
        assert type(ref) is mp.EvaluationError
        return
    assert isinstance(ref, mp.DivergenceError) and str(ref).startswith("diagnostics evaluation failed at t=")
    assert type(ref.__cause__) is mp.EvaluationError and str(ref).endswith(str(ref.__cause__))
    assert ref.trajectory.status == "diverged" and len(ref.trajectory) == failing_call - 1


def test_domain_error_in_a_system_kernel_parity():
    # x1' = -1 takes x1 out of sqrt's domain at the stage-4 point of step 5
    sys_def = mp.load_system({"name": "edge", "dimension": 2, "poisson": [["0", "1"], ["-1", "0"]],
                              "hamiltonian": "-x2 + 0.01*sqrt(x1)"})
    field = mp.field_function(sys_def, "conservative")
    ref = _check(field, [0.47, 0.0], (0.0, 1.0), mp.StepControl(h=0.1), diagnostics=mp.diagnostics_function(sys_def))
    assert "stage 4, t=0.4" in str(ref) and "at x=[" in str(ref)


def test_escape_guard_parity_stores_the_escaping_state_once():
    rigid = mp.rigid_body_system()
    field = mp.field_function(rigid, "conservative")
    diag = mp.diagnostics_function(rigid)
    for control in (mp.StepControl(h=1e-2), mp.StepControl(mode="adaptive", h=0.05, max_steps=60)):
        for stride in (1, 3, 1000):
            ref = _check(field, [1.0, 1.0, 1.0], (0.0, 50.0), control, diagnostics=diag, stride=stride,
                         escape_center=[1.0, 1.0, 1.0], escape_radius=0.5)
            assert ref.status == "escaped"
            assert np.linalg.norm(ref.final_state - 1.0) > 0.5
            assert np.linalg.norm(ref.states[-2] - 1.0) <= 0.5 or len(ref) == 2


def test_escape_guard_at_the_exact_radius():
    # the radius equal to np.linalg.norm of the first step does not fire; one ulp less does
    field = lambda x: np.array([0.3, -0.7, 0.1]) + 0.0 * x
    center = [0.1, 0.2, 0.3]
    first = reference_integrate(field, center, (0.0, 0.1), mp.StepControl(h=0.1))
    radius = float(np.linalg.norm(first.final_state - center))
    for r, status in ((radius, "completed"), (np.nextafter(radius, 0.0), "escaped")):
        ref = _check(_marked(lambda xs: (0.3, -0.7, 0.1), 3), center, (0.0, 0.1), mp.StepControl(h=0.1),
                     escape_center=center, escape_radius=r)
        assert ref.status == status


def test_nan_error_estimate_parity():
    field = _marked(lambda xs: (xs[0], math.nan if xs[0] > 1.5 else 0.0, 1.0), 3)
    ref = _check(field, [1.0, 0.0, 0.0], (0.0, 5.0), mp.StepControl(mode="adaptive", h=1e-2, max_steps=70))
    assert "non-finite error estimate at t=" in str(ref)


def test_step_that_does_not_advance_t_parity():
    t0 = 1e17
    field = _marked(lambda xs: (-xs[0],), 1)
    ref = _check(field, [1.0], (t0, t0 + 1e6), mp.StepControl(mode="adaptive", h=1.0, max_steps=20))
    assert "no longer advances t=" in str(ref)


@pytest.mark.parametrize("mode", ["fixed", "adaptive"])
def test_span_shorter_than_the_end_slack_takes_one_step_parity(mode):
    # t1 - 1e-12 lies below t0 here, and both loops still take their one step
    field = _marked(lambda xs: (-xs[0], xs[0]), 2)
    ref = _check(field, [1.0, 0.0], (0.0, 1e-13), mp.StepControl(mode=mode, h=1e-3, max_steps=10))
    assert ref.times.tolist() == [0.0, 1e-13] and ref.monitor.steps_accepted == 1


def test_max_steps_parity():
    field = _marked(lambda xs: (-xs[0], xs[0]), 2)
    ref = _check(field, [1.0, 0.0], (0.0, 1.0), mp.StepControl(h=1e-3, max_steps=999))
    assert isinstance(ref, mp.IntegrationError) and "exceed max_steps=999" in str(ref)
    ref = _check(field, [1.0, 0.0], (0.0, 100.0), mp.StepControl(mode="adaptive", h=1e-3, max_steps=7))
    assert isinstance(ref, mp.IntegrationError) and str(ref) == "step budget max_steps=7 exhausted"


# ---------------------------------------------------------------------------
# generated source is visible to tracebacks and inspect

def test_generated_sources_show_in_tracebacks():
    field = mp.ScalarField.from_string("x1 + ln(x1 - 2)", 1)
    with pytest.raises(mp.EvaluationError) as err:
        field.value_at([1.0])
    text = "".join(traceback.format_exception(err.value))
    assert "return (x1 + _ln(x1 - 2.0), )" in text

    def broken(x):
        raise RuntimeError("not a math error")

    with pytest.raises(RuntimeError) as err:
        mp.integrate(broken, [1.0, 2.0], (0.0, 1.0))
    assert "stage = 1; a1, a2 = F([x1, x2])" in "".join(traceback.format_exception(err.value))
    assert inspect.getsource(integrators._loop(2, False)).startswith("def run(")


def test_generated_source_leaves_linecache_with_its_kernels():
    existing = set(linecache.cache)
    fields = [mp.ScalarField.from_string(f"x1^2 + {i}*x1", 1) for i in range(20)]
    assert [f.value_at([1.0]) for f in fields] == [1.0 + i for i in range(20)]  # compiles each value kernel
    added = set(linecache.cache) - existing
    assert len(added) == 20
    del fields
    gc.collect()
    assert not added & set(linecache.cache)
