import math
from fractions import Fraction

import numpy as np
import pytest

import metriplectic as mp


@pytest.fixture(scope="module")
def rigid():
    return mp.rigid_body_system()


# ---------------------------------------------------------------------------
# rk4_step

def test_rk4_exponential_decay():
    field = lambda x: -x
    out = mp.rk4_step(field, np.array([1.0]), 0.0, 0.1)
    assert out[0] == pytest.approx(0.9048375, abs=1e-15)
    assert abs(out[0] - math.exp(-0.1)) < 1e-7


def test_rk4_zero_field():
    out = mp.rk4_step(lambda x: np.zeros_like(x), np.array([1.0, -2.0]), 0.0, 0.5)
    assert np.array_equal(out, [1.0, -2.0])


def test_rk4_constant_field_exact():
    c = np.array([2.0, -1.0])
    out = mp.rk4_step(lambda x: c, np.array([0.0, 0.0]), 0.0, 0.25)
    assert np.array_equal(out, 0.25 * c)


def test_rk4_bad_step():
    for h in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            mp.rk4_step(lambda x: x, np.array([1.0]), 0.0, h)


def test_rk4_stage_error_reported(rigid):
    calls = [0]

    def flaky(x):
        calls[0] += 1
        if calls[0] == 3:
            raise mp.EvaluationError("boom")
        return -x

    with pytest.raises(mp.integrators.FieldEvaluationError, match="stage 3"):
        mp.rk4_step(flaky, np.array([1.0]), 0.0, 0.1)


# ---------------------------------------------------------------------------
# fixed-step integrate

def test_zero_field_constant_trajectory():
    traj = mp.integrate(lambda x: np.zeros_like(x), [1.0, 2.0], (0.0, 1.0), mp.StepControl(h=0.1))
    assert len(traj) == 11
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0
    assert np.all(traj.states == [1.0, 2.0])
    assert traj.status == "completed"


def test_times_strictly_increasing_and_dimension_constant(rigid):
    field = mp.field_function(rigid, "conservative")
    traj = mp.integrate(field, [1.0, 1.0, 1.0], (0.0, 2.0), mp.StepControl(h=1e-2))
    assert np.all(np.diff(traj.times) > 0)
    assert traj.states.shape == (len(traj), 3)


def test_conservation_along_conservative_run(rigid):
    field = mp.field_function(rigid, "conservative")
    diag = mp.diagnostics_function(rigid)
    traj = mp.integrate(field, [1.0, 1.0, 1.0], (0.0, 10.0), mp.StepControl(h=1e-3), diagnostics=diag)
    h_col = traj.column("H")
    assert np.max(np.abs(h_col - h_col[0])) <= 1e-8
    c_start = rigid.casimirs[0].value_at(traj.states[0])
    c_end = rigid.casimirs[0].value_at(traj.states[-1])
    assert abs(c_end - c_start) <= 1e-8


def test_entropy_monotone_along_metriplectic_run(rigid):
    field = mp.field_function(rigid, "metriplectic")
    diag = mp.diagnostics_function(rigid)
    traj = mp.integrate(
        field, [1.01, 0.05, -0.03], (0.0, 20.0), mp.StepControl(h=1e-3), diagnostics=diag
    )
    assert traj.monitor.entropy_increase_count == 0
    assert traj.monitor.max_energy_drift <= 1e-10


def test_stride_stores_fewer_samples_but_monitors_every_step(rigid):
    field = mp.field_function(rigid, "metriplectic")
    diag = mp.diagnostics_function(rigid)
    dense = mp.integrate(field, [1.01, 0.05, -0.03], (0.0, 2.0), mp.StepControl(h=1e-3), diagnostics=diag)
    sparse = mp.integrate(
        field, [1.01, 0.05, -0.03], (0.0, 2.0), mp.StepControl(h=1e-3), diagnostics=diag, stride=100
    )
    assert len(sparse) == 2000 // 100 + 1  # indices 0, 100, ..., 2000
    assert sparse.times[-1] == dense.times[-1]
    assert sparse.monitor.steps_accepted == dense.monitor.steps_accepted
    assert sparse.monitor.max_energy_drift == dense.monitor.max_energy_drift


def test_max_steps_exceeded():
    with pytest.raises(mp.IntegrationError):
        mp.integrate(lambda x: -x, [1.0], (0.0, 1.0), mp.StepControl(h=1e-4, max_steps=100))
    # a step count that overflows to inf fails the same budget check
    with pytest.raises(mp.IntegrationError, match="inf steps of h=.* exceed max_steps="):
        mp.integrate(lambda x: -x, [1.0], (0.0, 1.0), mp.StepControl(h=1e-320))


def test_divergence_raises_with_partial_trajectory():
    field = lambda x: x * x  # 1-D blowup in finite time
    with pytest.raises(mp.DivergenceError) as err:
        mp.integrate(field, [1.0], (0.0, 2.0), mp.StepControl(h=1e-3))
    partial = err.value.trajectory
    assert partial.status == "diverged"
    assert len(partial) > 10
    assert partial.times[-1] < 2.0


def test_non_finite_initial_state_rejected():
    with pytest.raises(ValueError):
        mp.integrate(lambda x: x, [np.nan], (0.0, 1.0))


def test_escape_guard_truncates(rigid):
    field = mp.field_function(rigid, "conservative")
    traj = mp.integrate(
        field,
        [1.0, 1.0, 1.0],
        (0.0, 50.0),
        mp.StepControl(h=1e-2),
        escape_center=[1.0, 1.0, 1.0],
        escape_radius=0.5,
    )
    assert traj.status == "escaped"
    assert traj.times[-1] < 50.0
    assert np.linalg.norm(traj.final_state - [1.0, 1.0, 1.0]) > 0.5


def test_escape_guard_needs_radius():
    for radius in (None, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            mp.integrate(lambda x: x, [1.0], (0.0, 1.0), escape_center=[0.0], escape_radius=radius)


# ---------------------------------------------------------------------------
# adaptive mode

def test_adaptive_never_accepts_above_tolerance(rigid):
    field = mp.field_function(rigid, "conservative")
    control = mp.StepControl(mode="adaptive", h=1e-2, abs_tol=1e-10, rel_tol=1e-10, max_steps=700)
    traj = mp.integrate(field, [1.0, 1.0, 1.0], (0.0, 5.0), control)
    assert traj.monitor.max_error_ratio is not None
    assert traj.monitor.max_error_ratio <= 1.0
    assert traj.status == "completed"
    assert traj.times[-1] == pytest.approx(5.0, abs=1e-12)


def test_adaptive_matches_fine_fixed_reference(rigid):
    field = mp.field_function(rigid, "conservative")
    control = mp.StepControl(mode="adaptive", h=1e-2, abs_tol=1e-10, rel_tol=1e-10, max_steps=400)
    adaptive = mp.integrate(field, [1.0, 1.0, 1.0], (0.0, 2.0), control)
    reference = mp.integrate(field, [1.0, 1.0, 1.0], (0.0, 2.0), mp.StepControl(h=1e-4))
    assert adaptive.final_state == pytest.approx(reference.final_state, abs=1e-6)
    assert adaptive.monitor.steps_accepted < reference.monitor.steps_accepted


def test_adaptive_rejects_when_started_too_coarse(rigid):
    field = mp.field_function(rigid, "conservative")
    control = mp.StepControl(mode="adaptive", h=1.0, abs_tol=1e-12, rel_tol=1e-12, max_steps=450)
    traj = mp.integrate(field, [1.0, 1.0, 1.0], (0.0, 1.0), control)
    assert traj.monitor.steps_rejected > 0


def test_dormand_prince_tableau_meets_its_order_conditions():
    # each coefficient is the double nearest p/q with q < 10^6, and two such fractions differ by far more than an ulp
    exact = lambda row: [Fraction(w).limit_denominator(10 ** 6) for w in row]
    A, e = [exact(row) for row in mp.integrators._DP_A], exact(mp.integrators._DP_E)
    assert [[float(w) for w in row] for row in A] == [list(row) for row in mp.integrators._DP_A]
    c = [Fraction(0), Fraction(1, 5), Fraction(3, 10), Fraction(4, 5), Fraction(8, 9), Fraction(1), Fraction(1)]
    assert [sum(row) for row in A] == c[1:]
    b = list(A[-1]) + [Fraction(0)]  # the 5th-order weights; the 7th stage only feeds the estimate
    b4 = [bi - ei for bi, ei in zip(b, e)]
    for weights, order in ((b, 5), (b4, 4)):
        for q in range(1, order + 1):
            assert sum(w * ci ** (q - 1) for w, ci in zip(weights, c)) == Fraction(1, q)
    assert sum(b[i + 1] * sum(a * c[j] for j, a in enumerate(row)) for i, row in enumerate(A)) == Fraction(1, 6)
    assert sum(e) == 0 and len(e) == 7


def test_adaptive_reuses_the_last_stage_as_the_next_first(rigid):
    # FSAL: one call for k1 at t0, then six per attempt, accepted or rejected
    field = mp.field_function(rigid, "metriplectic")
    calls = [0]

    def counted(x):
        calls[0] += 1
        return field(x)

    control = mp.StepControl(mode="adaptive", h=1.0, abs_tol=1e-12, rel_tol=1e-12, max_steps=700)
    traj = mp.integrate(counted, [1.0, 0.5, 0.3], (0.0, 3.0), control)
    mon = traj.monitor
    assert mon.steps_rejected > 0
    assert calls[0] == 1 + 6 * (mon.steps_accepted + mon.steps_rejected)


def test_adaptive_error_falls_with_the_tolerance():
    errors = {}
    for tol in (1e-8, 1e-11):
        control = mp.StepControl(mode="adaptive", h=0.1, abs_tol=tol, rel_tol=tol, max_steps=1300)
        traj = mp.integrate(lambda x: -x, [1.0], (0.0, 5.0), control)
        errors[tol] = abs(traj.final_state[0] - math.exp(-5.0))
        assert traj.times[-1] == 5.0 and errors[tol] <= 100 * tol
    assert errors[1e-8] >= 100 * errors[1e-11]


def test_adaptive_non_finite_error_estimate_diverges():
    calls = [0]

    def field(x):  # x' = x until x passes 1.5, NaN beyond
        calls[0] += 1
        return x.copy() if x[0] <= 1.5 else np.array([np.nan])

    control = mp.StepControl(mode="adaptive", h=1e-2, max_steps=2000)
    with pytest.raises(mp.DivergenceError, match="non-finite error estimate at t=") as err:
        mp.integrate(field, [1.0], (0.0, 5.0), control)
    partial = err.value.trajectory
    assert partial.status == "diverged"
    assert 0.3 < partial.times[-1] <= math.log(1.5)
    assert calls[0] < 6 * 100  # not a step budget spent shrinking h


def test_adaptive_step_that_does_not_advance_t_diverges():
    t0 = 1e17  # doubles are 16 apart here, so t0 + h == t0 for any h < 8
    control = mp.StepControl(mode="adaptive", h=1.0, max_steps=20)
    with pytest.raises(mp.DivergenceError, match="no longer advances t=") as err:
        mp.integrate(lambda x: -x, [1.0], (t0, t0 + 1e6), control)
    partial = err.value.trajectory
    assert partial.status == "diverged"
    assert partial.times.tolist() == [t0]


# ---------------------------------------------------------------------------
# StepControl / Trajectory validation

def test_step_control_validation():
    with pytest.raises(ValueError):
        mp.StepControl(mode="leapfrog")
    with pytest.raises(ValueError):
        mp.StepControl(h=0.0)
    for name in ("h", "abs_tol", "rel_tol", "max_steps"):
        for value in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                mp.StepControl(**{name: value})


def test_trajectory_invariants():
    with pytest.raises(ValueError):
        mp.Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        mp.Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        mp.Trajectory(times=np.array([]), states=np.zeros((0, 3)))


def test_integrate_argument_checks():
    for span in ((1.0, 1.0), (0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan), (-1e308, 1e308)):
        with pytest.raises(ValueError):
            mp.integrate(lambda x: x, [1.0], span)
    with pytest.raises(ValueError):
        mp.integrate(lambda x: x, [1.0], (0.0, 1.0), stride=0)
