import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import metriplectic as mp
from metriplectic import cli, stability
from metriplectic import expressions as ex
from test_compiled_path import E3_DOCUMENT

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

PARAM_GRID = [
    mp.RigidBodyParams(3.0, 2.0, 1.0, 1.0),
    mp.RigidBodyParams(5.0, 3.0, 2.0, 2.0),
    mp.RigidBodyParams(4.0, 2.5, 1.5, 0.5),
    mp.RigidBodyParams(10.0, 4.0, 1.0, -1.0),
    mp.RigidBodyParams(2.5, 2.0, 1.5, 1.5),
]


# the identity systems of tools/compare.py, each at its equilibrium
IDENTITY_SYSTEMS = {
    "rigid": (lambda: mp.rigid_body_system(), [1.0, 0.0, 0.0]),
    "rigid-params": (lambda: mp.rigid_body_system(mp.RigidBodyParams(5.0, 3.0, 2.0, 2.0)), [2.0, 0.0, 0.0]),
    "rigid-config": (lambda: mp.load_system_file(CONFIG_DIR / "rigid_body.json"), [1.0, 0.0, 0.0]),
    "rigid-x3-config": (lambda: mp.load_system_file(CONFIG_DIR / "rigid_body_x3_axis.json"), [0.0, 0.0, 1.0]),
    "e3": (lambda: mp.load_system(E3_DOCUMENT), [0.0, 0.0, 0.0, 0.0, 0.0, -2.5]),
}


def analytic_hessian_eigs(p: mp.RigidBodyParams) -> np.ndarray:
    return np.sort([1 / p.I2 - 1 / p.I1, 1 / p.I3 - 1 / p.I1, 2 * p.M0 * p.M0])


def augmented_energy(sys_def: mp.SystemDefinition) -> mp.ScalarField:
    """H + phi(C) with the summed gradient trees: the finite-difference Hessian's input."""
    h, entropy = sys_def.hamiltonian, mp.compose_entropy(sys_def)
    return mp.ScalarField(sys_def.n, ex.add(h.value, entropy.value), list(map(ex.add, h.gradient, entropy.gradient)))


def exact_hessian(field: mp.ScalarField, x) -> np.ndarray:
    """The tree-walked derivatives of the gradient trees, upper triangle mirrored."""
    n = field.arity
    out = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            out[i, j] = out[j, i] = ex.evaluate(ex.differentiate(field.gradient[i], j + 1), x)
    return out


@pytest.fixture(scope="module")
def rigid():
    return mp.rigid_body_system()


# ---------------------------------------------------------------------------
# H + phi(C), as lyapunov_report computes it

def test_augmented_energy_at_equilibrium(rigid):
    assert mp.lyapunov_report(rigid, [1.0, 0.0, 0.0]).lyapunov_offset == pytest.approx(0.0, abs=1e-15)


def test_augmented_energy_generic_point(rigid):
    with pytest.warns(UserWarning, match="not an equilibrium"):
        report = mp.lyapunov_report(rigid, [1.0, 1.0, 1.0])
    assert report.lyapunov_offset == pytest.approx(17 / 12, rel=1e-14)


def test_augmented_energy_without_entropy_equals_hamiltonian():
    sys_def = mp.SystemDefinition(
        poisson=mp.PoissonStructure.from_strings([["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]]),
        hamiltonian=mp.ScalarField.from_string("x1^2 + x2^2 + x3^2", 3),
        verification=mp.VerificationPolicy(samples=20),
    )
    rng = np.random.default_rng(30)
    for _ in range(20):
        p = rng.uniform(-2, 2, 3)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "point .* is not an equilibrium", UserWarning)
            report = mp.lyapunov_report(sys_def, p)
        assert report.lyapunov_offset == sys_def.hamiltonian.value_at(p)
        assert report.grad_norm == np.max(np.abs(sys_def.hamiltonian.gradient_at(p)))


@pytest.mark.parametrize("name", sorted(IDENTITY_SYSTEMS))
def test_report_is_the_augmented_field_bit_for_bit(name):
    # the one report kernel gives what the ScalarField of H + phi(C) and its tree-walked Hessian give
    build, x_e = IDENTITY_SYSTEMS[name]
    sys_def = build()
    field = augmented_energy(sys_def)
    for k, p in enumerate([x_e] + mp.sample_box(sys_def.n, (-2.0, 2.0), 50, seed=4).tolist()):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "point .* is not an equilibrium", UserWarning)
            report = mp.lyapunov_report(sys_def, p)
        assert report.grad_norm == float(np.max(np.abs(field.gradient_at(p))))
        assert report.grad_norm > 0.0 or k == 0
        assert report.lyapunov_offset == field.value_at(p)
        assert np.array_equal(report.hessian, exact_hessian(field, p))


def test_a_second_report_and_lasalle_see_the_same_system():
    sys_def = mp.rigid_body_system(mp.RigidBodyParams(5.0, 3.0, 2.0, 2.0))
    x_e = [2.0, 0.0, 0.0]
    report = mp.lyapunov_report(sys_def, x_e)
    again = mp.lyapunov_report(sys_def, x_e)
    assert np.array_equal(again.eigenvalues, report.eigenvalues) and again.grad_norm == report.grad_norm
    # lasalle_diagnostics gives the same report after lyapunov_report as on a system built afresh
    traj = mp.integrate(mp.field_function(sys_def, "metriplectic"), [2.02, 0.1, -0.06], (0.0, 5.0),
                        mp.StepControl(h=1e-2))
    cached = mp.lasalle_diagnostics(traj, sys_def, x_e)
    new = mp.lasalle_diagnostics(traj, mp.rigid_body_system(mp.RigidBodyParams(5.0, 3.0, 2.0, 2.0)), x_e)
    assert (cached.monotone_violations, cached.worst_increase, cached.tail_max_defect) == (
        new.monotone_violations, new.worst_increase, new.tail_max_defect)


# ---------------------------------------------------------------------------
# hessian

def test_hessian_of_square():
    field = mp.ScalarField.from_string("x1^2", 3)
    assert mp.hessian(field, [0.3, -1.0, 2.0]) == pytest.approx(np.diag([2.0, 0.0, 0.0]), abs=1e-8)


def test_hessian_of_cross_term():
    field = mp.ScalarField.from_string("x1*x2", 3)
    expected = np.zeros((3, 3))
    expected[0, 1] = expected[1, 0] = 1.0
    assert mp.hessian(field, [0.0, 0.0, 0.0]) == pytest.approx(expected, abs=1e-8)


def test_hessian_of_augmented_energy(rigid):
    field = augmented_energy(rigid)
    out = mp.hessian(field, [1.0, 0.0, 0.0])
    assert out == pytest.approx(np.diag([2.0, 1 / 6, 2 / 3]), abs=1e-6)


def test_hessian_is_exactly_symmetric(rigid):
    out = mp.hessian(augmented_energy(rigid), [0.3, -0.2, 0.9])
    assert np.array_equal(out, out.T)


def test_hessian_argument_checks(rigid):
    field = augmented_energy(rigid)
    with pytest.raises(ValueError):
        mp.hessian(field, [1.0, 0.0])
    for h in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            mp.hessian(field, [1.0, 0.0, 0.0], h=h)


# ---------------------------------------------------------------------------
# lyapunov_report

def test_report_at_stable_equilibrium(rigid):
    report = mp.lyapunov_report(rigid, [1.0, 0.0, 0.0])
    assert report.grad_norm <= 1e-10
    assert report.eigenvalues == pytest.approx([1 / 6, 2 / 3, 2.0], abs=1e-6)
    assert report.positive_definite
    assert report.lyapunov_offset == pytest.approx(0.0, abs=1e-15)


def test_report_warns_off_equilibrium(rigid):
    with pytest.warns(UserWarning, match="not an equilibrium"):
        report = mp.lyapunov_report(rigid, [1.0, 1.0, 1.0])
    # grad H_phi(1,1,1) = (2, 13/6, 8/3); sup norm is 8/3
    assert report.grad_norm == pytest.approx(8 / 3, rel=1e-14)
    assert not report.positive_definite is None


@pytest.mark.parametrize("y", [1e-8, 1.19e-8, 1.21e-8, 1e-7])
def test_report_warns_exactly_off_the_equilibrium_verdict(rigid, y):
    # |Pi grad H| at (1, y, 0) is y/6 against the default threshold 2e-9
    point = [1.0, y, 0.0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mp.lyapunov_report(rigid, point)
    warned = any("not an equilibrium" in str(w.message) for w in caught)
    assert warned == (not mp.classify_equilibrium(rigid, point).is_xi_pi_equilibrium)
    assert warned == (y > 1.2e-8)


def test_report_quadratic_hamiltonian_no_entropy():
    sys_def = mp.SystemDefinition(
        poisson=mp.PoissonStructure.from_strings([["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]]),
        hamiltonian=mp.ScalarField.from_string("x1^2 + x2^2 + x3^2", 3),
        verification=mp.VerificationPolicy(samples=20),
    )
    report = mp.lyapunov_report(sys_def, [0.0, 0.0, 0.0])
    assert report.grad_norm == 0.0
    assert report.eigenvalues == pytest.approx([2.0, 2.0, 2.0], abs=1e-8)
    assert report.positive_definite


def test_grid_of_parameters_matches_analytic_hessian():
    for params in PARAM_GRID:
        sys_def = mp.rigid_body_system(params)
        x_e = [params.M0, 0.0, 0.0]
        report = mp.lyapunov_report(sys_def, x_e)
        assert report.grad_norm <= 1e-8
        assert report.eigenvalues == pytest.approx(analytic_hessian_eigs(params), abs=1e-6)
        assert report.positive_definite


def test_near_degenerate_rigid_body_gets_its_smallest_eigenvalue():
    # I2 = I1 - 3e-6: central differences at h = 1e-4 * 21 read 4.74e-6 for 1/I2 - 1/I1 = 3.33e-7
    params = mp.RigidBodyParams(3.0, 3.0 - 3e-6, 1.0, 20.0)
    report = mp.lyapunov_report(mp.rigid_body_system(params), [20.0, 0.0, 0.0])
    assert report.eigenvalues[0] == pytest.approx(1 / params.I2 - 1 / params.I1, rel=1e-12)
    assert report.positive_definite


@pytest.mark.parametrize("name", sorted(IDENTITY_SYSTEMS))
def test_exact_hessian_agrees_with_finite_differences(name):
    build, x_e = IDENTITY_SYSTEMS[name]
    sys_def = build()
    report = mp.lyapunov_report(sys_def, x_e)
    assert np.array_equal(report.hessian, report.hessian.T)
    assert np.max(np.abs(report.hessian - mp.hessian(augmented_energy(sys_def), x_e))) <= 1e-6
    assert report.positive_definite == (name != "rigid-x3-config")


@pytest.mark.parametrize("name", sorted(IDENTITY_SYSTEMS))
def test_lyapunov_offset_is_the_sum_the_lasalle_series_makes(name):
    # lasalle_diagnostics takes H(x_e) + phi(C(x_e)) from the value kernels;
    # the L series adds the diagnostics kernel's H and phi(C) columns
    build, x_e = IDENTITY_SYSTEMS[name]
    sys_def = build()
    field, entropy = augmented_energy(sys_def), mp.compose_entropy(sys_def)
    diagnostics = mp.diagnostics_function(sys_def)
    for p in [x_e] + mp.sample_box(sys_def.n, (-3.0, 3.0), 2000, seed=9).tolist():
        offset = sys_def.hamiltonian.value_at(p) + entropy.value_at(p)
        record = diagnostics(p)
        assert offset == record[0] + record[1] == field.value_at(p)


def test_simulate_analyze_never_compiles_the_hessian(tmp_path, monkeypatch):
    # lasalle_diagnostics needs neither the Hessian nor the field of H + phi(C)
    monkeypatch.setattr(stability, "_compile", None)
    assert cli.main(["simulate", "--x0", "1.01,0.05,-0.03", "--t1", "1", "--h", "1e-2", "--analyze",
                     "--out-dir", str(tmp_path)]) == 0


def test_x3_axis_candidate_entropy_fails_definiteness():
    # the mirrored entropy shaper (1/I3 in place of 1/I1) still makes
    # (0, 0, M0) critical, but its Hessian there is indefinite
    sys_def = mp.load_system_file(CONFIG_DIR / "rigid_body_x3_axis.json")
    report = mp.lyapunov_report(sys_def, [0.0, 0.0, 1.0])
    assert report.grad_norm <= 1e-8
    assert report.eigenvalues == pytest.approx([-2 / 3, -1 / 2, 2.0], abs=1e-6)
    assert not report.positive_definite


# ---------------------------------------------------------------------------
# lasalle_diagnostics

def test_single_point_trajectory(rigid):
    traj = mp.Trajectory(times=np.array([0.0]), states=np.array([[1.0, 0.0, 0.0]]))
    report = mp.lasalle_diagnostics(traj, rigid, [1.0, 0.0, 0.0])
    assert report.monotone_violations == 0
    assert report.worst_increase == 0.0
    assert report.tail_max_defect == mp.dependence_defect(rigid, [1.0, 0.0, 0.0]) == 0.0
    assert report.converged_to_E


def test_conservative_run_keeps_lyapunov_constant(rigid):
    field = mp.field_function(rigid, "conservative")
    diag = mp.diagnostics_function(rigid)
    traj = mp.integrate(field, [1.0, 1.0, 1.0], (0.0, 10.0), mp.StepControl(h=1e-3), diagnostics=diag)
    report = mp.lasalle_diagnostics(traj, rigid, [1.0, 0.0, 0.0])
    lyap = traj.column("H") + traj.column("phi_c")
    assert np.max(np.abs(lyap - lyap[0])) <= 1e-8
    assert not report.converged_to_E  # generic orbit stays away from the axes


def test_metriplectic_run_descends_and_converges(rigid):
    field = mp.field_function(rigid, "metriplectic")
    diag = mp.diagnostics_function(rigid)
    traj = mp.integrate(field, [1.01, 0.05, -0.03], (0.0, 150.0), mp.StepControl(h=1e-3), diagnostics=diag)
    report = mp.lasalle_diagnostics(traj, rigid, [1.0, 0.0, 0.0], defect_tol=1e-6)
    assert report.monotone_violations == 0
    assert report.converged_to_E
    assert report.tail_max_defect <= 1e-6
    assert report.tail_spread.shape == (3,)


def test_diagnostics_computed_when_missing(rigid):
    field = mp.field_function(rigid, "metriplectic")
    with_diag = mp.integrate(
        field, [1.01, 0.05, -0.03], (0.0, 5.0), mp.StepControl(h=1e-2),
        diagnostics=mp.diagnostics_function(rigid),
    )
    without = mp.integrate(field, [1.01, 0.05, -0.03], (0.0, 5.0), mp.StepControl(h=1e-2))
    a = mp.lasalle_diagnostics(with_diag, rigid, [1.0, 0.0, 0.0])
    b = mp.lasalle_diagnostics(without, rigid, [1.0, 0.0, 0.0])
    assert a.tail_max_defect == pytest.approx(b.tail_max_defect, rel=1e-12, abs=1e-300)
    assert a.monotone_violations == b.monotone_violations
    # the same samples without their diagnostics give the same report exactly
    stripped = mp.Trajectory(times=with_diag.times, states=with_diag.states)
    c = mp.lasalle_diagnostics(stripped, rigid, [1.0, 0.0, 0.0])
    for name in a.__dataclass_fields__:
        assert np.array_equal(getattr(c, name), getattr(a, name)), name


def test_lyapunov_pd_tol_check(rigid):
    for pd_tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            mp.lyapunov_report(rigid, [1.0, 0.0, 0.0], pd_tol=pd_tol)


def test_lasalle_argument_checks(rigid):
    traj = mp.Trajectory(times=np.array([0.0]), states=np.array([[1.0, 0.0, 0.0]]))
    for tail_fraction in (0.0, math.nan):
        with pytest.raises(ValueError):
            mp.lasalle_diagnostics(traj, rigid, [1.0, 0.0, 0.0], tail_fraction=tail_fraction)
    for defect_tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            mp.lasalle_diagnostics(traj, rigid, [1.0, 0.0, 0.0], defect_tol=defect_tol)
    bad = mp.Trajectory(times=np.array([0.0]), states=np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        mp.lasalle_diagnostics(bad, rigid, [1.0, 0.0, 0.0])


def test_entropy_and_lyapunov_increases_share_one_rule():
    # phi(C) is about 2e5 here, and conservative RK4 moves it by up to 6.9e-9 per
    # step: an absolute 1e-10 slack counted 551 increases where L counted none
    sys_def = mp.rigid_body_system(mp.RigidBodyParams(3.0, 2.0, 1.0, 200.0))
    traj = mp.integrate(
        mp.field_function(sys_def, "conservative"), [202.0, 10.0, -6.0], (0.0, 5e-5),
        mp.StepControl(h=2.5e-8), diagnostics=mp.diagnostics_function(sys_def),
    )
    report = mp.lasalle_diagnostics(traj, sys_def, [200.0, 0.0, 0.0])
    assert traj.monitor.max_entropy_increase > 1e-9
    assert traj.monitor.entropy_increase_count == report.monotone_violations == 0


@pytest.mark.parametrize("base", [1e6, -1e6])
@pytest.mark.parametrize("step, count", [(0.9e-4, 0), (1.1e-4, 20)])
def test_increase_counts_above_the_relative_slack(base, step, count):
    # phi(C) = L = base + step * t rises by step per unit step; MONOTONE_SLACK * (1 + |base|) is about 1e-4
    flat = mp.SystemDefinition(mp.PoissonStructure.from_strings([["0"]]), mp.ScalarField.from_string("0", 1))
    traj = mp.integrate(lambda x: np.ones(1), [0.0], (0.0, 20.0), mp.StepControl(h=1.0),
                        diagnostics=lambda x: (0.0, base + step * x[0], 0.0, 0.0))
    assert traj.monitor.entropy_increase_count == count
    assert mp.lasalle_diagnostics(traj, flat, [0.0]).monotone_violations == count
