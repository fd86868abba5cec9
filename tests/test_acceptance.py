"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Every tolerance is pinned here; nothing is calibrated at
run time.
"""

import time

import numpy as np
import pytest

import metriplectic as mp
from metriplectic import expressions as ex
from expr_gen import derivative_cases
from oracles import rigid_body_perturbed_rhs

SEED = 42

PARAM_SETS = [
    mp.RigidBodyParams(3.0, 2.0, 1.0, 1.0),
    mp.RigidBodyParams(5.0, 3.0, 2.0, 2.0),
    mp.RigidBodyParams(4.0, 2.5, 1.5, 0.5),
    mp.RigidBodyParams(10.0, 4.0, 1.0, -1.0),
    mp.RigidBodyParams(2.5, 2.0, 1.5, 1.5),
]


@pytest.fixture(scope="module")
def rigid():
    return mp.rigid_body_system()


def test_criterion_1_structure_conditions(rigid):
    started = time.perf_counter()
    points = mp.sample_box(3, (-2.0, 2.0), 1000, seed=SEED)
    report = mp.verify_metriplectic_conditions(rigid, points, tol=1e-10)
    elapsed = time.perf_counter() - started
    assert report.m1_max <= 1e-10
    assert report.m2_max <= 1e-10
    assert report.m3_max_positive <= 1e-10
    assert report.passed
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    print(
        f"criterion 1: PASS  m1={report.m1_max:.2e} m2={report.m2_max:.2e} "
        f"m3+={report.m3_max_positive:.2e} ({elapsed:.2f}s)"
    )


def test_criterion_2_quadratic_form_triple_agreement():
    rng = np.random.default_rng(SEED)
    pairs = 0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        g = rng.uniform(-3, 3, n)
        u = rng.uniform(-3, 3, n)
        entrywise = np.empty((n, n))
        for j in range(n):
            for i in range(n):
                entrywise[i, j] = g[i] * g[j] if i != j else -sum(
                    g[l] * g[l] for l in range(n) if l != j
                )
        dense = float(u @ entrywise @ u)
        closed = float(u @ mp.build_dissipation_matrix(g).matrix @ u)
        minor = mp.entropy_production(g, u)
        tol = 1e-12 * max(1.0, float(np.dot(g, g) * np.dot(u, u)))
        assert abs(minor - dense) <= tol
        assert abs(minor - closed) <= tol
        assert abs(dense - closed) <= tol
        assert minor <= 0.0  # Cauchy-Schwarz negativity
        pairs += 1
    assert pairs == 1000
    print("criterion 2: PASS  1000 pairs, dims 2..6, pairwise <= 1e-12 relative")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    for params in PARAM_SETS:
        sys_def = mp.rigid_body_system(params, mp.VerificationPolicy(samples=100))
        for _ in range(1000):
            x = rng.uniform(-2.0, 2.0, 3)
            generic = mp.metriplectic_field(sys_def, x)
            oracle = rigid_body_perturbed_rhs(params, x)
            bound = 1e-12 * (1.0 + float(np.linalg.norm(x)) ** 3)
            assert np.max(np.abs(generic - oracle)) <= bound
    spot = mp.metriplectic_field(mp.rigid_body_system(), [1.0, 1.0, 1.0])
    expected = np.array([-3 / 4, -38 / 27, 103 / 108])
    assert np.max(np.abs(spot - expected)) <= 1e-12
    print("criterion 3: PASS  5 parameter sets x 1000 points; spot value exact to 1e-12")


def test_criterion_4_conservation_and_dissipation_monitors(rigid):
    started = time.perf_counter()
    cons_field = mp.field_function(rigid, "conservative")
    diag = mp.diagnostics_function(rigid)
    cons = mp.integrate(
        cons_field, [1.0, 1.0, 1.0], (0.0, 100.0), mp.StepControl(h=1e-3), diagnostics=diag
    )
    h_drift = float(np.max(np.abs(cons.column("H") - cons.column("H")[0])))
    c_vals = np.array([rigid.casimirs[0].value_at(s) for s in cons.states[:: len(cons) // 200]])
    c_drift = float(np.max(np.abs(c_vals - rigid.casimirs[0].value_at(cons.states[0]))))
    assert h_drift <= 1e-8
    assert c_drift <= 1e-8

    metr_field = mp.field_function(rigid, "metriplectic")
    metr = mp.integrate(
        metr_field, [1.01, 0.05, -0.03], (0.0, 100.0), mp.StepControl(h=1e-3),
        diagnostics=diag,
    )
    assert metr.monitor.max_energy_drift <= 1e-8
    assert metr.monitor.entropy_increase_count == 0
    assert metr.monitor.max_entropy_increase <= 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    print(
        f"criterion 4: PASS  |dH|={h_drift:.2e} |dC|={c_drift:.2e} "
        f"entropy increases=0 ({elapsed:.1f}s)"
    )


def test_criterion_5_energy_casimir_hypotheses():
    for params in PARAM_SETS:
        sys_def = mp.rigid_body_system(params, mp.VerificationPolicy(samples=100))
        report = mp.lyapunov_report(sys_def, [params.M0, 0.0, 0.0])
        expected = np.sort(
            [1 / params.I2 - 1 / params.I1, 1 / params.I3 - 1 / params.I1, 2 * params.M0 ** 2]
        )
        assert report.grad_norm <= 1e-8
        assert np.max(np.abs(report.eigenvalues - expected)) <= 1e-4
        assert report.positive_definite
    print("criterion 5: PASS  5-case grid: grad<=1e-8, eigenvalues within 1e-4, all PD")


def test_criterion_6_convergence_to_dependence_set(rigid):
    started = time.perf_counter()
    field = mp.field_function(rigid, "metriplectic")
    diag = mp.diagnostics_function(rigid)
    traj = mp.integrate(
        field, [1.01, 0.05, -0.03], (0.0, 500.0), mp.StepControl(h=1e-3), diagnostics=diag
    )
    report = mp.lasalle_diagnostics(traj, rigid, [1.0, 0.0, 0.0], tail_fraction=0.1, defect_tol=1e-6)
    final = traj.final_state
    transverse = float(np.hypot(final[1], final[2]))
    elapsed = time.perf_counter() - started
    assert transverse <= 1e-4
    assert report.tail_max_defect <= 1e-6
    assert report.monotone_violations == 0
    assert abs(final[0] - 1.0) <= 0.05
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    print(
        f"criterion 6: PASS  transverse={transverse:.2e} tail_defect={report.tail_max_defect:.2e} "
        f"x1={final[0]:.4f} ({elapsed:.1f}s)"
    )


def test_criterion_7_axis_equilibria_and_implication(rigid):
    for axis in range(3):
        for lam in np.linspace(-2.0, 2.0, 100):
            x = np.zeros(3)
            x[axis] = lam
            assert np.max(np.abs(mp.conservative_field(rigid, x))) <= 1e-12
            assert np.max(np.abs(mp.metriplectic_field(rigid, x))) <= 1e-12
    rng = np.random.default_rng(SEED)
    offenders = 0
    for _ in range(10_000):
        x = rng.uniform(-2.0, 2.0, 3)
        if np.max(np.abs(mp.metriplectic_field(rigid, x))) <= 1e-9:
            if np.max(np.abs(mp.conservative_field(rigid, x))) > 1e-8:
                offenders += 1
    assert offenders == 0
    print("criterion 7: PASS  300 axis points vanish to 1e-12; 10000-point implication clean")


def test_criterion_8_integrator_order(rigid):
    field = mp.field_function(rigid, "conservative")

    def endpoint(h):
        return mp.integrate(field, [1.0, 1.0, 1.0], (0.0, 1.0), mp.StepControl(h=h)).final_state

    reference = endpoint(1e-4)
    e_coarse = float(np.linalg.norm(endpoint(1e-2) - reference))
    e_fine = float(np.linalg.norm(endpoint(5e-3) - reference))
    ratio = e_coarse / e_fine
    assert 8.0 <= ratio <= 32.0, f"error ratio {ratio:.1f} outside [8, 32]"
    print(f"criterion 8: PASS  halving h reduces endpoint error by {ratio:.1f}x")


def test_criterion_9_expression_layer():
    checked = 0
    for tree, point, index, fd, tol in derivative_cases(seed=SEED, count=1000):
        sym = ex.evaluate(ex.differentiate(tree, index), point)
        assert abs(sym - fd) <= tol
        checked += 1
    assert checked == 1000

    malformed = ["x1*(", "(s - 1)", "2x1", "x4 + 1", ")x1(", "sin(x1", "x1^", "", "1//2", "tan(x1)"]
    for text in malformed:
        with pytest.raises(ex.ExpressionError) as err:
            ex.parse(text, 3)
        assert 0 <= err.value.position <= len(text)
    print("criterion 9: PASS  1000 derivative cases to 1e-6; malformed inputs raise positioned errors")
