import math

import numpy as np
import pytest

import metriplectic as mp
from metriplectic import expressions as ex


def entrywise_matrix(g):
    """Independent oracle: the dissipation matrix assembled entry by entry."""
    g = np.asarray(g, dtype=float)
    n = len(g)
    mat = np.empty((n, n))
    for j in range(n):
        for i in range(n):
            if i == j:
                mat[j, j] = -sum(g[l] * g[l] for l in range(n) if l != j)
            else:
                mat[i, j] = g[i] * g[j]
    return mat


# ---------------------------------------------------------------------------
# build_dissipation_matrix

def test_matrix_matches_entrywise_oracle():
    rng = np.random.default_rng(10)
    for n in range(2, 7):
        for _ in range(50):
            g = rng.uniform(-3, 3, n)
            built = mp.build_dissipation_matrix(g).matrix
            assert built == pytest.approx(entrywise_matrix(g), rel=1e-13, abs=1e-13)


def test_axis_gradient():
    built = mp.build_dissipation_matrix([1.0, 0.0, 0.0]).matrix
    assert np.array_equal(built, np.diag([0.0, -1.0, -1.0]))


def test_zero_gradient_gives_zero_matrix():
    assert np.array_equal(mp.build_dissipation_matrix([0.0, 0.0, 0.0]).matrix, np.zeros((3, 3)))


def test_explicit_three_dim_case():
    d = mp.build_dissipation_matrix([1.0, 2.0, 3.0])
    expected = np.array([[-13, 2, 3], [2, -10, 6], [3, 6, -5]], dtype=float)
    assert np.array_equal(d.matrix, expected)
    assert d.matrix @ d.grad == pytest.approx([0, 0, 0], abs=1e-14)


def test_non_finite_gradient_rejected():
    with pytest.raises(ValueError):
        mp.build_dissipation_matrix([1.0, np.nan])
    with pytest.raises(ValueError):
        mp.build_dissipation_matrix([np.inf, 0.0])


def test_gradient_annihilation_scaling():
    rng = np.random.default_rng(11)
    for _ in range(200):
        g = rng.uniform(-10, 10, int(rng.integers(2, 7)))
        residual = np.max(np.abs(mp.build_dissipation_matrix(g).matrix @ g))
        assert residual <= 1e-12 * max(1.0, np.linalg.norm(g) ** 3)


def test_eigenstructure():
    rng = np.random.default_rng(12)
    for n in range(2, 7):
        g = rng.uniform(-2, 2, n)
        gg = float(np.dot(g, g))
        eig = np.linalg.eigvalsh(mp.build_dissipation_matrix(g).matrix)
        expected = np.sort([-gg] * (n - 1) + [0.0])
        assert eig == pytest.approx(expected, abs=1e-8)


# ---------------------------------------------------------------------------
# apply_dissipation

def test_apply_matches_dense_product():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        g = rng.uniform(-3, 3, n)
        v = rng.uniform(-3, 3, n)
        dense = mp.build_dissipation_matrix(g).matrix @ v
        fast = mp.apply_dissipation(g, v)
        scale = max(1.0, float(np.max(np.abs(dense))))
        assert fast == pytest.approx(dense, rel=1e-12, abs=1e-12 * scale)


def test_apply_annihilates_gradient():
    g = np.array([1.0, 2.0, 3.0])
    assert mp.apply_dissipation(g, g) == pytest.approx([0, 0, 0], abs=1e-13)


def test_apply_axis_case():
    assert np.array_equal(mp.apply_dissipation([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), [0.0, -1.0, 0.0])


def test_apply_hand_value():
    out = mp.apply_dissipation([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    assert np.array_equal(out, [-8.0, -2.0, 4.0])


def test_apply_length_mismatch():
    with pytest.raises(ValueError):
        mp.apply_dissipation([1.0, 2.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# entropy_production

def test_production_examples():
    assert mp.entropy_production([1, 0, 0], [0, 1, 0]) == -1.0
    assert mp.entropy_production([1, 2, 3], [4, 5, 6]) == -54.0


def test_production_zero_for_collinear():
    g = np.array([1.0, 2.0, 3.0])
    for alpha in (2.0, 0.5, -4.0):  # exactly representable multiples
        assert mp.entropy_production(g, alpha * g) == 0.0
    assert abs(mp.entropy_production(g, 0.3 * g)) <= 1e-28


def test_three_way_agreement_and_negativity():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        g = rng.uniform(-3, 3, n)
        u = rng.uniform(-3, 3, n)
        minor = mp.entropy_production(g, u)
        dense = float(u @ mp.build_dissipation_matrix(g).matrix @ u)
        gg, uu, gu = np.dot(g, g), np.dot(u, u), np.dot(g, u)
        closed = gu * gu - gg * uu
        tol = 1e-12 * max(1.0, gg * uu)
        assert minor <= 0.0
        assert abs(minor - dense) <= tol
        assert abs(minor - closed) <= tol


def test_production_equals_negated_gram_defect():
    # zero-production happens exactly when the Gram determinant vanishes
    rng = np.random.default_rng(15)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        g = rng.uniform(-3, 3, n)
        u = rng.uniform(-3, 3, n)
        report = mp.linear_dependence(g, u, tol=1e-10)
        tol = 1e-12 * max(1.0, np.dot(g, g) * np.dot(u, u))
        assert abs(mp.entropy_production(g, u) + report.gram_defect) <= tol


def test_production_length_mismatch():
    with pytest.raises(ValueError):
        mp.entropy_production([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# verify_metriplectic_conditions

def test_rigid_body_conditions_pass():
    sys_def = mp.rigid_body_system()
    pts = mp.sample_box(3, (-2, 2), 1000, seed=42)
    report = mp.verify_metriplectic_conditions(sys_def, pts, tol=1e-10)
    assert report.passed
    assert report.m1_max <= 1e-10
    assert report.m2_max <= 1e-10
    assert report.m3_max_positive <= 1e-10


def test_wrong_casimir_fails():
    sys_def = mp.SystemDefinition(
        poisson=mp.PoissonStructure.from_strings([["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]]),
        hamiltonian=mp.ScalarField.from_string("(x1^2/3 + x2^2/2 + x3^2)/2", 3),
        casimirs=[mp.ScalarField.from_string("x1", 3)],
        phi=ex.parse("s1", 1, "s"),
        verification=mp.VerificationPolicy(samples=0),  # let the broken system through
    )
    pts = mp.sample_box(3, (-2, 2), 200, seed=16)
    report = mp.verify_metriplectic_conditions(sys_def, pts, tol=1e-10)
    assert not report.passed
    assert report.m1_max >= 1.0


def test_no_casimir_system_is_vacuously_fine():
    sys_def = mp.SystemDefinition(
        poisson=mp.PoissonStructure.from_strings([["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]]),
        hamiltonian=mp.ScalarField.from_string("(x1^2/3 + x2^2/2 + x3^2)/2", 3),
        verification=mp.VerificationPolicy(samples=50),
    )
    pts = mp.sample_box(3, (-2, 2), 100, seed=17)
    report = mp.verify_metriplectic_conditions(sys_def, pts, tol=1e-10)
    assert report.passed
    assert report.m1_max == 0.0
    assert report.m3_max_positive == 0.0
    assert report.m2_max <= 1e-12


def test_nan_residuals_fail_their_conditions():
    # the Casimir's first gradient component is inf - inf = nan everywhere
    sys_def = mp.SystemDefinition(
        poisson=mp.PoissonStructure.from_strings([["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]]),
        hamiltonian=mp.ScalarField.from_string("(x1^2/3 + x2^2/2 + x3^2)/2", 3),
        casimirs=[mp.ScalarField.from_string("x1*1e300*1e300 - x1*1e300*1e300 + (x1^2 + x2^2 + x3^2)/2", 3)],
        phi=ex.parse("(s1 - 0.5)^2 - s1/3", 1, "s"),
        verification=mp.VerificationPolicy(samples=0),
    )
    pts = mp.sample_box(3, (-2, 2), 100, seed=18)
    report = mp.verify_metriplectic_conditions(sys_def, pts, tol=1e-10)
    assert not report.passed
    assert math.isnan(report.m1_max) and math.isnan(report.m3_max_positive)
    assert report.failed_conditions(1e-10) == ["m1", "m3"]
    assert np.array_equal(report.worst_points["m1"], pts[0])
    assert np.array_equal(report.worst_points["m3"], pts[0])


def test_non_finite_grad_h_fails_m2_and_m3():
    # grad H has the first component inf - inf = nan everywhere: G is not defined
    sys_def = mp.SystemDefinition(
        poisson=mp.PoissonStructure.from_strings([["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]]),
        hamiltonian=mp.ScalarField.from_string("x1*1e300*1e300 - x1*1e300*1e300 + x1^2/6 + x2^2/4 + x3^2/2", 3),
        casimirs=[mp.ScalarField.from_string("(x1^2 + x2^2 + x3^2)/2", 3)],
        phi=ex.parse("(s1 - 0.5)^2 - s1/3", 1, "s"),
        verification=mp.VerificationPolicy(samples=0),
    )
    pts = mp.sample_box(3, (-2, 2), 100, seed=18)
    report = mp.verify_metriplectic_conditions(sys_def, pts, tol=1e-10)
    assert not report.passed
    assert report.m1_max <= 1e-10
    assert math.isnan(report.m2_max) and math.isnan(report.m3_max_positive)
    assert report.failed_conditions(1e-10) == ["m2", "m3"]
    assert np.array_equal(report.worst_points["m2"], pts[0])
    assert np.array_equal(report.worst_points["m3"], pts[0])


def rigid_with(hamiltonian, casimirs, phi):
    return mp.SystemDefinition(
        poisson=mp.PoissonStructure.from_strings([["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]]),
        hamiltonian=mp.ScalarField.from_string(hamiltonian, 3),
        casimirs=[mp.ScalarField.from_string(c, 3) for c in casimirs],
        phi=ex.parse(phi, len(casimirs), "s"),
        verification=mp.VerificationPolicy(samples=0),
    )


def test_m1_is_the_worst_point_of_the_first_casimir_holding_the_worst_residual():
    # both Casimirs reach residual 1: x2 at the first point, x1 at the second
    sys_def = rigid_with("(x1^2/3 + x2^2/2 + x3^2)/2", ["x1", "x2"], "s1 + s2")
    pts = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    report = mp.verify_metriplectic_conditions(sys_def, pts, tol=1e-10)
    assert report.m1_max == 1.0 and report.failed_conditions(1e-10) == ["m1"]
    assert report.worst_points["m1"].tolist() == pts[1]


def test_a_casimir_evaluation_error_is_raised_before_one_of_grad_h():
    # grad H fails to evaluate at the first point (x2 + 1 < 0), the Casimir's gradient at the second (x1 < 0)
    sys_def = rigid_with("sqrt(x2 + 1)", ["sqrt(x1)"], "s1")
    with pytest.raises(ex.EvaluationError, match=r"^casimir residual evaluation failed at \[-1\.0, 0\.0, 0\.0\]"):
        mp.verify_metriplectic_conditions(sys_def, [[1.0, -2.0, 0.0], [-1.0, 0.0, 0.0]], tol=1e-10)
