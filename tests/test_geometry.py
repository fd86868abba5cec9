import math
import re

import numpy as np
import pytest

import metriplectic as mp
from metriplectic import expressions as ex
from metriplectic import geometry
from test_compiled_path import E3_DOCUMENT

RIGID_ROWS = [["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]]


def rigid_poisson():
    return mp.PoissonStructure.from_strings(RIGID_ROWS)


def norm_casimir():
    return mp.ScalarField.from_string("(x1^2 + x2^2 + x3^2)/2", 3)


def count_poisson_calls(monkeypatch) -> list:
    """The argument of every ``poisson_matrix`` call made from now on."""
    calls, original = [], geometry.poisson_matrix

    def counted(structure, x):
        calls.append(x)
        return original(structure, x)

    monkeypatch.setattr(geometry, "poisson_matrix", counted)
    return calls


# ---------------------------------------------------------------------------
# poisson_matrix

def test_poisson_matrix_values():
    pi = mp.poisson_matrix(rigid_poisson(), [1, 2, 3])
    assert np.array_equal(pi, np.array([[0, -3, 2], [3, 0, -1], [-2, 1, 0]]))


def test_poisson_matrix_fails_a_nan_antisymmetry_defect():
    # x1*x1*x1 overflows to inf against its mirror -inf, and inf + -inf is nan
    structure = mp.PoissonStructure.from_strings([["0", "x1*x1*x1"], ["-(x1*x1*x1)", "0"]])
    assert mp.poisson_matrix(structure, [1e100, 0.0])[0, 1] == 1e300
    with pytest.raises(mp.AntisymmetryError, match=r"max entry nan at x=\[1e\+200, 0\.0\]"):
        mp.poisson_matrix(structure, [1e200, 0.0])


def test_poisson_matrix_zero_diagonal():
    structure = rigid_poisson()
    rng = np.random.default_rng(0)
    for _ in range(20):
        pi = mp.poisson_matrix(structure, rng.uniform(-2, 2, 3))
        assert np.all(np.diag(pi) == 0.0)


def test_poisson_matrix_at_origin():
    assert np.array_equal(mp.poisson_matrix(rigid_poisson(), [0, 0, 0]), np.zeros((3, 3)))


def test_poisson_quadratic_form_vanishes():
    structure = rigid_poisson()
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.uniform(-2, 2, 3)
        v = rng.uniform(-5, 5, 3)
        pi = mp.poisson_matrix(structure, x)
        scale = max(1.0, float(np.dot(v, v)) * float(np.max(np.abs(pi))))
        assert abs(float(v @ pi @ v)) <= 1e-12 * scale


def test_malformed_structure_rejected_at_evaluation():
    bad = mp.PoissonStructure.from_strings([["0", "x1"], ["x1", "0"]])
    with pytest.raises(mp.AntisymmetryError):
        mp.poisson_matrix(bad, [1.0, 0.0])


def test_poisson_matrix_dimension_check():
    with pytest.raises(ValueError):
        mp.poisson_matrix(rigid_poisson(), [1.0, 2.0])


def test_structure_shape_check():
    with pytest.raises(ValueError):
        mp.PoissonStructure(2, [[ex.Num(0.0)]])


# ---------------------------------------------------------------------------
# verify_casimir

def test_norm_casimir_passes():
    pts = mp.sample_box(3, (-2, 2), 100, seed=3)
    (report,) = mp.verify_casimir(rigid_poisson(), [norm_casimir()], pts, tol=1e-12)
    assert report.passed
    assert report.max_residual <= 1e-12


def test_non_casimir_fails():
    field = mp.ScalarField.from_string("x1", 3)
    (report,) = mp.verify_casimir(rigid_poisson(), [field], [[0.0, 1.0, 0.0]], tol=1e-6)
    assert not report.passed
    assert report.max_residual == pytest.approx(1.0)
    assert np.array_equal(report.worst_point, [0.0, 1.0, 0.0])


def test_constant_field_is_casimir():
    field = mp.ScalarField.from_string("5", 3)
    pts = mp.sample_box(3, (-2, 2), 10, seed=4)
    (report,) = mp.verify_casimir(rigid_poisson(), [field], pts, tol=1e-12)
    assert report.passed and report.max_residual == 0.0


def test_verify_casimir_argument_checks():
    with pytest.raises(ValueError):
        mp.verify_casimir(rigid_poisson(), [norm_casimir()], [], tol=1e-6)
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            mp.verify_casimir(rigid_poisson(), [norm_casimir()], [[0, 0, 0]], tol=tol)


def test_verify_casimir_reports_bad_point():
    field = mp.ScalarField.from_string("sqrt(x1)", 3)  # gradient errors for x1 < 0
    with pytest.raises(ex.EvaluationError, match=r"\[-1\.0, 0\.0, 0\.0\]"):
        mp.verify_casimir(rigid_poisson(), [field], [[-1.0, 0.0, 0.0]], tol=1e-6)


# x1*1e300*1e300 overflows to inf, so d/dx1 of the first two terms is inf - inf
NAN_CASIMIR = "x1*1e300*1e300 - x1*1e300*1e300 + (x1^2 + x2^2 + x3^2)/2"


def test_nan_residual_fails_the_casimir_check():
    field = mp.ScalarField.from_string(NAN_CASIMIR, 3)
    pts = mp.sample_box(3, (-2, 2), 50, seed=0)
    assert math.isnan(field.gradient_at(pts[0])[0])
    (report,) = mp.verify_casimir(rigid_poisson(), [field], pts, tol=1e-10)
    assert math.isnan(report.max_residual)
    assert not report.passed
    assert np.array_equal(report.worst_point, pts[0])


def test_first_non_finite_residual_is_reported():
    # the gradient of the first two terms is nan unless x1 = 0, where it is 0
    field = mp.ScalarField.from_string("x1^2*1e300*1e300 - x1^2*1e300*1e300 + x1", 3)
    pts = [[0.0, 0.0, 0.5], [0.0, 2.0, 0.0], [1.0, 1.0, 0.0], [2.0, 2.0, 2.0]]
    (report,) = mp.verify_casimir(rigid_poisson(), [field], pts, tol=1e-10)
    assert math.isnan(report.max_residual) and not report.passed
    assert report.worst_point.tolist() == pts[2]
    (finite,) = mp.verify_casimir(rigid_poisson(), [field], pts[:2], tol=1e-10)
    assert finite.max_residual == 2.0 and finite.worst_point.tolist() == pts[1]


def test_one_pass_reports_every_casimir_in_declared_order(monkeypatch):
    fields = [norm_casimir(), mp.ScalarField.from_string("x1", 3), mp.ScalarField.from_string("5", 3)]
    pts = mp.sample_box(3, (-2, 2), 40, seed=5)
    singles = [mp.verify_casimir(rigid_poisson(), [field], pts, tol=1e-12)[0] for field in fields]
    calls = count_poisson_calls(monkeypatch)
    reports = mp.verify_casimir(rigid_poisson(), fields, pts, tol=1e-12)
    assert len(calls) == 1 and np.array_equal(calls[0], pts)  # one stacked call holds every point, in order
    assert reports == singles and [r.passed for r in reports] == [True, False, True]
    assert all(np.array_equal(r.worst_point, single.worst_point) for r, single in zip(reports, singles))


def test_no_casimirs_still_checks_antisymmetry_at_every_point(monkeypatch):
    calls = count_poisson_calls(monkeypatch)
    pts = mp.sample_box(3, (-2, 2), 7, seed=6)
    assert mp.verify_casimir(rigid_poisson(), [], pts, tol=1e-12) == []
    assert len(calls) == 1 and np.array_equal(calls[0], pts)
    bad = mp.PoissonStructure.from_strings([["0", "x1"], ["x1", "0"]])
    with pytest.raises(mp.AntisymmetryError):
        mp.verify_casimir(bad, [], [[0.0, 0.0], [1.0, 0.0]], tol=1e-12)


def test_nan_casimir_is_rejected_at_construction():
    with pytest.raises(mp.CasimirError, match="residual nan"):
        mp.SystemDefinition(
            poisson=rigid_poisson(),
            hamiltonian=mp.ScalarField.from_string("(x1^2/3 + x2^2/2 + x3^2)/2", 3),
            casimirs=[mp.ScalarField.from_string(NAN_CASIMIR, 3)],
            phi=ex.parse("s1", 1, "s"),
        )


# ---------------------------------------------------------------------------
# ScalarField

def test_scalar_field_arity_checks():
    value = ex.parse("x1 + x2", 2)
    with pytest.raises(ValueError):
        mp.ScalarField(1, value)  # uses x2 beyond arity
    with pytest.raises(ValueError):
        mp.ScalarField(0, ex.Num(1.0))


def test_scalar_field_takes_no_gradient_trees():
    value = ex.parse("x1^2", 1)
    with pytest.raises(TypeError):
        mp.ScalarField(1, value, [ex.Num(5.0)])
    assert mp.ScalarField(1, value).gradient == (ex.differentiate(value, 1),)


@pytest.mark.parametrize("text, arity, point, gradient", [
    ("sin(3000*x1)", 1, [0.0], [3000.0]),
    ("exp(20*x1) + x2", 2, [0.0, 0.5], [20.0, 1.0]),
])
def test_fields_a_fixed_finite_difference_step_misjudged_are_built(text, arity, point, gradient):
    # a central difference with step 1e-5 reads 1.00024 for d/dx2 of the second at x1 near 1.5
    field = mp.ScalarField.from_string(text, arity)
    assert field.gradient_at(point).tolist() == gradient


# ---------------------------------------------------------------------------
# compose_entropy

def system_with_phi(phi_text: str) -> mp.SystemDefinition:
    return mp.SystemDefinition(
        poisson=rigid_poisson(),
        hamiltonian=mp.ScalarField.from_string("(x1^2/3 + x2^2/2 + x3^2)/2", 3),
        casimirs=[norm_casimir()],
        phi=ex.parse(phi_text, 1, "s"),
        verification=mp.VerificationPolicy(samples=100),
    )


def test_compose_entropy_square():
    sys_def = system_with_phi("s1^2")
    entropy = mp.compose_entropy(sys_def)
    p = [1.0, 1.0, 1.0]
    assert entropy.value_at(p) == pytest.approx(9 / 4, rel=1e-15)
    assert entropy.gradient_at(p) == pytest.approx([3.0, 3.0, 3.0], rel=1e-15)


def test_compose_entropy_identity():
    sys_def = system_with_phi("s1")
    entropy = mp.compose_entropy(sys_def)
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = rng.uniform(-2, 2, 3)
        assert entropy.value_at(p) == pytest.approx(norm_casimir().value_at(p), rel=1e-14)
        assert entropy.gradient_at(p) == pytest.approx(p, rel=1e-14)


def test_compose_entropy_rigid_body_values():
    sys_def = mp.rigid_body_system()
    entropy = mp.compose_entropy(sys_def)
    p = [1.0, 1.0, 1.0]
    assert entropy.value_at(p) == pytest.approx(0.5, rel=1e-14)
    assert entropy.gradient_at(p) == pytest.approx(np.array(p) * 5 / 3, rel=1e-14)


def test_chain_rule_matches_finite_differences():
    sys_def = system_with_phi("(s1 - 1/2)^2 - s1/3")
    entropy = mp.compose_entropy(sys_def)
    rng = np.random.default_rng(6)
    h = 1e-5
    for _ in range(100):
        p = rng.uniform(-2, 2, 3)
        grad = entropy.gradient_at(p)
        for i in range(3):
            hi, lo = p.copy(), p.copy()
            hi[i] += h
            lo[i] -= h
            fd = (entropy.value_at(hi) - entropy.value_at(lo)) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))


def test_composed_entropy_is_a_casimir():
    sys_def = mp.rigid_body_system()
    entropy = mp.compose_entropy(sys_def)
    pts = mp.sample_box(3, (-2, 2), 200, seed=8)
    (report,) = mp.verify_casimir(sys_def.poisson, [entropy], pts, tol=1e-10)
    assert report.passed


# ---------------------------------------------------------------------------
# SystemDefinition validation

def test_bad_casimir_rejected_at_construction():
    with pytest.raises(mp.CasimirError) as err:
        mp.SystemDefinition(
            poisson=rigid_poisson(),
            hamiltonian=mp.ScalarField.from_string("x1^2", 3),
            casimirs=[mp.ScalarField.from_string("x1", 3)],
            phi=ex.parse("s1", 1, "s"),
        )
    assert err.value.residual >= 1e-6
    assert err.value.point.shape == (3,)


def test_phi_arity_must_match_casimir_count():
    with pytest.raises(ValueError, match="s2"):
        mp.SystemDefinition(
            poisson=rigid_poisson(),
            hamiltonian=mp.ScalarField.from_string("x1^2", 3),
            casimirs=[norm_casimir()],
            phi=ex.parse("s2", 2, "s"),
            verification=mp.VerificationPolicy(samples=0),
        )


def test_phi_requires_casimirs_and_vice_versa():
    with pytest.raises(ValueError):
        mp.SystemDefinition(
            poisson=rigid_poisson(),
            hamiltonian=mp.ScalarField.from_string("x1^2", 3),
            casimirs=[],
            phi=ex.parse("s1", 1, "s"),
            verification=mp.VerificationPolicy(samples=0),
        )
    with pytest.raises(ValueError):
        mp.SystemDefinition(
            poisson=rigid_poisson(),
            hamiltonian=mp.ScalarField.from_string("x1^2", 3),
            casimirs=[norm_casimir()],
            phi=None,
            verification=mp.VerificationPolicy(samples=0),
        )


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError, match="arity"):
        mp.SystemDefinition(
            poisson=rigid_poisson(),
            hamiltonian=mp.ScalarField.from_string("x1^2", 2),
            verification=mp.VerificationPolicy(samples=0),
        )


def test_verification_policy_validation():
    for box in ((2.0, -2.0), (-2.0, math.inf), (math.nan, 2.0), (-math.inf, math.inf), (-1e308, 1e308)):
        with pytest.raises(ValueError):
            mp.VerificationPolicy(box=box)
    with pytest.raises(ValueError):
        mp.VerificationPolicy(samples=-1)
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            mp.VerificationPolicy(tolerance=tol)


@pytest.mark.parametrize("field, value", [("samples", 2.5), ("samples", True), ("seed", 1.5), ("seed", True)])
def test_verification_policy_refuses_a_sample_count_or_seed_that_is_not_an_integer(field, value):
    # before, 2.5 and True samples died in numpy, a 1.5 seed in SeedSequence, and seed True sampled with seed 1
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        mp.VerificationPolicy(**{field: value})
    assert mp.VerificationPolicy(**{field: np.int64(3)}).samples >= 0  # numpy integers are integers


EXP_IDENTITY_CASIMIR = "(x1^2 + x2^2 + x3^2)/2 + (exp(x1)*exp(-x1) - 1)*x1"  # a Casimir only through exp(x1)exp(-x1) = 1
SIN_ROWS = [["0", "-sin(x3)", "x2"], ["sin(x3)", "0", "-x1"], ["-x2", "x1", "0"]]


@pytest.mark.parametrize("build, samples", [
    (lambda policy: mp.SystemDefinition(
        rigid_poisson(), mp.ScalarField.from_string("x1^2", 3), [mp.ScalarField.from_string(EXP_IDENTITY_CASIMIR, 3)],
        ex.parse("s1", 1, "s"), verification=policy), 1000),
    (lambda policy: mp.SystemDefinition(
        mp.PoissonStructure.from_strings(SIN_ROWS), mp.ScalarField.from_string("x1^2", 3), verification=policy), 30),
], ids=["exp-identity-casimir", "sin-entry-no-casimirs"])
def test_a_load_evaluates_pi_once_per_sample_point(monkeypatch, build, samples):
    # neither system is a polynomial one, so the load samples instead of proving
    calls = count_poisson_calls(monkeypatch)
    policy = mp.VerificationPolicy(samples=samples)
    build(policy)
    # one stacked call, whose rows are the whole sample in order
    sample = mp.sample_box(calls[0].shape[1], policy.box, samples, policy.seed)
    assert len(calls) == 1 and np.array_equal(calls[0], sample)


@pytest.mark.parametrize("build", [lambda: mp.load_system(E3_DOCUMENT), mp.rigid_body_system], ids=["e3", "rigid-body"])
def test_a_proved_load_evaluates_pi_at_no_point(monkeypatch, build):
    calls = count_poisson_calls(monkeypatch)
    assert build().verification.samples == 1000 and calls == []


def test_a_load_raises_the_first_evaluation_error_of_any_casimir():
    # x1 fails the residual check at every sample point, and the gradient of
    # sqrt(x1) fails to evaluate where x1 < 0: the one pass meets that first
    points = mp.sample_box(3, (-2.0, 2.0), 1000, 0)
    first = int(np.argmax(points[:, 0] < 0))
    assert first > 0
    with pytest.raises(ex.EvaluationError, match=re.escape(f"failed at {points[first].tolist()}")):
        mp.SystemDefinition(
            poisson=rigid_poisson(),
            hamiltonian=mp.ScalarField.from_string("x1^2/6 + x2^2/4 + x3^2/2", 3),
            casimirs=[mp.ScalarField.from_string("x1", 3), mp.ScalarField.from_string("sqrt(x1)", 3)],
            phi=ex.parse("s1", 2, "s"),
        )


@pytest.mark.parametrize("pi_12, casimir, message", [
    (ex.Mul(ex.Num(math.inf), ex.Var(3)), None, "cannot compile non-finite literal inf"),
    (ex.Div(ex.Var(1), ex.Num(math.inf)), None, "cannot compile non-finite literal inf"),
    (ex.Div(ex.Var(1), ex.Num(math.nan)), None, "cannot compile non-finite literal nan"),
    (None, ex.Add(ex.Var(2), ex.Mul(ex.Num(math.nan), ex.Var(1))), "cannot compile non-finite literal nan"),
    (ex.Var(4), None, "variable index 4 beyond name table of 3"),
], ids=["inf-in-pi", "inf-divisor-in-pi", "nan-divisor-in-pi", "nan-in-casimir", "x4-in-3d-pi"])
def test_a_tree_no_kernel_can_run_fails_its_load_or_else_its_first_evaluation(pi_12, casimir, message):
    # only a hand-built tree has such a node: the parser and the smart constructors make none.  The
    # proof refuses it (x4 read as a constant would prove this Pi antisymmetric), so a load samples and
    # the kernel's compile raises; a load without samples compiles nothing, and the first evaluation raises
    rows = [list(row) for row in rigid_poisson().entries]
    if pi_12 is not None:
        rows[0][1], rows[1][0] = pi_12, ex.Neg(pi_12)
    casimirs = [] if casimir is None else [mp.ScalarField(3, casimir)]

    def load(samples):
        return mp.SystemDefinition(mp.PoissonStructure(3, rows), mp.ScalarField.from_string("x1^2", 3), casimirs,
                                   ex.parse("s1", 1, "s") if casimirs else None,
                                   verification=mp.VerificationPolicy(samples=samples))

    with pytest.raises(ValueError, match=message):
        load(1000)
    sys_def = load(0)
    with pytest.raises(ValueError, match=message):
        mp.poisson_matrix(sys_def.poisson, [1.0, 1.0, 1.0])
        sys_def.casimirs[0].gradient_at([1.0, 1.0, 1.0])


@pytest.mark.parametrize("casimirs", [0, 1])
def test_antisymmetry_is_checked_at_every_sample_point(casimirs):
    # Pi_12 breaks antisymmetry only where x1 > 1.95; the first such default
    # sample point is number 57, past the first 50
    rows = [row[:] for row in RIGID_ROWS]
    rows[0][1] = "-x3 + (x1 - 1.95 + sqrt((x1 - 1.95)^2))"
    points = mp.sample_box(3, (-2.0, 2.0), 1000, 0)
    assert int(np.argmax(points[:, 0] > 1.95)) == 57
    with pytest.raises(mp.AntisymmetryError):
        mp.SystemDefinition(
            poisson=mp.PoissonStructure.from_strings(rows),
            hamiltonian=mp.ScalarField.from_string("x1^2/6 + x2^2/4 + x3^2/2", 3),
            casimirs=[norm_casimir()][:casimirs],
            phi=ex.parse("s1", 1, "s") if casimirs else None,
        )
