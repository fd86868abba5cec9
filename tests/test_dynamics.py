import math
from pathlib import Path

import numpy as np
import pytest

import metriplectic as mp
from metriplectic import dynamics
from metriplectic import expressions as ex
from expr_gen import random_tree


@pytest.fixture(scope="module")
def rigid():
    return mp.rigid_body_system()


# ---------------------------------------------------------------------------
# field evaluation

def test_conservative_field_value(rigid):
    out = mp.conservative_field(rigid, [1.0, 1.0, 1.0])
    assert out == pytest.approx([0.5, -2 / 3, 1 / 6], rel=1e-15)


def test_conservative_field_at_equilibrium(rigid):
    assert np.array_equal(mp.conservative_field(rigid, [1.0, 0.0, 0.0]), [0.0, 0.0, 0.0])
    assert np.array_equal(mp.conservative_field(rigid, [0.0, 0.0, 0.0]), [0.0, 0.0, 0.0])


def test_metriplectic_field_value(rigid):
    out = mp.metriplectic_field(rigid, [1.0, 1.0, 1.0])
    assert out == pytest.approx([-3 / 4, -38 / 27, 103 / 108], rel=1e-14)


def test_metriplectic_field_vanishes_on_axes(rigid):
    for point in ([1.0, 0.0, 0.0], [0.0, 0.7, 0.0], [0.0, 0.0, -1.3]):
        assert mp.metriplectic_field(rigid, point) == pytest.approx([0, 0, 0], abs=1e-15)


def test_field_function_matches_pointwise(rigid):
    field = mp.field_function(rigid, "metriplectic")
    rng = np.random.default_rng(20)
    for _ in range(50):
        x = rng.uniform(-2, 2, 3)
        assert np.array_equal(field(x), mp.metriplectic_field(rigid, x))


def test_field_function_bad_kind(rigid):
    with pytest.raises(ValueError):
        mp.field_function(rigid, "dissipative")


def test_dimension_mismatch(rigid):
    with pytest.raises(ValueError):
        mp.conservative_field(rigid, [1.0, 2.0])


def test_evaluation_error_propagates():
    sys_def = mp.SystemDefinition(
        poisson=mp.PoissonStructure.from_strings([["0", "1"], ["-1", "0"]]),
        hamiltonian=mp.ScalarField.from_string("sqrt(x1)*x2", 2),  # gradient errors for x1 < 0
        verification=mp.VerificationPolicy(samples=0),
    )
    with pytest.raises(ex.EvaluationError):
        mp.conservative_field(sys_def, [-1.0, 0.0])


# ---------------------------------------------------------------------------
# pointwise structural properties

def test_energy_orthogonality(rigid):
    rng = np.random.default_rng(21)
    for _ in range(1000):
        x = rng.uniform(-2, 2, 3)
        xi = mp.metriplectic_field(rigid, x)
        g = rigid.hamiltonian.gradient_at(x)
        assert abs(float(np.dot(g, xi))) <= 1e-10


def test_entropy_descent(rigid):
    entropy = mp.compose_entropy(rigid)
    rng = np.random.default_rng(22)
    for _ in range(1000):
        x = rng.uniform(-2, 2, 3)
        xi = mp.metriplectic_field(rigid, x)
        u = entropy.gradient_at(x)
        assert float(np.dot(u, xi)) <= 1e-12


def test_full_equilibria_are_conservative_equilibria(rigid):
    rng = np.random.default_rng(23)
    tol = 1e-9
    for _ in range(2000):
        x = rng.uniform(-2, 2, 3)
        if np.max(np.abs(mp.metriplectic_field(rigid, x))) <= tol:
            assert np.max(np.abs(mp.conservative_field(rigid, x))) <= 10 * tol


def test_axes_are_equilibria_of_both_fields(rigid):
    for axis in range(3):
        for lam in np.linspace(-2, 2, 100):
            x = np.zeros(3)
            x[axis] = lam
            assert np.max(np.abs(mp.conservative_field(rigid, x))) <= 1e-12
            assert np.max(np.abs(mp.metriplectic_field(rigid, x))) <= 1e-12


# ---------------------------------------------------------------------------
# linear dependence

def test_collinear_vectors():
    report = mp.linear_dependence([1.0, 0.0, 0.0], [2.0, 0.0, 0.0])
    assert report.dependent
    assert report.lam == pytest.approx(0.5, rel=1e-15)
    assert report.normalized_defect == 0.0


def test_orthogonal_vectors():
    report = mp.linear_dependence([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert not report.dependent
    assert report.normalized_defect == 1.0
    assert report.lam is None


def test_rigid_body_gram_values(rigid):
    entropy = mp.compose_entropy(rigid)
    x = [1.0, 1.0, 0.0]
    g = rigid.hamiltonian.gradient_at(x)
    u = entropy.gradient_at(x)
    assert g == pytest.approx([1 / 3, 1 / 2, 0.0], rel=1e-15)
    assert u == pytest.approx([2 / 3, 2 / 3, 0.0], rel=1e-15)
    report = mp.linear_dependence(g, u)
    assert not report.dependent
    assert report.gram_defect == pytest.approx(1 / 81, rel=1e-12)


def test_zero_vector_counts_as_dependent():
    report = mp.linear_dependence([1.0, 2.0], [0.0, 0.0])
    assert report.dependent
    assert report.lam is None  # degenerate: no finite coefficient
    assert report.normalized_defect == 0.0


def test_dependence_scale_invariance():
    rng = np.random.default_rng(24)
    for _ in range(200):
        u = rng.uniform(-2, 2, 4)
        v = rng.uniform(-2, 2, 4)
        base = mp.linear_dependence(u, v).normalized_defect
        for c in (3.0, -0.25, 1e3):
            scaled = mp.linear_dependence(u, c * v).normalized_defect
            assert abs(scaled - base) <= 1e-12
            scaled = mp.linear_dependence(c * u, v).normalized_defect
            assert abs(scaled - base) <= 1e-12


@pytest.mark.parametrize("scale", [1.0, 1e-30, 1e-80, 1e-100, 1e-120, 1e-160])
def test_linear_dependence_matches_the_diagnostics_defect(rigid, scale):
    # below about 1e-77 the product ||g||^2 ||u||^2 underflows to zero
    rng = np.random.default_rng(26)
    for x in [np.array([1.0, 1.0, 0.0])] + list(rng.uniform(-2, 2, (20, 3))):
        x = scale * x
        g, u = rigid.hamiltonian.gradient_at(x), mp.compose_entropy(rigid).gradient_at(x)
        report = mp.linear_dependence(g, u)
        assert abs(report.normalized_defect - mp.dependence_defect(rigid, x)) <= 1e-12


def test_orthogonal_vectors_whose_gram_product_underflows_are_not_dependent():
    # ||u||^2 ||v||^2 = 1e-800 underflows to 0; only a vector whose components are all 0 is zero
    report = mp.linear_dependence([1e-100, 0.0], [0.0, 1e-100])
    assert not report.dependent and report.lam is None and report.normalized_defect == 1.0
    assert mp.linear_dependence([1e-100, 0.0], [0.0, 0.0]).dependent


def test_dependence_defect_where_the_gram_product_underflows(rigid):
    unit = mp.dependence_defect(rigid, [1.0, 1.0, 0.0])
    assert unit > 0.03 and mp.dependence_defect(rigid, [1e-100, 1e-100, 0.0]) == pytest.approx(unit, rel=1e-12)


def test_dependence_defect_where_the_gram_product_overflows(recwarn):
    # written with products, which overflow to inf where ``^`` raises: ||g||^2 ||u||^2 is inf at 1e100 scale
    sys_def = mp.load_system({"dimension": 3, "poisson": [["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]],
                              "hamiltonian": "x1*x1/6 + x2*x2/4 + x3*x3/2",
                              "casimirs": ["(x1*x1 + x2*x2 + x3*x3)/2"], "phi": "s1"})
    for x in ([1.0, 0.7, 0.3], [1.0, 1.0, 0.0]):
        defect = mp.dependence_defect(sys_def, [1e100 * c for c in x])
        assert 0.0 < defect == pytest.approx(mp.dependence_defect(sys_def, x), rel=1e-12)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_linear_dependence_where_the_gram_product_overflows(rigid, recwarn):
    # ||g||^2 ||u||^2 overflows at this point, where the two gradients point in different directions
    x = 1e100 * np.array([1.0, 0.7, 0.3])
    g, u = rigid.hamiltonian.gradient_at(x), mp.compose_entropy(rigid).gradient_at(x)
    report = mp.linear_dependence(g, u)
    assert not report.dependent and report.lam is None
    assert report.normalized_defect == pytest.approx(mp.linear_dependence(g / 1e100, u / 1e300).normalized_defect)
    v = np.array([1e200, -2e200, 5e199])
    report = mp.linear_dependence(v, 3.0 * v)
    assert report.dependent and report.lam == pytest.approx(1 / 3) and report.normalized_defect <= 1e-15
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("u, v", [
    ([math.inf, 0.0], [1.0, 1.0]),
    ([1.0, 1.0], [0.0, -math.inf]),
])
def test_linear_dependence_of_a_vector_that_is_not_finite(u, v):
    # the sup-norm rescale has no finite scale: no defect is measured and nothing is dependent
    report = mp.linear_dependence(u, v)
    assert not report.dependent and report.lam is None
    assert math.isnan(report.gram_defect) and math.isnan(report.normalized_defect)


def test_linear_dependence_of_a_vector_with_a_nan_component():
    report = mp.linear_dependence([math.nan, 0.0], [1.0, 1.0])
    assert not report.dependent and report.lam is None
    assert math.isnan(report.gram_defect) and math.isnan(report.normalized_defect)
    assert mp.linear_dependence([math.nan, 0.0], [0.0, 0.0]).dependent  # a zero vector is dependent on any other


def test_dependence_defect_where_a_gradient_component_is_nan():
    # grad H = (nan, -inf, 2) at this point: 4 x1^3 - 3 x1^2 x2 is inf - inf
    sys_def = mp.SystemDefinition(
        poisson=mp.PoissonStructure.from_strings([["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]]),
        hamiltonian=mp.ScalarField.from_string("x1*x1*x1*x1 - x1*x1*x1*x2 + x3*x3", 3),
        casimirs=[mp.ScalarField.from_string("(x1*x1 + x2*x2 + x3*x3)/2", 3)],
        phi=mp.parse("s1", 1, "s"),
    )
    assert math.isnan(mp.dependence_defect(sys_def, [1e160, 1e160, 1.0]))


def test_linear_dependence_argument_checks():
    with pytest.raises(ValueError):
        mp.linear_dependence([1.0], [1.0, 2.0])
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            mp.linear_dependence([1.0], [1.0], tol=tol)


# ---------------------------------------------------------------------------
# dependence defect

def test_defect_zero_on_axes(rigid):
    assert mp.dependence_defect(rigid, [1.0, 0.0, 0.0]) == 0.0
    assert mp.dependence_defect(rigid, [0.0, 0.0, 1.7]) == 0.0


def test_defect_hand_value(rigid):
    assert mp.dependence_defect(rigid, [1.0, 1.0, 0.0]) == pytest.approx(1 / 26, rel=1e-12)


# ---------------------------------------------------------------------------
# classify_equilibrium

def test_classify_axis_point(rigid):
    report = mp.classify_equilibrium(rigid, [1.0, 0.0, 0.0])
    assert report.is_xi_pi_equilibrium and report.is_xi_equilibrium
    assert report.dependence.dependent


def test_classify_generic_point(rigid):
    report = mp.classify_equilibrium(rigid, [1.0, 1.0, 1.0])
    assert not report.is_xi_pi_equilibrium and not report.is_xi_equilibrium
    assert report.xi_pi_norm == pytest.approx(2 / 3, rel=1e-15)


def test_classify_origin(rigid):
    report = mp.classify_equilibrium(rigid, [0.0, 0.0, 0.0])
    assert report.is_xi_pi_equilibrium and report.is_xi_equilibrium
    assert report.dependence.dependent  # both gradients vanish


def test_full_equilibrium_that_is_not_conservative_raises(rigid, monkeypatch):
    monkeypatch.setattr(mp.dynamics, "conservative_field", lambda sys_def, x: np.ones(3))
    with pytest.raises(mp.EquilibriumConsistencyError, match="is not a conservative one"):
        mp.classify_equilibrium(rigid, [1.0, 0.0, 0.0])


def test_classify_tolerance_check(rigid):
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            mp.classify_equilibrium(rigid, [1.0, 0.0, 0.0], tol=tol)


# ---------------------------------------------------------------------------
# non-3D dimensions exercise the code generator's edge cases

def test_one_dimensional_system():
    # in one dimension the dissipation matrix is identically zero
    sys_def = mp.SystemDefinition(
        poisson=mp.PoissonStructure.from_strings([["0"]]),
        hamiltonian=mp.ScalarField.from_string("x1^2", 1),
        casimirs=[mp.ScalarField.from_string("x1", 1)],
        phi=mp.parse("s1", 1, "s"),
        verification=mp.VerificationPolicy(samples=50),
    )
    out = mp.metriplectic_field(sys_def, [2.0])
    assert out.shape == (1,)
    assert out[0] == 0.0
    assert mp.dependence_defect(sys_def, [2.0]) == 0.0


def test_two_dimensional_symplectic_system():
    # invertible bracket: only constant Casimirs, so dissipation is inert
    sys_def = mp.SystemDefinition(
        poisson=mp.PoissonStructure.from_strings([["0", "1"], ["-1", "0"]]),
        hamiltonian=mp.ScalarField.from_string("(x1^2 + x2^2)/2", 2),
        casimirs=[mp.ScalarField.from_string("3", 2)],
        phi=mp.parse("s1^2", 1, "s"),
        verification=mp.VerificationPolicy(samples=50),
    )
    rng = np.random.default_rng(25)
    for _ in range(20):
        x = rng.uniform(-2, 2, 2)
        xi = mp.metriplectic_field(sys_def, x)
        assert xi == pytest.approx([x[1], -x[0]], rel=1e-15)


# ---------------------------------------------------------------------------
# the compiled field against its pieces

ROOT = Path(__file__).resolve().parent.parent
SHIPPED_CONFIGS = [ROOT / "configs" / "rigid_body.json", ROOT / "configs" / "rigid_body_x3_axis.json",
                   ROOT / "perfbench" / "configs" / "e3.json"]
TRANSCENDENTAL_PHI = {
    1: "sin(s1) + exp(s1/3)",
    2: "sin(s1)*exp(s2/3) + ln(2 + cos(s2))",
    3: "sin(s1) + exp(s2/3)*s3 + sqrt(1 + s3^2)",
}


def shipped_systems():
    return [mp.rigid_body_system(), mp.rigid_body_system(mp.RigidBodyParams(I1=5, I2=3, I3=2, M0=2))] + [
        mp.load_system_file(path) for path in SHIPPED_CONFIGS
    ]


def null_coordinate_systems(seed, count):
    """Random systems whose constant Pi acts on x1, x2 only.

    x3 and x4 are null coordinates of Pi, so any function of them is a
    Casimir; the Casimirs are random trees in them, k = 1 to 3, H is a
    random tree in all four coordinates and phi is transcendental.
    """
    rng = np.random.default_rng(seed)
    zero, a = ex.Num(0.0), ex.Num(float(rng.uniform(0.5, 2.0)))
    poisson = mp.PoissonStructure(4, [[zero, a, zero, zero], [ex.neg(a), zero, zero, zero],
                                      [zero] * 4, [zero] * 4])
    systems = []
    while len(systems) < count:
        k = len(systems) % 3 + 1
        casimirs = [
            mp.ScalarField(4, ex.substitute(random_tree(rng, 2, 3), {1: ex.Var(3), 2: ex.Var(4)}))
            for _ in range(k)
        ]
        sys_def = mp.SystemDefinition(
            poisson, mp.ScalarField(4, random_tree(rng, 4, 3)), casimirs,
            ex.parse(TRANSCENDENTAL_PHI[k], k, "s"), verification=mp.VerificationPolicy(samples=0),
        )
        mp.compose_entropy(sys_def)
        systems.append(sys_def)
    return systems


def assembled_field(sys_def, x):
    """``xi_pi + (g.u) g - (g.g) u`` from the separately compiled pieces, in the kernel's order."""
    xi_pi = mp.conservative_field(sys_def, x).tolist()
    g = sys_def.hamiltonian.gradient_at(x).tolist()
    u = mp.compose_entropy(sys_def).gradient_at(x).tolist()
    hu, hh = g[0] * u[0], g[0] * g[0]
    for i in range(1, len(g)):
        hu = hu + g[i] * u[i]
        hh = hh + g[i] * g[i]
    return [xi_pi[i] + hu * g[i] - hh * u[i] for i in range(len(g))]


def test_metriplectic_field_is_its_pieces_bit_for_bit():
    rng = np.random.default_rng(31)
    compared = 0
    for sys_def in shipped_systems() + null_coordinate_systems(32, 45):
        assert sys_def.k > 0
        for _ in range(20):
            x = rng.uniform(-2, 2, sys_def.n)
            try:
                got = mp.metriplectic_field(sys_def, x)
            except ex.EvaluationError:
                continue
            expected = np.array(assembled_field(sys_def, x))
            assert got.tobytes() == expected.tobytes(), (sys_def.name, x.tolist())
            compared += 1
    assert compared > 500


def test_compose_entropy_is_the_chain_rule_term_by_term():
    for sys_def in shipped_systems() + null_coordinate_systems(33, 15):
        entropy = mp.compose_entropy(sys_def)
        values = {l + 1: c.value for l, c in enumerate(sys_def.casimirs)}
        partials = [ex.substitute(ex.differentiate(sys_def.phi, l + 1), values) for l in range(sys_def.k)]
        assert entropy.value == ex.substitute(sys_def.phi, values)
        for i, u in enumerate(entropy.gradient):
            total = ex.Num(0.0)
            for l, c in enumerate(sys_def.casimirs):
                total = ex.add(total, ex.mul(partials[l], c.gradient[i]))
            assert repr(u) == repr(total)


def test_compose_entropy_gradient_is_the_derivative_of_its_value():
    # the chain rule against differentiate(substitute(phi, C), i), the other exact route to grad phi(C)
    rng = np.random.default_rng(34)
    compared = 0
    for sys_def in shipped_systems() + null_coordinate_systems(35, 30):
        entropy = mp.compose_entropy(sys_def)
        direct = mp.ScalarField(sys_def.n, entropy.value)
        for _ in range(10):
            x = rng.uniform(-2, 2, sys_def.n)
            try:
                chain = entropy.gradient_at(x)
            except ex.EvaluationError:
                with pytest.raises(ex.EvaluationError):
                    direct.gradient_at(x)
                continue
            for a, b in zip(chain, direct.gradient_at(x)):
                assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b)), (sys_def.name, x.tolist())
            compared += 1
    assert compared > 200


def test_zero_casimir_derivatives_emit_no_terms():
    # e(3)'s C1 does not depend on x1, so u1 is the C2 term alone: (d phi / d s2)(C) * x4
    e3 = mp.load_system_file(SHIPPED_CONFIGS[2])
    values = {l + 1: c.value for l, c in enumerate(e3.casimirs)}
    assert mp.compose_entropy(e3).gradient[0] == ex.Mul(ex.substitute(ex.differentiate(e3.phi, 2), values), ex.Var(4))
    for sys_def in shipped_systems():
        lines = dynamics._generate(sys_def, "metriplectic")
        assert not any("*0.0" in line for line in lines if line.startswith(("u", "t")))
