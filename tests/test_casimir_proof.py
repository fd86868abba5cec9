"""The exact load-time proof of antisymmetry and Pi grad C = 0, and where a load samples instead."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import metriplectic as mp
from metriplectic import expressions as ex
from metriplectic import geometry
from expr_gen import random_polynomial_tree
from test_compiled_path import recording_compiles
from test_expressions import to_sympy
from test_geometry import EXP_IDENTITY_CASIMIR, NAN_CASIMIR, count_poisson_calls, rigid_poisson

RIGID_H = "x1^2/6 + x2^2/4 + x3^2/2"
SCALED_CASIMIR = "1e6*(x1^2 + x2^2 + x3^2)/2"
NEAR_CASIMIR = "(x1^2 + x2^2 + x3^2)/2 + 1e-14*x1^7"


def rigid_with(casimir: str) -> mp.SystemDefinition:
    """The rigid body's Pi and H with one declared Casimir, under the default 1000-point policy."""
    return mp.SystemDefinition(
        rigid_poisson(), mp.ScalarField.from_string(RIGID_H, 3), [mp.ScalarField.from_string(casimir, 3)],
        ex.parse("s1", 1, "s"),
    )


def proved(casimir: str, box=(-2.0, 2.0)) -> bool:
    return geometry._proved(rigid_poisson(), [mp.ScalarField.from_string(casimir, 3)], box)


def sampled_residual(casimir: str) -> float:
    points = mp.sample_box(3, (-2.0, 2.0), 1000, 0)
    return mp.verify_casimir(rigid_poisson(), [mp.ScalarField.from_string(casimir, 3)], points, 1e-10)[0].max_residual


# ---------------------------------------------------------------------------
# the normal form

def test_the_normal_form_is_sympy_expand_and_its_bound_holds_on_the_box():
    # one memo for every tree, each dropped after its check: a memo that did not keep its
    # nodes would meet a reused id and answer with a stale form (its count of pairs is reset)
    sp = pytest.importorskip("sympy")
    rng = np.random.default_rng(43)
    symbols, memo = sp.symbols("x1:4"), {}
    for _ in range(150):
        tree = random_polynomial_tree(rng, 3, int(rng.integers(1, 6)))
        memo.pop("pairs", None)
        form, bound = geometry._form(tree, 3, 2.0, memo)
        expected = sp.Poly(sp.expand(to_sympy(sp, tree)), *symbols).as_dict()
        assert {m: sp.Rational(int(c.numerator), int(c.denominator)) for m, c in form.items()} == expected, tree
        assert all(isinstance(c, (int, Fraction)) and c != 0 for c in form.values())
        for point in rng.uniform(-2.0, 2.0, (5, 3)):
            assert abs(ex.evaluate(tree, point)) <= bound * (1 + 1e-12), tree


@pytest.mark.parametrize("text", ["sin(x1)", "x1/x2", "x1/0", "x1^-1", "x1^0.5", "x1^65", "x1^x2", "2^x1"])
def test_a_tree_outside_the_polynomials_proves_nothing(text):
    with pytest.raises(geometry._Unproved):
        geometry._form(ex.parse(text, 3), 3, 2.0, {})


def test_the_bound_follows_the_box_and_overflows_to_inf():
    form = lambda text, bound: geometry._form(ex.parse(text, 2), 2, bound, {})[1]
    assert form("3*x1 - x2/4 + x1^0", 2.0) == 3 * 2.0 + 2.0 / 4 + 1.0
    assert form("-x1^3", 1e100) == 1e300 and form("x1^4", 1e100) == np.inf  # where x1**4 raises


# ---------------------------------------------------------------------------
# the four edge loads

def test_a_true_casimir_that_sampling_rejects_now_loads():
    """Declared change: the rigid-body Casimir times 1e6 is proved, where its sample fails at 5.5e-10 > 1e-10."""
    assert sampled_residual(SCALED_CASIMIR) == pytest.approx(5.546e-10, rel=1e-3)
    assert proved(SCALED_CASIMIR)
    assert rigid_with(SCALED_CASIMIR).k == 1


def test_the_near_casimir_is_not_proved_and_still_loads_by_sampling(monkeypatch):
    """The sampling blind spot stays: 1e-14 x1^7 breaks Pi grad C = 0 by at most 7.4e-12 on the box.

    The proof sees the nonzero remainder, but a failed proof only falls back to the sample, whose
    tolerance 1e-10 passes it: a load's verdict is never changed by a proof that fails.
    """
    assert not proved(NEAR_CASIMIR)
    calls = count_poisson_calls(monkeypatch)
    assert rigid_with(NEAR_CASIMIR).k == 1 and len(calls) == 1
    assert 0 < sampled_residual(NEAR_CASIMIR) < 1e-11


def test_a_casimir_only_through_exp_is_not_proved_and_loads_by_sampling(monkeypatch):
    assert not proved(EXP_IDENTITY_CASIMIR)
    calls = count_poisson_calls(monkeypatch)
    assert rigid_with(EXP_IDENTITY_CASIMIR).k == 1 and len(calls) == 1


@pytest.mark.parametrize("casimir, expected", [
    ("(x1^2 + x2^2 + x3^2)/2", Counter()),
    (EXP_IDENTITY_CASIMIR, Counter(matrix=1, gradient=1)),
], ids=["proved", "exp-identity-sampled"])
def test_a_load_compiles_pi_and_the_casimir_gradients_only_when_it_samples(monkeypatch, casimir, expected):
    poisson, fields = rigid_poisson(), [mp.ScalarField.from_string(text, 3) for text in ("x1^2", casimir)]
    compiled = recording_compiles(monkeypatch)
    mp.SystemDefinition(poisson, fields[0], fields[1:], ex.parse("s1", 1, "s"))
    assert Counter(compiled) == expected


def test_the_nan_casimir_is_not_proved_and_still_refused():
    # 1e300*1e300 bounds to inf, and the zero entries of Pi times inf to nan: the guard refuses the proof
    assert not proved(NAN_CASIMIR)
    with pytest.raises(mp.CasimirError, match="residual nan"):
        rigid_with(NAN_CASIMIR)


@pytest.mark.parametrize("rows, antisymmetric", [
    ([["0", "x1*x2/3"], ["-(x2*x1)/3", "0"]], True),
    ([["0", "x1"], ["x1", "0"]], False),
    ([["x1 - x1", "x2"], ["-x2", "0"]], True),
    ([["x1", "0"], ["0", "0"]], False),  # the diagonal is its own mirror
])
def test_antisymmetry_is_proved_for_every_entry_and_its_mirror(rows, antisymmetric):
    assert geometry._proved(mp.PoissonStructure.from_strings(rows), [], (-2.0, 2.0)) is antisymmetric


def test_a_proof_needs_a_box_whose_floats_stay_finite():
    casimir = "(x1^2 + x2^2 + x3^2)/2"
    assert proved(casimir, (-1e149, 1e149)) and not proved(casimir, (-1e151, 1e151))  # 2 x_i x_j near 1e300


def test_a_proof_past_its_budget_of_term_pairs_is_not_proved():
    # (q + 1)^(k-1) in 3 variables has (k+2 choose 3) terms, built k-1 times for each gradient component
    assert proved("((x1^2 + x2^2 + x3^2)/2 + 1)^10", (-1.0, 1.0))
    assert not proved("((x1^2 + x2^2 + x3^2)/2 + 1)^30", (-1.0, 1.0))


# ---------------------------------------------------------------------------
# generated systems

def cross_systems(seed: int, count: int):
    """Random (Pi, C, box) with Pi = f [grad C]_x, so Pi grad C = f grad C x grad C = 0 exactly.

    f and C are random polynomial trees; the boxes reach 1e200, where many of the samples
    they would take overflow.
    """
    rng = np.random.default_rng(seed)
    zero = ex.Num(0.0)
    for _ in range(count):
        casimir = mp.ScalarField(3, random_polynomial_tree(rng, 3, int(rng.integers(2, 5))))
        f = random_polynomial_tree(rng, 3, int(rng.integers(0, 3)))
        g1, g2, g3 = (ex.Mul(f, g) for g in casimir.gradient)
        entries = [[zero, ex.Neg(g3), g2], [g3, zero, ex.Neg(g1)], [ex.Neg(g2), g1, zero]]
        half = float(10.0 ** rng.choice([0.3, 50, 100, 150, 200]))
        yield mp.PoissonStructure(3, entries), casimir, (-half, half)


def test_every_proved_generated_system_samples_finite_residuals():
    proved_wide = refused_wide = 0
    for poisson, casimir, box in cross_systems(47, 80):
        if not geometry._proved(poisson, [casimir], box):
            refused_wide += box[1] > 1e3
            continue
        proved_wide += box[1] > 1e3
        report = mp.verify_casimir(poisson, [casimir], mp.sample_box(3, box, 1000, 0), tol=1.0)[0]
        assert np.isfinite(report.max_residual), (ex.to_string(casimir.value), box)
    assert proved_wide > 5 and refused_wide > 5  # the guard decides both ways
