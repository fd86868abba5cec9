"""Property tests of the structural identities G grad H = 0 and u^T G u <= 0.

Systems are drawn by hypothesis: a constant Pi acting on x1, x2 only, a
random Hamiltonian tree in x1..x4 and a random Casimir tree in the null
coordinates x3, x4, so u = grad phi(C) is a random gradient too.  The
identities must hold at every point to rounding, whatever H and C are.
The worst-point rule of the sampled checks is tested against the running
rule it replaced.
"""

import math
import sys

import numpy as np
import pytest

import metriplectic as mp
from metriplectic import expressions as ex
from metriplectic import geometry
from oracles import apply_dissipation

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

EPS = sys.float_info.epsilon
N = 4
PHI = {"linear": "s1", "transcendental": "sin(s1) + exp(s1/3)"}

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50,
                    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])


def trees(first_var, last_var):
    leaves = st.one_of(st.integers(-3, 3).map(lambda v: ex.Num(float(v))),
                       st.integers(first_var, last_var).map(ex.Var))
    return st.recursive(leaves, lambda sub: st.one_of(
        sub.map(ex.Neg),
        st.builds(ex.Fun, st.sampled_from(("sin", "cos", "exp", "ln", "sqrt")), sub),
        st.builds(ex.Pow, sub, st.sampled_from((2.0, 3.0, -1.0, 0.5)).map(ex.Num)),
        st.builds(lambda ctor, l, r: ctor(l, r), st.sampled_from((ex.Add, ex.Sub, ex.Mul, ex.Div)), sub, sub),
    ), max_leaves=8)


def constant_pi():
    zero, a = ex.Num(0.0), ex.Num(1.5)
    return mp.PoissonStructure(N, [[zero, a, zero, zero], [ex.neg(a), zero, zero, zero], [zero] * N, [zero] * N])


@st.composite
def systems(draw):
    hamiltonian, casimir = draw(trees(1, N)), draw(trees(3, N))
    sys_def = mp.SystemDefinition(
        constant_pi(), mp.ScalarField(N, hamiltonian),
        [mp.ScalarField(N, casimir)], ex.parse(PHI[draw(st.sampled_from(sorted(PHI)))], 1, "s"),
        verification=mp.VerificationPolicy(samples=0),
    )
    mp.compose_entropy(sys_def)
    return sys_def


@PROPERTY
@given(systems(), st.lists(st.lists(st.floats(-2.0, 2.0), min_size=N, max_size=N), min_size=1, max_size=5))
def test_identities_hold_at_every_point(sys_def, points):
    checked = 0
    for point in points:
        try:
            g = sys_def.hamiltonian.gradient_at(point)
            u = mp.compose_entropy(sys_def).gradient_at(point)
            xi = mp.metriplectic_field(sys_def, point)
        except ex.EvaluationError:
            continue  # off the domain of a random field
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(u)) and max(np.max(np.abs(g)), np.max(np.abs(u))) < 1e6):
            continue
        checked += 1
        G = mp.build_dissipation_matrix(g).matrix
        # G grad H = 0 to rounding, and exactly in the matrix-free form
        assert np.max(np.abs(G @ g)) <= 4 * N * EPS * float(g @ g) * float(np.sum(np.abs(g)))
        assert np.all(apply_dissipation(g, g) == 0.0)
        # u^T G u <= 0: exactly as a sum of negated squares, to rounding as a dense product
        # and as the rate u . xi at which the full field changes phi(C)
        bound = 8 * N * EPS * float(g @ g) * float(u @ u)
        assert mp.entropy_production(g, u) <= 0.0
        assert float(u @ G @ u) <= bound
        assert float(u @ xi) <= bound
    assume(checked > 0)


def replaces(value, worst, ties=False):
    """The running worst-point rule that ``geometry._worst`` folds into one array pass, kept as its oracle."""
    if worst != worst or worst == math.inf:
        return False
    return not (value < worst if ties else value <= worst)


RESIDUALS = st.lists(st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 2.0]),
                               st.floats(-3.0, 3.0)), min_size=1, max_size=12)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(values=RESIDUALS, ties=st.booleans())
def test_worst_agrees_with_a_fold_of_the_running_rule(values, ties):
    index = 0
    for i, value in enumerate(values):
        if replaces(value, values[index], ties):
            index = i
    assert geometry._worst(values, ties) == index
