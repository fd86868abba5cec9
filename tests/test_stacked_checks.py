"""The stacked sampled checks against their per-point forms, bit for bit.

``tests/reference_checks.py`` evaluates every point on its own small
arrays; the package evaluates the kernels row by row and reduces the whole
sample at once.  On the five systems of the identity runs, a rigid body
whose grad H is infinite and random constant-Pi systems (drawn as
``test_identities`` draws them), both must give the same reports, residual
bits included (nan equal to nan), or raise the same exception with the
same message.  Samples mix ordinary points,
points where a kernel raises, points whose products overflow, and repeated
and mirrored points, so that maxima tie.
"""

from pathlib import Path

import numpy as np
import pytest

import metriplectic as mp
import reference_checks as ref
from test_identities import N, systems

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
UNCHECKED = mp.VerificationPolicy(samples=0)
IDENTITY_SYSTEMS = [
    mp.rigid_body_system(verification=UNCHECKED),
    mp.rigid_body_system(mp.RigidBodyParams(I1=5.0, I2=3.0, I3=2.0, M0=2.0), UNCHECKED),
    mp.load_system_file(ROOT / "configs" / "rigid_body.json", UNCHECKED),
    mp.load_system_file(ROOT / "configs" / "rigid_body_x3_axis.json", UNCHECKED),
    mp.load_system_file(ROOT / "perfbench" / "configs" / "e3.json", UNCHECKED),
]
# the rigid body with dH/dx1 = 1e300*1e300 = inf: G is not defined anywhere, and grad phi(C) is finite
INFINITE_GRADIENT = mp.SystemDefinition(
    IDENTITY_SYSTEMS[0].poisson, mp.ScalarField.from_string("x1*1e300*1e300 + x2^2/4 + x3^2/2", 3),
    IDENTITY_SYSTEMS[0].casimirs, IDENTITY_SYSTEMS[0].phi, verification=UNCHECKED,
)
STACKED = settings(derandomize=True, database=None, deadline=None, max_examples=40,
                   suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])

# ordinary points, and points scaled to where squares, products or phi(C) underflow or overflow
SCALES = st.sampled_from([1.0, 1.0, 1.0, 1e-150, 1e100, 1e154, 1e160, 1e200])


def scaled_points(n):
    return st.builds(lambda scale, point: [scale * v for v in point], SCALES,
                     st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))


@st.composite
def samples(draw, n):
    """A sample with repeated and mirrored points among ordinary and overflowing ones."""
    points = draw(st.lists(scaled_points(n), min_size=1, max_size=6))
    for index, sign in draw(st.lists(st.tuples(st.integers(0, len(points) - 1), st.sampled_from([1.0, -1.0])),
                                     max_size=4)):
        points.insert(draw(st.integers(0, len(points))), [sign * v for v in points[index]])
    return np.array(points)


def bits(value):
    return (type(value).__name__, "nan" if value != value else float(value).hex())


def point_bits(point):
    return None if point is None else [float(v).hex() for v in point]


def outcome(check, *args):
    """What ``check`` gives, in a form where equal means equal bit for bit."""
    try:
        result = check(*args)
    except Exception as exc:
        return ("raises", type(exc), str(exc))
    if isinstance(result, list):
        return [(bits(r.max_residual), type(r.passed), r.passed, point_bits(r.worst_point)) for r in result]
    tol = args[-1]
    return (bits(result.m1_max), bits(result.m2_max), bits(result.m3_max_positive), type(result.passed),
            result.passed, result.failed_conditions(tol),
            {name: point_bits(p) for name, p in result.worst_points.items()})


def assert_stacked_matches_per_point(sys_def, points, tol):
    with np.errstate(all="ignore"):
        expected = (outcome(ref.verify_casimir, sys_def.poisson, sys_def.casimirs, points, tol),
                    outcome(ref.verify_metriplectic_conditions, sys_def, points, tol))
    got = (outcome(mp.verify_casimir, sys_def.poisson, sys_def.casimirs, points, tol),
           outcome(mp.verify_metriplectic_conditions, sys_def, points, tol))
    assert got == expected


@STACKED
@given(st.data(), st.sampled_from(range(len(IDENTITY_SYSTEMS) + 1)), st.sampled_from([1e-10, 1.0]))
def test_stacked_checks_match_the_per_point_checks_on_the_identity_systems(data, which, tol):
    sys_def = (IDENTITY_SYSTEMS + [INFINITE_GRADIENT])[which]
    assert_stacked_matches_per_point(sys_def, data.draw(samples(sys_def.n)), tol)


@STACKED
@given(systems(), samples(N), st.sampled_from([1e-10, 1.0]))
def test_stacked_checks_match_the_per_point_checks_on_random_systems(sys_def, points, tol):
    assert_stacked_matches_per_point(sys_def, points, tol)


@pytest.mark.parametrize("sys_def", IDENTITY_SYSTEMS + [INFINITE_GRADIENT],
                         ids=["rigid", "rigid-params", "rigid-config", "rigid-x3-config", "e3", "infinite-grad-h"])
def test_stacked_checks_match_the_per_point_checks_on_box_samples(sys_def):
    points = mp.sample_box(sys_def.n, (-2.0, 2.0), 20, seed=3)
    for scale in (1.0, 1e-150, 1e100, 1e154, 1e160):
        sample = scale * np.concatenate([points, -points[::3], points[:2]])  # mirrored and repeated points tie
        assert_stacked_matches_per_point(sys_def, sample, 1e-10)


@pytest.mark.parametrize("n", range(1, 8))
def test_stacked_checks_match_the_per_point_checks_in_every_small_dimension(n):
    # constant Pi, and H and two Casimir candidates written with products, which overflow to inf rather than raise
    rng = np.random.default_rng(n)
    a = rng.integers(-3, 4, (n, n))
    terms = lambda c: " + ".join(f"{c[i]}*x{i + 1}*x{(i + 1) % n + 1}" for i in range(n))
    sys_def = mp.load_system({
        "dimension": n, "poisson": [[str(a[i, j] - a[j, i]) for j in range(n)] for i in range(n)],
        "hamiltonian": terms(rng.integers(1, 4, n)), "casimirs": [terms(rng.integers(-2, 3, n)), f"x1*x{n}"],
        "phi": "s1*s2 + s1",
    }, UNCHECKED)
    points = rng.uniform(-2.0, 2.0, (20, n))
    for scale in (1.0, 1e100, 1e154, 1e160, 1e200):
        assert_stacked_matches_per_point(sys_def, scale * np.concatenate([points, -points[::3]]), 1e-10)
