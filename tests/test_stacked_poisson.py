"""``poisson_matrix`` on a stack of points against one call per point, bit for bit.

A stack of shape (M, n) gives the (M, n, n) stack of the per-point
matrices, or raises what the first failing per-point call raises: same
type, same message, so the same point.  ``verify_casimir``, which makes one
stacked call per sample, keeps the per-point order of its failures too: at
each point Pi, then each grad C_l, before the next point.
"""

import itertools
import re
import warnings

import numpy as np
import pytest

import metriplectic as mp
import reference_checks as ref
import test_stacked_checks as checks
from test_stacked_checks import IDENTITY_SYSTEMS

SCALES = (1.0, 1e-150, 1e100, 1e154, 1e160)


def constant_structure(rng, n, defect=0.0):
    """A random constant Pi, antisymmetric unless ``defect`` is added to its (0, n-1) entry."""
    a = rng.uniform(-3.0, 3.0, (n, n))
    a = a - a.T
    a[0, n - 1] += defect
    return mp.PoissonStructure.from_strings([[repr(float(v)) for v in row] for row in a])


RNG = np.random.default_rng(26)
STRUCTURES = (
    [(f"identity-{i}", sys_def.poisson) for i, sys_def in enumerate(IDENTITY_SYSTEMS)]
    + [(f"constant-{n}", constant_structure(RNG, n)) for n in range(1, 8)]
    + [(f"constant-defect-{n}", constant_structure(RNG, n, 1e-11)) for n in range(2, 5)]
    # x1*x1*x1 overflows to inf against its mirror's -inf where |x1| > 6e102, and the defect is nan
    + [("overflow", mp.PoissonStructure.from_strings([["0", "x1*x1*x1"], ["-(x1*x1*x1)", "0"]]))]
)

# Pi_12 = sqrt(x1) raises where x1 < 0 and Pi_21 = x2 - sqrt(x1) breaks antisymmetry where x2 != 0;
# grad ln(x1 - 2) divides by zero at x1 = 2
FAILING = mp.PoissonStructure.from_strings([["0", "sqrt(x1)"], ["x2 - sqrt(x1)", "0"]])
FAILING_CASIMIR = mp.ScalarField.from_string("ln(x1 - 2)", 2)
POINTS = {"sound": [3.0, 0.0], "antisymmetry": [3.0, 1.0], "pi-raises": [-1.0, 0.0], "gradient-raises": [2.0, 0.0]}


def outcome(call):
    """What ``call()`` gives, in a form where equal means equal bit for bit."""
    try:
        result = call()
    except Exception as exc:
        return ("raises", type(exc), str(exc))
    return ("value", result.shape, result.dtype, result.tobytes())


def per_point(structure, points):
    return outcome(lambda: np.array([mp.poisson_matrix(structure, p) for p in points]))


def stacked(structure, points):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = outcome(lambda: mp.poisson_matrix(structure, np.asarray(points)))
    assert caught == []  # no RuntimeWarning, whatever overflows
    return result


def sample(n, seed):
    points = np.random.default_rng(seed).uniform(-2.0, 2.0, (20, n))
    return np.concatenate([points, -points[::3], points[:2]])


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name, structure", STRUCTURES, ids=[name for name, _ in STRUCTURES])
def test_a_stack_matches_the_per_point_calls(name, structure, scale):
    points = scale * sample(structure.n, len(name))
    assert stacked(structure, points) == per_point(structure, points)


SOUND = [(name, structure) for name, structure in STRUCTURES if "defect" not in name]


@pytest.mark.parametrize("name, structure", SOUND, ids=[name for name, _ in SOUND])
def test_one_point_gives_its_row_of_the_stack(name, structure):
    points = sample(structure.n, 1)
    stack = mp.poisson_matrix(structure, points)
    assert stack.shape == (len(points), structure.n, structure.n)
    for point, row in zip(points, stack):
        single = mp.poisson_matrix(structure, point)
        assert single.shape == (structure.n, structure.n) and single.tobytes() == row.tobytes()
        assert mp.poisson_matrix(structure, list(point)).tobytes() == row.tobytes()
    assert mp.poisson_matrix(structure, points[:1]).shape == (1, structure.n, structure.n)
    assert mp.poisson_matrix(structure, points.tolist()).tobytes() == stack.tobytes()


@pytest.mark.parametrize("sequence", list(itertools.product(POINTS, repeat=3)), ids="/".join)
def test_the_first_failure_in_point_order_is_raised(sequence):
    # an antisymmetry failure at point i comes before an evaluation failure at a later point j, and vice versa
    points = [POINTS[name] for name in sequence]
    expected = per_point(FAILING, points)
    assert stacked(FAILING, points) == expected
    failures = [name for name in sequence if name in ("antisymmetry", "pi-raises")]
    if failures:
        kind = mp.AntisymmetryError if failures[0] == "antisymmetry" else mp.EvaluationError
        assert expected[:2] == ("raises", kind)
        assert f"at x={POINTS[failures[0]]}" in expected[2]
    for casimirs in ([], [FAILING_CASIMIR]):  # and a gradient failure at i comes before a Pi failure at j
        assert (checks.outcome(mp.verify_casimir, FAILING, casimirs, points, 1e-10)
                == checks.outcome(ref.verify_casimir, FAILING, casimirs, points, 1e-10))


@pytest.mark.parametrize("width", [2, 4])
def test_a_point_of_the_wrong_width_is_refused_as_before(width):
    structure = IDENTITY_SYSTEMS[0].poisson
    message = f"state has shape ({width},), expected (3,)"
    with pytest.raises(ValueError, match=re.escape(message)):
        mp.poisson_matrix(structure, [1.0] * width)
    with pytest.raises(ValueError, match=re.escape(message)):  # verify_casimir names the first point's shape
        mp.verify_casimir(structure, IDENTITY_SYSTEMS[0].casimirs, [[1.0] * width] * 4, 1e-10)
    with pytest.raises(ValueError, match=re.escape(f"state has shape (4, {width}), expected (3,)")):
        mp.poisson_matrix(structure, [[1.0] * width] * 4)
    with pytest.raises(ValueError, match=re.escape("state has shape (), expected (3,)")):
        mp.verify_casimir(structure, IDENTITY_SYSTEMS[0].casimirs, [1.0, 2.0, 3.0], 1e-10)
