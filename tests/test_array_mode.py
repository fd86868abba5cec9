"""Array mode: a sampled check calls each kernel once on the sample's columns, else runs its scalar kernel.

The array kernel is the scalar kernel's code rebound to numpy's functions.
Where it runs, it must give the scalar kernel's values: bit for bit where a
kernel does only + - * / and negation (Pi, grad H and grad C_l of the five
systems of the identity runs), and to within rounding where it takes a
``**`` or a transcendental function, because numpy's are not libm's; the
five systems' reports keep their bits.  Where the scalar kernel raises, the
array call must not return values, so the scalar code reports the error
with its type, message and point.
"""

import dis
import warnings

import numpy as np
import pytest

import metriplectic as mp
from expr_gen import random_tree
from metriplectic import expressions as ex
from metriplectic.geometry import _ARRAY_ENV, _array_kernel, _compile, _on_columns
from test_stacked_checks import IDENTITY_SYSTEMS, assert_stacked_matches_per_point

NAMES = ["rigid", "rigid-params", "rigid-config", "rigid-x3-config", "e3"]


def scalar_rows(kernel, xs):
    return np.array([kernel(p) for p in xs.tolist()], dtype=float)


def on_columns(kernel, xs):
    """The values (M, m) of one array ``kernel`` from ``_on_columns``, failing on any numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = _on_columns([kernel], xs)
    return None if values is None else values[:, 0]


def correctly_rounded(kernel):
    """Whether ``kernel`` does only + - * / and negation, which numpy rounds as floats do."""
    ops = {op.argrepr for op in dis.get_instructions(kernel) if op.opname == "BINARY_OP"}
    return "**" not in ops and not set(kernel.__code__.co_names) & set(_ARRAY_ENV)


def assert_agree(values, expected, exact):
    if exact:
        assert values.tobytes() == expected.tobytes()
    else:  # numpy's ** and transcendental functions round differently from libm's
        assert np.all(np.abs(values - expected) <= 1e-12 * (1.0 + np.abs(expected)))


@pytest.mark.parametrize("sys_def", IDENTITY_SYSTEMS, ids=NAMES)
def test_array_kernels_agree_with_the_scalar_kernels_on_the_identity_systems(sys_def):
    # verify's sample (seed 42, box [-2, 2]) and certify-style boxes [-U(1.5, 2.5), U(1.5, 2.5)] of 500 points
    rng = np.random.default_rng(sys_def.n)
    boxes = [((-2.0, 2.0), 1000, 42)] + [((-rng.uniform(1.5, 2.5), rng.uniform(1.5, 2.5)), 500, s) for s in range(3)]
    fields = [sys_def.hamiltonian, *sys_def.casimirs, mp.compose_entropy(sys_def)]
    kernels = [(sys_def.poisson._array, sys_def.poisson._kernel)] + [(f._array_gradient, f._gradient) for f in fields]
    exact = [correctly_rounded(scalar) for _, scalar in kernels]
    assert all(exact[:-1])  # Pi, grad H and each grad C_l are bit-equal; grad phi(C) squares its Casimirs
    for box, samples, seed in boxes:
        xs = mp.sample_box(sys_def.n, box, samples, seed)
        for (array, scalar), bitwise in zip(kernels, exact):
            values = on_columns(array, xs)
            assert values is not None
            assert_agree(values, scalar_rows(scalar, xs), bitwise)
        assert_stacked_matches_per_point(sys_def, xs, 1e-10)  # the reports keep their bits


def test_array_kernels_agree_with_the_scalar_kernels_on_random_trees():
    rng = np.random.default_rng(34)
    compared = exact = fallbacks = 0
    for _ in range(400):
        n = int(rng.integers(1, 5))
        kernel = _compile(n, "test", "f", [random_tree(rng, n, int(rng.integers(1, 6))) for _ in range(3)])
        xs = rng.uniform(-2.0, 2.0, (int(rng.integers(1, 30)), n))
        values = on_columns(_array_kernel(kernel), xs)
        try:
            expected = scalar_rows(kernel, xs)
        except ex.EvaluationError:
            assert values is None  # the scalar kernel raises, so the check falls back to it
            fallbacks += 1
            continue
        if values is not None:
            assert_agree(values, expected, correctly_rounded(kernel))
            compared += 1
            exact += correctly_rounded(kernel)
    assert compared > 200 and exact > 20 and fallbacks > 50


# each expression raises in row 3 of SAMPLE when x1 is the value given, and the constant 1/0 at every row
RAISING = [("exp(x1)", 800.0), ("ln(x1)", -1.0), ("1/x1", 0.0), ("x1 + 1/0", 1.0)]
SAMPLE = np.random.default_rng(5).uniform(0.5, 2.0, (8, 3))


def raising_system(where, expression):
    """A 3-D system whose Pi entry, grad H or grad C evaluates ``expression``."""
    w = f"({expression})" if where == "poisson" else "0"
    return mp.load_system({
        "dimension": 3,
        "poisson": [["0", f"-x3 + {w}", "x2"], [f"x3 - {w}", "0", "-x1"], ["-x2", "x1", "0"]],
        "hamiltonian": "x1^2 + x2^2/2 + x3^2/3" + (f" + x2*({expression})" if where == "hamiltonian" else ""),
        "casimirs": ["x1^2 + x2^2 + x3^2" + (f" + x2*({expression})" if where == "casimir" else "")],
        "phi": "s1^2",
    }, mp.VerificationPolicy(samples=0))


@pytest.mark.parametrize("where", ["poisson", "hamiltonian", "casimir"])
@pytest.mark.parametrize("expression, x1", RAISING)
def test_a_check_raises_the_scalar_kernels_first_error(where, expression, x1):
    sys_def = raising_system(where, expression)
    xs = SAMPLE.copy()
    xs[3, 0] = x1
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from the array call
        with pytest.raises(ex.EvaluationError, match=r"at \["):
            mp.verify_metriplectic_conditions(sys_def, xs, 1e-10)
    assert_stacked_matches_per_point(sys_def, xs, 1e-10)  # the same type, message and point


@pytest.mark.parametrize("text, xs", [
    ("x1*(1e300*1e300)/x2", [[1.0, 1.0], [2.0, 0.0]]),  # a literal that folds to inf
    ("x1/x2", [[1.0, 1.0], [np.inf, 0.0]]),  # a point that is not finite
])
def test_a_non_finite_literal_or_point_keeps_the_scalar_kernel(text, xs):
    # an inf numerator divided by zero raises no numpy flag, where x/0.0 raises in floats
    kernel, xs = _compile(2, "test", "f", [ex.parse(text, 2)]), np.array(xs)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        assert _array_kernel(kernel)(list(xs.T))[0][1] == np.inf
    with pytest.raises(ex.EvaluationError, match="division by zero"):
        scalar_rows(kernel, xs)
    assert on_columns(_array_kernel(kernel), xs) is None


def test_a_constant_entry_is_one_column_of_the_sample():
    field = mp.ScalarField.from_string("2*x1 + x2^2", 2)
    xs = np.array([[1.0, 3.0], [2.0, -1.0], [0.0, 0.5]])
    values = on_columns(field._array_gradient, xs)
    assert values.shape == (3, 2) and values.tolist() == [[2.0, 6.0], [2.0, -2.0], [2.0, 1.0]]
    assert on_columns(field._array_gradient, xs[:0]).shape == (0, 2)


def test_a_constant_math_error_leaves_the_columns_out_of_the_array_message():
    # the array call's message names no column; the scalar code still raises the first point's
    field = mp.ScalarField.from_string("x1^2 + x2*(x3 + 1/0)", 3)
    xs = np.random.default_rng(9).uniform(-2.0, 2.0, (500, 3))
    with pytest.raises(ex.EvaluationError) as array_error:
        field._array_gradient(list(xs.T))
    assert str(array_error.value) == "float division by zero on a sample's columns"
    assert _on_columns([field._array_gradient], xs) is None
    with pytest.raises(ex.EvaluationError) as scalar_error:
        scalar_rows(field._gradient, xs)
    assert str(scalar_error.value) == f"float division by zero at x={xs[0].tolist()}"
    sys_def = raising_system("hamiltonian", "x3 + 1/0")
    with pytest.raises(ex.EvaluationError, match=r"float division by zero at x=\[") as check_error:
        mp.verify_metriplectic_conditions(sys_def, SAMPLE, 1e-10)
    assert f"at {SAMPLE[0].tolist()}" in str(check_error.value)
