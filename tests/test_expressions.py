import ast
import copy
import math
import string
import struct
from collections import Counter

import numpy as np
import pytest

from metriplectic import expressions as ex
from expr_gen import derivative_cases, random_tree


def ev(text, point, arity=None, prefix="x"):
    arity = arity if arity is not None else len(point)
    return ex.evaluate(ex.parse(text, arity, prefix), point)


# ---------------------------------------------------------------------------
# parsing and evaluation

def test_parse_polynomial():
    assert ev("x1^2 + 2*x2", (3, 1)) == 11


def test_parse_error_position_unclosed_paren():
    with pytest.raises(ex.ExpressionSyntaxError) as err:
        ex.parse("x1*(", 1)
    assert err.value.position == 4


def test_prefix_without_index_rejected():
    with pytest.raises(ex.UnknownIdentifierError):
        ex.parse("(s - 1/2)^2 - s/3", 1, "s")


def test_entropy_shaper_value():
    e = ex.parse("(s1 - 1/2)^2 - s1/3", 1, "s")
    assert ex.evaluate(e, (0.5,)) == pytest.approx(-1 / 6, rel=1e-15)


def test_product_evaluation():
    assert ev("x1*x2*x3", (1, 2, 3)) == 6


def test_rigid_body_hamiltonian_value():
    h = "x1^2/(2*3) + x2^2/(2*2) + x3^2/(2*1)"
    assert ev(h, (1, 1, 1)) == pytest.approx(11 / 12, rel=1e-15)


def test_division_by_zero():
    with pytest.raises(ex.EvaluationError):
        ev("1/x1", (0.0,))


def test_variable_out_of_range():
    with pytest.raises(ex.VariableIndexError):
        ex.parse("x4", 3)


def test_unknown_function():
    with pytest.raises(ex.UnknownIdentifierError):
        ex.parse("tan(x1)", 1)


def test_implicit_multiplication_rejected():
    with pytest.raises(ex.ExpressionSyntaxError) as err:
        ex.parse("2x1", 1)
    assert err.value.position == 1


def test_empty_input():
    with pytest.raises(ex.ExpressionSyntaxError):
        ex.parse("", 1)
    with pytest.raises(ex.ExpressionSyntaxError):
        ex.parse("   ", 1)


def test_whitespace_insensitive():
    assert ev(" x1   +\t2 ", (1.0,)) == 3.0


def test_scientific_notation():
    assert ev("1e-3*x1 + 2.5E2", (2.0,)) == pytest.approx(0.002 + 250.0, rel=1e-15)


# precedence: ^ binds tighter than unary minus, which binds tighter than * /

def test_unary_minus_vs_power():
    assert ev("-x1^2", (2.0,)) == -4.0
    assert ev("(-x1)^2", (2.0,)) == 4.0


def test_power_right_associative():
    assert ev("2^3^2", (0.0,), arity=1) == 512.0


def test_negative_exponent():
    assert ev("x1^-1", (4.0,)) == 0.25
    assert ev("x1^-2", (4.0,)) == 0.0625


def test_left_associative_division_subtraction():
    assert ev("6/2/3", (0.0,), arity=1) == 1.0
    assert ev("1-2-3", (0.0,), arity=1) == -4.0


def test_unary_minus_in_products():
    assert ev("2*-x1", (3.0,)) == -6.0
    assert ev("-x1*x2", (2.0, 5.0)) == -10.0


def test_deep_nesting_is_a_positioned_error():
    with pytest.raises(ex.ExpressionError) as err:
        ex.parse("(" * 300 + "x1" + ")" * 300, 1)
    assert 0 <= err.value.position <= 600


# ---------------------------------------------------------------------------
# evaluation domain errors

@pytest.mark.parametrize(
    "text,point",
    [
        ("ln(x1)", (-1.0,)),
        ("ln(x1)", (0.0,)),
        ("sqrt(x1)", (-4.0,)),
        ("x1^0.5", (-8.0,)),
        ("x1^-2", (0.0,)),
        ("exp(x1)", (1000.0,)),
    ],
)
def test_domain_errors(text, point):
    with pytest.raises(ex.EvaluationError):
        ev(text, point)


def test_integral_float_exponent_on_negative_base():
    assert ev("x1^3", (-2.0,)) == -8.0


def test_point_too_short():
    e = ex.parse("x2", 2)
    with pytest.raises(ex.EvaluationError):
        ex.evaluate(e, (1.0,))


# ---------------------------------------------------------------------------
# differentiation

def test_product_rule():
    d = ex.differentiate(ex.parse("x1*x3", 3), 1)
    for p in [(1.0, 2.0, 3.0), (-2.0, 0.5, 7.0)]:
        assert ex.evaluate(d, p) == p[2]


def test_sin_derivative():
    d = ex.differentiate(ex.parse("sin(x1)", 1), 1)
    for v in (-1.3, 0.0, 2.2):
        assert ex.evaluate(d, (v,)) == pytest.approx(math.cos(v), rel=1e-15)


def test_quadratic_gradient():
    c = ex.parse("(x1^2 + x2^2 + x3^2)/2", 3)
    grad = [ex.differentiate(c, i) for i in (1, 2, 3)]
    point = (1.0, 2.0, 3.0)
    assert [ex.evaluate(g, point) for g in grad] == [1.0, 2.0, 3.0]


def test_general_power_rule():
    # non-constant exponent goes through exp/ln
    d = ex.differentiate(ex.parse("x1^x2", 2), 2)
    p = (2.0, 3.0)
    assert ex.evaluate(d, p) == pytest.approx(2.0 ** 3.0 * math.log(2.0), rel=1e-12)


def test_bad_index():
    with pytest.raises(ValueError):
        ex.differentiate(ex.parse("x1", 1), 0)


def test_derivatives_match_finite_differences():
    checked = 0
    for tree, point, index, fd, tol in derivative_cases(seed=7, count=1000):
        sym = ex.evaluate(ex.differentiate(tree, index), point)
        assert abs(sym - fd) <= tol, f"{ex.to_string(tree)} d/dx{index} at {point}"
        checked += 1
    assert checked == 1000


def to_sympy(sp, e):
    """The tree as a sympy expression in x1, x2, ..., each literal as the exact rational of its float."""
    if type(e) is ex.Num:
        return sp.Rational(e.value)
    if type(e) is ex.Var:
        return sp.Symbol(f"x{e.index}")
    if type(e) is ex.Neg:
        return -to_sympy(sp, e.arg)
    if type(e) is ex.Fun:
        return getattr(sp, {"ln": "log"}.get(e.name, e.name))(to_sympy(sp, e.arg))
    left, right = to_sympy(sp, e.left), to_sympy(sp, e.right)
    return {ex.Add: sp.Add, ex.Sub: lambda a, b: a - b, ex.Mul: sp.Mul, ex.Div: lambda a, b: a / b, ex.Pow: sp.Pow}[type(e)](left, right)


def test_derivatives_match_sympy():
    # both derivatives evaluated in 40-digit (complex) arithmetic, so only a wrong rule, or a float
    # literal differentiate folds, separates them; a tree undefined at the point has no derivative there
    sp = pytest.importorskip("sympy")
    rng = np.random.default_rng(37)
    compared = 0
    for _ in range(100):
        tree = random_tree(rng, 3, int(rng.integers(1, 5)))
        point = {sp.Symbol(f"x{i + 1}"): sp.Rational(int(v), 64) for i, v in enumerate(2 * rng.integers(-64, 64, 3) + 1)}
        value = to_sympy(sp, tree)
        if not value.evalf(40, subs=point).is_finite:
            continue
        for index in (1, 2, 3):
            ours = to_sympy(sp, ex.differentiate(tree, index)).evalf(40, subs=point)
            theirs = sp.diff(value, sp.Symbol(f"x{index}")).evalf(40, subs=point)
            assert ours.is_finite and theirs.is_finite, (ex.to_string(tree), index)
            ours, theirs = complex(ours), complex(theirs)
            assert abs(ours - theirs) <= 1e-9 * max(1.0, abs(ours), abs(theirs)), (ex.to_string(tree), index)
            compared += 1
    assert compared > 250


# ---------------------------------------------------------------------------
# printing round trip and compilation

def test_parsed_trees_are_fixed_points_of_the_smart_constructors():
    # parse folds while it builds, so rebuilding through add/sub/.../fun changes nothing
    identity = {i: ex.Var(i) for i in (1, 2, 3)}
    texts = ["-x1^2", "2^3^2", "--x1", "0^-1", "(-8)^(1/3)", "2^-1", "x1 - -x2", "0*x1 + x2/1 - 0"]
    rng = np.random.default_rng(29)
    texts += [ex.to_string(random_tree(rng, 3, int(rng.integers(1, 6)))) for _ in range(3000)]
    for text in texts:
        tree = ex.parse(text, 3)
        rebuilt = ex.substitute(tree, identity)
        assert rebuilt == tree and repr(rebuilt) == repr(tree), text


def test_round_trip_through_printer():
    rng = np.random.default_rng(11)
    for _ in range(300):
        tree = random_tree(rng, 3, int(rng.integers(1, 5)))
        reparsed = ex.parse(ex.to_string(tree), 3)
        for _ in range(3):
            p = rng.uniform(-2, 2, size=3)
            try:
                a = ex.evaluate(tree, p)
            except ex.EvaluationError:
                continue  # folding at reparse may legitimately widen the domain
            b = ex.evaluate(reparsed, p)
            assert b == pytest.approx(a, rel=1e-12, abs=1e-300)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ex.EvaluationError:
        return ex.EvaluationError


def test_compiled_source_matches_interpreter():
    # bit-identical values, and a domain error raised on both sides or neither
    rng = np.random.default_rng(23)
    names = ["x1", "x2", "x3"]
    compared = 0
    for _ in range(1000):
        tree = random_tree(rng, 3, int(rng.integers(1, 5)))
        body = [f"return {ex.to_source(tree, names)}"]
        kernel = ex.compile_kernels(3, {"f": body}, "test")["f"]
        for _ in range(4):
            p = rng.uniform(-2, 2, size=3).tolist()
            expected = _outcome(ex.evaluate, tree, p)
            got = _outcome(kernel, p)
            if ex.EvaluationError in (got, expected):
                assert got is expected, ex.to_string(tree)
                continue
            assert got == expected or (math.isnan(got) and math.isnan(expected)), ex.to_string(tree)
            compared += 1
    assert compared > 3000


NAMES = ["x1", "x2", "x3"]


def _emitted_kernel(assignments, arity=3):
    body = ex.emit(assignments, NAMES[:arity])
    return ex.compile_kernels(arity, {"f": body}, "test")["f"], body


def _inline_kernel(trees, arity=3):
    body = ["return (" + "".join(f"{ex.to_source(tree, NAMES[:arity])}, " for tree in trees) + ")"]
    return ex.compile_kernels(arity, {"f": body}, "test")["f"]


def _graft(rng, e, shared):
    """``e`` with some leaves replaced by one of ``shared``, as the same object or as a copy."""
    if isinstance(e, (ex.Num, ex.Var)):
        if rng.random() < 0.6:
            pick = shared[int(rng.integers(len(shared)))]
            return pick if rng.random() < 0.5 else copy.deepcopy(pick)
        return e
    if isinstance(e, ex.Neg):
        return ex.Neg(_graft(rng, e.arg, shared))
    if isinstance(e, ex.Fun):
        return ex.Fun(e.name, _graft(rng, e.arg, shared))
    return type(e)(_graft(rng, e.left, shared), _graft(rng, e.right, shared))


def _repeated_operations(body):
    """Non-leaf operations that occur more than once in a kernel body (a negative literal is a leaf)."""
    dumps = Counter(
        ast.dump(node)
        for node in ast.walk(ast.parse("\n".join(body)))
        if isinstance(node, (ast.BinOp, ast.Call)) or (isinstance(node, ast.UnaryOp) and not isinstance(node.operand, ast.Constant))
    )
    return [dump for dump, count in dumps.items() if count > 1]


def test_emitted_kernels_are_the_inline_kernels_bit_for_bit():
    # random trees sharing random subtrees: the hoisted kernel returns the inline kernel's bits, or both raise
    rng = np.random.default_rng(29)
    compared = hoisted = 0
    for _ in range(400):
        shared = [ex.Add(random_tree(rng, 3, 2), random_tree(rng, 3, 2)), random_tree(rng, 3, 3)]
        trees = [_graft(rng, random_tree(rng, 3, int(rng.integers(1, 5))), shared) for _ in range(int(rng.integers(2, 5)))]
        # named trees are assigned, then returned after the others by a reference to their target
        named = [(f"v{i}", tree) if rng.random() < 0.5 else (None, tree) for i, tree in enumerate(trees)]
        kernel, body = _emitted_kernel(named + [(None, tree) for target, tree in named if target])
        assert _repeated_operations(body) == [], body
        hoisted += any(line.startswith("t") for line in body)
        inline = _inline_kernel([tree for target, tree in named if not target] + [tree for target, tree in named if target])
        for _ in range(4):
            p = rng.uniform(-2, 2, size=3).tolist()
            got, expected = _outcome(kernel, p), _outcome(inline, p)
            if ex.EvaluationError in (got, expected):
                assert got is expected, body
                continue
            assert struct.pack(f"{len(got)}d", *got) == struct.pack(f"{len(expected)}d", *expected), body
            compared += 1
    assert compared > 800 and hoisted > 200


def test_emit_without_repeats_prints_what_to_source_prints():
    rng = np.random.default_rng(30)
    for _ in range(200):
        tree = random_tree(rng, 3, int(rng.integers(1, 5)))
        body = _emitted_kernel([(None, tree)])[1]
        if len(body) == 1:  # no subtree occurs twice
            assert body == [f"return ({ex.to_source(tree, NAMES)}, )"]


def test_emit_keeps_the_sign_of_zero():
    # equal as dataclasses, with equal hashes, but 0.0/x1 and -0.0/x1 differ in sign; each is used twice
    positive, negative = ex.parse("0/x1", 1), ex.parse("-0/x1", 1)
    assert negative == ex.Div(ex.Num(-0.0), ex.Var(1)) and positive == negative and hash(positive) == hash(negative)
    trees = [positive, negative, ex.Neg(positive), ex.Neg(negative)]
    kernel, body = _emitted_kernel([(None, tree) for tree in trees], arity=1)
    assert body[:2] == ["t1 = (0.0/x1)", "t2 = ((-0.0)/x1)"]
    values = kernel([2.0])
    assert [math.copysign(1.0, v) for v in values] == [1.0, -1.0, -1.0, 1.0]
    assert struct.pack("4d", *values) == struct.pack("4d", *_inline_kernel(trees, arity=1)([2.0]))


@pytest.mark.parametrize("exponent", [2.0, 3.0])
def test_a_power_of_negative_zero_compiles_to_what_evaluate_gives(exponent):
    # unparenthesized, -0.0**2 reads as -(0.0**2) = -0.0 where (-0.0)**2 is 0.0
    tree = ex.Pow(ex.Num(-0.0), ex.Num(exponent))
    (value,) = _emitted_kernel([(None, tree)], arity=1)[0]([1.0])
    assert struct.pack("d", value) == struct.pack("d", ex.evaluate(tree, [1.0]))


def test_emit_reports_the_failure_of_a_hoisted_subtree_first():
    # 1/x1 fails first inline; the repeated sqrt(x2) is computed before the tree that uses it
    tree = ex.parse("1/x1 + sqrt(x2)*sqrt(x2)", 2)
    kernel, body = _emitted_kernel([(None, tree)], arity=2)
    assert body == ["t1 = _sqrt(x2)", "return (((1.0/x1) + (t1*t1)), )"]
    with pytest.raises(ex.EvaluationError) as hoisted:
        kernel([0.0, -1.0])
    with pytest.raises(ex.EvaluationError) as inline:
        _inline_kernel([tree], arity=2)([0.0, -1.0])
    assert str(hoisted.value) == "math domain error at x=[0.0, -1.0]"
    assert str(inline.value) == "float division by zero at x=[0.0, -1.0]"


def test_compiled_kernel_error_names_the_point():
    kernel = ex.compile_kernels(1, {"f": ["return _ln(x1)"]}, "test")["f"]
    with pytest.raises(ex.EvaluationError, match=r"at x=\[-1\.0\]"):
        kernel([-1.0])


@pytest.mark.parametrize("body, xs, cause", [
    ("return _ln(x1)", [-1.0], ValueError),
    ("return 1.0/x1", [0.0], ZeroDivisionError),
    ("return _exp(x1)", [1000.0], OverflowError),
    ("return _pow(x1, 0.5)", [-4.0], ex.EvaluationError),
])
def test_compiled_kernels_map_math_errors_themselves(body, xs, cause):
    # each kernel is the generated function itself, with no wrapper around it
    kernel = ex.compile_kernels(1, {"f": [body]}, "test")["f"]
    assert kernel.__closure__ is None and kernel.__code__.co_filename.startswith("<test-")
    with pytest.raises(ex.EvaluationError) as info:
        kernel(xs)
    assert type(info.value.__cause__) is cause
    assert str(info.value) == f"{info.value.__cause__} at x={xs}"


def test_compiled_kernel_error_drops_the_errno_of_an_overflowing_power():
    kernel = ex.compile_kernels(1, {"f": ["return x1**2"]}, "test")["f"]
    with pytest.raises(ex.EvaluationError) as info:
        kernel([1e300])
    errno, text = info.value.__cause__.args  # e.g. (34, 'Numerical result out of range')
    assert str(info.value) == f"{text} at x=[1e+300]"


def test_substitute_composition():
    phi = ex.parse("s1^2 - s1/3", 1, "s")
    c = ex.parse("(x1^2 + x2^2)/2", 2)
    composed = ex.substitute(phi, {1: c})
    p = (1.0, 2.0)
    s = ex.evaluate(c, p)
    assert ex.evaluate(composed, p) == pytest.approx(s * s - s / 3, rel=1e-15)


def test_substitute_missing_mapping():
    with pytest.raises(ValueError):
        ex.substitute(ex.parse("s1 + s2", 2, "s"), {1: ex.Num(1.0)})


# ---------------------------------------------------------------------------
# totality: anything either parses or raises a positioned ExpressionError

def test_overflowing_literal_rejected_with_position():
    with pytest.raises(ex.ExpressionSyntaxError, match="1e999") as info:
        ex.parse("x1/1e999", 1)
    assert info.value.position == 3
    with pytest.raises(ex.ExpressionSyntaxError):
        ex.parse("-" + "9" * 400, 1)
    assert ex.parse("1e308", 1) == ex.Num(1e308)


def test_parser_is_total_on_garbage():
    rng = np.random.default_rng(99)
    alphabet = string.ascii_lowercase + string.digits + "+-*/^()., xs"
    for _ in range(700):
        length = int(rng.integers(1, 14))
        text = "".join(alphabet[rng.integers(0, len(alphabet))] for _ in range(length))
        try:
            tree = ex.parse(text, 3)
        except ex.ExpressionError as err:
            assert 0 <= err.position <= len(text)
        else:
            assert isinstance(tree, ex.Expression)
