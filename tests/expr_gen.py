"""Random expression trees for derivative and round-trip testing."""

import numpy as np

from metriplectic import expressions as ex

_FUNCS = ("sin", "cos", "exp", "ln", "sqrt")
_EXPONENTS = (2.0, 3.0, -1.0, -2.0, 0.5)


def random_leaf(rng: np.random.Generator, arity: int) -> ex.Expression:
    if rng.random() < 0.45:
        value = float(rng.integers(-3, 4))
        if rng.random() < 0.4:
            value += round(float(rng.uniform(-1, 1)), 3)
        return ex.Num(value)
    return ex.Var(int(rng.integers(1, arity + 1)))


def random_tree(rng: np.random.Generator, arity: int, depth: int) -> ex.Expression:
    if depth <= 0 or rng.random() < 0.3:
        return random_leaf(rng, arity)
    roll = rng.random()
    if roll < 0.15:
        return ex.Neg(random_tree(rng, arity, depth - 1))
    if roll < 0.35:
        name = _FUNCS[rng.integers(0, len(_FUNCS))]
        return ex.Fun(name, random_tree(rng, arity, depth - 1))
    if roll < 0.5:
        return ex.Pow(
            random_tree(rng, arity, depth - 1),
            ex.Num(float(_EXPONENTS[rng.integers(0, len(_EXPONENTS))])),
        )
    ctor = (ex.Add, ex.Sub, ex.Mul, ex.Div)[rng.integers(0, 4)]
    return ctor(random_tree(rng, arity, depth - 1), random_tree(rng, arity, depth - 1))


def random_polynomial_tree(rng: np.random.Generator, arity: int, depth: int) -> ex.Expression:
    """A random tree of the nodes a polynomial is written with.

    Literals, variables, ``Neg``, ``Add``, ``Sub``, ``Mul``, ``Div`` by a
    nonzero literal and ``Pow`` by a literal integer 0..3.
    """
    if depth <= 0 or rng.random() < 0.3:
        return random_leaf(rng, arity)
    grow = lambda: random_polynomial_tree(rng, arity, depth - 1)
    roll = rng.random()
    if roll < 0.15:
        return ex.Neg(grow())
    if roll < 0.3:
        return ex.Pow(grow(), ex.Num(float(rng.integers(0, 4))))
    if roll < 0.4:
        return ex.Div(grow(), ex.Num(float(rng.choice([3.0, -0.1, 7.0, 0.5]))))
    ctor = (ex.Add, ex.Sub, ex.Mul)[rng.integers(0, 3)]
    return ctor(grow(), grow())


def derivative_cases(seed: int, count: int, arity: int = 3, step: float = 1e-5):
    """Yield ``count`` well-conditioned (tree, point, index, fd, tol) cases.

    A case is kept only when the expression and its derivative evaluate
    finitely and moderately at the stencil, and two central-difference
    step sizes agree; the filter uses finite differences only, so it
    cannot mask a wrong symbolic derivative.
    """
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < count:
        tree = random_tree(rng, arity, int(rng.integers(1, 5)))
        point = rng.uniform(-2.0, 2.0, size=arity)
        index = int(rng.integers(1, arity + 1))
        try:
            sym = ex.evaluate(ex.differentiate(tree, index), point)
            hi = point.copy()
            lo = point.copy()
            hi[index - 1] += step
            lo[index - 1] -= step
            f_hi = ex.evaluate(tree, hi)
            f_lo = ex.evaluate(tree, lo)
            hi2 = point.copy()
            lo2 = point.copy()
            hi2[index - 1] += 2 * step
            lo2[index - 1] -= 2 * step
            fd = (f_hi - f_lo) / (2 * step)
            fd2 = (ex.evaluate(tree, hi2) - ex.evaluate(tree, lo2)) / (4 * step)
        except ex.EvaluationError:
            continue
        if any(abs(v) > 1e3 for v in (sym, fd, f_hi, f_lo)):
            continue
        tol = 1e-6 * max(1.0, abs(sym))
        if abs(fd - fd2) > 0.25 * tol:
            continue  # finite differences disagree with themselves: ill-conditioned
        produced += 1
        yield tree, point, index, fd, tol
