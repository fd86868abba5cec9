"""Poisson structures, scalar fields, and whole-system definitions.

A system couples an antisymmetric state-dependent matrix Pi(x) with a Hamiltonian
H and k Casimir functions C_1..C_k (Pi grad C_i = 0), plus an entropy shaper
phi: R^k -> R.  A load proves Pi^T = -Pi and Pi grad C = 0 as polynomial
identities where it can, else samples the residual ``max_x ||Pi(x) grad C(x)||_inf``
over a box of random points: Pi and each grad C_l from one call of its kernel's
code on the sample's numpy columns, or point by point where that call raises.
Every gradient is exact by construction: symbolic derivatives of the value, or
the chain rule over them for grad phi(C); the package has no finite-difference
code (the tests hold one, a cross-check).  Scalar fields and Poisson
grids compile each kernel (Pi, a value, a gradient) at its first call, and
every check here runs on them; construction still validates the trees.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import expressions as ex

__all__ = [
    "PoissonStructure",
    "ScalarField",
    "SystemDefinition",
    "VerificationPolicy",
    "CasimirReport",
    "CasimirError",
    "AntisymmetryError",
    "poisson_matrix",
    "verify_casimir",
    "compose_entropy",
    "sample_box",
]

ANTISYMMETRY_TOL = 1e-12


class AntisymmetryError(ValueError):
    """Pi(x) failed the antisymmetry check at some evaluation point."""


class CasimirError(ValueError):
    """A declared Casimir failed the residual check."""

    def __init__(self, index: int, residual: float, point: np.ndarray, tol: float):
        super().__init__(
            f"casimir {index}: residual {residual:.3e} at point "
            f"{np.asarray(point).tolist()} exceeds tolerance {tol:.3e}"
        )
        self.index = index
        self.residual = residual
        self.point = np.asarray(point, dtype=float)
        self.tol = tol


@dataclass(frozen=True)
class VerificationPolicy:
    """Sampling plan used to certify structure conditions numerically.

    The box must be finite and ordered, the tolerance a finite number > 0,
    the sample count an integer >= 0 and the seed an integer (not a bool).
    """

    box: tuple[float, float] = (-2.0, 2.0)
    samples: int = 1000
    tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        _check_positive(self.box[1] - self.box[0], f"width of sampling box {self.box}")  # finite and ordered
        for name, value in (("samples", self.samples), ("seed", self.seed)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.samples < 0:
            raise ValueError("sample count must be >= 0")
        _check_positive(self.tolerance, "tolerance")


def sample_box(n: int, box: tuple[float, float], samples: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lo, hi = box
    return rng.uniform(lo, hi, size=(samples, n))


def _check_positive(value: float, name: str) -> None:
    """The rule of every tolerance, step and span: a finite number > 0, else a ValueError naming it."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def as_state(x: Sequence[float], n: int) -> list:
    """``x`` as the list of n floats every compiled kernel takes."""
    xs = np.asarray(x, dtype=float)
    if xs.shape != (n,):
        raise ValueError(f"state has shape {xs.shape}, expected ({n},)")
    return xs.tolist()


class KernelFunction:
    """``x -> wrap(kernel(as_state(x, n)))`` for a list-in/tuple-out kernel.

    :func:`integrators.integrate` recognises this type and calls ``kernel`` on its float lists directly,
    or inlines the ``body`` of a :mod:`dynamics` kernel: ``(kind, the system's kernel table)``.
    """

    __slots__ = ("n", "kernel", "wrap", "body")

    def __init__(self, n: int, kernel: Callable, wrap: Callable, body: Optional[tuple] = None):
        self.n, self.kernel, self.wrap, self.body = n, kernel, wrap, body

    def __call__(self, x):
        return self.wrap(self.kernel(as_state(x, self.n)))


def _compile(arity: int, label: str, name: str, exprs: Sequence[ex.Expression]) -> Callable:
    """The kernel ``name`` returning the tuple of the values of ``exprs``."""
    body = ex.emit([(None, e) for e in exprs], [f"x{i + 1}" for i in range(arity)])
    return ex.compile_kernels(arity, {name: body}, label)[name]


_ARRAY_ENV = {"sin": np.sin, "cos": np.cos, "_exp": np.exp, "_ln": np.log, "_sqrt": np.sqrt, "_pow": np.power}


def _array_kernel(kernel: Callable) -> Callable:
    """``kernel``'s code with numpy's functions, for ``xs`` a sample's columns; a math error's message
    leaves the columns out (:func:`_on_columns` drops it, and the scalar code raises the point's)."""
    columns_error = lambda exc, xs: ex.EvaluationError(f"{exc.args[-1]} on a sample's columns")
    return types.FunctionType(kernel.__code__, {**kernel.__globals__, **_ARRAY_ENV, "kernel_error": columns_error})


def _on_columns(kernels: Sequence[Callable], xs: np.ndarray) -> Optional[np.ndarray]:
    """The values (M, kernels, m) of array kernels, each called once on the columns of a sample (M, n), or None
    where the scalar code must run: no kernel, a point or literal not finite (inf/0 raises no numpy flag, where
    x/0.0 raises in floats), or a call that raises, as an overflow, a division by zero or a nan result does."""
    literals = [c for kernel in kernels for c in kernel.__code__.co_consts if type(c) is float]
    if not kernels or not (np.isfinite(xs).all() and np.isfinite(literals).all()):
        return None
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            values = [kernel(list(xs.T)) for kernel in kernels]
    except ArithmeticError:  # a numpy FloatingPointError, or the EvaluationError of a constant subtree
        return None
    out = np.empty((len(xs), len(values), len(values[0])))
    for k, row in enumerate(values):
        for j, v in enumerate(row):
            out[:, k, j] = v  # a constant fills its column
    return out


class PoissonStructure:
    """n x n grid of expressions, entry (i, j) giving the bracket {x_i, x_j}."""

    def __init__(self, n: int, entries: Sequence[Sequence[ex.Expression]]):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError(f"entry grid must be {n}x{n}")
        self.n = n
        self.entries = tuple(tuple(row) for row in entries)
        self._mirror = np.array([(i * n + j, j * n + i) for i in range(n) for j in range(i, n)]).T  # flat ij, ji

    @functools.cached_property
    def _kernel(self) -> Callable:
        return _compile(self.n, "poisson", "matrix", [e for row in self.entries for e in row])

    _array = functools.cached_property(lambda self: _array_kernel(self._kernel))

    @classmethod
    def from_strings(cls, rows: Sequence[Sequence[str]]) -> "PoissonStructure":
        n = len(rows)
        entries = [[ex.parse(cell, n) for cell in row] for row in rows]
        return cls(n, entries)


def poisson_matrix(structure: PoissonStructure, x: Sequence[float]) -> np.ndarray:
    """Numeric Pi(x), (n, n) at a point (n,) or (M, n, n) over a stack (M, n) of points.

    Raises :class:`AntisymmetryError` if Pi^T != -Pi (to 1e-12 absolute, an
    entry overflowing its mirror fails) at a point, all rows checked at once;
    a stack raises the first failure that calls row by row would raise.
    """
    n = structure.n
    xs = np.asarray(x, dtype=float)
    stacked = xs.ndim == 2 and xs.shape[1] == n
    values = _on_columns([structure._array], xs) if stacked else None
    if values is None:
        points = xs.tolist() if stacked else [as_state(xs, n)]
        try:
            values = np.array([structure._kernel(p) for p in points], dtype=float)
        except ex.EvaluationError:
            for p in points if stacked else ():  # row by row, an earlier row may fail antisymmetry first
                poisson_matrix(structure, p)
            raise
    with np.errstate(all="ignore"):  # an overflow or a nan fails below, without a warning
        defects = np.abs(values.reshape(-1, n * n)[:, structure._mirror].sum(axis=1))  # |Pi_ij + Pi_ji|
    sound = np.all(defects <= ANTISYMMETRY_TOL, axis=1)  # nan fails
    if not sound.all():
        i = int(np.argmin(sound))
        raise AntisymmetryError(
            f"Pi(x) + Pi(x)^T has max entry {np.max(defects[i]):.3e} at x={xs.reshape(-1, n)[i].tolist()} "
            f"(tolerance {ANTISYMMETRY_TOL})"
        )
    return values.reshape(xs.shape[:-1] + (n, n))


class ScalarField:
    """An expression of a fixed arity and its gradient, as trees and kernels.

    The gradient is exact by construction: each component is the value's
    :func:`expressions.differentiate`, and the only other gradients are
    :func:`compose_entropy`'s chain rule over such components.  No
    finite difference runs in the package.
    """

    def __init__(self, arity: int, value: ex.Expression):
        self._set(arity, value, [ex.differentiate(value, i) for i in range(1, arity + 1)])

    def _set(self, arity: int, value: ex.Expression, gradient: Sequence[ex.Expression]) -> None:
        if arity < 1:
            raise ValueError(f"arity must be >= 1, got {arity}")
        used = ex.max_var_index(value)
        if used > arity:
            raise ValueError(f"field uses variable {used} beyond arity {arity}")
        self.arity = arity
        self.value = value
        self.gradient = tuple(gradient)

    @functools.cached_property
    def _value(self) -> Callable:
        return _compile(self.arity, "field", "value", [self.value])

    @functools.cached_property
    def _gradient(self) -> Callable:
        return _compile(self.arity, "field", "gradient", self.gradient)

    _array_gradient = functools.cached_property(lambda self: _array_kernel(self._gradient))

    @classmethod
    def from_string(cls, text: str, arity: int) -> "ScalarField":
        return cls(arity, ex.parse(text, arity))

    def value_at(self, x: Sequence[float]) -> float:
        return self._value(as_state(x, self.arity))[0]

    def gradient_at(self, x: Sequence[float]) -> np.ndarray:
        return np.array(self._gradient(as_state(x, self.arity)))


def _chain_rule_field(arity: int, value: ex.Expression, gradient: Sequence[ex.Expression]) -> ScalarField:
    """A field whose gradient trees are assembled from exact derivatives by a chain rule."""
    field = ScalarField.__new__(ScalarField)
    field._set(arity, value, gradient)
    return field


def _worst(values: Sequence[float], ties: bool = False) -> int:
    """Index of the worst of a sample's residuals.

    The first nan or +inf, so the first residual that is not finite is the
    one reported and the check fails on it; otherwise the first maximum, or
    the last one with ``ties``.
    """
    values = np.asarray(values, dtype=float)
    non_finite = np.flatnonzero(~(values < math.inf))
    if len(non_finite):
        return int(non_finite[0])
    return len(values) - 1 - int(np.argmax(values[::-1])) if ties else int(np.argmax(values))


@dataclass(frozen=True)
class CasimirReport:
    max_residual: float
    passed: bool
    worst_point: Optional[np.ndarray] = field(default=None, compare=False)


def verify_casimir(
    structure: PoissonStructure,
    casimirs: Sequence[ScalarField],
    points: Sequence[Sequence[float]],
    tol: float,
) -> list[CasimirReport]:
    """Certify ``Pi(x) grad C_l(x) = 0`` for every Casimir in one pass over ``points``.

    One stacked :func:`poisson_matrix` (antisymmetry checked also with no
    Casimirs), the grad C_l rows, one stacked reduction of the sup-norm
    residuals.  On a failure the points rerun one by one, Pi then each grad
    C_l, to raise the first failure, an evaluation one with its point.  One
    report per Casimir, in order: the worst residual (the first that is not
    finite, as an overflow gives), passing iff <= ``tol``, a finite number > 0.
    """
    if len(points) == 0:
        raise ValueError("at least one sample point is required")
    _check_positive(tol, "tolerance")
    for c in casimirs:
        if c.arity != structure.n:
            raise ValueError(f"field arity {c.arity} does not match dimension {structure.n}")
    xs = np.asarray(points, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != structure.n:
        as_state(xs[0], structure.n)  # raises the first point's shape error
    try:
        pis = poisson_matrix(structure, xs)
        grads = _on_columns([c._array_gradient for c in casimirs], xs)
        if grads is None:
            grads = np.array([c._gradient(p) for p in xs.tolist() for c in casimirs], dtype=float)
    except (ex.EvaluationError, AntisymmetryError):
        pis = None
    for p in xs.tolist() if pis is None else ():  # point by point, outside the handler
        try:
            poisson_matrix(structure, p)
            for c in casimirs:
                c._gradient(p)
        except ex.EvaluationError as exc:
            raise ex.EvaluationError(f"casimir residual evaluation failed at {p}: {exc}") from exc
    with np.errstate(all="ignore"):  # one matrix-vector product per point and Casimir, as Pi @ grad C_l rounds
        products = pis[:, None] @ grads.reshape(len(xs), len(casimirs), structure.n, 1)
        residuals = np.max(np.abs(products), axis=(2, 3))
    worst = [(_worst(column), column) for column in residuals.T]
    return [CasimirReport(float(column[i]), bool(column[i] <= tol), xs[i]) for i, column in worst]


class _Unproved(Exception):
    """A tree outside the polynomial normal form, or a proof past 20,000 pairs of terms multiplied."""


def _collect(terms) -> dict:
    """The polynomial {exponents: coefficient} summing (exponents, coefficient) terms, no coefficient 0."""
    out: dict = {}
    for m, c in terms:
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _products(p: dict, q: dict, memo: dict):
    memo["pairs"] = memo.get("pairs", 0) + len(p) * len(q)
    if memo["pairs"] > 20_000:
        raise _Unproved
    return ((tuple(map(int.__add__, m, k)), c * d) for m, c in p.items() for k, d in q.items())


def _form(e: ex.Expression, n: int, bound: float, memo: dict) -> tuple[dict, float]:
    """``e`` as an exact polynomial in x1..xn, and a bound of |e| where every |x_i| <= ``bound``.

    A literal is its double's exact value; a non-finite literal, a variable past x_n, a ``Fun``, a divisor
    other than a finite nonzero literal or a power other than a literal 0..64 raises :class:`_Unproved`
    (so a load samples, and the kernel's compile refuses a tree it cannot run).  ``memo`` keeps each node
    (temporaries too) and, under ``"pairs"``, the count :func:`_products` holds to its budget.
    """
    if id(e) in memo:
        return memo[id(e)][1]
    form, t = lambda child: _form(child, n, bound, memo), type(e)
    if t is ex.Num and math.isfinite(e.value):
        result = ({(0,) * n: Fraction(e.value)} if e.value else {}), abs(e.value)
    elif t is ex.Var and e.index <= n:
        result = {tuple(int(i == e.index) for i in range(1, n + 1)): 1}, bound
    elif t is ex.Neg:
        result = form(ex.Sub(ex.Num(0.0), e.arg))
    elif t is ex.Add or t is ex.Sub or t is ex.Mul:
        (p, a), (q, b) = form(e.left), form(e.right)
        q = {m: -c for m, c in q.items()} if t is ex.Sub else q
        terms = _products(p, q, memo) if t is ex.Mul else [*p.items(), *q.items()]
        result = _collect(terms), (a * b if t is ex.Mul else a + b)
    elif t is ex.Div and type(e.right) is ex.Num and 0 < abs(e.right.value) < math.inf:
        (p, a), c = form(e.left), Fraction(e.right.value)
        result = {m: v / c for m, v in p.items()}, a / abs(e.right.value)
    elif t is ex.Pow and type(e.right) is ex.Num and e.right.value in range(65):
        result = form(functools.reduce(ex.Mul, [e.left] * int(e.right.value), ex.Num(1.0)))  # 1*u*...*u
    else:
        raise _Unproved
    memo[id(e)] = (e, result)
    return result


def _proved(poisson: PoissonStructure, casimirs: Sequence[ScalarField], box: tuple[float, float]) -> bool:
    """Whether Pi_ij + Pi_ji = 0 and sum_j Pi_ij d_j C_l = 0 hold exactly, over the kernels' trees.

    A proof counts only where a sample over ``box`` computes finite floats: the bound of each
    |Pi_ij| + |Pi_ji| and each sum_j |Pi_ij| |d_j C_l| is below 1e300 (a nan bound fails).
    """
    n, memo = poisson.n, {}
    form = functools.partial(_form, n=n, bound=max(abs(box[0]), abs(box[1])), memo=memo)
    try:
        pi, one = [[form(e) for e in row] for row in poisson.entries], ({(0,) * n: 1}, 1.0)
        sums = [[(pi[i][j], one), (pi[j][i], one)] for i in range(n) for j in range(i, n)]
        sums += [list(zip(row, map(form, c.gradient))) for c in casimirs for row in pi]
        return all(sum(a * b for (_, a), (_, b) in terms) < 1e300
                   and not _collect(t for (p, _), (q, _) in terms for t in _products(p, q, memo)) for terms in sums)
    except _Unproved:
        return False


class SystemDefinition:
    """A Hamilton-Poisson system plus the entropy data for its dissipative part.

    Construction validates the pieces against each other (arities, phi
    arity = k), then proves Pi^T = -Pi and Pi grad C_l = 0 exactly where it
    can, else runs one :func:`verify_casimir` pass per the given policy;
    ``VerificationPolicy(samples=0)`` skips both.  Instances are
    immutable; the only lazy caches are the entropy field and the kernels
    (Pi, each field's value and gradient, the dynamics kernels), each
    compiled at its first call.
    """

    def __init__(
        self,
        poisson: PoissonStructure,
        hamiltonian: ScalarField,
        casimirs: Sequence[ScalarField] = (),
        phi: Optional[ex.Expression] = None,
        name: str = "",
        verification: VerificationPolicy = VerificationPolicy(),
    ):
        n = poisson.n
        if hamiltonian.arity != n:
            raise ValueError(f"hamiltonian arity {hamiltonian.arity} != dimension {n}")
        for idx, c in enumerate(casimirs):
            if c.arity != n:
                raise ValueError(f"casimir {idx} arity {c.arity} != dimension {n}")
        k = len(casimirs)
        if k > 0:
            if phi is None:
                raise ValueError("phi is required when casimirs are declared")
            used = ex.max_var_index(phi)
            if used > k:
                raise ValueError(f"phi uses s{used} but only {k} casimirs are declared")
        elif phi is not None:
            raise ValueError("phi given but no casimirs declared")

        self.n = n
        self.k = k
        self.poisson = poisson
        self.hamiltonian = hamiltonian
        self.casimirs = tuple(casimirs)
        self.phi = phi
        self.name = name
        self.verification = verification
        self._entropy_field: Optional[ScalarField] = None
        self._compiled: dict = {}  # kind -> dynamics kernel (and its body, tail and loops), filled by dynamics

        if verification.samples > 0 and not _proved(poisson, self.casimirs, verification.box):
            pts = sample_box(n, verification.box, verification.samples, verification.seed)
            for idx, report in enumerate(verify_casimir(poisson, self.casimirs, pts, verification.tolerance)):
                if not report.passed:
                    raise CasimirError(idx, report.max_residual, report.worst_point, verification.tolerance)


def compose_entropy(sys: SystemDefinition) -> ScalarField:
    """The entropy function x -> phi(C_1(x), ..., C_k(x)) as a ScalarField.

    Its gradient, which the dynamics kernels run, is the chain rule
    ``u_i = sum_l (d phi / d s_l)(C) d C_l / d x_i`` term by term (a zero
    factor drops its term), exact because each factor is a derivative
    tree.  A function of Casimirs is one too; for k = 0 it is the zero
    field.
    """
    if sys._entropy_field is None:
        casimirs = {l + 1: c.value for l, c in enumerate(sys.casimirs)}
        phi = sys.phi if sys.k else ex.Num(0.0)
        partials = [ex.substitute(ex.differentiate(phi, l + 1), casimirs) for l in range(sys.k)]
        terms = lambda i: (ex.mul(f, c.gradient[i]) for f, c in zip(partials, sys.casimirs))
        gradient = [functools.reduce(ex.add, terms(i), ex.Num(0.0)) for i in range(sys.n)]
        sys._entropy_field = _chain_rule_field(sys.n, ex.substitute(phi, casimirs), gradient)
    return sys._entropy_field
