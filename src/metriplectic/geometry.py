"""Poisson structures, scalar fields, and whole-system definitions.

A system couples an antisymmetric state-dependent matrix Pi(x) with a
Hamiltonian H and k Casimir functions C_1..C_k (Pi grad C_i = 0), plus an
entropy shaper phi: R^k -> R.  Casimir-ness cannot be proved from the
expression trees, so it is certified by sampling: the residual
``max_x ||Pi(x) grad C(x)||_inf`` over a box of random points.  Scalar
fields and Poisson grids compile to kernels once, when built, and every
evaluation and check here runs on them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
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

    The box must be finite and ordered, the tolerance a finite number > 0
    and the sample count >= 0.
    """

    box: tuple[float, float] = (-2.0, 2.0)
    samples: int = 1000
    tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        _check_positive(self.box[1] - self.box[0], f"width of sampling box {self.box}")  # finite and ordered
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

    :func:`integrators.integrate` recognises this type and calls ``kernel``
    on its float lists directly.
    """

    __slots__ = ("n", "kernel", "wrap")

    def __init__(self, n: int, kernel: Callable, wrap: Callable):
        self.n, self.kernel, self.wrap = n, kernel, wrap

    def __call__(self, x):
        return self.wrap(self.kernel(as_state(x, self.n)))


def _compile(arity: int, label: str, **results) -> list:
    """One kernel per keyword, returning the tuple of its expressions' values."""
    names = [f"x{i + 1}" for i in range(arity)]
    bodies = {name: ex.emit([(None, e) for e in exprs], names) for name, exprs in results.items()}
    return list(ex.compile_kernels(arity, bodies, label).values())


class PoissonStructure:
    """n x n grid of expressions, entry (i, j) giving the bracket {x_i, x_j}."""

    def __init__(self, n: int, entries: Sequence[Sequence[ex.Expression]]):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError(f"entry grid must be {n}x{n}")
        self.n = n
        self.entries = tuple(tuple(row) for row in entries)
        (self._kernel,) = _compile(n, "poisson", matrix=[e for row in self.entries for e in row])

    @classmethod
    def from_strings(cls, rows: Sequence[Sequence[str]]) -> "PoissonStructure":
        n = len(rows)
        entries = [[ex.parse(cell, n) for cell in row] for row in rows]
        return cls(n, entries)


def poisson_matrix(structure: PoissonStructure, x: Sequence[float]) -> np.ndarray:
    """Numeric Pi(x); raises :class:`AntisymmetryError` if Pi^T != -Pi.

    Antisymmetry is checked on every evaluation (to 1e-12 absolute)
    because the entries are state-dependent.
    """
    n = structure.n
    point = as_state(x, n)
    mat = np.array(structure._kernel(point)).reshape(n, n)
    worst = float(np.max(np.abs(mat + mat.T)))
    if worst > ANTISYMMETRY_TOL:
        raise AntisymmetryError(
            f"Pi(x) + Pi(x)^T has max entry {worst:.3e} at x={point} "
            f"(tolerance {ANTISYMMETRY_TOL})"
        )
    return mat


class ScalarField:
    """Expression plus its symbolic gradient, all of a fixed arity.

    The gradient is cross-checked against central finite differences of
    the value at a few sample points when the field is built, so a
    hand-assembled gradient (e.g. a chain rule) cannot silently disagree
    with the value expression.
    """

    _CHECK_POINTS = 8
    _CHECK_STEP = 1e-5
    _CHECK_TOL = 1e-4

    def __init__(self, arity: int, value: ex.Expression, gradient: Sequence[ex.Expression]):
        if arity < 1:
            raise ValueError(f"arity must be >= 1, got {arity}")
        if len(gradient) != arity:
            raise ValueError(f"gradient has {len(gradient)} components, expected {arity}")
        used = max(ex.max_var_index(value), *(ex.max_var_index(g) for g in gradient), 0)
        if used > arity:
            raise ValueError(f"field uses variable {used} beyond arity {arity}")
        self.arity = arity
        self.value = value
        self.gradient = tuple(gradient)
        self._value, self._gradient = _compile(arity, "field", value=[value], gradient=self.gradient)
        self._check_gradient()

    @classmethod
    def from_expression(cls, value: ex.Expression, arity: int) -> "ScalarField":
        grads = [ex.differentiate(value, i) for i in range(1, arity + 1)]
        return cls(arity, value, grads)

    @classmethod
    def from_string(cls, text: str, arity: int) -> "ScalarField":
        return cls.from_expression(ex.parse(text, arity), arity)

    def value_at(self, x: Sequence[float]) -> float:
        return self._value(as_state(x, self.arity))[0]

    def gradient_at(self, x: Sequence[float]) -> np.ndarray:
        return np.array(self._gradient(as_state(x, self.arity)))

    def _check_gradient(self) -> None:
        rng = np.random.default_rng(12345)
        pts = rng.uniform(-1.5, 1.5, size=(self._CHECK_POINTS, self.arity))
        h = self._CHECK_STEP
        for p in pts:
            try:
                grad = self._gradient(p.tolist())
            except ex.EvaluationError:
                continue  # outside the domain; nothing to compare
            for i, sym in enumerate(grad):
                stencil_hi = p.tolist()
                stencil_lo = p.tolist()
                stencil_hi[i] += h
                stencil_lo[i] -= h
                try:
                    fd = (self._value(stencil_hi)[0] - self._value(stencil_lo)[0]) / (2 * h)
                except ex.EvaluationError:
                    continue
                if abs(sym) > 1e6 or abs(fd) > 1e6:
                    continue  # too ill-conditioned for a finite-difference check
                if abs(fd - sym) > self._CHECK_TOL * max(1.0, abs(sym)):
                    raise ValueError(
                        f"gradient component {i + 1} disagrees with finite differences "
                        f"at {p.tolist()}: symbolic {sym!r}, central difference {fd!r}"
                    )


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

    Pi, with its antisymmetry check, is evaluated once per point, also when
    there are no Casimirs.  One report per Casimir, in order: the worst
    sup-norm residual (the first one that is not finite, if any), passing
    iff it is <= ``tol``, a finite number > 0.  Evaluation failures are
    re-raised with the offending point attached.
    """
    if len(points) == 0:
        raise ValueError("at least one sample point is required")
    _check_positive(tol, "tolerance")
    for c in casimirs:
        if c.arity != structure.n:
            raise ValueError(f"field arity {c.arity} does not match dimension {structure.n}")
    residuals = []  # point by point, each point's Casimirs in order
    for p in points:
        try:
            pi = poisson_matrix(structure, p)
            for c in casimirs:
                residuals.append(float(np.max(np.abs(pi @ c.gradient_at(p)))))
        except ex.EvaluationError as exc:
            raise ex.EvaluationError(
                f"casimir residual evaluation failed at {np.asarray(p).tolist()}: {exc}"
            ) from exc
    reports = []
    for l in range(len(casimirs)):
        column = residuals[l::len(casimirs)]
        index = _worst(column)
        reports.append(CasimirReport(column[index], column[index] <= tol, np.asarray(points[index], dtype=float)))
    return reports


class SystemDefinition:
    """A Hamilton-Poisson system plus the entropy data for its dissipative part.

    Construction validates the pieces against each other (arities, phi
    arity = k) and certifies every declared Casimir with one
    :func:`verify_casimir` pass per the given :class:`VerificationPolicy`.
    ``VerificationPolicy(samples=0)`` skips the sampling (used when a caller
    wants to inspect a broken system deliberately).  Instances are
    immutable; the only lazy caches are the entropy field and the dynamics
    kernels, each kernel compiled the first time it is called for.
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
        self._compiled: dict = {}  # kind -> dynamics kernel, filled by dynamics._compiled on first use

        if verification.samples > 0:
            pts = sample_box(n, verification.box, verification.samples, verification.seed)
            for idx, report in enumerate(verify_casimir(poisson, self.casimirs, pts, verification.tolerance)):
                if not report.passed:
                    raise CasimirError(idx, report.max_residual, report.worst_point, verification.tolerance)


def compose_entropy(sys: SystemDefinition) -> ScalarField:
    """The entropy function x -> phi(C_1(x), ..., C_k(x)) as a ScalarField.

    Its gradient, which the dynamics kernels run, is the chain rule
    ``u_i = sum_l (d phi / d s_l)(C) d C_l / d x_i`` term by term (a zero
    factor drops its term), checked by finite differences when built.  A
    function of Casimirs is one too; for k = 0 it is the zero field.
    """
    if sys._entropy_field is None:
        casimirs = {l + 1: c.value for l, c in enumerate(sys.casimirs)}
        phi = sys.phi if sys.k else ex.Num(0.0)
        partials = [ex.substitute(ex.differentiate(phi, l + 1), casimirs) for l in range(sys.k)]
        terms = lambda i: (ex.mul(f, c.gradient[i]) for f, c in zip(partials, sys.casimirs))
        gradient = [functools.reduce(ex.add, terms(i), ex.Num(0.0)) for i in range(sys.n)]
        sys._entropy_field = ScalarField(sys.n, ex.substitute(phi, casimirs), gradient)
    return sys._entropy_field
