"""The two canonical vector fields and equilibrium/dependence analysis.

For a system (Pi, H, C_1..C_k, phi) the conservative field is
``xi_pi = Pi grad H`` and the full field adds the dissipative term,

    xi = Pi grad H + (g . u) g - ||g||^2 u,
    g = grad H,  u = grad phi(C_1, ..., C_k),

which is the matrix-free application of the dissipation matrix built
from g.  Points where g and u are linearly dependent are equilibria of
both fields; the normalized Gram defect

    (||g||^2 ||u||^2 - (g . u)^2) / (||g||^2 ||u||^2)   in [0, 1]

is the scale-invariant proxy used to measure distance from that set.

Field evaluation is compiled: :func:`expressions.emit` writes each of a
system's three kernels (conservative field, full field, diagnostics
record) from the trees of Pi, H and :func:`geometry.compose_entropy` (so
they run its exact chain-rule u), with each repeated subtree computed
once.  A kernel is emitted and compiled the first time it is called
for, so a run builds only the kernels it calls.  Its body is kept for
:func:`integrators.integrate` to inline, and so is a field's tail: the
field from the diagnostics' g, u, g.u and |g|^2, which fixed-mode stage 1
runs after them.  The
equilibrium analysis reads grad H and grad phi(C) from the compiled
scalar fields of :mod:`geometry`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from sys import float_info
from typing import Callable, Optional, Sequence

import numpy as np

from . import expressions as ex
from .geometry import KernelFunction, SystemDefinition, _check_positive, as_state, compose_entropy

__all__ = [
    "DependenceReport",
    "EquilibriumReport",
    "EquilibriumConsistencyError",
    "DEFAULT_DEPENDENCE_TOL",
    "DEFAULT_EQUILIBRIUM_TOL",
    "PROP_21_SLACK",
    "conservative_field",
    "metriplectic_field",
    "field_function",
    "diagnostics_function",
    "linear_dependence",
    "dependence_defect",
    "classify_equilibrium",
]

DEFAULT_DEPENDENCE_TOL = 1e-10
DEFAULT_EQUILIBRIUM_TOL = 1e-9
PROP_21_SLACK = 10.0


class EquilibriumConsistencyError(RuntimeError):
    """A full-field equilibrium failed to be a conservative-field one."""


# ---------------------------------------------------------------------------
# Code generation

def _generate(sys: SystemDefinition, kind: str) -> Optional[list]:
    """Body of the ``conservative``, ``metriplectic`` or ``diagnostics`` kernel, or of a field's ``<kind>-tail``:
    the field from the diagnostics body's locals g1..gn, u1..un, hu and hh (None without Casimirs)."""
    n, h = sys.n, sys.hamiltonian
    names = [f"x{i + 1}" for i in range(n)]
    grad_h = [(f"g{i + 1}", g) for i, g in enumerate(h.gradient)]
    dot = lambda a, b: functools.reduce(ex.Add, map(ex.Mul, a, b))  # a1*b1 + a2*b2 + ..., in order
    conservative = kind.startswith("conservative") or sys.k == 0

    def field(g, u, hu, hh):  # Pi grad H over nonzero Pi_ij, plus (g . u) g - (g . g) u for the full field
        nonzero = [[(p, g_j) for p, g_j in zip(row, g) if p != ex.Num(0.0)] for row in sys.poisson.entries]
        xi_pi = [dot(*zip(*pairs)) if pairs else ex.Num(0.0) for pairs in nonzero]
        return [(None, xi if conservative else ex.Sub(ex.Add(xi, ex.Mul(hu, g_i)), ex.Mul(hh, u_i)))
                for xi, g_i, u_i in zip(xi_pi, g, u or g)]

    if kind.endswith("-tail"):
        leaf = [ex.Var(i) for i in range(n + 1, 3 * n + 3)]  # after x1..xn: g1..gn, u1..un, hu, hh
        local = [f"{p}{i + 1}" for p in "gu" for i in range(n)] + ["hu", "hh"]
        return None if sys.k == 0 else ex.emit(field(leaf[:n], leaf[n:-2], *leaf[-2:]), names + local)
    if conservative and kind != "diagnostics":
        return ex.emit(grad_h + field(h.gradient, None, None, None), names)
    if sys.k == 0:
        return ex.emit([("hval", h.value)], names) + ["return (hval, 0.0, 0.0, 0.0)"]
    entropy = compose_entropy(sys)
    g, u = h.gradient, entropy.gradient
    grad_phi = [(f"u{i + 1}", u_i) for i, u_i in enumerate(u)]
    hu, hh = dot(g, u), dot(g, g)
    if kind == "diagnostics":
        scalars = [("hval", h.value)] + grad_h + grad_phi + [("phival", entropy.value)]
        return ex.emit(scalars + [("hu", hu), ("hh", hh), ("uu", dot(u, u))], names) + [
            "sdot = hu*hu - hh*uu",
            "denom = hh*uu",
            f"if 0.0 < denom <= {float_info.max!r}: defect = (denom - hu*hu)/denom",  # else linear_dependence's rule
            f"else: defect = dependence([{', '.join(dict(grad_h))}], [{', '.join(dict(grad_phi))}]).normalized_defect",
            "defect = 0.0 if defect < 0.0 else 1.0 if defect > 1.0 else defect",
            "return (hval, phival, sdot, defect)",
        ]
    return ex.emit(grad_h + grad_phi + field(g, u, hu, hh), names)


def _compiled(sys: SystemDefinition, kind: str) -> Callable:
    """The ``kind`` kernel of ``sys``, emitted and compiled on its first use; its body is kept too."""
    kernel = sys._compiled.get(kind)
    if kernel is None:
        label = f"{sys.name or 'system'}-{kind}"
        env = {**ex.SOURCE_ENV, "dependence": linear_dependence}  # the diagnostics kernel's rare branch
        body = sys._compiled["body", kind] = _generate(sys, kind)
        kernel = sys._compiled[kind] = ex.compile_kernels(sys.n, {kind: body}, label, env)[kind]
    return kernel


def field_function(sys: SystemDefinition, kind: str) -> Callable[[np.ndarray], np.ndarray]:
    """Fast state -> derivative callable for ``kind`` in {conservative, metriplectic}."""
    if kind not in ("conservative", "metriplectic"):
        raise ValueError(f"unknown field kind {kind!r}")
    if ("body", kind + "-tail") not in sys._compiled:
        sys._compiled["body", kind + "-tail"] = _generate(sys, kind + "-tail")
    return KernelFunction(sys.n, _compiled(sys, kind), np.array, (kind, sys._compiled))


def diagnostics_function(sys: SystemDefinition) -> Callable[[np.ndarray], tuple]:
    """Per-state record ``(H, phi(C), entropy production, dependence defect)``."""
    return KernelFunction(sys.n, _compiled(sys, "diagnostics"), tuple, ("diagnostics", sys._compiled))


def conservative_field(sys: SystemDefinition, x: Sequence[float]) -> np.ndarray:
    """``Pi(x) grad H(x)``."""
    return np.array(_compiled(sys, "conservative")(as_state(x, sys.n)))


def metriplectic_field(sys: SystemDefinition, x: Sequence[float]) -> np.ndarray:
    """``Pi grad H + G grad phi(C)`` with the dissipation applied matrix-free."""
    return np.array(_compiled(sys, "metriplectic")(as_state(x, sys.n)))


# ---------------------------------------------------------------------------
# Linear dependence and equilibria

@dataclass(frozen=True)
class DependenceReport:
    """Whether two gradients are (numerically) linearly dependent.

    ``lam`` is the coefficient with ``u = lam * v`` when it is defined;
    it is absent when v vanishes (degenerate dependence).
    """

    dependent: bool
    lam: Optional[float]
    gram_defect: float
    normalized_defect: float


def linear_dependence(
    u: Sequence[float],
    v: Sequence[float],
    tol: float = DEFAULT_DEPENDENCE_TOL,
) -> DependenceReport:
    """Scale-invariant dependence test via the normalized Gram defect.

    ``tol`` bounds the normalized defect and must be a finite number > 0.
    A zero vector (all components 0) is dependent with defect 0.  Where
    ``||u||^2 ||v||^2`` is 0 or not finite, both vectors are divided by their
    sup norms first (the diagnostics kernel's defect comes from here then) and
    ``lam`` and the Gram defect scaled back; a non-finite component leaves nan defects.
    """
    uu_vec = np.asarray(u, dtype=float)
    vv_vec = np.asarray(v, dtype=float)
    if uu_vec.shape != vv_vec.shape or uu_vec.ndim != 1:
        raise ValueError(f"shape mismatch: {uu_vec.shape} vs {vv_vec.shape}")
    _check_positive(tol, "tolerance")
    zero = not (uu_vec.any() and vv_vec.any())
    su = sv = 1.0
    uu, vv, uv = _dots(uu_vec, vv_vec)
    if not zero and not 0.0 < uu * vv < math.inf:
        su, sv = float(np.max(np.abs(uu_vec))), float(np.max(np.abs(vv_vec)))
        uu, vv, uv = _dots(uu_vec, vv_vec, su, sv)
    gram = 0.0 if zero else max(uu * vv - uv * uv, 0.0)  # max keeps a nan first argument
    normalized = 0.0 if zero else gram / (uu * vv)
    dependent = normalized <= tol
    lam = uv / vv * su / sv if (dependent and vv > 0.0) else None
    return DependenceReport(
        dependent=dependent, lam=lam, gram_defect=gram * su * su * sv * sv, normalized_defect=normalized
    )


def _dots(u: np.ndarray, v: np.ndarray, su: float = 1.0, sv: float = 1.0) -> tuple:
    """``(u . u, v . v, u . v)`` of u / su and v / sv; overflow gives inf, inf * 0 and inf / inf nan, unwarned."""
    with np.errstate(over="ignore", invalid="ignore"):
        u, v = u / su, v / sv
        return float(np.dot(u, u)), float(np.dot(v, v)), float(np.dot(u, v))


def dependence_defect(sys: SystemDefinition, x: Sequence[float]) -> float:
    """Normalized Gram defect of (grad H, grad phi(C)) at ``x``.

    Continuous in the state, zero exactly on the linear-dependence set.
    """
    return _compiled(sys, "diagnostics")(as_state(x, sys.n))[3]


@dataclass(frozen=True)
class EquilibriumReport:
    point: np.ndarray
    is_xi_pi_equilibrium: bool
    is_xi_equilibrium: bool
    dependence: DependenceReport
    xi_pi_norm: float
    xi_norm: float
    threshold: float


def _equilibrium_threshold(point: np.ndarray, tol: float = DEFAULT_EQUILIBRIUM_TOL) -> float:
    """The largest field norm ``tol * (1 + ||x||_inf)`` at which ``point`` is an equilibrium."""
    return tol * (1.0 + float(np.max(np.abs(point))))


def classify_equilibrium(
    sys: SystemDefinition,
    x: Sequence[float],
    tol: float = DEFAULT_EQUILIBRIUM_TOL,
) -> EquilibriumReport:
    """Test ``x`` against both fields with threshold ``tol * (1 + ||x||_inf)``.

    A full-field equilibrium must also be a conservative-field one; that
    implication is checked (with slack ``PROP_21_SLACK``) on every call and
    a violation raises :class:`EquilibriumConsistencyError`.  ``tol`` must
    be a finite number > 0.
    """
    _check_positive(tol, "tolerance")
    point = np.asarray(x, dtype=float)
    xi_pi = conservative_field(sys, point)
    xi = metriplectic_field(sys, point)
    g = sys.hamiltonian.gradient_at(point)
    u = compose_entropy(sys).gradient_at(point)
    thr = _equilibrium_threshold(point, tol)
    xi_pi_norm = float(np.max(np.abs(xi_pi)))
    xi_norm = float(np.max(np.abs(xi)))
    is_xi = xi_norm <= thr
    is_xi_pi = xi_pi_norm <= thr
    if is_xi and xi_pi_norm > PROP_21_SLACK * thr:
        raise EquilibriumConsistencyError(
            f"full-field equilibrium at {point.tolist()} is not a conservative one: "
            f"|xi_pi| = {xi_pi_norm:.3e} vs threshold {thr:.3e}"
        )
    return EquilibriumReport(
        point=point,
        is_xi_pi_equilibrium=is_xi_pi,
        is_xi_equilibrium=is_xi,
        dependence=linear_dependence(g, u),
        xi_pi_norm=xi_pi_norm,
        xi_norm=xi_norm,
        threshold=thr,
    )
