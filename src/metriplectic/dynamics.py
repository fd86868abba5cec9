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

Field evaluation is compiled: the component formulas are assembled once
per system into plain Python arithmetic (shared subterms hoisted into
locals) so that long integrations stay cheap.  The lines for u come from
the chain-rule trees that :func:`geometry.compose_entropy` also builds
from, so its finite-difference check covers the gradient the kernels
run.  The equilibrium analysis reads grad H and grad phi(C) from the
compiled scalar fields of :mod:`geometry`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import expressions as ex
from .geometry import KernelFunction, SystemDefinition, _chain_rule, _check_positive, as_state, compose_entropy

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

def _xi_pi_sources(sys: SystemDefinition, names) -> list[str]:
    """Per-component source of Pi(x) grad H(x); zero entries are dropped."""
    rows = []
    for i in range(sys.n):
        terms = []
        for j in range(sys.n):
            entry = sys.poisson.entries[i][j]
            if isinstance(entry, ex.Num) and entry.value == 0.0:
                continue
            terms.append(f"{ex.to_source(entry, names)}*g{j + 1}")
        rows.append(" + ".join(terms) if terms else "0.0")
    return rows


def _generate(sys: SystemDefinition) -> dict:
    """Bodies of the ``conservative``, ``metriplectic`` and ``diagnostics`` kernels."""
    n, k = sys.n, sys.k
    names = [f"x{i + 1}" for i in range(n)]
    grad_h = [f"g{i + 1} = {ex.to_source(g, names)}" for i, g in enumerate(sys.hamiltonian.gradient)]
    xi_pi = _xi_pi_sources(sys, names)
    dot = lambda a, b: " + ".join(f"{a}{i + 1}*{b}{i + 1}" for i in range(n))
    tuple_of = lambda comps: "return (" + ", ".join(comps) + ("," if n == 1 else "") + ")"
    hval = f"hval = {ex.to_source(sys.hamiltonian.value, names)}"

    conservative = grad_h + [tuple_of(xi_pi)]
    if k == 0:
        return {"conservative": conservative, "metriplectic": conservative,
                "diagnostics": [hval, "return (hval, 0.0, 0.0, 0.0)"]}
    # hoist each Casimir and phi-partial into a local, then u = grad phi(C)
    phi, partials, gradient = _chain_rule(sys)
    cnames = [f"c{l + 1}" for l in range(k)]
    unames = names + [f"f{l + 1}" for l in range(k)]
    grad_hu = grad_h + [f"c{l + 1} = {ex.to_source(c.value, names)}" for l, c in enumerate(sys.casimirs)]
    grad_hu += [f"f{l + 1} = {ex.to_source(f, cnames)}" for l, f in enumerate(partials)]
    grad_hu += [f"u{i + 1} = {ex.to_source(u, unames)}" for i, u in enumerate(gradient)]
    products = [f"hu = {dot('g', 'u')}", f"hh = {dot('g', 'g')}"]
    return {
        "conservative": conservative,
        "metriplectic": grad_hu + products + [tuple_of(f"{xi_pi[i]} + hu*g{i + 1} - hh*u{i + 1}" for i in range(n))],
        "diagnostics": [hval] + grad_hu + [f"phival = {ex.to_source(phi, cnames)}"] + products + [
            f"uu = {dot('u', 'u')}",
            "sdot = hu*hu - hh*uu",
            "denom = hh*uu",
            "if denom > 0.0:",
            "    defect = (denom - hu*hu)/denom",
            "    if defect < 0.0:",
            "        defect = 0.0",
            "    elif defect > 1.0:",
            "        defect = 1.0",
            "else:",
            "    defect = 0.0",
            "return (hval, phival, sdot, defect)",
        ],
    }


def _compiled(sys: SystemDefinition) -> dict:
    if sys._compiled is None:
        # compose_entropy checks, by finite differences, the chain rule the kernels emit
        compose_entropy(sys)
        sys._compiled = ex.compile_kernels(sys.n, _generate(sys), f"{sys.name or 'system'}-dynamics")
    return sys._compiled


def field_function(sys: SystemDefinition, kind: str) -> Callable[[np.ndarray], np.ndarray]:
    """Fast state -> derivative callable for ``kind`` in {conservative, metriplectic}."""
    if kind not in ("conservative", "metriplectic"):
        raise ValueError(f"unknown field kind {kind!r}")
    return KernelFunction(sys.n, _compiled(sys)[kind], np.array)


def diagnostics_function(sys: SystemDefinition) -> Callable[[np.ndarray], tuple]:
    """Per-state record ``(H, phi(C), entropy production, dependence defect)``."""
    return KernelFunction(sys.n, _compiled(sys)["diagnostics"], tuple)


def conservative_field(sys: SystemDefinition, x: Sequence[float]) -> np.ndarray:
    """``Pi(x) grad H(x)``."""
    return np.array(_compiled(sys)["conservative"](as_state(x, sys.n)))


def metriplectic_field(sys: SystemDefinition, x: Sequence[float]) -> np.ndarray:
    """``Pi grad H + G grad phi(C)`` with the dissipation applied matrix-free."""
    return np.array(_compiled(sys)["metriplectic"](as_state(x, sys.n)))


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
    When ``||u||^2 ||v||^2`` overflows, both vectors are divided by their
    sup norms first (the normalized defect does not change) and ``lam``
    and the Gram defect are scaled back.
    """
    uu_vec = np.asarray(u, dtype=float)
    vv_vec = np.asarray(v, dtype=float)
    if uu_vec.shape != vv_vec.shape or uu_vec.ndim != 1:
        raise ValueError(f"shape mismatch: {uu_vec.shape} vs {vv_vec.shape}")
    _check_positive(tol, "tolerance")
    su = sv = 1.0
    uu, vv, uv = _dots(uu_vec, vv_vec)
    if uu * vv == math.inf:
        su, sv = float(np.max(np.abs(uu_vec))), float(np.max(np.abs(vv_vec)))
        uu, vv, uv = _dots(uu_vec / su, vv_vec / sv)
    gram = max(0.0, uu * vv - uv * uv)
    normalized = gram / (uu * vv) if uu * vv > 0.0 else 0.0  # the diagnostics kernel's guard
    dependent = normalized <= tol
    lam = uv / vv * su / sv if (dependent and vv > 0.0) else None
    return DependenceReport(
        dependent=dependent, lam=lam, gram_defect=gram * su * su * sv * sv, normalized_defect=normalized
    )


def _dots(u: np.ndarray, v: np.ndarray) -> tuple:
    """``(u . u, v . v, u . v)``; an overflow gives inf, and inf * 0 nan, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.dot(u, u)), float(np.dot(v, v)), float(np.dot(u, v))


def dependence_defect(sys: SystemDefinition, x: Sequence[float]) -> float:
    """Normalized Gram defect of (grad H, grad phi(C)) at ``x``.

    Continuous in the state, zero exactly on the linear-dependence set.
    """
    return _compiled(sys)["diagnostics"](as_state(x, sys.n))[3]


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
