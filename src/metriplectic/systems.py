"""Built-in free rigid body and ingestion of user-defined systems.

The angular-momentum equations

    dx1/dt = a1 x2 x3,   dx2/dt = a2 x1 x3,   dx3/dt = a3 x1 x2,

    a1 = 1/I3 - 1/I2,  a2 = 1/I1 - 1/I3,  a3 = 1/I2 - 1/I1,

with inertia components I1 > I2 > I3 > 0, arise from the antisymmetric
matrix [[0, -x3, x2], [x3, 0, -x1], [-x2, x1, 0]] and the Hamiltonian
H = (x1^2/I1 + x2^2/I2 + x3^2/I3)/2; the squared momentum norm
C = ||x||^2/2 is a Casimir.  The entropy shaper

    phi(s) = (s - M0^2/2)^2 - s/I1

puts the dissipatively perturbed dynamics' attracting set through the
equilibrium (M0, 0, 0).  Since phi'(s) = 2s - M0^2 - 1/I1, the scalar
factor in the hand-expanded perturbed equations is
``x1^2 + x2^2 + x3^2 - c`` with ``c = M0^2 + 1/I1``; that hand-expanded
form is kept as an independent oracle for the generic field assembly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import expressions as ex
from .geometry import (
    AntisymmetryError,
    CasimirError,
    PoissonStructure,
    ScalarField,
    SystemDefinition,
    VerificationPolicy,
)

__all__ = [
    "RigidBodyParams",
    "ConfigError",
    "rigid_body_system",
    "rigid_body_perturbed_rhs",
    "load_system",
    "load_system_file",
    "BUILTIN_SYSTEMS",
]


class ConfigError(ValueError):
    """A system document violates the schema."""


@dataclass(frozen=True)
class RigidBodyParams:
    """Inertia components (strictly ordered) and the target momentum M0."""

    I1: float = 3.0
    I2: float = 2.0
    I3: float = 1.0
    M0: float = 1.0

    def __post_init__(self):
        if not (self.I1 > self.I2 > self.I3 > 0.0):
            raise ValueError(
                f"inertia components must satisfy I1 > I2 > I3 > 0, "
                f"got ({self.I1}, {self.I2}, {self.I3})"
            )
        if not all(math.isfinite(v) for v in (self.I1, self.I2, self.I3, self.M0)):
            raise ValueError("parameters must be finite")

    @property
    def a1(self) -> float:
        return 1.0 / self.I3 - 1.0 / self.I2

    @property
    def a2(self) -> float:
        return 1.0 / self.I1 - 1.0 / self.I3

    @property
    def a3(self) -> float:
        return 1.0 / self.I2 - 1.0 / self.I1

    @property
    def c_phi(self) -> float:
        """Constant in the expanded dissipative factor, M0^2 + 1/I1."""
        return self.M0 * self.M0 + 1.0 / self.I1


_RIGID_POISSON = [["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]]


def rigid_body_system(
    params: RigidBodyParams = RigidBodyParams(),
    verification: VerificationPolicy = VerificationPolicy(),
) -> SystemDefinition:
    """The rigid body as a 3-dimensional system with one Casimir."""
    hamiltonian = f"(x1^2/{params.I1!r} + x2^2/{params.I2!r} + x3^2/{params.I3!r})/2"
    casimir = "(x1^2 + x2^2 + x3^2)/2"
    phi = f"(s1 - {0.5 * params.M0 * params.M0!r})^2 - s1/{params.I1!r}"
    return SystemDefinition(
        poisson=PoissonStructure.from_strings(_RIGID_POISSON),
        hamiltonian=ScalarField.from_string(hamiltonian, 3),
        casimirs=[ScalarField.from_string(casimir, 3)],
        phi=ex.parse(phi, 1, "s"),
        name="rigid-body",
        verification=verification,
    )


def rigid_body_perturbed_rhs(params: RigidBodyParams, x: Sequence[float]) -> np.ndarray:
    """Hand-expanded right-hand side of the perturbed rigid body.

    Written directly from the componentwise equations (independent of the
    expression layer and the generic field assembly) so the two can be
    compared against each other.
    """
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"state must have 3 components, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"state must be finite, got {v.tolist()}")
    x1, x2, x3 = float(v[0]), float(v[1]), float(v[2])
    a1, a2, a3 = params.a1, params.a2, params.a3
    s = x1 * x1 + x2 * x2 + x3 * x3 - params.c_phi
    return np.array(
        [
            a1 * x2 * x3 + x1 * s * (-(a3 / params.I2) * x2 * x2 + (a2 / params.I3) * x3 * x3),
            a2 * x1 * x3 + x2 * s * ((a3 / params.I1) * x1 * x1 - (a1 / params.I3) * x3 * x3),
            a3 * x1 * x2 + x3 * s * (-(a2 / params.I1) * x1 * x1 + (a1 / params.I2) * x2 * x2),
        ]
    )


# ---------------------------------------------------------------------------
# Configuration documents

_TOP_LEVEL_KEYS = {"name", "dimension", "poisson", "hamiltonian", "casimirs", "phi", "verification"}
_VERIFICATION_KEYS = {"box", "samples", "tolerance", "seed"}


def _parse_field(text, arity: int, where: str, prefix: str = "x") -> ex.Expression:
    if not isinstance(text, str):
        raise ConfigError(f"{where}: expected an expression string, got {type(text).__name__}")
    try:
        return ex.parse(text, arity, prefix)
    except ex.ExpressionError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _verification_policy(doc: dict) -> VerificationPolicy:
    block = doc.get("verification")
    if block is None:
        return VerificationPolicy()
    if not isinstance(block, dict):
        raise ConfigError("verification: expected an object")
    unknown = set(block) - _VERIFICATION_KEYS
    if unknown:
        raise ConfigError(f"verification: unknown keys {sorted(unknown)}")
    defaults = VerificationPolicy()
    for key in ("samples", "seed"):
        if isinstance(block.get(key), (bool, float)):  # int() would truncate 2.5 and take true as 1
            raise ConfigError(f"verification.{key}: expected an integer, got {json.dumps(block[key])}")
    box = block.get("box", list(defaults.box))
    if not (isinstance(box, (list, tuple)) and len(box) == 2):
        raise ConfigError("verification.box: expected [lo, hi]")
    try:
        return VerificationPolicy(
            box=(float(box[0]), float(box[1])),
            samples=int(block.get("samples", defaults.samples)),
            tolerance=float(block.get("tolerance", defaults.tolerance)),
            seed=int(block.get("seed", defaults.seed)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"verification: {exc}") from exc


def load_system(document: dict, verification: VerificationPolicy | None = None) -> SystemDefinition:
    """Build a :class:`SystemDefinition` from a JSON-compatible document.

    All expressions are parsed eagerly and each declared Casimir is proved
    or else verified by sampling (per the document's ``verification`` block,
    or the default policy), so failures surface at load rather than during
    a simulation.  ``verification`` overrides the document's block when
    given; the block is still checked against the schema.

    Schema::

        { "name": str?, "dimension": n, "poisson": [[expr; n]; n],
          "hamiltonian": expr, "casimirs": [expr, ...]?, "phi": expr?,
          "verification": {"box": [lo, hi], "samples": int,
                           "tolerance": real, "seed": int}? }
    """
    if not isinstance(document, dict):
        raise ConfigError(f"expected an object at top level, got {type(document).__name__}")
    unknown = set(document) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}")
    for key in ("dimension", "poisson", "hamiltonian"):
        if key not in document:
            raise ConfigError(f"missing required key {key!r}")

    n = document["dimension"]
    if type(n) is not int or n < 1:  # JSON true is an int to isinstance
        raise ConfigError(f"dimension: expected a positive integer, got {n!r}")

    rows = document["poisson"]
    if not (isinstance(rows, list) and len(rows) == n and all(isinstance(r, list) and len(r) == n for r in rows)):
        raise ConfigError(f"poisson: expected an {n}x{n} grid of expression strings")
    entries = [
        [_parse_field(rows[i][j], n, f"poisson[{i}][{j}]") for j in range(n)]
        for i in range(n)
    ]

    hamiltonian = _parse_field(document["hamiltonian"], n, "hamiltonian")
    casimir_texts = document.get("casimirs", [])
    if not isinstance(casimir_texts, list):
        raise ConfigError("casimirs: expected a list of expression strings")
    casimirs = [
        ScalarField.from_expression(_parse_field(text, n, f"casimirs[{i}]"), n)
        for i, text in enumerate(casimir_texts)
    ]
    phi = _parse_field(document["phi"], max(len(casimirs), 1), "phi", prefix="s") if "phi" in document else None
    policy = _verification_policy(document)  # checked also when overridden
    name = document.get("name", "")
    if not isinstance(name, str):
        raise ConfigError("name: expected a string")
    try:
        return SystemDefinition(
            poisson=PoissonStructure(n, entries),
            hamiltonian=ScalarField.from_expression(hamiltonian, n),
            casimirs=casimirs,
            phi=phi,
            name=name,
            verification=verification or policy,
        )
    except (CasimirError, AntisymmetryError):
        raise  # already carries the worst point / residual
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_system_file(path: str | Path, verification: VerificationPolicy | None = None) -> SystemDefinition:
    """Load a JSON system document from disk."""
    text = Path(path).read_text()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return load_system(document, verification)


BUILTIN_SYSTEMS = {
    "rigid-body": rigid_body_system,
}
