"""Dissipative perturbations of Hamilton-Poisson systems.

Given a Poisson matrix Pi(x), a Hamiltonian H, Casimir functions
C_1..C_k, and an entropy shaper phi, the library builds the symmetric
dissipation matrix ``G = grad H grad H^T - ||grad H||^2 I``, simulates
``dx/dt = Pi grad H + G grad phi(C)``, and numerically certifies the
structural conditions (Casimir residuals, energy orthogonality, entropy
decay), the energy-Casimir stability test, and trajectory convergence to
the set where grad H and grad phi(C) are linearly dependent.
"""

__version__ = "0.1.0"

from .expressions import (
    EvaluationError,
    Expression,
    ExpressionError,
    ExpressionSyntaxError,
    UnknownIdentifierError,
    VariableIndexError,
    differentiate,
    evaluate,
    parse,
    substitute,
    to_string,
)
from .geometry import (
    AntisymmetryError,
    CasimirError,
    CasimirReport,
    PoissonStructure,
    ScalarField,
    SystemDefinition,
    VerificationPolicy,
    compose_entropy,
    poisson_matrix,
    sample_box,
    verify_casimir,
)
from .dissipation import (
    ConditionReport,
    DissipationMatrix,
    apply_dissipation,
    build_dissipation_matrix,
    entropy_production,
    verify_metriplectic_conditions,
)
from .dynamics import (
    DependenceReport,
    EquilibriumConsistencyError,
    EquilibriumReport,
    classify_equilibrium,
    conservative_field,
    dependence_defect,
    diagnostics_function,
    field_function,
    linear_dependence,
    metriplectic_field,
)
from .integrators import (
    DivergenceError,
    IntegrationError,
    MonitorSummary,
    StepControl,
    Trajectory,
    integrate,
    rk4_step,
)
from .stability import (
    LaSalleReport,
    LyapunovReport,
    hessian,
    lasalle_diagnostics,
    lyapunov_report,
)
from .systems import (
    BUILTIN_SYSTEMS,
    ConfigError,
    RigidBodyParams,
    load_system,
    load_system_file,
    rigid_body_perturbed_rhs,
    rigid_body_system,
)

__all__ = [name for name in dir() if not name.startswith("_")]
