"""The package's public names, pinned, and the test oracles kept out of it.

The oracles in ``tests/oracles.py`` and the array RK4 step in
``tests/reference_stepper.py`` check the pipeline; the package does not run
them, so none of them is reachable from ``metriplectic``.
"""

import importlib

import pytest

import metriplectic as mp

PACKAGE_ALL = [
    "AntisymmetryError", "BUILTIN_SYSTEMS", "CasimirError", "CasimirReport", "ConditionReport", "ConfigError",
    "DependenceReport", "DissipationMatrix", "DivergenceError", "EquilibriumConsistencyError", "EquilibriumReport",
    "EvaluationError", "Expression", "ExpressionError", "ExpressionSyntaxError", "IntegrationError",
    "LaSalleReport", "LyapunovReport", "MonitorSummary", "PoissonStructure", "RigidBodyParams", "ScalarField",
    "StepControl", "SystemDefinition", "Trajectory", "UnknownIdentifierError", "VariableIndexError",
    "VerificationPolicy", "build_dissipation_matrix", "classify_equilibrium", "compose_entropy",
    "conservative_field", "dependence_defect", "diagnostics_function", "differentiate", "dissipation", "dynamics",
    "entropy_production", "evaluate", "expressions", "field_function", "geometry", "integrate", "integrators",
    "lasalle_diagnostics", "linear_dependence", "load_system", "load_system_file", "lyapunov_report",
    "metriplectic_field", "parse", "poisson_matrix", "rigid_body_system", "sample_box", "stability", "substitute",
    "systems", "to_string", "verify_casimir", "verify_metriplectic_conditions",
]

MODULE_ALL = {
    "expressions": [
        "Expression", "Num", "Var", "Neg", "Fun", "Add", "Sub", "Mul", "Div", "Pow", "ExpressionError",
        "ExpressionSyntaxError", "UnknownIdentifierError", "VariableIndexError", "EvaluationError", "parse",
        "evaluate", "differentiate", "substitute", "to_string", "to_source", "emit", "compile_kernels",
        "exec_source", "max_var_index", "FUNCTIONS",
    ],
    "geometry": [
        "PoissonStructure", "ScalarField", "SystemDefinition", "VerificationPolicy", "CasimirReport",
        "CasimirError", "AntisymmetryError", "poisson_matrix", "verify_casimir", "compose_entropy", "sample_box",
    ],
    "dissipation": [
        "DissipationMatrix", "ConditionReport", "build_dissipation_matrix", "entropy_production",
        "verify_metriplectic_conditions",
    ],
    "dynamics": [
        "DependenceReport", "EquilibriumReport", "EquilibriumConsistencyError", "DEFAULT_DEPENDENCE_TOL",
        "DEFAULT_EQUILIBRIUM_TOL", "PROP_21_SLACK", "conservative_field", "metriplectic_field", "field_function",
        "diagnostics_function", "linear_dependence", "dependence_defect", "classify_equilibrium",
    ],
    "integrators": [
        "StepControl", "Trajectory", "MonitorSummary", "IntegrationError", "DivergenceError",
        "FieldEvaluationError", "integrate", "DIAGNOSTIC_COLUMNS",
    ],
    "stability": ["LyapunovReport", "LaSalleReport", "PD_TOL", "lyapunov_report", "lasalle_diagnostics"],
    "systems": ["RigidBodyParams", "ConfigError", "rigid_body_system", "load_system", "load_system_file",
                "BUILTIN_SYSTEMS"],
}

# (owner, name): each lives in tests/, and nothing of the package reaches it
MOVED = [
    (mp, "rk4_step"), (mp, "hessian"), (mp, "apply_dissipation"), (mp, "rigid_body_perturbed_rhs"),
    (mp.integrators, "rk4_step"), (mp.stability, "hessian"), (mp.stability, "DEFAULT_FD_SCALE"),
    (mp.dissipation, "apply_dissipation"), (mp.systems, "rigid_body_perturbed_rhs"),
    (mp.ScalarField, "from_expression"), (mp.RigidBodyParams, "a1"), (mp.RigidBodyParams, "a2"),
    (mp.RigidBodyParams, "a3"), (mp.RigidBodyParams, "c_phi"),
]


def test_the_package_exports_exactly_its_pinned_names():
    assert sorted(mp.__all__) == PACKAGE_ALL
    assert all(hasattr(mp, name) for name in mp.__all__)


@pytest.mark.parametrize("module", sorted(MODULE_ALL))
def test_each_module_exports_exactly_its_pinned_names(module):
    mod = importlib.import_module(f"metriplectic.{module}")
    assert mod.__all__ == MODULE_ALL[module]
    assert all(hasattr(mod, name) for name in mod.__all__)


@pytest.mark.parametrize("owner, name", MOVED, ids=[f"{getattr(o, '__name__', o)}.{n}" for o, n in MOVED])
def test_no_test_oracle_is_reachable_from_the_package(owner, name):
    assert not hasattr(owner, name)

