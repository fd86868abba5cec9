"""Command-line driver: verify structure conditions, classify equilibria, simulate.

Exit codes: 0 success/pass, 1 verification failure, 2 usage or load
error, 3 runtime divergence or escape.  Reports are JSON; trajectories
are CSV with 17-significant-digit decimals and '\\n' line endings, so a
rerun of the same fixed-step manifest reproduces the bytes exactly.
The argument parser is built once per process, at the first :func:`main`
call, and reused: parsing never changes it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
import time
import warnings
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .dynamics import DEFAULT_EQUILIBRIUM_TOL, EquilibriumConsistencyError, classify_equilibrium
from .dynamics import diagnostics_function, field_function
from .dissipation import verify_metriplectic_conditions
from .expressions import EvaluationError
from .geometry import AntisymmetryError, CasimirError, SystemDefinition, VerificationPolicy, sample_box
from .integrators import DIVERGENCE_BOUND, DivergenceError, IntegrationError, StepControl, Trajectory, integrate
from .stability import DEFECT_TOL, PD_TOL, TAIL_FRACTION, _check_lasalle_arguments
from .stability import lasalle_diagnostics, lyapunov_report
from .systems import BUILTIN_SYSTEMS, ConfigError, RigidBodyParams, load_system_file, rigid_body_system

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3

CSV_COLUMNS = ("H", "phiC", "entropy_production", "dependence_defect")


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _parse_params(text: Optional[str]) -> dict:
    if not text:
        return {}
    params = {}
    for item in text.split(","):
        if "=" not in item:
            raise _CliError(f"malformed parameter override {item!r}; expected KEY=VALUE")
        key, value = item.split("=", 1)
        try:
            params[key.strip()] = float(value)
        except ValueError:
            raise _CliError(f"parameter {key!r} has non-numeric value {value!r}") from None
    return params


def _parse_vector(text: str, what: str) -> np.ndarray:
    try:
        vector = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise _CliError(f"malformed {what} {text!r}; expected comma-separated numbers") from None
    if not np.all(np.isfinite(vector)):
        raise _CliError(f"{what} {text!r} has a non-finite component")
    return vector


def _resolve_system(args, verification: Optional[VerificationPolicy] = None) -> SystemDefinition:
    if args.config:
        if args.params:
            raise _CliError("--params overrides built-in parameters and cannot be used with --config")
        try:
            return load_system_file(args.config, verification)
        except (ConfigError, CasimirError, AntisymmetryError, EvaluationError, OSError) as exc:
            raise _CliError(f"cannot load {args.config}: {exc}") from exc
    name = args.system
    if name not in BUILTIN_SYSTEMS:
        raise _CliError(f"unknown system {name!r}; built-ins: {sorted(BUILTIN_SYSTEMS)}")
    params = _parse_params(args.params)
    unknown = set(params) - {"I1", "I2", "I3", "M0"}
    if unknown:
        raise _CliError(f"unknown rigid-body parameters {sorted(unknown)}")
    try:
        rb = RigidBodyParams(**params)
        if verification is not None:
            return rigid_body_system(rb, verification)
        return rigid_body_system(rb)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc


def _system_label(args) -> str:
    return args.config if args.config else args.system


def _strict(value):
    """``value`` with each non-finite float as the string "NaN", "Infinity" or "-Infinity"."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if value != value else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_strict(payload), indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_manifest(out_dir: Path, command: str, args, outputs: list, tolerances: dict) -> None:
    manifest = {
        "command": command,
        "system": _system_label(args),
        "parameter_overrides": _parse_params(getattr(args, "params", None)),
        "seed": getattr(args, "seed", None),
        "tolerances": tolerances,
        "outputs": [str(p) for p in outputs],
        "argv": list(_sys.argv[1:]) if _sys.argv else [],
        "version": __version__,
    }
    _write_json(out_dir / "run_manifest.json", manifest)


def _write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    n = traj.n
    header = ["t"] + [f"x{i + 1}" for i in range(n)] + list(CSV_COLUMNS)
    # "%.17g" % v is the same text as f"{v:.17g}", nan and inf included
    row = ",".join(["%.17g"] * (n + 1) + ["%.17g" if traj.diagnostics is not None else "nan"] * 4) + "\n"
    columns = [traj.times, traj.states] + ([traj.diagnostics] if traj.diagnostics is not None else [])
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(traj), 1000):  # blocks bound the memory of the text
            block = np.column_stack([c[lo:lo + 1000] for c in columns])
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_verify(args) -> int:
    out_dir = Path(args.out_dir)
    policy = VerificationPolicy((args.box_lo, args.box_hi), args.samples, args.tol, args.seed)
    # defer load-time Casimir checking: this command's whole job is to
    # measure the condition residuals and report them
    sys_def = _resolve_system(args, VerificationPolicy(samples=0))
    points = sample_box(sys_def.n, policy.box, policy.samples, policy.seed)
    try:
        report = verify_metriplectic_conditions(sys_def, points, args.tol)
    except EvaluationError as exc:
        raise _CliError(f"condition evaluation failed: {exc}") from exc
    payload = {
        "command": "verify",
        "system": _system_label(args),
        "samples": args.samples,
        "box": list(policy.box),
        "seed": args.seed,
        "tolerance": args.tol,
        "m1_max": report.m1_max,
        "m2_max": report.m2_max,
        "m3_max_positive": report.m3_max_positive,
        "pass": report.passed,
        "failed_conditions": report.failed_conditions(args.tol),
        "worst_points": {
            name: (p.tolist() if p is not None else None)
            for name, p in report.worst_points.items()
        },
    }
    report_path = out_dir / "verify_report.json"
    _write_json(report_path, payload)
    _write_manifest(out_dir, "verify", args, [report_path], {"condition": args.tol})
    print(f"m1_max={report.m1_max:.3e} m2_max={report.m2_max:.3e} "
          f"m3_max_positive={report.m3_max_positive:.3e} pass={report.passed}")
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_equilibrium(args) -> int:
    out_dir = Path(args.out_dir)
    sys_def = _resolve_system(args)
    point = _parse_vector(args.point, "--point")
    if len(point) != sys_def.n:
        raise _CliError(f"point has {len(point)} components, system dimension is {sys_def.n}")
    try:
        eq = classify_equilibrium(sys_def, point, args.tol)
    except EquilibriumConsistencyError as exc:
        raise _CliError(str(exc), EXIT_FAIL) from exc
    with warnings.catch_warnings():  # eq is the verdict at --tol; lyapunov_report warns at the default
        warnings.filterwarnings("ignore", "point .* is not an equilibrium", UserWarning)
        lyap = lyapunov_report(sys_def, point, pd_tol=args.pd_tol)
    payload = {
        "command": "equilibrium",
        "system": _system_label(args),
        "point": point.tolist(),
        "tolerance": args.tol,
        "is_conservative_equilibrium": eq.is_xi_pi_equilibrium,
        "is_metriplectic_equilibrium": eq.is_xi_equilibrium,
        "field_norms": {"conservative": eq.xi_pi_norm, "metriplectic": eq.xi_norm},
        "dependence": {
            "dependent": eq.dependence.dependent,
            "lambda": eq.dependence.lam,
            "gram_defect": eq.dependence.gram_defect,
            "normalized_defect": eq.dependence.normalized_defect,
        },
        "lyapunov": {
            "grad_norm": lyap.grad_norm,
            "eigenvalues": lyap.eigenvalues.tolist(),
            "positive_definite": lyap.positive_definite,
            "pd_tolerance": lyap.pd_tol,
            "hessian": lyap.hessian.tolist(),
            "offset": lyap.lyapunov_offset,
        },
    }
    report_path = out_dir / "equilibrium_report.json"
    _write_json(report_path, payload)
    _write_manifest(out_dir, "equilibrium", args, [report_path],
                    {"equilibrium": args.tol, "pd": args.pd_tol})
    print(f"conservative={eq.is_xi_pi_equilibrium} metriplectic={eq.is_xi_equilibrium} "
          f"positive_definite={lyap.positive_definite}")
    return EXIT_OK


def _summarize(traj: Trajectory, analysis, elapsed: float) -> dict:
    mon = traj.monitor
    summary = {
        "samples": len(traj),
        "steps_accepted": mon.steps_accepted,
        "steps_rejected": mon.steps_rejected,
        "status": traj.status,
        "final_state": traj.final_state.tolist(),
        "energy_drift_max": mon.max_energy_drift,
        "entropy_increase_count": mon.entropy_increase_count,
        "entropy_increase_max": mon.max_entropy_increase,
        "final_dependence_defect": float(traj.diagnostics[-1, 3]) if traj.diagnostics is not None else None,
        "runtime_seconds": elapsed,
    }
    if analysis is not None:
        summary["lasalle"] = {
            "monotone_violations": analysis.monotone_violations,
            "worst_increase": analysis.worst_increase,
            "tail_max_defect": analysis.tail_max_defect,
            "tail_spread": analysis.tail_spread.tolist(),
            "converged_to_E": analysis.converged_to_E,
        }
    return summary


def _cmd_simulate(args) -> int:
    out_dir = Path(args.out_dir)
    sys_def = _resolve_system(args)
    x0 = _parse_vector(args.x0, "--x0")
    if len(x0) != sys_def.n:
        raise _CliError(f"--x0 has {len(x0)} components, system dimension is {sys_def.n}")
    control = StepControl(
        mode="adaptive" if args.adaptive else "fixed",
        h=args.h,
        abs_tol=args.abs_tol,
        rel_tol=args.rel_tol,
        max_steps=args.max_steps,
    )
    field = field_function(sys_def, args.field)
    diagnostics = diagnostics_function(sys_def)
    guard_center = _parse_vector(args.guard_center, "--guard-center") if args.guard_center else None
    if guard_center is not None and len(guard_center) != sys_def.n:
        raise _CliError("--guard-center dimension mismatch")
    x_e = None
    if args.analyze:
        x_e = _parse_vector(args.x_e, "--x-e") if args.x_e else _default_equilibrium(args, sys_def)
        if len(x_e) != sys_def.n:
            raise _CliError("--x-e dimension mismatch")
        _check_lasalle_arguments(args.tail_fraction, args.defect_tol)

    csv_path = out_dir / "trajectory.csv"
    summary_path = out_dir / "simulate_summary.json"
    started = time.perf_counter()
    code = EXIT_OK
    try:
        traj = integrate(
            field,
            x0,
            (args.t0, args.t1),
            control,
            diagnostics=diagnostics,
            stride=args.stride,
            divergence_bound=args.divergence_bound,
            escape_center=guard_center,
            escape_radius=args.guard_radius if guard_center is not None else None,
        )
    except DivergenceError as exc:
        traj = exc.trajectory
        code = EXIT_DIVERGED
        print(f"divergence: {exc}", file=_sys.stderr)
    except IntegrationError as exc:
        raise _CliError(str(exc)) from exc
    elapsed = time.perf_counter() - started
    if traj.status == "escaped":
        code = EXIT_DIVERGED
        print("escape guard triggered; trajectory truncated", file=_sys.stderr)

    analysis = None
    if args.analyze and traj.status == "completed":
        analysis = lasalle_diagnostics(
            traj, sys_def, x_e, tail_fraction=args.tail_fraction, defect_tol=args.defect_tol
        )

    _write_trajectory_csv(csv_path, traj)
    _write_json(summary_path, _summarize(traj, analysis, elapsed))
    _write_manifest(
        out_dir, "simulate", args, [csv_path, summary_path],
        {"abs": args.abs_tol, "rel": args.rel_tol, "defect": args.defect_tol},
    )
    mon = traj.monitor
    print(f"samples={len(traj)} status={traj.status} "
          f"energy_drift={mon.max_energy_drift:.3e} "
          f"entropy_increases={mon.entropy_increase_count}")
    return code


def _default_equilibrium(args, sys_def: SystemDefinition) -> np.ndarray:
    if args.config is None and args.system == "rigid-body":
        return np.array([RigidBodyParams(**_parse_params(args.params)).M0, 0.0, 0.0])
    raise _CliError("--analyze needs --x-e for non-built-in systems")


# ---------------------------------------------------------------------------
# Argument parsing

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--system", default="rigid-body", help="built-in system name")
    sub.add_argument("--config", default=None, help="path to a JSON system document")
    sub.add_argument("--params", default=None, help="built-in parameter overrides, e.g. I1=3,I2=2,I3=1,M0=1")
    sub.add_argument("--seed", type=int, default=42, help="seed for random sampling")
    sub.add_argument("--out-dir", default=".", help="directory for reports and trajectories")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metriplectic",
        description="Verify, analyze, and simulate dissipatively perturbed Hamilton-Poisson systems.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    verify = subs.add_parser("verify", help="check the structural conditions by sampling")
    _add_common(verify)
    verify.add_argument("--samples", type=int, default=VerificationPolicy.samples)
    verify.add_argument("--box-lo", type=float, default=VerificationPolicy.box[0])
    verify.add_argument("--box-hi", type=float, default=VerificationPolicy.box[1])
    verify.add_argument("--tol", type=float, default=VerificationPolicy.tolerance)
    verify.set_defaults(func=_cmd_verify)

    equilibrium = subs.add_parser("equilibrium", help="classify a point and run the energy-Casimir test")
    _add_common(equilibrium)
    equilibrium.add_argument("--point", required=True, help="comma-separated state, e.g. 1,0,0")
    equilibrium.add_argument("--tol", type=float, default=DEFAULT_EQUILIBRIUM_TOL)
    equilibrium.add_argument("--pd-tol", type=float, default=PD_TOL)
    equilibrium.set_defaults(func=_cmd_equilibrium)

    simulate = subs.add_parser("simulate", help="integrate a field and emit trajectory + summary")
    _add_common(simulate)
    simulate.add_argument("--field", choices=("conservative", "metriplectic"), default="metriplectic")
    simulate.add_argument("--x0", required=True, help="initial state, comma-separated")
    simulate.add_argument("--t0", type=float, default=0.0)
    simulate.add_argument("--t1", type=float, required=True)
    simulate.add_argument("--h", type=float, default=StepControl.h, help="fixed step (or initial adaptive step)")
    simulate.add_argument("--adaptive", action="store_true")
    simulate.add_argument("--abs-tol", type=float, default=StepControl.abs_tol)
    simulate.add_argument("--rel-tol", type=float, default=StepControl.rel_tol)
    simulate.add_argument("--max-steps", type=int, default=StepControl.max_steps)
    simulate.add_argument("--stride", type=int, default=1, help="store every N-th accepted step")
    simulate.add_argument("--divergence-bound", type=float, default=DIVERGENCE_BOUND)
    simulate.add_argument("--guard-center", default=None, help="escape-guard center, comma-separated")
    simulate.add_argument("--guard-radius", type=float, default=1.0)
    simulate.add_argument("--analyze", action="store_true", help="run convergence diagnostics on the result")
    simulate.add_argument("--x-e", default=None, help="equilibrium for --analyze (default: built-in's)")
    simulate.add_argument("--tail-fraction", type=float, default=TAIL_FRACTION)
    simulate.add_argument("--defect-tol", type=float, default=DEFECT_TOL)
    simulate.set_defaults(func=_cmd_simulate)
    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv=None) -> int:
    global _PARSER
    _PARSER = _PARSER or _build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return exc.code
    except (ConfigError, CasimirError, EvaluationError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE


def run() -> None:
    _sys.exit(main())


if __name__ == "__main__":
    run()
