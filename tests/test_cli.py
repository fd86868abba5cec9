import dataclasses
import inspect
import json
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import metriplectic as mp
from metriplectic import cli, dynamics, stability
from metriplectic import expressions as ex

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run(args, out_dir):
    return cli.main(args + ["--out-dir", str(out_dir)])


def read_json(path):
    return json.loads(Path(path).read_text())


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def bad_casimir_doc():
    return {
        "dimension": 3,
        "poisson": [["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]],
        "hamiltonian": "x1^2/6 + x2^2/4 + x3^2/2",
        "casimirs": ["x1"],
        "phi": "s1",
    }


def diverging_doc():
    # planar system with dx1/dt = 1 + x1^2: finite-time blowup
    return {
        "dimension": 2,
        "poisson": [["0", "1 + x1^2"], ["-1 - x1^2", "0"]],
        "hamiltonian": "x2",
    }


# ---------------------------------------------------------------------------
# verify

def test_verify_builtin_passes(tmp_path):
    assert run(["verify", "--system", "rigid-body"], tmp_path) == 0
    report = read_json(tmp_path / "verify_report.json")
    assert report["pass"] is True
    assert report["m1_max"] <= 1e-10
    assert report["m2_max"] <= 1e-10
    assert report["m3_max_positive"] <= 1e-10
    assert report["seed"] == 42
    manifest = read_json(tmp_path / "run_manifest.json")
    assert manifest["command"] == "verify"
    assert manifest["seed"] == 42


def test_the_manifest_records_the_arguments_main_parsed(tmp_path, monkeypatch):
    # an in-process run records its own arguments, not the host process's; a console run records sys.argv[1:]
    monkeypatch.setattr(sys, "argv", ["host", "extra-arg"])
    argv = ["verify", "--samples", "20", "--out-dir", str(tmp_path / "given")]
    assert cli.main(argv) == 0
    assert read_json(tmp_path / "given" / "run_manifest.json")["argv"] == argv
    monkeypatch.setattr(sys, "argv", ["metriplectic", *argv[:-1], str(tmp_path / "console")])
    assert cli.main() == 0
    assert read_json(tmp_path / "console" / "run_manifest.json")["argv"] == sys.argv[1:]


def test_verify_bad_casimir_config_fails(tmp_path):
    path = write_doc(tmp_path, "bad.json", bad_casimir_doc())
    assert run(["verify", "--config", str(path)], tmp_path) == 1
    report = read_json(tmp_path / "verify_report.json")
    assert report["pass"] is False
    assert report["m1_max"] >= 1.0
    assert report["failed_conditions"] == ["m1"]
    worst = report["worst_points"]["m1"]
    assert len(worst) == 3  # the point where the residual peaked


def test_verify_passes_on_a_hamiltonian_with_a_fast_oscillation(tmp_path):
    # a central difference with step 1e-5 misjudged the exact gradient of this H, so the config did not load
    doc = read_json(CONFIG_DIR / "rigid_body.json")
    doc["hamiltonian"] = "(x1^2/3 + x2^2/2 + x3^2)/2 + 1e-3*sin(10000*x1)"
    assert run(["verify", "--config", str(write_doc(tmp_path, "wiggle.json", doc))], tmp_path) == 0


@pytest.mark.parametrize("block", [[1], {"samples": "many"}, {"bogus": 1}])
def test_every_command_refuses_a_bad_verification_block(tmp_path, capsys, block):
    # verify overrides the document's sampling plan, and still checks the block
    doc = dict(read_json(CONFIG_DIR / "rigid_body.json"), verification=block)
    path = write_doc(tmp_path, "block.json", doc)
    for args in (["verify"], ["equilibrium", "--point", "1,0,0"], ["simulate", "--x0", "1,0,0", "--t1", "0.01"]):
        assert run(args + ["--config", str(path)], tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(f"error: cannot load {path}: verification")


def test_a_dimension_of_json_true_is_a_load_error(tmp_path, capsys):
    # True passed isinstance(n, int) and reached sample_box, which raised a TypeError traceback
    path = write_doc(tmp_path, "true.json", {"dimension": True, "poisson": [["0"]], "hamiltonian": "x1^2"})
    assert run(["verify", "--config", str(path)], tmp_path / "out") == 2
    assert capsys.readouterr().err == (f"error: cannot load {path}: "
                                       "dimension: expected a positive integer, got True\n")


def test_verify_unknown_system(tmp_path):
    assert run(["verify", "--system", "nosuch"], tmp_path) == 2


def test_verify_with_params(tmp_path):
    assert run(["verify", "--params", "I1=5,I2=3,I3=2,M0=2"], tmp_path) == 0


def test_verify_bad_params(tmp_path):
    assert run(["verify", "--params", "I1=1,I2=2,I3=3"], tmp_path) == 2
    assert run(["verify", "--params", "bogus=1"], tmp_path) == 2


# ---------------------------------------------------------------------------
# equilibrium

def test_equilibrium_stable_point(tmp_path):
    assert run(["equilibrium", "--point", "1,0,0"], tmp_path) == 0
    report = read_json(tmp_path / "equilibrium_report.json")
    assert report["is_conservative_equilibrium"] is True
    assert report["is_metriplectic_equilibrium"] is True
    assert report["dependence"]["dependent"] is True
    assert report["lyapunov"]["positive_definite"] is True
    assert report["lyapunov"]["eigenvalues"] == pytest.approx([1 / 6, 2 / 3, 2.0], abs=1e-6)


def test_equilibrium_generic_point(tmp_path):
    assert run(["equilibrium", "--point", "1,1,1"], tmp_path) == 0
    report = read_json(tmp_path / "equilibrium_report.json")
    assert report["is_conservative_equilibrium"] is False
    assert report["field_norms"]["conservative"] == pytest.approx(2 / 3, rel=1e-12)


def test_equilibrium_origin(tmp_path):
    assert run(["equilibrium", "--point", "0,0,0"], tmp_path) == 0
    report = read_json(tmp_path / "equilibrium_report.json")
    assert report["is_conservative_equilibrium"] is True
    assert report["lyapunov"]["grad_norm"] == 0.0
    assert report["lyapunov"]["positive_definite"] is False


@pytest.mark.parametrize("point", ["100,70,30", "1e60,7e59,3e59"])
def test_equilibrium_far_from_the_origin_is_decided(tmp_path, point):
    # the finite-difference Hessian's rounding here failed an absolute asymmetry check
    assert run(["equilibrium", "--point", point], tmp_path) == 0
    hessian = np.array(read_json(tmp_path / "equilibrium_report.json")["lyapunov"]["hessian"])
    assert np.array_equal(hessian, hessian.T)


def test_equilibrium_inconsistency_is_a_verification_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(dynamics, "conservative_field", lambda sys_def, x: np.ones(3))
    assert run(["equilibrium", "--point", "1,0,0"], tmp_path) == cli.EXIT_FAIL
    assert "is not a conservative one" in capsys.readouterr().err


def test_equilibrium_prints_no_warning_beside_its_verdict(tmp_path, capsys, recwarn):
    # conservative at --tol 1e-6, not at the library's default tolerance
    assert run(["equilibrium", "--point", "1,1e-7,0", "--tol", "1e-6"], tmp_path) == 0
    out, err = capsys.readouterr()
    assert out.startswith("conservative=True ")
    assert err == "" and not [w for w in recwarn if "not an equilibrium" in str(w.message)]
    assert read_json(tmp_path / "equilibrium_report.json")["is_conservative_equilibrium"] is True


def test_equilibrium_where_the_gram_product_underflows(tmp_path):
    # ||g||^2 ||u||^2 underflows here, so the defect is measured at unit sup norm: that of the same direction at scale 1
    assert run(["equilibrium", "--point", "1e-100,1e-100,0"], tmp_path) == 0
    report = read_json(tmp_path / "equilibrium_report.json")
    unit = mp.dependence_defect(mp.rigid_body_system(), [1.0, 1.0, 0.0])
    assert unit > 0.03 and report["dependence"]["normalized_defect"] == pytest.approx(unit, rel=1e-12)
    assert report["dependence"]["dependent"] is False


def test_equilibrium_where_a_gradient_overflows_prints_no_warning(tmp_path, capsys, recwarn):
    # x1*x1*x1*x1 overflows to inf without raising (unlike **), so grad H = (inf, 0) and its dot products take inf * 0
    doc = {"dimension": 2, "poisson": [["0", "1"], ["-1", "0"]], "hamiltonian": "x1*x1*x1*x1 + x1*x2*x2*x2*x2"}
    path = write_doc(tmp_path, "overflow.json", doc)
    assert run(["equilibrium", "--config", str(path), "--point", "1e160,0"], tmp_path) == 0
    out, err = capsys.readouterr()
    assert out == "conservative=False metriplectic=False positive_definite=False\n"
    assert err == "" and not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    report = read_json(tmp_path / "equilibrium_report.json")
    assert report["field_norms"] == {"conservative": "Infinity", "metriplectic": "Infinity"}
    assert report["dependence"] == {"dependent": True, "lambda": None, "gram_defect": 0.0, "normalized_defect": 0.0}
    assert report["lyapunov"] == {
        "grad_norm": "Infinity", "eigenvalues": ["NaN", "NaN"], "positive_definite": False, "pd_tolerance": 1e-8,
        "hessian": [["Infinity", 0.0], [0.0, 0.0]], "offset": "Infinity"}


def test_equilibrium_where_a_gradient_component_is_infinite_is_not_dependent(tmp_path, capsys, recwarn):
    # grad H = (inf, 1/2, 0) at this point, so the sup-norm rescale of the Gram product has no finite scale
    doc = rigid_doc("(x1*x1 + x2*x2 + x3*x3)/2", "s1")
    doc["hamiltonian"] = "x1*x1*x1*x1 + x2^2/4 + x3^2/2"
    path = write_doc(tmp_path, "quartic.json", doc)
    assert run(["equilibrium", "--config", str(path), "--point", "1e160,1,0"], tmp_path) == 0
    out, err = capsys.readouterr()
    assert err == "" and not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    report = read_json(tmp_path / "equilibrium_report.json")
    assert report["dependence"] == {"dependent": False, "lambda": None, "gram_defect": "NaN", "normalized_defect": "NaN"}


@pytest.mark.parametrize("command", [
    ["verify"],
    ["equilibrium", "--point", "1,0,0"],
    ["simulate", "--x0", "1,0,0", "--t1", "0.01"],
], ids=["verify", "equilibrium", "simulate"])
def test_params_with_a_config_are_a_usage_error(tmp_path, capsys, command):
    # the overrides apply to built-in systems only, so a manifest would record values never used
    out = tmp_path / "out"
    args = command[:1] + ["--config", str(CONFIG_DIR / "rigid_body.json"), "--params", "I1=9"] + command[1:]
    assert run(args, out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --params ") and err.count("\n") == 1
    assert not out.exists()


def test_default_tolerances_are_the_library_constants():
    parser = cli._build_parser()
    equilibrium = parser.parse_args(["equilibrium", "--point", "1,0,0"])
    assert (equilibrium.tol, equilibrium.pd_tol) == (dynamics.DEFAULT_EQUILIBRIUM_TOL, stability.PD_TOL)
    verify, policy = parser.parse_args(["verify"]), mp.VerificationPolicy()
    assert (verify.tol, verify.samples, (verify.box_lo, verify.box_hi)) == (policy.tolerance, policy.samples, policy.box)
    simulate, control = parser.parse_args(["simulate", "--x0", "1,0,0", "--t1", "1"]), mp.StepControl()
    assert (simulate.h, simulate.abs_tol, simulate.rel_tol, simulate.max_steps) == (
        control.h, control.abs_tol, control.rel_tol, control.max_steps)
    integrate = inspect.signature(mp.integrate).parameters
    assert simulate.divergence_bound == integrate["divergence_bound"].default == mp.integrators.DIVERGENCE_BOUND
    assert simulate.stride == integrate["stride"].default
    lasalle = inspect.signature(mp.lasalle_diagnostics).parameters
    assert simulate.tail_fraction == lasalle["tail_fraction"].default == stability.TAIL_FRACTION
    assert simulate.defect_tol == lasalle["defect_tol"].default == stability.DEFECT_TOL
    # the CLI's own: no library function has a default for these
    assert (simulate.t0, simulate.guard_radius, simulate.seed, verify.seed) == (0.0, 1.0, 42, 42)


def test_main_builds_its_parser_once_and_parsing_leaves_it_as_built(tmp_path, monkeypatch, capsys):
    # a usage error and --version between commands leave the kept parser parsing as a fresh one does
    commands = [
        ["verify", "--samples", "50"],
        ["verify", "--samples", "many"],
        ["--version"],
        ["equilibrium", "--point", "1,0,0"],
        ["simulate", "--x0", "1.01,0.05,-0.03", "--t1", "1", "--h", "1e-2", "--analyze"],
    ]
    built, build = [], cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_PARSER", None)

    def outcomes(side, fresh):
        (tmp_path / side).mkdir()
        monkeypatch.chdir(tmp_path / side)  # the manifests record the same relative paths on both sides
        results = []
        for argv in commands:
            if fresh:
                monkeypatch.setattr(cli, "_PARSER", None)
            code = cli.main(argv + ["--out-dir", "out"])
            files = {path.name: re.sub(rb'\n *"runtime_seconds": [^\n]*\n', b"\n", path.read_bytes())
                     for path in sorted(Path("out").glob("*"))}
            results.append((code, *capsys.readouterr(), files))
        return results

    kept = outcomes("kept", fresh=False)
    assert len(built) == 1
    assert [code for code, *_ in kept] == [0, 2, 0, 0, 0]
    assert kept == outcomes("fresh", fresh=True) and len(built) == 1 + len(commands)


def test_equilibrium_dimension_mismatch(tmp_path):
    assert run(["equilibrium", "--point", "1,0"], tmp_path) == 2


# ---------------------------------------------------------------------------
# simulate

def test_simulate_conservative_drift(tmp_path):
    code = run(
        ["simulate", "--field", "conservative", "--x0", "1,1,1", "--t1", "10", "--h", "1e-3"],
        tmp_path,
    )
    assert code == 0
    summary = read_json(tmp_path / "simulate_summary.json")
    assert summary["energy_drift_max"] <= 1e-8
    assert summary["status"] == "completed"
    csv = (tmp_path / "trajectory.csv").read_text()
    header = csv.splitlines()[0]
    assert header == "t,x1,x2,x3,H,phiC,entropy_production,dependence_defect"
    assert len(csv.splitlines()) == 10001 + 1


def test_simulate_deterministic_output(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    args = ["simulate", "--x0", "1.01,0.05,-0.03", "--t1", "2", "--h", "1e-3"]
    assert run(list(args), a_dir) == 0
    assert run(list(args), b_dir) == 0
    assert (a_dir / "trajectory.csv").read_bytes() == (b_dir / "trajectory.csv").read_bytes()


def test_simulate_analyze(tmp_path):
    code = run(
        ["simulate", "--x0", "1.01,0.05,-0.03", "--t1", "50", "--h", "1e-3", "--analyze"],
        tmp_path,
    )
    assert code == 0
    summary = read_json(tmp_path / "simulate_summary.json")
    assert summary["entropy_increase_count"] == 0
    assert summary["lasalle"]["monotone_violations"] == 0


def test_simulate_dimension_mismatch(tmp_path):
    assert run(["simulate", "--x0", "1,1", "--t1", "1"], tmp_path) == 2


def test_simulate_divergence_flushes_partial(tmp_path):
    path = write_doc(tmp_path, "divergent.json", diverging_doc())
    code = run(
        ["simulate", "--config", str(path), "--x0", "0,0", "--t1", "2", "--h", "1e-3"],
        tmp_path,
    )
    assert code == 3
    summary = read_json(tmp_path / "simulate_summary.json")
    assert summary["status"] == "diverged"
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(lines) > 100  # partial trajectory flushed
    assert lines[0].startswith("t,x1,x2,")


def test_simulate_diagnostics_failure_after_a_step_flushes_partial(tmp_path, capsys):
    # ln(x2 + 0.5) in H leaves its domain at t=16.05; the field's 0.001/(x2 + 0.5) does not fail there
    doc = rigid_doc("(x1^2 + x2^2 + x3^2)/2", "(s1 - 0.5)^2 - s1/3")
    doc["hamiltonian"] = "(x1^2/3 + x2^2/2 + x3^2)/2 + 0.001*ln(x2 + 0.5)"
    path = write_doc(tmp_path, "ln.json", doc)
    args = ["simulate", "--config", str(path), "--field", "conservative", "--t1", "60", "--h", "1e-2"]
    assert run(args + ["--x0", "0.05,0.8,0.05"], tmp_path / "run") == 3
    err = capsys.readouterr().err
    assert err.startswith("divergence: diagnostics evaluation failed at t=16.05: math domain error at x=[")
    summary = read_json(tmp_path / "run" / "simulate_summary.json")
    assert summary["status"] == "diverged" and summary["samples"] == 1605
    assert len((tmp_path / "run" / "trajectory.csv").read_text().splitlines()) == 1606
    # at t0 there is no step to keep: a usage error that writes nothing
    assert run(args + ["--x0", "0.05,-0.6,0.05"], tmp_path / "start") == 2
    assert capsys.readouterr().err.startswith("error: math domain error at x=[0.05, -0.6, 0.05]")
    assert not (tmp_path / "start").exists()


def test_simulate_escape_guard(tmp_path):
    code = run(
        [
            "simulate", "--field", "conservative", "--x0", "1,1,1", "--t1", "50",
            "--h", "1e-2", "--guard-center", "1,1,1", "--guard-radius", "0.5",
        ],
        tmp_path,
    )
    assert code == 3
    summary = read_json(tmp_path / "simulate_summary.json")
    assert summary["status"] == "escaped"


def test_simulate_stride(tmp_path):
    code = run(
        ["simulate", "--x0", "1,1,1", "--t1", "1", "--h", "1e-3", "--stride", "100"],
        tmp_path,
    )
    assert code == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 1 + 11  # header + samples at 0,100,...,1000


def test_simulate_adaptive(tmp_path):
    code = run(
        ["simulate", "--field", "conservative", "--x0", "1,1,1", "--t1", "2", "--adaptive",
         "--h", "1e-2", "--abs-tol", "1e-10", "--rel-tol", "1e-10"],
        tmp_path,
    )
    assert code == 0
    summary = read_json(tmp_path / "simulate_summary.json")
    assert summary["status"] == "completed"


def test_simulate_config_analyze_needs_xe(tmp_path):
    path = write_doc(tmp_path, "ok.json", json.loads((CONFIG_DIR / "rigid_body.json").read_text()))
    code = run(
        ["simulate", "--config", str(path), "--x0", "1.01,0.05,-0.03", "--t1", "1", "--analyze"],
        tmp_path,
    )
    assert code == 2
    code = run(
        ["simulate", "--config", str(path), "--x0", "1.01,0.05,-0.03", "--t1", "1",
         "--analyze", "--x-e", "1,0,0"],
        tmp_path,
    )
    assert code == 0


def test_simulate_analyze_takes_the_default_equilibrium_from_rigid_body_params(tmp_path, monkeypatch):
    @dataclasses.dataclass(frozen=True)
    class Heavier(mp.RigidBodyParams):
        M0: float = 2.0

    seen, lasalle = [], cli.lasalle_diagnostics

    def record(traj, sys_def, x_e, **kwargs):
        seen.append(x_e.tolist())
        return lasalle(traj, sys_def, x_e, **kwargs)

    monkeypatch.setattr(cli, "RigidBodyParams", Heavier)
    monkeypatch.setattr(cli, "lasalle_diagnostics", record)
    assert run(["simulate", "--x0", "2.02,0.1,-0.06", "--t1", "1", "--h", "1e-2", "--analyze"], tmp_path) == 0
    assert seen == [[2.0, 0.0, 0.0]]


def test_diverging_run_with_unusable_xe_stops_before_integrating(tmp_path):
    path = write_doc(tmp_path, "divergent.json", diverging_doc())
    for extra in ([], ["--x-e", "0,0,0"]):
        out = tmp_path / f"out{len(extra)}"
        code = run(["simulate", "--config", str(path), "--x0", "0,0", "--t1", "2", "--analyze"] + extra, out)
        assert code == 2
        assert not (out / "trajectory.csv").exists()


def rigid_doc(casimir, phi):
    return {
        "dimension": 3,
        "poisson": [["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]],
        "hamiltonian": "x1^2/6 + x2^2/4 + x3^2/2",
        "casimirs": [casimir],
        "phi": phi,
    }


@pytest.mark.parametrize("casimir, phi, args, message", [
    ("sqrt(x1)", "s1", ["equilibrium", "--point", "1,0,0"], "error: cannot load "),
    ("sqrt(x1)", "s1", ["simulate", "--x0", "1,0,0", "--t1", "0.01"], "error: cannot load "),
    ("(x1^2 + x2^2 + x3^2)/2", "ln(s1)", ["equilibrium", "--point", "0,0,0"],
     "error: float division by zero at x=[0.0, 0.0, 0.0]"),
    ("(x1^2 + x2^2 + x3^2)/2", "ln(s1)",
     ["simulate", "--x0", "1,0.1,0", "--t1", "0.01", "--analyze", "--x-e", "0,0,0"],
     "error: math domain error at x=[0.0, 0.0, 0.0]"),
])
def test_evaluation_failures_are_usage_errors(tmp_path, capsys, casimir, phi, args, message):
    path = write_doc(tmp_path, "doc.json", rigid_doc(casimir, phi))
    code = run(args[:1] + ["--config", str(path)] + args[1:], tmp_path)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(message) and "Traceback" not in err


def test_a_hoisted_failure_is_a_usage_error(tmp_path, capsys):
    # d H / d x1 = 1/x1 + (terms in the repeated sqrt(x2)): at x1 = 0, x2 < 0 both fail, and the hoisted
    # sqrt(x2), computed before the component that first uses it, is the failure reported
    doc = rigid_doc("(x1^2 + x2^2 + x3^2)/2", "s1")
    doc["hamiltonian"] = "ln(x1) + x1*sqrt(x2)*sqrt(x2) + x3^2/2"
    path = write_doc(tmp_path, "doc.json", doc)
    assert run(["equilibrium", "--config", str(path), "--point", "0,-1,0"], tmp_path) == 2
    assert capsys.readouterr().err == "error: math domain error at x=[0.0, -1.0, 0.0]\n"


def test_verify_nan_casimir_config_fails(tmp_path):
    doc = rigid_doc("x1*1e300*1e300 - x1*1e300*1e300 + (x1^2 + x2^2 + x3^2)/2", "(s1 - 0.5)^2 - s1/3")
    path = write_doc(tmp_path, "nan.json", doc)
    assert run(["verify", "--config", str(path), "--samples", "20"], tmp_path) == 1
    report = read_json(tmp_path / "verify_report.json")
    assert report["pass"] is False
    assert report["failed_conditions"] == ["m1", "m3"]


def test_entropy_increases_and_lasalle_violations_agree(tmp_path):
    args = ["simulate", "--params", "I1=3,I2=2,I3=1,M0=200", "--field", "conservative", "--x0", "202,10,-6",
            "--t1", "5e-5", "--h", "2.5e-8", "--analyze", "--x-e", "200,0,0"]
    assert run(args, tmp_path) == 0
    summary = read_json(tmp_path / "simulate_summary.json")
    assert summary["steps_accepted"] == 2000 and summary["entropy_increase_max"] > 1e-9
    assert summary["entropy_increase_count"] == summary["lasalle"]["monotone_violations"] == 0


def _strict_json(path):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(Path(path).read_text(), parse_constant=reject)


def test_verify_non_finite_grad_h_fails_m2_and_m3(tmp_path, capsys):
    doc = rigid_doc("(x1^2 + x2^2 + x3^2)/2", "(s1 - 0.5)^2 - s1/3")
    doc["hamiltonian"] = "x1*1e300*1e300 - x1*1e300*1e300 + x1^2/6 + x2^2/4 + x3^2/2"
    path = write_doc(tmp_path, "nan_h.json", doc)
    assert run(["verify", "--config", str(path), "--samples", "20"], tmp_path) == 1
    assert capsys.readouterr().err == ""
    report = _strict_json(tmp_path / "verify_report.json")
    assert report["failed_conditions"] == ["m2", "m3"]
    assert report["m2_max"] == report["m3_max_positive"] == "NaN"


def test_reports_are_strict_json(tmp_path):
    doc = rigid_doc("x1*1e300*1e300 - x1*1e300*1e300 + (x1^2 + x2^2 + x3^2)/2", "(s1 - 0.5)^2 - s1/3")
    path = write_doc(tmp_path, "nan.json", doc)
    assert run(["verify", "--config", str(path), "--samples", "20"], tmp_path) == 1
    assert _strict_json(tmp_path / "verify_report.json")["m1_max"] == "NaN"
    cli._write_json(tmp_path / "edge.json", {"a": [float("inf"), -float("inf"), (float("nan"), 1.5)], "b": {"c": 0.0}})
    assert _strict_json(tmp_path / "edge.json") == {"a": ["Infinity", "-Infinity", ["NaN", 1.5]], "b": {"c": 0.0}}


# ---------------------------------------------------------------------------
# CSV format details

def test_csv_17_significant_digits_round_trip(tmp_path):
    run(["simulate", "--x0", "1.01,0.05,-0.03", "--t1", "0.01", "--h", "1e-2"], tmp_path)
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[1].split(",")[1] == f"{1.01:.17g}"
    for line in lines[1:]:
        for cell in line.split(","):
            value = float(cell)  # every cell reparses to the exact double
            assert np.isfinite(value)
            assert f"{value:.17g}" == cell


def _fstring_csv(traj):
    """The CSV text written value by value with f"{v:.17g}"."""
    header = ["t"] + [f"x{i + 1}" for i in range(traj.n)] + list(cli.CSV_COLUMNS)
    lines = [",".join(header)]
    for i in range(len(traj)):
        diag = [f"{v:.17g}" for v in traj.diagnostics[i]] if traj.diagnostics is not None else ["nan"] * 4
        lines.append(",".join([f"{traj.times[i]:.17g}"] + [f"{v:.17g}" for v in traj.states[i]] + diag))
    return "\n".join(lines) + "\n"


def test_csv_edge_values_match_fstring_formatting(tmp_path):
    edge = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 1 / 3])
    rng = np.random.default_rng(8)
    rows = 2345  # three blocks of the writer, the last one partial
    times = np.arange(rows) * 0.1 - 5.0
    states, diag = rng.choice(edge, (rows, 3)), rng.choice(edge, (rows, 4))
    states[:2], diag[:2] = edge[:6].reshape(2, 3), edge[2:10].reshape(2, 4)
    for traj in (mp.Trajectory(times, states, diag), mp.Trajectory(times, states)):
        path = tmp_path / "trajectory.csv"
        cli._write_trajectory_csv(path, traj)
        assert path.read_bytes() == _fstring_csv(traj).encode()
    assert path.read_text().splitlines()[1].endswith(",nan,nan,nan,nan")


# ---------------------------------------------------------------------------
# numeric inputs

@pytest.mark.parametrize("args, name", [
    (["simulate", "--x0", "1,0,0", "--t1", "1", "--adaptive", "--abs-tol", "nan", "--max-steps", "1000"], "abs_tol"),
    (["simulate", "--x0", "1,0,0", "--t1", "1", "--adaptive", "--rel-tol", "nan", "--max-steps", "1000"], "rel_tol"),
    (["simulate", "--x0", "1,0,0", "--t1", "inf", "--adaptive"], "span"),
    (["simulate", "--x0", "1,0,0", "--t1", "inf"], "span"),
    (["simulate", "--x0", "1,0,0", "--t1", "1", "--h", "1e-320"], "inf steps"),
    (["simulate", "--x0", "1.01,0,0", "--t1", "5", "--adaptive", "--h", "nan"], "h must be"),
    (["verify", "--box-hi", "inf"], "sampling box"),
    (["verify", "--box-lo", "nan"], "sampling box"),
    (["verify", "--tol", "nan"], "tolerance"),
    (["equilibrium", "--point", "1,0,0", "--tol", "nan"], "tolerance"),
    (["equilibrium", "--point", "1,0,0", "--pd-tol", "nan"], "pd_tol"),
    (["simulate", "--x0", "1.01,0,0", "--t1", "1", "--analyze", "--defect-tol", "nan"], "defect_tol"),
    (["simulate", "--x0", "1.01,0,0", "--t1", "1", "--guard-center", "1,0,0", "--guard-radius", "nan"], "radius"),
    (["equilibrium", "--point", "inf,0,0"], "--point"),
    (["simulate", "--x0", "1.01,0,0", "--t1", "5e-324", "--adaptive"], "first stage step"),
    (["simulate", "--x0", "1.01,0,0", "--t1", "5", "--h", "5e-324", "--adaptive"], "first stage step"),
    (["verify", "--params", "I1"], "malformed parameter override 'I1'"),
    (["verify", "--params", "I1=abc"], "non-numeric value 'abc'"),
    (["verify", "--params", "M0=nan"], "parameters must be finite"),
    (["verify", "--params", "I1=inf"], "parameters must be finite"),
    (["equilibrium", "--point", "1,a,0"], "malformed --point"),
    (["simulate", "--x0", "1.01,0,0", "--t1", "1", "--guard-center", "1,0"], "--guard-center dimension mismatch"),
])
def test_numeric_inputs_outside_the_library_rule_are_usage_errors(tmp_path, capsys, args, name):
    out = tmp_path / "out"
    started = time.perf_counter()
    code = run(args, out)
    elapsed = time.perf_counter() - started
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1 and name in err
    assert not out.exists() and elapsed < 2.0


def overflow_doc():
    """The rigid body written with products, which overflow to inf where ``^`` raises."""
    doc = rigid_doc("(x1*x1 + x2*x2 + x3*x3)/2", "s1")
    doc["hamiltonian"] = "x1*x1/6 + x2*x2/4 + x3*x3/2"
    return doc


def test_verify_where_the_residuals_overflow_prints_no_warning(tmp_path, capsys):
    path = write_doc(tmp_path, "big.json", overflow_doc())
    assert run(["verify", "--config", str(path), "--box-lo=-1e200", "--box-hi=1e200", "--samples", "50"], tmp_path) == 1
    assert capsys.readouterr() == ("m1_max=inf m2_max=nan m3_max_positive=nan pass=False\n", "")
    report = _strict_json(tmp_path / "verify_report.json")
    assert (report["m1_max"], report["m2_max"], report["m3_max_positive"]) == ("Infinity", "NaN", "NaN")


def test_a_load_whose_casimir_residual_overflows_prints_one_error(tmp_path, capsys):
    path = write_doc(tmp_path, "big.json", dict(overflow_doc(), verification={"box": [-1e200, 1e200]}))
    assert run(["equilibrium", "--config", str(path), "--point", "1,0,0"], tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot load {path}: casimir 0: residual inf at point ") and err.count("\n") == 1


def test_pi_entries_that_overflow_against_their_mirror_fail_antisymmetry(tmp_path, capsys):
    # x1*x1*x1 is inf and -(x1*x1*x1) is -inf where |x1| > 6e102, so Pi_12 + Pi_21 is nan
    doc = {"dimension": 2, "poisson": [["0", "x1*x1*x1"], ["-(x1*x1*x1)", "0"]], "hamiltonian": "x1 + x2"}
    path = write_doc(tmp_path, "cube.json", doc)
    assert run(["verify", "--config", str(path), "--box-lo=-1e200", "--box-hi=1e200"], tmp_path) == 2
    assert capsys.readouterr().err.startswith("error: Pi(x) + Pi(x)^T has max entry nan at x=")
    path = write_doc(tmp_path, "cube_load.json", dict(doc, verification={"box": [-1e200, 1e200]}))
    assert run(["simulate", "--config", str(path), "--x0", "1,0", "--t1", "0.01"], tmp_path) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot load {path}: Pi(x) + Pi(x)^T has max entry nan at x=")


def test_equilibrium_where_a_gradient_component_is_nan_is_not_dependent(tmp_path, capsys):
    # grad H = (nan, -inf, 2) at this point: 4 x1^3 - 3 x1^2 x2 is inf - inf
    doc = dict(overflow_doc(), hamiltonian="x1*x1*x1*x1 - x1*x1*x1*x2 + x3*x3")
    path = write_doc(tmp_path, "quartic.json", doc)
    assert run(["equilibrium", "--config", str(path), "--point", "1e160,1e160,1"], tmp_path) == 0
    assert capsys.readouterr().err == ""
    report = read_json(tmp_path / "equilibrium_report.json")
    assert report["dependence"] == {"dependent": False, "lambda": None, "gram_defect": "NaN", "normalized_defect": "NaN"}


def document(sys_def):
    """A config document of a built system, its expressions written by ``to_string``."""
    return {
        "dimension": sys_def.n,
        "poisson": [[ex.to_string(e) for e in row] for row in sys_def.poisson.entries],
        "hamiltonian": ex.to_string(sys_def.hamiltonian.value),
        "casimirs": [ex.to_string(c.value) for c in sys_def.casimirs],
        "phi": ex.to_string(sys_def.phi),
    }


def test_sampled_checks_print_at_most_one_error_line_at_any_scale(tmp_path, capsys):
    # the five systems of the identity runs, each verified and loaded on boxes from tiny to overflowing
    unchecked = mp.VerificationPolicy(samples=0)
    systems = {
        "rigid": (["--system", "rigid-body"], mp.rigid_body_system(verification=unchecked)),
        "rigid-params": (["--system", "rigid-body", "--params", "I1=5,I2=3,I3=2,M0=2"],
                         mp.rigid_body_system(mp.RigidBodyParams(5.0, 3.0, 2.0, 2.0), unchecked)),
    }
    for config in ("configs/rigid_body.json", "configs/rigid_body_x3_axis.json", "perfbench/configs/e3.json"):
        systems[config] = (["--config", str(CONFIG_DIR.parent / config)],
                           mp.load_system_file(CONFIG_DIR.parent / config, unchecked))
    for name, (system, sys_def) in systems.items():
        for scale in (1e-150, 1.0, 1e100, 1e160, 1e200):
            doc = dict(document(sys_def), verification={"box": [-scale, scale], "samples": 50})
            path = write_doc(tmp_path, "doc.json", doc)
            for args in (["verify"] + system + [f"--box-lo={-scale}", f"--box-hi={scale}", "--samples", "50"],
                         ["equilibrium", "--config", str(path), "--point", ",".join(["0"] * sys_def.n)]):
                code = run(args, tmp_path / "out")
                out, err = capsys.readouterr()
                assert code in (0, 1, 2), (name, scale, args[0])
                assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), (name, scale, err)


def test_adaptive_span_shorter_than_the_end_slack_takes_a_step(tmp_path):
    assert run(["simulate", "--x0", "1.01,0,0", "--t1", "1e-13", "--adaptive"], tmp_path) == 0
    summary = read_json(tmp_path / "simulate_summary.json")
    assert summary["status"] == "completed" and summary["samples"] == 2 and summary["steps_accepted"] == 1


def test_a_config_that_fails_antisymmetry_names_its_file(tmp_path, capsys):
    doc = rigid_doc("(x1^2 + x2^2 + x3^2)/2", "(s1 - 0.5)^2 - s1/3")
    doc["poisson"][0][1] = "x3"
    path = write_doc(tmp_path, "asym.json", doc)
    assert run(["equilibrium", "--config", str(path), "--point", "1,0,0"], tmp_path) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot load {path}: Pi(x) + Pi(x)^T")


def test_usage_error_exit_code():
    assert cli.main(["simulate"]) == 2  # missing required --x0/--t1
    assert cli.main([]) == 2
