"""The benchmark's tracer patches the package by name; these runs keep those names honest.

``perfbench/tracer.py`` replaces the functions listed in its ``TRACED``
table by timing wrappers.  A renamed or removed function would otherwise
fail only a traced benchmark run, so this installs the tracer on the
package, runs one job of each kind through it, and checks that the
traced results equal untraced ones, that every traced name was called,
and that uninstalling puts every patched attribute back.

The set-up probe (``perfbench/setup_probe.py``) builds each workload's
systems in a fresh interpreter; a failure there ends a benchmark run
without a result, so it runs here too, once per workload.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import metriplectic as mp
from metriplectic import cli

ROOT = Path(__file__).resolve().parent.parent


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


def run_jobs(out_dir: Path) -> dict:
    """One job of each kind the benchmark traces; returns everything they produce."""
    results = {}
    jobs = {
        "simulate": ["simulate", "--x0", "1.01,0.05,-0.03", "--t1", "0.1", "--h", "1e-3", "--analyze"],
        "verify": ["verify", "--config", str(ROOT / "configs" / "rigid_body.json"), "--samples", "20"],
        "equilibrium": ["equilibrium", "--point", "1,0,0"],
    }
    for name, argv in jobs.items():
        job_dir = out_dir / name
        results[name + " exit"] = cli.main(argv + ["--out-dir", str(job_dir)])
        for path in sorted(job_dir.iterdir()):
            if path.name == "run_manifest.json":
                continue  # holds the output paths
            text = path.read_text()
            if path.name == "simulate_summary.json":
                summary = json.loads(text)
                summary.pop("runtime_seconds")
                text = json.dumps(summary, sort_keys=True)
            results[f"{name} {path.name}"] = text

    sys_def = mp.rigid_body_system(mp.RigidBodyParams(I1=1.6, I2=1.3, I3=1.0, M0=2.0))
    control = mp.StepControl(mode="adaptive", h=0.5, abs_tol=1e-10, rel_tol=1e-10)
    traj = mp.integrate(mp.field_function(sys_def, "metriplectic"), [2.05, 0.04, -0.06], (0.0, 5.0),
                        control, stride=4)
    report = mp.lasalle_diagnostics(traj, sys_def, [2.0, 0.0, 0.0])
    results["integrate"] = (traj.times.tolist(), traj.states.tolist(), traj.monitor)
    results["lasalle"] = {name: np.asarray(getattr(report, name)).tolist() for name in report.__dataclass_fields__}
    return results


def attributes(tracer_module) -> dict:
    """Every attribute of every module (and class) the tracer may patch."""
    modules = [mp] + [getattr(mp, name) for name in tracer_module.LAYERS]
    snapshot = {(module.__name__, key): value for module in modules for key, value in vars(module).items()}
    snapshot.update({("ScalarField", key): value for key, value in vars(mp.ScalarField).items()})
    return snapshot


def test_traced_jobs_match_untraced_and_the_package_is_restored(tmp_path):
    tracer_module = load_perfbench("tracer")
    untraced = run_jobs(tmp_path / "untraced")
    before = attributes(tracer_module)

    tracer = tracer_module.Tracer(mp)
    tracer.install()
    try:
        assert mp.integrate is not before[("metriplectic", "integrate")]
        traced = run_jobs(tmp_path / "traced")
    finally:
        tracer.uninstall()

    assert traced == untraced
    after = attributes(tracer_module)
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert moved == []
    uncalled = [name for _, _, name, _ in tracer_module.TRACED if tracer.calls(name) == 0]
    assert uncalled == []


def test_set_up_probe_builds_every_workload_in_a_fresh_interpreter(tmp_path):
    probes = {}
    for hash_seed, (name, workload) in enumerate(sorted(load_perfbench("workloads").WORKLOADS.items()), start=1):
        specs = workload(seed=hash_seed, workdir=tmp_path / name).setup_systems()
        probes[name] = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), str(ROOT / "src"), json.dumps(specs)],
            cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        for name, probe in probes.items():
            out, err = probe.communicate(timeout=60)
            assert (probe.returncode, err) == (0, ""), name
            ready, reference_s = out.splitlines()
            assert ready == "ready" and float(reference_s) > 0, name
    finally:
        for probe in probes.values():
            probe.kill()  # does nothing to a probe that has exited
            probe.wait()
