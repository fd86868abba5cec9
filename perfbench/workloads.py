"""The three workloads: seeded inputs, the jobs that run them and their checks.

A workload is a sequence of rounds; a round is a fixed list of jobs whose
inputs come from the workload's seeded generator, so round r holds the
same inputs whatever the time budget.  A job's latency is the wall time
of its calls into the package only; writing configs and reading and
checking outputs happen outside it.  Tolerances are those of the
acceptance tests: energy drift <= 1e-8 (criterion 4), tail dependence
defect <= 1e-6 (criterion 6), structure residuals <= 1e-10 (criterion 1).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import metriplectic as mp
import metriplectic.cli

BENCH_DIR = Path(__file__).resolve().parent
E3_CONFIG = BENCH_DIR / "configs" / "e3.json"
# With phi = (s1 - 1/2)^2 + s2^2 + c s1, H_phi is critical at (0, 0, 0, 0, 0, g)
# when g^3 + c g + 1 = 0; c = -5.85 gives g = -2.5, where grad H = (0, .., g + 1)
# does not vanish, so the dependence defect near it is well conditioned.
E3_EQUILIBRIUM = (0.0, 0.0, 0.0, 0.0, 0.0, -2.5)
E3_CASIMIRS = 2

ENERGY_DRIFT_TOL = 1e-8
CERTIFICATION_SAMPLES = mp.VerificationPolicy().samples


@dataclass
class Outcome:
    failures: list = field(default_factory=list)
    work: int = 0  # accepted RK4 steps, or sampled points checked
    csv_rows: int = 0
    csv_bytes: int = 0


@dataclass
class Job:
    label: str
    run: Callable[[], object]  # the timed calls into the package
    check: Callable[[object], Outcome]


def run_job(job: Job, clock) -> tuple[float, float, Outcome]:
    """Time ``job.run`` and check its result; an exception is a failure.

    Returns the job's start on ``clock``, its wall time and its outcome.
    """
    start = clock()
    try:
        result = job.run()
    except Exception:
        elapsed = clock() - start
        return start, elapsed, Outcome(failures=[f"{job.label}: raised\n{traceback.format_exc()}"])
    elapsed = clock() - start
    try:
        outcome = job.check(result)
    except Exception:
        outcome = Outcome(failures=[f"{job.label}: check raised\n{traceback.format_exc()}"])
    outcome.failures = [f"{job.label}: {f}" for f in outcome.failures]
    return start, elapsed, outcome


def _cli(argv: list) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mp.cli.main(argv)
    return code, err.getvalue()


def _vec(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _rigid_params(rng) -> mp.RigidBodyParams:
    i3 = float(rng.uniform(1.0, 1.2))
    i2 = i3 + float(rng.uniform(0.2, 0.4))
    i1 = i2 + float(rng.uniform(0.2, 0.4))
    return mp.RigidBodyParams(I1=i1, I2=i2, I3=i3, M0=float(rng.uniform(2.5, 3.0)))


def _params_arg(p: mp.RigidBodyParams) -> str:
    return f"I1={p.I1!r},I2={p.I2!r},I3={p.I3!r},M0={p.M0!r}"


def _rigid_document(p: mp.RigidBodyParams, axis_inertia: float) -> dict:
    """The rigid body as a JSON system; ``axis_inertia`` picks the shaper's axis."""
    return {
        "name": "rigid-body",
        "dimension": 3,
        "poisson": [["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]],
        "hamiltonian": f"(x1^2/{p.I1!r} + x2^2/{p.I2!r} + x3^2/{p.I3!r})/2",
        "casimirs": ["(x1^2 + x2^2 + x3^2)/2"],
        "phi": f"(s1 - {0.5 * p.M0 * p.M0!r})^2 - s1/{axis_inertia!r}",
    }


def _write_config(path: Path, document: dict) -> str:
    path.write_text(json.dumps(document, indent=2) + "\n")
    return str(path)


class Workload:
    name = ""
    trace_round_s = 1.0  # rough traced+untraced seconds per round, sizes the traced run

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed % 2**64  # numpy takes no negative seeds; any int maps to one
        self.workdir = workdir
        self.rng = np.random.default_rng(self.seed)
        self.jobdir = workdir / "job"
        self.jobdir.mkdir(parents=True, exist_ok=True)

    def setup_systems(self) -> list:
        """Specs of every system the workload uses, for the set-up probe."""
        raise NotImplementedError

    def use_systems(self, systems: list) -> None:
        """Receive the systems built in-process from :meth:`setup_systems`."""

    def round(self, index: int) -> list:
        raise NotImplementedError

    def final_jobs(self) -> list:
        """Jobs run once after the timed rounds (checks that need a repeat)."""
        return []


# ---------------------------------------------------------------------------
# simulate: long fixed-step CLI runs with per-step diagnostics and a CSV

SIM_T1 = 10.0
SIM_H = 1e-3
SIM_STEPS = 10_000


class Simulate(Workload):
    name = "simulate"
    trace_round_s = 6.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.first = {}  # job label -> (argv, csv digest) of its first run

    def setup_systems(self):
        p = _rigid_params(np.random.default_rng(self.seed))
        return [{"kind": "rigid", "params": [p.I1, p.I2, p.I3, p.M0]}, {"kind": "config", "path": str(E3_CONFIG)}]

    def _argv(self, system_args, x0, x_e=None) -> list:
        argv = ["simulate"] + system_args + [
            "--field", "metriplectic", "--x0=" + _vec(x0), "--t1", repr(SIM_T1),
            "--h", repr(SIM_H), "--stride", "1", "--analyze", "--out-dir", str(self.jobdir),
        ]
        return argv + (["--x-e=" + _vec(x_e)] if x_e is not None else [])

    def _rigid_job(self):
        p = _rigid_params(self.rng)
        x0 = np.array([p.M0, 0.0, 0.0]) + p.M0 * self.rng.uniform(-0.01, 0.01, 3)
        return self._job("simulate-rigid", self._argv(["--system", "rigid-body", "--params", _params_arg(p)], x0))

    def _e3_job(self):
        x0 = np.array(E3_EQUILIBRIUM) + self.rng.uniform(-0.03, 0.03, 6)
        return self._job("simulate-e3", self._argv(["--config", str(E3_CONFIG)], x0, E3_EQUILIBRIUM))

    def _job(self, label, argv, expect_digest=None):
        return Job(label, lambda: _cli(argv), lambda result: self._check(label, argv, result, expect_digest))

    def round(self, index):
        # two rigid-body jobs per 6-dimensional one keeps the median inside one job type
        return [self._rigid_job(), self._rigid_job(), self._e3_job()]

    def final_jobs(self):
        return [self._job(label + "-repeat", argv, digest) for label, (argv, digest) in self.first.items()]

    def _check(self, label, argv, result, expect_digest) -> Outcome:
        code, err = result
        out = Outcome()
        if code != 0:
            out.failures.append(f"exit code {code}: {err.strip()}")
            return out
        summary = json.loads((self.jobdir / "simulate_summary.json").read_text())
        csv = (self.jobdir / "trajectory.csv").read_bytes()
        out.work = summary["steps_accepted"]
        out.csv_rows = csv.count(b"\n") - 1
        out.csv_bytes = len(csv)
        if summary["status"] != "completed":
            out.failures.append(f"status {summary['status']}")
        if summary["steps_accepted"] != SIM_STEPS or out.csv_rows != SIM_STEPS + 1:
            out.failures.append(f"{summary['steps_accepted']} steps, {out.csv_rows} rows")
        if not summary["energy_drift_max"] <= ENERGY_DRIFT_TOL:
            out.failures.append(f"energy drift {summary['energy_drift_max']!r}")
        if summary["entropy_increase_count"] != 0:
            out.failures.append(f"{summary['entropy_increase_count']} entropy increases")
        if not summary.get("lasalle", {}).get("converged_to_E"):
            out.failures.append(f"not converged to E: {summary.get('lasalle')}")
        digest = hashlib.sha256(csv).hexdigest()
        if expect_digest is None:
            self.first.setdefault(label, (argv, digest))
        elif digest != expect_digest:
            out.failures.append("trajectory.csv differs from the first run with the same arguments")
        return out


# ---------------------------------------------------------------------------
# certify: verify then equilibrium through the CLI, no integration

VERIFY_SAMPLES = 500


class Certify(Workload):
    name = "certify"
    trace_round_s = 1.5

    def setup_systems(self):
        paths = self._write_rigid_configs(_rigid_params(np.random.default_rng(self.seed)))
        return [{"kind": "config", "path": p} for p in paths] + [{"kind": "config", "path": str(E3_CONFIG)}]

    def _write_rigid_configs(self, p):
        # the x1-axis shaper makes (M0, 0, 0) positive definite; the mirrored
        # x3-axis shaper leaves (0, 0, M0) indefinite (eigenvalues 1/I1 - 1/I3,
        # 1/I2 - 1/I3, 2 M0^2), so the verdict is checked both ways
        return (
            _write_config(self.workdir / "rigid_x1.json", _rigid_document(p, p.I1)),
            _write_config(self.workdir / "rigid_x3.json", _rigid_document(p, p.I3)),
        )

    def _box(self) -> list:
        lo = -float(self.rng.uniform(1.5, 2.5))
        hi = float(self.rng.uniform(1.5, 2.5))
        return [f"--box-lo={lo!r}", f"--box-hi={hi!r}", "--seed", str(int(self.rng.integers(2**31)))]

    def round(self, index):
        p = _rigid_params(self.rng)
        x1_config, x3_config = self._write_rigid_configs(p)
        e3_config = str(E3_CONFIG)
        out = ["--out-dir", str(self.jobdir)]
        verify = ["verify", "--samples", str(VERIFY_SAMPLES)] + out
        equilibrium = ["equilibrium"] + out
        return [
            self._verify_job("verify-rigid", verify + ["--config", x1_config] + self._box()),
            self._verify_job("verify-e3", verify + ["--config", e3_config] + self._box()),
            self._equilibrium_job("equilibrium-rigid-x1", equilibrium + ["--config", x1_config, "--point=" + _vec([p.M0, 0, 0])], True, 1),
            self._equilibrium_job("equilibrium-rigid-x3", equilibrium + ["--config", x3_config, "--point=" + _vec([0, 0, p.M0])], False, 1),
            self._equilibrium_job("equilibrium-e3", equilibrium + ["--config", e3_config, "--point=" + _vec(E3_EQUILIBRIUM)], True, E3_CASIMIRS),
        ]

    def _verify_job(self, label, argv):
        def check(result):
            code, err = result
            out = Outcome()
            if code != 0:
                out.failures.append(f"exit code {code}: {err.strip()}")
                return out
            report = json.loads((self.jobdir / "verify_report.json").read_text())
            out.work = report["samples"]
            if not report["pass"]:
                out.failures.append(f"verify failed: {report['failed_conditions']}")
            return out
        return Job(label, lambda: _cli(argv), check)

    def _equilibrium_job(self, label, argv, positive_definite, casimirs):
        def check(result):
            code, err = result
            out = Outcome(work=casimirs * CERTIFICATION_SAMPLES)  # load-time certification points
            if code != 0:
                out.failures.append(f"exit code {code}: {err.strip()}")
                return out
            report = json.loads((self.jobdir / "equilibrium_report.json").read_text())
            if not report["is_conservative_equilibrium"]:
                out.failures.append("point is not a conservative equilibrium")
            if report["lyapunov"]["positive_definite"] != positive_definite:
                out.failures.append(f"positive_definite is {report['lyapunov']['positive_definite']}, "
                                    f"expected {positive_definite}: {report['lyapunov']['eigenvalues']}")
            return out
        return Job(label, lambda: _cli(argv), check)


# ---------------------------------------------------------------------------
# ensemble: short adaptive library runs near (M0, 0, 0), LaSalle on recompute

ENSEMBLE_PARAMS = mp.RigidBodyParams(I1=1.6, I2=1.3, I3=1.0, M0=2.0)
ENSEMBLE_T1 = 40.0
ENSEMBLE_STRIDE = 4
# a first step far above what the tolerance allows makes the controller reject
ENSEMBLE_CONTROL = mp.StepControl(mode="adaptive", h=0.5, abs_tol=1e-10, rel_tol=1e-10)


class Ensemble(Workload):
    name = "ensemble"
    trace_round_s = 0.25

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.system = None

    def setup_systems(self):
        p = ENSEMBLE_PARAMS
        return [{"kind": "rigid", "params": [p.I1, p.I2, p.I3, p.M0]}]

    def use_systems(self, systems):
        self.system = systems[0]

    def round(self, index):
        return [self._job() for _ in range(10)]

    def _job(self):
        p = ENSEMBLE_PARAMS
        x_e = np.array([p.M0, 0.0, 0.0])
        x0 = x_e + p.M0 * self.rng.uniform(-0.05, 0.05, 3)
        sys_def = self.system

        def run():
            field_fn = mp.field_function(sys_def, "metriplectic")
            traj = mp.integrate(field_fn, x0, (0.0, ENSEMBLE_T1), ENSEMBLE_CONTROL, stride=ENSEMBLE_STRIDE)
            return traj, mp.lasalle_diagnostics(traj, sys_def, x_e)

        def check(result):
            traj, report = result
            out = Outcome(work=traj.monitor.steps_accepted)
            if traj.status != "completed":
                out.failures.append(f"status {traj.status}")
            x = traj.states
            energy = 0.5 * (x[:, 0] ** 2 / p.I1 + x[:, 1] ** 2 / p.I2 + x[:, 2] ** 2 / p.I3)
            drift = float(np.max(np.abs(energy - energy[0])))
            if not drift <= ENERGY_DRIFT_TOL:
                out.failures.append(f"recomputed energy drift {drift!r}")
            if not report.converged_to_E:
                out.failures.append(f"not converged to E: tail defect {report.tail_max_defect!r}")
            return out

        return Job("ensemble", run, check)


WORKLOADS = {w.name: w for w in (Simulate, Certify, Ensemble)}
