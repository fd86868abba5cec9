"""Benchmark of the metriplectic package: simulate, certify and ensemble workloads.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics untraced; ``--trace 1`` runs a fixed job list twice per job,
untraced and traced, and reports the per-layer metrics.  Metric names and
units come from BENCHMARK.json.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; lines before it start with ``#`` and are for people.
"""

import os

# pin numpy/BLAS pools before numpy is first imported; the runner uses one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
SAMPLE_MARGIN = 3  # kernel sampling periods either side of a job that count towards its speed
PROBE_TIMEOUT_S = 60
clock = time.perf_counter


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "metriplectic" / "__init__.py").is_file() or not spec_path.is_file():
        return _fail(f"no package source under {SRC} or no {spec_path.name}; run from a repository checkout")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    import metriplectic

    if Path(metriplectic.__file__).resolve().parent != (SRC / "metriplectic").resolve():
        return _fail(f"imported metriplectic from {metriplectic.__file__}, not from {SRC}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        return _fail("--seconds must be > 0")

    # a fresh directory per run: two runs with the same arguments (and, in a
    # container, the same pid) must never share or delete each other's files
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-trace{args.trace}-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics, outcomes, notes = _traced_run(workload, args, metriplectic)
            declared = spec["per_layer"]
        else:
            metrics, outcomes, notes = _untraced_run(workload, args)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = [m["name"] for m in declared]
    if set(names) != set(metrics):
        return _fail(f"measured metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    failed = [o for o in outcomes if o.failures]
    for outcome in failed[:5]:
        print("\n".join(outcome.failures), file=sys.stderr)

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("# record " + json.dumps(_run_record()))
    for line in notes:
        print(f"# {line}")
    print(f"# failed_share {len(failed) / len(outcomes):.6g} ratio ({len(failed)} of {len(outcomes)} jobs)")
    for m in declared:
        print(f"# {m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


def _run_record() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# untraced: end-to-end metrics


def _measure_setup(specs: list) -> tuple[float, float]:
    """Median wall time from spawning a fresh interpreter to its ``ready`` line,
    scaled by the reference times measured just before the spawn and by the
    probe right after it is ready, and raw."""
    from reference import REFERENCE_S, reference_time

    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), json.dumps(specs)]
    raw, scaled = [], []
    reference_time()  # warm up
    for _ in range(SETUP_REPEATS):
        before = reference_time()
        start = clock()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = clock() - start
                out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
        raw.append(elapsed)
        scaled.append(elapsed * (REFERENCE_S / before + REFERENCE_S / float(out)) / 2)
    return statistics.median(scaled), statistics.median(raw)


def _untraced_run(workload, args):
    from reference import PERIOD_S, REFERENCE_S, Sampler
    from setup_probe import build_systems
    from workloads import run_job

    specs = workload.setup_systems()
    setup_s, setup_raw_s = _measure_setup(specs)
    workload.use_systems(build_systems(specs))

    # each job's wall time, less the kernel samples taken inside it, is scaled
    # by the machine speed measured during and just around it (see reference.py)
    spans, outcomes, round_of = [], [], []
    rounds = 0
    with Sampler() as sampler:
        start = clock()
        while clock() - start < args.seconds:
            for job in workload.round(rounds):
                job_start, elapsed, outcome = run_job(job, clock)
                spans.append((job_start, elapsed))
                outcomes.append(outcome)
                round_of.append(rounds)
            rounds += 1
    margin = SAMPLE_MARGIN * PERIOD_S
    raw, scaled = [], []
    for job_start, elapsed in spans:
        job_end = job_start + elapsed
        net = elapsed - sum(d for s, d in sampler.samples if job_start <= s < job_end)
        near = [d for s, d in sampler.samples if job_start - margin <= s < job_end + margin] or [
            min(sampler.samples, key=lambda sample: abs(sample[0] - job_start))[1]]
        raw.append(net)
        scaled.append(net * statistics.fmean(REFERENCE_S / d for d in near))
    timed = list(outcomes)
    for job in workload.final_jobs():
        outcomes.append(run_job(job, clock)[2])

    work = sum(o.work for o in timed)
    p90 = _p90(scaled)
    unit = "steps_per_s" if args.workload != "certify" else "points_per_s"
    # every round holds the same mix of job types, so the median of the
    # per-round rates ignores a round slowed by the machine, not the program
    round_work, round_s = [0] * rounds, [0.0] * rounds
    for r, o, t in zip(round_of, timed, scaled):
        round_work[r] += o.work
        round_s[r] += t
    metrics = {
        "setup_s": setup_s,
        "work_per_s": statistics.median(w / t for w, t in zip(round_work, round_s)),
        "job_p50_ms": 1e3 * statistics.median(scaled),
        "job_p90_ms": 1e3 * p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"{unit} {metrics['work_per_s']:.6g} 1/s (median of {rounds} rounds; {work} over {sum(scaled):.3f} s "
        f"of scaled job time overall)",
        f"jobs {len(scaled)} in {rounds} rounds; {sum(1 for v in scaled if v > p90)} beyond job_p90_ms",
        f"repeat jobs {len(outcomes) - len(timed)} (checked, not timed)",
        f"speed samples {len(sampler.samples)}, median kernel time "
        f"{1e3 * statistics.median(d for _, d in sampler.samples):.4g} ms",
        f"raw wall time: setup_s {setup_raw_s:.6g} s, {unit} {work / sum(raw):.6g} 1/s, "
        f"job_p50_ms {1e3 * statistics.median(raw):.6g} ms, job_p90_ms {1e3 * _p90(raw):.6g} ms",
    ]
    return metrics, outcomes, notes


# ---------------------------------------------------------------------------
# traced: per-layer metrics


def _traced_run(workload, args, package):
    from setup_probe import build_systems
    from tracer import LAYERS, Tracer
    from workloads import run_job

    tracer = Tracer(package)
    specs = workload.setup_systems()
    tracer.install()
    tracer.job = "setup"
    start = clock()
    systems = build_systems(specs)
    traced_job_s = clock() - start
    tracer.uninstall()
    workload.use_systems(systems)

    # a fixed job list, so counts repeat exactly for a seed; each job runs
    # untraced and traced, alternating which goes first
    rounds = max(1, round(args.seconds / workload.trace_round_s))
    plain, traced, outcomes = [], [], []
    csv_rows = csv_bytes = 0
    for r in range(rounds):
        for i, job in enumerate(workload.round(r)):
            for with_trace in ((False, True) if (r + i) % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.install()
                    tracer.job = f"{r}.{i}"
                try:
                    _, elapsed, outcome = run_job(job, clock)
                finally:
                    tracer.uninstall()
                outcomes.append(outcome)
                if with_trace:
                    traced.append(elapsed)
                    csv_rows += outcome.csv_rows
                    csv_bytes += outcome.csv_bytes
                else:
                    plain.append(elapsed)
    for job in workload.final_jobs():
        outcomes.append(run_job(job, clock)[2])
    traced_job_s += sum(traced)

    OUT.mkdir(parents=True, exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed, "rounds": rounds})

    t = tracer
    counts = t.counts
    steps = counts["integrators.steps_accepted"]
    rejected = counts["integrators.steps_rejected"]
    field_calls = t.calls("dynamics.field")
    diag_calls = t.calls("dynamics.diag")
    points = counts["dissipation.points"]
    layer_self = {layer: t.layer_self_s(layer) for layer in LAYERS}
    metrics = {
        "expressions.parse_s": t.total_s("expressions.parse"),
        "expressions.differentiate_s": t.total_s("expressions.differentiate"),
        "expressions.evaluate_calls": t.calls("expressions.evaluate"),
        "expressions.evaluate_nodes": counts["expressions.evaluate_nodes"],
        "expressions.evaluate_s": t.total_s("expressions.evaluate"),
        "expressions.self_s": layer_self["expressions"],
        "geometry.scalar_field_s": t.total_s("geometry.ScalarField"),
        "geometry.verify_casimir_s": t.total_s("geometry.verify_casimir"),
        "geometry.casimir_points": counts["geometry.casimir_points"],
        "geometry.poisson_matrix_calls": t.calls("geometry.poisson_matrix"),
        "geometry.gradient_at_calls": t.calls("geometry.gradient_at"),
        "geometry.self_s": layer_self["geometry"],
        "systems.load_s": layer_self["systems"],
        "dissipation.verify_s": t.total_s("dissipation.verify_metriplectic_conditions"),
        "dissipation.us_per_point": _ratio(1e6 * t.total_s("dissipation.verify_metriplectic_conditions"), points),
        "dissipation.self_s": layer_self["dissipation"],
        "dynamics.compile_s": t.total_s("dynamics.field_function") + t.total_s("dynamics.diagnostics_function"),
        "dynamics.field_calls": field_calls,
        "dynamics.field_us": _ratio(1e6 * t.total_s("dynamics.field"), field_calls),
        "dynamics.diag_calls": diag_calls,
        "dynamics.diag_us": _ratio(1e6 * t.total_s("dynamics.diag"), diag_calls),
        "dynamics.self_s": layer_self["dynamics"],
        "integrators.integrate_s": t.total_s("integrators.integrate"),
        "integrators.self_us_per_step": _ratio(1e6 * t.self_s("integrators.integrate"), steps),
        "integrators.steps_accepted": steps,
        "integrators.steps_rejected": rejected,
        "integrators.field_evals_per_step": _ratio(t.calls_under("dynamics.field", "integrators.integrate"), steps),
        "integrators.accept_ratio": _ratio(steps, steps + rejected),
        "integrators.self_s": layer_self["integrators"],
        "stability.lasalle_s": t.total_s("stability.lasalle_diagnostics"),
        "stability.lasalle_samples": counts["stability.lasalle_samples"],
        "stability.lyapunov_s": t.total_s("stability.lyapunov_report"),
        "stability.self_s": layer_self["stability"],
        "cli.main_s": t.total_s("cli.main"),
        "cli.self_s": layer_self["cli"],
        "cli.csv_rows": csv_rows,
        "cli.csv_bytes": csv_bytes,
        "cli.us_per_row": _ratio(1e6 * layer_self["cli"], csv_rows),
        "trace.job_s": traced_job_s,
        "trace.self_coverage": sum(layer_self.values()) / traced_job_s,
        "trace.overhead": statistics.median(traced) / statistics.median(plain),
    }
    notes = [
        f"traced {len(traced)} jobs in {rounds} rounds plus set-up; spans in {trace_path.relative_to(ROOT)}",
        f"per-layer self times sum to {sum(layer_self.values()):.6g} s of {traced_job_s:.6g} s traced job time",
        "layers not called on this workload report 0",
    ]
    return metrics, outcomes, notes


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


if __name__ == "__main__":
    sys.exit(main())
