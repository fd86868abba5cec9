"""Compare the package's CLI outputs and benchmark runs between the working tree and another revision.

    python3 tools/compare.py identity --parent <rev>
    python3 tools/compare.py pairs --parent <rev> --workloads certify,simulate,ensemble --pairs 10 \
        --seconds 30 --out BENCH_<n>.json

``identity`` runs the identity runs in the working tree and in a
``git archive`` copy of ``<rev>``, compares what each run leaves behind,
prints the first differing byte of every output that differs and exits 1
on any difference (0 when there is none).

The identity runs are five per system, on the rigid body (default and
``I1=5,I2=3,I3=2,M0=2``), both ``configs/*.json`` and
``perfbench/configs/e3.json``: ``verify --samples 300``, ``equilibrium``
at the system's equilibrium, fixed and adaptive ``simulate --analyze`` to
t1 = 20, and a conservative ``--h 7e-4 --stride 7 --analyze`` run.  The
comparison covers every report, ``trajectory.csv``,
``simulate_summary.json`` less ``runtime_seconds``, ``run_manifest.json``
less ``argv`` and ``outputs`` (paths), stdout, stderr and the exit code.

Each tree runs its runs in one interpreter of its own, calling
``cli.main`` in-process; warnings are reset before each run, so a run
warns as it would in a fresh interpreter.

``pairs`` runs ``perfbench/run.py`` one run at a time on a ``git archive``
of ``<rev>`` (the parent) and on one of the working tree's files as
``git add -A`` would stage them (the change).  Before a workload's first
pair, a preflight runs the change once for 5 s at seed 1; unless it exits
0 with ``correct: true``, ``pairs`` writes it under ``preflight`` and exits
1 without running the pairs.  Pair p runs seed p, the parent first on odd
seeds.  A run that dies of the set-up probe race (``could not convert
string to float: ''``), the preflight too, is rerun once, and both runs
of a pair are recorded.  The JSON written to ``--out`` (after every run,
so a cut-short session leaves its pairs) holds ``parent``, ``change``,
``command``, ``machine``, ``note``, ``medians`` and ``pairs`` (and
``preflight`` after a failed one); each median gives both sides' value and
quartiles over their completed runs, ``change_vs_parent``, the
BENCHMARK.json ``bound``, ``worse_by``, ``within_bound`` and in how many
complete pairs the change was strictly better.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# name -> (system arguments, equilibrium, initial state near it, --x-e for --analyze or None for the built-in's)
SYSTEMS = {
    "rigid": (["--system", "rigid-body"], "1,0,0", "1.01,0.05,-0.03", None),
    "rigid-params": (["--system", "rigid-body", "--params", "I1=5,I2=3,I3=2,M0=2"], "2,0,0", "2.02,0.05,-0.03", None),
    "rigid-config": (["--config", "configs/rigid_body.json"], "1,0,0", "1.01,0.05,-0.03", "1,0,0"),
    "rigid-x3-config": (["--config", "configs/rigid_body_x3_axis.json"], "0,0,1", "0.03,-0.05,1.01", "0,0,1"),
    "e3": (["--config", "perfbench/configs/e3.json"], "0,0,0,0,0,-2.5",
           "0.01,-0.02,0.015,0.01,-0.01,-2.49", "0,0,0,0,0,-2.5"),
}
T1 = 20.0

RUNNER = r"""
import contextlib, io, json, sys, traceback, warnings
from pathlib import Path
from metriplectic import cli

runs, out = json.loads(sys.argv[1]), Path(sys.argv[2])
for name, argv in runs:
    run_dir = out / name
    stdout, stderr = io.StringIO(), io.StringIO()
    # entering catch_warnings clears what each module has already warned about
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv + ["--out-dir", str(run_dir / "files")])
        except Exception:
            traceback.print_exc()
            code = 1
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "stdout").write_text(stdout.getvalue())
    (run_dir / "stderr").write_text(stderr.getvalue())
    (run_dir / "exit").write_text(f"{code}\n")
"""


def identity_runs(systems=tuple(SYSTEMS), t1: float = T1) -> list:
    """``(name, argv)`` of the five identity runs of each named system."""
    runs = []
    for name in systems:
        system, equilibrium, x0, x_e = SYSTEMS[name]
        analyze = ["--analyze"] + (["--x-e=" + x_e] if x_e else [])
        simulate = ["simulate"] + system + ["--x0=" + x0, "--t1", repr(t1)] + analyze
        runs += [
            (f"{name}-verify", ["verify"] + system + ["--samples", "300"]),
            (f"{name}-equilibrium", ["equilibrium"] + system + ["--point=" + equilibrium]),
            (f"{name}-fixed", simulate),
            (f"{name}-adaptive", simulate + ["--adaptive"]),
            (f"{name}-conservative", simulate + ["--field", "conservative", "--h", "7e-4", "--stride", "7"]),
        ]
    return runs


def start_runs(tree: Path, out: Path, runs: list) -> subprocess.Popen:
    """Start the interpreter that runs ``runs`` on the package in ``tree``, writing under ``out``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    return subprocess.Popen([sys.executable, "-c", RUNNER, json.dumps(runs), str(out)],
                            cwd=tree, env=env, stderr=subprocess.PIPE, text=True)


def run_trees(trees: list, outs: list, runs: list) -> None:
    """Run ``runs`` in every tree at once, each writing to its ``outs`` entry."""
    runners = [start_runs(tree, out, runs) for tree, out in zip(trees, outs)]
    try:
        for tree, runner in zip(trees, runners):
            _, err = runner.communicate()
            if runner.returncode != 0:
                raise RuntimeError(f"identity runs failed in {tree}:\n{err}")
    finally:
        for runner in runners:
            runner.kill()  # does nothing to a runner that has exited
            runner.wait()


def _normalized(path: Path, tree: Path) -> bytes:
    """The bytes of one output, less what may differ between trees and runs."""
    data = path.read_bytes()
    if path.name == "run_manifest.json":
        manifest = json.loads(data)
        manifest.pop("argv")
        manifest.pop("outputs")
        return json.dumps(manifest, indent=2, sort_keys=True).encode()
    if path.name == "simulate_summary.json":
        return re.sub(rb'\n *"runtime_seconds": [^\n]*\n', b"\n", data)
    if path.name in ("stdout", "stderr"):
        return data.replace(str(tree).encode(), b"<tree>")
    return data


def _first_difference(a: bytes, b: bytes) -> str:
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return (f"first difference at byte {at} of {len(a)} vs {len(b)}: "
            f"{a[max(0, at - 16):at + 16]!r} vs {b[max(0, at - 16):at + 16]!r}")


def compare_outputs(out_a: Path, tree_a: Path, out_b: Path, tree_b: Path) -> list:
    """One line per output that differs between two run directories."""
    files = lambda out: {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    names_a, names_b = files(out_a), files(out_b)
    differences = [f"{name}: only in {out_a if name in names_a else out_b}" for name in sorted(names_a ^ names_b)]
    for name in sorted(names_a & names_b):
        a, b = _normalized(out_a / name, tree_a), _normalized(out_b / name, tree_b)
        if a != b:
            differences.append(f"{name}: {_first_difference(a, b)}")
    return differences


def archive(rev: str, dest: Path) -> Path:
    """Extract the committed files of ``rev`` into ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as bundle:
        bundle.extractall(dest, filter="data")
    return dest


PROBE_RACE = "could not convert string to float: ''"
PREFLIGHT_SECONDS = 5.0
MACHINE_KEYS = ("python", "numpy", "platform", "nproc", "affinity")


def git(*args: str, env=None) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True, env=env).stdout


def working_tree() -> str:
    """A git tree of the working tree's files as ``git add -A`` would stage them; the index is left alone."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        git("add", "-A", env=env)
        return git("write-tree", env=env).strip()


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> tuple:
    """One ``perfbench/run.py`` run in ``tree``: its record for ``pairs``, and its machine record or None."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", f"{seconds:g}"], cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    record = next((json.loads(line[len("# record "):]) for line in lines if line.startswith("# record ")), None)
    if proc.returncode != 0 or not lines or record is None:
        return {"exit": proc.returncode, "correct": None, "attempted": None, "failed": None, "metrics": None,
                "stderr_tail": proc.stderr.strip().splitlines()[-1:]}, None
    result = json.loads(lines[-1])
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    return ({"exit": 0, "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
             "metrics": metrics}, {key: record[key] for key in MACHINE_KEYS})


def attempts(tree: Path, workload: str, seed: int, seconds: float):
    """``(attempt, record, machine)`` of one run, and of its rerun if it died of the set-up probe race."""
    for attempt in (1, 2):
        run, machine = bench_run(tree, workload, seed, seconds)
        yield attempt, run, machine
        if not any(PROBE_RACE in line for line in run.get("stderr_tail", [])):
            return


def medians(pairs: dict, spec: dict) -> dict:
    """Per workload with completed runs on both sides, per end-to-end metric of ``spec``: the comparison."""
    table = {}
    for workload, runs in pairs.items():
        final = {(run["pair"], run["side"]): run["metrics"] for run in runs if run["metrics"]}  # last attempt wins
        sides = {side: [m for (_, s), m in sorted(final.items()) if s == side] for side in ("parent", "change")}
        complete = sorted(p for p, s in final if s == "parent" and (p, "change") in final)
        if not (sides["parent"] and sides["change"]):
            continue
        table[workload] = {}
        for metric in spec["end_to_end"]:
            name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            values = {side: [m[name] for m in sides[side]] for side in sides}
            parent, change = (float(np.median(values[side])) for side in ("parent", "change"))
            relative = (change - parent) / parent
            better = sum(sign * (final[p, "change"][name] - final[p, "parent"][name]) < 0 for p in complete)
            table[workload][name] = {
                "parent": parent,
                "change": change,
                "change_vs_parent": relative,
                "parent_quartiles": np.percentile(values["parent"], [25, 75]).tolist(),
                "change_quartiles": np.percentile(values["change"], [25, 75]).tolist(),
                "bound": metric["bound"],
                "worse_by": sign * relative,
                "within_bound": sign * relative <= metric["bound"],
                "change_better_in_pairs": f"{better} of {len(complete)}",
            }
    return table


def note(result: dict, args) -> str:
    runs = [run for workload_runs in result["pairs"].values() for run in workload_runs]
    outside = [f"{w} {name} worse by {m['worse_by']:+.1%} (bound {m['bound']:.0%})"
               for w, table in result["medians"].items() for name, m in table.items() if not m["within_bound"]]
    return (f"{args.pairs} alternating parent/change pairs of {args.seconds:g} s untraced runs per workload "
            f"(seeds 1-{args.pairs}, parent first on odd seeds), one run at a time, each side from its own git "
            f"archive. {sum(run['exit'] == 0 for run in runs)} of {len(runs)} runs exited 0; "
            f"{sum(run['attempt'] == 2 for run in runs)} of the runs are reruns after the set-up probe race. "
            + (f"Outside their BENCHMARK.json bound: {'; '.join(outside)}." if outside
               else "Every end-to-end median is inside its BENCHMARK.json bound."))


def pairs(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    change, head = working_tree(), git("rev-parse", "--short", "HEAD").strip()
    result = {"parent": args.parent, "change": f"working tree {change[:12]} (git tree of the files on {head})",
              "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {args.seconds:g}",
              "machine": None, "note": "", "medians": {}, "pairs": {}}
    scratch = Path(tempfile.mkdtemp(prefix="compare-"))
    try:
        trees = {"parent": archive(args.parent, scratch / "parent"), "change": archive(change, scratch / "change")}
        for workload in args.workloads.split(","):
            *_, (attempt, run, _) = attempts(trees["change"], workload, 1, PREFLIGHT_SECONDS)
            if run["exit"] != 0 or run["correct"] is not True:
                result["preflight"] = {"workload": workload, "attempt": attempt, "seed": 1, **run}
                Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
                print(f"{workload} preflight of the change failed: exit {run['exit']}", file=sys.stderr)
                return 1
            runs = result["pairs"][workload] = []
            for pair in range(1, args.pairs + 1):
                for side in ("parent", "change") if pair % 2 else ("change", "parent"):
                    for attempt, run, machine in attempts(trees[side], workload, pair, args.seconds):
                        runs.append({"pair": pair, "attempt": attempt, "seed": pair, "side": side, **run})
                        result["machine"] = result["machine"] or machine
                        print(f"{workload} pair {pair} {side} attempt {attempt}: exit {run['exit']}", file=sys.stderr)
                    result["medians"] = medians(result["pairs"], spec)
                    result["note"] = note(result, args)
                    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    finally:
        shutil.rmtree(scratch)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    identity = commands.add_parser("identity", help="compare the identity runs' outputs with another revision")
    identity.add_argument("--parent", required=True, help="git revision to compare the working tree with")
    bench = commands.add_parser("pairs", help="alternating perfbench runs of another revision and the working tree")
    bench.add_argument("--parent", required=True, help="git revision to compare the working tree with")
    bench.add_argument("--workloads", required=True, help="comma-separated perfbench workloads")
    bench.add_argument("--pairs", type=int, required=True, help="pairs per workload; pair p runs seed p")
    bench.add_argument("--seconds", type=float, required=True, help="--seconds of every run")
    bench.add_argument("--out", required=True, help="JSON file to write, rewritten after every run")
    args = parser.parse_args(argv)
    if args.command == "pairs":
        return pairs(args)

    runs = identity_runs()
    scratch = Path(tempfile.mkdtemp(prefix="compare-"))
    try:
        parent = archive(args.parent, scratch / "parent")
        outs = [scratch / "out-parent", scratch / "out-work"]
        run_trees([parent, ROOT], outs, runs)
        differences = compare_outputs(outs[0], parent, outs[1], ROOT)
    finally:
        shutil.rmtree(scratch)
    for line in differences:
        print(line)
    print(f"{len(runs)} runs against {args.parent}: "
          f"{len(differences) or 'no'} difference{'' if len(differences) == 1 else 's'}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
