"""``tools/compare.py``: ``identity`` reads the same tree twice as identical and finds one planted byte;
``pairs`` re-derives a committed BENCH file's medians, stops at a failed preflight of the change, and
alternates, reruns and records its runs."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_compare():
    spec = importlib.util.spec_from_file_location("tools_compare", ROOT / "tools" / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identity_runs_of_one_tree_agree_and_a_planted_byte_is_reported(tmp_path):
    compare = load_compare()
    runs = compare.identity_runs(["rigid"], t1=0.05)
    assert len(runs) == 5
    outs = [tmp_path / "a", tmp_path / "b"]
    compare.run_trees([ROOT, ROOT], outs, runs)
    assert (outs[0] / "rigid-fixed" / "exit").read_text() == "0\n"
    assert compare.compare_outputs(outs[0], ROOT, outs[1], ROOT) == []

    planted = tmp_path / "planted"
    shutil.copytree(outs[1], planted)
    csv = planted / "rigid-adaptive" / "files" / "trajectory.csv"
    data = bytearray(csv.read_bytes())
    at = data.rindex(b"\n", 0, len(data) - 1) + 5  # a digit in the last row
    data[at] = ord("7") if data[at] != ord("7") else ord("3")
    csv.write_bytes(bytes(data))
    differences = compare.compare_outputs(outs[0], ROOT, planted, ROOT)
    assert len(differences) == 1
    assert differences[0].startswith(f"rigid-adaptive/files/trajectory.csv: first difference at byte {at} ")


def test_pairs_medians_re_derive_a_committed_bench_file():
    compare = load_compare()
    bench = json.loads((ROOT / "BENCH_25.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert json.dumps(compare.medians(bench["pairs"], spec)) == json.dumps(bench["medians"])  # key order included


@pytest.mark.parametrize("failures, recorded", [
    ([{"exit": 1, "correct": None}], {"attempt": 1, "exit": 1}),
    ([{"exit": 0, "correct": False}], {"attempt": 1, "exit": 0, "correct": False}),
    ([{"exit": 1, "correct": None, "stderr_tail": ["probe race"]}] * 2, {"attempt": 2, "exit": 1}),
])
def test_pairs_stop_before_the_first_pair_when_the_change_fails_its_preflight(tmp_path, monkeypatch, failures,
                                                                               recorded):
    compare = load_compare()
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed, seconds))
        run = {"exit": 0, "correct": True, "attempted": 5, "failed": 0, "metrics": None, "stderr_tail": []}
        run.update(failures[len(calls) - 1] if len(calls) <= len(failures) else {})
        run["stderr_tail"] = [line.replace("probe race", compare.PROBE_RACE) for line in run["stderr_tail"]]
        return run, None

    monkeypatch.setattr(compare, "bench_run", fake_run)
    monkeypatch.setattr(compare, "archive", lambda rev, dest: dest)
    monkeypatch.setattr(compare, "working_tree", lambda: "c")
    monkeypatch.setattr(compare, "git", lambda *args, env=None: "h\n")
    out = tmp_path / "bench.json"
    args = compare.argparse.Namespace(parent="p", workloads="certify,simulate", pairs=3, seconds=30.0, out=str(out))
    assert compare.pairs(args) == 1
    assert calls == [("change", "certify", 1, compare.PREFLIGHT_SECONDS)] * len(failures)  # no pair, no other workload
    result = json.loads(out.read_text())
    assert result["pairs"] == {} and result["medians"] == {}
    preflight = result["preflight"]
    assert (preflight["workload"], preflight["seed"]) == ("certify", 1)
    assert {key: preflight[key] for key in recorded} == recorded


def test_pairs_alternate_the_first_side_and_rerun_a_probe_race_once(tmp_path, monkeypatch):
    compare = load_compare()
    calls, preflights = [], []

    def fake_run(tree, workload, seed, seconds):
        if seconds == compare.PREFLIGHT_SECONDS:  # the change's preflight, which passes
            preflights.append((tree.name, workload, seed))
            return {"exit": 0, "correct": True, "attempted": 1, "failed": 0, "metrics": {}}, None
        calls.append((tree.name, workload, seed))
        if len(calls) in (2, 3):  # the second run dies of the probe race twice: rerun once, then kept as failed
            return {"exit": 1, "correct": None, "attempted": None, "failed": None, "metrics": None,
                    "stderr_tail": [f"ValueError: {compare.PROBE_RACE}"]}, None
        value = {"parent": 2.0, "change": 1.0}[tree.name] + seed / 100
        metrics = {m["name"]: value for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
        return {"exit": 0, "correct": True, "attempted": 5, "failed": 0, "metrics": metrics}, {"python": "3"}

    monkeypatch.setattr(compare, "bench_run", fake_run)
    monkeypatch.setattr(compare, "archive", lambda rev, dest: dest)
    monkeypatch.setattr(compare, "working_tree", lambda: "c")
    monkeypatch.setattr(compare, "git", lambda *args, env=None: "h\n")  # the head's rev-parse, also outside a checkout
    out = tmp_path / "bench.json"
    args = compare.argparse.Namespace(parent="p", workloads="certify", pairs=3, seconds=1.0, out=str(out))
    assert compare.pairs(args) == 0
    assert calls == [("parent", "certify", 1), ("change", "certify", 1), ("change", "certify", 1),
                     ("change", "certify", 2), ("parent", "certify", 2), ("parent", "certify", 3),
                     ("change", "certify", 3)]
    result = json.loads(out.read_text())
    assert [(r["pair"], r["attempt"], r["side"], r["exit"]) for r in result["pairs"]["certify"]][:3] == [
        (1, 1, "parent", 0), (1, 1, "change", 1), (1, 2, "change", 1)]
    p50 = result["medians"]["certify"]["job_p50_ms"]
    assert (p50["parent"], p50["change"], p50["change_better_in_pairs"]) == (2.02, 1.025, "2 of 2")
    assert p50["within_bound"] and not result["medians"]["certify"]["work_per_s"]["within_bound"]
    assert result["machine"] == {"python": "3"} and "1 of the runs are reruns" in result["note"]
    assert result["change"] == "working tree c (git tree of the files on h)"
    assert preflights == [("change", "certify", 1)] and "preflight" not in result
