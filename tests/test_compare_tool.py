"""``tools/compare.py identity``: the same tree twice reads identical, and one planted byte does not."""

import importlib.util
import shutil
from pathlib import Path

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
