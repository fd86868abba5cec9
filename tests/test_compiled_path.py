"""Package-wide properties of the evaluation path and of its checks.

Every numeric evaluation runs on compiled kernels; the tree-walking
``expressions.evaluate`` is only the oracle the tests compare them with.
No invariant is enforced with ``assert``, which ``python -O`` strips.
"""

import ast
import json
from pathlib import Path

import metriplectic as mp
from metriplectic import cli, expressions

PACKAGE_DIR = Path(mp.__file__).resolve().parent

# e(3) Lie-Poisson system: six dimensions, two Casimirs, equilibrium (0, .., -2.5)
E3_DOCUMENT = {
    "name": "e3-lie-poisson",
    "dimension": 6,
    "poisson": [
        ["0", "-x3", "x2", "0", "-x6", "x5"],
        ["x3", "0", "-x1", "x6", "0", "-x4"],
        ["-x2", "x1", "0", "-x5", "x4", "0"],
        ["0", "-x6", "x5", "0", "0", "0"],
        ["x6", "0", "-x4", "0", "0", "0"],
        ["-x5", "x4", "0", "0", "0", "0"],
    ],
    "hamiltonian": "x1^2/6 + x2^2/4 + x3^2/2 + (x4^2 + x5^2 + x6^2)/2 + x6",
    "casimirs": ["(x4^2 + x5^2 + x6^2)/2", "x1*x4 + x2*x5 + x3*x6"],
    "phi": "(s1 - 0.5)^2 + s2^2 - 5.85*s1",
}


def test_library_and_cli_never_walk_the_tree(tmp_path, monkeypatch):
    calls = []

    def refuse(e, point):
        calls.append(e)
        raise AssertionError("tree-walking evaluate called outside the tests")

    monkeypatch.setattr(expressions, "evaluate", refuse)
    monkeypatch.setattr(mp, "evaluate", refuse)
    config = tmp_path / "e3.json"
    config.write_text(json.dumps(E3_DOCUMENT))
    mp.rigid_body_system()  # default 1000-point Casimir certification
    mp.load_system(E3_DOCUMENT)
    runs = [
        (["--system", "rigid-body"], "1,0,0", "1.01,0.05,-0.03", []),
        (["--config", str(config)], "0,0,0,0,0,-2.5", "0.01,-0.02,0.015,0.02,-0.01,-2.49",
         ["--x-e=0,0,0,0,0,-2.5"]),
    ]
    for system, point, x0, extra in runs:
        out = ["--out-dir", str(tmp_path / "out")]
        assert cli.main(["verify", *system, *out]) == cli.EXIT_OK
        assert cli.main(["equilibrium", *system, f"--point={point}", *out]) == cli.EXIT_OK
        simulate = ["simulate", *system, f"--x0={x0}", "--t1", "2", "--h", "1e-2", "--analyze", *extra]
        assert cli.main(simulate + out) == cli.EXIT_OK
    assert calls == []


def test_only_the_emitter_prints_kernel_source():
    # every generated kernel body comes from expressions.emit, which prints nodes with to_source
    callers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "expressions.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "to_source" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    ]
    assert callers == []


def test_package_has_no_assert_statements():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
