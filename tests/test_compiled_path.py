"""Package-wide properties of the evaluation path and of its checks.

Every numeric evaluation runs on compiled kernels; the tree-walking
``expressions.evaluate`` is only the oracle the tests compare them with.
No invariant is enforced with ``assert``, which ``python -O`` strips.
"""

import ast
import json
from collections import Counter
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


def recording_compiles(monkeypatch) -> list:
    """The names of the kernels ``expressions.compile_kernels`` builds from now on, in order."""
    compiled, original = [], expressions.compile_kernels

    def record(arity, bodies, *label_and_env):
        compiled.extend(bodies)
        return original(arity, bodies, *label_and_env)

    monkeypatch.setattr(expressions, "compile_kernels", record)
    return compiled


def test_each_command_compiles_only_the_kernels_it_calls(tmp_path, monkeypatch):
    # each command loads its system afresh, so it compiles every kernel it calls and no other
    compiled = recording_compiles(monkeypatch)
    config = tmp_path / "e3.json"
    config.write_text(json.dumps(E3_DOCUMENT))
    runs = [
        (["--system", "rigid-body"], "1,0,0", "1.01,0.05,-0.03", []),
        (["--config", str(config)], "0,0,0,0,0,-2.5", "0.01,-0.02,0.015,0.02,-0.01,-2.49",
         ["--x-e=0,0,0,0,0,-2.5"]),
    ]

    def kernels(argv):
        compiled.clear()
        assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == cli.EXIT_OK
        return Counter(name for name in compiled if name in ("conservative", "metriplectic", "diagnostics", "report"))

    for system, point, x0, extra in runs:
        assert kernels(["verify", *system, "--samples", "20"]) == Counter()
        assert kernels(["equilibrium", *system, f"--point={point}"]) == Counter(
            conservative=1, metriplectic=1, report=1)
        simulate = ["simulate", *system, f"--x0={x0}", "--t1", "1", "--h", "1e-2", "--analyze", *extra]
        assert kernels(simulate) == Counter(metriplectic=1, diagnostics=1)


def test_a_lyapunov_report_compiles_one_kernel_and_builds_no_scalar_field(monkeypatch):
    built, original_init = [], mp.ScalarField.__init__

    def record(self, *args, **kwargs):
        built.append(args)
        original_init(self, *args, **kwargs)

    for sys_def, x_e in [(mp.rigid_body_system(), [1.0, 0.0, 0.0]), (mp.load_system(E3_DOCUMENT), [0.0] * 5 + [-2.5])]:
        mp.classify_equilibrium(sys_def, x_e)  # compiles the fields and composes the entropy
        with monkeypatch.context() as patch:
            compiled = recording_compiles(patch)
            patch.setattr(mp.ScalarField, "__init__", record)
            mp.lyapunov_report(sys_def, x_e)
        assert (compiled, built) == (["report"], [])


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
