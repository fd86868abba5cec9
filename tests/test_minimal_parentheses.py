"""The emitter writes only the parentheses Python's grammar needs.

Every kernel and loop source must parse to the same tree as the fully
parenthesized one of ``tests/reference_source.py``, so it compiles to the
same bytecode: the sources the identity runs compile on the five systems,
and random trees, alone and emitted with shared subtrees, locals and
targets, including the shapes where a missing parenthesis would change
the tree.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from expr_gen import random_tree
from metriplectic import cli, integrators
from metriplectic import expressions as ex
from reference_source import fully_parenthesized
from test_compare_tool import load_compare
from test_expressions import _graft

ROOT = Path(__file__).resolve().parent.parent
x1, x2, x3 = ex.Var(1), ex.Var(2), ex.Var(3)
# a tree per rule: the operand of Neg, the base of **, the right operand of - and /, signed literals
SHAPES = [
    ex.Neg(ex.Neg(x1)), ex.Neg(ex.Add(x1, x2)), ex.Neg(ex.Pow(x1, ex.Num(2.0))), ex.Neg(ex.Num(1.5)),
    ex.Neg(ex.Num(-0.0)), ex.Pow(ex.Neg(x1), ex.Num(2.0)), ex.Pow(ex.Pow(x1, ex.Num(2.0)), ex.Num(3.0)),
    ex.Pow(x1, ex.Pow(x2, ex.Num(2.0))), ex.Pow(ex.Num(-0.0), ex.Num(2.0)), ex.Pow(ex.Num(-1.5), ex.Num(-1.0)),
    ex.Pow(ex.Fun("sin", x1), ex.Num(2.0)), ex.Pow(ex.Mul(x1, x2), ex.Num(0.5)), ex.Sub(x1, ex.Sub(x2, x3)),
    ex.Sub(ex.Sub(x1, x2), x3), ex.Add(x1, ex.Sub(x2, x3)), ex.Sub(x1, ex.Neg(x2)), ex.Sub(x1, ex.Num(-0.0)),
    ex.Div(x1, ex.Mul(x2, x3)), ex.Mul(x1, ex.Div(x2, x3)), ex.Div(ex.Div(x1, x2), x3), ex.Mul(ex.Neg(x1), x2),
    ex.Div(ex.Add(x1, x2), ex.Sub(x2, x3)), ex.Mul(x1, ex.Neg(x2)), ex.Mul(ex.Num(-0.0), x1),
    ex.Div(ex.Pow(x1, ex.Num(2.0)), ex.Pow(x2, ex.Num(3.0))), ex.Fun("ln", ex.Sub(x1, ex.Num(2.0))),
]


def dump(lines) -> str:
    return ast.dump(ast.parse("\n".join(lines)))


def sources(monkeypatch, tmp_path, full: bool) -> list:
    """The sources the identity runs compile, fully parenthesized or not, in order."""
    compiled = []
    with monkeypatch.context() as patch:
        if full:
            fully_parenthesized(patch)
        original = ex.exec_source

        def record(source, *args):
            compiled.append(source)
            return original(source, *args)

        patch.setattr(ex, "exec_source", record)
        patch.setattr(integrators, "exec_source", record)
        patch.chdir(ROOT)
        integrators._loop.cache_clear()
        for name, argv in load_compare().identity_runs(t1=0.5):
            assert cli.main(argv + ["--out-dir", str(tmp_path / name)]) == 0
    integrators._loop.cache_clear()
    return compiled


def test_the_identity_runs_compile_the_fully_parenthesized_trees(monkeypatch, tmp_path):
    minimal, full = sources(monkeypatch, tmp_path, False), sources(monkeypatch, tmp_path, True)
    assert len(minimal) == len(full) > 50
    for a, b in zip(minimal, full):
        assert dump([a]) == dump([b])
    assert sum(map(len, minimal)) < 0.95 * sum(map(len, full))


@pytest.mark.parametrize("tree", SHAPES, ids=lambda tree: ex.to_string(tree))
def test_each_rule_keeps_the_tree(monkeypatch, tree):
    names = ["x1", "x2", "x3"]  # alone, and emitted twice, so that it is hoisted into a local t1
    render = lambda: [ex.to_source(tree, names)] + ex.emit([(None, tree), (None, ex.Mul(tree, tree))], names)
    minimal = render()
    fully_parenthesized(monkeypatch)
    assert dump(minimal) == dump(render())


def test_random_trees_emit_the_fully_parenthesized_trees(monkeypatch):
    rng = np.random.default_rng(34)
    cases = []
    for _ in range(300):
        n = int(rng.integers(1, 5))
        names = [f"x{i + 1}" for i in range(max(n, 3))]  # SHAPES use x1..x3
        shared = [ex.Sub(random_tree(rng, n, 2), random_tree(rng, n, 2)), random_tree(rng, n, 3)]
        trees = [_graft(rng, random_tree(rng, n, int(rng.integers(1, 6))), shared) for _ in range(3)]
        assignments = [(f"v{i}" if rng.random() < 0.5 else None, tree) for i, tree in enumerate(trees + SHAPES[:3])]
        cases.append((names, trees, assignments + [(None, tree) for target, tree in assignments if target]))
    render = lambda: [[ex.to_source(tree, names) for tree in trees] + ex.emit(assignments, names)
                      for names, trees, assignments in cases]
    minimal = render()
    fully_parenthesized(monkeypatch)
    full = render()
    assert [dump(lines) for lines in minimal] == [dump(lines) for lines in full]
    assert any(line.startswith("t") for lines in minimal for line in lines)  # locals were hoisted
