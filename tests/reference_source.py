"""The emitter's node printer with every operation parenthesized, as the minimal one is checked against.

:func:`node_source` prints each non-leaf node as the emitter did when it
wrapped every operation in parentheses: ``(a + b)``, ``(-a)``,
``(a**k)``.  Its text is longer than the minimal printer's and must parse
to the same tree.  :func:`fully_parenthesized` puts it in the emitter's
place, with the ``(source, precedence)`` operands the emitter now passes.
"""

from typing import Optional

from metriplectic import expressions as ex
from metriplectic.expressions import Expression, Fun, Neg, Num


def node_source(e: Expression, a: str, b: Optional[str] = None) -> str:
    """Source of the non-leaf node ``e`` whose operands render as ``a`` (and ``b``)."""
    op = ex._BINARY_SOURCE.get(type(e))
    if op is not None:
        return f"({a}{op}{b})"
    if type(e) is Neg:
        return f"(-{a})"
    if type(e) is Fun:
        return f"{ex._SOURCE_FUNCTIONS[e.name]}({a})"
    if type(e.right) is Num and float(e.right.value).is_integer() and abs(e.right.value) < 1e15:
        return f"({a}**{int(e.right.value)})"
    return f"_pow({a}, {b})"


def fully_parenthesized(monkeypatch) -> None:
    """Make the emitter print with :func:`node_source`; each of its results is an atom."""
    monkeypatch.setattr(ex, "_node_source",
                        lambda e, a, b=None: (node_source(e, a[0], b and b[0]), ex._PREC_ATOM))
