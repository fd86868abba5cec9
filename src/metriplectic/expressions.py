"""Scalar math expressions with exact symbolic differentiation.

User-defined systems supply their Hamiltonian, Casimirs, entropy shaper
and Poisson-matrix entries as strings in indexed variables (``x1..xn``,
or ``s1..sk`` for the entropy shaper).  Parsing produces an immutable
tree that can be differentiated symbolically, printed back to parseable
text, emitted by :func:`emit` as kernel lines and compiled by
:func:`compile_kernels` into the kernels every numeric evaluation runs
on; the tree-walking :func:`evaluate` is the oracle they are tested on.

Grammar (whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := number | ident | '(' expr ')' | func '(' expr ')'
    func   := 'sin' | 'cos' | 'exp' | 'ln' | 'sqrt'
    ident  := variable prefix followed by a decimal index (1-based)

``^`` binds tighter than unary minus, so ``-x1^2`` means ``-(x1^2)``.
"""

from __future__ import annotations

import itertools
import linecache
import math
import re
import weakref
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

__all__ = [
    "Expression",
    "Num",
    "Var",
    "Neg",
    "Fun",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "ExpressionError",
    "ExpressionSyntaxError",
    "UnknownIdentifierError",
    "VariableIndexError",
    "EvaluationError",
    "parse",
    "evaluate",
    "differentiate",
    "substitute",
    "to_string",
    "to_source",
    "emit",
    "compile_kernels",
    "exec_source",
    "max_var_index",
    "FUNCTIONS",
]

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")

_MAX_NESTING = 100


class ExpressionError(ValueError):
    """Problem with an expression string; carries a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class ExpressionSyntaxError(ExpressionError):
    pass


class UnknownIdentifierError(ExpressionError):
    pass


class VariableIndexError(ExpressionError):
    pass


class EvaluationError(ArithmeticError):
    """Domain violation while evaluating (division by zero, ln(x<=0), ...)."""


# ---------------------------------------------------------------------------
# AST nodes

class Expression:
    """Immutable expression tree node."""

    __slots__ = ()

    def __str__(self) -> str:
        return to_string(self)


@dataclass(frozen=True)
class Num(Expression):
    value: float


@dataclass(frozen=True)
class Var(Expression):
    index: int  # 1-based
    prefix: str = "x"


@dataclass(frozen=True)
class Neg(Expression):
    arg: Expression


@dataclass(frozen=True)
class Fun(Expression):
    name: str
    arg: Expression


@dataclass(frozen=True)
class Add(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Sub(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Mul(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Div(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Pow(Expression):
    left: Expression
    right: Expression


# ---------------------------------------------------------------------------
# Evaluation

def _power(base: float, expt: float) -> float:
    if base == 0.0 and expt < 0.0:
        raise EvaluationError("zero raised to a negative power")
    if base < 0.0 and not float(expt).is_integer():
        raise EvaluationError("negative base with non-integer exponent")
    try:
        return base ** expt
    except OverflowError as exc:
        raise EvaluationError("overflow in power") from exc


def _apply_function(name: str, v: float) -> float:
    if name == "sin":
        return math.sin(v)
    if name == "cos":
        return math.cos(v)
    if name == "exp":
        try:
            return math.exp(v)
        except OverflowError as exc:
            raise EvaluationError("overflow in exp") from exc
    if name == "ln":
        if v <= 0.0:
            raise EvaluationError(f"ln of non-positive argument {v!r}")
        return math.log(v)
    if name == "sqrt":
        if v < 0.0:
            raise EvaluationError(f"sqrt of negative argument {v!r}")
        return math.sqrt(v)
    raise AssertionError(f"unreachable function {name!r}")


def evaluate(e: Expression, point: Sequence[float]) -> float:
    """Evaluate ``e`` at ``point`` in IEEE double precision.

    ``point[i-1]`` supplies variable ``i``.  Domain violations raise
    :class:`EvaluationError` rather than returning NaN/inf.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.index > len(point):
            raise EvaluationError(
                f"variable {e.prefix}{e.index} outside point of length {len(point)}"
            )
        return float(point[e.index - 1])
    if isinstance(e, Neg):
        return -evaluate(e.arg, point)
    if isinstance(e, Fun):
        return _apply_function(e.name, evaluate(e.arg, point))
    if isinstance(e, Add):
        return evaluate(e.left, point) + evaluate(e.right, point)
    if isinstance(e, Sub):
        return evaluate(e.left, point) - evaluate(e.right, point)
    if isinstance(e, Mul):
        return evaluate(e.left, point) * evaluate(e.right, point)
    if isinstance(e, Div):
        denom = evaluate(e.right, point)
        if denom == 0.0:
            raise EvaluationError("division by zero")
        return evaluate(e.left, point) / denom
    if isinstance(e, Pow):
        return _power(evaluate(e.left, point), evaluate(e.right, point))
    raise TypeError(f"not an expression node: {e!r}")


def max_var_index(e: Expression) -> int:
    """Largest variable index used in the tree (0 for constants)."""
    if isinstance(e, Var):
        return e.index
    if isinstance(e, (Num,)):
        return 0
    if isinstance(e, (Neg, Fun)):
        return max_var_index(e.arg)
    return max(max_var_index(e.left), max_var_index(e.right))


# ---------------------------------------------------------------------------
# Smart constructors (light, sound constant folding)

def _finite_num(v: float) -> Expression | None:
    return Num(v) if math.isfinite(v) else None


def add(l: Expression, r: Expression) -> Expression:
    if isinstance(l, Num) and l.value == 0.0:
        return r
    if isinstance(r, Num) and r.value == 0.0:
        return l
    if isinstance(l, Num) and isinstance(r, Num):
        folded = _finite_num(l.value + r.value)
        if folded is not None:
            return folded
    return Add(l, r)


def sub(l: Expression, r: Expression) -> Expression:
    if isinstance(r, Num) and r.value == 0.0:
        return l
    if isinstance(l, Num) and l.value == 0.0:
        return neg(r)
    if isinstance(l, Num) and isinstance(r, Num):
        folded = _finite_num(l.value - r.value)
        if folded is not None:
            return folded
    return Sub(l, r)


def mul(l: Expression, r: Expression) -> Expression:
    if isinstance(l, Num):
        if l.value == 0.0:
            return Num(0.0)
        if l.value == 1.0:
            return r
    if isinstance(r, Num):
        if r.value == 0.0:
            return Num(0.0)
        if r.value == 1.0:
            return l
    if isinstance(l, Num) and isinstance(r, Num):
        folded = _finite_num(l.value * r.value)
        if folded is not None:
            return folded
    return Mul(l, r)


def div(l: Expression, r: Expression) -> Expression:
    if isinstance(r, Num) and r.value == 1.0:
        return l
    if isinstance(l, Num) and isinstance(r, Num) and r.value != 0.0:
        folded = _finite_num(l.value / r.value)
        if folded is not None:
            return folded
    return Div(l, r)


def power(l: Expression, r: Expression) -> Expression:
    if isinstance(r, Num):
        if r.value == 1.0:
            return l
        if r.value == 0.0:
            return Num(1.0)
    if isinstance(l, Num) and isinstance(r, Num):
        try:
            folded = _finite_num(_power(l.value, r.value))
        except EvaluationError:
            folded = None
        if folded is not None:
            return folded
    return Pow(l, r)


def neg(e: Expression) -> Expression:
    if isinstance(e, Neg):
        return e.arg
    if isinstance(e, Num):
        return Num(-e.value)
    return Neg(e)


def fun(name: str, arg: Expression) -> Expression:
    if isinstance(arg, Num):
        try:
            folded = _finite_num(_apply_function(name, arg.value))
        except EvaluationError:
            folded = None
        if folded is not None:
            return folded
    return Fun(name, arg)


# ---------------------------------------------------------------------------
# Differentiation

def differentiate(e: Expression, index: int) -> Expression:
    """Symbolic partial derivative with respect to variable ``index``.

    The result uses only the node kinds of the input grammar, so it can
    be differentiated again, printed, and compiled like any parsed tree.
    """
    if index < 1:
        raise ValueError(f"variable index must be >= 1, got {index}")
    return _diff(e, index)


def _diff(e: Expression, i: int) -> Expression:
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0) if e.index == i else Num(0.0)
    if isinstance(e, Neg):
        return neg(_diff(e.arg, i))
    if isinstance(e, Add):
        return add(_diff(e.left, i), _diff(e.right, i))
    if isinstance(e, Sub):
        return sub(_diff(e.left, i), _diff(e.right, i))
    if isinstance(e, Mul):
        return add(mul(_diff(e.left, i), e.right), mul(e.left, _diff(e.right, i)))
    if isinstance(e, Div):
        num = sub(mul(_diff(e.left, i), e.right), mul(e.left, _diff(e.right, i)))
        return div(num, power(e.right, Num(2.0)))
    if isinstance(e, Pow):
        u, v = e.left, e.right
        du = _diff(u, i)
        if isinstance(v, Num):
            # power rule: d(u^c) = c * u^(c-1) * u'
            return mul(mul(v, power(u, Num(v.value - 1.0))), du)
        # general rule via u^v = exp(v ln u), valid where u > 0
        dv = _diff(v, i)
        inner = add(mul(dv, fun("ln", u)), div(mul(v, du), u))
        return mul(power(u, v), inner)
    if isinstance(e, Fun):
        du = _diff(e.arg, i)
        if e.name == "sin":
            return mul(fun("cos", e.arg), du)
        if e.name == "cos":
            return neg(mul(fun("sin", e.arg), du))
        if e.name == "exp":
            return mul(fun("exp", e.arg), du)
        if e.name == "ln":
            return div(du, e.arg)
        if e.name == "sqrt":
            return div(du, mul(Num(2.0), fun("sqrt", e.arg)))
    raise TypeError(f"not an expression node: {e!r}")


def substitute(e: Expression, mapping: Mapping[int, Expression]) -> Expression:
    """Replace every variable ``i`` with ``mapping[i]``.

    Every variable occurring in ``e`` must be mapped; used to compose an
    entropy shaper in ``s1..sk`` with Casimir expressions in ``x1..xn``.
    """
    if isinstance(e, Num):
        return e
    if isinstance(e, Var):
        try:
            return mapping[e.index]
        except KeyError:
            raise ValueError(f"no substitution for variable {e.prefix}{e.index}") from None
    if isinstance(e, Neg):
        return neg(substitute(e.arg, mapping))
    if isinstance(e, Fun):
        return fun(e.name, substitute(e.arg, mapping))
    ctor = {Add: add, Sub: sub, Mul: mul, Div: div, Pow: power}[type(e)]
    return ctor(substitute(e.left, mapping), substitute(e.right, mapping))


# ---------------------------------------------------------------------------
# Printing (canonical, reparseable)

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _prec(e: Expression) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Num) and (e.value < 0 or math.copysign(1.0, e.value) < 0):
        return _PREC_NEG  # prints with a leading '-'
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _wrap(e: Expression, minimum: int) -> str:
    s = to_string(e)
    return f"({s})" if _prec(e) < minimum else s


def to_string(e: Expression) -> str:
    """Canonical text form; ``parse(to_string(e))`` evaluates identically.

    Right operands at equal precedence are parenthesized so the reparsed
    tree keeps the exact floating-point association of the original.
    """
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return f"{e.prefix}{e.index}"
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _PREC_NEG)
    if isinstance(e, Fun):
        return f"{e.name}({to_string(e.arg)})"
    if isinstance(e, Add):
        return f"{_wrap(e.left, _PREC_ADD)} + {_wrap(e.right, _PREC_ADD + 1)}"
    if isinstance(e, Sub):
        return f"{_wrap(e.left, _PREC_ADD)} - {_wrap(e.right, _PREC_ADD + 1)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.left, _PREC_MUL)}*{_wrap(e.right, _PREC_MUL + 1)}"
    if isinstance(e, Div):
        return f"{_wrap(e.left, _PREC_MUL)}/{_wrap(e.right, _PREC_MUL + 1)}"
    if isinstance(e, Pow):
        # '^' is right-associative; a Neg or Pow exponent needs no parens
        right = to_string(e.right) if _prec(e.right) >= _PREC_NEG else f"({to_string(e.right)})"
        return f"{_wrap(e.left, _PREC_POW + 1)}^{right}"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Compilation to Python source

_SOURCE_FUNCTIONS = {"sin": "sin", "cos": "cos", "exp": "_exp", "ln": "_ln", "sqrt": "_sqrt"}
_BINARY_SOURCE = {Add: " + ", Sub: " - ", Mul: "*", Div: "/"}

def kernel_error(exc: Exception, xs: list) -> EvaluationError:
    """The :class:`EvaluationError` a kernel raises for the math error ``exc`` at input ``xs``."""
    err = EvaluationError(f"{exc.args[-1]} at x={xs}")
    err.__cause__ = exc
    return err


SOURCE_ENV: dict[str, Callable] = {
    "sin": math.sin,
    "cos": math.cos,
    "_exp": math.exp,
    "_ln": math.log,
    "_sqrt": math.sqrt,
    "_pow": _power,
    "EvaluationError": EvaluationError,
    "KERNEL_ERRORS": (EvaluationError, ZeroDivisionError, ValueError, OverflowError),
    "kernel_error": kernel_error,
}


def _node_source(e: Expression, a: tuple, b: Optional[tuple] = None) -> tuple:
    """Source and precedence of the non-leaf node ``e`` over operands ``(source, precedence)`` ``a`` (and ``b``),
    parenthesized only as Python needs; names, calls and literals (a negative one in parentheses) are atoms."""
    wrap = lambda operand, minimum: operand[0] if operand[1] >= minimum else f"({operand[0]})"
    cls = type(e)
    if cls is Fun:
        return f"{_SOURCE_FUNCTIONS[e.name]}({a[0]})", _PREC_ATOM
    if cls is Neg:
        return "-" + wrap(a, _PREC_NEG), _PREC_NEG
    if cls is Pow:
        if type(e.right) is Num and float(e.right.value).is_integer() and abs(e.right.value) < 1e15:
            return f"{wrap(a, _PREC_ATOM)}**{int(e.right.value)}", _PREC_POW
        return f"_pow({a[0]}, {b[0]})", _PREC_ATOM
    prec = _PREC_ADD if cls is Add or cls is Sub else _PREC_MUL
    return f"{wrap(a, prec)}{_BINARY_SOURCE[cls]}{wrap(b, prec + 1)}", prec


def to_source(e: Expression, names: Sequence[str]) -> str:
    """Render as a Python expression over the given variable names.

    ``names[i-1]`` replaces variable ``i``.  The result, with only the parentheses
    Python needs, is meant to run in a kernel built by :func:`compile_kernels`.
    """
    return _source(e, names)[0]


def _source(e: Expression, names: Sequence[str]) -> tuple:
    """:func:`to_source` of ``e`` and its precedence there."""
    cls = type(e)
    if cls is Num:
        if not math.isfinite(e.value):
            raise ValueError(f"cannot compile non-finite literal {e.value!r}")
        # parenthesize negatives and -0.0: '**' binds tighter than unary minus in Python
        return (f"({e.value!r})" if math.copysign(1.0, e.value) < 0 else repr(e.value)), _PREC_ATOM
    if cls is Var:
        if e.index > len(names):
            raise ValueError(f"variable index {e.index} beyond name table of {len(names)}")
        return names[e.index - 1], _PREC_ATOM
    if cls is Neg or cls is Fun:
        return _node_source(e, _source(e.arg, names))
    if cls in _BINARY_SOURCE or cls is Pow:
        return _node_source(e, _source(e.left, names), _source(e.right, names))
    raise TypeError(f"not an expression node: {e!r}")


def emit(assignments: Sequence[tuple[Optional[str], Expression]], names: Sequence[str]) -> list[str]:
    """Kernel lines computing each ``(target, tree)`` in order, no subtree twice.

    A tree goes to its target or, for ``None``, to the tuple that the last
    line returns; a non-leaf subtree found in two places goes to a local
    ``t<k>`` just before the first tree using it.  Subtrees are numbered by
    kind and operands, leaves by source (``0.0`` and ``-0.0`` stay apart).
    A local holds the same operations on the same operands, so values keep
    their bits; of two failures, the one reported can differ from inline's.
    Lines have only the parentheses Python needs; a local or target is an atom.
    """
    numbers, indices, entries, uses = {}, {}, [], {}  # by id(node), by (kind, operands), by index or leaf

    def number(e):  # a leaf's source, or the index of the entry computing e
        cls = type(e)
        if cls is Num or cls is Var:
            return to_source(e, names)
        value = numbers.get(id(e))
        if value is None:
            a, b = (number(e.arg), None) if cls is Neg or cls is Fun else (number(e.left), number(e.right))
            value = numbers[id(e)] = indices.setdefault((cls, e.name if cls is Fun else b, a), len(entries))
            if value == len(entries):
                entries.append((e, a, b))
                for operand in a, b:
                    uses[operand] = uses.get(operand, 0) + 1
        return value

    roots = []  # (value, entries up to it)
    for _, tree in assignments:
        roots.append((number(tree), len(entries)))
        uses[roots[-1][0]] = uses.get(roots[-1][0], 0) + 1
    refs, lines, returned, start = {}, [], [], 0  # refs: index -> (the local holding it, or its source, precedence)
    ref = lambda value: refs.get(value, (value, _PREC_ATOM))  # a leaf's source is an atom
    for (target, _), (root, end) in zip(assignments, roots):
        for index in range(start, end):
            e, a, b = entries[index]
            refs[index] = _node_source(e, ref(a), ref(b))
            if uses[index] > 1 and (index != root or target is None):
                lines.append(f"t{len(lines) + 1} = {refs[index][0]}")
                refs[index] = f"t{len(lines)}", _PREC_ATOM
        start = end
        if target is None:
            returned.append(ref(root)[0])
            continue
        lines.append(f"{target} = {ref(root)[0]}")
        if type(root) is int:
            refs[root] = target, _PREC_ATOM
    return lines + ["return (" + "".join(f"{source}, " for source in returned) + ")"] if returned else lines


def compile_kernels(arity: int, bodies: Mapping[str, Sequence[str]], label: str, env: Mapping = SOURCE_ENV) -> dict:
    """Compile one function ``name(xs)`` per entry of ``bodies``.

    A body is a list of statement lines, ending in a ``return``, over the
    locals ``x1..x<arity>`` unpacked from the list ``xs``.  The functions
    run with ``env`` (:data:`SOURCE_ENV` or a superset) in scope, and each maps a math error raised
    inside it (one of ``KERNEL_ERRORS``) to the :func:`kernel_error` naming its text (no errno) and ``xs``.
    A function's code also runs rebound to other globals (numpy's functions, on a sample's columns).
    """
    unpack = "".join(f"        x{i + 1} = xs[{i}]\n" for i in range(arity))
    source = "".join(
        f"def {name}(xs):\n    try:\n{unpack}" + "".join(f"        {line}\n" for line in body)
        + "    except KERNEL_ERRORS as exc:\n        raise kernel_error(exc, xs) from exc\n"
        for name, body in bodies.items()
    )
    namespace = exec_source(source, label, env, next(iter(bodies)))
    return {name: namespace[name] for name in bodies}


_SOURCE_SERIAL = itertools.count(1)
_SOURCE_ANCHORS: dict = {}  # linecache file name -> weak reference to a function it defines


def exec_source(source: str, label: str, env: Mapping, anchor: str) -> dict:
    """Execute generated ``source`` in a copy of ``env``; return the namespace.

    The package's one exec site.  The text is registered in :mod:`linecache`
    as ``<label-N>`` (so tracebacks and :mod:`inspect` show generated lines)
    until the function ``anchor`` it defines is garbage collected.
    """
    filename = f"<{label}-{next(_SOURCE_SERIAL)}>"
    namespace = dict(env)
    exec(compile(source, filename, "exec"), namespace)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    forget = lambda _: (linecache.cache.pop(filename, None), _SOURCE_ANCHORS.pop(filename, None))
    _SOURCE_ANCHORS[filename] = weakref.ref(namespace[anchor], forget)
    return namespace


# ---------------------------------------------------------------------------
# Lexer / parser

_NUMBER_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_WORD_RE = re.compile(r"[A-Za-z_]+")
_DIGITS_RE = re.compile(r"\d+")


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM VAR FUNC OP END
    value: object
    pos: int


def _tokenize(text: str, arity: int, prefix: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("OP", ch, i))
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            value = float(m.group())
            if not math.isfinite(value):
                raise ExpressionSyntaxError(f"numeric literal {m.group()!r} overflows", i)
            tokens.append(_Token("NUM", value, i))
            i = m.end()
            continue
        m = _WORD_RE.match(text, i)
        if m:
            word = m.group()
            if word in FUNCTIONS:
                tokens.append(_Token("FUNC", word, i))
                i = m.end()
                continue
            if word == prefix:
                d = _DIGITS_RE.match(text, m.end())
                if d is None:
                    raise UnknownIdentifierError(
                        f"variable prefix {prefix!r} without an index", i
                    )
                index = int(d.group())
                if not 1 <= index <= arity:
                    raise VariableIndexError(
                        f"variable {prefix}{index} out of range for arity {arity}", i
                    )
                tokens.append(_Token("VAR", index, i))
                i = d.end()
                continue
            raise UnknownIdentifierError(f"unknown identifier {word!r}", i)
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("END", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], prefix: str):
        self.tokens = tokens
        self.prefix = prefix
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _enter(self, pos: int) -> None:
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ExpressionSyntaxError("expression nested too deeply", pos)

    def expr(self) -> Expression:
        node = self.term()
        while self.peek().kind == "OP" and self.peek().value in "+-":
            op = self.advance().value
            rhs = self.term()
            node = add(node, rhs) if op == "+" else sub(node, rhs)
        return node

    def term(self) -> Expression:
        node = self.unary()
        while self.peek().kind == "OP" and self.peek().value in "*/":
            op = self.advance().value
            rhs = self.unary()
            node = mul(node, rhs) if op == "*" else div(node, rhs)
        return node

    def unary(self) -> Expression:
        tok = self.peek()
        if tok.kind == "OP" and tok.value == "-":
            self.advance()
            self._enter(tok.pos)
            try:
                return neg(self.unary())
            finally:
                self.depth -= 1
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "OP" and tok.value == "^":
            self.advance()
            return power(base, self.unary())
        return base

    def atom(self) -> Expression:
        tok = self.advance()
        if tok.kind == "NUM":
            return Num(tok.value)
        if tok.kind == "VAR":
            return Var(tok.value, self.prefix)
        if tok.kind == "FUNC":
            opener = self.advance()
            if not (opener.kind == "OP" and opener.value == "("):
                raise ExpressionSyntaxError(f"expected '(' after {tok.value}", opener.pos)
            self._enter(tok.pos)
            try:
                arg = self.expr()
            finally:
                self.depth -= 1
            closer = self.advance()
            if not (closer.kind == "OP" and closer.value == ")"):
                raise ExpressionSyntaxError("expected ')'", closer.pos)
            return fun(tok.value, arg)
        if tok.kind == "OP" and tok.value == "(":
            self._enter(tok.pos)
            try:
                inner = self.expr()
            finally:
                self.depth -= 1
            closer = self.advance()
            if not (closer.kind == "OP" and closer.value == ")"):
                raise ExpressionSyntaxError("expected ')'", closer.pos)
            return inner
        if tok.kind == "END":
            raise ExpressionSyntaxError("unexpected end of input", tok.pos)
        raise ExpressionSyntaxError(f"expected an operand, got {tok.value!r}", tok.pos)


def parse(text: str, arity: int, variable_prefix: str = "x") -> Expression:
    """Parse ``text`` over variables ``<prefix>1 .. <prefix><arity>``.

    Raises a positioned :class:`ExpressionError` subclass on any
    malformed input; never returns a partial tree.
    """
    if not text or text.isspace():
        raise ExpressionSyntaxError("empty expression", 0)
    if variable_prefix not in ("x", "s"):
        raise ValueError(f"variable prefix must be 'x' or 's', got {variable_prefix!r}")
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    parser = _Parser(_tokenize(text, arity, variable_prefix), variable_prefix)
    tree = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "END":
        raise ExpressionSyntaxError(f"unexpected token {trailing.value!r}", trailing.pos)
    return tree

