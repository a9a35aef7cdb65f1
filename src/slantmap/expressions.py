"""Scalar expression DSL with exact first/second derivatives via forward jets.

Grammar (whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := NUMBER | VAR | FUNC '(' expr ')' | 'pow' '(' expr ',' INT ')'
            | '(' expr ')' | '-' factor
    FUNC   := sqrt | sin | cos | exp | log
    VAR    := x1 .. xn   (n = chart dimension)

``pow`` takes an integer-literal exponent; fractional powers go through
``sqrt``.  Expressions are immutable after parsing and evaluation is pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

_FUNCTIONS = ("sqrt", "sin", "cos", "exp", "log")


class ExpressionSyntaxError(ValueError):
    """Raised when the DSL text cannot be parsed; carries a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ExpressionDomainError(ValueError):
    """Raised when evaluation leaves the real domain (sqrt/log/division)."""

    def __init__(self, message: str, subexpression: str):
        super().__init__(f"{message} in subexpression '{subexpression}'")
        self.subexpression = subexpression


@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Fun:
    name: str
    arg: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


Node = Union[Lit, Var, Neg, Fun, Pow, BinOp]


@dataclass(frozen=True)
class Expression:
    """Parsed scalar formula over the coordinates x1..x<dim>."""

    root: Node
    dim: int

    def __str__(self) -> str:
        return to_text(self.root)


@dataclass
class Jet2:
    """Value, gradient and symmetric Hessian of a scalar at a point."""

    value: float
    grad: np.ndarray
    hess: np.ndarray

    @staticmethod
    def constant(value: float, n: int) -> "Jet2":
        return Jet2(float(value), np.zeros(n), np.zeros((n, n)))

    @staticmethod
    def coordinate(index: int, value: float, n: int) -> "Jet2":
        grad = np.zeros(n)
        grad[index - 1] = 1.0
        return Jet2(float(value), grad, np.zeros((n, n)))

    def __add__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.value + other.value, self.grad + other.grad,
                    self.hess + other.hess)

    def __sub__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.value - other.value, self.grad - other.grad,
                    self.hess - other.hess)

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.grad, -self.hess)

    def __mul__(self, other: "Jet2") -> "Jet2":
        cross = np.outer(self.grad, other.grad)
        return Jet2(
            self.value * other.value,
            self.value * other.grad + other.value * self.grad,
            self.value * other.hess + other.value * self.hess + cross + cross.T,
        )

    def chain(self, f: float, f1: float, f2: float) -> "Jet2":
        """Jet of g(u) for this jet u, given g, g', g'' at u.value."""
        outer = np.outer(self.grad, self.grad)
        return Jet2(f, f1 * self.grad, f1 * self.hess + f2 * outer)


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<punct>[()+\-*/,]))"
)


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = pos + (len(text[pos:]) - len(stripped))
            raise ExpressionSyntaxError(
                f"unexpected character {stripped[0]!r}", _byte_offset(text, bad))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), _byte_offset(text, m.start(kind))))
        pos = m.end()
    tokens.append(("end", "", _byte_offset(text, len(text))))
    return tokens


class _Parser:
    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, off = self.peek()
        if text != value:
            raise ExpressionSyntaxError(f"expected {value!r}", off)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing input {text!r}", off)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.advance()[1]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Node:
        kind, text, off = self.peek()
        if text == "-":
            self.advance()
            return Neg(self.factor())
        if text == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if kind == "num":
            self.advance()
            return Lit(float(text))
        if kind == "ident":
            self.advance()
            var = re.fullmatch(r"x(\d+)", text)
            if var:
                index = int(var.group(1))
                if not 1 <= index <= self.dim:
                    raise ExpressionSyntaxError(
                        f"variable {text} out of range for dimension {self.dim}", off)
                return Var(index)
            if text == "pow":
                self.expect("(")
                base = self.expr()
                self.expect(",")
                exponent = self._integer_literal()
                self.expect(")")
                return Pow(base, exponent)
            if text in _FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Fun(text, arg)
            raise ExpressionSyntaxError(f"unknown identifier {text!r}", off)
        raise ExpressionSyntaxError("expected a number, variable or '('", off)

    def _integer_literal(self) -> int:
        sign = 1
        if self.peek()[1] == "-":
            self.advance()
            sign = -1
        kind, text, off = self.peek()
        if kind != "num" or not re.fullmatch(r"\d+", text):
            raise ExpressionSyntaxError("pow exponent must be an integer literal", off)
        self.advance()
        return sign * int(text)


def parse_expression(text: str, dim: int) -> Expression:
    """Parse DSL text over x1..x<dim>; rejects unknown names and bad indices."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return Expression(_Parser(text, dim).parse(), dim)


# ---------------------------------------------------------------------------
# Printing (round-trip stable: parse(to_text(parse(s))) == parse(s))

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY = 0, 1, 2


def _print(node: Node, level: int) -> str:
    if isinstance(node, Lit):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Fun):
        return f"{node.name}({_print(node.arg, _LEVEL_ADD)})"
    if isinstance(node, Pow):
        return f"pow({_print(node.base, _LEVEL_ADD)}, {node.exponent})"
    if isinstance(node, Neg):
        text = f"-{_print(node.arg, _LEVEL_UNARY)}"
        return f"({text})" if level > _LEVEL_UNARY else text
    own = _LEVEL_ADD if node.op in "+-" else _LEVEL_MUL
    left = _print(node.left, own)
    right = _print(node.right, own + 1)
    text = f"{left} {node.op} {right}"
    return f"({text})" if level > own else text


def to_text(node: Node) -> str:
    return _print(node, _LEVEL_ADD)


# ---------------------------------------------------------------------------
# Jet evaluation

def _jet(node: Node, p: np.ndarray, n: int) -> Jet2:
    if isinstance(node, Lit):
        return Jet2.constant(node.value, n)
    if isinstance(node, Var):
        return Jet2.coordinate(node.index, p[node.index - 1], n)
    if isinstance(node, Neg):
        return -_jet(node.arg, p, n)
    if isinstance(node, BinOp):
        left = _jet(node.left, p, n)
        right = _jet(node.right, p, n)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if right.value == 0.0:
            raise ExpressionDomainError("division by zero", to_text(node))
        return left * _reciprocal(right)
    if isinstance(node, Pow):
        return _power(_jet(node.base, p, n), node.exponent, node)
    arg = _jet(node.arg, p, n)
    if node.name == "sqrt":
        if arg.value < 0.0:
            raise ExpressionDomainError("sqrt of a negative value", to_text(node))
        if arg.value == 0.0:
            raise ExpressionDomainError("sqrt derivative singular at zero", to_text(node))
        s = np.sqrt(arg.value)
        return arg.chain(s, 0.5 / s, -0.25 / (s * arg.value))
    if node.name == "sin":
        return arg.chain(np.sin(arg.value), np.cos(arg.value), -np.sin(arg.value))
    if node.name == "cos":
        return arg.chain(np.cos(arg.value), -np.sin(arg.value), -np.cos(arg.value))
    if node.name == "exp":
        e = np.exp(arg.value)
        return arg.chain(e, e, e)
    if node.name == "log":
        if arg.value <= 0.0:
            raise ExpressionDomainError("log of a non-positive value", to_text(node))
        return arg.chain(np.log(arg.value), 1.0 / arg.value, -1.0 / arg.value**2)
    raise AssertionError(f"unhandled node {node!r}")


def _reciprocal(u: Jet2) -> Jet2:
    w = 1.0 / u.value
    return u.chain(w, -w * w, 2.0 * w**3)


def _power(u: Jet2, k: int, node: Node) -> Jet2:
    if k == 0:
        return Jet2.constant(1.0, u.grad.shape[0])
    if k == 1:
        return Jet2(u.value, u.grad.copy(), u.hess.copy())
    if u.value == 0.0 and k < 0:
        raise ExpressionDomainError("zero raised to a negative power", to_text(node))
    f = u.value**k
    f1 = k * u.value ** (k - 1)
    f2 = k * (k - 1) * u.value ** (k - 2)
    return u.chain(f, f1, f2)


def eval_jet2(expr: Expression, p) -> Jet2:
    """Evaluate value, gradient and Hessian at p (length = expr.dim)."""
    point = np.asarray(p, dtype=float)
    if point.shape != (expr.dim,):
        raise ValueError(f"point has shape {point.shape}, expected ({expr.dim},)")
    return _jet(expr.root, point, expr.dim)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def eval_jets(expressions, p, order: int) -> list:
    """The values (k,) and, up to derivative ``order``, the gradients (k, n)
    and Hessians (k, n, n) of k expressions at p.  Each array is tested with
    one np.isfinite (count_nonzero is cheaper than .all() on small arrays);
    a non-finite entry raises ``non_finite_error``."""
    jets = [eval_jet2(e, p) for e in expressions]
    arrays = [np.array([getattr(jet, part) for jet in jets])
              for part in ("value", "grad", "hess")[:order + 1]]
    if any(np.count_nonzero(np.isfinite(a)) < a.size for a in arrays):
        raise non_finite_error(expressions, p, order)
    return arrays


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def non_finite_error(expressions, p, order: int) -> ExpressionDomainError:
    """The error for a non-finite jet of ``expressions`` at p up to derivative
    ``order`` (0 values, 1 gradients, 2 Hessians): it names the point and the
    innermost subexpression whose jet is not finite while its arguments' are."""
    point = np.asarray(p, dtype=float)
    expr = next(e for e in expressions if not _finite(e.root, point, e.dim, order))
    node = expr.root
    while True:
        inner = [a for a in vars(node).values()  # the node's arguments
                 if isinstance(a, Node) and not _finite(a, point, expr.dim, order)]
        if not inner:
            return ExpressionDomainError(
                f"non-finite value at point {[float(x) for x in point]}",
                to_text(node))
        node = inner[0]


def _finite(node: Node, p: np.ndarray, n: int, order: int) -> bool:
    jet = _jet(node, p, n)
    return all(np.isfinite(part).all()
               for part in (jet.value, jet.grad, jet.hess)[:order + 1])


def eval_value(expr: Expression, p) -> float:
    return eval_jet2(expr, p).value
