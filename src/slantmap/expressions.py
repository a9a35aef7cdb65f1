"""Scalar expression DSL with exact first/second derivatives via forward jets.

Grammar (whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := NUMBER | VAR | FUNC '(' expr ')' | 'pow' '(' expr ',' INT ')'
            | '(' expr ')' | '-' factor
    FUNC   := sqrt | sin | cos | exp | log
    VAR    := x1 .. xn   (n = chart dimension)

``pow`` takes an integer-literal exponent; fractional powers go through
``sqrt``.  A formula is at most ``MAX_DEPTH`` levels deep.  Expressions are
immutable after parsing and evaluation is pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

_FUNCTIONS = ("sqrt", "sin", "cos", "exp", "log")

# The deepest formula that parses: at most MAX_DEPTH nodes from the root of
# its tree to a leaf, and MAX_DEPTH parentheses, unary minus, functions and
# pow open at once.  Parsing, printing, compiling, evaluating and comparing a
# tree recurse a few frames per level, well inside Python's default limit.
MAX_DEPTH = 200


class ExpressionSyntaxError(ValueError):
    """Raised when the DSL text cannot be parsed; carries a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ExpressionDomainError(ValueError):
    """Raised when evaluation leaves the real domain (sqrt/log/division) or
    the floats; ``index`` is the first point of the evaluated stack where the
    subexpression fails, and the message names that point once it is known."""

    def __init__(self, reason: str, subexpression: str, point=None,
                 index: int = 0):
        where = "" if point is None else f" at point {[float(x) for x in point]}"
        super().__init__(f"{reason}{where} in subexpression '{subexpression}'")
        self.reason, self.subexpression, self.index = reason, subexpression, index


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

    @cached_property
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def compiled(self):
        """The compiled form, built on first use: a float when the formula is
        constant, else its evaluator (points, order) -> (value, grad, hess);
        see ``_compile``.  A constant that leaves the floats folds to inf or
        nan, which evaluation reports, so folding warns of nothing."""
        return _compile(self.root, self.dim)

    @cached_property
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def gradient(self) -> Optional[np.ndarray]:
        """The gradient (dim,) of an affine formula, None for any other: the
        formula is affine when the compiled jet's Hessian is structurally
        zero (None), as probed once at the origin; a probe that raises reads
        as not affine.  The gradient is then built from constants alone,
        the same bit for bit at every point, and read-only; whether F is
        finite is for its evaluation to say, at each point."""
        grad = hess = None
        try:
            if callable(self.compiled):
                _, grad, hess = self.compiled(np.zeros((1, self.dim)), 2)
        except ExpressionDomainError:
            return None
        if hess is not None:
            return None
        row = np.zeros(self.dim) if grad is None else grad[0]
        row.flags.writeable = False
        return row

    @property
    def affine(self) -> bool:
        return self.gradient is not None


@dataclass
class Jet2:
    """Value, gradient and symmetric Hessian of a scalar at a point, or at
    each point of a stack along a leading point axis."""

    value: np.ndarray
    grad: Optional[np.ndarray]  # None above the evaluated derivative order
    hess: Optional[np.ndarray]


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<punct>[()+\-*/,]))"
)


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _level(depth: int, offset: int) -> int:
    """depth, if at most MAX_DEPTH; deeper is an error at offset."""
    if depth > MAX_DEPTH:
        raise ExpressionSyntaxError(
            f"formula nested more than {MAX_DEPTH} levels deep", offset)
    return depth


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
        self.nesting = 0

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
        node, _ = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing input {text!r}", off)
        return node

    def expr(self, products: bool = False) -> tuple:
        """The node of a sum, or with ``products`` of a term, and its depth:
        the most nodes on a path from that node to a leaf, as in factor."""
        ops = ("*", "/") if products else ("+", "-")
        node, depth = self.factor() if products else self.expr(True)
        while self.peek()[1] in ops:
            _, op, off = self.advance()
            right, right_depth = self.factor() if products else self.expr(True)
            node = BinOp(op, node, right)
            depth = _level(max(depth, right_depth) + 1, off)
        return node, depth

    def factor(self) -> tuple:
        kind, text, off = self.advance()
        if kind == "num":
            return Lit(float(text)), 1
        var = re.fullmatch(r"x(\d+)", text) if kind == "ident" else None
        if var:
            index = int(var.group(1))
            if not 1 <= index <= self.dim:
                raise ExpressionSyntaxError(
                    f"variable {text} out of range for dimension {self.dim}", off)
            return Var(index), 1
        if text not in ("-", "(", "pow") + _FUNCTIONS:
            raise ExpressionSyntaxError(
                f"unknown identifier {text!r}" if kind == "ident"
                else "expected a number, variable or '('", off)
        # each of these opens a level of the parser's own recursion
        self.nesting = _level(self.nesting + 1, off)
        if text == "-":
            node, depth = self.factor()
            node = Neg(node)
        else:
            if text != "(":
                self.expect("(")
            node, depth = self.expr()
            if text == "pow":
                self.expect(",")
                node = Pow(node, self._integer_literal())
            elif text != "(":
                node = Fun(text, node)
            self.expect(")")
        self.nesting -= 1
        return node, depth if text == "(" else _level(depth + 1, off)

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
# Jet evaluation: each Expression is compiled once, on first use, into nested
# closures over a stack of points (N, n) -- vector-mode forward
# differentiation (Griewank & Walther, "Evaluating Derivatives", SIAM 2008,
# ch. 3-4).  A compiled node maps (points, order) to (value, grad, hess) with
# value (N,), grad (N, n) and hess (N, n, n); None marks a structurally zero
# derivative or one above ``order``, and a constant value may be a float.
# Constant subtrees are folded at compile time.  Every entry goes through the
# same elementwise operations, in the same order, wherever it sits in a
# stack, so a point's jet does not depend on the points evaluated with it.

def _scaled(s, array):
    """s * array for s (N,) or a float, broadcast along array's trailing axes."""
    if array is None:
        return None
    if isinstance(s, np.ndarray):
        s = s.reshape(s.shape + (1,) * (array.ndim - 1))
    return s * array


def _total(*terms):
    """Left-to-right sum of the terms present (None is a structural zero)."""
    present = [t for t in terms if t is not None]
    return sum(present[1:], present[0]) if present else None


def _outer(a, b):
    return None if a is None or b is None else a[..., :, None] * b[..., None, :]


def _chained(f, first, second, u, order: int):
    """Jet of g(u) from f = g(u.value) and the thunks first() = g'(u.value)
    and second() = g''(u.value), called only when needed."""
    _, grad, hess = u
    if order == 0 or grad is None:
        return f, None, None
    f1 = first()
    if order == 1:
        return f, _scaled(f1, grad), None
    return f, _scaled(f1, grad), _total(_scaled(f1, hess),
                                       _scaled(second(), _outer(grad, grad)))


def _add(a, b, order):
    return (a[0] + b[0], *(_total(x, y) for x, y in zip(a[1:], b[1:])))


def _negate(u, order):
    return tuple(None if x is None else -x for x in u)


def _multiply(a, b, order):
    (va, ga, ha), (vb, gb, hb) = a, b
    value = va * vb
    if order == 0:
        return value, None, None
    grad = _total(_scaled(va, gb), _scaled(vb, ga))
    if order == 1:
        return value, grad, None
    cross = _outer(ga, gb)
    return value, grad, _total(_scaled(va, hb), _scaled(vb, ha), cross,
                               None if cross is None else np.swapaxes(cross, -1, -2))


def _elementary(name: str, v):
    """g(v) and the thunks of g'(v) and g''(v) for a function name of the
    grammar, a 'reciprocal' or a 'pow<k>' with an integer k."""
    if name == "sqrt":
        s = np.sqrt(v)
        return s, lambda: 0.5 / s, lambda: -0.25 / (s * v)
    if name == "sin":
        sine = np.sin(v)
        return sine, lambda: np.cos(v), lambda: -sine
    if name == "cos":
        cosine = np.cos(v)
        return cosine, lambda: -np.sin(v), lambda: -cosine
    if name == "exp":
        e = np.exp(v)
        return e, lambda: e, lambda: e
    if name == "log":
        return np.log(v), lambda: 1.0 / v, lambda: -1.0 / np.power(v, 2)
    if name == "reciprocal":
        w = 1.0 / v
        return w, lambda: -w * w, lambda: 2.0 * np.power(w, 3)
    k = int(name[3:])
    return (np.power(v, k), lambda: k * np.power(v, k - 1),
            lambda: k * (k - 1) * np.power(v, k - 2))


# the domain of each function: (test of a bad argument, what it breaks)
_DOMAIN = {"sqrt": ((lambda v: v < 0.0, "sqrt of a negative value"),
                    (lambda v: v == 0.0, "sqrt derivative singular at zero")),
           "log": ((lambda v: v <= 0.0, "log of a non-positive value"),),
           "reciprocal": ((lambda v: v == 0.0, "division by zero"),),
           "pow-": ((lambda v: v == 0.0, "zero raised to a negative power"),)}


def _function(name: str, text: str):
    """combine for g(u): the node text names the subexpression of a domain
    error, raised at the first point whose argument is bad."""
    domain = _DOMAIN.get(name.rstrip("0123456789"), ())  # 'pow-3' -> 'pow-'

    def function(u, order):
        for bad, what in domain:
            mask = bad(u[0])
            if np.any(mask):
                raise ExpressionDomainError(what, text, index=int(np.argmax(mask)))
        return _chained(*_elementary(name, u[0]), u, order)
    return function


def _operation(node: Node):
    """(arguments, combine) for a node that is neither a literal nor a
    variable: combine(*argument jets, order) is the node's jet."""
    if isinstance(node, Neg):
        return (node.arg,), _negate
    if isinstance(node, Fun):
        return (node.arg,), _function(node.name, to_text(node))
    if isinstance(node, Pow):
        if node.exponent == 0:  # the base is still evaluated, for its errors
            return (node.base,), lambda u, order: (1.0, None, None)
        if node.exponent == 1:
            return (node.base,), lambda u, order: u
        return (node.base,), _function(f"pow{node.exponent}", to_text(node))
    if node.op == "/":
        reciprocal = _function("reciprocal", to_text(node))
        return (node.left, node.right), lambda a, b, order: _multiply(
            a, reciprocal(b, order), order)
    if node.op == "-":  # a + (-b) is a - b, entry by entry, in IEEE arithmetic
        return (node.left, node.right), lambda a, b, order: _add(
            a, _negate(b, order), order)
    return (node.left, node.right), {"+": _add, "*": _multiply}[node.op]


def _compile(node: Node, n: int):
    """A float for a constant subtree, else a function (points, order) ->
    jet; a constant subtree that raises raises where it stands."""
    if isinstance(node, Lit):
        return float(node.value)
    if isinstance(node, Var):
        column = node.index - 1

        def variable(points, order):
            if order == 0:
                return points[:, column], None, None
            grad = np.zeros(points.shape)
            grad[:, column] = 1.0
            return points[:, column], grad, None
        return variable
    arguments, combine = _operation(node)
    compiled = [_compile(a, n) for a in arguments]
    if all(isinstance(c, float) for c in compiled):
        constants = [(np.array([c]), None, None) for c in compiled]
        try:
            return float(np.ravel(combine(*constants, 0)[0])[0])
        except ExpressionDomainError:
            return lambda points, order: combine(*constants, 0)
    if (isinstance(node, BinOp) and node.op == "/"
            and isinstance(compiled[1], float) and compiled[1] != 0.0):
        # the product with the constant divisor's reciprocal, taken once: the
        # double the quotient multiplies by (a zero still raises, per call)
        compiled[1], combine = 1.0 / compiled[1], _multiply
    parts = [c if callable(c) else (lambda points, order, c=c: (c, None, None))
             for c in compiled]
    if len(parts) == 1:
        (inner,) = parts
        return lambda points, order: combine(inner(points, order), order)
    left, right = parts
    return lambda points, order: combine(left(points, order),
                                         right(points, order), order)


def _point_stack(p, dim: int):
    """p as a float array, and as a stack of points (N, dim)."""
    points = np.asarray(p, dtype=float)
    if points.ndim not in (1, 2) or points.shape[-1] != dim:
        raise ValueError(f"point has shape {points.shape}, expected "
                         f"({dim},) or (N, {dim})")
    return points, (points if points.ndim == 2 else points[None])


def eval_jet2(expr: Expression, p, order: int = 2) -> Jet2:
    """Value, gradient and Hessian of expr at p, of shape (dim,), or at each
    row of a stack p of shape (N, dim), where they gain a leading point axis;
    derivatives above ``order`` are None."""
    points, stack = _point_stack(p, expr.dim)
    shape = (len(stack),) + (expr.dim,) * 2
    compiled = expr.compiled if len(stack) else 0.0  # none to fail at
    try:
        value, grad, hess = (compiled(stack, order) if callable(compiled)
                             else (compiled, None, None))
    except ExpressionDomainError as exc:  # now the point is known
        if exc.index:  # another subexpression may fail at an earlier point
            eval_jet2(expr, stack[:exc.index], order)
        raise ExpressionDomainError(exc.reason, exc.subexpression,
                                    stack[exc.index], exc.index) from None
    if np.ndim(value) == 0:
        value = np.full(shape[0], value)
    if order > 0 and grad is None:
        grad = np.zeros(shape[:2])
    if order > 1 and hess is None:
        hess = np.zeros(shape)
    if points.ndim == 1:
        return Jet2(value[0], *(None if x is None else x[0] for x in (grad, hess)))
    return Jet2(value, grad, hess)


class Formulas(tuple):
    """Formulas that ``eval_jets`` evaluates together, planned once, on
    first use: ``plan`` is a row holding each constant formula's value (0.0
    where a formula varies), the rows (k, n) of each affine formula's
    gradient (``Expression.gradient``; zeros for the rest), and the
    (column, formula, affine) of each varying one.  ``eval_jets`` plans any
    other sequence of formulas on every call."""

    @cached_property
    def plan(self) -> tuple:
        row = np.array([e.compiled if isinstance(e.compiled, float) else 0.0
                        for e in self])
        gradients = np.array([np.zeros(e.dim) if e.gradient is None
                              else e.gradient for e in self])
        return row, gradients, [(j, e, e.affine) for j, e in enumerate(self)
                                if callable(e.compiled)]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def eval_jets(expressions, p, order: int) -> list:
    """The values (k,) and, up to derivative ``order``, the gradients (k, n)
    and Hessians (k, n, n) of k expressions at p; at a stack of points (N, n)
    each array gains a leading point axis.  The constant expressions' values
    and the affine ones' gradients are filled in one assignment each, and
    each varying one is evaluated over the stack by ``eval_jet2``, an affine
    one at order 0.  Each array is tested with one np.isfinite
    (count_nonzero is cheaper than .all() on small arrays); a non-finite
    entry raises ``non_finite_error`` at its first point."""
    points, stack = _point_stack(p, expressions[0].dim)
    row, gradients, varying = (expressions if isinstance(expressions, Formulas)
                               else Formulas(expressions)).plan
    shape = (len(stack), len(expressions)) + stack.shape[1:] * 2
    arrays = [np.empty(shape[:2])] + [np.zeros(shape[:k + 2])
                                      for k in range(1, order + 1)]
    arrays[0][:] = row
    if order:
        arrays[1][:] = gradients
    for j, expr, affine in varying:
        try:
            jet = eval_jet2(expr, stack, 0 if affine else order)
        except ExpressionDomainError as exc:  # a later expression may fail earlier
            if exc.index:
                eval_jets(expressions, stack[:exc.index], order)
            raise
        for array, part in zip(arrays, (jet.value, jet.grad, jet.hess)):
            if part is not None:
                array[:, j] = part
    if any(np.count_nonzero(np.isfinite(a)) < a.size for a in arrays):
        finite = np.ones(len(stack), dtype=bool)
        for a in arrays:
            finite &= np.isfinite(a.reshape(len(stack), -1)).all(axis=1)
        raise non_finite_error(expressions, stack, int(np.argmin(finite)), order)
    return arrays if points.ndim == 2 else [a[0] for a in arrays]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def non_finite_error(expressions, stack, index: int,
                     order: int) -> ExpressionDomainError:
    """The error for a non-finite jet of ``expressions`` at the point
    stack[index] up to derivative ``order`` (0 values, 1 gradients, 2
    Hessians): it names the point and the innermost subexpression whose jet
    is not finite while its arguments' are."""
    point = stack[index]
    expr = next(e for e in expressions if not _finite(e.root, point, e.dim, order))
    node = expr.root
    while True:
        inner = [a for a in vars(node).values()  # the node's arguments
                 if isinstance(a, Node) and not _finite(a, point, expr.dim, order)]
        if not inner:
            return ExpressionDomainError("non-finite value", to_text(node),
                                         point, index)
        node = inner[0]


def _finite(node: Node, p: np.ndarray, n: int, order: int) -> bool:
    jet = eval_jet2(Expression(node, n), p, order)
    return all(np.isfinite(part).all()
               for part in (jet.value, jet.grad, jet.hess)[:order + 1])
