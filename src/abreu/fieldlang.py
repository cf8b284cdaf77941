"""Tiny expression language for defining periodic scalar fields.

Grammar (EBNF, also published in docs/fieldlang.md):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" integer ] ;
    atom    = number | "pi" | variable | function "(" expr ")"
            | "(" expr ")" ;
    variable = "x1" | "x2" | ... ;
    function = "sin" | "cos" | "exp" ;

Binary operators of equal precedence associate left; exponents are
integer literals (optionally signed) so evaluation stays total on
negative bases.  Whitespace is insignificant.  Evaluation on a grid is
plain vectorized arithmetic at the node coordinates, with no
approximation; periodicity of the result is the caller's responsibility
(see `grid.periodicity_defect` for the warning heuristic).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EvalError, FieldSyntaxError
from .grid import PeriodicGrid, ScalarField

__all__ = [
    "Expr",
    "Num",
    "Const",
    "Var",
    "Neg",
    "Bin",
    "Pow",
    "Call",
    "parse",
    "eval_field",
]

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


class Expr:
    """Base class of expression nodes."""


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Const(Expr):
    name: str  # only "pi"


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 1-based, x1 ... xn


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Call(Expr):
    name: str
    arg: Expr


# ---------------------------------------------------------------------------
# tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # number | name | op | end
    text: str
    offset: int


# the EBNF's terminals and ASCII whitespace: any other character, a
# non-ASCII digit or letter too, is a syntax error, so offsets count bytes
_TOKEN = re.compile(
    r"(?P<space>[ \t\n\r\f\v]+)"
    r"|(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, i = match.lastgroup, match.start()
        if kind == "bad":
            raise FieldSyntaxError(i, "a number, name, operator or parenthesis", match[0])
        if kind != "space":
            tokens.append(_Token(kind, match[0], i))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            self.advance()
            return
        raise FieldSyntaxError(tok.offset, f"'{op}'", tok.text or "end of input")

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise FieldSyntaxError(tok.offset, "end of input", tok.text)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Bin(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            right = self.unary()
            if op == "/" and isinstance(right, Num) and right.value == 0.0:
                raise FieldSyntaxError(
                    self.tokens[self.pos - 1].offset, "a nonzero denominator", "0"
                )
            node = Bin(op, node, right)
        return node

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            sign = 1
            tok = self.peek()
            if tok.kind == "op" and tok.text == "-":
                self.advance()
                sign = -1
                tok = self.peek()
            if tok.kind != "number" or "." in tok.text or "e" in tok.text.lower():
                raise FieldSyntaxError(tok.offset, "an integer exponent", tok.text)
            self.advance()
            node = Pow(node, sign * int(tok.text))
        return node

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "name":
            self.advance()
            name = tok.text
            if name == "pi":
                return Const("pi")
            if name in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(name, arg)
            if name.startswith("x") and name[1:].isdigit():
                index = int(name[1:])
                if index < 1:
                    raise FieldSyntaxError(tok.offset, "a variable x1, x2, ...", name)
                return Var(index)
            raise FieldSyntaxError(
                tok.offset, "pi, a variable x<k> or sin/cos/exp", name
            )
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise FieldSyntaxError(
            tok.offset, "a number, variable or '('", tok.text or "end of input"
        )


def parse(text: str) -> Expr:
    """Parse an expression; raises FieldSyntaxError with offset and hint."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation


def _max_variable(e: Expr) -> int:
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Neg):
        return _max_variable(e.operand)
    if isinstance(e, Bin):
        return max(_max_variable(e.left), _max_variable(e.right))
    if isinstance(e, Pow):
        return _max_variable(e.base)
    if isinstance(e, Call):
        return _max_variable(e.arg)
    return 0


def eval_field(e: Expr, g: PeriodicGrid) -> ScalarField:
    """Evaluate the expression at every node; exact pointwise arithmetic.

    Values live on broadcast axes: a constant is a scalar and x_k a
    vector along axis k, so each operation runs on the axes its operands
    span, and the result is spread to the grid at the end; elementwise
    arithmetic rounds each node alike either way.  A division by zero or
    a non-finite value is reported at its first node in row-major order.
    """
    top = _max_variable(e)
    if top > g.dim:
        raise DimensionError(
            f"expression uses x{top} but the grid has dimension {g.dim}"
        )

    def first_node(bad: np.ndarray) -> tuple:
        return np.unravel_index(np.argmax(np.broadcast_to(bad, g.shape)), g.shape)

    def ev(node: Expr) -> np.ndarray:
        if isinstance(node, Num):
            return np.float64(node.value)
        if isinstance(node, Const):
            return np.float64(np.pi)
        if isinstance(node, Var):
            axis = node.index - 1
            return g.axis_coordinates(axis).reshape([-1 if a == axis else 1
                                                     for a in range(g.dim)])
        if isinstance(node, Neg):
            return -ev(node.operand)
        if isinstance(node, Bin):
            left, right = ev(node.left), ev(node.right)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            zero = right == 0.0
            if zero.any():
                raise EvalError(f"division by zero at node {tuple(first_node(zero))}")
            return left / right
        if isinstance(node, Pow):
            with np.errstate(divide="raise", over="raise"):
                try:
                    # an array's power, whose fast paths (square,
                    # reciprocal) a scalar's power lacks
                    return np.asarray(ev(node.base)) ** node.exponent
                except FloatingPointError as err:
                    raise EvalError(f"power overflow: {err}") from None
        if isinstance(node, Call):
            with np.errstate(over="raise"):
                try:
                    return _FUNCTIONS[node.name](ev(node.arg))
                except FloatingPointError as err:
                    raise EvalError(f"{node.name} overflow: {err}") from None
        raise TypeError(f"not an expression node: {node!r}")

    values = ev(e)
    finite = np.isfinite(values)
    if not finite.all():
        raise EvalError(f"non-finite value at node {tuple(first_node(~finite))}")
    return ScalarField(g, np.broadcast_to(values, g.shape))
