"""Polynomial expression parsing.

Grammar (explicit '*' required, '/' only by constants):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' INT)*
    atom   := INT | NAME | '(' expr ')'

NAME is a declared variable, or 't' over a rational function field.
"""

from __future__ import annotations

import re

from .errors import ParseError, UnknownFieldKind
from .polyring import Polynomial, RingSpec
from .scalars import FieldKind, FieldSpec

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>[0-9]+)"
                    r"|(?P<op>[-+*/^(),\[\]]))")


def tokenize(text: str, line: int = None):
    """List of (kind, value, column) with 1-based columns."""
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            col = len(text) - len(rest) + 1
            raise ParseError(f"unexpected character {rest[0]!r}",
                             line=line, column=col)
        col = m.start(m.lastgroup) + 1
        if m.lastgroup == "name":
            out.append(("name", m.group("name"), col))
        elif m.lastgroup == "int":
            out.append(("int", int(m.group("int")), col))
        else:
            out.append(("op", m.group("op"), col))
        pos = m.end()
    return out


class ExpressionParser:
    """Recursive-descent parser over a fixed ring."""

    def __init__(self, ring: RingSpec, tokens, line: int = None):
        self.ring = ring
        self.tokens = tokens
        self.i = 0
        self.line = line
        self.names = {v: k for k, v in enumerate(ring.variables)}

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def fail(self, message):
        tok = self.peek()
        col = tok[2] if tok else (self.tokens[-1][2] + 1 if self.tokens else 1)
        raise ParseError(message, line=self.line, column=col)

    def expect_op(self, op):
        tok = self.next()
        if tok is None or tok[0] != "op" or tok[1] != op:
            self.i -= 1 if tok is not None else 0
            self.fail(f"expected {op!r}")

    def at_op(self, *ops):
        tok = self.peek()
        return tok is not None and tok[0] == "op" and tok[1] in ops

    def expression(self) -> Polynomial:
        p = self.term()
        while self.at_op("+", "-"):
            op = self.next()[1]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Polynomial:
        p = self.factor()
        while self.at_op("*", "/"):
            op = self.next()[1]
            q = self.factor()
            if op == "*":
                p = p * q
            else:
                if not q.is_constant() or q.is_zero():
                    self.fail("division is only allowed by nonzero constants")
                ops = self.ring.field.raw
                p = p * self.ring.constant(ops.div(ops.one, q.constant_coefficient()))
        return p

    def factor(self) -> Polynomial:
        if self.at_op("-"):
            self.next()
            return -self.factor()
        p = self.atom()
        while self.at_op("^"):
            self.next()
            tok = self.next()
            if tok is None or tok[0] != "int":
                self.i -= 1 if tok is not None else 0
                self.fail("expected a nonnegative integer exponent")
            p = p ** tok[1]
        return p

    def atom(self) -> Polynomial:
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of expression")
        kind, value, col = tok
        if kind == "int":
            self.next()
            return self.ring.constant(value)
        if kind == "name":
            self.next()
            if value in self.names:
                return self.ring.variable(value)
            if (value == "t"
                    and self.ring.field.kind == FieldKind.RATIONAL_FUNCTIONS):
                return self.ring.constant(self.ring.field.t())
            raise ParseError(f"unknown name {value!r}", line=self.line,
                             column=col)
        if kind == "op" and value == "(":
            self.next()
            p = self.expression()
            self.expect_op(")")
            return p
        self.fail(f"unexpected token {value!r}")


def _parse_with(ring: RingSpec, tokens, line, produce):
    parser = ExpressionParser(ring, tokens, line=line)
    result = produce(parser)
    if parser.peek() is not None:
        parser.fail("trailing input after expression")
    return result


def parse_polynomial(ring: RingSpec, text: str, line: int = None) -> Polynomial:
    tokens = tokenize(text, line=line)
    if not tokens:
        raise ParseError("empty polynomial", line=line, column=1)
    return _parse_with(ring, tokens, line, lambda p: p.expression())


def parse_polynomial_list(ring: RingSpec, text: str, line: int = None):
    """Comma-separated polynomials; empty input is the empty list."""
    tokens = tokenize(text, line=line)
    if not tokens:
        return []

    def produce(parser):
        out = [parser.expression()]
        while parser.at_op(","):
            parser.next()
            out.append(parser.expression())
        return out
    return _parse_with(ring, tokens, line, produce)


def parse_bracketed_list(parser: ExpressionParser):
    """'[' expr (',' expr)* ']' or '[]' consumed from the current position."""
    parser.expect_op("[")
    out = []
    if parser.at_op("]"):
        parser.next()
        return out
    out.append(parser.expression())
    while parser.at_op(","):
        parser.next()
        out.append(parser.expression())
    parser.expect_op("]")
    return out


_FIELD_RE = re.compile(r"^F([0-9]+)(\(t\))?$")


def parse_field(text: str, line: int = None) -> FieldSpec:
    text = text.strip()
    if text == "Q":
        return FieldSpec.rationals()
    m = _FIELD_RE.match(text)
    if m is None:
        raise UnknownFieldKind(
            f"unknown field {text!r}: expected Q, F<p>, or F<p>(t)")
    p = int(m.group(1))
    if m.group(2):
        return FieldSpec.rational_functions(p)
    return FieldSpec.prime_field(p)
