"""Polynomial expression parsing.

Grammar (explicit '*' required, '/' only by constants):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' INT)*
    atom   := INT | NAME | '(' expr ')'
    items  := (item (',' item)*)?       up to ']' or the end of input
    list   := '[' items ']'

NAME is a declared variable, or 't' over a rational function field.
'(' and unary '-' together nest at most MAX_NESTING deep, so that the
descent stays well inside the interpreter's recursion limit.
"""

from __future__ import annotations

import re

from .errors import ParseError, UnknownFieldKind
from .polyring import Polynomial, RingSpec
from .scalars import FieldKind, FieldSpec

MAX_NESTING = 100

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>[0-9]+)"
                    r"|(?P<op>[-+*/^(),\[\]]))")


def tokenize(text: str, line: int = None, offset: int = 0):
    """List of (kind, value, column) with 1-based columns, counted from
    offset columns before the text."""
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            col = offset + len(text) - len(rest) + 1
            raise ParseError(f"unexpected character {rest[0]!r}",
                             line=line, column=col)
        col = offset + m.start(m.lastgroup) + 1
        if m.lastgroup == "name":
            out.append(("name", m.group("name"), col))
        elif m.lastgroup == "int":
            out.append(("int", int(m.group("int")), col))
        else:
            out.append(("op", m.group("op"), col))
        pos = m.end()
    return out


class ExpressionParser:
    """Recursive-descent parser of one text over a fixed ring."""

    def __init__(self, ring: RingSpec, text: str, line: int = None, offset: int = 0):
        self.ring = ring
        self.tokens = tokenize(text, line=line, offset=offset)
        self.i = 0
        self.line = line
        self.offset = offset
        self.depth = 0
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
        col = tok[2] if tok else (self.tokens[-1][2] + 1 if self.tokens else self.offset + 1)
        raise ParseError(message, line=self.line, column=col)

    def expect(self, kind, value, message):
        """The value of the next token, which must be of kind and, unless
        value is None, equal to value."""
        tok = self.peek()
        if tok is None or tok[0] != kind or value not in (None, tok[1]):
            self.fail(message)
        self.i += 1
        return tok[1]

    def at_op(self, *ops):
        tok = self.peek()
        return tok is not None and tok[0] == "op" and tok[1] in ops

    def items(self, item):
        """item (',' item)*, or none when ']' or the end of input is next."""
        if self.peek() is None or self.at_op("]"):
            return []
        out = [item()]
        while self.at_op(","):
            self.next()
            out.append(item())
        return out

    def bracketed(self, item):
        self.expect("op", "[", "expected '['")
        out = self.items(item)
        self.expect("op", "]", "expected ']'")
        return out

    def nested(self, rule):
        """rule() after the next token, '(' or unary '-', one level deeper;
        at most MAX_NESTING levels down."""
        if self.depth == MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels")
        self.next()
        self.depth += 1
        p = rule()
        self.depth -= 1
        return p

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
            return -self.nested(self.factor)
        p = self.atom()
        while self.at_op("^"):
            self.next()
            p = p ** self.expect("int", None, "expected a nonnegative integer exponent")
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
            p = self.nested(self.expression)
            self.expect("op", ")", "expected ')'")
            return p
        self.fail(f"unexpected token {value!r}")


def parse_whole(ring: RingSpec, text: str, line, rule, offset=0):
    """rule(parser) over all of text, which starts offset columns into its
    line: input left after it is an error."""
    parser = ExpressionParser(ring, text, line=line, offset=offset)
    result = rule(parser)
    if parser.peek() is not None:
        parser.fail("trailing input")
    return result


def parse_polynomial(ring: RingSpec, text: str, line: int = None) -> Polynomial:
    return parse_whole(ring, text, line, ExpressionParser.expression)


def parse_polynomial_list(ring: RingSpec, text: str, line: int = None):
    """Comma-separated polynomials; empty input is the empty list."""
    return parse_whole(ring, text, line, lambda p: p.items(p.expression))


def parse_bracketed_list(parser: ExpressionParser):
    """'[' expr, .. ']' or '[]' consumed from the current position."""
    return parser.bracketed(parser.expression)


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
