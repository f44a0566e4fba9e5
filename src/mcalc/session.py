"""Session files: the ring plus named modules and sequences, line oriented.

    # comment
    field = F2
    vars = x, y
    order = grevlex
    quotient = [x^2 + x*y + y^2]
    module M = rank 1 relations [[x]]
    seq s = [x, y]

`field` and `vars` are required; `order` defaults to grevlex and `quotient`
to empty. Unknown keys are rejected. Serialization is canonical: fixed key
order, names sorted, polynomials rendered in the ring's term order, so
parse -> serialize -> parse is the identity byte for byte.

The command line and the scenario registry both read their rings from
session text, and turn a module name or a sequence argument into a module
or a sequence through `SessionData.module` and `SessionData.sequence`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import BadVariables, ParseError
from .fpmodules import FPModule, ModuleVector
from .parsing import (parse_bracketed_list, parse_field, parse_polynomial_list,
                      parse_whole)
from .polyring import MonomialOrder, RingSpec


@dataclass
class SessionData:
    """A parsed session: the ring, and its modules and sequences by name."""

    ring: RingSpec
    modules: dict = field(default_factory=dict)
    sequences: dict = field(default_factory=dict)

    def module(self, name=None) -> FPModule:
        """The module called name; None is the ring as a free module of
        rank 1."""
        if name is None:
            return FPModule.free(self.ring, 1)
        if name not in self.modules:
            raise ParseError(f"unknown module {name!r} in session")
        return self.modules[name]

    def sequence(self, text: str) -> list:
        """The sequence `@name` of the session, or the comma-separated
        polynomials of text; the empty text is the empty sequence."""
        if text.startswith("@"):
            name = text[1:]
            if name not in self.sequences:
                raise ParseError(f"unknown sequence {name!r} in session")
            return list(self.sequences[name])
        return parse_polynomial_list(self.ring, text)


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")
_ORDER_RE = re.compile(r"^(grevlex|lex|block\(([0-9]+)\))$")


def _split_lines(text: str):
    """(line_number, content) for lines that still mean something after
    stripping comments; content keeps its indentation."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].rstrip()
        if content.strip():
            out.append((i, content))
    return out


def _key_value(line_no, content):
    """(key, value, offset), offset the number of columns before value."""
    if "=" not in content:
        raise ParseError("expected 'key = value'", line=line_no, column=1)
    key, value = content.split("=", 1)
    value = value.lstrip()
    return key.strip(), value, len(content) - len(value)


def _parse_order(value, line_no):
    m = _ORDER_RE.match(value)
    if m is None:
        raise ParseError(f"unknown order {value!r}: expected grevlex, lex, "
                         "or block(k)", line=line_no, column=1)
    if m.group(2) is not None:
        return MonomialOrder.block(int(m.group(2)))
    return MonomialOrder.grevlex() if m.group(1) == "grevlex" else MonomialOrder.lex()


def parse_session_text(text: str) -> SessionData:
    lines = _split_lines(text)
    headers = {}
    bodies = []
    for line_no, content in lines:
        key, value, offset = _key_value(line_no, content)
        head = key.split()[0] if key else ""
        if head in ("module", "seq"):
            bodies.append((line_no, head, key, value, offset))
            continue
        if key not in ("field", "vars", "order", "quotient"):
            raise ParseError(f"unknown key {key!r}", line=line_no, column=1)
        if key in headers:
            raise ParseError(f"duplicate key {key!r}", line=line_no, column=1)
        headers[key] = (line_no, value, offset)

    for required in ("field", "vars"):
        if required not in headers:
            raise ParseError(f"missing required key {required!r}", line=1,
                             column=1)

    fspec = parse_field(headers["field"][1], line=headers["field"][0])
    var_line, var_value, _ = headers["vars"]
    names = tuple(v.strip() for v in var_value.split(","))
    for v in names:
        if not _NAME_RE.match(v):
            raise ParseError(f"bad variable name {v!r}", line=var_line,
                             column=1)
    order = MonomialOrder.grevlex()
    if "order" in headers:
        order = _parse_order(headers["order"][1], headers["order"][0])

    try:
        bare = RingSpec(fspec, names, order=order)
    except BadVariables as exc:
        raise ParseError(str(exc), line=var_line, column=1) from None
    quotient = ()
    if "quotient" in headers:
        line_no, value, offset = headers["quotient"]
        quotient = tuple(parse_whole(bare, value, line_no, parse_bracketed_list, offset))
    ring = RingSpec(fspec, names, order=order, quotient=quotient)

    session = SessionData(ring)
    for line_no, head, key, value, offset in bodies:
        parts = key.split()
        if len(parts) != 2 or not _NAME_RE.match(parts[1]):
            raise ParseError(f"expected '{head} NAME = ...'", line=line_no,
                             column=1)
        name = parts[1]
        if head == "seq":
            if name in session.sequences:
                raise ParseError(f"duplicate seq {name!r}", line=line_no,
                                 column=1)
            session.sequences[name] = parse_whole(ring, value, line_no,
                                                  parse_bracketed_list, offset)
        else:
            if name in session.modules:
                raise ParseError(f"duplicate module {name!r}", line=line_no,
                                 column=1)
            session.modules[name] = _parse_module(ring, value, line_no, offset)
    return session


def _parse_module(ring: RingSpec, value: str, line_no: int, offset: int) -> FPModule:
    def presentation(parser):
        parser.expect("name", "rank", "expected 'rank'")
        rank = parser.expect("int", None, "expected a nonnegative rank")
        parser.expect("name", "relations", "expected 'relations'")
        return rank, parser.bracketed(lambda: parse_bracketed_list(parser))

    rank, rows = parse_whole(ring, value, line_no, presentation, offset)
    for comps in rows:
        if len(comps) != rank:
            raise ParseError(f"relation has {len(comps)} entries, rank is {rank}",
                             line=line_no, column=1)
    return FPModule(ring, rank, [ModuleVector(tuple(comps)) for comps in rows])


def parse_session(path: str) -> SessionData:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"session file is not UTF-8: byte {data[exc.start]:#04x} "
                         f"at offset {exc.start}",
                         line=data.count(b"\n", 0, exc.start) + 1) from None
    return parse_session_text(text)


def serialize_session(session: SessionData) -> str:
    ring = session.ring
    lines = [
        f"field = {ring.field}",
        f"vars = {', '.join(ring.variables)}",
        f"order = {ring.order}",
        "quotient = [" + ", ".join(ring.poly_to_str(q)
                                   for q in ring.quotient) + "]",
    ]
    for name in sorted(session.modules):
        mod = session.modules[name]
        rels = ", ".join(r.to_str(ring) for r in mod.relations)
        lines.append(f"module {name} = rank {mod.rank} relations [{rels}]")
    for name in sorted(session.sequences):
        seq = session.sequences[name]
        lines.append(f"seq {name} = ["
                     + ", ".join(ring.poly_to_str(p) for p in seq) + "]")
    return "\n".join(lines) + "\n"
