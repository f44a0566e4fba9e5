"""Session files: parsing, canonical serialization, round trips."""

import pytest

from mcalc.errors import BadCharacteristic, ParseError, UnknownFieldKind
from mcalc.session import (SessionData, parse_session, parse_session_text,
                           serialize_session)
from mcalc.polyring import MonomialOrder, RingSpec
from mcalc.scalars import FieldSpec

CONIC_TEXT = """\
# conic over F2 with one module and one sequence
field = F2
vars = x, y
order = grevlex
quotient = [x^2 + x*y + y^2]
module M = rank 1 relations [[x]]
seq s = [x, y]
"""

CONIC_CANONICAL = """\
field = F2
vars = x, y
order = grevlex
quotient = [x^2 + x*y + y^2]
module M = rank 1 relations [[x], [y^2]]
seq s = [x, y]
"""


def test_parse_builds_ring_and_entities():
    session = parse_session_text(CONIC_TEXT)
    ring = session.ring
    assert str(ring.field) == "F2"
    assert ring.variables == ("x", "y")
    assert len(ring.quotient) == 1
    assert list(session.modules) == ["M"]
    assert session.modules["M"].length() == 2
    assert [ring.poly_to_str(f) for f in session.sequences["s"]] == ["x", "y"]


def test_serialization_is_canonical_and_stable():
    one = serialize_session(parse_session_text(CONIC_TEXT))
    assert one == CONIC_CANONICAL
    assert serialize_session(parse_session_text(one)) == one


def test_defaults_are_made_explicit():
    session = parse_session_text("field = Q\nvars = x\n")
    text = serialize_session(session)
    assert text == "field = Q\nvars = x\norder = grevlex\nquotient = []\n"


def test_function_field_coefficients_round_trip():
    text = ("field = F5(t)\nvars = x, y\norder = grevlex\n"
            "quotient = [y^2 - t*x^2]\n")
    one = serialize_session(parse_session_text(text))
    assert "quotient = [4*t*x^2 + y^2]" in one
    assert serialize_session(parse_session_text(one)) == one


def test_block_order_round_trip():
    text = "field = Q\nvars = x, y, z\norder = block(2)\nquotient = []\n"
    session = parse_session_text(text)
    assert session.ring.order == MonomialOrder.block(2)
    assert serialize_session(session) == text


def test_modules_and_sequences_sorted_by_name():
    text = ("field = Q\nvars = x\nseq b = [x]\nseq a = [x^2]\n"
            "module N = rank 1 relations []\nmodule A = rank 1 relations [[x]]\n")
    out = serialize_session(parse_session_text(text))
    lines = out.splitlines()
    assert lines[4].startswith("module A")
    assert lines[5].startswith("module N")
    assert lines[6].startswith("seq a")
    assert lines[7].startswith("seq b")


def test_parse_session_reads_files(tmp_path):
    p = tmp_path / "conic.ring"
    p.write_text(CONIC_TEXT, encoding="utf-8")
    session = parse_session(str(p))
    assert isinstance(session, SessionData)
    assert session.ring.field == FieldSpec.prime_field(2)


def _fails_with(text, fragment):
    with pytest.raises(ParseError) as info:
        parse_session_text(text)
    assert fragment in str(info.value)
    return info.value


def test_unknown_and_duplicate_keys():
    err = _fails_with("field = Q\nvars = x\ncolor = red\n", "unknown key")
    assert "line 3" in str(err)
    _fails_with("field = Q\nfield = F2\nvars = x\n", "duplicate key")


def test_missing_required_keys():
    _fails_with("vars = x\n", "missing required key 'field'")
    _fails_with("field = Q\n", "missing required key 'vars'")


def test_malformed_lines():
    _fails_with("field = Q\nvars = x\njust words\n", "key = value")
    _fails_with("field = Q\nvars = x, 2y\n", "bad variable name")
    _fails_with("field = Q\nvars = x\norder = degrevlex\n", "unknown order")


def test_module_body_errors():
    base = "field = Q\nvars = x, y\n"
    err = _fails_with(base + "module M = rank 2 relations [[x]]\n",
                      "relation has 1 entries, rank is 2")
    assert "line 3" in str(err)
    _fails_with(base + "module M = rank 1 relations [[x]] extra\n", "trailing")
    _fails_with(base + "module M = rank 1 relations [[x]]\n"
                "module M = rank 1 relations []\n", "duplicate module")
    _fails_with(base + "seq s = [x]\nseq s = [y]\n", "duplicate seq")


def test_expression_errors_carry_position():
    err = _fails_with("field = Q\nvars = x\nquotient = [x^]\n", "exponent")
    assert "line 3" in str(err)
    assert "column" in str(err)


@pytest.mark.parametrize("line, column", [
    ("quotient = [x^]", 15),
    ("seq s = [x, y +]", 16),
    ("  module M = rank 1 relations [[x], [y $]]", 40),
    ("module M = rank 1 [[x]]", 19),
    ("quotient =", 11),
    ("module M = rank 1 relations", 28),
    ("seq s = [x, y^12", 17)])
def test_expression_error_columns_count_from_the_line_start(line, column):
    err = _fails_with("field = Q\nvars = x, y\n" + line + "\n", "")
    assert f"(line 3, column {column})" in str(err)


def test_field_errors_propagate():
    with pytest.raises(BadCharacteristic):
        parse_session_text("field = F4\nvars = x\n")
    with pytest.raises(UnknownFieldKind):
        parse_session_text("field = R\nvars = x\n")
