"""Expression grammar: explicit products, constant division, unary minus."""

import time

import pytest

from mcalc.errors import BadCharacteristic, ParseError, UnknownFieldKind
from mcalc.parsing import (parse_field, parse_polynomial,
                           parse_polynomial_list)
from mcalc.polyring import Polynomial, RingSpec
from mcalc.scalars import FieldSpec

Q = FieldSpec.rationals()
R = RingSpec(Q, ("x", "y"))
X, Y = R.variable("x"), R.variable("y")


def test_parse_basic_polynomial():
    assert parse_polynomial(R, "x^2 + x*y + y^2") == X * X + X * Y + Y * Y


def test_explicit_multiplication_required():
    with pytest.raises(ParseError):
        parse_polynomial(R, "x y")
    with pytest.raises(ParseError):
        parse_polynomial(R, "2x")


def test_division_only_by_nonzero_constants():
    half = Q.from_int(1) / Q.from_int(2)
    assert parse_polynomial(R, "x/2") == X * half
    assert parse_polynomial(R, "3*x/6") == X * half
    with pytest.raises(ParseError):
        parse_polynomial(R, "x/y")
    with pytest.raises(ParseError):
        parse_polynomial(R, "x/0")
    with pytest.raises(ParseError):
        parse_polynomial(R, "x/(1-1)")


def test_unary_minus_binds_looser_than_power():
    assert parse_polynomial(R, "-x^2") == -(X * X)
    assert parse_polynomial(R, "(-x)^2") == X * X
    assert parse_polynomial(R, "--x") == X


def test_huge_exponent_parses_at_once():
    start = time.perf_counter()
    p = parse_polynomial(R, "x^20000000")
    assert time.perf_counter() - start < 2.0
    assert p == Polynomial.variable(Q, 2, 0, 20_000_000)


def test_power_requires_integer():
    with pytest.raises(ParseError):
        parse_polynomial(R, "x^-2")
    with pytest.raises(ParseError):
        parse_polynomial(R, "x^y")


def test_parenthesized_subexpressions():
    assert parse_polynomial(R, "(x+y)*(x-y)") == X * X - Y * Y


def test_unknown_names_rejected():
    with pytest.raises(ParseError):
        parse_polynomial(R, "x + z")
    with pytest.raises(ParseError):
        parse_polynomial(R, "t")


def test_transcendental_atom_needs_function_field():
    F5T = FieldSpec.rational_functions(5)
    S = RingSpec(F5T, ("x", "y"))
    f = parse_polynomial(S, "t*x + 1")
    assert f == S.variable("x") * F5T.t() + S.one()


def test_error_carries_line_and_column():
    with pytest.raises(ParseError) as info:
        parse_polynomial(R, "x + ?", line=3)
    assert "line 3" in str(info.value)
    assert "column 5" in str(info.value)


def test_empty_polynomial_rejected_but_empty_list_allowed():
    with pytest.raises(ParseError):
        parse_polynomial(R, "")
    assert parse_polynomial_list(R, "") == []
    assert parse_polynomial_list(R, "x, y^2") == [X, Y * Y]


def test_parse_field_names():
    assert parse_field("Q") == Q
    assert parse_field("F7") == FieldSpec.prime_field(7)
    assert parse_field("F3(t)") == FieldSpec.rational_functions(3)
    with pytest.raises(UnknownFieldKind):
        parse_field("R")
    with pytest.raises(BadCharacteristic):
        parse_field("F4")
