"""Expression grammar: explicit products, constant division, unary minus."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mcalc.errors import BadCharacteristic, ParseError, UnknownFieldKind
from mcalc.parsing import (MAX_NESTING, parse_field, parse_polynomial,
                           parse_polynomial_list)
from mcalc.polyring import MonomialOrder, Polynomial, RingSpec
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
    half = R.constant(Fraction(1, 2))
    assert parse_polynomial(R, "x/2") == X * half
    assert parse_polynomial(R, "3*x/6") == X * half
    with pytest.raises(ParseError):
        parse_polynomial(R, "x/y")
    with pytest.raises(ParseError):
        parse_polynomial(R, "x/0")
    with pytest.raises(ParseError):
        parse_polynomial(R, "x/(1-1)")
    # the zero test runs on the field's raw zero, whatever its format
    with pytest.raises(ParseError):
        parse_polynomial(RingSpec(FieldSpec.prime_field(2), ("x", "y")), "x/2")
    F5T = FieldSpec.rational_functions(5)
    S = RingSpec(F5T, ("x", "y"))
    with pytest.raises(ParseError):
        parse_polynomial(S, "x/(t - t)")
    assert parse_polynomial(S, "x/t") == S.variable("x") * S.constant(
        F5T.raw.div(F5T.raw.one, F5T.t()))


def test_unary_minus_binds_looser_than_power():
    assert parse_polynomial(R, "-x^2") == -(X * X)
    assert parse_polynomial(R, "(-x)^2") == X * X
    assert parse_polynomial(R, "--x") == X


def test_huge_exponent_parses_at_once():
    start = time.perf_counter()
    p = parse_polynomial(R, "x^20000000")
    assert time.perf_counter() - start < 2.0
    assert p == Polynomial.variable(Q, 2, 0, 20_000_000)


@pytest.mark.parametrize("opening, closing", [("(", ")"), ("-", ""), ("-(", ")")])
def test_nesting_is_bounded(opening, closing):
    """'(' and unary '-' share one bound: at MAX_NESTING levels an expression
    parses, one level more is a ParseError, not a RecursionError."""
    levels = MAX_NESTING // len(opening)
    text = opening * levels + "x" + closing * levels
    assert parse_polynomial(R, text) == (-X if levels * opening.count("-") % 2 else X)
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_polynomial(R, "-" + text)


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
    assert f == S.variable("x") * S.constant(F5T.t()) + S.one()


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


# -- printing, then parsing, gives the polynomial back ------------------------------

F7 = FieldSpec.prime_field(7)
F3T = FieldSpec.rational_functions(3)


def _t_polynomial(coeffs):
    """The raw value of sum c_i t^i in F_3(t)."""
    ops, out = F3T.raw, F3T.raw.zero
    for c in reversed(coeffs):
        out = ops.sub(ops.mul(out, F3T.t()), ops.sub(ops.zero, F3T.from_int(c)))
    return out


_T_COEFFS = st.lists(st.integers(0, 2), max_size=3)
_COEFFICIENTS = {
    # such as -3/4
    "Q": st.fractions(min_value=-20, max_value=20, max_denominator=12),
    "F7": st.integers(-20, 20).map(F7.from_int),
    # such as (t + 1)/(t^2 + 2)
    "F3(t)": st.tuples(_T_COEFFS, _T_COEFFS.filter(lambda cs: any(cs))).map(
        lambda nd: F3T.raw.div(_t_polynomial(nd[0]), _t_polynomial(nd[1]))),
}
_FIELDS = {"Q": Q, "F7": F7, "F3(t)": F3T}
_ORDERS = [MonomialOrder.grevlex(), MonomialOrder.lex(), MonomialOrder.block(1)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_FIELDS)), st.sampled_from(_ORDERS), st.data())
def test_printed_polynomials_parse_back(name, order, data):
    field = _FIELDS[name]
    ring = RingSpec(field, ("x", "y", "z"), order)
    exps = st.tuples(*(st.integers(0, 3) for _ in range(3)))
    f = Polynomial(field, 3, data.draw(st.dictionaries(exps, _COEFFICIENTS[name], max_size=5)))
    assert parse_polynomial(ring, ring.poly_to_str(f)) == f
