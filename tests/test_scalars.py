"""Exact field arithmetic over Q, F_p, and F_p(t)."""

import pytest
from hypothesis import given, strategies as st

from mcalc.errors import BadCharacteristic, DivisionByZero, FieldMismatch
from mcalc.scalars import FieldSpec, Scalar

Q = FieldSpec.rationals()
F2 = FieldSpec.prime_field(2)
F5 = FieldSpec.prime_field(5)
F2T = FieldSpec.rational_functions(2)
F5T = FieldSpec.rational_functions(5)


def _frac(a, b):
    return Q.from_int(a) / Q.from_int(b)


def _t_fraction(field, num, den):
    """num(t) / den(t) in F_p(t), from coefficient lists, low degree first."""
    def poly(coeffs):
        out = field.zero
        for c in reversed(coeffs):
            out = out * field.t() + field.from_int(c)
        return out
    return poly(num) / poly(den)


def test_rational_addition_exact():
    assert _frac(1, 2) + _frac(1, 3) == _frac(5, 6)


def test_prime_field_characteristic():
    assert F2.one + F2.one == F2.zero
    assert F5.from_int(3) + F5.from_int(4) == F5.from_int(2)
    assert F5.from_int(-1) == F5.from_int(4)


def test_function_field_inverse_pair():
    t = F2T.t()
    assert (F2T.one / t) * t == F2T.one


def test_function_field_gcd_reduction():
    # (t^2+1)/(t+1) = t+1 in characteristic 2
    a = _t_fraction(F2T, (1, 0, 1), (1, 1))
    assert a == F2T.t() + F2T.one
    assert str(a) == "t+1"


def test_function_field_monic_denominator():
    # (1)/(2t) over F5 normalizes to 3/t
    a = _t_fraction(F5T, (1,), (0, 2))
    num, den = a.value
    assert den == (0, 1)
    assert num == (3,)
    assert str(a) == "(3)/(t)"


def test_division_exact():
    assert Q.from_int(7) / Q.from_int(2) == Q.from_int(14) / Q.from_int(4)
    assert F5.from_int(3) / F5.from_int(2) == F5.from_int(4)


def test_division_by_zero_rejected():
    with pytest.raises(DivisionByZero):
        Q.one / Q.zero
    with pytest.raises(DivisionByZero):
        F2T.one / F2T.zero
    with pytest.raises(DivisionByZero):
        F5.zero.inverse()


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatch):
        Q.one + F5.one
    with pytest.raises(FieldMismatch):
        Q.t()


def test_bad_characteristic_rejected():
    with pytest.raises(BadCharacteristic):
        FieldSpec.prime_field(4)
    with pytest.raises(BadCharacteristic):
        FieldSpec.prime_field(1)
    with pytest.raises(BadCharacteristic):
        FieldSpec.rational_functions(6)


def test_field_names():
    assert str(Q) == "Q"
    assert str(F5) == "F5"
    assert str(F2T) == "F2(t)"


def test_scalar_canonical_strings():
    assert str(_frac(-3, 6)) == "-1/2"
    assert str(F5.from_int(12)) == "2"
    assert str(F2T.t() ** 3 + F2T.one) == "t^3+1"


def _rationals():
    return st.fractions(min_value=-50, max_value=50, max_denominator=20).map(
        lambda q: _frac(q.numerator, q.denominator))


def _prime_scalars():
    return st.integers(min_value=-30, max_value=30).map(F5.from_int)


def _function_scalars():
    coeffs = st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=3)
    nonzero = coeffs.filter(lambda cs: any(c % 5 for c in cs))
    return st.tuples(coeffs, nonzero).map(
        lambda nd: _t_fraction(F5T, nd[0], nd[1]))


def _scalar_triples():
    return st.one_of(
        st.tuples(_rationals(), _rationals(), _rationals()),
        st.tuples(_prime_scalars(), _prime_scalars(), _prime_scalars()),
        st.tuples(_function_scalars(), _function_scalars(), _function_scalars()),
    )


@given(_scalar_triples())
def test_ring_axioms(abc):
    a, b, c = abc
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(_scalar_triples())
def test_inverse_and_cancellation(abc):
    a, b, _ = abc
    if not a.is_zero():
        assert a * a.inverse() == a.field.one
        assert (a * b) / a == b
    assert a - a == a.field.zero


@given(_scalar_triples())
def test_add_zero_is_representationally_identical(abc):
    a, _, _ = abc
    s = a + a.field.zero
    assert s == a and s.value == a.value


def test_scalar_hash_consistent_with_eq():
    assert hash(_frac(2, 4)) == hash(_frac(1, 2))
    assert len({F5.from_int(7), F5.from_int(2)}) == 1
