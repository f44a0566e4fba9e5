"""Exact field arithmetic over Q, F_p, and F_p(t), on the raw values of
`FieldSpec.raw`."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mcalc.errors import BadCharacteristic, DivisionByZero, FieldMismatch
from mcalc.scalars import FieldSpec

Q = FieldSpec.rationals()
F2 = FieldSpec.prime_field(2)
F5 = FieldSpec.prime_field(5)
F2T = FieldSpec.rational_functions(2)
F5T = FieldSpec.rational_functions(5)


def _add(ops, a, b):
    return ops.sub(a, ops.sub(ops.zero, b))


def _frac(a, b):
    return Q.raw.div(Q.from_int(a), Q.from_int(b))


def _t_fraction(field, num, den):
    """num(t) / den(t) in F_p(t), from coefficient lists, low degree first."""
    ops = field.raw

    def poly(coeffs):
        out = ops.zero
        for c in reversed(coeffs):
            out = _add(ops, ops.mul(out, field.t()), field.from_int(c))
        return out
    return ops.div(poly(num), poly(den))


def test_rational_addition_exact():
    assert _add(Q.raw, _frac(1, 2), _frac(1, 3)) == _frac(5, 6)
    assert Q.from_int(3) == Fraction(3) and type(Q.from_int(3)) is Fraction


def test_prime_field_characteristic():
    assert _add(F2.raw, F2.raw.one, F2.raw.one) == F2.raw.zero
    assert _add(F5.raw, F5.from_int(3), F5.from_int(4)) == F5.from_int(2)
    assert F5.from_int(-1) == F5.from_int(4) == 4
    assert F5T.from_int(5) == F5T.raw.zero and F5T.raw.is_zero(F5T.from_int(-10))


def test_function_field_inverse_pair():
    ops, t = F2T.raw, F2T.t()
    assert ops.mul(ops.div(ops.one, t), t) == ops.one


def test_function_field_gcd_reduction():
    # (t^2+1)/(t+1) = t+1 in characteristic 2
    a = _t_fraction(F2T, (1, 0, 1), (1, 1))
    assert a == _add(F2T.raw, F2T.t(), F2T.raw.one)
    assert F2T.to_str(a) == "t+1"


def test_function_field_monic_denominator():
    # (1)/(2t) over F5 normalizes to 3/t
    a = _t_fraction(F5T, (1,), (0, 2))
    num, den = a
    assert den == (0, 1)
    assert num == (3,)
    assert F5T.to_str(a) == "(3)/(t)"


def test_division_exact():
    assert Q.raw.div(Q.from_int(7), Q.from_int(2)) == Q.raw.div(Q.from_int(14), Q.from_int(4))
    assert F5.raw.div(F5.from_int(3), F5.from_int(2)) == F5.from_int(4)


def test_division_by_zero_rejected():
    # every field's div refuses a zero divisor, and the inverse of a zero
    # lead with it; a zero F_p(t) denominator is caught where the fraction
    # is normalized
    for field in (Q, F2, F5, F2T):
        ops = field.raw
        with pytest.raises(DivisionByZero):
            ops.div(ops.one, ops.zero)
        with pytest.raises(DivisionByZero):
            ops.divisor(ops.zero)
    with pytest.raises(DivisionByZero):
        _t_fraction(F5T, (1,), (0,))


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatch):
        Q.t()
    with pytest.raises(FieldMismatch):
        F5.t()


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
    assert Q.to_str(_frac(-3, 6)) == "-1/2"
    assert Q.to_str(Q.from_int(4)) == "4"
    assert F5.to_str(F5.from_int(12)) == "2"
    t = F2T.t()
    assert F2T.to_str(_add(F2T.raw, F2T.raw.mul(F2T.raw.mul(t, t), t), F2T.raw.one)) == "t^3+1"
    assert F5T.to_str(F5T.raw.zero) == "0"
    assert F5T.to_str(_t_fraction(F5T, (1, 3), (2, 0, 1))) == "(3*t+1)/(t^2+2)"


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
    """(field table, (a, b, c)) with raw values a, b, c of that field."""
    return st.one_of(
        st.tuples(st.just(Q.raw), st.tuples(_rationals(), _rationals(), _rationals())),
        st.tuples(st.just(F5.raw),
                  st.tuples(_prime_scalars(), _prime_scalars(), _prime_scalars())),
        st.tuples(st.just(F5T.raw),
                  st.tuples(_function_scalars(), _function_scalars(), _function_scalars())),
    )


@given(_scalar_triples())
def test_ring_axioms(triple):
    ops, (a, b, c) = triple
    mul = ops.mul

    def add(x, y):
        return _add(ops, x, y)
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert ops.sub(add(a, b), b) == a


@given(_scalar_triples())
def test_inverse_and_cancellation(triple):
    ops, (a, b, _) = triple
    if not ops.is_zero(a):
        assert ops.mul(a, ops.div(ops.one, a)) == ops.one
        assert ops.div(ops.mul(a, b), a) == b
    assert ops.sub(a, a) == ops.zero and ops.is_zero(ops.sub(a, a))


@given(_scalar_triples())
def test_add_zero_is_representationally_identical(triple):
    ops, (a, _, _) = triple
    s = ops.sub(a, ops.zero)
    assert s == a and repr(s) == repr(a)


def test_scalar_hash_consistent_with_eq():
    assert hash(_frac(2, 4)) == hash(_frac(1, 2))
    assert len({F5.from_int(7), F5.from_int(2)}) == 1
    # 2t/t reduces to the constant 2
    two = _t_fraction(F5T, (0, 2), (0, 1))
    assert two == F5T.from_int(2) and hash(two) == hash(F5T.from_int(2))


_NONZERO = st.integers(-10 ** 6, 10 ** 6).filter(bool)


@given(st.integers(-10 ** 6, 10 ** 6), _NONZERO)
def test_integer_pseudo_and_cofactors(c, a):
    """The integer division step asks for the smallest positive scale with
    scale * c == quotient * a, and only for one other than 1, and the
    S-vector cofactors are fraction-free; over a field the step is c / a,
    asking for no scale, and the cofactors are the inverses."""
    ints = Q.fraction_free
    scales = []
    q = ints.quotient(c, ints.divisor(a), scales.append)
    scale = scales[0] if scales else 1
    assert len(scales) <= 1 and scales != [1]
    assert scale * c == q * a and scale > 0 and scale == abs(a) // math.gcd(c, a)
    if c:
        ka, kb = ints.cofactors(ints.divisor(c), ints.divisor(a))
        assert ka * c == kb * a and ka > 0
    da = Q.raw.divisor(Fraction(a))
    field_scales = []
    assert Q.raw.quotient(Fraction(c), da, field_scales.append) == Fraction(c, a)
    assert not field_scales
    assert Q.raw.cofactors(da, da) == (Fraction(1, a),) * 2


@given(st.dictionaries(st.integers(0, 5), st.fractions(max_denominator=50).filter(bool),
                       max_size=5),
       st.fractions(min_value=-20, max_value=20, max_denominator=20).filter(bool))
def test_primitive_vectors(v, k):
    """Integers with content one and the sign of v, the same for every
    positive multiple of v; a field's table leaves v as it is."""
    prim = Q.fraction_free.primitive(v)
    assert all(type(c) is int for c in prim.values())
    assert math.gcd(*prim.values()) == (1 if v else 0)
    if v:
        key = next(iter(v))
        ratio = prim[key] / v[key]
        assert ratio > 0 and prim == {key: c * ratio for key, c in v.items()}
    scaled = Q.fraction_free.primitive({key: c * abs(k) for key, c in v.items()})
    assert scaled == prim
    assert Q.raw.primitive(v) is v


# -- F_p(t)'s fraction-free table: polynomials over F_5 ----------------------------

def _poly(coeffs):
    """The coefficient tuple of sum c_i t^i over F_5, low degree first."""
    cs = [c % 5 for c in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _poly_gcd(a, b):
    """Monic gcd of two coefficient tuples over F_5, by Euclid's algorithm
    on lists; the reference for the table's content."""
    a, b = list(a), list(b)
    while b:
        inv = pow(b[-1], -1, 5)
        while len(a) >= len(b):
            c, shift = a[-1] * inv % 5, len(a) - len(b)
            for i, x in enumerate(b):
                a[shift + i] = (a[shift + i] - c * x) % 5
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return tuple(x * pow(a[-1], -1, 5) % 5 for x in a) if a else ()


_T_POLYS = st.lists(st.integers(0, 4), max_size=4).map(_poly)
_NONZERO_T_POLYS = _T_POLYS.filter(bool)


def _in_field(a):
    """The polynomial a as an F_5(t) value."""
    return a, (1,)


@given(_T_POLYS, _NONZERO_T_POLYS)
def test_polynomial_pseudo_and_cofactors(c, a):
    """Over F_5[t] the division step asks for a monic scale other than 1,
    dividing a, or for none, with scale * c == quotient * a; the S-vector
    cofactors are polynomials with ka * c == kb * a and ka monic."""
    polys, field = F5T.fraction_free, F5T.raw
    scales = []
    q = polys.quotient(c, polys.divisor(a), scales.append)
    scale = scales[0] if scales else (1,)
    assert len(scales) <= 1 and scales != [(1,)]
    assert scale[-1] == 1 and polys.mul(scale, c) == polys.mul(q, a)
    assert field.div(_in_field(a), _in_field(scale))[1] == (1,)
    assert len(scale) == len(a) - len(_poly_gcd(c, a)) + 1
    if c:
        ka, kb = polys.cofactors(polys.divisor(c), polys.divisor(a))
        assert polys.mul(ka, c) == polys.mul(kb, a) and ka[-1] == 1
    assert polys.div(c, a) == field.div(_in_field(c), _in_field(a))


@given(st.dictionaries(st.integers(0, 5), _function_scalars().filter(lambda c: c[0]),
                       max_size=5),
       _function_scalars().filter(lambda c: c[0]))
def test_polynomial_primitive_vectors(v, k):
    """Polynomials with content one and a monic first entry, a multiple of
    v over F_5(t), the same for every nonzero multiple of v, non-constant
    ones included, and for itself; a field's table leaves v as it is."""
    polys = F5T.fraction_free
    prim = polys.primitive(v)
    assert list(prim) == list(v)
    assert all(c and all(type(x) is int for x in c) for c in prim.values())
    content = ()
    for c in prim.values():
        content = _poly_gcd(content, c)
    assert content == ((1,) if v else ())
    if v:
        first = next(iter(prim.values()))
        assert first[-1] == 1
        ratios = {F5T.raw.div(_in_field(prim[key]), c) for key, c in v.items()}
        assert len(ratios) == 1
    assert polys.primitive({key: F5T.raw.mul(c, k) for key, c in v.items()}) == prim
    assert polys.primitive(prim) == prim
    assert F5T.raw.primitive(v) is v
