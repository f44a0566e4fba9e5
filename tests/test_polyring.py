"""Sparse polynomial arithmetic, monomial orders, ring descriptors."""

from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, strategies as st

from mcalc.errors import RingMismatch
from mcalc.polyring import INFINITE, MonomialOrder, Polynomial, RingSpec
from mcalc.scalars import FieldKind, FieldSpec

Q = FieldSpec.rationals()
F2 = FieldSpec.prime_field(2)

GREVLEX = MonomialOrder.grevlex()
LEX = MonomialOrder.lex()


def _larger(order, a, b):
    """True when the monomial with exponents a is larger than b's."""
    return order.key(a) > order.key(b)


def _ring(field=Q, names=("x", "y"), **kw):
    return RingSpec(field, names, **kw)


def test_grevlex_tie_break():
    assert _larger(GREVLEX, (2, 1), (1, 2))


def test_grevlex_chain_degree_first():
    chain = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]
    keys = [GREVLEX.key(m) for m in chain]
    assert keys == sorted(keys, reverse=True)


def test_lex_ignores_degree():
    assert _larger(LEX, (1, 0), (0, 5))


def test_compare_equal():
    for order in (GREVLEX, LEX, MonomialOrder.block(1)):
        assert order.key((3, 4)) == order.key((3, 4))


def test_block_order_groups_first_block():
    block = MonomialOrder.block(1)
    # x beats any power of y, but within the x-block degree decides
    assert _larger(block, (1, 0), (0, 7))
    assert _larger(block, (1, 3), (1, 0))


def test_order_names():
    assert str(GREVLEX) == "grevlex"
    assert str(LEX) == "lex"
    assert str(MonomialOrder.block(2)) == "block(2)"


def test_order_validation():
    with pytest.raises(ValueError):
        MonomialOrder.block(0)
    with pytest.raises(ValueError):
        MonomialOrder(MonomialOrder.grevlex().kind, 1)


def test_frobenius_square_char_two():
    R = _ring(field=F2)
    xy = R.variable("x") + R.variable("y")
    assert xy * xy == R.variable(0) ** 2 + R.variable(1) ** 2


def test_multiplicative_identity():
    R = _ring()
    f = R.variable("x") ** 3 - 2 * R.variable("y") + R.one()
    assert f * R.one() == f


def test_difference_of_squares():
    R = _ring()
    x, y = R.variable("x"), R.variable("y")
    assert (x + y) * (x - y) == x * x - y * y


def test_zero_coefficients_never_stored():
    R = _ring(field=F2)
    x = R.variable("x")
    assert (x + x).is_zero()
    assert (x + x).terms == {}


def test_terms_map_exponents_to_raw_coefficients():
    R = _ring()
    x, y = R.variable("x"), R.variable("y")
    half = R.constant(Fraction(1, 2))
    assert (x * x * 3 - y * half).terms == {(2, 0): 3, (0, 1): Fraction(-1, 2)}
    S = _ring(field=FieldSpec.prime_field(7))
    assert (S.variable("x") * 3 - S.one()).terms == {(1, 0): 3, (0, 0): 6}
    assert Polynomial.term(Q, 2, (1, 2), Q.from_int(5)).terms == {(1, 2): 5}
    assert (x - R.one()).constant_coefficient() == Fraction(-1)
    assert x.constant_coefficient() == Q.raw.zero
    F5T = FieldSpec.rational_functions(5)
    T = _ring(field=F5T)
    assert T.variable("x").constant_coefficient() == ((), (1,))
    assert (T.variable("x") + T.constant(F5T.t())).constant_coefficient() == F5T.t()
    assert T.constant(7).terms == {(0, 0): ((2,), (1,))}


def test_mismatched_rings_rejected():
    f = Polynomial.variable(Q, 2, 0)
    g = Polynomial.variable(Q, 3, 0)
    h = Polynomial.variable(F2, 2, 0)
    with pytest.raises(RingMismatch):
        f + g
    with pytest.raises(RingMismatch):
        f * h
    # a constant other than an int enters as a polynomial, through constant
    with pytest.raises(TypeError):
        f * Q.from_int(2)


def _monomials(nvars=2, max_exp=4):
    return st.tuples(*(st.integers(min_value=0, max_value=max_exp)
                       for _ in range(nvars)))


@given(st.sampled_from([GREVLEX, LEX, MonomialOrder.block(1)]),
       _monomials(), _monomials(), _monomials())
def test_orders_are_multiplicative_and_global(order, m, m1, m2):
    def times(a, b):
        return tuple(map(add, a, b))

    assert _larger(order, m1, m2) == _larger(order, times(m, m1), times(m, m2))
    assert not _larger(order, (0, 0), m)


def _polys(field):
    coeff = st.integers(min_value=-3, max_value=3)
    term = st.tuples(_monomials(max_exp=2), coeff)
    return st.lists(term, max_size=4).map(
        lambda ts: sum(
            (Polynomial.term(field, 2, m, field.from_int(c)) for m, c in ts),
            Polynomial.zero(field, 2)))


@given(st.tuples(_polys(Q), _polys(Q), _polys(Q)) | st.tuples(_polys(F2), _polys(F2), _polys(F2)))
def test_polynomial_ring_axioms(fgh):
    f, g, h = fgh
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


def test_canonical_rendering():
    R = _ring()
    x, y = R.variable("x"), R.variable("y")
    assert R.poly_to_str(x * x - y * y) == "x^2 - y^2"
    assert R.poly_to_str(R.constant(Fraction(3, 2)) * x) == "(3/2)*x"
    assert R.poly_to_str(R.zero()) == "0"
    assert R.poly_to_str(y - x) == "-x + y"
    assert R.poly_to_str(R.one() - R.one()) == "0"


def test_rendering_follows_ring_order():
    lex_ring = _ring(order=LEX)
    x, y = lex_ring.variable("x"), lex_ring.variable("y")
    assert lex_ring.poly_to_str(y ** 5 + x) == "x + y^5"


def test_ring_validation():
    with pytest.raises(ValueError):
        _ring(names=())
    with pytest.raises(ValueError):
        _ring(names=("x", "x"))
    with pytest.raises(ValueError):
        _ring(names=("x", "2y"))
    with pytest.raises(ValueError):
        _ring(field=FieldSpec.rational_functions(5), names=("t", "y"))
    with pytest.raises(ValueError):
        _ring(order=MonomialOrder.block(2))


def test_quotient_generators_must_vanish_at_origin():
    R = _ring()
    x = R.variable("x")
    with pytest.raises(ValueError):
        _ring(quotient=(x + R.one(),))
    with pytest.raises(RingMismatch):
        _ring(quotient=(Polynomial.variable(Q, 3, 0),))
    # zero generators are dropped, valid ones kept
    S = _ring(quotient=(R.zero(), x * x))
    assert S.quotient == (x * x,)


def test_infinite_marker_is_a_singleton():
    assert INFINITE is INFINITE
    assert INFINITE != 7
    assert str(INFINITE) == "INFINITE"


def _repeated_product(p, e):
    out = Polynomial.one(p.field, p.nvars)
    for _ in range(e):
        out = out * p
    return out


@pytest.mark.parametrize("field", [Q, FieldSpec.prime_field(7),
                                   FieldSpec.rational_functions(3)])
def test_power_matches_repeated_multiplication(field):
    R = _ring(field=field)
    x, y = R.variable("x"), R.variable("y")
    c = R.constant(field.t() if field.kind is FieldKind.RATIONAL_FUNCTIONS else 2)
    polys = [R.zero(), R.one(), x, y * c, x * x * c + y, x - y * c + R.one(),
             x * y + x * c - R.constant(3)]
    for p in polys:
        for e in range(7):
            assert p ** e == _repeated_product(p, e)


def test_power_of_single_term_is_immediate():
    R = _ring(field=FieldSpec.prime_field(32003))
    p = (R.variable("x") * R.constant(5)) ** 20_000_000
    assert p.terms == {(20_000_000, 0): pow(5, 20_000_000, 32003)}
