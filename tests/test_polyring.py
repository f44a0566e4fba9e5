"""Sparse polynomial arithmetic, monomial orders, ring descriptors."""

import pytest
from hypothesis import given, strategies as st

from mcalc.errors import RingMismatch
from mcalc.polyring import INFINITE, Monomial, MonomialOrder, Polynomial, RingSpec
from mcalc.scalars import FieldKind, FieldSpec

Q = FieldSpec.rationals()
F2 = FieldSpec.prime_field(2)

GREVLEX = MonomialOrder.grevlex()
LEX = MonomialOrder.lex()


def _mon(*exps):
    return Monomial(exps)


def _ring(field=Q, names=("x", "y"), **kw):
    return RingSpec(field, names, **kw)


def test_grevlex_tie_break():
    assert GREVLEX.compare(_mon(2, 1), _mon(1, 2)) == 1


def test_grevlex_chain_degree_first():
    chain = [_mon(2, 0), _mon(1, 1), _mon(0, 2), _mon(1, 0), _mon(0, 1), _mon(0, 0)]
    keys = [GREVLEX.key(m) for m in chain]
    assert keys == sorted(keys, reverse=True)


def test_lex_ignores_degree():
    assert LEX.compare(_mon(1, 0), _mon(0, 5)) == 1


def test_compare_equal():
    for order in (GREVLEX, LEX, MonomialOrder.block(1)):
        assert order.compare(_mon(3, 4), _mon(3, 4)) == 0


def test_block_order_groups_first_block():
    block = MonomialOrder.block(1)
    # x beats any power of y, but within the x-block degree decides
    assert block.compare(_mon(1, 0), _mon(0, 7)) == 1
    assert block.compare(_mon(1, 3), _mon(1, 0)) == 1


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


def test_mismatched_rings_rejected():
    f = Polynomial.variable(Q, 2, 0)
    g = Polynomial.variable(Q, 3, 0)
    h = Polynomial.variable(F2, 2, 0)
    with pytest.raises(RingMismatch):
        f + g
    with pytest.raises(RingMismatch):
        f * h


def _monomials(nvars=2, max_exp=4):
    return st.tuples(*(st.integers(min_value=0, max_value=max_exp)
                       for _ in range(nvars))).map(Monomial)


@given(st.sampled_from([GREVLEX, LEX, MonomialOrder.block(1)]),
       _monomials(), _monomials(), _monomials())
def test_orders_are_multiplicative_and_global(order, m, m1, m2):
    c = order.compare(m1, m2)
    assert order.compare(m.mul(m1), m.mul(m2)) == c
    assert order.compare(m, Monomial.one(2)) >= 0


@given(st.sampled_from([GREVLEX, LEX, MonomialOrder.block(1)]),
       _monomials(), _monomials())
def test_descending_key_reverses_key(order, m1, m2):
    d1, d2 = order.descending_key(m1.exps), order.descending_key(m2.exps)
    assert (d1 < d2) == (order.key(m1) > order.key(m2))
    assert (d1 == d2) == (m1 == m2)


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
    assert R.poly_to_str(R.constant(Q.from_fraction(3, 2)) * x) == "(3/2)*x"
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
    c = field.t() if field.kind is FieldKind.RATIONAL_FUNCTIONS else field.from_int(2)
    polys = [R.zero(), R.one(), x, y * c, x * x * c + y, x - y * c + R.one(),
             x * y + x * c - R.constant(3)]
    for p in polys:
        for e in range(7):
            assert p ** e == _repeated_product(p, e)


def test_power_of_single_term_is_immediate():
    R = _ring(field=FieldSpec.prime_field(32003))
    p = (R.variable("x") * R.constant(5)) ** 20_000_000
    (m, c), = p.terms.items()
    assert m.exps == (20_000_000, 0)
    assert c == R.field.from_int(pow(5, 20_000_000, 32003))
