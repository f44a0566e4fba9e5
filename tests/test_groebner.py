"""Buchberger, normal forms, standard monomials, dimension."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from mcalc.errors import SupportNotAtOrigin, UnitIdeal
from mcalc.fpmodules import FPModule, ModuleVector, module_gb
from mcalc.groebner import (GroebnerBasis, _buchberger, _raw_vector, _reduce,
                            _reduce_basis, _reducer_form, _s_vector, _self_check,
                            buchberger, krull_dimension, normal_form,
                            standard_monomials)
from mcalc.parsing import parse_polynomial
from mcalc.polyring import INFINITE, MonomialOrder, OrderKind, Polynomial, RingSpec
from mcalc.scalars import FieldSpec

Q = FieldSpec.rationals()
F2 = FieldSpec.prime_field(2)


def _plane(field=Q, order=MonomialOrder.grevlex()):
    return RingSpec(field, ("x", "y"), order)


def _conic_ring():
    R = _plane(F2)
    x, y = R.variable("x"), R.variable("y")
    return RingSpec(F2, ("x", "y"), quotient=(x * x + x * y + y * y,))


def test_reduced_basis_conic_plus_line():
    R = _plane()
    x, y = R.variable("x"), R.variable("y")
    gb = buchberger(R, [x * x + x * y + y * y, x])
    assert gb.generators == (x, y * y)


def test_quotient_relations_folded_in():
    A = _conic_ring()
    x, y = A.variable("x"), A.variable("y")
    gb = buchberger(A, [x])
    assert gb.generators == (x, y * y)


def test_lex_elimination():
    R = RingSpec(Q, ("y", "x"), MonomialOrder.lex())
    y, x = R.variable("y"), R.variable("x")
    gb = buchberger(R, [x * y - R.one(), y * y - R.one()])
    assert gb.generators == (x * x - R.one(), y - x)


def test_char_two_line_cuts_conic():
    R = _plane(F2)
    x, y = R.variable("x"), R.variable("y")
    gb = buchberger(R, [x * x + x * y + y * y, x + y])
    assert gb.generators == (x + y, y * y)


def test_unit_ideal():
    R = _plane()
    x = R.variable("x")
    gb = buchberger(R, [x, x + R.one()])
    assert gb.is_unit_ideal()
    assert gb.generators == (R.one(),)
    with pytest.raises(UnitIdeal):
        krull_dimension(gb)


def test_empty_input_keeps_free_ring():
    R = _plane()
    gb = buchberger(R, [])
    assert gb.generators == ()
    assert krull_dimension(gb) == 2
    assert standard_monomials(gb) is INFINITE


def test_normal_form_with_witness():
    R = _plane()
    x, y = R.variable("x"), R.variable("y")
    gb = buchberger(R, [x * x + x * y + y * y, x])
    f = y ** 3 + y
    r, witness = normal_form(f, gb, with_witness=True)
    assert r == y
    acc = R.zero()
    for w, g in zip(witness, gb.generators):
        acc = acc + w * g
    assert acc + r == f


def test_normal_form_is_canonical():
    R = _plane()
    x, y = R.variable("x"), R.variable("y")
    gb = buchberger(R, [x * x + x * y + y * y, x])
    f = y ** 2 + x * y
    assert normal_form(f, gb).is_zero() == gb.contains(f)
    assert normal_form(normal_form(f, gb), gb) == normal_form(f, gb)
    # representatives of the same class share a normal form
    g = f + (x * x) * (y + R.one())
    assert normal_form(f, gb) == normal_form(g, gb)


def test_standard_monomials_finite():
    R = _plane()
    x, y = R.variable("x"), R.variable("y")
    gb = buchberger(R, [x, y * y])
    assert standard_monomials(gb) == [(0, 0), (0, 1)]


def test_standard_monomials_infinite():
    R = _plane()
    x, y = R.variable("x"), R.variable("y")
    assert standard_monomials(buchberger(R, [x * y])) is INFINITE


def test_krull_dimension_chain():
    R = _plane()
    x, y = R.variable("x"), R.variable("y")
    assert krull_dimension(buchberger(R, [x])) == 1
    assert krull_dimension(buchberger(R, [x, y * y])) == 0
    A = _conic_ring()
    assert krull_dimension(buchberger(A, [])) == 1


def test_origin_support():
    R = _plane()
    x, y = R.variable("x"), R.variable("y")
    assert buchberger(R, [x, y * y]).local_length() == 2
    with pytest.raises(SupportNotAtOrigin):
        buchberger(R, [x - R.one(), y]).local_length()
    assert buchberger(R, [x]).local_length() is INFINITE


def test_determinism_and_input_order_independence():
    R = _plane()
    x, y = R.variable("x"), R.variable("y")
    gens = [x * x + x * y + y * y, x * y ** 2, y ** 4 - x]
    first = buchberger(R, gens).generators
    again = buchberger(R, gens).generators
    shuffled = buchberger(R, list(reversed(gens))).generators
    assert first == again == shuffled


def test_membership_agrees_with_row_reduction():
    R = _plane(F2)
    x, y = R.variable("x"), R.variable("y")
    gens = [x * x + y, x * y]
    gb = buchberger(R, gens)
    probes = [y * y, x * x, x + y, y ** 3, x * x * y + y * y, R.one()]
    for f in probes:
        assert gb.contains(f) == oracles.brute_force_member(R, f, gens)


def _f2_polys(max_deg=2):
    mons = [e for e in itertools.product(range(3), repeat=2) if sum(e) <= max_deg]
    return st.lists(st.sampled_from(mons), min_size=1, max_size=4).map(
        lambda ms: sum((Polynomial.term(F2, 2, m, F2.one) for m in ms),
                       Polynomial.zero(F2, 2)))


@settings(max_examples=40, deadline=None)
@given(st.lists(_f2_polys(), min_size=1, max_size=3))
def test_ideal_combinations_reduce_to_zero(gens):
    R = _plane(F2)
    gens = [g for g in gens if not g.is_zero()]
    gb = buchberger(R, gens)
    x, y = R.variable("x"), R.variable("y")
    for g, m in zip(gens, itertools.cycle([R.one(), x, y, x * y])):
        assert normal_form(m * g, gb).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.lists(_f2_polys(), min_size=1, max_size=2))
def test_standard_count_matches_enumeration(gens):
    R = _plane(F2)
    gens = [g for g in gens if not g.is_zero()]
    gb = buchberger(R, gens)
    sms = standard_monomials(gb)
    count = oracles.standard_monomial_count(R, gens)
    if sms is INFINITE:
        assert count is None
    else:
        assert count == len(sms)


# Frozen outputs of the division kernel, taken from the code before it
# worked on raw terms: F_p(t) arithmetic, and a block order's descending key.

def test_katsura_three_over_rational_functions_frozen():
    R = RingSpec(FieldSpec.rational_functions(5), ("x0", "x1", "x2", "x3"))
    gens = ["x0 + 2*x1 + 2*x2 + 2*x3 - t",
            "x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 - x0",
            "2*x0*x1 + 2*x1*x2 + 2*x2*x3 - x1",
            "2*x0*x2 + x1^2 + 2*x1*x3 - x2"]
    gb = buchberger(R, [parse_polynomial(R, g) for g in gens])
    assert [R.poly_to_str(g) for g in gb.generators] == [
        "x0 + 2*x1 + 2*x2 + 2*x3 + 4*t",
        "x2^2 + 2*x1*x3 + x2*x3 + x3^2 + (4*t+3)*x1 + (t+2)*x2 + (t+2)*x3 + t^2+4*t",
        "x1*x2 + 3*x1*x3 + x2*x3 + 3*x3^2 + (3*t+1)*x1 + (2*t+4)*x2 + (3*t+1)*x3"
        " + 3*t^2+2*t",
        "x1^2 + 2*x1*x3 + 4*x2*x3 + x3^2 + (3*t+1)*x1 + (4*t+3)*x2 + (t+2)*x3 + t^2+4*t",
        "x2*x3^2 + (t+2)*x1*x3 + (t+2)*x2*x3 + (2*t+4)*x3^2 + (4*t^2+t+4)*x1"
        " + (t^2+4*t)*x2 + (2*t^2+3*t+3)*x3 + 2*t^3+2*t^2+t",
        "x1*x3^2 + 3*x3^3 + (2*t+4)*x1*x3 + (3*t+1)*x2*x3 + (3*t+1)*x3^2 + 4*x1"
        " + (2*t^2+3*t+2)*x2 + (3*t^2+2*t)*x3",
        "x3^4 + (t+2)*x3^3 + (4*t^2+t+2)*x1*x3 + (3*t^2+2*t+2)*x2*x3"
        " + (3*t^2+2*t+2)*x3^2 + (2*t+4)*x1 + (2*t^3+2*t^2+3*t+4)*x2"
        " + (2*t^3+2*t^2+3*t+4)*x3 + 2*t^4+t^3+4*t^2+3*t",
    ]


def test_block_order_basis_frozen():
    R = RingSpec(Q, ("x", "y", "z", "w"), MonomialOrder.block(2))
    gens = ["x*y - z^2", "x^2 - y*w + z", "y^2 - x*w"]
    gb = buchberger(R, [parse_polynomial(R, g) for g in gens])
    assert [R.poly_to_str(g) for g in gb.generators] == [
        "z^8 - 3*z^6*w^2 + 3*z^4*w^4 - z^2*w^6 + z^3*w^2",
        "y*z^2 - y*w^2 + z*w",
        "y*w^3 - z^6 + 2*z^4*w^2 - z^2*w^4 - z*w^2",
        "x*z*w + z^4 - z^2*w^2",
        "x*z^2 - x*w^2 + y*z",
        "x*w^3 - y*z*w + z^5 - z^3*w^2",
        "y^2 - x*w",
        "x*y - z^2",
        "x^2 - y*w + z",
    ]


def _small_polys(field, nvars):
    mono = st.tuples(*(st.integers(0, 2) for _ in range(nvars)))
    term = st.tuples(mono, st.integers(-3, 3))
    return st.lists(term, max_size=4).map(
        lambda ts: sum((Polynomial.term(field, nvars, m, field.from_int(c))
                        for m, c in ts), Polynomial.zero(field, nvars)))


_ORACLE_KEYS = {"grevlex": oracles._grevlex_key, "lex": lambda e: e}


@st.composite
def _division_problems(draw):
    field = draw(st.sampled_from([FieldSpec.prime_field(7), Q]))
    nvars = draw(st.integers(2, 3))
    order = draw(st.sampled_from(sorted(_ORACLE_KEYS)))
    polys = _small_polys(field, nvars)
    reducers = draw(st.lists(polys.filter(lambda g: not g.is_zero()),
                             min_size=1, max_size=3))
    return order, draw(polys), reducers


@settings(max_examples=60, deadline=None)
@given(_division_problems())
def test_division_matches_first_divisor_oracle(problem):
    """Against reducer lists that need not be Groebner bases, the kernel's
    remainder and witness are those of plain first-divisor division."""
    order, f, reducers = problem
    names = ("x", "y", "z")[:f.nvars]
    R = RingSpec(f.field, names, MonomialOrder(OrderKind(order)))
    r, witness = normal_form(f, GroebnerBasis(R, [_raw_vector((g,)) for g in reducers]),
                              with_witness=True)
    rem, quotients = oracles.first_divisor_division(f, reducers, _ORACLE_KEYS[order])
    assert oracles._poly_as_row(r) == rem
    assert [oracles._poly_as_row(w) for w in witness] == quotients


F7 = FieldSpec.prime_field(7)


@st.composite
def _ideal_problems(draw):
    field = draw(st.sampled_from([F7, Q]))
    nvars = draw(st.integers(2, 3))
    order = draw(st.sampled_from([MonomialOrder.grevlex(), MonomialOrder.lex()]))
    polys = _small_polys(field, nvars)
    return order, draw(st.lists(polys, max_size=3)), draw(polys)


@settings(max_examples=40, deadline=None)
@given(_ideal_problems())
def test_ideal_path_is_the_rank_one_module_path(problem):
    """An ideal is a rank-1 module: the same basis, the same normal forms,
    and the support dimension of R/I is the Krull dimension of I."""
    order, gens, f = problem
    R = RingSpec(f.field, ("x", "y", "z")[:f.nvars], order)
    gb = buchberger(R, gens)
    mgb = module_gb(R, [ModuleVector((g,)) for g in gens], 1)
    assert gb.raws == mgb.raws
    assert _raw_vector((normal_form(f, gb),)) == mgb.reduce(_raw_vector((f,)))[0]
    dim = FPModule.cyclic(R, gens).support_dimension()
    assert dim == (-1 if gb.is_unit_ideal() else krull_dimension(gb))


R3 = RingSpec(F7, ("x", "y", "z"))


def _certificate_basis(rank):
    """Reduced basis over F_7[x, y, z], of an ideal at rank 1 and of a
    submodule of R^2 at rank 2, whose first element the rest cannot spare:
    without it they are not a Groebner basis."""
    x, y, z = (R3.variable(v) for v in "xyz")
    if rank == 1:
        return list(buchberger(R3, [x * x + y * z, x * y - z * z, y ** 3 + x]).raws)
    vecs = [ModuleVector((x, y)), ModuleVector((y, z)), ModuleVector((z * z, x))]
    return list(module_gb(R3, vecs, 2).raws)


@pytest.mark.parametrize("rank", [1, 2])
def test_self_check_passes_the_basis(rank):
    basis = _certificate_basis(rank)
    _self_check(basis, basis, R3.order, F7.raw)


@pytest.mark.parametrize("rank", [1, 2])
def test_self_check_catches_a_missing_element(rank):
    truncated = _certificate_basis(rank)[1:]
    # the inputs are the basis itself, so only the S-vector half can fail
    with pytest.raises(AssertionError, match="S-vector self-check failed"):
        _self_check(truncated, truncated, R3.order, F7.raw)


@pytest.mark.parametrize("rank", [1, 2])
def test_self_check_catches_an_input_outside_the_span(rank):
    basis = _certificate_basis(rank)
    x_e0 = {(0, (1, 0, 0)): F7.raw.one}
    with pytest.raises(AssertionError, match="input does not reduce to zero"):
        _self_check(basis, basis + [x_e0], R3.order, F7.raw)


def test_self_check_uses_no_product_criterion_on_vectors():
    """The leads x*e0 and y*e0 are coprime, but the S-vector (0, y) of
    (x, 1) and (y, 0) is irreducible."""
    R = _plane(F7)
    x, y = R.variable("x"), R.variable("y")
    basis = [_raw_vector((x, R.one())), _raw_vector((y, R.zero()))]
    with pytest.raises(AssertionError, match="S-vector self-check failed"):
        _self_check(basis, basis, R.order, F7.raw)


def test_self_check_uses_only_the_strict_chain_criterion():
    """All three pairwise lcms of the leads xy, yz, xz are xyz, so each
    third lead divides the lcm but with no proper side lcm; the reduced
    basis of this ideal has six elements."""
    x, y, z = (R3.variable(v) for v in "xyz")
    gens = [x * y - z * z, y * z + x, x * z + y]
    assert len(buchberger(R3, gens).raws) == 6
    basis = [_raw_vector((g,)) for g in gens]
    with pytest.raises(AssertionError, match="S-vector self-check failed"):
        _self_check(basis, basis, R3.order, F7.raw)


@st.composite
def _f7_families(draw):
    """A rank and a list of raw vectors over F_7[x, y] of that rank."""
    rank = draw(st.integers(1, 2))
    term = st.tuples(st.integers(0, rank - 1), st.integers(0, 2),
                     st.integers(0, 2), st.integers(1, 6))
    raws = []
    for terms in draw(st.lists(st.lists(term, max_size=3), min_size=1, max_size=4)):
        raw = {}
        for p, a, b, c in terms:
            raw[(p, (a, b))] = (raw.get((p, (a, b)), 0) + c) % 7
        raws.append({k: F7.from_int(c).value for k, c in raw.items() if c})
    return rank, raws


@settings(max_examples=60, deadline=None)
@given(_f7_families())
def test_untracked_loop_matches_tracked_loop(family):
    """The untracked loop skips pairs by its criteria and the tracked loop
    skips none, so reducing the tracked basis must give the same basis."""
    rank, raws = family
    R = _plane(F7)
    basis, _ = _buchberger(R, raws, rank)
    tracked, _ = _buchberger(R, raws, rank, track=True)
    forms = [_reducer_form(v, R.order) for v in tracked]
    assert basis == _reduce_basis(forms, R.order, F7.raw)


def _divides_every_pair(basis, order, ops):
    """Reference certificate: True when the S-vector of every same-position
    pair reduces to zero, with no pair skipped."""
    forms = [_reducer_form(v, order) for v in basis]
    for fa, fb in itertools.combinations(forms, 2):
        if fa[0] == fb[0]:
            sv, _ = _s_vector(fa, fb, tuple(map(max, fa[1], fb[1])), ops)
            if _reduce(sv, forms, order, ops)[0]:
                return False
    return True


@settings(max_examples=60, deadline=None)
@given(_f7_families())
def test_self_check_agrees_with_dividing_every_pair(family):
    """The certificate's skips are theorems: it fails exactly when some
    same-position S-vector has a nonzero remainder. Checked on the nonzero
    vectors of the family and on its reduced basis."""
    rank, raws = family
    R = _plane(F7)
    basis, _ = _buchberger(R, raws, rank)
    for vecs in ([v for v in raws if v], basis):
        full = _divides_every_pair(vecs, R.order, F7.raw)
        try:
            _self_check(vecs, [], R.order, F7.raw)
        except AssertionError:
            assert not full
        else:
            assert full
