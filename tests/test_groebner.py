"""Buchberger, normal forms, standard monomials, dimension."""

import itertools
import math
from fractions import Fraction
from operator import le

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from mcalc.errors import SupportNotAtOrigin, UnitIdeal
from mcalc.fpmodules import FPModule, ModuleVector, module_gb
from mcalc import groebner
from mcalc.groebner import (GroebnerBasis, _basis, _buchberger, _layout, _pack, _raw_vector,
                            _reduce, _reduce_basis, _reducer_form, _s_vector,
                            _self_check, _unpack, buchberger, krull_dimension,
                            normal_form, read_hilbert_series, standard_monomials)
from mcalc.parsing import parse_polynomial
from mcalc.polyring import INFINITE, MonomialOrder, OrderKind, Polynomial, RingSpec
from mcalc.scalars import FieldSpec

Q = FieldSpec.rationals()
F2 = FieldSpec.prime_field(2)
F7 = FieldSpec.prime_field(7)
F5T = FieldSpec.rational_functions(5)


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


def _monomial_basis(ring, leads, rank):
    """The monomial vectors x^e * e_p for the (p, e) leads: a set of
    monomial vectors is its own Groebner basis."""
    return GroebnerBasis(ring, [{(p, e): ring.field.raw.one} for p, e in leads], rank)


@st.composite
def _lead_sets(draw):
    """(nvars, rank, leads): random monomial leads at ranks 1-3, with pure
    powers drawn on their own so finite quotients are common, unit leads
    included."""
    n, rank = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    position = st.integers(0, rank - 1)
    leads = draw(st.lists(st.tuples(position, st.tuples(*[st.integers(0, 4)] * n)),
                          max_size=6))
    for p, i, b in draw(st.lists(st.tuples(position, st.integers(0, n - 1), st.integers(1, 4)),
                                 max_size=3 * n)):
        leads.append((p, tuple(b if j == i else 0 for j in range(n))))
    return n, rank, leads


@settings(max_examples=300, deadline=None)
@given(_lead_sets())
def test_hilbert_series_counts_the_standard_terms(case):
    """The series N(t)/(1-t)^n, expanded to degree 12, counts the standard
    terms degree by degree; its pole order at t = 1 is the subset-search
    dimension and its value there the box count."""
    n, rank, leads = case
    gb = _monomial_basis(RingSpec(F7, tuple("xyzw"[:n])), leads, rank)
    count = oracles.box_standard_count(leads, rank, n)
    assert gb.length() == (INFINITE if count is None else count)
    assert gb.dimension() == oracles.subset_dimension(leads, rank, n)
    series = gb.hilbert_series()
    assert all(series.values())
    counts = [oracles.graded_standard_count(leads, rank, n, d) for d in range(13)]
    for d in range(13):
        expanded = sum(c * math.comb(d - k + n - 1, n - 1) for k, c in series.items() if k <= d)
        assert expanded == counts[d]
    sums = read_hilbert_series(series, n)[2]
    assert list(itertools.islice(sums, 13)) == [sum(counts[:k]) for k in range(1, 14)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_graded_series_counts_the_standard_terms_by_partial_degree(data):
    """`graded_series(g, c)`, expanded to degree 8, counts degree by degree
    in the first g variables the standard terms holding exactly one of the
    next c variables, to the first power (none of them for c = 0); pure
    powers below 4 of the other variables at every position keep each
    degree finite."""
    g, c, rest, rank = (data.draw(st.integers(lo, hi))
                        for lo, hi in ((1, 2), (0, 2), (1, 2), (1, 2)))
    n = g + c + rest
    leads = data.draw(st.lists(st.tuples(st.integers(0, rank - 1),
                                         st.tuples(*[st.integers(0, 3)] * n)), max_size=6))
    leads += [(p, tuple(data.draw(st.integers(1, 3)) if j == i else 0 for j in range(n)))
              for p in range(rank) for i in range(g + c, n)]
    gb = _monomial_basis(RingSpec(F7, tuple("xyzwuv"[:n])), leads, rank)
    series = gb.graded_series(g, c)
    assert all(series.values())
    for d in range(9):
        expanded = sum(k * math.comb(d - j + g - 1, g - 1) for j, k in series.items() if j <= d)
        assert expanded == oracles.partially_graded_standard_count(leads, rank, g, c, n, d, 4)


def test_is_graded_reads_every_vector():
    """Homogeneous vectors, e_p of degree 0, at ranks 1 and 2; one
    inhomogeneous vector among homogeneous ones; and the empty basis."""
    R = _plane()
    x, y = R.variable("x"), R.variable("y")
    assert buchberger(R, [x * x + x * y, y ** 3]).is_graded()
    assert module_gb(R, [ModuleVector((x, y)), ModuleVector((y * y, R.zero()))], 2).is_graded()
    assert not buchberger(R, [x * x + y, y ** 3]).is_graded()
    assert not module_gb(R, [ModuleVector((x, y * y))], 2).is_graded()
    assert buchberger(R, []).is_graded()


def test_plateau_ring_hilbert_series_frozen():
    """Q[x,y]/(x^2, x*y^4): the Hilbert function 1, 2, 2, 2, 2, 1, 1, ...
    has a plateau before it settles at 1."""
    R = _plane()
    x, y = R.variable("x"), R.variable("y")
    gb = buchberger(R, [x * x, x * y ** 4])
    series = gb.hilbert_series()
    assert series == {0: 1, 2: -1, 5: -1, 6: 1}
    assert [sum(c * (d - k + 1) for k, c in series.items() if k <= d) for d in range(9)] == [
        1, 2, 2, 2, 2, 1, 1, 1, 1]
    assert gb.dimension() == 1
    assert read_hilbert_series(series, 2)[:2] == (1, 1)


def test_hilbert_series_at_the_exponent_cap():
    """Pure powers just below the cap: the numerator (1 - t^N)^2 stays
    sparse, so dimension and length come at once."""
    R = _plane(F7)
    x, y = R.variable("x"), R.variable("y")
    gb = buchberger(R, [x ** (2 ** 31 - 1), y ** (2 ** 31 - 1)])
    top = 2 ** 31 - 1
    assert gb.hilbert_series() == {0: 1, top: -2, 2 * top: 1}
    assert (gb.dimension(), gb.length()) == (0, top ** 2)


def test_hilbert_series_of_a_long_staircase():
    """(x, y)^500 has 501 minimal generators; the pivots halve them, so the
    recursion stays shallow."""
    R = _plane(F7)
    gb = _monomial_basis(R, [(0, (i, 500 - i)) for i in range(501)], 1)
    assert (gb.dimension(), gb.length()) == (0, 500 * 501 // 2)


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
        lambda ms: sum((Polynomial.term(F2, 2, m, F2.raw.one) for m in ms),
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
    assert _raw_vector((normal_form(f, gb),)) == mgb.reduce(_raw_vector((f,)))
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


def _check(basis, inputs, ring, ops):
    """`_self_check` on raw vectors over ring."""
    layout = _layout(ring.order, ring.nvars)
    _self_check([_packed(layout, v) for v in basis], [_packed(layout, v) for v in inputs],
                layout, ops)


@pytest.mark.parametrize("rank", [1, 2])
def test_self_check_passes_the_basis(rank):
    basis = _certificate_basis(rank)
    _check(basis, basis, R3, F7.raw)


@pytest.mark.parametrize("rank", [1, 2])
def test_self_check_catches_a_missing_element(rank):
    truncated = _certificate_basis(rank)[1:]
    # the inputs are the basis itself, so only the S-vector half can fail
    with pytest.raises(AssertionError, match="S-vector self-check failed"):
        _check(truncated, truncated, R3, F7.raw)


@pytest.mark.parametrize("rank", [1, 2])
def test_self_check_catches_an_input_outside_the_span(rank):
    basis = _certificate_basis(rank)
    x_e0 = {(0, (1, 0, 0)): F7.raw.one}
    with pytest.raises(AssertionError, match="input does not reduce to zero"):
        _check(basis, basis + [x_e0], R3, F7.raw)


def test_self_check_uses_no_product_criterion_on_vectors():
    """The leads x*e0 and y*e0 are coprime, but the S-vector (0, y) of
    (x, 1) and (y, 0) is irreducible."""
    R = _plane(F7)
    x, y = R.variable("x"), R.variable("y")
    basis = [_raw_vector((x, R.one())), _raw_vector((y, R.zero()))]
    with pytest.raises(AssertionError, match="S-vector self-check failed"):
        _check(basis, basis, R, F7.raw)


def test_self_check_chain_criterion_needs_certified_sides():
    """All three pairwise lcms of the leads xy, yz, xz are xyz, so each
    third lead divides every lcm. The chain criterion may skip a pair only
    once both its side pairs are certified, so at most the last of the
    three is skipped; this is no basis (the reduced one has six elements),
    and dividing the first two finds it."""
    x, y, z = (R3.variable(v) for v in "xyz")
    gens = [x * y - z * z, y * z + x, x * z + y]
    assert len(buchberger(R3, gens).raws) == 6
    basis = [_raw_vector((g,)) for g in gens]
    with pytest.raises(AssertionError, match="S-vector self-check failed"):
        _check(basis, basis, R3, F7.raw)


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
        raws.append({k: c for k, c in raw.items() if c})
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
    layout = _layout(R.order, R.nvars)
    forms = [_reducer_form(v, layout, F7.raw) for v in tracked]
    assert basis == _reduce_basis(forms, layout, F7.raw)


def _packed(layout, raw):
    return {_pack(layout, p, e): c for (p, e), c in raw.items()}


def _divides_every_pair(basis, layout, ops):
    """Reference certificate: True when the S-vector of every same-position
    pair reduces to zero, with no pair skipped."""
    forms = [_reducer_form(v, layout, ops) for v in basis]
    for fa, fb in itertools.combinations(forms, 2):
        (pa, ea), (pb, eb) = _unpack(layout, fa[2]), _unpack(layout, fb[2])
        if pa == pb:
            lcm = _pack(layout, pa, tuple(map(max, ea, eb)))
            sv = _s_vector(fa, fb, lcm, ops, layout.guard)
            if _reduce(sv, forms, layout, ops):
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
    layout = _layout(R.order, R.nvars)
    for vecs in ([_packed(layout, v) for v in raws if v], basis):
        full = _divides_every_pair(vecs, layout, F7.raw)
        try:
            _self_check(vecs, [], layout, F7.raw)
        except AssertionError:
            assert not full
        else:
            assert full


@st.composite
def _interreduction_cases(draw):
    """A field, one of its two tables (over F_7 both are the field's own),
    a rank and random raw vectors of that rank over the plane."""
    field = draw(st.sampled_from([F7, Q, F5T]))
    ops = draw(st.sampled_from([field.raw, field.fraction_free]))
    rank = draw(st.integers(1, 2))
    term = st.tuples(st.integers(0, rank - 1), st.tuples(st.integers(0, 2), st.integers(0, 2)))
    coeff = _coefficients(field)
    raws = draw(st.lists(st.dictionaries(term, coeff, min_size=1, max_size=3),
                         min_size=1, max_size=3 if field is F5T else 5))
    return field, ops, rank, raws


@settings(max_examples=80, deadline=None)
@given(_interreduction_cases())
def test_one_pass_interreduction_matches_the_fixpoint(case):
    """One ascending pass reduces each element by the smaller leads only,
    and gives what passes to a fixpoint over all the others give: on the
    raw vectors themselves, no Groebner basis in general, and on the
    tracked loop's unreduced basis of them."""
    field, ops, rank, raws = case
    R = _plane(field)
    layout = _layout(R.order, R.nvars)
    tracked, _ = _buchberger(R, raws, rank, track=True)
    for vecs in ([_packed(layout, v) for v in raws], tracked):
        forms = [_reducer_form(ops.primitive(v), layout, ops) for v in vecs]
        assert _reduce_basis(forms, layout, ops) == oracles.fixpoint_interreduction(
            forms, layout, ops)


@st.composite
def _mixed_cases(draw):
    """A field, a rank, a quotient J (maybe empty) of the plane and raw
    vectors of that rank mixing single terms and polynomials. Over F_5(t)
    the exponents stay below 3 and there are at most three vectors (see
    `_coefficients`)."""
    field = draw(st.sampled_from([F7, Q, F5T]))
    rank = draw(st.integers(1, 2))
    coeff = _coefficients(field)
    top, most = (2, 3) if field is F5T else (3, 6)
    mono = st.tuples(st.integers(0, top), st.integers(0, top))
    term = st.tuples(st.integers(0, rank - 1), mono)
    raws = draw(st.lists(st.one_of(st.dictionaries(term, coeff, min_size=1, max_size=1),
                                   st.dictionaries(term, coeff, min_size=2, max_size=4)),
                         min_size=1, max_size=most))
    at_origin = mono.filter(any)
    quotient = draw(st.lists(st.dictionaries(at_origin, coeff, min_size=1, max_size=2),
                             max_size=2))
    ring = RingSpec(field, ("x", "y"), quotient=tuple(Polynomial(field, 2, q) for q in quotient))
    return ring, rank, raws


@settings(max_examples=80, deadline=None)
@given(_mixed_cases())
def test_pairs_never_queued_leave_the_basis_unchanged(case):
    """The untracked loop never queues a pair of two single terms nor a
    coprime pair of two flat vectors, every term at the lead's position;
    the tracked loop forms every pair. So `_basis`
    must equal the reduced basis of the tracked run of the same inputs, J
    folded in as `_basis` folds it."""
    ring, rank, raws = case
    gb = _basis(ring, raws, rank)
    inputs = raws + [{(p, e): c for e, c in q.terms.items()}
                     for q in ring.quotient for p in range(rank)]
    tracked, _ = _buchberger(ring, inputs, rank, track=True)
    layout = _layout(ring.order, ring.nvars)
    forms = [_reducer_form(v, layout, ring.field.raw) for v in tracked]
    assert [_packed(layout, v) for v in gb.raws] == _reduce_basis(forms, layout, ring.field.raw)


def _monomials_and_fermat(rank):
    """The degree-6 monomials of F_7[x, y, z] at every position and x^3 +
    y^3 + z^3 at position 0; at rank 2 also (x^3 + y^3 + z^3) e_1 and a
    vector whose tail reaches position 1."""
    ring = RingSpec(F7, ("x", "y", "z"))
    one = F7.raw.one
    raws = [{(p, e): one} for p in range(rank)
            for e in itertools.product(range(7), repeat=3) if sum(e) == 6]
    fermat = {(0, (3, 0, 0)): one, (0, (0, 3, 0)): one, (0, (0, 0, 3)): one}
    raws.append(fermat)
    if rank == 2:
        raws.append({(1, e): c for (_, e), c in fermat.items()})
        raws.append({**fermat, (1, (1, 1, 1)): one})
    return ring, raws


def _trivial_signatures(loop, layout):
    """(T, index of the later element, whether either has a tail) for each
    pair of the signed loop forms loop that the loop does not queue: two
    single terms, or coprime leads; T is the pair's signature."""
    shift = layout.pos_shift
    leads = [_unpack(layout, f[2])[1] for f in loop]
    for a, b in itertools.combinations(range(len(loop)), 2):
        fa, fb = loop[a], loop[b]
        if (fa[5][0] or fb[5][0]) and any(map(min, leads[a], leads[b])):
            continue
        key = _pack(layout, 0, tuple(map(max, leads[a], leads[b])))
        sa, sb = fa[6] + key - fa[2], fb[6] + key - fb[2]
        if fa[6] >> shift != fb[6] >> shift:
            yield sb, b, bool(fa[5][0] or fb[5][0])
        elif sa != sb:
            yield min(sa, sb), b, bool(fa[5][0] or fb[5][0])


@pytest.mark.parametrize("rank", [1, 2])
def test_loop_queues_no_trivial_pair(rank, monkeypatch):
    """Every pair the untracked loop pushes on its heap has an element with a
    tail and, when both are flat (every term at the lead's position, so at
    rank 1 always), leads that are not coprime: the loop's elements are the
    first reducer forms built in a `_buchberger` call, in index order, and
    a queued pair carries its index pair (a, b) after its key, the one int
    -T, at every rank (an input carries -1 there). At rank 1 the
    signature T of every such pair is recorded as a syzygy's instead: no
    input or S-vector reduced once both elements exist has a signature T
    divides. The signatures are the seventh entries of the loop's forms,
    which reach `_reduce` with a signature bound. The second rank-1 case
    reduces one more S-vector, of such a signature, when T is not
    recorded."""
    forms, pairs, bounds, signed = [], [], [], []
    real_form, real_heapq, real_reduce = groebner._reducer_form, groebner.heapq, groebner._reduce

    def recorded(*args):
        forms.append(real_form(*args))
        return forms[-1]

    def reduce(work, loop_forms, layout, ops, bound=None):
        if bound is not None:
            signed[:] = [loop_forms]
            bounds.append((bound, len(loop_forms)))
        return real_reduce(work, loop_forms, layout, ops, bound)

    class Heap:
        heappop, heapify = real_heapq.heappop, real_heapq.heapify

        @staticmethod
        def heappush(heap, item):
            if type(item) is tuple:  # an input or a pair, not a division key
                pair = item[1:3]
                if pair[0] >= 0:
                    pairs.append(pair)
            real_heapq.heappush(heap, item)

    monkeypatch.setattr(groebner, "_reducer_form", recorded)
    monkeypatch.setattr(groebner, "_reduce", reduce)
    monkeypatch.setattr(groebner, "heapq", Heap)
    cases = [_monomials_and_fermat(rank)]
    if rank == 1:
        one = F7.raw.one
        cases.append((R3, [{(0, (2, 2, 3)): one}, {(0, (1, 3, 2)): one, (0, (1, 3, 0)): one}]))
    for ring, raws in cases:
        forms.clear(), pairs.clear(), bounds.clear()
        _buchberger(ring, raws, rank)
        layout = _layout(ring.order, ring.nvars)
        leads = [_unpack(layout, f[2]) for f in forms]
        flat = [all(t >> layout.pos_shift == p for t, _ in f[5][0])
                for f, (p, _) in zip(forms, leads)]
        assert pairs
        for a, b in pairs:
            assert leads[a][0] == leads[b][0]
            assert forms[a][5][0] or forms[b][5][0]
            if flat[a] and flat[b]:
                assert any(map(min, leads[a][1], leads[b][1]))
        if rank == 1:
            checked = set()
            for t, b, tailed in _trivial_signatures(signed[0], layout):
                for bound, known in bounds:
                    if known > b and bound >> layout.pos_shift == t >> layout.pos_shift:
                        assert (bound + layout.offset - t) & layout.guard != layout.target
                        checked.add(tailed)
            assert checked


# -- the rank-1 loop is signature-based -------------------------------------------

F32003 = FieldSpec.prime_field(32003)
_ONE = Q.raw.one

_KATSURA_3 = (("x0", "x1", "x2", "x3"),
              ["x0 + 2*x1 + 2*x2 + 2*x3 - 1",
               "x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 - x0",
               "2*x0*x1 + 2*x1*x2 + 2*x2*x3 - x1",
               "2*x0*x2 + x1^2 + 2*x1*x3 - x2"])
_CYCLIC_4 = (("a", "b", "c", "d"),
             ["a + b + c + d", "a*b + b*c + c*d + d*a", "a*b*c + b*c*d + c*d*a + d*a*b",
              "a*b*c*d - 1"])


def _system(field, system):
    """(ring, raw vectors) of a named system over field."""
    names, texts = system
    ring = RingSpec(field, names)
    return ring, [_raw_vector((parse_polynomial(ring, t),)) for t in texts]


@pytest.mark.parametrize("system", [_CYCLIC_4, _KATSURA_3], ids=["cyclic-4", "katsura-3"])
def test_loop_reduces_at_most_one_s_vector_to_zero(system, monkeypatch):
    """The syzygy and rewrite criteria skip almost every pair whose
    S-vector reduces to zero: over F_32003 cyclic-4 and katsura-3 reduce
    at most one each to zero in the loop, and at most four S-vectors in
    all (the lcm-ordered loop reduced 11 and 10, five each to zero; with
    no rewrite criterion cyclic-4 reduces six). The S-vectors are the
    dicts `_s_vector` returns, and a loop reduction carries a signature
    bound; the certificate's carry none."""
    made, zero = set(), []
    real_s_vector, real_reduce = groebner._s_vector, groebner._reduce

    def s_vector(*args):
        v = real_s_vector(*args)
        made.add(id(v))
        return v

    def reduce(work, forms, layout, ops, bound=None):
        loop_s_vector = bound is not None and id(work) in made
        r = real_reduce(work, forms, layout, ops, bound)
        if loop_s_vector:
            zero.append(r == {})
        return r

    monkeypatch.setattr(groebner, "_s_vector", s_vector)
    monkeypatch.setattr(groebner, "_reduce", reduce)
    ring, raws = _system(F32003, system)
    _basis(ring, raws, 1)
    assert zero and sum(zero) <= 1 and len(zero) <= 4


@st.composite
def _rank_one_cases(draw):
    """A field, a quotient J (maybe empty) of the plane, and polynomial
    inputs as raw vectors: zero, single-term and repeated ones among them,
    and now and then 1, for the unit ideal. Over F_5(t) the exponents stay
    below 3 and there are at most three inputs (see `_coefficients`)."""
    field = draw(st.sampled_from([F7, Q, F5T]))
    coeff = _coefficients(field)
    top, most = (2, 3) if field is F5T else (3, 5)
    mono = st.tuples(st.integers(0, top), st.integers(0, top))
    term = st.tuples(st.just(0), mono)
    raws = draw(st.lists(st.one_of(st.just({}), st.dictionaries(term, coeff, min_size=1, max_size=1),
                                   st.dictionaries(term, coeff, min_size=2, max_size=4)),
                         min_size=1, max_size=most))
    raws += draw(st.lists(st.sampled_from(raws), max_size=1))
    if draw(st.integers(0, 9)) == 0:
        raws.append({(0, (0, 0)): field.raw.one})
    quotient = draw(st.lists(st.dictionaries(mono.filter(any), coeff, min_size=1, max_size=2),
                             max_size=2))
    ring = RingSpec(field, ("x", "y"), quotient=tuple(Polynomial(field, 2, q) for q in quotient))
    return ring, raws


@settings(max_examples=80, deadline=None)
@given(_rank_one_cases())
@example(_system(F5T, (_KATSURA_3[0], [_KATSURA_3[1][0].replace("- 1", "- t")]
                       + _KATSURA_3[1][1:])))
@example(_system(Q, _CYCLIC_4))
@example((RingSpec(Q, ("x", "y"), quotient=(Polynomial(Q, 2, {(0, 2): _ONE, (0, 3): _ONE}),)),
          [{(0, (0, 0)): _ONE, (0, (2, 0)): _ONE, (0, (3, 0)): _ONE},
           {(0, (0, 0)): _ONE, (0, (3, 2)): _ONE}]))
def test_rank_one_basis_matches_the_lcm_ordered_oracle(case):
    """The signature-based loop and the lcm-ordered loop it replaced
    (`oracles.lcm_ordered_basis`) give the same reduced basis: the reduced
    basis is unique, so no criterion may lose an element. The last example
    is the unit ideal; dropping its one singular top-reducible remainder,
    at the signature x*y e_2, lost the 1 that a later pair makes."""
    ring, raws = case
    assert list(_basis(ring, raws, 1).raws) == oracles.lcm_ordered_basis(ring, raws)


@st.composite
def _module_cases(draw):
    """(ring, raws, rank): a rank from 2 to 5, F_7 or Q, a quotient J (maybe
    empty) of the plane, and raw vectors of that rank, zero, single-term
    and repeated ones among them. Exponents stay below 3 and there are at
    most four vectors of at most three terms: the lcm-ordered oracle lets
    coefficients over Q swell, and on larger draws it took seconds."""
    field = draw(st.sampled_from([F7, Q]))
    rank = draw(st.integers(2, 5))
    coeff = _coefficients(field)
    mono = st.tuples(st.integers(0, 2), st.integers(0, 2))
    term = st.tuples(st.integers(0, rank - 1), mono)
    raws = draw(st.lists(st.one_of(st.just({}), st.dictionaries(term, coeff, min_size=1, max_size=1),
                                   st.dictionaries(term, coeff, min_size=2, max_size=3)),
                         min_size=1, max_size=4))
    raws += draw(st.lists(st.sampled_from(raws), max_size=1))
    quotient = draw(st.lists(st.dictionaries(mono.filter(any), coeff, min_size=1, max_size=2),
                             max_size=1))
    ring = RingSpec(field, ("x", "y"), quotient=tuple(Polynomial(field, 2, q) for q in quotient))
    return ring, raws, rank


@settings(max_examples=60, deadline=None)
@given(_module_cases())
def test_module_basis_matches_the_lcm_ordered_oracle(case):
    """The signature-based loop at rank > 1 and the lcm-ordered loop it
    replaced (`oracles.lcm_ordered_basis`) give the same reduced basis: the
    order of the pairs may change the work, never the unique reduced
    basis."""
    ring, raws, rank = case
    assert list(_basis(ring, raws, rank).raws) == oracles.lcm_ordered_basis(ring, raws, rank)


# eight vectors of Q[x, y]^5 from a subquotient's elimination: terms
# (position, exponents, coefficient)
_SWELLING_INPUTS = (
    ((1, (0, 2), 1), (1, (1, 0), -1), (4, (0, 0), 1)),
    ((1, (1, 2), 1), (1, (2, 0), -2), (1, (0, 1), -1)),
    ((0, (0, 0), 1), (1, (1, 0), 2), (1, (0, 1), -1), (2, (0, 0), 1)),
    ((0, (0, 2), 1), (0, (1, 0), -1), (1, (0, 0), 1)),
    ((0, (1, 1), 1), (1, (1, 0), 1), (1, (0, 0), -1), (3, (0, 0), 1)),
    ((0, (2, 0), 1), (0, (0, 1), 1), (1, (1, 0), 1)),
    ((0, (2, 0), -2), (0, (2, 1), 1), (0, (1, 2), 2), (0, (0, 3), -1), (0, (3, 0), 1),
     (0, (1, 1), 1), (1, (3, 0), 1), (1, (2, 1), -4), (1, (1, 1), 1), (1, (0, 2), -2),
     (1, (2, 0), 2), (1, (0, 0), 1), (1, (2, 2), 1), (1, (0, 3), 1), (1, (3, 2), 1),
     (1, (4, 0), -2), (1, (1, 3), 1), (1, (0, 1), -1), (1, (1, 0), -1)),
    ((0, (1, 0), 2), (0, (0, 0), -1), (0, (1, 1), 1), (0, (1, 2), 1), (0, (2, 0), -1),
     (0, (4, 0), 1), (0, (2, 1), 2), (1, (2, 0), 3), (1, (1, 1), -1), (1, (0, 1), 2),
     (1, (0, 0), -2), (1, (0, 2), -1), (1, (2, 2), 1), (1, (3, 0), -1), (1, (1, 0), 1)))


def test_signature_order_keeps_module_coefficients_small(monkeypatch):
    """On `_SWELLING_INPUTS` the lcm order reduced 143 S-vectors in the
    loop, and its remainders reached coefficients of 20826 bits: a pair of
    small lcm came from elements of high degree. The sugar order that
    followed reduced 64, with coefficients of up to 39 bits. Under the
    signature order the loop reduces 42, none with a coefficient past 13
    bits. The loop's reductions are the `_reduce` calls before
    `_reduce_basis`."""
    bits, looping = [], [True]
    real_reduce, real_reduce_basis = groebner._reduce, groebner._reduce_basis

    def reduce(work, forms, layout, ops, bound=None):
        r = real_reduce(work, forms, layout, ops, bound)
        if looping[0]:
            bits.append(max((abs(c).bit_length() for c in r.values()), default=0))
        return r

    def reduce_basis(*args):
        looping[0] = False
        return real_reduce_basis(*args)

    monkeypatch.setattr(groebner, "_reduce", reduce)
    monkeypatch.setattr(groebner, "_reduce_basis", reduce_basis)
    raws = [{(p, e): Fraction(c) for p, e, c in v} for v in _SWELLING_INPUTS]
    gb = _basis(_plane(), raws, 5)
    assert len(gb.raws) == 5
    assert len(bits) <= 50
    assert max(bits) <= 16


@pytest.mark.parametrize("raws, basis", [
    ([{(0, (1, 0)): 1, (1, (0, 0)): 1}, {(0, (0, 1)): 1}],
     [{(1, (0, 1)): 1}, {(0, (0, 1)): 1}, {(0, (1, 0)): 1, (1, (0, 0)): 1}]),
    ([{(0, (1, 1)): 1, (1, (1, 1)): 1}, {(0, (0, 2)): 1, (0, (0, 0)): 2}],
     [{(1, (1, 3)): 1, (1, (1, 1)): 2}, {(0, (1, 0)): 1, (1, (1, 2)): 3},
      {(0, (0, 2)): 1, (0, (0, 0)): 2}]),
], ids=["coprime", "lead"])
def test_rank_one_criteria_skip_needed_pairs_of_vectors(raws, basis):
    """Over F_7[x, y] at rank 2 the rank-1 principal syzygies are not
    there, and either criterion that reads them would skip a needed pair.
    (x, 1) and (y, 0) have coprime leads, and their S-vector (0, y) is a
    new element. Of y^2 + 2 and (x*y, x*y), input 1, the S-vector (x,
    3*x*y^2) has signature y e_1, and its pair with (x*y, x*y) the
    signature y^2 e_1. Recording lead(y^2 + 2) e_1 = y^2 e_1 as a syzygy
    signature, as F5's criterion does at rank 1, skips that pair, whose
    S-vector reduces to the needed (0, x*y^3 + 2*x*y). Applied at rank 2,
    each criterion made `_self_check` raise on its case."""
    ring = _plane(F7)
    assert list(_basis(ring, raws, 2).raws) == basis
    assert basis == oracles.lcm_ordered_basis(ring, raws, 2)


# -- over Q the untracked loop runs on primitive integer vectors ------------------

def _rationals():
    """Nonzero rationals of either sign, denominators 2, 3, 7 and 11."""
    return st.builds(Fraction, st.integers(-999, 999).filter(bool), st.sampled_from([2, 3, 7, 11]))


def _rational_polys(nvars):
    mono = st.tuples(*(st.integers(0, 2) for _ in range(nvars)))
    return st.dictionaries(mono, _rationals(), min_size=1, max_size=3).map(
        lambda terms: Polynomial(Q, nvars, terms))


def _constant(ring, c):
    return Polynomial(ring.field, ring.nvars, {(0,) * ring.nvars: c})


_RATIONAL_PROBLEMS = st.lists(st.tuples(_rational_polys(2), _rationals()), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([MonomialOrder.grevlex(), MonomialOrder.lex()]), _RATIONAL_PROBLEMS)
def test_rational_bases_match_the_field_path(order, problem):
    """The fraction-free basis is the reduced basis over Q: it equals the
    reduced tracked basis, which runs on Fractions, and scaling the
    generators by nonzero rationals changes no byte of it."""
    R = _plane(Q, order)
    gens = [f for f, _ in problem]
    gb = buchberger(R, gens)
    assert all(type(c) is Fraction for v in gb.raws for c in v.values())
    tracked, _ = _buchberger(R, [_raw_vector((f,)) for f in gens], 1, track=True)
    layout = _layout(R.order, R.nvars)
    forms = [_reducer_form(v, layout, Q.raw) for v in tracked]
    assert [_packed(layout, v) for v in gb.raws] == _reduce_basis(forms, layout, Q.raw)
    scaled = buchberger(R, [f * _constant(R, c) for f, c in problem])
    assert repr(scaled.raws) == repr(gb.raws)


@settings(max_examples=40, deadline=None)
@given(_RATIONAL_PROBLEMS)
def test_rational_bases_agree_with_the_membership_oracle(problem):
    """The oracle puts every basis element in the ideal of the generators
    and every generator in the ideal of the basis. The order is grevlex: a
    basis under a degree order represents each generator f with cofactors
    of degree at most deg f <= 4, inside the oracle's default cap; the
    other direction has no such bound, and cap 6 has sufficed on these
    sizes (lex bases of two quadrics can need more)."""
    R = _plane(Q)
    gens = [f for f, _ in problem]
    gb = buchberger(R, gens)
    in_ideal = oracles.membership_oracle(R, gens, cofactor_cap=6)
    assert all(in_ideal(g) for g in gb.generators)
    in_span = oracles.membership_oracle(R, gb.generators)
    assert all(in_span(f) for f in gens)


def test_fractional_inputs_with_negative_leads():
    R = _plane()
    x, y = R.variable("x"), R.variable("y")
    gens = [x * x * _constant(R, Fraction(-1, 2)) + y * _constant(R, Fraction(1, 3)),
            x * y * _constant(R, Fraction(-2, 7))]
    gb = buchberger(R, gens)
    assert [R.poly_to_str(g) for g in gb.generators] == ["y^2", "x*y", "x^2 - (2/3)*y"]
    assert gb.raws[2] == {(0, (2, 0)): Fraction(1), (0, (0, 1)): Fraction(-2, 3)}


def _scaled_cyclic4():
    """Reduced basis over Q of cyclic-4 under a -> 2a, b -> 3b, c -> 5c, and
    the generators as raw vectors: the primitive forms of the basis have
    the leads 2, 9, 75, 15, 3, 125 and 25, so pseudo-division scales."""
    R = RingSpec(Q, ("a", "b", "c", "d"))
    texts = ["2*a + 3*b + 5*c + d", "6*a*b + 15*b*c + 5*c*d + 2*d*a",
             "30*a*b*c + 15*b*c*d + 10*c*d*a + 6*d*a*b", "30*a*b*c*d - 1"]
    gens = [parse_polynomial(R, t) for t in texts]
    return R, list(buchberger(R, gens).raws), [_raw_vector((g,)) for g in gens]


def test_integer_self_check_passes_the_basis():
    R, basis, gens = _scaled_cyclic4()
    _check(basis, gens, R, Q.fraction_free)


def test_integer_self_check_catches_a_missing_element():
    R, basis, _ = _scaled_cyclic4()
    truncated = basis[:1] + basis[2:]
    with pytest.raises(AssertionError, match="S-vector self-check failed"):
        _check(truncated, truncated, R, Q.fraction_free)


def test_integer_self_check_catches_an_input_outside_the_span():
    R, basis, gens = _scaled_cyclic4()
    half_b = {(0, (0, 1, 0, 0)): Fraction(1, 2)}
    with pytest.raises(AssertionError, match="input does not reduce to zero"):
        _check(basis, gens + [half_b], R, Q.fraction_free)


# -- over F_p(t) the untracked loop runs on primitive vectors over F_p[t] ----------

def _t_value(coeffs):
    """The F_5(t) value of sum c_i t^i."""
    ops, out = F5T.raw, F5T.raw.zero
    for c in reversed(coeffs):
        out = ops.sub(ops.mul(out, F5T.t()), F5T.from_int(-c))
    return out


def _function_field_scalars():
    """Nonzero a/b in F_5(t), a and b of degree at most 1 in t: the tracked
    loop's fractions grow fast enough with these."""
    poly = st.lists(st.integers(0, 4), min_size=1, max_size=2).filter(any).map(_t_value)
    return st.builds(F5T.raw.div, poly, poly)


def _coefficients(field):
    """Nonzero raw values of F_7, Q or F_5(t), the last from a short list:
    the tracked loop over F_5(t), which the strategies that draw these
    take as the reference, forms every pair and swells its fractions, and
    on random fractions of degree 1 it took over ten seconds on one draw
    in about three hundred of three vectors."""
    if field is F7:
        return st.integers(1, 6)
    if field is Q:
        return _rationals()
    return st.sampled_from([_t_value(cs) for cs in ([1], [2], [0, 1], [1, 1])]
                           + [F5T.raw.div(F5T.from_int(c), _t_value(cs))
                              for c, cs in ((1, [0, 1]), (3, [1, 1]))])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([MonomialOrder.grevlex(), MonomialOrder.lex()]),
       st.lists(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                                _function_field_scalars(), min_size=1, max_size=3),
                min_size=1, max_size=3))
def test_function_field_bases_match_the_field_path(order, problem):
    """The basis computed over F_5[t] is the reduced basis over F_5(t): it
    equals the reduced tracked basis, which runs on fractions of
    polynomials, and scaling the generators by t + 1 or 1/(t^2 + 1) changes
    no byte of it."""
    R = _plane(F5T, order)
    gens = [Polynomial(F5T, 2, terms) for terms in problem]
    gb = buchberger(R, gens)
    assert all(type(c[0]) is tuple for v in gb.raws for c in v.values())
    tracked, _ = _buchberger(R, [_raw_vector((f,)) for f in gens], 1, track=True)
    layout = _layout(R.order, R.nvars)
    forms = [_reducer_form(v, layout, F5T.raw) for v in tracked]
    assert [_packed(layout, v) for v in gb.raws] == _reduce_basis(forms, layout, F5T.raw)
    for c in (_t_value([1, 1]), F5T.raw.div(F5T.raw.one, _t_value([1, 0, 1]))):
        scaled = buchberger(R, [f * _constant(R, c) for f in gens])
        assert repr(scaled.raws) == repr(gb.raws)


def _scaled_katsura3_t():
    """Reduced basis over F_5(t) of katsura-3 with last constant t, under
    x1 -> (t + 1) x1 and x2 -> x2 / t, and the generators as raw vectors:
    the primitive forms of the basis have the leads t, 1, t + 1,
    t^3 + 2t^2 + t, 1, t^2 + t and t, so pseudo-division scales by
    polynomials of positive degree."""
    R = RingSpec(F5T, ("x0", "x1", "x2", "x3"))
    texts = ["x0 + 2*x1 + 2*x2 + 2*x3 - t", "x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 - x0",
             "2*x0*x1 + 2*x1*x2 + 2*x2*x3 - x1", "2*x0*x2 + x1^2 + 2*x1*x3 - x2"]
    gens = [parse_polynomial(R, t.replace("x1", "((t+1)*x1)").replace("x2", "(x2/t)"))
            for t in texts]
    return R, list(buchberger(R, gens).raws), [_raw_vector((g,)) for g in gens]


def test_polynomial_self_check_passes_the_basis():
    R, basis, gens = _scaled_katsura3_t()
    _check(basis, gens, R, F5T.fraction_free)


def test_polynomial_self_check_catches_a_missing_element():
    R, basis, _ = _scaled_katsura3_t()
    truncated = basis[:1] + basis[2:]
    with pytest.raises(AssertionError, match="S-vector self-check failed"):
        _check(truncated, truncated, R, F5T.fraction_free)


def test_polynomial_self_check_catches_an_input_outside_the_span():
    R, basis, gens = _scaled_katsura3_t()
    x1_over_t = {(0, (0, 1, 0, 0)): F5T.raw.div(F5T.raw.one, F5T.t())}
    with pytest.raises(AssertionError, match="input does not reduce to zero"):
        _check(basis, gens + [x1_over_t], R, F5T.fraction_free)


def test_normal_form_over_q_is_exact():
    """Remainders and witnesses over Q come from the field's own table, not
    the integer one, whose remainder would be the primitive 4y + 9."""
    R = _plane()
    x, y = R.variable("x"), R.variable("y")
    gb = buchberger(R, [x * _constant(R, Fraction(2)) - _constant(R, Fraction(3)), y * y])
    r, witness = normal_form(x * x + y, gb, with_witness=True)
    assert r.terms == {(0, 1): Fraction(1), (0, 0): Fraction(9, 4)}
    assert all(type(c) is Fraction for c in r.terms.values())
    assert witness == [x + _constant(R, Fraction(3, 2)), Polynomial.zero(Q, 2)]
    assert gb.reduce({(0, (2, 0)): Fraction(1)}) == {(0, (0, 0)): Fraction(9, 4)}


# -- packed keys ------------------------------------------------------------------

_CAP = 2 ** 31


def _exponent():
    return st.one_of(st.integers(0, 3), st.integers(0, _CAP - 1), st.just(_CAP - 1))


@st.composite
def _packed_cases(draw):
    """An order on 1..5 variables (grevlex, lex, every block split), two
    terms with exponents below 2^31 and positions below 3, and an exponent
    shift that keeps the first term below the cap; the second term is a
    multiple of the first half of the time."""
    n = draw(st.integers(1, 5))
    order = draw(st.sampled_from([MonomialOrder.grevlex(), MonomialOrder.lex()]
                                 + [MonomialOrder.block(s) for s in range(1, n)]))
    a = (draw(st.integers(0, 2)), tuple(draw(_exponent()) for _ in range(n)))
    s = tuple(draw(st.integers(0, _CAP - 1 - x)) for x in a[1])
    if draw(st.booleans()):
        b = (draw(st.integers(0, 2)), tuple(draw(_exponent()) for _ in range(n)))
    else:
        b = (a[0], tuple(map(min, (x + y for x, y in zip(a[1], s)), (_CAP - 1,) * n)))
    return order, n, a, b, s


@settings(max_examples=300, deadline=None)
@given(_packed_cases())
def test_packed_keys_match_the_tuple_keys(case):
    """Ascending packed keys are the descending position-over-term order,
    earlier positions first and, at one position, larger `MonomialOrder.key`
    first; unpacking inverts packing; the guard test on the lead's form is
    divisibility at one position; keys are additive."""
    order, n, (pa, ea), (pb, eb), s = case
    layout = _layout(order, n)
    ka, kb = _pack(layout, pa, ea), _pack(layout, pb, eb)
    assert (ka < kb) == (pa < pb or pa == pb and order.key(ea) > order.key(eb))
    assert (ka == kb) == ((pa, ea) == (pb, eb))
    assert _unpack(layout, ka) == (pa, ea) and _unpack(layout, kb) == (pb, eb)
    form = _reducer_form({ka: 1}, layout, F7.raw)
    kb_there = _pack(layout, pa, eb)
    assert ((kb_there + form[1]) & layout.guard == layout.target) == all(map(le, ea, eb))
    shifted = tuple(x + y for x, y in zip(ea, s))
    assert _pack(layout, pa, shifted) == ka + _pack(layout, 0, s) - _pack(layout, 0, (0,) * n)


# -- a held basis seeds the loop ---------------------------------------------------

def _holds_j(gb):
    """True when every q * e_p, q in J and p a position of gb, reduces to
    zero: gb holds J*R^rank."""
    return not any(gb.reduce({(p, e): c for e, c in q.terms.items()})
                   for q in gb.ring.quotient for p in range(gb.rank))


@st.composite
def _seeded_cases(draw):
    """(ring, known, new, rank): over F_7 or Q on the plane modulo a
    quotient J (maybe empty), a held basis known of rank 1 to 3 that
    `_basis`, `_copies` or `_block` made, and new raw vectors at a rank from
    known.rank to 3. Exponents stay below 3, and there are at most three
    vectors of at most three terms per basis."""
    field = draw(st.sampled_from([F7, Q]))
    coeff = _coefficients(field)
    mono = st.tuples(st.integers(0, 2), st.integers(0, 2))
    quotient = draw(st.lists(st.dictionaries(mono.filter(any), coeff, min_size=1, max_size=2),
                             max_size=1))
    ring = RingSpec(field, ("x", "y"), quotient=tuple(Polynomial(field, 2, q) for q in quotient))

    def vectors(rank):
        term = st.tuples(st.integers(0, rank - 1), mono)
        return draw(st.lists(st.dictionaries(term, coeff, min_size=1, max_size=3), max_size=3))

    size = draw(st.integers(1, 3))
    route = draw(st.sampled_from(["basis", "copies", "block"]))
    if route == "basis":
        known = _basis(ring, vectors(size), size)
    elif route == "copies":
        g = draw(st.sampled_from([d for d in (1, 2, 3) if size % d == 0]))
        known = _basis(ring, vectors(g), g)._copies(size // g)
    else:
        start = draw(st.integers(1, 2))
        known = _basis(ring, vectors(size + start), size + start)._block(start)
    rank = draw(st.integers(size, 3))
    return ring, known, vectors(rank), rank


def _pinned_function_field_case():
    """Over F_5(t)[x, y] modulo (x^2 - t*y): a rank-2 basis of two vectors
    with coefficients in t, extended at rank 3 by two vectors."""
    ops, one, t = F5T.raw, F5T.raw.one, _t_value([0, 1])
    ring = RingSpec(F5T, ("x", "y"), quotient=(
        Polynomial(F5T, 2, {(2, 0): one, (0, 1): ops.sub(ops.zero, t)}),))
    known = _basis(ring, [{(0, (1, 0)): t, (1, (0, 1)): one},
                          {(0, (0, 2)): one, (1, (1, 1)): _t_value([1, 1])}], 2)
    new = [{(0, (1, 1)): one, (2, (0, 0)): t}, {(1, (2, 0)): _t_value([2]), (2, (0, 1)): one}]
    return ring, known, new, 3


@settings(max_examples=80, deadline=None)
@given(_seeded_cases())
@example(_pinned_function_field_case())
def test_seeding_changes_no_basis(case):
    """Seeding with a held basis gives the basis of its vectors passed as
    plain inputs: the reduced basis is unique, so skipping the seeds' own
    pairs and J below known.rank may change the work, never the basis."""
    ring, known, new, rank = case
    assert _basis(ring, new, rank, known).raws == _basis(ring, [*known.raws, *new], rank).raws


@settings(max_examples=40, deadline=None)
@given(_seeded_cases())
def test_every_basis_route_holds_j_at_every_position(case):
    """Seeding skips J*e_p below known.rank and trusts known to hold it, and
    `_self_check` only checks that the inputs lie in the result, so it
    cannot see a generator missing from them. So every `GroebnerBasis`
    route, `_basis`, `_copies` and `_block`, seeded or not, holds J*R^rank:
    each q * e_p reduces to zero."""
    ring, known, new, rank = case
    assert _holds_j(known)
    assert _holds_j(_basis(ring, new, rank, known))


def test_a_known_basis_without_j_passes_the_certificate():
    """Why the routes must hold J: a hand-built known that lacks J*e_0 gives
    a seeded basis that lacks it too, and the certificate passes."""
    ring = RingSpec(F7, ("x", "y"), quotient=(Polynomial(F7, 2, {(2, 0): F7.raw.one}),))
    gb = _basis(ring, [], 2, GroebnerBasis(ring, [], 1))
    assert gb.raws == ({(1, (2, 0)): F7.raw.one},) and not _holds_j(gb)


def test_seeds_enter_only_untracked_runs_above_rank_one():
    ring, seed = _plane(F7), {(0, (1, 0)): F7.raw.one}
    for rank, track in ((2, True), (1, False), (1, True)):
        with pytest.raises(AssertionError, match="seeds enter only"):
            _buchberger(ring, [], rank, track=track, seeds=[seed])


@pytest.mark.parametrize("route", ["basis", "copies"])
def test_a_held_basis_alone_forms_no_s_vector(route, monkeypatch):
    """A rank > 1 call with a held basis and no new vectors queues no pair,
    as seeds are never paired with each other, so the loop forms no
    S-vector, and the basis is known's. Passed as plain inputs, the same
    vectors form S-vectors again. The loop's S-vectors are those
    `_s_vector` builds before `_reduce_basis` runs; the certificate's come
    after."""
    ring, raws = _monomials_and_fermat(2)
    known = _basis(ring, raws, 2)
    if route == "copies":
        known = known._copies(3)
    real_s_vector, real_reduce_basis = groebner._s_vector, groebner._reduce_basis

    def loop_s_vectors(*args):
        """(raws, loop S-vectors) of `_basis(*args)`."""
        made, looping = [], [True]

        def s_vector(*args):
            made.append(looping[0])
            return real_s_vector(*args)

        def reduce_basis(*args):
            looping[0] = False
            return real_reduce_basis(*args)

        monkeypatch.setattr(groebner, "_s_vector", s_vector)
        monkeypatch.setattr(groebner, "_reduce_basis", reduce_basis)
        return _basis(*args).raws, sum(made)

    assert loop_s_vectors(ring, [], known.rank, known) == (known.raws, 0)
    assert loop_s_vectors(ring, known.raws, known.rank)[1] > 0
