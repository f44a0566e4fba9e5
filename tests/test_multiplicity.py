"""Hilbert-Samuel multiplicities, identity checks, parameter search."""

import itertools
import json
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from mcalc import fpmodules, groebner
from mcalc.errors import (EngineError, HypothesisFails, InfiniteHomology, NoStabilization,
                          NotDimensionOne, NotFiniteColength, NotParameter,
                          SupportNotAtOrigin)
from mcalc.fpmodules import FPModule, ModuleVector
from mcalc.koszul import VirtualModule, koszul_homology, phi_apply
from mcalc.multiplicity import (REFUTED, VERIFIED, Report, _random_candidate,
                                _validate_candidate, evaluate_multiplicity,
                                homology_lengths, multiplicity, multiplicity_data,
                                ord_check, parameter_colength, search_parameters,
                                serre_alternating_sum, verify_factorization,
                                verify_serre, verify_serre2, verify_vanish)
from mcalc.parsing import parse_polynomial
from mcalc.polyring import INFINITE, Polynomial, RingSpec
from mcalc.scalars import FieldSpec

Q = FieldSpec.rationals()
F2 = FieldSpec.prime_field(2)
F7 = FieldSpec.prime_field(7)

R = RingSpec(Q, ("x", "y"))
X, Y = R.variable("x"), R.variable("y")
FREE = FPModule.free(R, 1)


def _conic():
    fx = RingSpec(F2, ("x", "y")).variable("x")
    fy = RingSpec(F2, ("x", "y")).variable("y")
    return RingSpec(F2, ("x", "y"), quotient=(fx * fx + fx * fy + fy * fy,))


def _cusp():
    return RingSpec(Q, ("x", "y"), quotient=(Y * Y - X ** 3,))


def test_hilbert_samuel_table_plane():
    _, table = multiplicity_data(FREE, [X, Y], 2)
    assert table == (1, 3, 6, 10, 15)


def test_hilbert_samuel_table_double_line():
    M = FPModule.cyclic(R, [Y * Y])
    _, table = multiplicity_data(M, [X], 1)
    assert table == (2, 4, 6, 8)


def test_multiplicity_regular_point():
    e, table = multiplicity_data(FREE, [X, Y], 2)
    assert e == 1
    assert table[:3] == (1, 3, 6)


def test_multiplicity_of_thick_line():
    M = FPModule.cyclic(R, [Y * Y])
    assert multiplicity(M, [X, Y], 1) == 2
    assert multiplicity(M, [X, Y], 2) == 0


def test_multiplicity_above_support_dimension_is_zero():
    # three equal differences come before the lengths level off: 1, 2, 3, ..
    # up to 10 for k[x]/(x^10), and 1, 3, 6, .. up to the 6th entry for
    # k[x,y]/(x^6), whose support is a line
    line = RingSpec(Q, ("x",))
    x = line.variable("x")
    assert multiplicity(FPModule.cyclic(line, [x ** 10]), [x], 1) == 0
    assert multiplicity(FPModule.cyclic(R, [X ** 6]), [X, Y], 2) == 0


def test_multiplicity_conic():
    A = _conic()
    free = FPModule.free(A, 1)
    assert multiplicity(free, [A.variable("x"), A.variable("y")], 1) == 2


def test_empty_ideal_gives_length():
    M = FPModule.cyclic(R, [X, Y * Y])
    assert multiplicity(M, [], 0) == 2


def test_no_stabilization_at_wrong_order():
    with pytest.raises(NoStabilization):
        multiplicity(FREE, [X, Y], 0)


def test_colength_preconditions():
    with pytest.raises(NotFiniteColength):
        multiplicity(FREE, [X], 1)
    with pytest.warns(UserWarning), pytest.raises(SupportNotAtOrigin):
        multiplicity(FREE, [X - R.one(), Y], 2)


def _outcome(route, *args):
    """What a route returns, or the class, message and data of the engine
    error it raises."""
    try:
        return route(*args)
    except EngineError as err:
        return type(err), str(err), err.data


def _plane_polys(ring):
    """Zero, monomials and forms of a plane ring, one with a constant term."""
    x, y, one = ring.variable("x"), ring.variable("y"), ring.one()
    return [ring.zero(), x, y, x + y, x * y, x * x, y * y, x + y * y, x - one]


# quotients of the plane: none, the axes, the cusp, and k[x,y]/(x^2, x*y^4),
# where (y) has the table 2, 4, 6, 8 and e = 2 though e((y)) = 1 (ROADMAP
# item 2), and m the graded plateau 1, 3, 5, 7, 9 of first differences 2,
# though e(m) = 1; on R + R/(x^2, y^2), of dimension 2, m has the table 2,
# 6, 10, 14 at r = 1, whose differences grow past the plateau
_TABLE_QUOTIENTS = (lambda x, y: (), lambda x, y: (x * y,), lambda x, y: (y * y - x ** 3,),
                    lambda x, y: (x * x, x * y ** 4))

# (field, quotient, rank, relations as (position, poly), generators as polys
# with zero and repeats, r), polys by index into `_plane_polys`
_TABLE_CASES = st.tuples(
    st.sampled_from(["F7", "Q"]), st.integers(0, len(_TABLE_QUOTIENTS) - 1), st.integers(1, 2),
    st.lists(st.tuples(st.integers(0, 1), st.integers(1, 8)), max_size=2),
    st.lists(st.integers(0, 8), max_size=3), st.integers(0, 3))


@pytest.mark.filterwarnings("ignore:non-homogeneous defining polynomials")
@settings(max_examples=100, deadline=None)
@example(("Q", 3, 1, [], [2], 1))
@example(("F7", 0, 2, [(0, 1)], [0, 1, 1, 2], 2))
@example(("Q", 0, 2, [(0, 1), (1, 2)], [7, 2], 1))
@example(("F7", 1, 2, [(0, 4)], [3, 1, 2], 2))
@example(("Q", 3, 1, [], [1, 2], 1))
@example(("Q", 0, 2, [(1, 5), (1, 6)], [1, 2], 1))
@given(_TABLE_CASES)
def test_one_loop_table_matches_the_stepwise_route(case):
    """The table read off one Hilbert series gives the (e, table), or the
    error class, message and data, of the route through all n-fold products
    with its own colength check, wherever that route's e is right. Where
    the two part, the stepwise route's e is wrong, for one of three
    reasons: it raised NoStabilization (no three equal differences within
    its cap, or a negative settled value), its table is a strict prefix of
    the new one (it stopped on a plateau), or it kept a nonzero e at r
    above the dimension d at the origin, the new e being 0. Every new
    table entry is the stepwise ℓ(M/I^n M), and its last three r-th
    differences agree, equal to e when e is not 0. A NoStabilization says
    r < d = dim Supp M, the global dimension read off M's own basis: a raise
    needs d ≥ 1, and a component of Supp M missing the origin is here the
    line x = 1 or a point, while one of dimension 2 is a free summand over
    the plane, through the origin. Beside such a raise the stepwise route
    may still stop on a plateau of r-th differences, as on R + R/(x^2, y^2)
    with m at r = 1 (4, 4, 4, then 5), but no e exists at r < d."""
    field, q, rank, rels, picks, r = case
    plane = RingSpec({"F7": F7, "Q": Q}[field], ("x", "y"))
    ring = RingSpec(plane.field, ("x", "y"),
                    quotient=_TABLE_QUOTIENTS[q](plane.variable("x"), plane.variable("y")))
    polys = _plane_polys(ring)
    M = FPModule(ring, rank, [ModuleVector.unit(ring.field, ring.nvars, rank, p % rank, polys[i])
                              for p, i in rels])
    gens = [polys[i] for i in picks]
    got = _outcome(multiplicity_data, M, gens, r)
    want = _outcome(oracles.stepwise_multiplicity, M, gens, r)
    if got == want:
        return
    if got[0] is NoStabilization:
        assert r == got[2]["r"] < got[2]["dimension"] == M.support_dimension()
        return
    e, table = got
    lengths = oracles._stepwise_lengths(M, gens)
    assert list(table) == [next(lengths) for _ in table]
    diffs = oracles._differences(table, r)
    assert len(diffs) >= 3 and diffs[-1] == diffs[-2] == diffs[-3]
    assert e == 0 or diffs[-1] == e
    if want[0] is not NoStabilization:
        old_e, old_table = want
        assert old_table == table[:len(old_table)]
        assert len(old_table) < len(table) or e == 0 != old_e


# monomial quotients of k[x, y] and k[x, y, z], 1..3 generators of degree
# 1..3, and an ideal I: m (None) or 1..3 squarefree monomials of degree 1..2,
# as exponent tuples
_MONOMIAL_CASES = st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: 0 < sum(e) <= 3),
             min_size=1, max_size=3),
    st.none() | st.lists(st.tuples(*[st.integers(0, 1)] * n).filter(lambda e: 0 < sum(e) <= 2),
                         min_size=1, max_size=3)))


def _monomial_power(exps, n):
    """Exponent tuples of the n-fold products of monomials among exps."""
    return {tuple(map(sum, zip(*combo))) for combo in
            itertools.combinations_with_replacement(exps, n)}


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from([Q, F7]), case=_MONOMIAL_CASES)
@example(field=Q, case=(2, [(2, 0), (1, 3)], None))
@example(field=Q, case=(2, [(2, 0), (1, 4)], [(0, 1)]))
def test_maximal_ideal_multiplicity_matches_the_standard_count(field, case):
    """On a monomial quotient R/J with I = m or a monomial ideal, and r =
    d, the dimension: each entry ℓ(R/(I^n + J)) of the table is the count
    of standard monomials of the monomial ideal I^n + J, and e is the d-th
    difference of those counts taken at n past the table's end and past
    (number of variables) × (largest generator degree) + 1, where the
    lengths of a monomial quotient's m-adic table are already a polynomial
    in n. Where I + J has infinite colength, NotFiniteColength. The
    examples are the plateaus 1, 2, 2, 2, 1, 1, .. of the Hilbert function
    of k[x,y]/(x^2, x*y^3), whose first differences 2, 2, 2 are not e = 1,
    and the lengths 2, 4, 6, 8, 9, 10, .. of k[x,y]/(x^2, x*y^4) modulo
    y^n, whose e((y)) is 1, not 2."""
    nvars, exps, ideal = case
    names = ("x", "y", "z")[:nvars]
    ring = RingSpec(field, names, quotient=tuple(
        Polynomial.term(field, nvars, e, field.raw.one) for e in exps))
    if ideal is None:
        ideal = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    gens = [Polynomial.term(field, nvars, e, field.raw.one) for e in ideal]
    leads = [(0, e) for e in exps]

    def length(n):
        return oracles.box_standard_count(leads + [(0, e) for e in _monomial_power(ideal, n)],
                                          1, nvars)
    d = oracles.subset_dimension(leads, 1, nvars)
    if length(1) is None:
        with pytest.raises(NotFiniteColength):
            multiplicity_data(FPModule.free(ring, 1), gens, d)
        return
    e, table = multiplicity_data(FPModule.free(ring, 1), gens, d)
    start = max(len(table), nvars * max(map(sum, exps + ideal)) + 2)
    lengths = [length(n) for n in range(1, start + d + 1)]
    assert list(table) == lengths[:len(table)]
    assert e == sum((-1) ** (d - k) * math.comb(d, k) * lengths[start - 1 + k]
                    for k in range(d + 1))


@pytest.mark.filterwarnings("ignore:non-homogeneous defining polynomials")
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F7, Q]), st.integers(0, len(_TABLE_QUOTIENTS) - 1),
       st.lists(st.integers(0, 8), min_size=2, max_size=2))
@example(Q, 3, [2, 2])
def test_parameter_multiplicity_is_the_koszul_sum(field, q, picks):
    """On the plane and its quotients, with I generated by d elements, d the
    dimension: where M/IM has finite length at the origin they are a system
    of parameters and e(I, A, d) is Serre's χ, which fails exactly where
    the table does. The example is (y) on k[x,y]/(x^2, x*y^4), whose table
    has a plateau."""
    plane = RingSpec(field, ("x", "y"))
    ring = RingSpec(field, ("x", "y"),
                    quotient=_TABLE_QUOTIENTS[q](plane.variable("x"), plane.variable("y")))
    A = FPModule.free(ring, 1)
    d = A.support_dimension()
    gens = [_plane_polys(ring)[i] for i in picks[:d]]
    got = _outcome(multiplicity_data, A, gens, d)
    chi = _outcome(serre_alternating_sum, gens, A)
    if isinstance(chi, int):
        assert got[0] == chi
    else:
        assert got[0] in (NotFiniteColength, SupportNotAtOrigin)
        assert chi[0] is {NotFiniteColength: InfiniteHomology}.get(got[0], got[0])


def test_graded_m_adic_table_builds_one_quotient(monkeypatch):
    """The plane's m-adic table: its first entry, ℓ(R/mR) = 1, is the
    degree-0 value of the plane's Hilbert function, so R/mR is the only
    quotient built and every later entry is a partial sum of that function.
    The cusp's quotient is not homogeneous, so its m-adic table is read off
    the series of gr_m, whose Rees bases are no quotients either."""
    calls = []
    real = FPModule.quotient_by_polys

    def counted(self, polys):
        calls.append(polys)
        return real(self, polys)
    monkeypatch.setattr(FPModule, "quotient_by_polys", counted)
    assert multiplicity_data(FREE, [X, Y], 2) == (1, (1, 3, 6, 10, 15))
    assert len(calls) == 1
    calls.clear()
    A = _cusp()
    with pytest.warns(UserWarning):
        table = multiplicity_data(FPModule.free(A, 1), [A.variable("x"), A.variable("y")], 1)
    assert (table, len(calls)) == ((2, (1, 3, 5, 7)), 1)


@pytest.mark.parametrize("step", [1, 2])
def test_table_ends_by_the_series_bound(step):
    """On k[x,y]/(x^400) with I = (x, y^step) at r = 1, the lengths
    Σ_{a<min(n,400)} step(n - a) grow as triangular numbers up to n = 400
    and linearly after, so the first differences settle at e = 400 step
    only there. The series of M (step 1) and of gr_I(M) (step 2) have the
    numerators step(1 - t^400) over (1-t)^2, of degree D = 400 in v = 2
    variables, so the table ends by max(1, D - v + 1) + r + 2 = 402
    entries, as it does."""
    A = RingSpec(Q, ("x", "y"), quotient=(X ** 400,))
    gens = [A.variable("x"), A.variable("y") ** step]
    e, table = multiplicity_data(FPModule.free(A, 1), gens, 1)
    assert e == 400 * step
    assert list(table) == [sum(step * (n - a) for a in range(min(n, 400)))
                           for n in range(1, 403)]


def test_homology_lengths():
    assert homology_lengths([X, Y], FREE) == [1, 0, 0]
    assert homology_lengths([], FPModule.cyclic(R, [X, Y * Y])) == [2]
    with pytest.raises(InfiniteHomology):
        homology_lengths([X], FREE)
    with pytest.raises(InfiniteHomology):
        homology_lengths([], FREE)


def test_homology_lengths_check_the_origin_once(monkeypatch):
    """Only H_0 takes the origin-support check; H_1 and H_2 are read with
    `length`."""
    calls = []
    real = FPModule.local_length

    def counted(self):
        calls.append(self)
        return real(self)
    monkeypatch.setattr(FPModule, "local_length", counted)
    A = FPModule.free(_conic(), 1)
    x, y = A.ring.variable("x"), A.ring.variable("y")
    assert homology_lengths([x, y], A) == [1, 1, 0]
    assert len(calls) == 1


_KOSZUL_ELEMENTS = ["x", "y", "x + y", "x^2", "x*y", "x - y^2"]


@settings(max_examples=30, deadline=None)
@given(field=st.sampled_from([Q, F2]), a=st.integers(1, 4), b=st.integers(1, 4),
       mixed=st.none() | st.tuples(st.integers(1, 3), st.integers(1, 3)),
       picks=st.lists(st.sampled_from(_KOSZUL_ELEMENTS), min_size=1, max_size=3))
def test_higher_koszul_lengths_are_local(field, a, b, mixed, picks):
    """On Artinian monomial quotients of the plane every H_i, i >= 1, is
    supported at the origin, so its global length is its local one."""
    plane = RingSpec(field, ("x", "y"))
    x, y = plane.variable("x"), plane.variable("y")
    gens = [x ** a, y ** b] + ([x ** mixed[0] * y ** mixed[1]] if mixed else [])
    ring = RingSpec(field, ("x", "y"), quotient=tuple(gens))
    seq = [parse_polynomial(ring, f) for f in picks]
    A = FPModule.free(ring, 1)
    for i in range(1, len(seq) + 1):
        H = koszul_homology(seq, A, i)
        assert H.length() == H.local_length()


def test_alternating_sums():
    assert serre_alternating_sum([X, Y], FREE) == 1
    A = _conic()
    assert serre_alternating_sum([A.variable("x"), A.variable("y")],
                                 FPModule.free(A, 1)) == 0
    M = FPModule.cyclic(R, [Y * Y])
    assert serre_alternating_sum([X], M) == 2


def test_verify_serre_regular():
    rep = verify_serre(FREE, [X, Y])
    assert rep.verdict == VERIFIED
    assert rep.left == rep.right == 1
    assert rep.certificate["length_table"][:3] == [1, 3, 6]
    assert rep.certificate["homology_lengths"] == [1, 0, 0]


def test_verify_serre_above_dimension():
    A = _conic()
    rep = verify_serre(FPModule.free(A, 1), [A.variable("x"), A.variable("y")])
    assert rep.verdict == VERIFIED
    assert rep.left == rep.right == 0


def test_verify_serre_curve_parameter():
    B = _cusp()
    with pytest.warns(UserWarning):
        rep = verify_serre(FPModule.free(B, 1), [B.variable("x")])
    assert rep.verdict == VERIFIED
    assert rep.left == rep.right == 2


def test_verify_factorization_split():
    rep = verify_factorization(FREE, [X], [Y])
    assert rep.verdict == VERIFIED
    assert rep.left == rep.right == 1
    assert rep.certificate["double_sum_rows"][0]["outer_lengths"] == [1, 0]


def test_verify_factorization_mixed():
    M = FPModule.cyclic(R, [X * X, X * Y])
    rep = verify_factorization(M, [X], [Y])
    assert rep.verdict == VERIFIED
    assert rep.left == rep.right


def test_verify_factorization_empty_inner():
    rep = verify_factorization(FPModule.cyclic(R, [X, Y * Y]), [], [])
    assert rep.verdict == VERIFIED
    assert rep.left == rep.right == 2


def test_verify_vanish():
    M = FPModule.cyclic(R, [X * X])
    rep = verify_vanish(M, [X, Y], 1, 2)
    assert rep.verdict == VERIFIED
    assert rep.left == 0
    lengths = rep.certificate["homology_lengths"]
    assert sum(l if i % 2 == 0 else -l for i, l in enumerate(lengths)) == 0


def test_verify_vanish_hypothesis_checked():
    M = FPModule.cyclic(R, [X * X])
    with pytest.raises(HypothesisFails):
        verify_vanish(M, [X, Y], 2, 2)
    with pytest.raises(ValueError):
        verify_vanish(M, [X, Y], 3, 1)


def test_verify_serre2_plane():
    rep = verify_serre2(FREE, [X], [Y])
    assert rep.verdict == VERIFIED
    assert rep.left == 1
    assert rep.right == [1, 1]
    assert rep.certificate["routes"] == [1, 1, 1]


def test_verify_serre2_identity_first_step():
    A = _conic()
    rep = verify_serre2(FPModule.free(A, 1), [], [A.variable("x")])
    assert rep.verdict == VERIFIED
    assert rep.certificate["routes"] == [2, 2, 2]


def test_evaluate_multiplicity_linearity():
    M = FPModule.cyclic(R, [Y * Y])
    V = VirtualModule(R, [(2, M)])
    assert evaluate_multiplicity(V, [X, Y], 1) == 4


def test_parameter_colength():
    A = _conic()
    assert parameter_colength(A, A.variable("x")) == 2
    assert parameter_colength(A, A.variable("x") + A.variable("y")) == 2
    B = _cusp()
    assert parameter_colength(B, B.variable("x")) == 2
    assert parameter_colength(B, B.variable("y")) == 3
    assert parameter_colength(B, B.variable("x") * B.variable("y")) == 5


def test_parameter_rejections():
    B = _cusp()
    bx, by = B.variable("x"), B.variable("y")
    with pytest.raises(NotParameter):
        parameter_colength(B, B.zero())
    with pytest.raises(NotParameter):
        parameter_colength(B, bx - B.one())
    F5T = FieldSpec.rational_functions(5)
    T = RingSpec(F5T, ("x", "y"))
    with pytest.raises(NotParameter, match="nonzero constant term"):
        parameter_colength(T, T.variable("x") + T.constant(F5T.t()))
    with pytest.raises(NotParameter, match="does not cut the ring down"):
        parameter_colength(R, X)
    # the cusp meets V(x+y) again at (1, -1), off the origin
    with pytest.raises(NotParameter, match="vanishes somewhere off the origin"):
        parameter_colength(B, bx + by)


def test_parameters_over_function_field_are_accepted():
    """The zero-constant tests ask the field: the raw zero of F5(t) is not 0."""
    F5T = FieldSpec.rational_functions(5)
    T = RingSpec(F5T, ("x", "y"))
    tx2 = T.constant(F5T.t()) * T.variable("x") ** 2
    A = RingSpec(F5T, ("x", "y"), quotient=(T.variable("y") ** 2 - tx2,))
    x, y = A.variable("x"), A.variable("y")
    assert parameter_colength(A, x) == 2
    assert parameter_colength(A, x + A.constant(F5T.t()) * y) == 2
    found = search_parameters(A, 3, 4)
    assert (found.status, found.ideal, found.e) == ("FOUND", (x,), 2)


def test_parameter_colength_enumerates_no_standard_terms(monkeypatch):
    """The length and its origin-support check read the Hilbert series of
    the leads: the standard-term enumerator is never called."""
    calls = []
    monkeypatch.setattr(groebner, "standard_monomials", lambda *args: calls.append(args))
    F7 = FieldSpec.prime_field(7)
    x, y = (RingSpec(F7, ("x", "y")).variable(v) for v in "xy")
    A = RingSpec(F7, ("x", "y"), quotient=(x ** 3 - y * y,))
    assert parameter_colength(A, A.variable("y")) == 3
    assert calls == []


def test_search_candidate_builds_each_basis_once(monkeypatch):
    """One candidate (x) on the cusp over F7: the free module once, for the
    ring's dimension; H_0 = M/xM once, for its colength check and its
    length; and one elimination basis for H_1 (`subquotient`). e is Serre's
    alternating sum, so no table and no power x^n M is built. A one-element
    candidate has no dimension drop to check."""
    calls = []

    def counting(module):
        real = module._basis

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(module, "_basis", counted)

    counting(groebner)
    counting(fpmodules)
    F7 = FieldSpec.prime_field(7)
    x, y = (RingSpec(F7, ("x", "y")).variable(v) for v in "xy")
    A = RingSpec(F7, ("x", "y"), quotient=(y * y - x ** 3,))
    out = search_parameters(A, 3, 1)
    assert (out.status, out.tried, out.e) == ("FOUND", 1, 2)
    assert len(calls) == 3


# the F2 cone, the Q cusp and k[x,y]/(x^2, x*y), all of dimension 1, and
# the F7 plane, where a candidate has a dimension drop to check
_CANDIDATE_RINGS = (_conic(), _cusp(), RingSpec(Q, ("x", "y"), quotient=(X * X, X * Y)),
                    RingSpec(F7, ("x", "y")))


@pytest.mark.filterwarnings("ignore:non-homogeneous defining polynomials")
@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(_CANDIDATE_RINGS) - 1), st.booleans(), st.integers(0, 2 ** 32),
       st.lists(st.integers(0, 8), min_size=2, max_size=2))
def test_candidate_check_matches_the_stepwise_route(k, seeded, seed, picks):
    """H_0's length at the origin decides colength and origin support as the
    stepwise check on the basis of all d elements does, and Serre's χ is
    the table's e: the same e or None, on search's own random candidates
    and on drawn ones (zero, repeated, or with a constant term). None of
    these rings gives a candidate whose table stops on a plateau, so the
    two routes agree exactly; `test_candidate_e_past_a_plateau` pins where
    they part."""
    ring = _CANDIDATE_RINGS[k]
    A = FPModule.free(ring, 1)
    d = groebner.krull_dimension(A.gb)
    if seeded:
        seq = _random_candidate(ring, random.Random(seed), d)
    else:
        polys = _plane_polys(ring)
        seq = tuple(polys[i] for i in picks[:d])
    assert (_outcome(_validate_candidate, A, seq, d)
            == _outcome(oracles.stepwise_candidate, A, seq, d))


def test_candidate_e_past_a_plateau():
    """On Q[x,y]/(x^2, x*y^4) the lengths of A/y^n A are 2, 4, 6, 8, 9, 10,
    .., so e((y), A) = 1 = χ, but the table stops on the first plateau and
    reads 2; so do its stepwise route and the linear forms below."""
    ring = RingSpec(Q, ("x", "y"), quotient=(X * X, X * Y ** 4))
    A = FPModule.free(ring, 1)
    for f in (Y, X + Y, X + Y * 2):
        seq = (f,)
        assert _validate_candidate(A, seq, 1) == 1
        assert oracles.stepwise_candidate(A, seq, 1) == 2


def test_ord_additivity_conic():
    A = _conic()
    ax, ay = A.variable("x"), A.variable("y")
    rep = ord_check(A, ax, ay)
    assert rep.verdict == VERIFIED
    assert rep.left == 4
    assert rep.certificate["colengths"] == {"f": 2, "g": 2, "fg": 4}
    assert ord_check(A, ax, ax).left == 4


def test_ord_additivity_cusp():
    B = _cusp()
    rep = ord_check(B, B.variable("x"), B.variable("y"))
    assert rep.verdict == VERIFIED
    assert rep.left == 5
    assert rep.right == 5


def test_ord_univariate():
    U = RingSpec(Q, ("x",))
    x = U.variable("x")
    rep = ord_check(U, x ** 2, x ** 3)
    assert rep.left == rep.right == 5


def test_ord_needs_dimension_one():
    with pytest.raises(NotDimensionOne):
        ord_check(R, X, Y)


def test_search_even_lengths_exhausts():
    A = _conic()
    out = search_parameters(A, 2, 40, seed=7)
    assert out.status == "EXHAUSTED"
    assert out.tried == 40
    assert out.table
    assert all(e % 2 == 0 for _, e in out.table)


def test_search_odd_prime_succeeds():
    A = _conic()
    out = search_parameters(A, 3, 40, seed=7)
    assert out.status == "FOUND"
    assert out.e == 2
    assert [A.poly_to_str(f) for f in out.ideal] == ["x"]


def test_search_determinism():
    A = _conic()
    first = search_parameters(A, 2, 25, seed=11)
    second = search_parameters(A, 2, 25, seed=11)
    assert first == second


def test_report_serializes_to_json():
    rep = verify_serre(FREE, [X, Y])
    record = rep.to_dict()
    text = json.dumps(record, sort_keys=True)
    assert json.loads(text) == record


def test_report_renders_infinite():
    rep = Report(claim="c", left=INFINITE, right=0, verdict=REFUTED,
                 certificate={"value": INFINITE})
    d = rep.to_dict()
    assert d["left"] == "INFINITE"
    assert d["certificate"]["value"] == "INFINITE"
