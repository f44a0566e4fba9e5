"""Hilbert-Samuel multiplicities, identity checks, parameter search."""

import json
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from mcalc import fpmodules, groebner
from mcalc.errors import (EngineError, HypothesisFails, InfiniteHomology, NoStabilization,
                          NotDimensionOne, NotFiniteColength, NotParameter,
                          SupportNotAtOrigin)
from mcalc.fpmodules import FPModule, ModuleVector
from mcalc.koszul import VirtualModule, phi_apply
from mcalc.multiplicity import (REFUTED, VERIFIED, Report, _random_candidate,
                                _validate_candidate, evaluate_multiplicity,
                                homology_lengths, multiplicity, multiplicity_data,
                                ord_check, parameter_colength, search_parameters,
                                serre_alternating_sum, verify_factorization,
                                verify_serre, verify_serre2, verify_vanish)
from mcalc.polyring import INFINITE, RingSpec
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


def test_negative_settled_difference_raises(monkeypatch):
    """Three equal negative first differences where r = 1 does not exceed
    dim Supp = 2: no multiplicity is negative, so no e is printed. The table
    reads its first entry through `local_length` and the rest through
    `length`."""
    later = iter([4, 3, 2])
    monkeypatch.setattr(FPModule, "local_length", lambda self: 5)
    monkeypatch.setattr(FPModule, "length", lambda self: next(later))
    with pytest.raises(NoStabilization):
        multiplicity(FREE, [X], 1)


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
# item 2)
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
@given(_TABLE_CASES)
def test_one_loop_table_matches_the_stepwise_route(case):
    """The one loop, I^n from I^(n-1), gives the (e, table), or the error
    class, message, values and r, of the route through all n-fold products
    with its own colength check: plateau answers included. Both routes read
    the cap at call time; 10 entries, not 40, keep a draw that never
    settles cheap, since I^n from three forms has O(n^2) generators."""
    field, q, rank, rels, picks, r = case
    plane = RingSpec({"F7": F7, "Q": Q}[field], ("x", "y"))
    ring = RingSpec(plane.field, ("x", "y"),
                    quotient=_TABLE_QUOTIENTS[q](plane.variable("x"), plane.variable("y")))
    polys = _plane_polys(ring)
    M = FPModule(ring, rank, [ModuleVector.unit(ring.field, ring.nvars, rank, p % rank, polys[i])
                              for p, i in rels])
    gens = [polys[i] for i in picks]
    with mock.patch.object(oracles.multiplicity_module, "STABILIZATION_CAP", 10):
        assert (_outcome(multiplicity_data, M, gens, r)
                == _outcome(oracles.stepwise_multiplicity, M, gens, r))


def test_homology_lengths():
    assert homology_lengths([X, Y], FREE) == [1, 0, 0]
    assert homology_lengths([], FPModule.cyclic(R, [X, Y * Y])) == [2]
    with pytest.raises(InfiniteHomology):
        homology_lengths([X], FREE)
    with pytest.raises(InfiniteHomology):
        homology_lengths([], FREE)


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


@pytest.mark.filterwarnings("ignore:non-homogeneous defining polynomials")
def test_search_candidate_builds_each_basis_once(monkeypatch):
    """One candidate (x) on the cusp over F7: the free module, once for the
    ring's dimension and the multiplicity, M/xM once for the colength check
    and the first table entry, and x^n M for n = 2, 3, 4 (the table stops at
    four entries). A one-element candidate has no dimension drop to check
    before the table."""
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
    assert len(calls) == 5


# the F2 cone, the Q cusp and k[x,y]/(x^2, x*y), all of dimension 1, and
# the F7 plane, where a candidate has a dimension drop to check
_CANDIDATE_RINGS = (_conic(), _cusp(), RingSpec(Q, ("x", "y"), quotient=(X * X, X * Y)),
                    RingSpec(F7, ("x", "y")))


@pytest.mark.filterwarnings("ignore:non-homogeneous defining polynomials")
@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(_CANDIDATE_RINGS) - 1), st.booleans(), st.integers(0, 2 ** 32),
       st.lists(st.integers(0, 8), min_size=2, max_size=2))
def test_candidate_check_matches_the_stepwise_route(k, seeded, seed, picks):
    """The table's first entry decides colength and origin support as the
    stepwise check on the basis of all d elements does: the same e or None,
    on search's own random candidates and on drawn ones (zero, repeated, or
    with a constant term)."""
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
