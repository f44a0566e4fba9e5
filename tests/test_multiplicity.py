"""Hilbert-Samuel multiplicities, identity checks, parameter search."""

import json

import pytest

from mcalc import fpmodules, groebner
from mcalc.errors import (HypothesisFails, InfiniteHomology, NoStabilization,
                          NotDimensionOne, NotFiniteColength, NotParameter,
                          SupportNotAtOrigin)
from mcalc.fpmodules import FPModule
from mcalc.koszul import VirtualModule, phi_apply
from mcalc.multiplicity import (REFUTED, VERIFIED, Report, evaluate_multiplicity,
                                homology_lengths, ideal_power, multiplicity,
                                multiplicity_data, ord_check, parameter_colength,
                                search_parameters, serre_alternating_sum,
                                verify_factorization, verify_serre, verify_serre2,
                                verify_vanish)
from mcalc.polyring import INFINITE, RingSpec
from mcalc.scalars import FieldSpec

Q = FieldSpec.rationals()
F2 = FieldSpec.prime_field(2)

R = RingSpec(Q, ("x", "y"))
X, Y = R.variable("x"), R.variable("y")
FREE = FPModule.free(R, 1)


def _conic():
    fx = RingSpec(F2, ("x", "y")).variable("x")
    fy = RingSpec(F2, ("x", "y")).variable("y")
    return RingSpec(F2, ("x", "y"), quotient=(fx * fx + fx * fy + fy * fy,))


def _cusp():
    return RingSpec(Q, ("x", "y"), quotient=(Y * Y - X ** 3,))


def test_ideal_power():
    sq = ideal_power([X, Y], 2)
    assert set(sq) == {X * X, X * Y, Y * Y}
    assert ideal_power([X], 3) == [X ** 3]
    assert ideal_power([], 5) == []


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
    with pytest.raises(NotParameter, match="does not cut the ring down"):
        parameter_colength(R, X)
    # the cusp meets V(x+y) again at (1, -1), off the origin
    with pytest.raises(NotParameter, match="vanishes somewhere off the origin"):
        parameter_colength(B, bx + by)


def test_parameter_colength_enumerates_standard_terms_once(monkeypatch):
    """The length and its origin-support check share one enumeration."""
    real, calls = groebner._standard_terms, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(groebner, "_standard_terms", counted)
    F7 = FieldSpec.prime_field(7)
    x, y = (RingSpec(F7, ("x", "y")).variable(v) for v in "xy")
    A = RingSpec(F7, ("x", "y"), quotient=(x ** 3 - y * y,))
    assert parameter_colength(A, A.variable("y")) == 3
    assert len(calls) == 1


@pytest.mark.filterwarnings("ignore:non-homogeneous defining polynomials")
def test_search_candidate_builds_each_basis_once(monkeypatch):
    """One candidate (x) on the cusp over F7: the base ring, (x) once for
    both the dimension drop and the colength, the free module, M/xM once
    for the colength check and the first table entry, and x^n M for
    n = 2, 3, 4 (the table stops at four entries)."""
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
    assert len(calls) == 7


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
