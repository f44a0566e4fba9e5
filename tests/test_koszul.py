"""Koszul complexes, homology, class operators, class reduction."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from mcalc import fpmodules, groebner
from mcalc.errors import DimensionDropViolated, RingMismatch
from mcalc.fpmodules import (FPModule, ModuleMap, ModuleVector, gamma_saturation, kernel_of_map,
                             subquotient, unit_vectors)
from mcalc.koszul import (VirtualModule, _differential_columns, _koszul_term,
                          koszul_homology, phi_apply, reduce_class)
from mcalc.parsing import parse_polynomial
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


def _lengths(x, M):
    return [koszul_homology(x, M, i).length() for i in range(len(x) + 1)]


def _times(M, f):
    """Multiplication by f on M: column i is f * e_i."""
    return ModuleMap(M, M, [ModuleVector.unit(R.field, R.nvars, M.rank, i, f)
                            for i in range(M.rank)])


def _differential(x, M, i):
    return ModuleMap(_koszul_term(x, M, i), _koszul_term(x, M, i - 1),
                     _differential_columns(x, M, i))


def test_term_ranks_are_binomials():
    M = FPModule.free(R, 2)
    assert [_koszul_term((X, Y), M, i).rank for i in range(3)] == [
        2 * math.comb(2, i) for i in range(3)]


def test_top_differential_signs():
    d2 = _differential((X, Y), FREE, 2)
    assert len(d2.matrix) == 1
    assert d2.matrix[0].components == (-Y, X)


def test_composition_vanishes():
    """d_{i-1} o d_i is zero on the free covers, not only modulo relations."""
    for x, M in [((X, Y), FPModule.free(R, 2)),
                 ((X, Y), FPModule.cyclic(R, [X * Y])),
                 ((X, Y, X + Y * Y), FPModule.cyclic(R, [Y * Y]))]:
        for i in range(2, len(x) + 1):
            d = _differential(x, M, i - 1)
            for col in _differential_columns(x, M, i):
                assert d.apply_vec(col).is_zero()


def test_regular_sequence_has_no_higher_homology():
    assert _lengths((X, Y), FREE) == [1, 0, 0]


def test_killed_variable():
    M = FPModule.cyclic(R, [X])
    assert koszul_homology((X,), M, 0) == M
    assert koszul_homology((X,), M, 1) == M


def test_conic_homology_lengths():
    A = _conic()
    seq = (A.variable("x"), A.variable("y"))
    assert _lengths(seq, FPModule.free(A, 1)) == [1, 1, 0]


def test_top_homology_is_iterated_kernel():
    M = FPModule.cyclic(R, [X * Y])
    top = koszul_homology((X, Y), M, 2)
    K1, _ = kernel_of_map(_times(M, Y))
    K2, _ = kernel_of_map(_times(K1, X))
    assert top.is_zero() and K2.is_zero()

    N = FPModule.cyclic(R, [X])
    alt, _ = kernel_of_map(_times(N, X))
    assert koszul_homology((X,), N, 1) == N == alt


def test_degree_zero_is_the_quotient():
    M = FPModule.cyclic(R, [X * Y])
    H0 = koszul_homology((X, Y), M, 0)
    assert H0 == M.quotient_by_polys([X, Y])
    assert H0.length() == 1


def test_zero_entries_are_allowed():
    M = FPModule.cyclic(R, [Y])
    assert _lengths((X, R.zero()), M) == [1, 1, 0]


def test_homology_input_validation():
    # K(∅; M) is M in degree 0 and nothing else
    M = FPModule.cyclic(R, [X * X])
    assert koszul_homology((), M, 0) is M
    with pytest.raises(ValueError):
        koszul_homology((), M, 1)
    with pytest.raises(ValueError):
        koszul_homology((X,), FREE, 2)
    with pytest.raises(RingMismatch):
        koszul_homology((_conic().variable("x"),), FREE, 1)


def test_virtual_module_combines_terms():
    M = FPModule.cyclic(R, [X, Y])
    N = FPModule.cyclic(R, [X, Y * Y])
    V = VirtualModule(R, [(1, M), (2, M), (1, N), (-1, N), (3, FPModule(R, 0))])
    assert V.terms == ((3, M),)
    assert V.length_evaluation() == 3
    with pytest.raises(RingMismatch):
        VirtualModule(R, [(1, FPModule.free(_conic(), 1))])


def test_virtual_module_infinite_length():
    V = VirtualModule.of_module(FPModule.cyclic(R, [X]))
    assert V.length_evaluation() is INFINITE


def test_phi_on_free_module():
    V = phi_apply([X], VirtualModule.of_module(FREE))
    assert V.terms == ((1, FPModule.cyclic(R, [X])),)


def test_phi_on_conic():
    A = _conic()
    V = phi_apply([A.variable("x")], VirtualModule.of_module(FPModule.free(A, 1)))
    assert V.length_evaluation() == 2


def test_phi_empty_sequence_is_identity():
    M, N = FPModule.cyclic(R, [X, Y]), FPModule.cyclic(R, [X, Y * Y])
    V = VirtualModule(R, [(2, M), (-1, N)])
    assert phi_apply([], V).terms == V.terms


def test_reduce_class_regular():
    assert reduce_class([X], FREE) == FPModule.cyclic(R, [X])


def test_reduce_class_two_branches():
    M = FPModule.cyclic(R, [X * Y])
    assert reduce_class([X + Y], M).length() == 2


def test_reduce_class_nilpotents():
    M = FPModule.cyclic(R, [X * X])
    out = reduce_class([Y], M)
    assert out == FPModule.cyclic(R, [X * X, Y])
    assert out.length() == 2


def test_reduce_class_requires_dimension_drop():
    M = FPModule.cyclic(R, [X])
    with pytest.raises(DimensionDropViolated):
        reduce_class([X], M)


# C_i is M's basis copied blockwise, with no Buchberger run; only the kernel
# generators of H_i, i >= 1, come from the tracked loop.

def _quadric_module():
    """A = k[x,y,z]/(xz - y^2) over F_32003 and M = coker [[x, y], [y, z]]:
    Koszul lengths (2, 2, 0, 0) on (x, y, z)."""
    field = FieldSpec.prime_field(32003)
    S = RingSpec(field, ("x", "y", "z"))
    A = RingSpec(field, ("x", "y", "z"), quotient=(parse_polynomial(S, "x*z - y^2"),))
    x, y, z = (A.variable(v) for v in "xyz")
    return (x, y, z), FPModule(A, 2, [ModuleVector((x, y)), ModuleVector((y, z))])


def _blockwise_relations(x, M, i):
    """The reduced basis that a Buchberger run makes of M's relations
    copied into each of the (n choose i) blocks of C_i."""
    ring, g, copies = M.ring, M.rank, math.comb(len(x), i)
    rels = [ModuleVector._from_raw(ring.field, ring.nvars, copies * g,
                                   {(s * g + p, e): c for (p, e), c in r.raw.items()})
            for s in range(copies) for r in M.relations]
    return FPModule(ring, copies * g, rels).relations


def test_koszul_term_is_the_blockwise_basis_on_the_quadric_module():
    x, M = _quadric_module()
    for i in range(4):
        assert _koszul_term(x, M, i).relations == _blockwise_relations(x, M, i)
    assert _lengths(x, M) == [2, 2, 0, 0]


_KOSZUL_TEXTS = ("0", "1", "x", "y", "x*y", "x^2 + y", "y^2 - x", "x - 1")


@st.composite
def _koszul_data(draw):
    """(x, M): M of rank 0 to 2 with up to two relations over Q[x,y],
    F_2[x,y] or the conic, and a sequence x of one to three entries."""
    ring = draw(st.sampled_from([R, RingSpec(F2, ("x", "y")), _conic()]))
    polys = [parse_polynomial(ring, t) for t in _KOSZUL_TEXTS]
    rank = draw(st.integers(0, 2))
    rows = draw(st.lists(st.lists(st.sampled_from(polys), min_size=rank, max_size=rank),
                         max_size=2))
    M = FPModule(ring, rank, [ModuleVector(row) for row in rows])
    return draw(st.lists(st.sampled_from(polys), min_size=1, max_size=3)), M


@settings(max_examples=30, deadline=None)
@given(_koszul_data())
def test_koszul_term_is_the_blockwise_basis(data):
    x, M = data
    for i in range(len(x) + 1):
        assert _koszul_term(x, M, i).relations == _blockwise_relations(x, M, i)


@settings(max_examples=30, deadline=None)
@given(_koszul_data())
def test_degree_zero_homology_is_the_subquotient_of_d1(data):
    """H_0 = M/(x)M is the presentation that C_0's unit vectors modulo the
    image of d_1 give: the image is spanned by the x_j * e_a."""
    x, M = data
    old = subquotient(unit_vectors(M.ring, M.rank), _differential_columns(x, M, 1),
                      _koszul_term(x, M, 0))
    H = koszul_homology(x, M, 0)
    assert H.relations == old.relations
    assert H.describe() == old.describe()


def _count(monkeypatch, name, modules, keep=lambda args, kwargs: True):
    """Calls of the engine function name, patched where each module holds it."""
    calls = []
    for module in modules:
        def counted(*args, real=getattr(module, name), **kwargs):
            if keep(args, kwargs):
                calls.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_koszul_term_computes_no_basis(monkeypatch):
    x, M = _quadric_module()
    calls = _count(monkeypatch, "_basis", (groebner, fpmodules))
    for i in range(4):
        _koszul_term(x, M, i)
    assert calls == []


def test_koszul_homology_runs_the_tracked_loop_once_above_degree_zero(monkeypatch):
    x, M = _quadric_module()
    tracked = _count(monkeypatch, "_buchberger", (groebner, fpmodules),
                     keep=lambda args, kwargs: kwargs.get("track", False))
    for i in range(4):
        tracked.clear()
        koszul_homology(x, M, i)
        assert len(tracked) == (1 if i else 0), i


def test_saturation_and_class_reduction_run_no_tracked_loop(monkeypatch):
    """Each colon S : f comes off an untracked elimination basis, so neither
    gamma_saturation nor reduce_class, which saturates at every cut, runs
    the tracked loop. On R/(xy, y^2), x kills y: Gamma_x = (y) is not zero."""
    tracked = _count(monkeypatch, "_buchberger", (groebner, fpmodules),
                     keep=lambda args, kwargs: kwargs.get("track", False))
    M = FPModule.cyclic(R, [X * Y, Y * Y])
    gamma, quotient = gamma_saturation(M, X)
    assert not gamma.is_zero() and quotient == FPModule.cyclic(R, [Y])
    assert reduce_class([X], M) == FPModule.cyclic(R, [X, Y])
    x, N = _quadric_module()
    gamma_saturation(N, x[1])
    assert tracked == []
