"""Koszul complexes, homology, class operators, class reduction."""

import math

import pytest

from mcalc.errors import DimensionDropViolated, RingMismatch
from mcalc.fpmodules import FPModule, ModuleMap, ModuleVector, kernel_of_map
from mcalc.koszul import (VirtualModule, _differential_columns, _koszul_term,
                          koszul_homology, phi_apply, reduce_class)
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
    with pytest.raises(RingMismatch):
        koszul_homology((), FREE, 0)
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
    V = VirtualModule.of_module(FPModule.cyclic(R, [X, Y]))
    assert phi_apply([], V) is V


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
