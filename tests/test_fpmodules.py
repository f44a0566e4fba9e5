"""Presented modules: module GBs, syzygies, kernels, saturation, length."""

import pytest
from hypothesis import given, settings, strategies as st

from mcalc import fpmodules
from mcalc.errors import (ImageNotInKernel, MapNotWellDefined, RingMismatch,
                          SupportNotAtOrigin)
from mcalc.fpmodules import (FPModule, ModuleMap, ModuleVector, gamma_saturation,
                             kernel_of_map, module_gb, preimage_submodule,
                             subquotient, syzygies, unit_vectors)
from mcalc.groebner import GroebnerBasis
from mcalc.parsing import parse_polynomial
from mcalc.polyring import INFINITE, Polynomial, RingSpec
from mcalc.scalars import FieldSpec

Q = FieldSpec.rationals()
F2 = FieldSpec.prime_field(2)

R = RingSpec(Q, ("x", "y"))
X, Y = R.variable("x"), R.variable("y")


def _vec(*polys):
    return ModuleVector(tuple(polys))


def _ideal_vec(f):
    return _vec(f)


def _zero():
    return R.zero()


def _plus_combination(start, coeffs, vectors):
    """start + sum(coeffs[i] * vectors[i]), on polynomial components: a
    reference that does not go through the division kernel."""
    comps = start.components
    for c, v in zip(coeffs, vectors):
        comps = [a + c * b for a, b in zip(comps, v.components)]
    return ModuleVector(comps)


def _basis_vectors(gb):
    ring = gb.ring
    return tuple(ModuleVector._from_raw(ring.field, ring.nvars, gb.rank, v) for v in gb.raws)


def _divide(gb, v):
    """Division of v by the basis elements, first divisor in list order:
    (remainder, cofactor polynomials)."""
    ring = gb.ring
    rem, quot = gb.reduce(v.raw, with_witness=True)
    return (ModuleVector._from_raw(ring.field, ring.nvars, gb.rank, rem),
            [Polynomial(ring.field, ring.nvars, q) for q in quot])


def test_module_gb_ideal_case():
    gb = module_gb(R, [_ideal_vec(X), _ideal_vec(Y * Y)], 1)
    assert _basis_vectors(gb) == (_ideal_vec(X), _ideal_vec(Y * Y))


def test_module_gb_already_reduced_rank_two():
    vecs = [_vec(X, _zero()), _vec(_zero(), X), _vec(Y, _zero()), _vec(_zero(), Y)]
    gb = module_gb(R, vecs, 2)
    assert set(_basis_vectors(gb)) == set(vecs)
    assert module_gb(R, list(_basis_vectors(gb)), 2).raws == gb.raws


def test_module_gb_folds_ring_quotient():
    fx = Polynomial.variable(F2, 2, 0)
    fy = Polynomial.variable(F2, 2, 1)
    A = RingSpec(F2, ("x", "y"), quotient=(fx * fx + fx * fy + fy * fy,))
    gb = module_gb(A, [ModuleVector((fx,))], 1)
    assert set(_basis_vectors(gb)) == {ModuleVector((fx,)), ModuleVector((fy * fy,))}


def test_module_gb_rank_two_skips_no_coprime_pair():
    # the leads x*e_0 and y*e_0 are coprime, yet the S-vector
    # y*(x, 1) - x*(y, 0) = (0, y) reduces to itself: the product
    # criterion holds for ideals only
    gb = module_gb(R, [_vec(X, R.one()), _vec(Y, _zero())], 2)
    assert _vec(_zero(), Y) in _basis_vectors(gb)


def test_syzygy_of_regular_pair():
    out = syzygies(R, [_ideal_vec(X), _ideal_vec(Y)])
    assert out == [_vec(Y, -X)]


def test_syzygy_of_repeated_generator():
    out = syzygies(R, [_ideal_vec(X), _ideal_vec(X)])
    assert _vec(R.one(), -R.one()) in out


def test_syzygy_of_single_nonzerodivisor():
    assert syzygies(R, [_ideal_vec(X * X + Y)]) == []


def test_syzygies_satisfy_relation_externally():
    vecs = [_vec(X * Y, Y), _vec(Y * Y, X), _vec(X, R.one())]
    for c in syzygies(R, vecs):
        assert _plus_combination(_vec(_zero(), _zero()), c.components, vecs).is_zero()


def test_syzygy_identity_check_runs_on_raw_vectors(monkeypatch):
    real = fpmodules._buchberger

    def corrupted(ring, raws, rank, track=False):
        basis, _ = real(ring, raws, rank, track=track)
        # c = (1, 0) claims x * 1 + y * 0 = 0
        return basis, [{(0, (0, 0)): ring.field.raw.one}]

    monkeypatch.setattr(fpmodules, "_buchberger", corrupted)
    with pytest.raises(AssertionError, match="syzygy identity failed"):
        syzygies(R, [_ideal_vec(X), _ideal_vec(Y)])


def test_preimage_of_ideal_under_multiplication():
    out = preimage_submodule(R, [_ideal_vec(X * X)], [_ideal_vec(X)])
    gb = module_gb(R, out, 1)
    assert _basis_vectors(gb) == (_ideal_vec(X),)


def test_preimage_under_zero_map_is_everything():
    units = unit_vectors(R, 2)
    zero_cols = [ModuleVector.zero(Q, 2, 1) for _ in range(2)]
    out = preimage_submodule(R, [], zero_cols)
    M = FPModule(R, 2, out)
    assert all(M.contains(u) for u in units)


def test_preimage_of_full_target_is_everything():
    units = unit_vectors(R, 1)
    target_units = unit_vectors(R, 1)
    out = preimage_submodule(R, target_units, [_ideal_vec(X)])
    assert FPModule(R, 1, out).contains(units[0])


def test_kernel_of_multiplication():
    M = FPModule.cyclic(R, [X * X])
    K, embedding = kernel_of_map(ModuleMap(M, M, [_ideal_vec(X)]))
    assert K == FPModule.cyclic(R, [X])
    assert embedding == [_ideal_vec(X)]


def test_kernel_of_identity_is_zero():
    M = FPModule.cyclic(R, [X * X])
    K, _ = kernel_of_map(ModuleMap(M, M, [_ideal_vec(R.one())]))
    assert K.is_zero()


def test_kernel_of_zero_map_is_source():
    M = FPModule.cyclic(R, [X * X])
    K, _ = kernel_of_map(ModuleMap(M, M, [ModuleVector.zero(Q, 2, 1)]))
    assert K == M


def test_subquotient_cyclic():
    free = FPModule.free(R, 1)
    H = subquotient(unit_vectors(R, 1), [_ideal_vec(X), _ideal_vec(Y)], free)
    assert H == FPModule.cyclic(R, [X, Y])
    assert H.length() == 1


def test_subquotient_exactness_gives_zero():
    free = FPModule.free(R, 1)
    gens = [_ideal_vec(X), _ideal_vec(Y * Y)]
    H = subquotient(gens, gens, free)
    assert H.is_zero()


def test_subquotient_torsion_slice():
    ambient = FPModule.cyclic(R, [X * X * Y])
    ker = [_ideal_vec(Y)]
    img = [_ideal_vec(X * X * Y), _ideal_vec(Y * Y)]
    H = subquotient(ker, img, ambient)
    assert H.length() == 2


def test_subquotient_rejects_outside_image():
    free = FPModule.free(R, 1)
    with pytest.raises(ImageNotInKernel):
        subquotient([_ideal_vec(X)], [_ideal_vec(Y)], free)


@pytest.mark.parametrize("img", [[], [_ideal_vec(X)]])
def test_subquotient_rejects_kernel_generators_of_wrong_rank(img):
    free = FPModule.free(R, 1)
    with pytest.raises(RingMismatch):
        subquotient([_vec(X, Y)], img, free)


def test_length_values():
    assert FPModule.cyclic(R, [X, Y * Y]).length() == 2
    assert FPModule.cyclic(R, [X]).length() is INFINITE
    diag = [_vec(X, _zero()), _vec(_zero(), X), _vec(Y, _zero()), _vec(_zero(), Y)]
    assert FPModule(R, 2, diag).length() == 2


def test_zero_module():
    Z = FPModule(R, 0)
    assert Z.length() == 0
    assert Z.is_zero()
    assert Z.support_dimension() == -1


def test_support_dimension():
    assert FPModule.cyclic(R, [X]).support_dimension() == 1
    assert FPModule.cyclic(R, [X, Y * Y]).support_dimension() == 0
    assert FPModule.free(R, 1).support_dimension() == 2


def _annihilator_dimension(M):
    """Reference for `support_dimension`: Supp M is the union over the
    generators e_i of V(relations : e_i), so its dimension is the largest
    dimension of the annihilators, each read off a rank-1 basis."""
    ring, rels = M.ring, list(M.relations)
    best = -1
    for e in unit_vectors(ring, M.rank):
        best = max(best, module_gb(ring, preimage_submodule(ring, rels, [e]), 1).dimension())
    return best


_DIMENSION_POLYS = [R.zero(), R.one(), X, Y, X * Y, X * X, Y * Y, X - R.one()]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3).flatmap(lambda rank: st.lists(
    st.lists(st.sampled_from(_DIMENSION_POLYS), min_size=rank, max_size=rank),
    max_size=3).map(lambda rows: (rank, rows))))
def test_basis_dimension_is_the_support_dimension(family):
    """Read off the leads position by position, the dimension of R^rank
    modulo a submodule is the largest dimension of a generator's
    annihilator."""
    rank, rows = family
    M = FPModule(R, rank, [_vec(*row) for row in rows])
    assert M.support_dimension() == _annihilator_dimension(M)


def test_support_dimension_computes_no_syzygies(monkeypatch):
    """A module whose annihilators take seconds to build: the dimension
    comes off its own basis."""
    S = RingSpec(FieldSpec.prime_field(7), ("x", "y", "z"))
    rows = [["z", "x^2", "x^2"], ["x^2", "1", "z"], ["y", "x*z", "y^2 + x"],
            ["x + 6", "y*z", "x"]]
    M = FPModule(S, 3, [_vec(*(parse_polynomial(S, f) for f in row)) for row in rows])
    real, calls = fpmodules.syzygies, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fpmodules, "syzygies", counted)
    assert M.support_dimension() == 1
    assert len(calls) == 0


def test_origin_support():
    assert FPModule.cyclic(R, [X, Y * Y]).local_length() == 2
    off = FPModule.cyclic(R, [X - R.one(), Y])
    assert off.length() == 1
    with pytest.raises(SupportNotAtOrigin):
        off.local_length()
    assert FPModule.cyclic(R, [X]).local_length() is INFINITE


def test_local_length():
    assert FPModule.cyclic(R, [X, Y * Y]).local_length() == 2
    assert FPModule.cyclic(R, [X]).local_length() is INFINITE
    assert FPModule(R, 0).local_length() == 0
    # k[x,y]/(x^2 - x, y) is k x k, one point at the origin and one at x = 1
    with pytest.raises(SupportNotAtOrigin):
        FPModule.cyclic(R, [X * X - X, Y]).local_length()


def test_gamma_saturation_splits_torsion():
    M = FPModule.cyclic(R, [X * X * Y])
    gamma, quotient = gamma_saturation(M, X)
    assert quotient == FPModule.cyclic(R, [Y])
    assert not gamma.is_zero()
    assert gamma.length() is INFINITE


def test_gamma_saturation_nonzerodivisor():
    M = FPModule.cyclic(R, [X * X])
    gamma, quotient = gamma_saturation(M, Y)
    assert gamma.is_zero()
    assert quotient == M


def test_gamma_saturation_killed_module():
    M = FPModule.cyclic(R, [X])
    gamma, quotient = gamma_saturation(M, X)
    assert gamma == M
    assert quotient.is_zero()


def test_quotient_by_polys():
    M = FPModule.free(R, 1)
    assert M.quotient_by_polys([X, Y * Y]).length() == 2


def test_module_nf_cofactor_identity():
    gb = module_gb(R, [_ideal_vec(X), _ideal_vec(Y * Y)], 1)
    v = _ideal_vec(Y ** 3 + X * Y + R.one())
    r, cof = _divide(gb, v)
    assert _plus_combination(r, cof, _basis_vectors(gb)) == v
    assert r == _ideal_vec(R.one())


def test_map_well_definedness_checked():
    M = FPModule.cyclic(R, [X])
    free = FPModule.free(R, 1)
    with pytest.raises(MapNotWellDefined):
        ModuleMap(M, free, unit_vectors(R, 1))
    with pytest.raises(MapNotWellDefined):
        ModuleMap(M, M, [])


def test_vector_ring_mismatch():
    with pytest.raises(RingMismatch):
        ModuleVector((X, Polynomial.variable(F2, 2, 0)))


A2 = RingSpec(F2, ("x", "y"))
AX, AY = A2.variable("x"), A2.variable("y")
BASE = FPModule.cyclic(A2, [AX * AX, AY * AY])

_SMALL_POLYS = [A2.zero(), A2.one(), AX, AY, AX + AY, AX * AY,
                AX + AX * AY, AY + AX * AX]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_SMALL_POLYS))
def test_rank_nullity_for_multiplication(p):
    phi = ModuleMap(BASE, BASE, [ModuleVector((p,))])
    K, _ = kernel_of_map(phi)
    image = subquotient(list(phi.matrix), [], BASE)
    coker = FPModule(A2, BASE.rank, list(BASE.relations) + list(phi.matrix))
    assert BASE.length() - K.length() == image.length()
    assert image.length() == BASE.length() - coker.length()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(_SMALL_POLYS), min_size=4, max_size=4))
def test_length_additive_over_kernel_sequence(entries):
    source = FPModule(A2, 2, [ModuleVector((AX * AX, A2.zero())),
                              ModuleVector((A2.zero(), AX * AX)),
                              ModuleVector((AY * AY, A2.zero())),
                              ModuleVector((A2.zero(), AY * AY))])
    cols = [ModuleVector((entries[0], entries[1])),
            ModuleVector((entries[2], entries[3]))]
    phi = ModuleMap(source, source, cols)
    K, _ = kernel_of_map(phi)
    image = subquotient(list(phi.matrix), [], source)
    assert K.length() + image.length() == source.length()


# Frozen outputs of the syzygy-tracking loop. The S-pair processing order
# decides which syzygies come out (and so the presentations printed by the
# CLI), so these pin that order: lcm degree, then monomial order, then the
# index pair.

def _parsed_vec(ring, *texts):
    return ModuleVector(tuple(parse_polynomial(ring, t) for t in texts))


def test_syzygies_frozen_pair_order():
    family = [_parsed_vec(R, "x^2", "y"), _parsed_vec(R, "x*y", "x"),
              _parsed_vec(R, "y^2", "x + y"), _parsed_vec(R, "x", "y^2")]
    assert [c.to_str(R) for c in syzygies(R, family)] == [
        "[-x*y^2, x^2*y + x*y^2 - x - y, -x^2*y + x, x*y]",
        "[-x^2*y + y^3 - x, x^3 + x^2*y - x*y^2 - y^3 + y, -x^3 + x*y^2, x^2 - y^2]",
        "[-x*y^3, x^2*y^2 + x*y^3 - x*y - y^2, -x^2*y^2 + x*y, x*y^2]",
        "[-y^4 + x*y, x*y^3 + y^4 - x^2 - x*y - y^2, -x*y^3 + x^2, y^3]",
        "[-x^2*y^2, x^3*y + x^2*y^2 - x^2 - x*y, -x^3*y + x^2, x^2*y]",
        "[-x^3*y - x^2, x^4 + x^3*y - y^2, -x^4 + x*y, x^3]",
        "[-y^5, x*y^4 + y^5 - y^3 - x - y, -x*y^4 + x, y^4 + x*y]",
        "[y^3 - x, -x*y^2 + y, 0, x^2 - y^2]",
        "[-x^2*y, x^3 + x^2*y - y^3, -x^3 + x*y^2, 0]",
        "[0, y^4 - x^2 - x*y, -x*y^3 + x^2, x^2*y]",
    ]
    family = [_parsed_vec(R, "x", "0"), _parsed_vec(R, "y", "0"),
              _parsed_vec(R, "x*y", "x"), _parsed_vec(R, "y^2", "y"),
              _parsed_vec(R, "0", "x*y")]
    assert [c.to_str(R) for c in syzygies(R, family)] == [
        "[y, -x, 0, 0, 0]",
        "[-y, x, 0, 0, 0]",
        "[0, x*y, 0, -x, 1]",
        "[y^2, 0, -y, 0, 1]",
        "[y^2, -x*y, -y, x, 0]",
        "[y^2, 0, 0, -x, 1]",
        "[0, 0, y, -x, 0]",
    ]


def test_kernel_of_map_frozen_pair_order():
    A = RingSpec(F2, ("x", "y"), quotient=(AX * AX, AY * AY))
    free = FPModule.free(A, 2)
    phi = ModuleMap(free, free, [_parsed_vec(A, "x", "y"),
                                 _parsed_vec(A, "y", "x + y")])
    K, embedding = kernel_of_map(phi)
    assert [v.to_str(A) for v in embedding] == [
        "[y, x + y]", "[x, y]", "[y^2, 0]", "[0, y^2]", "[0, x^2]", "[0, x*y]"]
    assert K.describe() == {"rank": 6, "relations": [
        "[0, 0, 0, 0, 0, y]", "[0, 0, 0, 0, 0, x]", "[0, 0, 0, 0, 1, 0]",
        "[0, 0, 0, 1, 0, 0]", "[0, 0, 1, 0, 0, 0]", "[0, x, 0, 0, 0, 1]",
        "[0, y^2, 0, 0, 0, 0]", "[y, 0, 0, 0, 0, 1]", "[x, y, 0, 0, 0, 1]"]}


def test_module_normal_form_on_unreduced_reducers_frozen():
    """Position-over-term division with cofactors, first divisor in list
    order, against reducers that are not a reduced basis (frozen from the
    code before division worked on raw terms)."""
    reducers = [_parsed_vec(R, "x*y + y", "x"), _parsed_vec(R, "x^2", "y^2 - 1"),
                _parsed_vec(R, "0", "x*y - y^2"), _parsed_vec(R, "y^2", "x"),
                _parsed_vec(R, "0", "y^3 + x")]
    v = _parsed_vec(R, "3*x^3*y^2 + x^2*y - 2*y^3", "x^4 + 5*x*y^3 - y + 7")
    r, cof = _divide(GroebnerBasis(R, [g.raw for g in reducers], 2), v)
    assert r.to_str(R) == "[y, x^4 - x^2 - 3*y^2 + x - y + 7]"
    assert [R.poly_to_str(c) for c in cof] == [
        "3*x^2*y - 3*x*y + x + 3*y - 1", "0", "-3*x^2 - 3*x*y + 2*y^2 + 3*x + 3*y - 3",
        "-2*y - 3", "2*y + 3"]
    assert _plus_combination(r, cof, reducers) == v


# The vector type holds the division kernel's raw vector; its polynomial
# components are built on request.

F7 = FieldSpec.prime_field(7)


@st.composite
def _raw_module_vectors(draw):
    field = draw(st.sampled_from([F7, Q]))
    rank = draw(st.integers(0, 3))
    if not rank:
        return ModuleVector.zero(field, 2, 0)
    coeffs = (st.integers(1, 6) if field == F7 else
              st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool))
    keys = st.tuples(st.integers(0, rank - 1),
                     st.tuples(st.integers(0, 3), st.integers(0, 3)))
    raw = draw(st.dictionaries(keys, coeffs, max_size=6))
    return ModuleVector._from_raw(field, 2, rank, raw)


@settings(max_examples=60, deadline=None)
@given(_raw_module_vectors())
def test_vector_round_trips_through_components(v):
    ring = RingSpec(v.field, ("x", "y"))
    comps = v.components
    w = ModuleVector(comps)
    assert len(comps) == v.rank
    assert w.to_str(ring) == v.to_str(ring)
    assert v.to_str(ring) == "[" + ", ".join(ring.poly_to_str(c) for c in comps) + "]"
    assert w.raw == v.raw and hash(w) == hash(v)
    if v.rank:
        assert w == v
    else:
        # no component to take the ring from
        assert w.field is None and w.rank == 0


def test_vectors_over_different_rings_differ():
    over_q = ModuleVector((Polynomial.one(Q, 2), Polynomial.variable(Q, 2, 0)))
    over_f7 = ModuleVector((Polynomial.one(F7, 2), Polynomial.variable(F7, 2, 0)))
    assert over_q.raw == over_f7.raw  # Fraction(1) == 1
    assert over_q != over_f7
    assert ModuleVector.zero(Q, 2, 2) != ModuleVector.zero(F7, 2, 2)
    assert ModuleVector.zero(Q, 2, 1) != ModuleVector.zero(Q, 3, 1)
    assert ModuleVector.zero(Q, 2, 1) != ModuleVector.zero(Q, 2, 2)


_SMALL_Q_POLYS = [R.zero(), R.one(), X, -Y, X * 2 + Y, X * Y - R.one() * 3,
                  X * X + Y * 5]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_apply_vec_matches_component_arithmetic(data):
    ring, polys = data.draw(st.sampled_from([(A2, _SMALL_POLYS), (R, _SMALL_Q_POLYS)]))
    entries = data.draw(st.lists(st.sampled_from(polys), min_size=8, max_size=8))
    free = FPModule.free(ring, 2)
    cols = [ModuleVector(entries[0:2]), ModuleVector(entries[2:4]), ModuleVector(entries[4:6])]
    v = ModuleVector(entries[6:8] + [entries[0]])
    expected = _plus_combination(ModuleVector((ring.zero(), ring.zero())), v.components, cols)
    assert ModuleMap(FPModule.free(ring, 3), free, cols).apply_vec(v) == expected


def test_rank_zero_modules_frozen():
    """Rank 0 takes the general path; outputs frozen from the code that
    still had a shortcut for it in each of these routines."""
    from mcalc.koszul import VirtualModule, koszul_homology, phi_apply, reduce_class
    A = RingSpec(F7, ("x", "y"), quotient=(parse_polynomial(RingSpec(F7, ("x", "y")), "x^3"),))
    x, y = A.variable("x"), A.variable("y")
    zero, free = FPModule(A, 0), FPModule.free(A, 2)
    empty = {"rank": 0, "relations": []}

    K, embedding = kernel_of_map(ModuleMap(zero, free, []))
    assert (K.describe(), embedding) == (empty, [])
    K, embedding = kernel_of_map(ModuleMap(free, zero, [ModuleVector.zero(F7, 2, 0)] * 2))
    assert K.describe() == {"rank": 2, "relations": ["[0, x^3]", "[x^3, 0]"]}
    assert [v.to_str(A) for v in embedding] == ["[1, 0]", "[0, 1]"]

    cols = [ModuleVector.zero(F7, 2, 0)] * 3
    assert [v.to_str(A) for v in preimage_submodule(A, [], cols)] == [
        "[1, 0, 0]", "[0, 1, 0]", "[0, 0, 1]"]

    assert [koszul_homology((x, y), zero, i).describe() for i in range(3)] == [empty] * 3

    gamma, quotient = gamma_saturation(zero, x)
    assert (gamma.describe(), quotient.describe()) == (empty, empty)
    assert gamma.is_zero() and quotient.is_zero()

    r, cofactors = _divide(GroebnerBasis(A, (), 0), ModuleVector.zero(F7, 2, 0))
    assert (r.to_str(A), cofactors, r.is_zero()) == ("[]", [], True)
    assert zero.contains(ModuleVector.zero(F7, 2, 0))

    assert zero.is_zero() and zero.length() == 0 and zero.gb.standard_terms() == []
    assert zero.support_dimension() == -1
    assert reduce_class((x, y), zero).describe() == empty
    assert phi_apply((x,), VirtualModule.of_module(zero)).terms == ()

    assert subquotient([], [], zero).describe() == empty
    assert subquotient([], [], free).describe() == empty
