"""Finitely presented modules over A = k[x_1..x_n]/J.

A module is R^g modulo a relation submodule that always contains J*e_i for
every generator, so A-linearity is explicit. Module Groebner bases use a
position-over-term order (position primary, earlier positions larger).

Every routine here reads and writes one vector format, the division
kernel's raw vector, which a `ModuleVector` holds; polynomial components are
built only at the boundary. Rank 0 needs no special case: its only vector is
the empty raw vector.

The engine parts are the ideal engine's, an ideal being the rank-1 case. A
module basis is a `groebner.GroebnerBasis` of rank `rank`, built by the
same input path as an ideal's, and it answers every quotient query:
division, standard terms, dimension and local length.
`groebner._buchberger` also computes syzygies. For `syzygies` the loop skips
no pairs: with every S-pair processed, each element carries its expression
on the inputs, so a reduction to zero is literally a syzygy and together
they generate the full syzygy module. Pending pairs wait in a heap keyed
once per pair by (lcm degree, order key of the lcm, index pair); the index
pair breaks ties, which makes the syzygies that come out, and so every
presentation built from them, deterministic. For `module_gb` the loop skips
pairs by the chain criterion, pairs of two single terms and, at rank 1 only,
by the product criterion, and every basis is then certified by
`groebner._self_check`, whose criteria need no pair order.

Kernels, subquotient presentations and saturations all come
from `preimage_submodule`, the preimage of a submodule under a map of free
modules ("modulo" in Greuel-Pfister, *A Singular Introduction to Commutative
Algebra*, 2.8): the first coordinates of one syzygy computation, sliced
and deduplicated on raw keys.
"""

from __future__ import annotations

from .errors import ImageNotInKernel, MapNotWellDefined, RingMismatch, SaturationCapExceeded
from .groebner import (GroebnerBasis, _basis, _buchberger, _raw_components, _raw_vector,
                       _submul)
from .polyring import INFINITE, Polynomial, RingSpec

SATURATION_CAP = 64


class ModuleVector:
    """Element of a free module R^rank. `raw` is the division kernel's raw
    vector (see the comment above `groebner._raw_vector`), never mutated; the
    constructor takes polynomials by position, and `_from_raw` a raw vector.
    """

    __slots__ = ("field", "nvars", "rank", "raw")

    def __init__(self, components):
        comps = tuple(components)
        for c in comps[1:]:
            if c.field != comps[0].field or c.nvars != comps[0].nvars:
                raise RingMismatch("vector components from different rings")
        # a vector of rank 0 has no component to take its ring from
        self.field, self.nvars = (comps[0].field, comps[0].nvars) if comps else (None, None)
        self.rank = len(comps)
        self.raw = _raw_vector(comps)

    @classmethod
    def _from_raw(cls, field, nvars, rank, raw):
        v = cls.__new__(cls)
        v.field, v.nvars, v.rank, v.raw = field, nvars, rank, raw
        return v

    @classmethod
    def zero(cls, field, nvars, rank):
        return cls._from_raw(field, nvars, rank, {})

    @classmethod
    def unit(cls, field, nvars, rank, i, poly=None):
        if poly is None:
            return cls._from_raw(field, nvars, rank, {(i, (0,) * nvars): field.raw.one})
        if poly.field != field or poly.nvars != nvars:
            raise RingMismatch("vector components from different rings")
        return cls._from_raw(field, nvars, rank,
                             {(i, e): c for e, c in poly.terms.items()})

    @property
    def components(self):
        return _raw_components(self.field, self.nvars, self.rank, self.raw)

    def is_zero(self) -> bool:
        return not self.raw

    def __eq__(self, other):
        # the ring must match too: Fraction(1) == 1, so Q and F_p raws can agree
        return (isinstance(other, ModuleVector) and self.raw == other.raw
                and self.rank == other.rank and self.field == other.field
                and self.nvars == other.nvars)

    def __hash__(self):
        return hash(frozenset(self.raw.items()))

    def to_str(self, ring: RingSpec) -> str:
        return "[" + ", ".join(ring.poly_to_str(c) for c in self.components) + "]"

    def __repr__(self):
        return f"ModuleVector(rank {self.rank})"


def unit_vectors(ring: RingSpec, rank: int):
    return [ModuleVector.unit(ring.field, ring.nvars, rank, i) for i in range(rank)]


def _raws(vectors, rank):
    """Raw vectors of ModuleVectors that must all have the given rank."""
    if any(v.rank != rank for v in vectors):
        raise RingMismatch("vector of wrong rank")
    return [v.raw for v in vectors]


def _combination(ring: RingSpec, rank: int, cols, v: ModuleVector) -> ModuleVector:
    """The sum of v_i * cols[i] in R^rank, accumulated on raw terms."""
    ops = ring.field.raw
    out = {}
    for (i, e), c in v.raw.items():
        col = ((p, ce, cc) for (p, ce), cc in cols[i].raw.items())
        _submul(out, col, e, ops.sub(ops.zero, c), ops)
    return ModuleVector._from_raw(ring.field, ring.nvars, rank, out)


def module_gb(ring: RingSpec, vectors, rank: int) -> GroebnerBasis:
    """Reduced Groebner basis of the given vectors plus J*e_i for every position."""
    return _basis(ring, _raws(vectors, rank), rank)


def syzygies(ring: RingSpec, vectors):
    """Generators of {c in R^s : sum c_i * vectors_i = 0}, s = len(vectors).

    This is an exact computation over R; quotient relations are NOT folded in,
    so callers wanting syzygies over A include the relation vectors
    explicitly. Every returned syzygy is verified against the inputs, on the
    raw vectors the loop returns.
    """
    vecs = list(vectors)
    if not vecs:
        return []
    rank = vecs[0].rank
    _, syz = _buchberger(ring, _raws(vecs, rank), rank, track=True)
    out = []
    seen = set()
    for raw in syz:
        key = frozenset(raw.items())
        if not raw or key in seen:
            continue
        seen.add(key)
        c = ModuleVector._from_raw(ring.field, ring.nvars, len(vecs), raw)
        assert _combination(ring, rank, vecs, c).is_zero(), "syzygy identity failed"
        out.append(c)
    return out


def preimage_submodule(ring: RingSpec, L, phi_columns):
    """Generators of {u in R^a : phi(u) in span(L)}.

    phi_columns are the a columns of phi in R^b and L lives in R^b. The
    generators are the first a coordinates of the syzygies of the family
    [phi_columns | L], zero and repeated ones dropped.
    """
    a = len(phi_columns)
    if a == 0:
        return []
    out = []
    seen = set()
    for c in syzygies(ring, list(phi_columns) + list(L)):
        u = {k: v for k, v in c.raw.items() if k[0] < a}
        key = frozenset(u.items())
        if u and key not in seen:
            seen.add(key)
            out.append(ModuleVector._from_raw(ring.field, ring.nvars, a, u))
    return out


class FPModule:
    """R^rank modulo a relation submodule, held as its reduced Groebner basis
    `gb`; `relations` are that basis's vectors."""

    __slots__ = ("ring", "rank", "gb", "relations")

    def __init__(self, ring: RingSpec, rank: int, relations=()):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        self.ring = ring
        self.rank = rank
        self.gb = module_gb(ring, list(relations), rank)
        self.relations = tuple(ModuleVector._from_raw(ring.field, ring.nvars, rank, v)
                               for v in self.gb.raws)

    @classmethod
    def free(cls, ring: RingSpec, rank: int) -> "FPModule":
        return cls(ring, rank)

    @classmethod
    def cyclic(cls, ring: RingSpec, ideal_gens=()) -> "FPModule":
        rels = [ModuleVector((ring.check_member(f),)) for f in ideal_gens]
        return cls(ring, 1, rels)

    def quotient_by_polys(self, polys) -> "FPModule":
        """M / (f_1, .., f_k)M."""
        rels = list(self.relations)
        for f in polys:
            self.ring.check_member(f)
            for i in range(self.rank):
                rels.append(ModuleVector.unit(self.ring.field, self.ring.nvars,
                                              self.rank, i, f))
        return FPModule(self.ring, self.rank, rels)

    def contains(self, v: ModuleVector) -> bool:
        """True when the vector v of R^rank lies in the relation submodule."""
        return not self.gb.reduce(v.raw)[0]

    def length(self):
        terms = self.gb.standard_terms()
        return terms if terms is INFINITE else len(terms)

    def local_length(self):
        """Length at the origin, or INFINITE; SupportNotAtOrigin when the
        length is finite but counts points away from the origin too."""
        return self.gb.local_length()

    def is_zero(self) -> bool:
        return self.gb.is_unit_ideal()

    def support_dimension(self) -> int:
        """Dimension of Supp M; -1 for the zero module (empty support).

        The relation basis's leads give it: passing to the initial submodule
        keeps the dimension (Eisenbud, *Commutative Algebra*, Ch. 15)."""
        return self.gb.dimension()

    def __eq__(self, other):
        return (isinstance(other, FPModule) and self.ring == other.ring
                and self.rank == other.rank and self.relations == other.relations)

    def __hash__(self):
        return hash((self.ring, self.rank, self.relations))

    def describe(self) -> dict:
        return {
            "rank": self.rank,
            "relations": [v.to_str(self.ring) for v in self.relations],
        }

    def __repr__(self):
        return f"FPModule(rank {self.rank}, {len(self.relations)} relations)"


class ModuleMap:
    """A-linear map between presented modules, given on free generators."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FPModule, target: FPModule, matrix):
        if source.ring != target.ring:
            raise RingMismatch("map between modules over different rings")
        matrix = tuple(matrix)
        if len(matrix) != source.rank:
            raise MapNotWellDefined("need one column per source generator")
        for col in matrix:
            if col.rank != target.rank:
                raise MapNotWellDefined("column rank does not match the target")
        self.source = source
        self.target = target
        self.matrix = matrix
        for rel in source.relations:
            if not target.contains(self.apply_vec(rel)):
                raise MapNotWellDefined("source relation does not map into target relations")

    def apply_vec(self, v: ModuleVector) -> ModuleVector:
        """Image of v: the sum of v_i times the i-th column."""
        return _combination(self.source.ring, self.target.rank, self.matrix, v)


def subquotient(ker_gens, img_gens, ambient: FPModule) -> FPModule:
    """span(ker_gens)/(span(img_gens) + relations), presented on ker_gens."""
    ring = ambient.ring
    ker_gens = list(ker_gens)
    img_gens = list(img_gens)
    if any(v.rank != ambient.rank for v in ker_gens):
        raise RingMismatch("vector of wrong rank")
    if img_gens:
        check = FPModule(ring, ambient.rank, ker_gens + list(ambient.relations))
        for v in img_gens:
            if not check.contains(v):
                raise ImageNotInKernel("image generator outside the kernel span")
    rels = preimage_submodule(ring, img_gens + list(ambient.relations), ker_gens)
    return FPModule(ring, len(ker_gens), rels)


def kernel_of_map(phi: ModuleMap):
    """Kernel of a presented-module map, with its embedding into the source.

    Returns (K, embedding) where embedding[i] is the image in R^source_rank of
    the i-th kernel generator.
    """
    src = phi.source
    K = preimage_submodule(src.ring, list(phi.target.relations), list(phi.matrix))
    for v in K:
        assert phi.target.contains(phi.apply_vec(v)), "kernel generator misses target relations"
    kernel = subquotient(K, [], src)
    return kernel, K


def gamma_saturation(M: FPModule, f: Polynomial):
    """Gamma = (0 :_M f^infinity) and the quotient M/Gamma.

    Iterates (0 : f^k) until the submodule stabilizes (compared by reduced
    module GB), with a hard cap. The returned quotient is checked to have no
    f-torsion.
    """
    ring = M.ring
    ring.check_member(f)
    rel = list(M.relations)
    prev_gb = None
    prev_gens = None
    gamma_gens = None
    fcols = [ModuleVector.unit(ring.field, ring.nvars, M.rank, i, f)
             for i in range(M.rank)]
    cols = unit_vectors(ring, M.rank)
    for _ in range(SATURATION_CAP):
        cols = [_combination(ring, M.rank, fcols, c) for c in cols]  # f^k * e_i
        gens = preimage_submodule(ring, rel, cols)
        gb = module_gb(ring, gens + rel, M.rank)
        if prev_gb is not None and gb.raws == prev_gb.raws:
            gamma_gens = prev_gens
            break
        prev_gb, prev_gens = gb, gens
    if gamma_gens is None:
        raise SaturationCapExceeded(f"(0 : f^k) did not stabilize within {SATURATION_CAP} steps")
    gamma = subquotient(gamma_gens, [], M)
    quotient = FPModule(ring, M.rank, rel + gamma_gens)
    # contract: f is a nonzerodivisor on the quotient
    residual = preimage_submodule(ring, list(quotient.relations), fcols)
    for v in residual:
        assert quotient.contains(v), "saturation left f-torsion behind"
    return gamma, quotient
