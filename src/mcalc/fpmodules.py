"""Finitely presented modules over A = k[x_1..x_n]/J.

A module is R^g modulo a relation submodule that always contains J*e_i for
every generator, so A-linearity is explicit. Module Groebner bases use a
position-over-term order (position primary, earlier positions larger).

Every routine here reads and writes one vector format, the raw vector
`groebner` takes and returns, which a `ModuleVector` holds; polynomial
components are built only at the boundary. Rank 0 needs no special case:
its only vector is the empty raw vector.

The engine parts are the ideal engine's, an ideal being the rank-1 case. A
module basis is a `groebner.GroebnerBasis` of rank `rank`, built by the
same input path as an ideal's, and it answers every quotient query:
division, and dimension and lengths from one Hilbert series of its leads.
`groebner._buchberger` also computes syzygies. For `syzygies` input i rides
with a tag, the term 1 at position rank + i, and the loop skips no pairs:
with every S-pair processed, each vector carries its expression on the
inputs at the tag positions, so a remainder led at a tag position is
literally a syzygy and together they generate the full syzygy module. This
is `subquotient`'s tagged elimination, stopped at the tags. Pending pairs
wait in a heap keyed once per pair by (lcm degree, order key of the lcm,
index pair); the index pair breaks ties, which makes the syzygies that come
out, and so every presentation built from them, deterministic. For
`module_gb` the loop follows signatures at every rank and skips pairs by
their criteria, and every basis is then certified by
`groebner._self_check`, whose criteria need no pair order. Over
Q a `module_gb` basis is computed on primitive integer vectors, over F_p(t)
on primitive vectors over F_p[t], and syzygies on the field's own values,
as the `groebner` module describes. A basis that extends one a module
already holds takes that one as `known` (M/(f)M's extends M's, both of
`subquotient`'s extend the ambient module's): at rank > 1 the loop never
pairs its vectors with each other (see `groebner._basis`).

Preimages of a submodule under a map of free modules ("modulo" in
Greuel-Pfister, *A Singular Introduction to Commutative Algebra*, 2.8) take
one of two routes. Where the output is a submodule, a presentation's
relations, it comes off one certified untracked basis: `subquotient` reads
them off an elimination basis on R^b + R^a (`GroebnerBasis._block`), and a
Koszul term copies M's basis blockwise (`GroebnerBasis._copies`), with no
Buchberger run at all; `gamma_saturation` iterates `subquotient`'s colon.
Where the output is the generator list itself, it takes tracked syzygies:
`preimage_submodule` returns the first coordinates of one syzygy
computation, sliced and deduplicated on raw keys, for the embedding
`kernel_of_map` returns and the kernel generators of Koszul homology.
"""

from __future__ import annotations

from .errors import ImageNotInKernel, MapNotWellDefined, RingMismatch, SaturationCapExceeded
from .groebner import (GroebnerBasis, _basis, _buchberger, _linear_combination,
                       _raw_components, _raw_vector)
from .polyring import Polynomial, RingSpec

SATURATION_CAP = 64


class ModuleVector:
    """Element of a free module R^rank. `raw` is `groebner`'s raw vector
    (see the comment above `groebner._raw_vector`), never mutated; the
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


def module_gb(ring: RingSpec, vectors, rank: int, known: GroebnerBasis = None) -> GroebnerBasis:
    """Reduced Groebner basis of the given vectors plus J*e_i for every
    position, and the held basis known, extended as `groebner._basis` does."""
    return _basis(ring, _raws(vectors, rank), rank, known)


def syzygies(ring: RingSpec, vectors):
    """Generators of {c in R^s : sum c_i * vectors_i = 0}, s = len(vectors).

    This is an exact computation over R; quotient relations are NOT folded in,
    so callers wanting syzygies over A include the relation vectors
    explicitly. The loop drops repeated syzygies and verifies every one it
    returns against the inputs.
    """
    vecs = list(vectors)
    if not vecs:
        return []
    rank = vecs[0].rank
    _, syz = _buchberger(ring, _raws(vecs, rank), rank, track=True)
    return [ModuleVector._from_raw(ring.field, ring.nvars, len(vecs), raw) for raw in syz]


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
        self._hold(module_gb(ring, list(relations), rank))

    @classmethod
    def _of_basis(cls, gb: GroebnerBasis) -> "FPModule":
        """R^gb.rank modulo the submodule of which gb is the reduced basis."""
        M = cls.__new__(cls)
        M._hold(gb)
        return M

    def _hold(self, gb):
        ring = self.ring = gb.ring
        self.rank, self.gb = gb.rank, gb
        self.relations = tuple(ModuleVector._from_raw(ring.field, ring.nvars, gb.rank, v)
                               for v in gb.raws)

    @classmethod
    def free(cls, ring: RingSpec, rank: int) -> "FPModule":
        return cls(ring, rank)

    @classmethod
    def cyclic(cls, ring: RingSpec, ideal_gens=()) -> "FPModule":
        rels = [ModuleVector((ring.check_member(f),)) for f in ideal_gens]
        return cls(ring, 1, rels)

    def quotient_by_polys(self, polys) -> "FPModule":
        """M / (f_1, .., f_k)M, which is M itself for no f: the f_j * e_i
        extend M's basis, held as `known`."""
        ring = self.ring
        polys = [ring.check_member(f) for f in polys]
        if not polys:
            return self
        return FPModule._of_basis(module_gb(ring, [
            ModuleVector.unit(ring.field, ring.nvars, self.rank, i, f)
            for f in polys for i in range(self.rank)], self.rank, known=self.gb))

    def contains(self, v: ModuleVector) -> bool:
        """True when the vector v of R^rank lies in the relation submodule."""
        return not self.gb.reduce(v.raw)

    def length(self):
        return self.gb.length()

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
        ring = self.source.ring
        out = _linear_combination(ring, v.raw, [col.raw for col in self.matrix])
        return ModuleVector._from_raw(ring.field, ring.nvars, self.target.rank, out)


def subquotient(ker_gens, img_gens, ambient: FPModule) -> FPModule:
    """span(ker_gens)/(span(img_gens) + relations), presented on ker_gens.

    The relations are the preimage of span(img_gens) + relations under
    e_i -> ker_gens[i] ("modulo" in Greuel-Pfister, *A Singular Introduction
    to Commutative Algebra*, 2.8). With b = ambient.rank and a =
    len(ker_gens), they come off one untracked basis on R^b + R^a, of the
    (ker_gens[i], e_(b+i)) and the (l, 0) for l in img_gens and the
    relations: its elements led at position b or later, shifted down by b,
    are the preimage's reduced basis (see `GroebnerBasis._block`). Both
    bases, this one and the check that img_gens lie in span(ker_gens) +
    relations, extend ambient's basis, held as `known`.
    """
    ring, b = ambient.ring, ambient.rank
    ker_gens, img_gens = list(ker_gens), list(img_gens)
    kers, img = _raws(ker_gens, b), _raws(img_gens, b)
    if img:
        check = module_gb(ring, ker_gens, b, known=ambient.gb)
        if any(map(check.reduce, img)):
            raise ImageNotInKernel("image generator outside the kernel span")
    one, origin = ring.field.raw.one, (0,) * ring.nvars
    inputs = [{**k, (b + i, origin): one} for i, k in enumerate(kers)]
    gb = _basis(ring, inputs + img, b + len(kers), known=ambient.gb)
    return FPModule._of_basis(gb._block(b))


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

    The quotient is R^rank/S for S = rel : f^infinity. From S = rel, each
    step takes S : f, which `subquotient` reads off one untracked elimination
    basis, until S : f = S, with a hard cap: that equality of reduced bases
    certifies that f is a nonzerodivisor on the quotient. Gamma = S/rel is
    presented on S's basis.
    """
    ring = M.ring
    ring.check_member(f)
    fcols = [ModuleVector.unit(ring.field, ring.nvars, M.rank, i, f) for i in range(M.rank)]
    S = M
    for _ in range(SATURATION_CAP):
        T = subquotient(fcols, [], S)
        if T.gb.raws == S.gb.raws:
            return subquotient(S.relations, [], M), S
        S = T
    raise SaturationCapExceeded(f"(0 : f^k) did not stabilize within {SATURATION_CAP} steps")
