"""Koszul complexes, their homology, and virtual-module class operators.

C_i(x, M) is a direct sum of copies of M indexed by strictly increasing
subsets S of the sequence positions, with

    d(e_S (x) m) = sum_j (-1)^{pos(j, S)} x_j e_{S \\ j} (x) m.

Homology in one degree touches only the two neighbouring differentials.
"""

from __future__ import annotations

import itertools
import math

from .errors import DimensionDropViolated, OutOfRange, RingMismatch
from .fpmodules import FPModule, ModuleVector, gamma_saturation, preimage_submodule, subquotient
from .polyring import INFINITE, RingSpec


def _check_sequence(x, ring: RingSpec):
    x = list(x)
    for f in x:
        ring.check_member(f)
    return x


def _subsets(n: int, i: int):
    return list(itertools.combinations(range(n), i))


def _koszul_term(x, M: FPModule, i: int) -> FPModule:
    """C_i = M^(n choose i): M's basis copied into each block is already the
    reduced basis of the relations copied blockwise."""
    return FPModule._of_basis(M.gb._copies(math.comb(len(x), i)))


def _differential_columns(x, M: FPModule, i: int):
    """Columns of d_i : C_i -> C_{i-1} in R^{rank C_{i-1}}."""
    n = len(x)
    g = M.rank
    ring = M.ring
    src_slots = _subsets(n, i)
    tgt_slots = _subsets(n, i - 1)
    tgt_index = {S: k for k, S in enumerate(tgt_slots)}
    rank_tgt = len(tgt_slots) * g
    ops = ring.field.raw
    signed = [(f.terms.items(), [(e, ops.sub(ops.zero, c)) for e, c in f.terms.items()])
              for f in x]
    cols = []
    for S in src_slots:
        for a in range(g):
            raw = {}  # S minus S[t] differs for each t: no entry is written twice
            for t, j in enumerate(S):
                pos = tgt_index[S[:t] + S[t + 1:]] * g + a
                raw.update(((pos, e), c) for e, c in signed[j][t % 2])
            cols.append(ModuleVector._from_raw(ring.field, ring.nvars, rank_tgt, raw))
    return cols


def koszul_homology(x, M: FPModule, i: int) -> FPModule:
    """H_i(x, M) = ker d_i / im d_{i+1}, presented on its kernel generators;
    H_0 = M/(x)M, presented on M's generators, which is M itself for the
    empty sequence."""
    x = _check_sequence(x, M.ring)
    n = len(x)
    if not 0 <= i <= n:
        raise OutOfRange(f"homology degree {i} out of range 0..{n}")
    if i == 0:
        # im d_1 is spanned by the x_j * e_a
        return M.quotient_by_polys(x)
    # d_i is well defined by construction: no relation of C_i is checked
    ker_gens = preimage_submodule(M.ring, _koszul_term(x, M, i - 1).relations,
                                  _differential_columns(x, M, i))
    img_gens = [] if i == n else _differential_columns(x, M, i + 1)
    return subquotient(ker_gens, img_gens, _koszul_term(x, M, i))


class VirtualModule:
    """Formal integer combination of presented modules.

    Equality of virtual modules is only meaningful through evaluation
    functionals (length, multiplicity); the term list is bookkeeping.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingSpec, terms=()):
        combined = []
        for coeff, mod in terms:
            if mod.ring != ring:
                raise RingMismatch("virtual module terms over different rings")
            if coeff == 0 or mod.is_zero():
                continue
            for k, (c0, m0) in enumerate(combined):
                if m0 == mod:
                    combined[k] = (c0 + coeff, m0)
                    break
            else:
                combined.append((coeff, mod))
        self.ring = ring
        self.terms = tuple((c, m) for c, m in combined if c != 0)

    @classmethod
    def of_module(cls, M: FPModule) -> "VirtualModule":
        return cls(M.ring, [(1, M)])

    def length_evaluation(self):
        """Integer value of the length functional, or INFINITE."""
        total = 0
        for c, m in self.terms:
            l = m.length()
            if l is INFINITE:
                return INFINITE
            total += c * l
        return total

    def __repr__(self):
        return f"VirtualModule({len(self.terms)} terms)"


def phi_apply(x, V: VirtualModule) -> VirtualModule:
    """Alternating sum of Koszul homology, term by term; the empty sequence,
    with H_0 = M alone, acts as the identity."""
    x = _check_sequence(x, V.ring)
    return VirtualModule(V.ring, [(coeff * (-1) ** i, koszul_homology(x, mod, i))
                                  for coeff, mod in V.terms for i in range(len(x) + 1)])


def reduce_class(x, M: FPModule) -> FPModule:
    """Single-module representative of Phi_x([M]) via torsion splitting.

    Iterates N -> (N/Gamma_(f)(N)) / f*(N/Gamma_(f)(N)) over the sequence.
    Each cut must drop the support dimension by exactly one, read off the
    module bases of N and N/fN.
    """
    x = _check_sequence(x, M.ring)
    N = M
    for f in x:
        if N.is_zero():
            continue
        before = N.support_dimension()
        after = N.quotient_by_polys([f]).support_dimension()
        if after != before - 1:
            raise DimensionDropViolated(
                f"support dimension went {before} -> {after} under the next cut",
                before=before, after=after)
        _, torsion_free = gamma_saturation(N, f)
        N = torsion_free.quotient_by_polys([f])
    return N
