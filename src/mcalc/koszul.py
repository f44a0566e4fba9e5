"""Koszul complexes, their homology, and virtual-module class operators.

C_i(x, M) is a direct sum of copies of M indexed by strictly increasing
subsets S of the sequence positions, with

    d(e_S (x) m) = sum_j (-1)^{pos(j, S)} x_j e_{S \\ j} (x) m.

Homology in one degree touches only the two neighbouring differentials.
`koszul_homology` presents H_i on the kernel generators of d_i, a tracked
run. When only lengths are wanted and the complex is graded,
`graded_lengths` reads them off the Hilbert series of the cokernels of the
d_i instead, one untracked basis each.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from .errors import DimensionDropViolated, OutOfRange, RingMismatch
from .fpmodules import FPModule, ModuleVector, gamma_saturation, preimage_submodule, subquotient
from .groebner import _basis, read_hilbert_series
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


def graded_lengths(x, M: FPModule, H0: FPModule):
    """[ℓ H_1, .., ℓ H_n] off Hilbert series of cokernels, for H0 = M/(x)M
    of finite length; None unless M's basis is graded and every x_j is
    nonzero and homogeneous, of degree δ_j.

    Then C_i = ⊕_{|S|=i} M(-δ_S) and every d_i has degree 0. With K_i =
    coker d_i (K_1 = H_0, K_{n+1} = C_n), the exact sequences 0 -> ker d_i
    -> C_i -> C_(i-1) -> K_i -> 0 and 0 -> im d_(i+1) -> C_i -> K_(i+1) -> 0
    give HS(H_i) = HS(K_i) + HS(K_(i+1)) - HS(C_(i-1)) (Bruns-Herzog, Ch. 4).
    For 2 <= i <= n, K_i is R^(rank C_(i-1)) modulo C_(i-1)'s relations and
    d_i's columns, one untracked basis, graded by δ_S on block S. H_i is a
    subquotient of C_i killed by (x), so Supp H_i ⊆ Supp H_0 and its series
    has no pole: its value at t = 1 is the length, at the origin too.
    """
    degrees = [{sum(e) for e in f.terms} for f in x]
    if not (M.gb.is_graded() and all(len(d) == 1 for d in degrees)):
        return None
    n, g, delta = len(x), M.rank, [min(d) for d in degrees]
    shifts = [[sum(delta[j] for j in S) for S in _subsets(n, i)] for i in range(n + 1)]
    series = M.gb.hilbert_series()
    C = [Counter() for _ in shifts]  # HS(C_i) = HS(M) * Σ_S t^δ_S
    for c, block in zip(C, shifts):
        for k, a in series.items():
            for s in block:
                c[k + s] += a

    def cokernel(i):  # HS(K_i) for 2 <= i <= n
        copies = M.gb._copies(len(shifts[i - 1]))
        gb = _basis(M.ring, [*copies.raws, *(v.raw for v in _differential_columns(x, M, i))],
                    copies.rank)
        return gb.hilbert_series([s for s in shifts[i - 1] for _ in range(g)])

    K = [H0.gb.hilbert_series(), *map(cokernel, range(2, n + 1)), C[n]]  # K_1 .. K_(n+1)
    out = []
    for i in range(1, n + 1):
        h = Counter(K[i - 1])
        h.update(K[i])
        h.subtract(C[i - 1])
        d, e, _ = read_hilbert_series(h, M.ring.nvars)
        assert d <= 0, f"H_{i} has a pole, though Supp H_{i} lies in Supp H_0"
        out.append(e)
    return out


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
