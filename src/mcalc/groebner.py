"""Buchberger engine: reduced Groebner bases, normal forms, standard monomials.

All ideal computations happen in k[x_1..x_n] with the ring's quotient
generators folded into the input, so callers work over A = R/J transparently.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .errors import NotZeroDimensional, RingMismatch, UnitIdeal
from .polyring import INFINITE, Monomial, MonomialOrder, Polynomial, RingSpec


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced, monic Groebner basis, sorted ascending by leading monomial."""

    ring: RingSpec
    generators: tuple

    def __post_init__(self):
        order = self.ring.order
        object.__setattr__(self, "generators", tuple(self.generators))
        leads = tuple(g.lead(order)[0] for g in self.generators)
        object.__setattr__(self, "_leads", leads)

    @property
    def order(self) -> MonomialOrder:
        return self.ring.order

    @property
    def lead_monomials(self):
        return self._leads

    def is_unit_ideal(self) -> bool:
        return any(m.is_one() for m in self._leads)

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self).is_zero()


def _divide(f, reducers, leads, order, with_witness=False):
    """Full multivariate division of f by an ordered reducer list.

    Returns (remainder, witness) with f = sum(witness[i]*reducers[i]) + remainder
    and no remainder term divisible by any reducer's leading monomial.
    """
    field, nvars = f.field, f.nvars
    witness = [Polynomial.zero(field, nvars) for _ in reducers] if with_witness else None
    rem_terms: dict = {}
    work = f
    while not work.is_zero():
        m, c = work.lead(order)
        for j, g in enumerate(reducers):
            lm, lc = leads[j]
            if lm.divides(m):
                q, qc = m.div(lm), c / lc
                work = work - g.mul_term(q, qc)
                if with_witness:
                    witness[j] = witness[j] + Polynomial.term(field, nvars, q, qc)
                break
        else:
            rem_terms[m] = c
            work = work - Polynomial.term(field, nvars, m, c)
    return Polynomial(field, nvars, rem_terms), witness


def spolynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    mf, cf = f.lead(order)
    mg, cg = g.lead(order)
    lcm = mf.lcm(mg)
    return f.mul_term(lcm.div(mf), cf.inverse()) - g.mul_term(lcm.div(mg), cg.inverse())


def _interreduce(basis, order):
    """Minimalize and tail-reduce; output is the unique reduced monic GB."""
    basis = sorted((g.monic(order) for g in basis), key=lambda g: order.key(g.lead(order)[0]))
    minimal = []
    for g in basis:
        lm = g.lead(order)[0]
        if not any(h.lead(order)[0].divides(lm) for h in minimal):
            minimal.append(g)
    changed = True
    while changed:
        changed = False
        for i in range(len(minimal)):
            others = minimal[:i] + minimal[i + 1:]
            leads = [h.lead(order) for h in others]
            r, _ = _divide(minimal[i], others, leads, order)
            r = r.monic(order)
            if r != minimal[i]:
                minimal[i] = r
                changed = True
    minimal.sort(key=lambda g: order.key(g.lead(order)[0]))
    return tuple(minimal)


def buchberger(ring: RingSpec, gens) -> GroebnerBasis:
    """Reduced Groebner basis of (gens) + (ring.quotient).

    Normal-pair selection from a heap: each pair (i, j) is keyed once, when
    it is formed, by (lcm degree, order key of the lcm, i, j), so the pair
    popped next has the smallest lcm by degree then order, with ties broken
    by the index pair. Both classical pair-skipping criteria apply; the
    chain criterion reads the set of pending pairs. Afterwards every
    S-polynomial of the final basis is checked to reduce to zero.
    """
    order = ring.order
    work = [ring.check_member(g) for g in gens]
    work.extend(ring.quotient)
    G, leads = [], []
    pairs = set()  # pending (i, j), for the chain criterion
    queue = []     # heap of (lcm degree, order key, i, j, lcm)

    def add_element(g):
        new = len(G)
        G.append(g)
        leads.append(g.lead(order))
        for k in range(new):
            lcm = leads[k][0].lcm(leads[new][0])
            heapq.heappush(queue, (lcm.degree, order.key(lcm), k, new, lcm))
            pairs.add((k, new))

    for g in sorted((g for g in work if not g.is_zero()),
                    key=lambda p: order.key(p.lead(order)[0])):
        if g not in G:
            add_element(g)
    if not G:
        return GroebnerBasis(ring, ())

    while queue:
        _, _, i, j, lcm = heapq.heappop(queue)
        pairs.discard((i, j))
        # product criterion: coprime leading monomials
        if lcm.degree == leads[i][0].degree + leads[j][0].degree:
            continue
        # chain criterion: a third element divides the lcm and both side
        # pairs were already treated
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if leads[k][0].divides(lcm):
                p1 = (min(i, k), max(i, k))
                p2 = (min(j, k), max(j, k))
                if p1 not in pairs and p2 not in pairs:
                    skip = True
                    break
        if skip:
            continue
        s = spolynomial(G[i], G[j], order)
        r, _ = _divide(s, G, leads, order)
        if not r.is_zero():
            add_element(r)

    basis = _interreduce(G, order)
    gb = GroebnerBasis(ring, basis)
    _self_check(gb, work)
    return gb


def _self_check(gb: GroebnerBasis, inputs):
    """Complete correctness certificate for a computed basis.

    All S-polynomials of the final basis reduce to zero (Buchberger's
    criterion) and every input generator reduces to zero, so the final basis
    generates exactly the input ideal.
    """
    order = gb.order
    G = list(gb.generators)
    leads = [g.lead(order) for g in G]
    for i, j in itertools.combinations(range(len(G)), 2):
        s = spolynomial(G[i], G[j], order)
        r, _ = _divide(s, G, leads, order)
        if not r.is_zero():
            raise AssertionError("S-polynomial self-check failed: not a Groebner basis")
    for f in inputs:
        r, _ = _divide(f, G, leads, order)
        if not r.is_zero():
            raise AssertionError("input generator does not reduce to zero")


def normal_form(f: Polynomial, gb: GroebnerBasis, with_witness: bool = False):
    """Unique remainder of f modulo the reduced basis; optional cofactors.

    With with_witness, returns (remainder, witness) satisfying
    f == sum(witness[i] * gb.generators[i]) + remainder exactly.
    """
    gb.ring.check_member(f)
    order = gb.order
    leads = [g.lead(order) for g in gb.generators]
    r, witness = _divide(f, list(gb.generators), leads, order, with_witness=with_witness)
    if with_witness:
        acc = Polynomial.zero(f.field, f.nvars)
        for w, g in zip(witness, gb.generators):
            acc = acc + w * g
        assert acc + r == f, "division witness identity failed"
        return r, witness
    return r


def standard_monomials(gb: GroebnerBasis):
    """Monomial basis of R/(ideal) as a k-vector space, or INFINITE.

    Finite exactly when every variable has a pure power among the leading
    monomials; then all candidates below those bounds are enumerated.
    """
    n = gb.ring.nvars
    leads = gb.lead_monomials
    if any(m.is_one() for m in leads):
        return []
    bounds = [None] * n
    for lm in leads:
        sup = lm.support()
        if len(sup) == 1:
            i = sup[0]
            e = lm.exps[i]
            if bounds[i] is None or e < bounds[i]:
                bounds[i] = e
    if any(b is None for b in bounds):
        return INFINITE
    out = []
    for exps in itertools.product(*(range(b) for b in bounds)):
        m = Monomial(exps)
        if not any(lm.divides(m) for lm in leads):
            out.append(m)
    out.sort(key=gb.order.key)
    return out


def krull_dimension(gb: GroebnerBasis) -> int:
    """Dimension of R/(ideal): the largest variable subset that no leading
    monomial is supported inside."""
    if gb.is_unit_ideal():
        raise UnitIdeal("the unit ideal has no dimension")
    n = gb.ring.nvars
    supports = [set(m.support()) for m in gb.lead_monomials]
    for size in range(n, 0, -1):
        for combo in itertools.combinations(range(n), size):
            s = set(combo)
            if not any(sup <= s for sup in supports):
                return size
    return 0


def origin_support_check(gb: GroebnerBasis) -> bool:
    """True when V(ideal) is at most the origin.

    Requires a finite standard-monomial basis. Each variable is nilpotent
    modulo the ideal iff its D-th power reduces to zero, where D is the
    vector-space dimension (the dimension bounds the nilpotency index).
    """
    sms = standard_monomials(gb)
    if sms is INFINITE:
        raise NotZeroDimensional("origin support needs a finite quotient")
    d = len(sms)
    if d == 0:
        return True
    n = gb.ring.nvars
    for i in range(n):
        p = Polynomial.term(gb.ring.field, n, Monomial.variable(i, n, d), gb.ring.field.one)
        if not normal_form(p, gb).is_zero():
            return False
    return True
