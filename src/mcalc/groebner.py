"""Buchberger engine: reduced Groebner bases, normal forms, standard monomials.

All ideal computations happen in k[x_1..x_n] with the ring's quotient
generators folded into the input, so callers work over A = R/J transparently.

This module also holds the one division kernel, `_reduce`, and the one
basis reduction, `_reduce_basis`, for ideals and modules alike: both work on
raw terms, an ideal being a rank-1 module, and `fpmodules` imports them.
Each basis element's reducer form is built once, when the element joins a
basis, never once per division.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from operator import add, le, sub

from .errors import NotZeroDimensional, UnitIdeal
from .polyring import INFINITE, Monomial, MonomialOrder, Polynomial, RingSpec
from .scalars import Scalar


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced, monic Groebner basis, sorted ascending by leading monomial.

    Holds each generator's reducer form, built once here, for the division
    kernel.
    """

    ring: RingSpec
    generators: tuple

    def __post_init__(self):
        order = self.ring.order
        object.__setattr__(self, "generators", tuple(self.generators))
        forms = tuple(_reducer_form(_raw_vector((g,)), order) for g in self.generators)
        object.__setattr__(self, "_forms", forms)
        object.__setattr__(self, "_leads", tuple(Monomial(f[1]) for f in forms))

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


# -- the division kernel -------------------------------------------------------
#
# Division works on raw terms. A raw vector is a dict from (position,
# exponent tuple) to a raw Scalar.value; a polynomial is the rank-1 case, at
# position 0. A reducer form is (lead position, lead exponents, lead
# coefficient, tail), the tail holding a (position, exponents, coefficient)
# triple for every other term. Vectors are ordered position over term, with
# earlier positions larger.

def _raw_vector(components):
    """Raw vector of polynomials given by position."""
    return {(p, m.exps): c.value
            for p, f in enumerate(components) for m, c in f.terms.items()}


def _raw_polynomial(field, nvars, terms):
    """Polynomial from a dict of exponent tuple -> raw coefficient."""
    return Polynomial(field, nvars, {Monomial(e): Scalar(field, c) for e, c in terms.items()})


def _raw_components(field, nvars, rank, raw):
    """Polynomials by position from a raw vector."""
    comps = [{} for _ in range(rank)]
    for (p, e), c in raw.items():
        comps[p][e] = c
    return tuple(_raw_polynomial(field, nvars, t) for t in comps)


def _reducer_form(raw, order):
    """Reducer form of a nonzero raw vector."""
    dkey = order.descending_key
    lead = min(raw, key=lambda k: (k[0], dkey(k[1])))
    tail = tuple((p, e, c) for (p, e), c in raw.items() if (p, e) != lead)
    return lead[0], lead[1], raw[lead], tail


def _submul(work, terms, shift, c, ops):
    """work -= c * x^shift * terms in place, for (position, exponents,
    coefficient) triples; returns the keys new to work."""
    sub, mul, is_zero = ops.sub, ops.mul, ops.is_zero
    nc = sub(ops.zero, c)
    fresh = []
    for p, e, t in terms:
        k = (p, tuple(map(add, e, shift)))
        old = work.get(k)
        if old is None:
            work[k] = mul(nc, t)
            fresh.append(k)
        else:
            new = sub(old, mul(c, t))
            if is_zero(new):
                del work[k]
            else:
                work[k] = new
    return fresh


def _reduce(work, forms, order, ops, with_witness=False):
    """Full division of the raw vector work by reducer forms; consumes work.

    The leading term of work comes off a heap of descending position-over-
    term keys; keys of terms cancelled meanwhile stay in the heap and are
    skipped when popped. The first reducer, in list order, at the same
    position whose lead exponents divide it cancels it: only the reducer's
    tail, scaled, is subtracted. A leading term no reducer divides moves to
    the remainder. Returns (remainder, witness): the remainder is a raw
    vector in descending term order, and witness[j] (None without
    with_witness) maps quotient exponents to raw coefficients, so that
    work == sum(witness[j] * reducer j) + remainder.
    """
    dkey = order.descending_key
    div = ops.div
    heap = [(k[0], dkey(k[1]), k) for k in work]
    heapq.heapify(heap)
    rem = {}
    witness = [{} for _ in forms] if with_witness else None
    while heap:
        k = heapq.heappop(heap)[2]
        c = work.pop(k, None)
        if c is None:
            continue
        p, e = k
        for j, (gp, ge, gc, tail) in enumerate(forms):
            if gp == p and all(map(le, ge, e)):
                q = tuple(map(sub, e, ge))
                qc = div(c, gc)
                for f in _submul(work, tail, q, qc, ops):
                    heapq.heappush(heap, (f[0], dkey(f[1]), f))
                if witness is not None:
                    witness[j][q] = qc
                break
        else:
            rem[k] = c
    return rem, witness


def spolynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    mf, cf = f.lead(order)
    mg, cg = g.lead(order)
    lcm = mf.lcm(mg)
    return f.mul_term(lcm.div(mf), cf.inverse()) - g.mul_term(lcm.div(mg), cg.inverse())


def _reduce_basis(elements, order, ops):
    """Minimalize, make monic and tail-reduce raw vectors; ascending by lead.

    On a Groebner basis of a submodule (an ideal is the rank-1 case) the
    result is its unique reduced Groebner basis.
    """
    dkey = order.descending_key

    def lead_key(f):
        return (f[0], dkey(f[1]))

    div = ops.div
    vecs, forms = [], []
    # ascending by lead; reverse=True keeps the sort stable, so of equal
    # leads the first in input order stays
    for f in sorted((_reducer_form(v, order) for v in elements), key=lead_key, reverse=True):
        if any(h[0] == f[0] and all(map(le, h[1], f[1])) for h in forms):
            continue
        pos, exps, lc, tail = f
        tail = tuple((p, e, div(c, lc)) for p, e, c in tail)
        v = {(pos, exps): ops.one}
        v.update(((p, e), c) for p, e, c in tail)
        vecs.append(v)
        forms.append((pos, exps, ops.one, tail))
    changed = True
    while changed:
        changed = False
        for i in range(len(vecs)):
            # no other lead divides this lead, so it stays, monic
            r, _ = _reduce(dict(vecs[i]), forms[:i] + forms[i + 1:], order, ops)
            if r != vecs[i]:
                vecs[i] = r
                forms[i] = _reducer_form(r, order)
                changed = True
    return [v for _, v in sorted(zip(forms, vecs), key=lambda fv: lead_key(fv[0]), reverse=True)]


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
    field, nvars, ops = ring.field, ring.nvars, ring.field.raw
    work = [ring.check_member(g) for g in gens]
    work.extend(ring.quotient)
    G, forms, leads = [], [], []
    pairs = set()  # pending (i, j), for the chain criterion
    queue = []     # heap of (lcm degree, order key, i, j, lcm)

    def add_element(g):
        new = len(G)
        G.append(g)
        forms.append(_reducer_form(_raw_vector((g,)), order))
        leads.append(Monomial(forms[new][1]))
        for k in range(new):
            lcm = leads[k].lcm(leads[new])
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
        if lcm.degree == leads[i].degree + leads[j].degree:
            continue
        # chain criterion: a third element divides the lcm and both side
        # pairs were already treated
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if leads[k].divides(lcm):
                p1 = (min(i, k), max(i, k))
                p2 = (min(j, k), max(j, k))
                if p1 not in pairs and p2 not in pairs:
                    skip = True
                    break
        if skip:
            continue
        s = spolynomial(G[i], G[j], order)
        r, _ = _reduce(_raw_vector((s,)), forms, order, ops)
        if r:
            add_element(_raw_components(field, nvars, 1, r)[0])

    basis = _reduce_basis([_raw_vector((g,)) for g in G], order, ops)
    gb = GroebnerBasis(ring, (_raw_components(field, nvars, 1, v)[0] for v in basis))
    _self_check(gb, work)
    return gb


def _self_check(gb: GroebnerBasis, inputs):
    """Complete correctness certificate for a computed basis.

    All S-polynomials of the final basis reduce to zero (Buchberger's
    criterion) and every input generator reduces to zero, so the final basis
    generates exactly the input ideal.
    """
    order = gb.order
    ops = gb.ring.field.raw
    G = gb.generators
    for i, j in itertools.combinations(range(len(G)), 2):
        s = spolynomial(G[i], G[j], order)
        r, _ = _reduce(_raw_vector((s,)), gb._forms, order, ops)
        if r:
            raise AssertionError("S-polynomial self-check failed: not a Groebner basis")
    for f in inputs:
        r, _ = _reduce(_raw_vector((f,)), gb._forms, order, ops)
        if r:
            raise AssertionError("input generator does not reduce to zero")


def normal_form(f: Polynomial, gb: GroebnerBasis, with_witness: bool = False):
    """Unique remainder of f modulo the reduced basis; optional cofactors.

    With with_witness, returns (remainder, witness) satisfying
    f == sum(witness[i] * gb.generators[i]) + remainder exactly.
    """
    gb.ring.check_member(f)
    field, nvars = f.field, f.nvars
    rem, quot = _reduce(_raw_vector((f,)), gb._forms, gb.order, field.raw,
                        with_witness=with_witness)
    r = _raw_components(field, nvars, 1, rem)[0]
    if with_witness:
        witness = [_raw_polynomial(field, nvars, q) for q in quot]
        acc = Polynomial.zero(field, nvars)
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
