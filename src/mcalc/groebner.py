"""Groebner engine: reduced Groebner bases, normal forms, standard monomials.

All computations happen in k[x_1..x_n] with the ring's quotient generators
folded into the input, so callers work over A = R/J transparently.

An ideal is a rank-1 module, so this module holds one of each engine part
for ideals and submodules of R^rank alike, all on raw terms: the Buchberger
loop `_buchberger`, its certificate `_self_check`, the division kernel
`_reduce`, the basis reduction `_reduce_basis`, the one input path `_basis`
and the one basis object `GroebnerBasis`, which answers every quotient
query (division, standard terms, dimension, local length). `fpmodules`
builds its bases through `_basis` and its syzygies through `_buchberger`,
and reads no reducer form. A `GroebnerBasis` holds the raw vectors
`_buchberger` returns. A polynomial's terms are already raw terms, so
`buchberger`'s inputs, `GroebnerBasis.generators` and `normal_form`'s
results only rekey dicts by position, with no per-coefficient conversion.
Each basis element's reducer form is built once, when the element joins a
basis, never once per division.

The kernel takes its arithmetic from a `RawArithmetic` table. Over Q an
untracked basis (the loop, `_reduce_basis` and `_self_check`) runs on
primitive integer vectors, from `FieldSpec.fraction_free`: inputs enter with
denominators cleared and content divided out, `_reduce` pseudo-divides,
S-vectors are fraction-free, and only the last step of `_reduce_basis`
divides by the leads, so the output is the same unique reduced basis over
Q. Integers are used because Fraction arithmetic, with a gcd in every
operation, dominated the Q bases. The certificate still holds: every
integer vector is a nonzero multiple of a vector over Q spanning the same
submodule, and a pseudo-remainder is a nonzero multiple of the remainder
over Q, so an S-vector or input reduces to zero in one exactly when it does
in the other. Tracked runs, whose syzygies are exact expressions, and
`GroebnerBasis.reduce` and `normal_form`, whose remainders and witnesses are
exact, use the field's own table.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from operator import add, le, sub

from .errors import SupportNotAtOrigin, UnitIdeal
from .polyring import INFINITE, Polynomial, RingSpec


@dataclass(frozen=True)
class GroebnerBasis:
    """A Groebner basis of a submodule of R^rank, an ideal being rank 1: raw
    vectors (see `_raw_vector`), never mutated. `_basis` makes them the
    reduced, monic basis, ascending by lead. Builds each one's reducer form
    once. `generators` and `contains` are the polynomial view of a rank-1
    basis; `generators` builds the polynomials on request.
    """

    ring: RingSpec
    raws: tuple
    rank: int = 1

    def __post_init__(self):
        object.__setattr__(self, "raws", tuple(self.raws))
        object.__setattr__(self, "_forms", tuple(
            _reducer_form(v, self.ring.order) for v in self.raws))

    @property
    def generators(self):
        ring = self.ring
        return tuple(_raw_components(ring.field, ring.nvars, 1, v)[0] for v in self.raws)

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self).is_zero()

    def reduce(self, raw, with_witness=False):
        """(remainder, witness) of the raw vector divided by the basis; see
        `_reduce`. raw is left as it is."""
        return _reduce(dict(raw), self._forms, self.ring.order, self.ring.field.raw,
                       with_witness=with_witness)

    def standard_terms(self):
        """(position, exponent tuple) pairs spanning R^rank modulo the submodule
        over k, or INFINITE; see `_standard_terms`."""
        return _standard_terms(self._forms, self.rank, self.ring.nvars, self.ring.order)

    def dimension(self) -> int:
        """Dimension of R^rank modulo the submodule, read off the leads: the
        size of the largest variable subset that, at some position, contains
        the support of no lead there; -1 for the zero quotient."""
        n = self.ring.nvars
        best = -1
        for p in range(self.rank):
            supports = [{i for i, e in enumerate(f[1]) if e} for f in self._forms if f[0] == p]
            for size in range(n, best, -1):
                if any(not any(sup <= set(combo) for sup in supports)
                       for combo in itertools.combinations(range(n), size)):
                    best = size
                    break
        return best

    def is_unit_ideal(self) -> bool:
        """True when the quotient is zero: every position has a unit lead."""
        return len({f[0] for f in self._forms if not any(f[1])}) == self.rank

    def local_length(self):
        """Length of the quotient at the origin, or INFINITE.

        Raises SupportNotAtOrigin when the length is finite but counts points
        away from the origin too. Each variable acts nilpotently iff
        x_i^length * e_p reduces to zero for every position p (the length
        bounds the nilpotency index).
        """
        terms = self.standard_terms()
        if terms is INFINITE:
            return INFINITE
        n, one = self.ring.nvars, self.ring.field.raw.one
        for i in range(n):
            power = tuple(len(terms) if j == i else 0 for j in range(n))
            for p in range(self.rank):
                if self.reduce({(p, power): one})[0]:
                    raise SupportNotAtOrigin("the module is supported away from the origin")
        return len(terms)


# -- the division kernel -------------------------------------------------------
#
# Division works on raw terms. A raw vector is a dict from (position,
# exponent tuple) to a raw Scalar.value; a polynomial is the rank-1 case, at
# position 0, and its `terms` are that dict without the position. A reducer
# form is (lead position, lead exponents, lead coefficient, tail), the tail
# holding a (position, exponents, coefficient) triple for every other term.
# Vectors are ordered position over term, with earlier positions larger.

def _raw_vector(components):
    """Raw vector of polynomials given by position."""
    return {(p, e): c for p, f in enumerate(components) for e, c in f.terms.items()}


def _raw_components(field, nvars, rank, raw):
    """Polynomials by position from a raw vector."""
    comps = [{} for _ in range(rank)]
    for (p, e), c in raw.items():
        comps[p][e] = c
    return tuple(Polynomial(field, nvars, t) for t in comps)


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

    The step on a lead c over a reducer lead a comes from `ops.pseudo`: work
    and the remainder are multiplied by the scale, then quotient * x^q * tail
    is subtracted. Over a field the scale is one, so this is plain division.
    Over the integers it is pseudo-division, and the remainder, made
    primitive on the way out, is a nonzero multiple of the remainder over
    Q; the witness ignores the scales, so only a field's table gives one.
    """
    dkey = order.descending_key
    pseudo, mul, one = ops.pseudo, ops.mul, ops.one
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
                scale, qc = pseudo(c, gc)
                if scale is not one:
                    for t, v in work.items():
                        work[t] = mul(v, scale)
                    for t, v in rem.items():
                        rem[t] = mul(v, scale)
                for f in _submul(work, tail, q, qc, ops):
                    heapq.heappush(heap, (f[0], dkey(f[1]), f))
                if witness is not None:
                    witness[j][q] = qc
                break
        else:
            rem[k] = c
    return ops.primitive(rem), witness


def _reduce_basis(forms, order, ops):
    """Minimalize, tail-reduce and make monic; raw vectors ascending by lead.

    Takes the reducer forms of the elements. On a Groebner basis of a
    submodule (an ideal is the rank-1 case) the result is its unique reduced
    Groebner basis. Only the last step divides by the leads, through
    `ops.div`, which over the integers gives the exact quotient in Q.
    """
    dkey = order.descending_key

    def lead_key(f):
        return (f[0], dkey(f[1]))

    vecs, kept = [], []
    # ascending by lead; reverse=True keeps the sort stable, so of equal
    # leads the first in input order stays
    for f in sorted(forms, key=lead_key, reverse=True):
        if any(h[0] == f[0] and all(map(le, h[1], f[1])) for h in kept):
            continue
        v = {(f[0], f[1]): f[2]}
        v.update(((p, e), c) for p, e, c in f[3])
        vecs.append(v)
        kept.append(f)
    changed = True
    while changed:
        changed = False
        for i in range(len(vecs)):
            # no other lead divides this lead, so it stays the lead
            r, _ = _reduce(dict(vecs[i]), kept[:i] + kept[i + 1:], order, ops)
            if r != vecs[i]:
                vecs[i] = r
                kept[i] = _reducer_form(r, order)
                changed = True
    div = ops.div
    return [{k: div(c, f[2]) for k, c in v.items()}
            for f, v in sorted(zip(kept, vecs), key=lambda fv: lead_key(fv[0]), reverse=True)]


def _s_vector(fa, fb, lcm, ops):
    """S-vector ka*x^ua*a - kb*x^ub*b of two reducer forms at one position,
    x^lcm being the lcm of their leads, as a raw vector: (ka, kb) is
    `ops.cofactors` of the lead coefficients, so ka = 1/ca and kb = 1/cb
    over a field, and the fraction-free cb/g and ca/g over the integers.

    The leads cancel exactly, so only the tails enter. Also returns the two
    steps ((ua, -ka), (ub, kb)) that built it, each a `work -= k * x^u * tail`
    step of `_submul`, so a tracked expression can take the same steps.
    """
    ka, kb = ops.cofactors(fa[2], fb[2])
    steps = ((tuple(map(sub, lcm, fa[1])), ops.sub(ops.zero, ka)),
             (tuple(map(sub, lcm, fb[1])), kb))
    sv = {}
    for f, (u, k) in zip((fa, fb), steps):
        _submul(sv, f[3], u, k, ops)
    return sv, steps


def _buchberger(ring: RingSpec, raws, rank, track=False):
    """Buchberger's algorithm on raw vectors in R^rank (an ideal is rank 1).

    Pairs are formed only at the same position. They wait in a heap keyed
    once, when the pair is formed, by (lcm degree, order key of the lcm,
    a, b): the next pair has the smallest lcm by degree then order, ties
    broken by the index pair. That order decides which syzygies come out,
    so it is part of the output contract.

    Returns (basis, syzygies), the basis as raw vectors. With track=True
    the loop runs on the field's own arithmetic, no pair is skipped and
    each element carries its expression on the inputs, so every reduction
    to zero is a syzygy of the inputs and together they generate the whole
    syzygy module; the syzygies are raw vectors of rank len(raws), a zero
    input giving its unit vector, and the basis is the loop's, unreduced.

    With track=False the loop, the basis reduction and the certificate run
    on `field.fraction_free`, over Q on primitive integer vectors, which
    span the same submodule over Q as the inputs. A pair is skipped when
    both elements are single terms (the S-vector is zero), by the product
    criterion at rank 1 only (coprime leads; at higher rank the S-vector
    need not reduce to zero), or by the chain criterion (a third lead at the
    same position divides the lcm and both side pairs were already popped);
    the basis is reduced, ascending by lead, and there are no syzygies. The
    reduced basis is then certified by `_self_check`, whose pair skips need
    no pair order: its chain criterion is the strict form, not this loop's
    popped-pairs one.
    """
    order = ring.order
    ops = ring.field.raw if track else ring.field.fraction_free
    raws = [ops.primitive(raw) for raw in raws]
    elems, forms, reps, syz = [], [], [], []
    pending = set()  # (a, b) formed and not yet popped, for the chain criterion
    queue = []       # heap of (lcm degree, order key, a, b, lcm exponents)

    def add_element(raw, rep):
        new = len(forms)
        form = _reducer_form(raw, order)
        elems.append(raw)
        forms.append(form)
        if track:
            reps.append(tuple((p, e, c) for (p, e), c in rep.items()))
        for k in range(new):
            if forms[k][0] == form[0]:
                lcm = tuple(map(max, forms[k][1], form[1]))
                heapq.heappush(queue, (sum(lcm), order.key(lcm), k, new, lcm))
                pending.add((k, new))

    one = (0,) * ring.nvars
    for i, raw in enumerate(raws):
        if raw:
            add_element(raw, {(i, one): ops.one})
        elif track:
            syz.append({(i, one): ops.one})

    while queue:
        degree, _, a, b, lcm = heapq.heappop(queue)
        fa, fb = forms[a], forms[b]
        pending.discard((a, b))
        if not track:
            if not fa[3] and not fb[3]:
                continue
            if rank == 1 and degree == sum(fa[1]) + sum(fb[1]):
                continue
            if any(k != a and k != b and f[0] == fa[0] and all(map(le, f[1], lcm))
                   and (min(a, k), max(a, k)) not in pending
                   and (min(b, k), max(b, k)) not in pending
                   for k, f in enumerate(forms)):
                continue
        sv, steps = _s_vector(fa, fb, lcm, ops)
        r, quot = _reduce(sv, forms, order, ops, with_witness=track)
        rep = None
        if track:
            rep = {}
            for j, (u, k) in zip((a, b), steps):
                _submul(rep, reps[j], u, k, ops)
            for j, q in enumerate(quot):
                for qe, qc in q.items():
                    _submul(rep, reps[j], qe, qc, ops)
            if not r and rep:
                syz.append(rep)
        if r:
            add_element(r, rep)
    if track:
        return elems, syz
    basis = _reduce_basis(forms, order, ops)
    _self_check(basis, raws, order, ops)
    return basis, syz


def _basis(ring: RingSpec, raws, rank) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule of R^rank that the raw vectors
    and J*e_p for every position p generate, J being ring.quotient.

    The distinct nonzero inputs enter `_buchberger` ascending by lead, equal
    leads in input order.
    """
    dkey = ring.order.descending_key
    work = list(raws)
    for q in ring.quotient:
        work.extend({(p, e): c for e, c in q.terms.items()} for p in range(rank))
    inputs = []
    for raw in sorted((r for r in work if r),
                      key=lambda r: min((p, dkey(e)) for p, e in r), reverse=True):
        if raw not in inputs:
            inputs.append(raw)
    basis, _ = _buchberger(ring, inputs, rank)
    return GroebnerBasis(ring, basis, rank)


def buchberger(ring: RingSpec, gens) -> GroebnerBasis:
    """Reduced Groebner basis of (gens) + (ring.quotient)."""
    return _basis(ring, [_raw_vector((ring.check_member(g),)) for g in gens], 1)


def _self_check(basis, inputs, order, ops):
    """Correctness certificate for a computed basis at any rank.

    Every S-vector of two basis elements at the same position has a standard
    representation, and every input reduces to zero, so the basis is a
    Groebner basis of a submodule that contains the inputs. It proves no
    more: the basis {1} passes for any inputs. The reverse inclusion holds
    for `_buchberger`'s basis by construction, each element being a
    remainder of a combination of inputs and earlier elements, so there the
    basis is one of exactly the input submodule. A pair is divided out
    unless a theorem gives its representation: both elements are single
    terms (the S-vector is zero); every basis term is at position 0, so the
    elements are polynomials, and their leads are coprime (the product
    criterion; at higher rank the S-vector need not reduce to zero); or a
    third lead at the same position divides lcm(a, b) and its lcms with both
    leads are proper divisors of lcm(a, b) (the chain criterion in its
    strict form). By induction on the lcm in the well-ordered term order,
    the two smaller pairs of a chain have representations, so the skipped
    one does too; no pair order is needed.

    Basis and inputs are checked as `ops.primitive` vectors. Over the
    integers each is a nonzero multiple of the vector over Q, and so is each
    S-vector and each pseudo-remainder, so "reduces to zero" means the same
    as over Q.
    """
    forms = [_reducer_form(ops.primitive(v), order) for v in basis]
    polys = all(p == 0 for v in basis for p, _ in v)
    for fa, fb in itertools.combinations(forms, 2):
        if fa[0] != fb[0] or not fa[3] and not fb[3]:
            continue
        lcm = tuple(map(max, fa[1], fb[1]))
        if polys and sum(lcm) == sum(fa[1]) + sum(fb[1]):
            continue
        # a and b themselves fail the proper-divisor test
        if any(f[0] == fa[0] and all(map(le, f[1], lcm))
               and tuple(map(max, f[1], fa[1])) != lcm
               and tuple(map(max, f[1], fb[1])) != lcm for f in forms):
            continue
        sv, _ = _s_vector(fa, fb, lcm, ops)
        if _reduce(sv, forms, order, ops)[0]:
            raise AssertionError("S-vector self-check failed: not a Groebner basis")
    for v in inputs:
        if _reduce(dict(ops.primitive(v)), forms, order, ops)[0]:
            raise AssertionError("input does not reduce to zero")


def normal_form(f: Polynomial, gb: GroebnerBasis, with_witness: bool = False):
    """Unique remainder of f modulo the reduced basis; optional cofactors.

    With with_witness, returns (remainder, witness) satisfying
    f == sum(witness[i] * gb.generators[i]) + remainder exactly.
    """
    gb.ring.check_member(f)
    field, nvars = f.field, f.nvars
    rem, quot = gb.reduce(_raw_vector((f,)), with_witness=with_witness)
    r = _raw_components(field, nvars, 1, rem)[0]
    if with_witness:
        witness = [Polynomial(field, nvars, q) for q in quot]
        acc = Polynomial.zero(field, nvars)
        for w, g in zip(witness, gb.generators):
            acc = acc + w * g
        assert acc + r == f, "division witness identity failed"
        return r, witness
    return r


def _standard_terms(forms, rank, nvars, order):
    """Standard terms of R^rank modulo a submodule, given the reducer forms
    of a Groebner basis of it: (position, exponent tuple) pairs spanning the
    quotient over k, earlier positions first and ascending by order within
    one; or INFINITE.

    A position whose leads include a unit contributes nothing. Otherwise the
    count is finite exactly when every variable has a pure power among the
    position's leads; then all exponents below those bounds are enumerated.
    """
    out = []
    for p in range(rank):
        leads = [f[1] for f in forms if f[0] == p]
        if any(not any(e) for e in leads):
            continue
        bounds = [min((e[i] for e in leads if e[i] and sum(e) == e[i]), default=None)
                  for i in range(nvars)]
        if None in bounds:
            return INFINITE
        for exps in itertools.product(*(range(b) for b in bounds)):
            if not any(all(map(le, e, exps)) for e in leads):
                out.append((p, exps))
    out.sort(key=lambda pe: (-pe[0], order.key(pe[1])))
    return out


def standard_monomials(gb: GroebnerBasis):
    """Exponent tuples of a monomial basis of R/(ideal) as a k-vector space,
    or INFINITE."""
    terms = gb.standard_terms()
    return terms if terms is INFINITE else [e for _, e in terms]


def krull_dimension(gb: GroebnerBasis) -> int:
    """Dimension of R/(ideal), read off the leading monomials."""
    if gb.is_unit_ideal():
        raise UnitIdeal("the unit ideal has no dimension")
    return gb.dimension()
