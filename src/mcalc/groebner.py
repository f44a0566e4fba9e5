"""Groebner engine: reduced Groebner bases, normal forms, Hilbert series.

All computations happen in k[x_1..x_n] with the ring's quotient generators
folded into the input, so callers work over A = R/J transparently.

An ideal is a rank-1 module, so this module holds one of each engine part
for ideals and submodules of R^rank alike: the Buchberger loop
`_buchberger`, its certificate `_self_check`, the division kernel `_reduce`,
the basis reduction `_reduce_basis`, the one input path `_basis` and the one
basis object `GroebnerBasis`, which answers every quotient query: division,
and dimension and lengths from one Hilbert series of its leads; only
`standard_monomials` enumerates standard terms. `fpmodules` builds its bases
through `_basis`, its syzygies through `_buchberger` and its map images
through `_linear_combination`, and reads no reducer form. A query for a
submodule takes one certified untracked basis, and a presentation takes its
relations straight off such a basis, with no second Buchberger run:
`GroebnerBasis._block` keeps the elements of an elimination basis led past a
position, and `_copies` copies a basis into blocks. Only a query whose
output is a generator list, syzygies or preimage generators, runs the
tracked loop, which is that elimination stopped at the tags: input i rides
with the term 1 at position rank + i, and a remainder led at a tag position
is a syzygy (see `_buchberger`). `normal_form`'s witness rides as tags too.
Outside this module every vector is a raw vector (see `_raw_vector`); a
polynomial's terms are already raw terms, so `buchberger`'s inputs,
`GroebnerBasis.generators` and `normal_form`'s results only rekey dicts by
position, with no per-coefficient conversion.

Inside, the kernel keys each term by one int, its packed key (see `_pack`).
The position sits in the top field and the order's fields below it:

* grevlex: [C - deg, x_n, ..., x_1];
* lex: [C' - x_1, ..., C' - x_n];
* block(s): the grevlex fields of x_1..x_s, then those of x_{s+1}..x_n.

Each field holds one entry of the order's `MonomialOrder.key` negated,
plus a constant where that is negative (C for a degree, C' = 2^31 - 1 for a
lex exponent) so every field is a nonnegative int, and fields compare from the top down, as tuples do. So ascending keys
are exactly the descending position-over-term order: the heap in `_reduce`
holds the keys themselves, and `_basis` sorts its inputs by their leads'
keys. Every field is linear in the exponents, so key(e + s)
= key(e) + key(s) - key(0): multiplying a term by x^s adds one int, and a
reducer's shift is the single int key(term) - key(lead).

An exponent field is 32 bits wide, the top one a guard bit; a degree field
is 64 bits wide. Every exponent must stay below 2^31 = `_EXP_CAP`, so valid
keys have every guard bit clear and no field ever borrows from the next.
Then a lead divides a term at the same position exactly when the
difference of their keys, with the degree fields biased so they cannot
borrow, has its guard bits and its position field clear (under lex, where
the fields fall as exponents rise, the difference's negation must): a
field that went negative borrows, and the lowest such one shows it in its
guard bit. The degree fields follow from the exponents, so no test reads
them. An input exponent at or above the cap raises `ExponentTooLarge`, and
so does a term the computation would push past it (under lex, exponents
can grow), before its key, which could equal a valid one, is looked up or
stored: `_submul` checks a shifted bound of the terms it adds, once per
call.

Each basis element's reducer form is built once, when the element joins a
basis, never once per division.

The loop skips a pair only by a theorem, proved where it is applied, and
`_self_check` certifies every untracked basis. Every untracked run follows
signatures, packed as terms (see `_buchberger`), at any rank, so at rank 1
almost no S-vector reduces to zero; tracked runs, which skip no pair, take
pairs in lcm order.

A basis often extends one its caller already holds: M/(f)M extends M's
basis, a subquotient's bases extend the ambient module's, a Koszul
cokernel extends a copied basis. `_basis` takes that basis as `known`,
and at rank > 1 its vectors enter the loop as seeds, whose pairs with each
other are never formed: they have standard representations already
(Buchberger's criterion). Every `GroebnerBasis` that `_basis`, `_copies`
and `_block` make holds J*R^rank, so J enters only at the positions past
known's rank.

The kernel takes its arithmetic from a `RawArithmetic` table. An untracked
basis (the loop, `_reduce_basis` and `_self_check`) runs on the table of
`FieldSpec.fraction_free`: over Q primitive integer vectors, over F_p(t)
primitive vectors over F_p[t], over F_p the field itself. Over a domain D
(Z or F_p[t]) inputs enter with denominators cleared and content divided
out, `_reduce` pseudo-divides, S-vectors are fraction-free, and only the
last step of `_reduce_basis` divides by the leads, so the output is the
same unique reduced basis over the field, the fraction field of D. D is
used because fraction arithmetic, with a gcd in every operation,
dominated those bases. The certificate still holds: D is a UFD, every
vector over D is a nonzero multiple of a vector over the field spanning
the same submodule, and a pseudo-remainder is a nonzero multiple of the
remainder over the field, so an S-vector or input reduces to zero in one
exactly when it does in the other. Tracked runs, whose tags are exact
expressions on the inputs, and `GroebnerBasis.reduce` and `normal_form`,
whose remainders and witnesses are exact, use the field's own table.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import InitVar, dataclass
from operator import and_, itemgetter, le, mul, or_
from struct import Struct
from typing import NamedTuple

from .errors import ExponentTooLarge, SupportNotAtOrigin, UnitIdeal
from .polyring import INFINITE, OrderKind, Polynomial, RingSpec


@dataclass(frozen=True)
class GroebnerBasis:
    """A Groebner basis of a submodule of R^rank, an ideal being rank 1: raw
    vectors (see `_raw_vector`), never mutated. `_basis` makes them the
    reduced, monic basis, ascending by lead. Builds each one's reducer form
    once, from `packed`, the same vectors packed (see `_pack`) when the
    caller has them, else by packing `raws`. `generators` and `contains` are
    the polynomial view of a rank-1 basis, built on request. Dimension and
    lengths read the leads only through `hilbert_series`."""

    ring: RingSpec
    raws: tuple
    rank: int = 1
    packed: InitVar[list] = None

    def __post_init__(self, packed):
        object.__setattr__(self, "raws", tuple(self.raws))
        layout = _layout(self.ring.order, self.ring.nvars)
        if packed is None:
            packed = [{_pack(layout, p, e): c for (p, e), c in v.items()} for v in self.raws]
        ops = self.ring.field.raw
        forms = tuple(_reducer_form(v, layout, ops) for v in packed)
        object.__setattr__(self, "_layout", layout)
        object.__setattr__(self, "_forms", forms)
        object.__setattr__(self, "_leads", tuple(_unpack(layout, f[2]) for f in forms))

    @property
    def generators(self):
        ring = self.ring
        return tuple(_raw_components(ring.field, ring.nvars, 1, v)[0] for v in self.raws)

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self).is_zero()

    def reduce(self, raw):
        """Remainder, a raw vector, of the raw vector raw divided by the
        basis; see `_reduce`. raw is left as it is."""
        layout = self._layout
        rem = _reduce({_pack(layout, p, e): c for (p, e), c in raw.items()},
                      self._forms, layout, self.ring.field.raw)
        return {_unpack(layout, k): c for k, c in rem.items()}

    def hilbert_series(self, shifts=None) -> dict:
        """Numerator N(t) of the Hilbert series N(t)/(1-t)^n of R^rank modulo
        the lead submodule, standard grading: `graded_series` with every
        variable graded; {} for the zero quotient."""
        return self.graded_series(self.ring.nvars, shifts=shifts)

    def graded_series(self, graded, cells=0, shifts=None) -> dict:
        """`hilbert_series` graded by the first `graded` variables T alone, the
        other n, x, of degree 0, each degree finite; for cells > 0 only over
        the terms holding one of the next cells variables, to the first power.
        e_p has degree shifts[p] when shifts are given, else 0.
        The leads' numerator N(s, u) bigraded by T- and x-degree is N(t^w, t)
        for their T-exponents scaled by w > every x-degree of N (k[T, x] is
        free over k[T^w, x]). N_j(u) = [s^j]N is (1-u)^n q_j(u), and the
        result is Σ_j q_j(1) s^j, q_j(1) = (-1)^n Σ_b N_jb C(b, n)."""
        out, head = {}, graded + cells
        n = self.ring.nvars - head
        for p in range(self.rank):
            shift = shifts[p] if shifts else 0
            for c in range(cells) or [None]:
                cell = tuple(int(q == c) for q in range(cells))
                leads = [(e[:graded], e[head:]) for q, e in self._leads
                         if q == p and all(map(le, e[graded:head], cell))]
                w = 1 + sum(map(max, zip(*(x for _, x in leads))))
                for k, a in _hilbert_numerator([tuple(w * i for i in y) + x
                                                for y, x in leads]).items():
                    _add_shifted(out, {k // w: (-1) ** n * a * math.comb(k % w, n)}, shift)
        return out

    def is_graded(self) -> bool:
        """True when every vector is homogeneous in the standard grading, each
        e_p of degree 0, so the submodule and its quotient are graded; the
        empty basis is."""
        return all(len({sum(e) for _, e in v}) == 1 for v in self.raws)

    def dimension(self) -> int:
        """Dimension of R^rank modulo the submodule, -1 for the zero quotient:
        the pole order at t = 1 of the Hilbert series. Its leading
        coefficients are positive, so positions cannot cancel."""
        return read_hilbert_series(self.hilbert_series(), self.ring.nvars)[0]

    def length(self):
        """Dimension over k of R^rank modulo the submodule: the Hilbert series
        at t = 1, which is the degree, or INFINITE where it has a pole."""
        d, e, _ = read_hilbert_series(self.hilbert_series(), self.ring.nvars)
        return INFINITE if d > 0 else e

    def is_unit_ideal(self) -> bool:
        """True when the quotient is zero: every position has a unit lead."""
        return len({p for p, e in self._leads if not any(e)}) == self.rank

    def local_length(self):
        """Length of the quotient at the origin, or INFINITE.

        Raises SupportNotAtOrigin when the length is finite but counts points
        away from the origin too. Each variable acts nilpotently iff
        x_i^length * e_p reduces to zero for every position p (the length
        bounds the nilpotency index).
        """
        length = self.length()
        if length is INFINITE:
            return INFINITE
        n, one = self.ring.nvars, self.ring.field.raw.one
        for i in range(n):
            power = tuple(length if j == i else 0 for j in range(n))
            for p in range(self.rank):
                if self.reduce({(p, power): one}):
                    raise SupportNotAtOrigin("the module is supported away from the origin")
        return length

    def _block(self, start):
        """The elements led at position start or later, shifted down by start,
        as a basis of rank rank - start. Under position-over-term they have no
        term before position start, and of a reduced basis they are the
        reduced basis of the submodule's intersection with 0 + R^(rank -
        start), ascending by lead (the elimination property;
        Adams-Loustaunau, Ch. 3). It holds J*e_p at every position, as
        `_basis` leans on: the submodule holds J*e_(p + start)."""
        return self._moved([(j, -start) for j, (p, _) in enumerate(self._leads) if p >= start],
                           self.rank - start)

    def _copies(self, n):
        """The basis of the direct sum of n copies of R^rank modulo the
        submodule: every element copied into each block of rank positions,
        last block first. No S-pair crosses blocks and no lead divides a term
        of another block, so this is the reduced basis, ascending by lead,
        that `_basis` computes from the copied elements. Each block holds
        J*R^rank, so the sum does, as `_basis` leans on."""
        g = self.rank
        return self._moved([(j, s * g) for s in reversed(range(n)) for j in range(len(self.raws))],
                           n * g)

    def _moved(self, moves, rank):
        """Basis of R^rank holding element j moved s positions up for each
        (j, s) in moves, in that order; the packed vectors come from the
        reducer forms, so nothing is packed again."""
        shift = self._layout.pos_shift
        raws, packed = [], []
        for j, s in moves:
            f, d = self._forms[j], s << shift
            raws.append({(p + s, e): c for (p, e), c in self.raws[j].items()})
            v = {f[2] + d: f[3]}
            v.update((t + d, c) for t, c in f[5][0])
            packed.append(v)
        return GroebnerBasis(self.ring, raws, rank, packed)


def _add_shifted(out, series, shift):
    """out += t^shift * series in place, on {degree: nonzero coefficient}."""
    for d, c in series.items():
        c += out.pop(d + shift, 0)
        if c:
            out[d + shift] = c


def _hilbert_numerator(gens):
    """Numerator N(t), as {degree: nonzero coefficient}, of the Hilbert
    series N(t)/(1-t)^n of k[x_1..x_n]/L, L the monomial ideal of the
    exponent tuples gens: Bayer-Stillman's N(L) = N(L + (p)) + t^deg(p)
    N(L : p) on Bigatti's pivot p = x_i^e, x_i in the most minimal
    generators and e the lower median of its exponents there. Both branches
    grow L among ideals of divisors of lcm(gens) and about halve the
    generators holding x_i. With no variable shared, N = prod (1 - t^deg g).
    """
    minimal = []
    for g in sorted(set(gens)):  # a divisor sorts before its multiples
        if not any(all(map(le, h, g)) for h in minimal):
            minimal.append(g)
    counts = [sum(map(bool, column)) for column in zip(*minimal)]
    if max(counts, default=0) < 2:
        out = {0: 1}
        for g in minimal:
            _add_shifted(out, {d: -c for d, c in out.items()}, sum(g))
        return out
    i = counts.index(max(counts))
    e = sorted(g[i] for g in minimal if g[i])[(counts[i] - 1) // 2]
    out = _hilbert_numerator(minimal + [tuple(e if j == i else 0 for j in range(len(counts)))])
    _add_shifted(out, _hilbert_numerator([g[:i] + (max(g[i] - e, 0),) + g[i + 1:]
                                          for g in minimal]), e)
    return out


def read_hilbert_series(series, v):
    """(d, e, sums) of the Hilbert series N(t)/(1-t)^v, series being N: the
    pole order d at t = 1, the dimension; e = h(1) for N = h(t)(1-t)^(v-d),
    the degree, which is (-1)^j N^(j)(1)/j! = (-1)^j Σ_k N_k C(k, j) for j =
    v - d, the least j where that sum is nonzero; (-1, 0) for N = 0; and
    the endless Σ_{i<n} H(i) for n = 1, 2, .., H the Hilbert function, that
    is Σ_{k<n} N_k C(n - 1 - k + v, v) (Bruns-Herzog, Ch. 4)."""
    values = (sum(c * math.comb(k, j) for k, c in series.items()) for j in range(v + 1))
    j, e = next(((j, (-1) ** j * c) for j, c in enumerate(values) if c), (v + 1, 0))
    sums = (sum(c * math.comb(n - 1 - k + v, v) for k, c in series.items() if k < n)
            for n in itertools.count(1))
    return v - j, e, sums


# -- the division kernel -------------------------------------------------------
#
# A raw vector is a dict from (position, exponent tuple) to a raw
# coefficient (see `FieldSpec.raw`); a polynomial is the rank-1 case, at
# position 0, and its `terms` are that dict without the position. Vectors
# are ordered position over term, with earlier positions larger.
#
# The kernel works on packed vectors: dicts from packed keys to raw
# coefficients, ascending keys being descending terms (the module docstring
# gives the layout, its additivity, the guard test and the exponent cap).
# A tail is (terms, bound): (key, coefficient) pairs, and at position 0
# the bitwise or of the exponent fields of their keys, or of a set of keys
# that holds them (under lex, where a field holds C' - x, the and), which
# bounds each exponent by less than twice the largest; `_submul` checks
# the shifted bound against the cap, and each shifted term only when the
# bound fails.
#
# A reducer form is (lead position, test, lead key, lead coefficient, lead
# divisor, tail): the lead divides a key k at its position exactly when
# (k + test) & layout.guard == layout.target, the divisor is the table's
# `divisor` of the lead coefficient, and the tail holds every other term.

_EXP_BITS = 32                   # an exponent field: 31 value bits and a guard bit
_EXP_CAP = 1 << (_EXP_BITS - 1)  # every exponent stays below this
_EXP_MASK = _EXP_CAP - 1         # the value bits; also C' = 2^31 - 1 under lex
_DEG_BITS = 2 * _EXP_BITS        # a degree field; n * 2^31 fits for n < 2^32
_DEG_TOP = 1 << (_DEG_BITS - 1)  # C for a degree field, and its bias in the test


class _Layout(NamedTuple):
    """Where each field of a packed key sits, for one order and variable count."""

    pos_shift: int   # the position field starts here
    zero: int        # key of the term 1 at position 0
    weights: tuple   # key(e + unit_i) - key(e), per variable
    fields: Struct   # reads the exponent fields from the bytes of a key
    byteorder: str   # of those bytes
    rotate: int      # fields[rotate:] + fields[:rotate] are in variable order
    flip: int        # xor that turns every exponent field into its exponent
    values: int      # every exponent field's value bits
    merge: object    # or_ (under lex and_): merges keys into a tail bound
    guard: int       # every exponent field's guard bit
    target: int      # what (k + form test) & guard must equal for a divisor
    offset: int      # a form's test is offset - lead


@functools.lru_cache(maxsize=64)
def _layout(order, nvars) -> _Layout:
    """The packed-key layout of `order` on nvars variables; fields are laid
    out from the lowest bit up."""
    weights = [0] * nvars
    zero = bias = values = guard = bit = 0
    if order.kind is OrderKind.LEX:
        # [C' - x_1, ..., C' - x_n], x_n lowest
        for i in reversed(range(nvars)):
            weights[i] = -(1 << bit)
            zero += _EXP_MASK << bit
            guard |= _EXP_CAP << bit
            bit += _EXP_BITS
        # the bytes of a key, highest first, flipped to exponents: x_1, ..., x_n
        fields, byteorder, rotate, values = f">{nvars}I", "big", 0, zero
    else:
        if order.kind is OrderKind.BLOCK:
            blocks, rotate = (range(order.split, nvars), range(order.split)), nvars - order.split
        else:
            blocks, rotate = (range(nvars),), 0
        # per block [C - deg, x_last, ..., x_first], the last block lowest
        fields = "<"
        for block in blocks:
            for i in block:
                weights[i] = 1 << bit
                values |= _EXP_MASK << bit
                guard |= _EXP_CAP << bit
                bit += _EXP_BITS
            for i in block:
                weights[i] -= 1 << bit
            zero += _DEG_TOP << bit
            bias += _DEG_TOP << bit
            bit += _DEG_BITS
            fields += f"{len(block)}I{_DEG_BITS // 8}x"
        byteorder = "little"
    common = (bit, zero, tuple(weights), Struct(fields), byteorder, rotate)
    if order.kind is OrderKind.LEX:
        # the fields fall as exponents rise: k - lead must be the negation of
        # a guard-clear int, that is k - lead - 1 its complement
        return _Layout(*common, values, values, and_, guard, guard, -1)
    return _Layout(*common, 0, values, or_, guard, 0, bias)


def _pack(layout, p, e):
    """Packed key of the term x^e at position p; raises ExponentTooLarge for
    an exponent at or above the cap."""
    if max(e, default=0) >= _EXP_CAP:
        raise ExponentTooLarge(f"exponent {max(e)} is not below the cap 2^31")
    return layout.zero + sum(map(mul, e, layout.weights)) + (p << layout.pos_shift)


def _unpack(layout, k):
    """(position, exponent tuple) of a packed key."""
    shift = layout.pos_shift
    p = k >> shift
    e = layout.fields.unpack(((k - (p << shift)) ^ layout.flip).to_bytes(shift // 8,
                                                                           layout.byteorder))
    r = layout.rotate
    return p, e[r:] + e[:r] if r else e


def _raw_vector(components):
    """Raw vector of polynomials given by position."""
    return {(p, e): c for p, f in enumerate(components) for e, c in f.terms.items()}


def _raw_components(field, nvars, rank, raw):
    """Polynomials by position from a raw vector."""
    comps = [{} for _ in range(rank)]
    for (p, e), c in raw.items():
        comps[p][e] = c
    return tuple(Polynomial(field, nvars, t) for t in comps)


def _tail(layout, vec):
    """Tail of all the terms of the packed vector vec."""
    return tuple(vec.items()), _bound(layout, vec)


def _bound(layout, keys):
    """The bound of a tail whose keys are among keys."""
    flip = layout.flip
    return (functools.reduce(layout.merge, keys, flip) & layout.values) | (layout.zero ^ flip)


def _reducer_form(vec, layout, ops):
    """Reducer form of a nonzero packed vector, for the table ops."""
    lead = min(vec)
    c = vec[lead]
    terms = list(vec.items())
    terms.remove((lead, c))
    return (lead >> layout.pos_shift, layout.offset - lead, lead, c, ops.divisor(c),
            (tuple(terms), _bound(layout, vec)))


def _submul(work, tail, shift, c, ops, guard):
    """work -= c * x^shift * tail in place, for a tail of packed terms and
    the guard bits of their layout; returns the keys new to work. Raises
    ExponentTooLarge, before touching work, when a shifted term would have
    an exponent at or above the cap."""
    terms, bound = tail
    if (bound + shift) & guard:
        # the bound may exceed the largest exponents up to twice: check each term
        for t, _ in terms:
            if (t + shift) & guard:
                raise ExponentTooLarge("a term of the computation has an exponent of 2^31 or more")
    sub, mul, is_zero = ops.sub, ops.mul, ops.is_zero
    nc = sub(ops.zero, c)
    fresh = []
    for t, v in terms:
        k = t + shift
        old = work.get(k)
        if old is None:
            work[k] = mul(nc, v)
            fresh.append(k)
        else:
            new = sub(old, mul(c, v))
            if is_zero(new):
                del work[k]
            else:
                work[k] = new
    return fresh


def _reduce(work, forms, layout, ops, bound=None):
    """Full division of the packed vector work by reducer forms; consumes work.

    The leading term of work comes off a heap of packed keys; keys of terms
    cancelled meanwhile stay in the heap and are skipped when popped. The
    first reducer, in list order, at the same position whose lead divides
    it cancels it: only the reducer's tail, scaled, is subtracted. A leading
    term no reducer divides moves to the remainder, a packed vector in
    descending term order, which is returned. Quotients ride as tags (see
    `normal_form`).

    With a signature bound, the signature key of work (see `_buchberger`),
    every form carries its element's signature key as a seventh entry, and
    only regular steps are taken: the first reducer whose multiple has a
    smaller signature than work, a larger key than bound, cancels a term.
    So the remainder keeps the signature bound.

    The step on a lead c takes the quotient q from `ops.quotient` and
    subtracts q * x^shift * tail. Over a field that is plain division, one
    call per step. Over a domain (the integers, F_p[t]) it is
    pseudo-division: the table first has `scale` multiply work and the
    remainder by a nonzero element, and the remainder, made primitive on the
    way out, is a nonzero multiple of the remainder over the fraction field.
    """
    quotient, guard, target, shift = ops.quotient, layout.guard, layout.target, layout.pos_shift
    heap = list(work)
    heapq.heapify(heap)
    rem = {}

    def scale(s):
        mul = ops.mul
        for v in (work, rem):
            for t, x in v.items():
                v[t] = mul(x, s)

    while heap:
        k = heapq.heappop(heap)
        c = work.pop(k, None)
        if c is None:
            continue
        p = k >> shift
        for f in forms:
            if f[0] == p and (k + f[1]) & guard == target and (
                    bound is None or _regular(f, k, bound, layout)):
                for t in _submul(work, f[5], k - f[2], quotient(c, f[4], scale), ops, guard):
                    heapq.heappush(heap, t)
                break
        else:
            rem[k] = c
    return ops.primitive(rem)


def _regular(form, k, bound, layout):
    """True when the multiple of a signed reducer form whose lead is the
    term k has a smaller signature than the key bound (see `_reduce`):
    always when the form's signature is of an earlier input. Raises
    ExponentTooLarge when an exponent of the multiple's signature reaches
    the cap, where keys stop comparing as the order does."""
    shift = layout.pos_shift
    if form[6] >> shift > bound >> shift:
        return True
    s = form[6] + k - form[2]
    if s & layout.guard:
        raise ExponentTooLarge(_SIGNATURE_CAP)
    return s > bound


_SIGNATURE_CAP = "a signature of the computation has an exponent of 2^31 or more"


def _reduce_basis(forms, layout, ops):
    """Minimalize, tail-reduce and make monic; packed vectors ascending by
    lead.

    Takes the reducer forms of the elements. On a Groebner basis of a
    submodule (an ideal is the rank-1 case) the result is its unique reduced
    Groebner basis. One ascending pass reduces each element by the reduced
    elements before it: a lead divides only terms at or above it, so no
    larger lead divides a term of the element, and no later step changes
    it. Only the last step divides by the leads, through `ops.div`, which
    over a domain gives the exact quotient in its fraction field.
    """
    guard, target = layout.guard, layout.target
    lead = itemgetter(2)
    vecs, kept = [], []
    # ascending by lead; reverse=True keeps the sort stable, so of equal
    # leads the first in input order stays
    for f in sorted(forms, key=lead, reverse=True):
        if any(h[0] == f[0] and (f[2] + h[1]) & guard == target for h in kept):
            continue
        v = {f[2]: f[3]}
        v.update(f[5][0])
        # no other lead divides this lead, so it stays the lead
        r = _reduce(v, kept, layout, ops)
        vecs.append(r)
        kept.append(_reducer_form(r, layout, ops))
    div = ops.div
    return [{k: div(c, f[3]) for k, c in v.items()} for f, v in zip(kept, vecs)]


def _s_vector(fa, fb, lcm, ops, guard):
    """S-vector ka*x^ua*a - kb*x^ub*b of two reducer forms at one position,
    lcm being the packed key of the lcm of their leads, as a packed vector:
    (ka, kb) is `ops.cofactors` of the lead divisors, so ka = 1/ca and
    kb = 1/cb over a field, and the fraction-free cb/g and ca/g over a
    domain. The leads cancel exactly, so only the tails enter, tag terms
    (see `_buchberger`) among them.
    """
    ka, kb = ops.cofactors(fa[4], fb[4])
    sv = {}
    _submul(sv, fa[5], lcm - fa[2], ops.sub(ops.zero, ka), ops, guard)
    _submul(sv, fb[5], lcm - fb[2], kb, ops, guard)
    return sv


def _buchberger(ring: RingSpec, raws, rank, track=False, seeds=()):
    """Buchberger's algorithm on raw vectors in R^rank (an ideal is rank 1).

    Returns (basis, syzygies), the basis as packed vectors (see `_pack`).
    Pairs are formed only at the same position and wait in one heap. The
    loop runs on packed vectors, each input packed once.

    With track=True the loop runs on the field's own arithmetic and every
    pair is formed and reduced. Input i enters with a tag, the term 1 at
    position rank + i, so every vector of the loop carries its expression
    on the inputs at the positions past rank (Schreyer; Greuel-Pfister,
    2.8): this is `fpmodules.subquotient`'s tagged elimination, stopped at
    the tags. No lead sits at a tag position, so tags pass through
    `_s_vector` and `_reduce` unreduced. A remainder led at a tag position, a zero input
    among them, is a syzygy of the inputs and does not join the basis;
    together they generate the whole syzygy module. The syzygies are raw
    vectors of rank len(raws), the tags shifted down by rank, without
    repeats (first occurrences kept, in order), each checked to combine the
    untagged inputs to zero; the basis is the loop's, unreduced, its tags
    dropped.

    With track=False the loop, the basis reduction and the certificate run
    on `field.fraction_free`: over Q on primitive integer vectors and over
    F_p(t) on primitive vectors over F_p[t], which span the same submodule
    over the field as the inputs. The basis is reduced, ascending by lead,
    there are no syzygies, and `_self_check` certifies it. The reduced
    basis is unique, so a criterion below that skipped a pair wrongly could
    only fail the certificate, never change the basis.

    Tracked runs take the pair with the smallest lcm, by degree then order,
    ties broken by the index pair: the heap is keyed once, when the pair is
    formed, by (lcm degree, order key of the lcm, a, b), the order key
    being the negated packed key of the lcm at position 0. That order
    decides which syzygies come out, so it is part of the output contract.
    Every element carries its tag in its tail, so no criterion applies.

    Untracked runs follow signatures, at every rank: Faugere's F5 criteria
    (ISSAC 2002) in the rewrite-basis form of Eder-Faugere (*J. Symb.
    Comp.* 2017), which hold for submodules of R^rank as for ideals
    (Gao-Volny-Wang, *Math. Comp.* 2016). An element's signature is the
    leading term t*e_i of an expression of it on the n inputs, position
    over term with later inputs larger, packed as the term t at position
    n - 1 - i (a larger signature is a smaller key). Input i enters the
    heap with the signature e_i, a pair with T = max(u_a sig(a), u_b
    sig(b)), u being a lead's cofactor in the lcm, and no pair is formed
    when the two are equal; the smallest signature comes off first. An
    input whose lead an element divides, and each S-vector, is reduced
    regularly (see `_reduce`), so it keeps its signature. A nonzero
    remainder joins the basis, even when singular top-reducible: the
    rewrite criterion needs an element for each signature reduced, and
    dropping one lost a basis element. A zero one adds its signature to the
    known syzygy signatures of input i. So does T for a pair of two single
    terms (its S-vector is zero), which is not queued; two single terms
    are paired only at one position, and only once a pair of their input
    is popped. A popped pair is skipped when a known syzygy signature
    divides T (the syzygy criterion), or when an element of input i newer
    than the pair's side of signature T has a signature dividing T (the
    rewrite criterion). A signature key past the exponent cap raises
    ExponentTooLarge: past it keys stop comparing as the order does.

    Principal syzygies need vectors that commute. A flat vector, every term
    at its lead's position p, is a polynomial times e_p, and two flat
    vectors a = f e_p and b = g e_p give the syzygy g a - f b = 0. So when
    input i is flat, lead(a) e_i is a known syzygy signature for each flat
    element a at its position (F5's criterion), and a pair of two flat
    elements with coprime leads is not queued, its T, its principal
    syzygy's, being recorded. At rank 1 every vector is flat; other vectors
    give no such syzygy: (x, 1) and (y, 0) have coprime leads and the
    S-vector (0, y). Recording the principal syzygies of other pairs
    skipped no pair on any workload, so it is not done.

    Seeds are the raw vectors of a Groebner basis, of the same ring and
    order, that the caller holds (see `_basis`). They enter an untracked
    run at rank > 1 as one input before every other, of one signature
    smaller than every input's, the term 1 at position n; each is packed
    and made primitive as an input is, and is an input of the certificate.
    No pair of two seeds is queued: its S-vector has a standard
    representation over the seeds, and so over every superset of them
    (Buchberger's criterion; Cox-Little-O'Shea, *Ideals, Varieties, and
    Algorithms*, Ch. 2 §10). A seed pairs with every later element as an
    earlier input's element does, and a step by a seed is always regular.
    `_self_check` runs on the result as on any other, so a wrong seed could
    only fail it; the one thing it cannot see is a generator missing from
    the inputs, which is why `_basis` leans on its `known` holding
    J*R^rank. Tracked runs take no seeds: a tracked element carries its
    expression on the inputs, and a seed has none. Nor do rank-1 runs,
    where `_basis` passes a held basis as plain inputs: seeded there,
    cli-mix's rank-1 runs formed 248 S-vectors per pass, not 167.
    """
    layout = _layout(ring.order, ring.nvars)
    guard, target, shift, offset = layout.guard, layout.target, layout.pos_shift, layout.offset
    ops = ring.field.raw if track else ring.field.fraction_free
    assert not (seeds and (track or rank == 1)), "seeds enter only untracked runs at rank > 1"
    forms, leads, syz, inputs = [], [], [], []
    at = {}          # position -> indices of the elements whose lead is there
    tailed = {}      # position -> those of them with a tail
    # heap of (lcm degree, order key, a, b, packed lcm) when tracked, else of
    # (-T, a, b, packed lcm), a's side having the signature T, and of (-e_i,
    # -1, i, None) for inputs[i]
    queue = []
    tags = rank << shift
    known = []    # signed: divisor tests, offset - s, of the syzygy signatures s at this input
    newest = []   # signed: (element, divisor test of its signature) of this input's elements
    singles = []  # signed: the single-term elements, paired with each other only on demand
    flat = set()  # signed: the elements with every term at their lead's position
    paired = 0    # signed: singles[:paired] are paired with each other

    def pair(a, b):
        """Queue the signed pair (a, b), a < b, or record its syzygy signature."""
        fa, fb, (p, ea), eb = forms[a], forms[b], leads[a], leads[b][1]
        lcm = tuple(map(max, ea, eb))
        key = _pack(layout, p, lcm)
        # b has the larger signature, so its side has too unless a is of this input
        t, g, h = fb[6] + key - fb[2], b, a
        if fa[6] >> shift == fb[6] >> shift:
            sa = fa[6] + key - fa[2]
            if sa & guard:
                raise ExponentTooLarge(_SIGNATURE_CAP)
            if sa == t:
                return
            if sa < t:
                t, g, h = sa, a, b
        if t & guard:
            raise ExponentTooLarge(_SIGNATURE_CAP)
        if not (fa[5][0] or fb[5][0]) or (
                a in flat and b in flat and sum(lcm) == sum(ea) + sum(eb)):
            known.append(offset - t)
        else:
            heapq.heappush(queue, (-t, g, h, key))

    def add(vec, label=None, seed=False):
        """Join vec, of signature key label when untracked, to the loop
        and queue its pairs; a seed queues none."""
        if not vec:
            return
        if min(vec) >= tags:
            syz.append({k - tags: c for k, c in vec.items()})
            return
        new = len(forms)
        form = _reducer_form(vec, layout, ops)
        p, e = _unpack(layout, form[2])
        there, with_tail = at.setdefault(p, []), tailed.setdefault(p, [])
        partners = () if seed else there if form[5][0] else with_tail
        leads.append((p, e))
        if track:
            forms.append(form)
            for k in partners:
                lcm = tuple(map(max, leads[k][1], e))
                key = _pack(layout, 0, lcm)
                heapq.heappush(queue, (sum(lcm), -key, k, new, key + (p << shift)))
        else:
            # seventh entry: the signature key
            forms.append(form + (label,))
            if max(vec) >> shift == p:
                flat.add(new)
            for k in partners:
                pair(k, new)
            newest.append((new, offset - label))
            if not form[5][0]:
                singles.append(new)
        there.append(new)
        if form[5][0]:
            with_tail.append(new)

    for raw in seeds:
        vec = {_pack(layout, p, e): c for (p, e), c in ops.primitive(raw).items()}
        inputs.append(vec)
        add(vec, layout.zero + (len(raws) << shift), True)
    for i, raw in enumerate(raws):
        vec = {_pack(layout, p, e): c for (p, e), c in ops.primitive(raw).items()}
        if track:
            add({**vec, layout.zero + tags + (i << shift): ops.one})
        else:
            heapq.heappush(queue, (-(layout.zero + ((len(raws) - 1 - i) << shift)), -1,
                                   len(inputs), None))
        inputs.append(vec)

    while queue:
        if track:
            _, _, a, b, lcm = heapq.heappop(queue)
            add(_reduce(_s_vector(forms[a], forms[b], lcm, ops, guard), forms, layout, ops))
            continue
        t, a, b, lcm = heapq.heappop(queue)
        t = -t
        if a < 0:
            # inputs[b]: every element so far is of an earlier input, so
            # every step is regular and, when the input is flat, the lead of
            # each flat element at its position a syzygy signature; the pairs
            # of single terms left unpaired are of earlier inputs
            vec = inputs[b]
            known.clear()
            newest.clear()
            paired = len(singles)
            if vec:
                lead = min(vec)
                there = at.get(lead >> shift, ())
                if max(vec) >> shift == lead >> shift:
                    known.extend(forms[k][1] for k in there if k in flat)
                if any((lead + forms[k][1]) & guard == target for k in there):
                    vec = _reduce(dict(vec), forms, layout, ops, t)
            add(vec, t)
            continue
        for j in range(paired, len(singles)):
            for k in singles[:j]:
                if leads[k][0] == leads[singles[j]][0]:
                    pair(k, singles[j])
        paired = len(singles)
        if not (any((t + z) & guard == target for z in known)
                or any(k > a and (t + z) & guard == target for k, z in newest)):
            r = _reduce(_s_vector(forms[a], forms[b], lcm, ops, guard), forms, layout, ops, t)
            if r:
                add(r, t)
            else:
                known.append(offset - t)
    if track:
        kept = {}
        for v in syz:
            kept.setdefault(frozenset(v.items()), v)
        tails = [_tail(layout, v) for v in inputs]
        assert not any(_combination(v, tails, layout, ops) for v in kept.values()), \
            "syzygy identity failed"
        basis = [{k: c for k, c in ((f[2], f[3]), *f[5][0]) if k < tags} for f in forms]
        return basis, [{_unpack(layout, k): c for k, c in v.items()} for v in kept.values()]
    basis = _reduce_basis(forms, layout, ops)
    _self_check(basis, inputs, layout, ops)
    return basis, syz


def _basis(ring: RingSpec, raws, rank, known=None) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule of R^rank that the raw vectors
    and J*e_p for every position p generate, J being ring.quotient, and the
    vectors of known, a `GroebnerBasis` of rank at most rank, when given.

    The distinct nonzero inputs enter `_buchberger` ascending by lead, that
    is descending by the packed key of the lead, equal leads in input order.
    At rank > 1 known's vectors enter as seeds (see `_buchberger`), whose
    pairs with each other are never formed, and J*e_p only for p >=
    known.rank. That leans on a contract: every `GroebnerBasis` that
    `_basis`, `_copies` and `_block` make holds J*R^rank, so known already
    holds J*e_p for p < known.rank. At rank 1 known's vectors go first among
    the plain inputs, which costs the loop fewer S-vectors there.
    """
    layout = _layout(ring.order, ring.nvars)
    work, seeds, start = list(raws), (), 0
    if known is not None and rank > 1:
        seeds, start = known.raws, known.rank
    elif known is not None:
        work[:0] = known.raws
    for q in ring.quotient:
        work.extend({(p, e): c for e, c in q.terms.items()} for p in range(start, rank))
    inputs = {}
    for raw in sorted((r for r in work if r),
                      key=lambda r: min(_pack(layout, p, e) for p, e in r), reverse=True):
        inputs.setdefault(frozenset(raw.items()), raw)
    basis, _ = _buchberger(ring, list(inputs.values()), rank, seeds=seeds)
    return GroebnerBasis(ring, [{_unpack(layout, k): c for k, c in v.items()} for v in basis],
                         rank, basis)


def buchberger(ring: RingSpec, gens) -> GroebnerBasis:
    """Reduced Groebner basis of (gens) + (ring.quotient)."""
    return _basis(ring, [_raw_vector((ring.check_member(g),)) for g in gens], 1)


def _self_check(basis, inputs, layout, ops):
    """Correctness certificate for a computed basis at any rank.

    Every S-vector of two basis elements at the same position has a standard
    representation, and every input reduces to zero, so the basis is a
    Groebner basis of a submodule that contains the inputs. It proves no
    more: the basis {1} passes for any inputs. The reverse inclusion holds
    for `_buchberger`'s basis by construction, each element being a
    remainder of a combination of inputs and earlier elements, so there the
    basis is one of exactly the input submodule.

    A pair (a, b) is certified when its S-vector S(a, b) is a combination
    of basis elements times terms, all below L = lcm(a, b), the lcm of the
    leads; the basis is a Groebner basis exactly when every pair at one
    position is (Cox-Little-O'Shea, *Ideals, Varieties, and Algorithms*,
    Ch. 2 §10; for modules the proof runs at each position). Two kinds of
    pair lean on no other: two single terms (the S-vector is zero) and,
    when every basis term is at position 0, coprime leads (the product
    criterion; at higher rank the S-vector need not reduce to zero), so
    they are certified first. The rest are taken in one
    pass, in ascending lcm order, ties by index, and each is certified by
    dividing its S-vector out to zero, or by the chain criterion in its
    processed-pairs form: a third lead k at the position divides L, and
    (a, k) and (b, k) are certified already. Then S(a, b) is, up to
    nonzero scalars, (L / lcm(a, k)) S(a, k) - (L / lcm(b, k)) S(b, k),
    each side's representation times its cofactor lies below L, and so
    S(a, b) has one. Each skip leans only on pairs certified before it, so
    by induction on the pass every pair is certified; the ascending order
    just puts first the side pairs, whose lcms divide L.

    Basis and inputs are packed vectors in layout, left as they are and
    checked as `ops.primitive` vectors. Over a domain (the integers, F_p[t])
    each is a nonzero multiple of the vector over the fraction field, and
    so is each S-vector and each pseudo-remainder, so "reduces to zero"
    means the same as over the field.
    """
    guard, target, shift, primitive = layout.guard, layout.target, layout.pos_shift, ops.primitive
    forms = [_reducer_form(primitive(v), layout, ops) for v in basis]
    leads = [_unpack(layout, f[2]) for f in forms]
    polys = all(k >> shift == 0 for v in basis for k in v)
    at = {}
    for i, (p, _) in enumerate(leads):
        at.setdefault(p, []).append(i)
    certified, pairs = set(), []
    for p, there in at.items():
        for a, b in itertools.combinations(there, 2):
            ea, eb = leads[a][1], leads[b][1]
            if not (forms[a][5][0] or forms[b][5][0]) or polys and not any(map(min, ea, eb)):
                certified.add((a, b))
            else:
                # ascending lcm is descending packed key
                pairs.append((-_pack(layout, p, tuple(map(max, ea, eb))), a, b))
    pairs.sort()
    for key, a, b in pairs:
        key = -key
        # (a, a) is never certified, so k is neither a nor b
        if not any((key + forms[k][1]) & guard == target and (min(a, k), max(a, k)) in certified
                   and (min(b, k), max(b, k)) in certified for k in at[leads[a][0]]) \
                and _reduce(_s_vector(forms[a], forms[b], key, ops, guard), forms, layout, ops):
            raise AssertionError("S-vector self-check failed: not a Groebner basis")
        certified.add((a, b))
    for v in inputs:
        if _reduce(dict(primitive(v)), forms, layout, ops):
            raise AssertionError("input does not reduce to zero")


def _combination(vec, tails, layout, ops):
    """The packed vector sum of c * x^e * tails[i] over the terms c * x^e at
    position i of the packed vector vec."""
    shift, base, sub, zero = layout.pos_shift, layout.zero, ops.sub, ops.zero
    out = {}
    for k, c in vec.items():
        i = k >> shift
        _submul(out, tails[i], k - (i << shift) - base, sub(zero, c), ops, layout.guard)
    return out


def _linear_combination(ring: RingSpec, vec, cols):
    """The raw vector sum of c * x^e * cols[i] over the terms (i, e): c of
    the raw vector vec, cols being raw vectors."""
    layout = _layout(ring.order, ring.nvars)
    tails = {i: _tail(layout, {_pack(layout, p, e): c for (p, e), c in cols[i].items()})
             for i in {p for p, _ in vec}}
    out = _combination({_pack(layout, i, e): c for (i, e), c in vec.items()}, tails,
                       layout, ring.field.raw)
    return {_unpack(layout, k): c for k, c in out.items()}


def normal_form(f: Polynomial, gb: GroebnerBasis, with_witness: bool = False):
    """Unique remainder of f modulo the reduced basis; optional cofactors.

    With with_witness, returns (remainder, witness) satisfying
    f == sum(witness[i] * gb.generators[i]) + remainder exactly: f is
    divided by a copy of the basis whose element i carries the tag 1 at
    position 1 + i. No lead sits there, so the steps are the same, and the
    remainder holds -witness[i] at position 1 + i.
    """
    gb.ring.check_member(f)
    field, nvars, n = f.field, f.nvars, len(gb.raws)
    if not with_witness:
        return _raw_components(field, nvars, 1, gb.reduce(_raw_vector((f,))))[0]
    origin = (0,) * nvars
    tagged = GroebnerBasis(gb.ring, [{**v, (1 + i, origin): field.raw.one}
                                     for i, v in enumerate(gb.raws)], 1 + n)
    r, *tags = _raw_components(field, nvars, 1 + n, tagged.reduce(_raw_vector((f,))))
    witness = [-q for q in tags]
    acc = Polynomial.zero(field, nvars)
    for w, g in zip(witness, gb.generators):
        acc = acc + w * g
    assert acc + r == f, "division witness identity failed"
    return r, witness


def standard_monomials(gb: GroebnerBasis):
    """Exponent tuples of the standard terms of R^rank modulo the submodule,
    positions dropped (at rank 1 a monomial basis of R/(ideal) over k), or
    INFINITE: ascending in the position-over-term order, last position first.

    A position whose leads include a unit contributes nothing. Otherwise the
    count is finite exactly when every variable has a pure power among the
    position's leads; then all exponents below those bounds are enumerated.
    """
    out = []
    for p in reversed(range(gb.rank)):
        exps = [e for q, e in gb._leads if q == p]
        if any(not any(e) for e in exps):
            continue
        bounds = [min((e[i] for e in exps if e[i] and sum(e) == e[i]), default=None)
                  for i in range(gb.ring.nvars)]
        if None in bounds:
            return INFINITE
        out += sorted((t for t in itertools.product(*(range(b) for b in bounds))
                       if not any(all(map(le, e, t)) for e in exps)), key=gb.ring.order.key)
    return out


def krull_dimension(gb: GroebnerBasis) -> int:
    """Dimension of R/(ideal), read off the leading monomials."""
    if gb.is_unit_ideal():
        raise UnitIdeal("the unit ideal has no dimension")
    return gb.dimension()
