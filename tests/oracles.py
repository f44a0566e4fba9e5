"""Independent cross-checks for the division and enumeration engines.

The ideal references decide ideal questions by exact linear algebra over the
coefficient field: products (monomial) * (generator) up to a degree cap are
row-reduced with their own grevlex key, so no Buchberger code, no normal-form
code, and no Polynomial multiplication from the package is involved.  Only
the field's arithmetic on raw coefficients, `FieldSpec.raw`, is reused.

The lead-set references after them count and search directly on the
(position, exponent tuple) leads of a Groebner basis, with no Hilbert
series: they check `GroebnerBasis.dimension`, `length` and
`hilbert_series`.

The rest, `two_step_presentation`, `tracked_saturation`,
`witness_syzygies`, `fixpoint_interreduction`, `lcm_ordered_basis`,
`stepwise_multiplicity` and `stepwise_candidate`, do run the package's
engine, but by another route than the code they check.
"""

import heapq
import itertools
import operator

from mcalc import groebner
from mcalc.errors import (NoStabilization, NotFiniteColength, OutOfRange,
                          SaturationCapExceeded, SupportNotAtOrigin)
from mcalc.fpmodules import (SATURATION_CAP, FPModule, ModuleVector, preimage_submodule,
                             subquotient)
from mcalc.polyring import INFINITE


def _grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _poly_as_row(f):
    """Exponent tuple -> raw coefficient: a copy of the terms."""
    return dict(f.terms)


def _shift_row(row, mult):
    return {tuple(a + b for a, b in zip(mult, e)): c for e, c in row.items()}


def _subtract_multiple(row, factor, other, ops):
    """row -= factor * other in place, on raw coefficients."""
    for e, c in other.items():
        s = ops.sub(row.get(e, ops.zero), ops.mul(factor, c))
        if ops.is_zero(s):
            row.pop(e, None)
        else:
            row[e] = s


def _reduce_row(row, pivots, ops):
    """Reduce against a triangular set; return (lead, row) or (None, None)."""
    row = dict(row)
    while row:
        lead = max(row, key=_grevlex_key)
        piv = pivots.get(lead)
        if piv is None:
            return lead, row
        _subtract_multiple(row, ops.div(row[lead], piv[lead]), piv, ops)
    return None, None


def _multipliers(nvars, cap):
    mons = [e for e in itertools.product(range(cap + 1), repeat=nvars)
            if sum(e) <= cap]
    mons.sort(key=_grevlex_key)
    return mons


def _echelon(gens, ring, cap):
    """Triangular span of {m * g : deg m <= cap}, keyed by lead exponent."""
    pivots = {}
    rows = [_poly_as_row(g) for g in gens if not g.is_zero()]
    for mult in _multipliers(ring.nvars, cap):
        for base in rows:
            lead, reduced = _reduce_row(_shift_row(base, mult), pivots, ring.field.raw)
            if lead is not None:
                pivots[lead] = reduced
    return pivots


def membership_oracle(ring, gens, cofactor_cap=4):
    """Build a membership test for (gens) + (ring.quotient), echelon reused.

    The returned callable decides membership with cofactors of degree <= cap.
    A True answer is a certificate; False only means no combination exists
    within the cap, which suffices for the desk-scale families tested here.
    """
    all_gens = list(gens) + list(ring.quotient)
    pivots = _echelon(all_gens, ring, cofactor_cap)

    def member(f):
        lead, _ = _reduce_row(_poly_as_row(f), pivots, ring.field.raw)
        return lead is None

    return member


def brute_force_member(ring, f, gens, cofactor_cap=4):
    """One-shot form of membership_oracle for a single query."""
    return membership_oracle(ring, gens, cofactor_cap)(f)


def standard_monomial_count(ring, gens, cap=6):
    """Count monomials outside the observed lead ideal, or None.

    Returns an integer only when some degree level at or below the cap is
    fully covered by observed leads: then every monomial of that degree or
    higher is a multiple of a genuine leading monomial of the ideal, so the
    quotient basis lives strictly below that level and is counted directly.
    Returns None when no level is covered (finiteness not certified).
    """
    all_gens = [g for g in list(gens) + list(ring.quotient) if not g.is_zero()]
    if not all_gens:
        return None
    n = ring.nvars
    leads = set(_echelon(all_gens, ring, cap))
    for level in range(cap + 1):
        at_level = [e for e in itertools.product(range(level + 1), repeat=n)
                    if sum(e) == level]
        if all(e in leads for e in at_level):
            below = [e for e in itertools.product(range(level + 1), repeat=n)
                     if sum(e) < level]
            return sum(1 for e in below if e not in leads)
    return None


def first_divisor_division(f, reducers, key):
    """Plain multivariate division of f by an ordered list of nonzero reducers.

    `key` sorts exponent tuples in the monomial order. Every step re-scans
    the working terms for the largest one with max, and the first reducer
    whose leading monomial divides it cancels it; a leading term no reducer
    divides moves to the remainder. Returns (remainder, quotients) as dicts
    from exponent tuples to raw coefficients, quotients[j] belonging to
    reducers[j].
    """
    ops = f.field.raw
    rows = [_poly_as_row(g) for g in reducers]
    leads = [max(row, key=key) for row in rows]
    work = _poly_as_row(f)
    rem, quotients = {}, [{} for _ in reducers]
    while work:
        lead = max(work, key=key)
        for j, (lm, row) in enumerate(zip(leads, rows)):
            if all(a <= b for a, b in zip(lm, lead)):
                q = tuple(b - a for a, b in zip(lm, lead))
                qc = ops.div(work[lead], row[lm])
                quotients[j][q] = qc
                _subtract_multiple(work, qc, _shift_row(row, q), ops)
                break
        else:
            rem[lead] = work.pop(lead)
    return rem, quotients


def packed_first_divisor_division(work, forms, layout, ops):
    """`first_divisor_division` on a packed vector and reducer forms of
    `groebner`, with no heap: every step takes the least key left, the
    leading term, and the first form at its position whose lead divides it
    cancels it, with the field's own division; a leading term no form
    divides moves to the remainder. Returns (remainder, quotients), packed:
    quotients[j] maps the shift key(term) - key(lead) of each step of form j
    to its raw coefficient. work is left as it is."""
    guard, target, shift = layout.guard, layout.target, layout.pos_shift
    work, rem, quotients = dict(work), {}, [{} for _ in forms]
    while work:
        k = min(work)
        c = work.pop(k)
        for j, f in enumerate(forms):
            if f[0] == k >> shift and (k + f[1]) & guard == target:
                u, q = k - f[2], ops.div(c, f[3])
                quotients[j][u] = q
                for t, v in f[5][0]:
                    s = ops.sub(work.get(t + u, ops.zero), ops.mul(q, v))
                    if ops.is_zero(s):
                        work.pop(t + u, None)
                    else:
                        work[t + u] = s
                break
        else:
            rem[k] = c
    return rem, quotients


def _lead_multiple(leads, p, t):
    return any(q == p and all(map(operator.le, e, t)) for q, e in leads)


def subset_dimension(leads, rank, nvars):
    """Dimension of R^rank modulo a submodule with these leads: the size of
    the largest variable subset that, at some position, contains the
    support of no lead there; -1 for the zero quotient."""
    best = -1
    for p in range(rank):
        supports = [{i for i, x in enumerate(e) if x} for q, e in leads if q == p]
        for size in range(nvars, best, -1):
            if any(not any(sup <= set(combo) for sup in supports)
                   for combo in itertools.combinations(range(nvars), size)):
                best = size
                break
    return best


def box_standard_count(leads, rank, nvars):
    """Number of standard terms of R^rank modulo a submodule with these
    leads, or None when it is infinite: at each position without a unit
    lead, the terms in the box below the pure-power leads that no lead
    divides."""
    count = 0
    for p in range(rank):
        exps = [e for q, e in leads if q == p]
        if any(not any(e) for e in exps):
            continue
        bounds = [min((e[i] for e in exps if e[i] == sum(e)), default=None)
                  for i in range(nvars)]
        if None in bounds:
            return None
        count += sum(1 for t in itertools.product(*(range(b) for b in bounds))
                     if not _lead_multiple(leads, p, t))
    return count


def graded_standard_count(leads, rank, nvars, degree):
    """Number of standard terms of the given total degree, over all
    positions, of R^rank modulo a submodule with these leads."""
    terms = [t for t in itertools.product(range(degree + 1), repeat=nvars) if sum(t) == degree]
    return sum(1 for p in range(rank) for t in terms if not _lead_multiple(leads, p, t))


def partially_graded_standard_count(leads, rank, graded, cells, nvars, degree, bound):
    """Number of standard terms, over all positions, of R^rank modulo a
    submodule with these leads whose first `graded` exponents sum to
    degree, whose next `cells` exponents are one unit vector (all of them
    none when cells is 0), and whose other exponents are below bound."""
    heads = [h for h in itertools.product(range(degree + 1), repeat=graded) if sum(h) == degree]
    units = [tuple(int(i == j) for j in range(cells)) for i in range(cells)] or [()]
    tails = list(itertools.product(range(bound), repeat=nvars - graded - cells))
    return sum(1 for p in range(rank) for h in heads for u in units for t in tails
               if not _lead_multiple(leads, p, h + u + t))


# The route subquotient presentations took before they came off one
# elimination basis: a tracked syzygy computation for the preimage, then a
# second basis for its reduced form. Unlike the references above it runs the
# package's own engine, so it checks one route against the other.

def two_step_presentation(ker, img, ambient):
    """Relations of span(ker)/(span(img) + relations) presented on ker: the
    preimage of span(img) + ambient.relations under e_i -> ker[i], from
    `preimage_submodule`, as the reduced basis `FPModule` makes of it."""
    ring = ambient.ring
    rels = preimage_submodule(ring, list(img) + list(ambient.relations), list(ker))
    return FPModule(ring, len(ker), rels).relations


# The route gamma_saturation took before it iterated S -> S : f on
# elimination bases: tracked preimages of f^k, a second basis per step, and
# the quotient built from the stable generators.

def tracked_saturation(M, f):
    """(Gamma, M/Gamma) for Gamma = (0 :_M f^infinity): the generators of
    (0 : f^k) from `preimage_submodule` for k = 1, 2, .. until the reduced
    basis of rel + gens repeats, Gamma presented on the stable generators and
    the quotient `FPModule(rank, rel + gens)`."""
    ring, rel = M.ring, list(M.relations)
    prev_gb = prev_gens = None
    fk = ring.one()
    for _ in range(SATURATION_CAP):
        fk = fk * f
        cols = [ModuleVector.unit(ring.field, ring.nvars, M.rank, i, fk) for i in range(M.rank)]
        gens = preimage_submodule(ring, rel, cols)
        gb = FPModule(ring, M.rank, gens + rel).gb
        if prev_gb is not None and gb.raws == prev_gb.raws:
            return subquotient(prev_gens, [], M), FPModule(ring, M.rank, rel + prev_gens)
        prev_gb, prev_gens = gb, gens
    raise SaturationCapExceeded("(0 : f^k) did not stabilize")


# The route tracked syzygies took before the inputs carried tags: each
# element keeps its expression on the inputs beside it, and every reduction
# replays the S-vector's two steps and the quotients of its division on
# those expressions. The division is `packed_first_divisor_division`, so
# this route shares no division code with the kernel.

def witness_syzygies(ring, vectors):
    """Syzygies of the ModuleVectors vectors, as `syzygies` returns them:
    the same pair heap with no pair skipped, a zero input giving its unit
    vector, and first occurrences kept, in order. An element's expression
    is a packed vector of rank len(vectors); a reduction to zero with a
    nonzero expression is a syzygy."""
    vecs = list(vectors)
    if not vecs:
        return []
    layout = groebner._layout(ring.order, ring.nvars)
    ops, guard, shift = ring.field.raw, layout.guard, layout.pos_shift
    forms, leads, reps, syz, at, queue = [], [], [], [], {}, []

    def add_element(vec, rep):
        new = len(forms)
        forms.append(groebner._reducer_form(vec, layout, ops))
        p, e = groebner._unpack(layout, forms[-1][2])
        leads.append((p, e))
        reps.append(groebner._tail(layout, rep))
        for k in at.setdefault(p, []):
            lcm = tuple(map(max, leads[k][1], e))
            key = groebner._pack(layout, 0, lcm)
            heapq.heappush(queue, (sum(lcm), -key, k, new, key + (p << shift)))
        at[p].append(new)

    for i, v in enumerate(vecs):
        unit = {layout.zero + (i << shift): ops.one}
        vec = {groebner._pack(layout, p, e): c for (p, e), c in v.raw.items()}
        if vec:
            add_element(vec, unit)
        else:
            syz.append(unit)
    while queue:
        _, _, a, b, lcm = heapq.heappop(queue)
        ka, kb = ops.cofactors(forms[a][4], forms[b][4])
        steps = ((a, lcm - forms[a][2], ops.sub(ops.zero, ka)), (b, lcm - forms[b][2], kb))
        sv, rep = {}, {}
        for j, u, k in steps:
            groebner._submul(sv, forms[j][5], u, k, ops, guard)
            groebner._submul(rep, reps[j], u, k, ops, guard)
        r, quotients = packed_first_divisor_division(sv, forms, layout, ops)
        for j, q in enumerate(quotients):
            for u, k in q.items():
                groebner._submul(rep, reps[j], u, k, ops, guard)
        if r:
            add_element(r, rep)
        elif rep:
            syz.append(rep)
    kept = {}
    for v in syz:
        kept.setdefault(frozenset(v.items()), v)
    return [ModuleVector._from_raw(ring.field, ring.nvars, len(vecs),
                                   {groebner._unpack(layout, k): c for k, c in v.items()})
            for v in kept.values()]


# The route basis reduction took before it made one ascending pass: every
# element is reduced by all the others, over and over, until a whole pass
# changes none.

def fixpoint_interreduction(forms, layout, ops):
    """`groebner._reduce_basis` by repeated passes to a fixpoint: the same
    minimalization, then tail reduction of each element by every other
    until nothing changes, then division by the leads."""
    guard, target = layout.guard, layout.target
    vecs, kept = [], []
    for f in sorted(forms, key=operator.itemgetter(2), reverse=True):
        if any(h[0] == f[0] and (f[2] + h[1]) & guard == target for h in kept):
            continue
        vecs.append({f[2]: f[3], **dict(f[5][0])})
        kept.append(f)
    changed = True
    while changed:
        changed = False
        for i in range(len(vecs)):
            r = groebner._reduce(dict(vecs[i]), kept[:i] + kept[i + 1:], layout, ops)
            if r != vecs[i]:
                vecs[i] = r
                kept[i] = groebner._reducer_form(r, layout, ops)
                changed = True
    return [{k: ops.div(c, f[3]) for k, c in v.items()}
            for f, v in sorted(zip(kept, vecs), key=lambda fv: fv[0][2], reverse=True)]


# The route the untracked loop took before it was signature-based: pairs
# taken in ascending lcm order (degree, then the order), the two
# pair-formation criteria (two single terms; coprime leads at rank 1) and
# the chain criterion in its queued-pairs form, inputs added unreduced.

def lcm_ordered_basis(ring, raws, rank=1):
    """The reduced Groebner basis, as raw vectors ascending by lead, of the
    submodule of R^rank that the raw vectors raws and J*e_p for every
    position p generate, J being ring.quotient: `groebner._basis` by the
    lcm-ordered untracked loop, on the field's fraction-free table and the
    package's division kernel, S-vectors and basis reduction, with no
    certificate."""
    layout = groebner._layout(ring.order, ring.nvars)
    guard, target, shift = layout.guard, layout.target, layout.pos_shift
    ops = ring.field.fraction_free
    work = list(raws) + [{(p, e): c for e, c in q.terms.items()}
                         for q in ring.quotient for p in range(rank)]
    forms, leads, at, tailed, pending, queue = [], [], {}, {}, set(), []

    def add(vec):
        if not vec:
            return
        new = len(forms)
        form = groebner._reducer_form(vec, layout, ops)
        p, e = groebner._unpack(layout, form[2])
        forms.append(form)
        leads.append((p, e))
        there, with_tail = at.setdefault(p, []), tailed.setdefault(p, [])
        for k in there if form[5][0] else with_tail:
            lcm = tuple(map(max, leads[k][1], e))
            if rank == 1 and sum(lcm) == sum(leads[k][1]) + sum(e):
                continue
            key = groebner._pack(layout, 0, lcm)
            heapq.heappush(queue, (sum(lcm), -key, k, new, key + (p << shift)))
            pending.add((k, new))
        there.append(new)
        if form[5][0]:
            with_tail.append(new)

    for raw in work:
        add({groebner._pack(layout, p, e): c for (p, e), c in ops.primitive(raw).items()})
    while queue:
        _, _, a, b, lcm = heapq.heappop(queue)
        pending.discard((a, b))
        if any(k != a and k != b and (lcm + forms[k][1]) & guard == target
               and (min(a, k), max(a, k)) not in pending and (min(b, k), max(b, k)) not in pending
               for k in at[leads[a][0]]):
            continue
        add(groebner._reduce(groebner._s_vector(forms[a], forms[b], lcm, ops, guard),
                             forms, layout, ops))
    return [{groebner._unpack(layout, k): c for k, c in v.items()}
            for v in groebner._reduce_basis(forms, layout, ops)]


# The route the length table took before it was read off one Hilbert series:
# I^n as all n-fold products of the generators, a colength check of its own
# for M/IM, and the r-th differences of the whole table recomputed at every
# entry, stopping at the first three equal ones; and the search candidate
# test that built the basis of all d elements for its own colength check
# before the table.

# entries at most: I^n from three forms has O(n^2) generators, so a table
# that never settles stays cheap
STEPWISE_CAP = 10


def _ideal_power(gens, n):
    out = []
    for combo in itertools.combinations_with_replacement(gens, n):
        p = combo[0]
        for q in combo[1:]:
            p = p * q
        if p not in out:
            out.append(p)
    return out


def _stepwise_lengths(M, gens):
    for g in gens:
        M.ring.check_member(g)
    first = (M.quotient_by_polys(gens) if gens else M).local_length()
    if first is INFINITE:
        raise NotFiniteColength("M/IM has infinite length")
    yield first
    for n in itertools.count(2):
        v = (M.quotient_by_polys(_ideal_power(gens, n)) if gens else M).length()
        if v is INFINITE:
            raise NotFiniteColength(f"M/I^{n}M has infinite length")
        yield v


def _differences(values, r):
    seq = list(values)
    for _ in range(r):
        seq = [b - a for a, b in zip(seq, seq[1:])]
    return seq


def stepwise_multiplicity(M, gens, r):
    """The length table with I^n from `_ideal_power`, stopped at the first
    three equal r-th differences, that value being e, replaced by 0 when r
    exceeds dim Supp M; a negative e raises NoStabilization, as does a
    table with no three equal differences in `STEPWISE_CAP` entries. A
    plateau of the Hilbert-Samuel function stops it early with a wrong e.
    No homogeneity warning."""
    gens = list(gens)
    if r < 0:
        raise OutOfRange("difference order must be nonnegative")
    values = []
    for v in itertools.islice(_stepwise_lengths(M, gens), STEPWISE_CAP):
        values.append(v)
        diffs = _differences(values, r)
        if len(diffs) >= 3 and diffs[-1] == diffs[-2] == diffs[-3]:
            e = diffs[-1]
            if e and r > M.support_dimension():
                e = 0
            if e < 0:
                raise NoStabilization(f"order-{r} differences settled at {e} < 0",
                                      values=list(values), r=r)
            return e, tuple(values)
    raise NoStabilization(f"no three equal order-{r} differences within {STEPWISE_CAP} steps",
                          values=list(values), r=r)


def stepwise_candidate(A, seq, d):
    """The earlier route of `multiplicity._validate_candidate`: a dimension
    drop checked at every one of the d steps, a unit-ideal test at each, the
    colength of all d elements checked on their basis, and e read from
    `stepwise_multiplicity`'s table, not from Serre's alternating sum, so a
    plateau of the Hilbert function gives the table's wrong e."""
    ring = A.ring
    for f in seq:
        if f.is_zero() or not ring.field.raw.is_zero(f.constant_coefficient()):
            return None
    gb = A.gb
    for i in range(1, d + 1):
        gb = groebner.buchberger(ring, list(seq[:i]))
        if gb.is_unit_ideal():
            return None
        if groebner.krull_dimension(gb) != d - i:
            return None
    try:
        if gb.local_length() is INFINITE:
            return None
    except SupportNotAtOrigin:
        return None
    return stepwise_multiplicity(A, list(seq), d)[0]
