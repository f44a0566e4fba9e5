"""Independent cross-checks for the division and enumeration engines.

Everything here decides ideal questions by exact linear algebra over the
coefficient field: products (monomial) * (generator) up to a degree cap are
row-reduced with their own grevlex key, so no Buchberger code, no normal-form
code, and no Polynomial multiplication from the package is involved.  Only
Scalar arithmetic is reused.
"""

import itertools

from mcalc.scalars import Scalar


def _grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _poly_as_row(f):
    """Exponent tuple -> Scalar: the raw coefficients, wrapped."""
    return {e: Scalar(f.field, c) for e, c in f.terms.items()}


def _shift_row(row, mult):
    return {tuple(a + b for a, b in zip(mult, e)): c for e, c in row.items()}


def _reduce_row(row, pivots):
    """Reduce against a triangular set; return (lead, row) or (None, None)."""
    row = dict(row)
    while row:
        lead = max(row, key=_grevlex_key)
        piv = pivots.get(lead)
        if piv is None:
            return lead, row
        factor = row[lead] / piv[lead]
        for e, c in piv.items():
            s = row.get(e)
            s = -(factor * c) if s is None else s - factor * c
            if s.is_zero():
                row.pop(e, None)
            else:
                row[e] = s
    return None, None


def _multipliers(nvars, cap):
    mons = [e for e in itertools.product(range(cap + 1), repeat=nvars)
            if sum(e) <= cap]
    mons.sort(key=_grevlex_key)
    return mons


def _echelon(gens, nvars, cap):
    """Triangular span of {m * g : deg m <= cap}, keyed by lead exponent."""
    pivots = {}
    rows = [_poly_as_row(g) for g in gens if not g.is_zero()]
    for mult in _multipliers(nvars, cap):
        for base in rows:
            lead, reduced = _reduce_row(_shift_row(base, mult), pivots)
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
    pivots = _echelon(all_gens, ring.nvars, cofactor_cap)

    def member(f):
        lead, _ = _reduce_row(_poly_as_row(f), pivots)
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
    leads = set(_echelon(all_gens, n, cap))
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
    from exponent tuples to scalars, quotients[j] belonging to reducers[j].
    """
    rows = [_poly_as_row(g) for g in reducers]
    leads = [max(row, key=key) for row in rows]
    work = _poly_as_row(f)
    rem, quotients = {}, [{} for _ in reducers]
    while work:
        lead = max(work, key=key)
        for j, (lm, row) in enumerate(zip(leads, rows)):
            if all(a <= b for a, b in zip(lm, lead)):
                q = tuple(b - a for a, b in zip(lm, lead))
                qc = work[lead] / row[lm]
                quotients[j][q] = qc
                for e, c in _shift_row(row, q).items():
                    s = work.get(e)
                    s = -(qc * c) if s is None else s - qc * c
                    if s.is_zero():
                        work.pop(e, None)
                    else:
                        work[e] = s
                break
        else:
            rem[lead] = work.pop(lead)
    return rem, quotients
