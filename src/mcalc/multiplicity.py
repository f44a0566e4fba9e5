"""Hilbert-Samuel multiplicities and the identity verifiers built on them.

Lengths here are k-vector-space dimensions of quotients; they agree with
local lengths at the origin exactly when the finite-length quotient is
supported there, which the entry points check before trusting a number.
`multiplicity_data` reads e and the whole length table off one Hilbert
series, with no stopping rule to guess at: M's own when M is graded and
IM = mM, else that of the associated graded module gr_I(M), which
`_rees_series` counts off a basis of the Rees module.

`search_parameters` reads no table: a candidate whose first d - 1 elements
drop the dimension step by step is a system of parameters exactly when H_0
of its Koszul complex has finite length at the origin, and then its e is
Serre's Koszul alternating sum χ, read from certified local lengths.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from dataclasses import dataclass

from .errors import (HypothesisFails, InfiniteHomology, NoStabilization,
                     NotDimensionOne, NotFiniteColength, NotParameter,
                     OutOfRange, SupportNotAtOrigin)
from .fpmodules import FPModule, ModuleVector
from .groebner import buchberger, krull_dimension, read_hilbert_series
from .koszul import VirtualModule, koszul_homology, phi_apply
from .polyring import INFINITE, MonomialOrder, Polynomial, RingSpec

VERIFIED = "VERIFIED"
REFUTED = "REFUTED"
INCONCLUSIVE = "INCONCLUSIVE"


def _jsonable(v):
    """Map engine values onto JSON primitives; INFINITE becomes a string."""
    if v is INFINITE:
        return "INFINITE"
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return str(v)


@dataclass(frozen=True)
class Report:
    """Outcome of one verification: two sides of a claimed identity.

    verdict is VERIFIED only on exact integer equality; the certificate
    carries the intermediate tables (JSON primitives only).
    """

    claim: str
    left: object
    right: object
    verdict: str
    certificate: dict

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "left": _jsonable(self.left),
            "right": _jsonable(self.right),
            "verdict": self.verdict,
            "certificate": _jsonable(self.certificate),
        }


def _warn_if_inhomogeneous(ring: RingSpec, gens):
    bad = [p for p in list(ring.quotient) + list(gens)
           if not p.is_zero() and not p.is_homogeneous()]
    if bad:
        warnings.warn(
            "non-homogeneous defining polynomials: length counts are local "
            "lengths only because the origin-support check passes",
            stacklevel=3)


def multiplicity_data(M: FPModule, gens, r: int):
    """(e, length table) off one Hilbert series, that of gr_I(M) = ⊕ I^n M
    / I^(n+1) M (Bruns-Herzog, Ch. 4).

    ℓ(M/IM) is checked finite and supported at the origin
    (NotFiniteColength, SupportNotAtOrigin), so each M/I^n M is, and
    ℓ(M/I^n M) = Σ_{j<n} H(j) for H the Hilbert function of gr_I(M). If M's
    relation basis is homogeneous (each e_p of degree 0) and ℓ(M/IM) =
    H_M(0) = ℓ(M/mM), then IM = mM (if I ⊆ m, both have that colength; a
    unit at the origin in I makes M/IM = 0 = M/mM, and M = 0 by graded
    Nakayama), so I^n M = M_{≥n} and gr_I(M) has the series of M's leads
    (Macaulay's theorem). Otherwise `_rees_series` gives it.

    The series gives d, the dimension of M at the origin, and its degree
    e, the d-th differences of the table from some n on. So e(M, r) is e at
    r = d and 0 at r > d; at r < d NoStabilization is raised before any
    table is read. The table runs to the first n where the last three r-th
    differences agree, and equal e when r = d. It is a polynomial in n from
    n0 = max(1, D - v + 1) on, D the degree of the numerator over (1-t)^v,
    so it ends by n0 + r + 2.
    """
    gens = list(gens)
    if r < 0:
        raise OutOfRange("difference order must be nonnegative")
    for g in gens:
        M.ring.check_member(g)
    _warn_if_inhomogeneous(M.ring, gens)
    length = (M.quotient_by_polys(gens) if gens else M).local_length()
    if length is INFINITE:
        raise NotFiniteColength("M/IM has infinite length")
    series, v = M.gb.hilbert_series(), M.ring.nvars
    if not (M.gb.is_graded() and series.get(0, 0) == length):
        series, v = _rees_series(M, gens), len(gens)
    d, e, sums = read_hilbert_series(series, v)
    if r < d:
        raise NoStabilization(f"order-{r} differences never settle: M has dimension {d} "
                              f"at the origin", r=r, dimension=d)
    values = []
    for value in sums:
        values.append(value)
        diffs = values[-r - 3:]
        for _ in range(r):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        if len(diffs) == 3 and len(set(diffs)) == 1 and (r > d or diffs[0] == e):
            return (e if r == d else 0), tuple(values)


def _rees_series(M: FPModule, gens):
    """Numerator, over r = len(gens) variables, of the Hilbert series of
    gr_I(M), for M/IM of finite length.

    At rank 1, M = R/U, the first basis, under block(1) on k[t, T_1..T_r,
    x], is of U and the T_i - f_i t. Its elements free of t generate the
    ideal K of the Rees module ⊕ I^n M t^n in k[T, x], and K + (f) that of
    gr_I(M) (Eisenbud, 15.10). At rank g > 1, M is the part of degree 1 in
    e of k[e_1..e_g, x] modulo the e_p e_q and the Σ u_p e_p for relations
    u (Nagata's idealization). All is homogeneous in T and in e, so
    `graded_series` counts by T-degree the standard terms of the second
    basis, of K + (f) on k[T, e, x]. The auxiliary names are longer than
    the session's, so none is one of them or the t of F_p(t).
    """
    ring, r = M.ring, len(gens)
    cells = M.rank if M.rank > 1 else 0
    pad = "_" * max(map(len, ring.variables))
    names = [f"T{i}{pad}" for i in range(r)] + [f"e{p}{pad}" for p in range(cells)]
    S = RingSpec(ring.field, [f"t{pad}", *names, *ring.variables], MonomialOrder.block(1))

    def lift(terms):  # the raw terms (p, x): c, times e_p at rank > 1
        return Polynomial(S.field, S.nvars, {
            (0,) * (1 + r) + tuple(int(q == p) for q in range(cells)) + x: c
            for (p, x), c in terms})

    f = [lift(((None, x), c) for x, c in h.terms.items()) for h in gens]
    e = [S.variable(1 + r + p) for p in range(cells)]
    squares = itertools.combinations_with_replacement(e, 2)
    first = buchberger(S, [lift(u.items()) for u in M.gb.raws] + [a * b for a, b in squares]
                       + [S.variable(1 + i) - S.variable(0) * h for i, h in enumerate(f)])
    G = RingSpec(ring.field, [*names, *ring.variables])
    second = buchberger(G, [Polynomial(G.field, G.nvars, {x[1:]: c for x, c in h.terms.items()})
                            for h in [*first.generators, *f] if not any(x[0] for x in h.terms)])
    return second.graded_series(r, cells)


def multiplicity(M: FPModule, gens, r: int) -> int:
    e, _ = multiplicity_data(M, gens, r)
    return e


def evaluate_multiplicity(V: VirtualModule, gens, r: int) -> int:
    """The multiplicity functional e(-, r) extended linearly."""
    return sum(c * multiplicity(m, gens, r) for c, m in V.terms)


def homology_lengths(x, M: FPModule):
    """[ℓ H_0, .., ℓ H_n] for the sequence x; [ℓ(M)] when x is empty.

    Only H_0 = M/(x)M takes the origin-support check: (x) kills every H_i,
    a subquotient of copies of M, so Supp H_i ⊆ Supp M ∩ V(x) = Supp H_0,
    and once H_0 passes, each H_i's `length()` is its local length.
    """
    x = list(x)
    if not x:
        l = M.local_length()
        if l is INFINITE:
            raise InfiniteHomology("module itself has infinite length")
        return [l]
    out = []
    for i in range(len(x) + 1):
        H = koszul_homology(x, M, i)
        l = H.local_length() if i == 0 else H.length()
        if l is INFINITE:
            raise InfiniteHomology(f"H_{i} has infinite length", degree=i)
        out.append(l)
    return out


def _alternating_sum(lengths) -> int:
    return sum(l if i % 2 == 0 else -l for i, l in enumerate(lengths))


def serre_alternating_sum(x, M: FPModule) -> int:
    return _alternating_sum(homology_lengths(x, M))


def _verdict(equal: bool) -> str:
    return VERIFIED if equal else REFUTED


def verify_serre(M: FPModule, x) -> Report:
    """Multiplicity of the sequence ideal vs the Koszul alternating sum."""
    x = list(x)
    r = len(x)
    e, table = multiplicity_data(M, x, r)
    lengths = homology_lengths(x, M)
    chi = _alternating_sum(lengths)
    names = [M.ring.poly_to_str(f) for f in x]
    return Report(
        claim=f"e((" + ", ".join(names) + f"), M, {r}) equals the Koszul alternating sum",
        left=e, right=chi, verdict=_verdict(e == chi),
        certificate={"sequence": names, "difference_order": r,
                     "length_table": list(table),
                     "homology_lengths": lengths})


def verify_factorization(M: FPModule, x, y) -> Report:
    """Concatenated alternating sum vs the iterated double sum (y inside)."""
    x, y = list(x), list(y)
    left_lengths = homology_lengths(x + y, M)
    left = _alternating_sum(left_lengths)
    right = 0
    rows = []
    for q in range(len(y) + 1) if y else [0]:
        Hq = koszul_homology(y, M, q) if y else M
        if Hq.is_zero():
            rows.append({"q": q, "outer_lengths": []})
            continue
        outer = homology_lengths(x, Hq)
        chi_x = _alternating_sum(outer)
        right += chi_x if q % 2 == 0 else -chi_x
        rows.append({"q": q, "outer_lengths": outer})
    xs = [M.ring.poly_to_str(f) for f in x]
    ys = [M.ring.poly_to_str(f) for f in y]
    return Report(
        claim="alternating sum over the concatenated sequence equals the "
              "double alternating sum over iterated homology",
        left=left, right=right, verdict=_verdict(left == right),
        certificate={"outer_sequence": xs, "inner_sequence": ys,
                     "concatenated_lengths": left_lengths,
                     "double_sum_rows": rows})


def verify_vanish(M: FPModule, x, i: int, k: int) -> Report:
    """If x_i^k kills M, the alternating sum must vanish."""
    x = list(x)
    if not 1 <= i <= len(x):
        raise OutOfRange(f"index {i} out of range 1..{len(x)}")
    if k < 1:
        raise OutOfRange("exponent must be positive")
    p = x[i - 1] ** k
    for a in range(M.rank):
        v = ModuleVector.unit(M.ring.field, M.ring.nvars, M.rank, a, p)
        if not M.contains(v):
            raise HypothesisFails(
                f"element {i} to the power {k} does not annihilate the module",
                index=i, exponent=k)
    lengths = homology_lengths(x, M)
    chi = _alternating_sum(lengths)
    return Report(
        claim=f"sequence element {i} is nilpotent on M, so the alternating sum is 0",
        left=chi, right=0, verdict=_verdict(chi == 0),
        certificate={"sequence": [M.ring.poly_to_str(f) for f in x],
                     "index": i, "exponent": k,
                     "homology_lengths": lengths})


def verify_serre2(M: FPModule, x, x2) -> Report:
    """Three routes to the same number: joint multiplicity, iterated class
    operators under the length functional, and termwise multiplicity after
    the first operator.
    """
    x, x2 = list(x), list(x2)
    r, s = len(x), len(x2)
    route1, table = multiplicity_data(M, x + x2, r + s)
    V1 = phi_apply(x, VirtualModule.of_module(M))
    V2 = phi_apply(x2, V1)
    route2 = V2.length_evaluation()
    if route2 is INFINITE:
        raise InfiniteHomology("iterated class operator left an infinite-length term")
    route3 = evaluate_multiplicity(V1, x2, s)
    agree = route1 == route2 == route3
    return Report(
        claim="joint multiplicity, iterated operators under length, and "
              "termwise multiplicity agree",
        left=route1, right=[route2, route3], verdict=_verdict(agree),
        certificate={"first_sequence": [M.ring.poly_to_str(f) for f in x],
                     "second_sequence": [M.ring.poly_to_str(f) for f in x2],
                     "joint_length_table": list(table),
                     "routes": [route1, route2, route3],
                     "first_operator_terms": [
                         {"coefficient": c, "relations": m.describe()["relations"]}
                         for c, m in V1.terms]})


def parameter_colength(ring: RingSpec, f: Polynomial) -> int:
    """ℓ(A/fA) for a parameter f; NOT_PARAMETER when f is not one."""
    name = ring.poly_to_str(f)
    if f.is_zero():
        raise NotParameter("the zero polynomial is not a parameter")
    if not ring.field.raw.is_zero(f.constant_coefficient()):
        raise NotParameter(f"{name} has a nonzero constant term")
    gb = buchberger(ring, [f])
    try:
        length = gb.local_length()
    except SupportNotAtOrigin:
        # raised only on a finite length, which the unit ideal's 0 passes
        raise NotParameter(f"{name} vanishes somewhere off the origin") from None
    if gb.is_unit_ideal() or length is INFINITE:
        raise NotParameter(f"{name} does not cut the ring down to finite length")
    return length


def ord_check(ring: RingSpec, f: Polynomial, g: Polynomial) -> Report:
    """Additivity of the order function on a one-dimensional ring."""
    ring.check_member(f)
    ring.check_member(g)
    base = buchberger(ring, [])
    d = krull_dimension(base)
    if d != 1:
        raise NotDimensionOne(f"ring has dimension {d}, not 1")
    lf = parameter_colength(ring, f)
    lg = parameter_colength(ring, g)
    lfg = parameter_colength(ring, f * g)
    fn, gn = ring.poly_to_str(f), ring.poly_to_str(g)
    return Report(
        claim=f"ord({fn}*{gn}) = ord({fn}) + ord({gn})",
        left=lfg, right=lf + lg, verdict=_verdict(lfg == lf + lg),
        certificate={"f": fn, "g": gn,
                     "colengths": {"f": lf, "g": lg, "fg": lfg}})


@dataclass(frozen=True)
class SearchResult:
    status: str                 # FOUND or EXHAUSTED
    ideal: tuple                # () when exhausted
    e: int                      # 0 when exhausted
    table: tuple                # (ideal tuple, e) pairs actually evaluated
    tried: int
    dimension: int
    prime: int
    seed: int
    budget: int


def _phase_one_forms(ring: RingSpec):
    """Single variables first, then coefficient combinations of variables."""
    n = ring.nvars
    p = ring.field.characteristic
    top = 4 if p == 0 else min(p - 1, 4)
    coeffs = list(range(top + 1))
    forms = [ring.variable(i) for i in range(n)]
    for combo in itertools.product(coeffs, repeat=n):
        if sum(1 for c in combo if c) < 2:
            continue
        f = ring.zero()
        for c, i in zip(combo, range(n)):
            if c:
                f = f + ring.variable(i) * c
        forms.append(f)
    return forms


def _random_candidate(ring: RingSpec, rng: random.Random, d: int):
    n = ring.nvars
    p = ring.field.characteristic
    seq = []
    for _ in range(d):
        f = ring.zero()
        for i in range(n):
            c = rng.randrange(p) if p else rng.randint(-3, 3)
            if c:
                f = f + ring.variable(i) * c
        if rng.random() < 0.5:
            i, j = rng.randrange(n), rng.randrange(n)
            c = (rng.randrange(1, p) if p and p > 1 else 1) if p else rng.choice([1, -1, 2])
            mon = tuple((k == i) + (k == j) for k in range(n))
            f = f + Polynomial.term(ring.field, n, mon, ring.field.from_int(c))
        seq.append(f)
    return tuple(seq)


def _validate_candidate(A: FPModule, seq, d: int):
    """System-of-parameters test in A, the ring as a free module: the
    dimension drops by one with each of the first d - 1 elements, and H_0 =
    A/(seq)A of the Koszul complex has finite length at the origin. Returns
    e or None. There e((seq), A) is Serre's alternating sum χ(seq, A) of
    the Koszul homology lengths (Serre, *Algèbre locale, multiplicités*,
    Ch. IV), each one certified, with no stopping rule."""
    for f in seq:
        if f.is_zero() or not A.ring.field.raw.is_zero(f.constant_coefficient()):
            return None
    for i in range(1, d):
        if krull_dimension(buchberger(A.ring, list(seq[:i]))) != d - i:
            return None
    try:
        return serre_alternating_sum(list(seq), A)
    except (InfiniteHomology, SupportNotAtOrigin):
        return None


def search_parameters(ring: RingSpec, p: int, budget: int, seed: int = 0) -> SearchResult:
    """First parameter sequence whose multiplicity is prime to p.

    Deterministic under the seed: exhaustive small linear forms first, then
    seeded random linear combinations with occasional quadratic terms. Every
    generated candidate counts against the budget; the table keeps the ones
    that were genuine parameter systems together with their multiplicities.
    """
    A = FPModule.free(ring, 1)
    d = krull_dimension(A.gb)
    rng = random.Random(seed)
    table = []
    tried = 0

    def consider(seq):
        nonlocal tried
        tried += 1
        e = _validate_candidate(A, seq, d)
        if e is None:
            return None
        table.append((tuple(seq), e))
        if math.gcd(e, p) == 1:
            return e
        return None

    phase_one = itertools.product(_phase_one_forms(ring), repeat=d)
    for seq in phase_one:
        if tried >= budget:
            break
        e = consider(tuple(seq))
        if e is not None:
            return SearchResult("FOUND", tuple(seq), e, tuple(table), tried,
                                d, p, seed, budget)
    # on a zero-dimensional ring phase one has tried the only candidate, ()
    while d and tried < budget:
        seq = _random_candidate(ring, rng, d)
        e = consider(seq)
        if e is not None:
            return SearchResult("FOUND", seq, e, tuple(table), tried,
                                d, p, seed, budget)
    return SearchResult("EXHAUSTED", (), 0, tuple(table), tried, d, p, seed, budget)
