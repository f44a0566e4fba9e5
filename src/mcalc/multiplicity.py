"""Hilbert-Samuel multiplicities and the identity verifiers built on them.

Lengths here are k-vector-space dimensions of quotients; they agree with
local lengths at the origin exactly when the finite-length quotient is
supported there, which the entry points check before trusting a number.
Multiplicities come out of stabilized finite differences of the length
table, never from fitting. The table is one loop, `multiplicity_data`: it
builds the generators of I^n from those of I^(n-1), and its first entry,
ℓ(M/IM), is checked finite and supported at the origin. When M's relation
basis is homogeneous and that entry equals ℓ(M/mM), the degree-0 value of
M's Hilbert function, then IM = mM, and every later entry ℓ(M/m^n M) is a
partial sum of that Hilbert function, read off M's own relation basis
with no further basis (the argument is in `multiplicity_data`).

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
from .groebner import buchberger, krull_dimension
from .koszul import VirtualModule, koszul_homology, phi_apply
from .polyring import INFINITE, Polynomial, RingSpec

VERIFIED = "VERIFIED"
REFUTED = "REFUTED"
INCONCLUSIVE = "INCONCLUSIVE"

STABILIZATION_CAP = 40


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
    """(e, length table) where e is the stabilized r-th finite difference.

    The table is one loop over n = 1, 2, .. that builds the generators of
    I^n from those of I^(n-1) (products, without repeats) and reads
    ℓ(M/I^n M) off one basis per entry. The first entry is ℓ(M/IM), checked
    finite and supported at the origin (NotFiniteColength,
    SupportNotAtOrigin). Later entries need no check, since M/I^n M has the
    support of M/IM.

    Later entries build no basis when every vector of M's relation basis is
    homogeneous (standard grading, each e_p of degree 0) and the first
    entry equals ℓ(M/mM), the degree-0 value H_M(0) of M's Hilbert
    function. Then IM = mM: if I ⊆ m, then IM ⊆ mM, and two submodules of
    the same finite colength are equal; if I holds an element that is a
    unit at the origin, it acts invertibly on M/IM, which is supported at
    the origin, so M/IM = 0, hence M/mM = 0 and M = 0 by graded Nakayama.
    By induction I^n M = I(m^(n-1) M) = m^n M, and m^n M = M_{≥n} because
    every generator has degree 0, so ℓ(M/I^n M) = Σ_{j<n} H_M(j). Under any
    term order a homogeneous submodule and its lead submodule have the same
    Hilbert function (Macaulay's theorem), so the basis's `hilbert_sums`
    gives those partial sums from one Hilbert series per table. Both routes
    give the same numbers.

    The loop stops when three consecutive r-th differences agree; that
    common value is e. e(M, r) = 0 when r exceeds the support dimension,
    and the r = 0 value of the empty ideal is ℓ(M). Three equal differences
    can stop short of the limit (k[x]/(x^10) with I = (x) gives 1, 1, 1
    before the lengths level off, and k[x,y]/(x^3, y^3) with I = (x, y) and
    r = 2 gives -1, -1, -1), so a nonzero e is replaced by 0 when r exceeds
    d = dim Supp M, which the dimension theorem certifies; a negative value
    that remains raises NoStabilization. On the graded route the table is
    a polynomial of degree d in n from some n on, so its r-th differences
    settle at the series' `hilbert_degree` for r = d and never for r < d;
    for r <= d three equal ones stop the loop only where they settle, so a
    plateau of the Hilbert function (1, 2, 2, 2, 1, 1, .. of
    k[x,y]/(x^2, x*y^3)) no longer gives a wrong e.
    """
    gens = list(gens)
    if r < 0:
        raise OutOfRange("difference order must be nonnegative")
    for g in gens:
        M.ring.check_member(g)
    _warn_if_inhomogeneous(M.ring, gens)
    power = [M.ring.one()]
    values = []
    graded = None  # ℓ(M/m^n M) for n = 2, 3, .. once IM = mM is certified
    settle = None  # then, for r <= d, where the r-th differences settle
    for n in range(1, STABILIZATION_CAP + 1):
        if graded is not None:
            length = next(graded)
        else:
            power = list(dict.fromkeys(p * g for p in power for g in gens))
            Q = M.quotient_by_polys(power) if gens else M
            if n == 1:
                length = Q.local_length()
                if length is INFINITE:
                    raise NotFiniteColength("M/IM has infinite length")
                sums = itertools.islice(M.gb.hilbert_sums(), 1, None)
                if M.gb.is_graded() and next(sums) == length:
                    graded = sums
                    d = M.support_dimension()
                    if r <= d:
                        settle = M.gb.hilbert_degree() if r == d else INFINITE
            else:
                length = Q.length()
        values.append(length)
        diffs = values
        for _ in range(r):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        if (len(diffs) >= 3 and diffs[-1] == diffs[-2] == diffs[-3]
                and (settle is None or settle == diffs[-1])):
            e = diffs[-1]
            if e and r > M.support_dimension():
                e = 0
            if e < 0:
                raise NoStabilization(f"order-{r} differences settled at {e} < 0",
                                      values=list(values), r=r)
            return e, tuple(values)
    raise NoStabilization(
        f"no three equal order-{r} differences within {STABILIZATION_CAP} steps",
        values=list(values), r=r)


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
