"""Registry of named verification scenarios.

Each scenario is self-contained: its ring is session text, parsed by
`parse_session_text` when the scenario runs, and its sequences and relation
lists are text read by `SessionData.sequence`, the same path the command
line takes. It runs one of the verifiers and compares against frozen
expected values, so a scenario run is deterministic and needs no input
files. Scenarios are registered in code so the claims and expectations are
versioned with the engine.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .errors import NotParameter, UnknownScenario
from .fpmodules import FPModule
from .koszul import VirtualModule, phi_apply, reduce_class
from .multiplicity import (INCONCLUSIVE, REFUTED, VERIFIED, Report, _verdict,
                           multiplicity_data, ord_check, parameter_colength,
                           search_parameters, serre_alternating_sum,
                           verify_factorization, verify_serre, verify_serre2,
                           verify_vanish)
from .polyring import Polynomial
from .session import parse_session_text

ALLOWED_TAGS = frozenset({"lemma", "theorem", "example", "property"})


@dataclass(frozen=True)
class Scenario:
    id: str
    claim: str
    tags: tuple
    run: object  # () -> Report


# rings, as session text ---------------------------------------------------

_PLANE = "field = Q\nvars = x, y\n"
_CONE_F2 = "field = F2\nvars = x, y\nquotient = [x^2 + x*y + y^2]\n"
_CUSP = "field = Q\nvars = x, y\nquotient = [y^2 - x^3]\n"
_CUSP_F3 = "field = F3\nvars = x, y\nquotient = [y^2 - x^3]\n"
_FAT = "field = Q\nvars = x, y\nquotient = [x^2, x*y]\n"
_CROSS = "field = Q\nvars = x, y\nquotient = [x*y]\n"
_XZ = "field = Q\nvars = x, y, z\nquotient = [x*z]\n"
_QUADRIC_F5T = "field = F5(t)\nvars = x, y\nquotient = [y^2 - t*x^2]\n"
_NILPOTENT_LINE = "field = Q\nvars = x, y\nquotient = [x^2]\n"
_LINE = "field = Q\nvars = x, y\nquotient = [y]\n"
_AFFINE_LINE = "field = Q\nvars = x\n"


def _yn(n):
    return f"field = Q\nvars = x, y\nquotient = [y^{n}]\n"


# composite runners --------------------------------------------------------

def _verifier(verify, ring, *args, expect=None, relations=None):
    """A runner of verify(M, *args) on the ring's session text.

    M is the ring, or its quotient by the relations text when given; each
    str in args is a sequence, anything else is passed as it is. With
    expect, the report is VERIFIED only when the verifier's is and its left
    side equals expect, which the certificate records.
    """
    def run():
        session = parse_session_text(ring)
        if relations is None:
            M = session.module()
        else:
            M = FPModule.cyclic(session.ring, session.sequence(relations))
        rep = verify(M, *(session.sequence(a) if isinstance(a, str) else a
                          for a in args))
        if expect is None:
            return rep
        ok = rep.verdict == VERIFIED and rep.left == expect
        return Report(rep.claim, rep.left, rep.right, _verdict(ok),
                      dict(rep.certificate, expected=expect))
    return run


# individual scenario bodies ----------------------------------------------

def _run_example_bad_length():
    session = parse_session_text(_CONE_F2)
    l = parameter_colength(session.ring, *session.sequence("x"))
    return Report("the colength of (x) on the quadric cone over F2 is 2",
                  l, 2, _verdict(l == 2), {"colength": l})


def _run_example_bad_parity(count=20, seed=2026):
    ring = parse_session_text(_CONE_F2).ring
    mons = [(a, d - a) for d in (1, 2, 3) for a in range(d + 1)]
    rng = random.Random(seed)
    table = []
    while len(table) < count:
        f = ring.zero()
        for m in mons:
            if rng.randrange(2):
                f = f + Polynomial.term(ring.field, 2, m, ring.field.raw.one)
        if f.is_zero():
            continue
        try:
            l = parameter_colength(ring, f)
        except NotParameter:
            continue
        table.append((ring.poly_to_str(f), l))
    parities = [l % 2 for _, l in table]
    return Report("every parameter colength on the quadric cone over F2 is even",
                  parities, [0] * count, _verdict(parities == [0] * count),
                  {"samples": [{"f": f, "colength": l} for f, l in table],
                   "seed": seed})


def _run_search(ring_text, p, budget, seed, expect_status, expect_ideal,
                expect_e):
    def run():
        ring = parse_session_text(ring_text).ring
        res = search_parameters(ring, p, budget, seed)
        found = [ring.poly_to_str(f) for f in res.ideal]
        ok = (res.status == expect_status and found == expect_ideal
              and res.e == expect_e)
        return Report(
            f"parameter search avoiding {p} ends with {expect_status}",
            {"status": res.status, "ideal": found, "e": res.e},
            {"status": expect_status, "ideal": expect_ideal, "e": expect_e},
            _verdict(ok),
            {"tried": res.tried, "budget": budget, "seed": seed,
             "table": [{"ideal": [ring.poly_to_str(f) for f in seq], "e": e}
                       for seq, e in res.table]})
    return run


def _run_yn_class_relation(n):
    cuts = "x, x+y, x^2+y"

    def cut_sums(ring_text):
        session = parse_session_text(ring_text)
        module = session.module()
        return [serre_alternating_sum([f], module) for f in session.sequence(cuts)]

    def run():
        sums, base_sums = cut_sums(_yn(n)), cut_sums(_yn(1))
        expected = [n * s for s in base_sums]
        return Report(
            f"alternating sums over k[x,y]/(y^{n}) are {n} times those over k[x,y]/(y)",
            sums, expected, _verdict(sums == expected),
            {"n": n, "cut_elements": cuts.split(", "), "base_sums": base_sums})
    return run


def _run_ord_additivity(ring_text, pairs, claim):
    """pairs holds the text "f, g" of each pair."""
    def run():
        session = parse_session_text(ring_text)
        reports = [ord_check(session.ring, *session.sequence(pair)) for pair in pairs]
        return Report(claim, [r.left for r in reports], [r.right for r in reports],
                      _verdict(all(r.verdict == VERIFIED for r in reports)),
                      {"sub_reports": [r.to_dict() for r in reports]})
    return run


def _run_mult_above_dim(ring_text, seq, r):
    def run():
        session = parse_session_text(ring_text)
        e, table = multiplicity_data(session.module(), session.sequence(seq), r)
        return Report(
            f"order-{r} multiplicity vanishes above the support dimension",
            e, 0, _verdict(e == 0), {"length_table": list(table), "r": r})
    return run


def _run_mult_regular_point():
    session = parse_session_text(_PLANE)
    e, table = multiplicity_data(session.module(), session.sequence("x, y"), 2)
    return Report("the multiplicity of the maximal ideal on the plane is 1",
                  e, 1, _verdict(e == 1), {"length_table": list(table)})


def _run_class_reduction(ring_text, seq, expect_length):
    def run():
        session = parse_session_text(ring_text)
        M, xs = session.module(), session.sequence(seq)
        N = reduce_class(xs, M)
        ln = N.length()
        phi_len = phi_apply(xs, VirtualModule.of_module(M)).length_evaluation()
        ok = ln == expect_length and phi_len == expect_length
        return Report(
            "the single-module class representative has the evaluated length",
            [ln, phi_len], [expect_length, expect_length], _verdict(ok),
            {"representative": N.describe()})
    return run


# registry -----------------------------------------------------------------

@functools.cache
def registry() -> dict:
    """The scenarios by id, in id order, built once per process."""
    entries = [
        Scenario("class-reduction-cross",
                 "cutting k[x,y]/(xy) by x+y yields a length-2 representative",
                 ("property",), _run_class_reduction(_CROSS, "x + y", 2)),
        Scenario("class-reduction-nilpotent",
                 "cutting k[x,y]/(x^2) by y yields a length-2 representative",
                 ("property",), _run_class_reduction(_NILPOTENT_LINE, "y", 2)),
        Scenario("example-bad-length",
                 "ℓ(A/xA) = 2 on A = F2[x,y]/(x^2+xy+y^2)",
                 ("example",), _run_example_bad_length),
        Scenario("example-bad-parity",
                 "ℓ(A/fA) is even for every sampled parameter f on the F2 cone",
                 ("example", "property"), _run_example_bad_parity),
        Scenario("example-bad-search-p2",
                 "no parameter on the F2 cone has colength prime to 2",
                 ("example",),
                 _run_search(_CONE_F2, 2, 50, 7, "EXHAUSTED", [], 0)),
        Scenario("example-bad-search-p3",
                 "the F2 cone has a parameter with colength prime to 3",
                 ("example",),
                 _run_search(_CONE_F2, 3, 50, 7, "FOUND", ["x"], 2)),
        Scenario("factor-conic-split",
                 "concatenation identity for (x),(y) on the F2 cone",
                 ("lemma",),
                 _verifier(verify_factorization, _CONE_F2, "x", "y", expect=0)),
        Scenario("factor-fat-mixed",
                 "concatenation identity for (y),(x) on k[x,y]/(x^2,xy)",
                 ("lemma",), _verifier(verify_factorization, _FAT, "y", "x", expect=0)),
        Scenario("factor-killed-variable",
                 "concatenation identity for (x),(y) on k[x,y]/(x)",
                 ("lemma",),
                 _verifier(verify_factorization, _PLANE, "x", "y", expect=0,
                           relations="x")),
        Scenario("factor-plane-split",
                 "concatenation identity for (x),(y) on the plane",
                 ("lemma",), _verifier(verify_factorization, _PLANE, "x", "y", expect=1)),
        Scenario("factor-swap-order",
                 "concatenation identity for (y),(x) on the F2 cone",
                 ("lemma",),
                 _verifier(verify_factorization, _CONE_F2, "y", "x", expect=0)),
        Scenario("factor-xz-mixed",
                 "concatenation identity for (y),(x+z) on k[x,y,z]/(xz)",
                 ("lemma",),
                 _verifier(verify_factorization, _XZ, "y", "x + z", expect=2)),
        Scenario("factor-y3",
                 "concatenation identity for (x),(y) on k[x,y]/(y^3)",
                 ("lemma",),
                 _verifier(verify_factorization, _PLANE, "x", "y", expect=0,
                           relations="y^3")),
        Scenario("mult-above-dim-conic",
                 "e((x,y), 2) = 0 on the one-dimensional F2 cone",
                 ("property",), _run_mult_above_dim(_CONE_F2, "x, y", 2)),
        Scenario("mult-above-dim-cusp",
                 "e((x), 2) = 0 on the one-dimensional cuspidal curve",
                 ("property",), _run_mult_above_dim(_CUSP, "x", 2)),
        Scenario("mult-above-dim-fat",
                 "e((y), 2) = 0 on the embedded-point curve k[x,y]/(x^2,xy)",
                 ("property",), _run_mult_above_dim(_FAT, "y", 2)),
        Scenario("mult-regular-point",
                 "e((x,y), 2) = 1 on the plane",
                 ("property",), _run_mult_regular_point),
        Scenario("ord-additivity-conic",
                 "ℓ(B/fgB) = ℓ(B/fB) + ℓ(B/gB) on the F2 cone, five pairs",
                 ("lemma",),
                 _run_ord_additivity(_CONE_F2,
                                     ["x, y", "x, x", "y, y", "x, x + y", "x + y, y"],
                                     "order additivity on the F2 cone")),
        Scenario("ord-additivity-cusp",
                 "ℓ(B/fgB) = ℓ(B/fB) + ℓ(B/gB) on the cusp, five pairs",
                 ("lemma",),
                 _run_ord_additivity(_CUSP,
                                     ["x, y", "x, x", "y, y", "x, x*y", "x*y, y"],
                                     "order additivity on the cuspidal curve")),
        Scenario("ord-univariate",
                 "ℓ additivity for x^2 * x^3 on the coordinate line",
                 ("lemma",),
                 _run_ord_additivity(_LINE, ["x^2, x^3"], "order additivity on the line")),
        Scenario("search-f3-cusp",
                 "the F3 cusp has a parameter with colength prime to 3",
                 ("theorem",), _run_search(_CUSP_F3, 3, 50, 7, "FOUND", ["x"], 2)),
        Scenario("serre-conic-above-dim",
                 "multiplicity equals the alternating sum on the F2 cone with (x,y)",
                 ("theorem",), _verifier(verify_serre, _CONE_F2, "x, y", expect=0)),
        Scenario("serre-cross-branches",
                 "multiplicity equals the alternating sum on k[x,y]/(xy) with (x+y)",
                 ("theorem",), _verifier(verify_serre, _CROSS, "x + y", expect=2)),
        Scenario("serre-cusp-x",
                 "multiplicity equals the alternating sum on the cusp with (x)",
                 ("theorem",), _verifier(verify_serre, _CUSP, "x", expect=2)),
        Scenario("serre-cusp-y",
                 "multiplicity equals the alternating sum on the cusp with (y)",
                 ("theorem",), _verifier(verify_serre, _CUSP, "y", expect=3)),
        Scenario("serre-fpt-quadric",
                 "multiplicity equals the alternating sum over F5(t) with (x)",
                 ("theorem",), _verifier(verify_serre, _QUADRIC_F5T, "x", expect=2)),
        Scenario("serre-killed-variable",
                 "multiplicity equals the alternating sum on k[x,y]/(x) with (x,y)",
                 ("theorem",),
                 _verifier(verify_serre, _PLANE, "x, y", expect=0, relations="x")),
        Scenario("serre-noncm-module",
                 "multiplicity equals the alternating sum on k[x,y]/(x^2,xy) with (y)",
                 ("theorem",), _verifier(verify_serre, _FAT, "y", expect=1)),
        Scenario("serre-regular-plane",
                 "multiplicity equals the alternating sum on the plane with (x,y)",
                 ("theorem",), _verifier(verify_serre, _PLANE, "x, y", expect=1)),
        Scenario("serre-regular-sequence",
                 "multiplicity equals the alternating sum on the plane with (x^2,y)",
                 ("theorem",), _verifier(verify_serre, _PLANE, "x^2, y", expect=2)),
        Scenario("serre-y3-x",
                 "multiplicity equals the alternating sum on k[x,y]/(y^3) with (x)",
                 ("theorem",), _verifier(verify_serre, _yn(3), "x", expect=3)),
        Scenario("serre2-conic-identity",
                 "three routes agree for the empty-then-(x) pair on the F2 cone",
                 ("theorem",), _verifier(verify_serre2, _CONE_F2, "", "x", expect=2)),
        Scenario("serre2-plane",
                 "three routes agree for (x),(y) on the plane",
                 ("theorem",), _verifier(verify_serre2, _PLANE, "x", "y", expect=1)),
        Scenario("serre2-xz",
                 "three routes agree for (y),(x+z) on k[x,y,z]/(xz)",
                 ("theorem",), _verifier(verify_serre2, _XZ, "y", "x + z", expect=2)),
        Scenario("vanish-conic-power",
                 "alternating sum vanishes on A/(x^2) over the F2 cone",
                 ("lemma",),
                 _verifier(verify_vanish, _CONE_F2, "x", 1, 2, relations="x^2")),
        Scenario("vanish-fat-square",
                 "alternating sum vanishes on k[x,y]/(x^2,xy) for (x,y)",
                 ("lemma",),
                 _verifier(verify_vanish, _PLANE, "x, y", 1, 2, relations="x^2, x*y")),
        Scenario("vanish-killed-plane",
                 "alternating sum vanishes on k[x,y]/(x) for (x,y)",
                 ("lemma",),
                 _verifier(verify_vanish, _PLANE, "x, y", 1, 1, relations="x")),
        Scenario("vanish-univariate-square",
                 "alternating sum vanishes on k[x]/(x^2) for (x)",
                 ("lemma",),
                 _verifier(verify_vanish, _AFFINE_LINE, "x", 1, 2, relations="x^2")),
        Scenario("vanish-y3-cube",
                 "alternating sum vanishes on k[x,y]/(y^3) for (x,y)",
                 ("lemma",),
                 _verifier(verify_vanish, _PLANE, "x, y", 2, 3, relations="y^3")),
    ]
    for n in range(1, 6):
        entries.append(Scenario(
            f"yn-class-relation-n{n}",
            f"cut sums over k[x,y]/(y^{n}) equal {n} times the reduced-line sums",
            ("example",), _run_yn_class_relation(n)))

    by_id = {}
    for sc in entries:
        if not sc.claim:
            raise ValueError(f"scenario {sc.id} lacks a claim")
        if not sc.tags or not set(sc.tags) <= ALLOWED_TAGS:
            raise ValueError(f"scenario {sc.id} has invalid tags {sc.tags}")
        if not callable(sc.run):
            raise ValueError(f"scenario {sc.id} has no runner")
        if sc.id in by_id:
            raise ValueError(f"duplicate scenario id {sc.id}")
        by_id[sc.id] = sc
    return dict(sorted(by_id.items()))


def run_scenario(scenario_id: str) -> Report:
    reg = registry()
    if scenario_id not in reg:
        raise UnknownScenario(f"no scenario named {scenario_id!r}")
    return reg[scenario_id].run()


def run_all(tag: str = None):
    """Run every scenario (optionally filtered by tag), in id order.

    Returns (results, counts) where results is a list of (id, Report) and
    counts maps verdicts to totals.
    """
    results = []
    counts = {VERIFIED: 0, REFUTED: 0, INCONCLUSIVE: 0}
    for sid, sc in registry().items():
        if tag is not None and tag not in sc.tags:
            continue
        rep = sc.run()
        counts[rep.verdict] = counts.get(rep.verdict, 0) + 1
        results.append((sid, rep))
    return results, counts
