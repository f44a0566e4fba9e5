"""Registry of named verification scenarios.

Each scenario is self-contained: it builds its ring and module from scratch,
runs one of the verifiers, and compares against frozen expected values, so a
scenario run is deterministic and needs no input files. Scenarios are
registered in code so the claims and expectations are versioned with the
engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import NotParameter, UnknownScenario
from .fpmodules import FPModule
from .koszul import VirtualModule, phi_apply, reduce_class
from .multiplicity import (REFUTED, VERIFIED, Report, multiplicity_data,
                           ord_check, parameter_colength, search_parameters,
                           serre_alternating_sum, verify_factorization,
                           verify_serre, verify_serre2, verify_vanish)
from .polyring import Polynomial, RingSpec
from .scalars import FieldSpec

ALLOWED_TAGS = frozenset({"lemma", "theorem", "example", "property"})


@dataclass(frozen=True)
class Scenario:
    id: str
    claim: str
    tags: tuple
    run: object  # () -> Report


def _verdict(ok: bool) -> str:
    return VERIFIED if ok else REFUTED


# ring builders ------------------------------------------------------------

def _plane_q():
    return RingSpec(FieldSpec.rationals(), ("x", "y"))


def _conic_f2():
    R = RingSpec(FieldSpec.prime_field(2), ("x", "y"))
    x, y = R.variable("x"), R.variable("y")
    return RingSpec(R.field, ("x", "y"), quotient=(x**2 + x * y + y**2,))


def _cusp(field):
    R = RingSpec(field, ("x", "y"))
    x, y = R.variable("x"), R.variable("y")
    return RingSpec(field, ("x", "y"), quotient=(y**2 - x**3,))


def _yn_q(n):
    R = RingSpec(FieldSpec.rationals(), ("x", "y"))
    return RingSpec(R.field, ("x", "y"), quotient=(R.variable("y") ** n,))


def _fat_q():
    R = RingSpec(FieldSpec.rationals(), ("x", "y"))
    x, y = R.variable("x"), R.variable("y")
    return RingSpec(R.field, ("x", "y"), quotient=(x**2, x * y))


def _cross_q():
    R = RingSpec(FieldSpec.rationals(), ("x", "y"))
    return RingSpec(R.field, ("x", "y"),
                    quotient=(R.variable("x") * R.variable("y"),))


def _xz_q():
    R = RingSpec(FieldSpec.rationals(), ("x", "y", "z"))
    return RingSpec(R.field, ("x", "y", "z"),
                    quotient=(R.variable("x") * R.variable("z"),))


def _quadric_f5t():
    field = FieldSpec.rational_functions(5)
    R = RingSpec(field, ("x", "y"))
    x, y = R.variable("x"), R.variable("y")
    t = R.constant(field.t())
    return RingSpec(field, ("x", "y"), quotient=(y**2 - t * x**2,))


def _nilpotent_line_q():
    R = RingSpec(FieldSpec.rationals(), ("x", "y"))
    return RingSpec(R.field, ("x", "y"), quotient=(R.variable("x") ** 2,))


def _line_q():
    R = RingSpec(FieldSpec.rationals(), ("x", "y"))
    return RingSpec(R.field, ("x", "y"), quotient=(R.variable("y"),))


def _vars(ring, *names):
    return tuple(ring.variable(n) for n in names)


# composite runners --------------------------------------------------------

def _serre(ring_builder, seq_names, expect, quotient_polys=None):
    def run():
        ring = ring_builder()
        M = FPModule.free(ring, 1)
        if quotient_polys is not None:
            M = FPModule.cyclic(ring, quotient_polys(ring))
        seq = [_seq_poly(ring, s) for s in seq_names]
        rep = verify_serre(M, seq)
        ok = rep.verdict == VERIFIED and rep.left == expect
        cert = dict(rep.certificate)
        cert["expected"] = expect
        return Report(rep.claim, rep.left, rep.right, _verdict(ok), cert)
    return run


def _seq_poly(ring, which):
    """which is a variable name, or a callable building a polynomial."""
    if callable(which):
        return which(ring)
    return ring.variable(which)


def _aggregate(claim, reports, expects=None):
    ok = all(r.verdict == VERIFIED for r in reports)
    left = [r.left for r in reports]
    right = [r.right for r in reports]
    if expects is not None:
        ok = ok and left == list(expects)
    return Report(claim, left, right, _verdict(ok),
                  {"sub_reports": [r.to_dict() for r in reports]})


# individual scenario bodies ----------------------------------------------

def _run_example_bad_length():
    ring = _conic_f2()
    l = parameter_colength(ring, ring.variable("x"))
    return Report("the colength of (x) on the quadric cone over F2 is 2",
                  l, 2, _verdict(l == 2), {"colength": l})


def _run_example_bad_parity(count=20, seed=2026):
    ring = _conic_f2()
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


def _run_search(ring_builder, p, budget, seed, expect_status, expect_ideal,
                expect_e):
    def run():
        ring = ring_builder()
        res = search_parameters(ring, p, budget, seed)
        found = [ring.poly_to_str(f) for f in res.ideal]
        ok = (res.status == expect_status and found == expect_ideal
              and res.e == expect_e)
        return Report(
            f"parameter search avoiding {p} ends with {expect_status}",
            {"status": res.status, "ideal": found, "e": res.e},
            {"status": expect_status, "ideal": expect_ideal, "e": expect_e},
            _verdict(ok),
            {"tried": res.tried, "budget": res.budget, "seed": res.seed,
             "table": [{"ideal": [ring.poly_to_str(f) for f in seq], "e": e}
                       for seq, e in res.table]})
    return run


def _run_yn_class_relation(n):
    def run():
        base = _yn_q(1)
        ring = _yn_q(n)
        sums = []
        base_sums = []
        for name in ("x", "x+y", "x^2+y"):
            for R, acc in ((ring, sums), (base, base_sums)):
                x, y = _vars(R, "x", "y")
                f = {"x": x, "x+y": x + y, "x^2+y": x**2 + y}[name]
                acc.append(serre_alternating_sum([f], FPModule.free(R, 1)))
        expected = [n * s for s in base_sums]
        return Report(
            f"alternating sums over k[x,y]/(y^{n}) are {n} times those over k[x,y]/(y)",
            sums, expected, _verdict(sums == expected),
            {"n": n, "cut_elements": ["x", "x+y", "x^2+y"],
             "base_sums": base_sums})
    return run


def _run_ord_additivity(ring_builder, pairs, claim):
    def run():
        ring = ring_builder()
        reports = []
        for fs, gs in pairs:
            f = _seq_poly(ring, fs)
            g = _seq_poly(ring, gs)
            reports.append(ord_check(ring, f, g))
        return _aggregate(claim, reports)
    return run


def _run_mult_above_dim(ring_builder, seq_names, r):
    def run():
        ring = ring_builder()
        M = FPModule.free(ring, 1)
        seq = [_seq_poly(ring, s) for s in seq_names]
        e, table = multiplicity_data(M, seq, r)
        return Report(
            f"order-{r} multiplicity vanishes above the support dimension",
            e, 0, _verdict(e == 0), {"length_table": list(table), "r": r})
    return run


def _run_mult_regular_point():
    ring = _plane_q()
    M = FPModule.free(ring, 1)
    x, y = _vars(ring, "x", "y")
    e, table = multiplicity_data(M, [x, y], 2)
    return Report("the multiplicity of the maximal ideal on the plane is 1",
                  e, 1, _verdict(e == 1), {"length_table": list(table)})


def _run_serre2(ring_builder, first, second, expect):
    def run():
        ring = ring_builder()
        M = FPModule.free(ring, 1)
        seq1 = [_seq_poly(ring, s) for s in first]
        seq2 = [_seq_poly(ring, s) for s in second]
        rep = verify_serre2(M, seq1, seq2)
        ok = rep.verdict == VERIFIED and rep.left == expect
        cert = dict(rep.certificate)
        cert["expected"] = expect
        return Report(rep.claim, rep.left, rep.right, _verdict(ok), cert)
    return run


def _run_class_reduction(ring_builder, seq_names, expect_length):
    def run():
        ring = ring_builder()
        M = FPModule.free(ring, 1)
        seq = [_seq_poly(ring, s) for s in seq_names]
        N = reduce_class(seq, M)
        ln = N.length()
        phi_len = phi_apply(seq, VirtualModule.of_module(M)).length_evaluation()
        ok = ln == expect_length and phi_len == expect_length
        return Report(
            "the single-module class representative has the evaluated length",
            [ln, phi_len], [expect_length, expect_length], _verdict(ok),
            {"representative": N.describe()})
    return run


def _run_factor(ring_builder, first, second, expect, quotient_polys=None):
    def run():
        ring = ring_builder()
        M = FPModule.free(ring, 1)
        if quotient_polys is not None:
            M = FPModule.cyclic(ring, quotient_polys(ring))
        seq1 = [_seq_poly(ring, s) for s in first]
        seq2 = [_seq_poly(ring, s) for s in second]
        rep = verify_factorization(M, seq1, seq2)
        ok = rep.verdict == VERIFIED and rep.left == expect
        cert = dict(rep.certificate)
        cert["expected"] = expect
        return Report(rep.claim, rep.left, rep.right, _verdict(ok), cert)
    return run


def _run_vanish(ring_builder, seq_names, i, k, quotient_polys=None):
    def run():
        ring = ring_builder()
        M = FPModule.free(ring, 1)
        if quotient_polys is not None:
            M = FPModule.cyclic(ring, quotient_polys(ring))
        seq = [_seq_poly(ring, s) for s in seq_names]
        return verify_vanish(M, seq, i, k)
    return run


# registry -----------------------------------------------------------------

def _xy_sum(ring):
    return ring.variable("x") + ring.variable("y")


def _x_sq(ring):
    return ring.variable("x") ** 2


def _x_cube(ring):
    return ring.variable("x") ** 3

def _xy_prod(ring):
    return ring.variable("x") * ring.variable("y")


def _xz_sum(ring):
    return ring.variable("x") + ring.variable("z")


def build_registry() -> dict:
    entries = [
        Scenario("class-reduction-cross",
                 "cutting k[x,y]/(xy) by x+y yields a length-2 representative",
                 ("property",),
                 _run_class_reduction(_cross_q, [_xy_sum], 2)),
        Scenario("class-reduction-nilpotent",
                 "cutting k[x,y]/(x^2) by y yields a length-2 representative",
                 ("property",),
                 _run_class_reduction(_nilpotent_line_q, ["y"], 2)),
        Scenario("example-bad-length",
                 "ℓ(A/xA) = 2 on A = F2[x,y]/(x^2+xy+y^2)",
                 ("example",), _run_example_bad_length),
        Scenario("example-bad-parity",
                 "ℓ(A/fA) is even for every sampled parameter f on the F2 cone",
                 ("example", "property"), _run_example_bad_parity),
        Scenario("example-bad-search-p2",
                 "no parameter on the F2 cone has colength prime to 2",
                 ("example",),
                 _run_search(_conic_f2, 2, 50, 7, "EXHAUSTED", [], 0)),
        Scenario("example-bad-search-p3",
                 "the F2 cone has a parameter with colength prime to 3",
                 ("example",),
                 _run_search(_conic_f2, 3, 50, 7, "FOUND", ["x"], 2)),
        Scenario("factor-conic-split",
                 "concatenation identity for (x),(y) on the F2 cone",
                 ("lemma",), _run_factor(_conic_f2, ["x"], ["y"], 0)),
        Scenario("factor-fat-mixed",
                 "concatenation identity for (y),(x) on k[x,y]/(x^2,xy)",
                 ("lemma",), _run_factor(_fat_q, ["y"], ["x"], 0)),
        Scenario("factor-killed-variable",
                 "concatenation identity for (x),(y) on k[x,y]/(x)",
                 ("lemma",),
                 _run_factor(_plane_q, ["x"], ["y"], 0,
                             quotient_polys=lambda r: [r.variable("x")])),
        Scenario("factor-plane-split",
                 "concatenation identity for (x),(y) on the plane",
                 ("lemma",), _run_factor(_plane_q, ["x"], ["y"], 1)),
        Scenario("factor-swap-order",
                 "concatenation identity for (y),(x) on the F2 cone",
                 ("lemma",), _run_factor(_conic_f2, ["y"], ["x"], 0)),
        Scenario("factor-xz-mixed",
                 "concatenation identity for (y),(x+z) on k[x,y,z]/(xz)",
                 ("lemma",), _run_factor(_xz_q, ["y"], [_xz_sum], 2)),
        Scenario("factor-y3",
                 "concatenation identity for (x),(y) on k[x,y]/(y^3)",
                 ("lemma",),
                 _run_factor(_plane_q, ["x"], ["y"], 0,
                             quotient_polys=lambda r: [r.variable("y") ** 3])),
        Scenario("mult-above-dim-conic",
                 "e((x,y), 2) = 0 on the one-dimensional F2 cone",
                 ("property",), _run_mult_above_dim(_conic_f2, ["x", "y"], 2)),
        Scenario("mult-above-dim-cusp",
                 "e((x), 2) = 0 on the one-dimensional cuspidal curve",
                 ("property",),
                 _run_mult_above_dim(lambda: _cusp(FieldSpec.rationals()), ["x"], 2)),
        Scenario("mult-above-dim-fat",
                 "e((y), 2) = 0 on the embedded-point curve k[x,y]/(x^2,xy)",
                 ("property",), _run_mult_above_dim(_fat_q, ["y"], 2)),
        Scenario("mult-regular-point",
                 "e((x,y), 2) = 1 on the plane",
                 ("property",), _run_mult_regular_point),
        Scenario("ord-additivity-conic",
                 "ℓ(B/fgB) = ℓ(B/fB) + ℓ(B/gB) on the F2 cone, five pairs",
                 ("lemma",),
                 _run_ord_additivity(_conic_f2,
                                     [("x", "y"), ("x", "x"), ("y", "y"),
                                      ("x", _xy_sum), (_xy_sum, "y")],
                                     "order additivity on the F2 cone")),
        Scenario("ord-additivity-cusp",
                 "ℓ(B/fgB) = ℓ(B/fB) + ℓ(B/gB) on the cusp, five pairs",
                 ("lemma",),
                 _run_ord_additivity(lambda: _cusp(FieldSpec.rationals()),
                                     [("x", "y"), ("x", "x"), ("y", "y"),
                                      ("x", _xy_prod), (_xy_prod, "y")],
                                     "order additivity on the cuspidal curve")),
        Scenario("ord-univariate",
                 "ℓ additivity for x^2 * x^3 on the coordinate line",
                 ("lemma",),
                 _run_ord_additivity(_line_q, [(_x_sq, _x_cube)],
                                     "order additivity on the line")),
        Scenario("search-f3-cusp",
                 "the F3 cusp has a parameter with colength prime to 3",
                 ("theorem",),
                 _run_search(lambda: _cusp(FieldSpec.prime_field(3)),
                             3, 50, 7, "FOUND", ["x"], 2)),
        Scenario("serre-conic-above-dim",
                 "multiplicity equals the alternating sum on the F2 cone with (x,y)",
                 ("theorem",), _serre(_conic_f2, ["x", "y"], 0)),
        Scenario("serre-cross-branches",
                 "multiplicity equals the alternating sum on k[x,y]/(xy) with (x+y)",
                 ("theorem",), _serre(_cross_q, [_xy_sum], 2)),
        Scenario("serre-cusp-x",
                 "multiplicity equals the alternating sum on the cusp with (x)",
                 ("theorem",),
                 _serre(lambda: _cusp(FieldSpec.rationals()), ["x"], 2)),
        Scenario("serre-cusp-y",
                 "multiplicity equals the alternating sum on the cusp with (y)",
                 ("theorem",),
                 _serre(lambda: _cusp(FieldSpec.rationals()), ["y"], 3)),
        Scenario("serre-fpt-quadric",
                 "multiplicity equals the alternating sum over F5(t) with (x)",
                 ("theorem",), _serre(_quadric_f5t, ["x"], 2)),
        Scenario("serre-killed-variable",
                 "multiplicity equals the alternating sum on k[x,y]/(x) with (x,y)",
                 ("theorem",),
                 _serre(_plane_q, ["x", "y"], 0,
                        quotient_polys=lambda r: [r.variable("x")])),
        Scenario("serre-noncm-module",
                 "multiplicity equals the alternating sum on k[x,y]/(x^2,xy) with (y)",
                 ("theorem",), _serre(_fat_q, ["y"], 1)),
        Scenario("serre-regular-plane",
                 "multiplicity equals the alternating sum on the plane with (x,y)",
                 ("theorem",), _serre(_plane_q, ["x", "y"], 1)),
        Scenario("serre-regular-sequence",
                 "multiplicity equals the alternating sum on the plane with (x^2,y)",
                 ("theorem",), _serre(_plane_q, [_x_sq, "y"], 2)),
        Scenario("serre-y3-x",
                 "multiplicity equals the alternating sum on k[x,y]/(y^3) with (x)",
                 ("theorem",), _serre(lambda: _yn_q(3), ["x"], 3)),
        Scenario("serre2-conic-identity",
                 "three routes agree for the empty-then-(x) pair on the F2 cone",
                 ("theorem",), _run_serre2(_conic_f2, [], ["x"], 2)),
        Scenario("serre2-plane",
                 "three routes agree for (x),(y) on the plane",
                 ("theorem",), _run_serre2(_plane_q, ["x"], ["y"], 1)),
        Scenario("serre2-xz",
                 "three routes agree for (y),(x+z) on k[x,y,z]/(xz)",
                 ("theorem",), _run_serre2(_xz_q, ["y"], [_xz_sum], 2)),
        Scenario("vanish-conic-power",
                 "alternating sum vanishes on A/(x^2) over the F2 cone",
                 ("lemma",),
                 _run_vanish(_conic_f2, ["x"], 1, 2,
                             quotient_polys=lambda r: [r.variable("x") ** 2])),
        Scenario("vanish-fat-square",
                 "alternating sum vanishes on k[x,y]/(x^2,xy) for (x,y)",
                 ("lemma",),
                 _run_vanish(_plane_q, ["x", "y"], 1, 2,
                             quotient_polys=lambda r: [r.variable("x") ** 2,
                                                       r.variable("x") * r.variable("y")])),
        Scenario("vanish-killed-plane",
                 "alternating sum vanishes on k[x,y]/(x) for (x,y)",
                 ("lemma",),
                 _run_vanish(_plane_q, ["x", "y"], 1, 1,
                             quotient_polys=lambda r: [r.variable("x")])),
        Scenario("vanish-univariate-square",
                 "alternating sum vanishes on k[x]/(x^2) for (x)",
                 ("lemma",),
                 _run_vanish(lambda: RingSpec(FieldSpec.rationals(), ("x",)),
                             ["x"], 1, 2,
                             quotient_polys=lambda r: [r.variable("x") ** 2])),
        Scenario("vanish-y3-cube",
                 "alternating sum vanishes on k[x,y]/(y^3) for (x,y)",
                 ("lemma",),
                 _run_vanish(_plane_q, ["x", "y"], 2, 3,
                             quotient_polys=lambda r: [r.variable("y") ** 3])),
    ]
    for n in range(1, 6):
        entries.append(Scenario(
            f"yn-class-relation-n{n}",
            f"cut sums over k[x,y]/(y^{n}) equal {n} times the reduced-line sums",
            ("example",), _run_yn_class_relation(n)))

    registry = {}
    for sc in entries:
        if not sc.claim:
            raise ValueError(f"scenario {sc.id} lacks a claim")
        if not sc.tags or not set(sc.tags) <= ALLOWED_TAGS:
            raise ValueError(f"scenario {sc.id} has invalid tags {sc.tags}")
        if not callable(sc.run):
            raise ValueError(f"scenario {sc.id} has no runner")
        if sc.id in registry:
            raise ValueError(f"duplicate scenario id {sc.id}")
        registry[sc.id] = sc
    return dict(sorted(registry.items()))


_REGISTRY = None


def registry() -> dict:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = build_registry()
    return _REGISTRY


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
    counts = {"VERIFIED": 0, "REFUTED": 0, "INCONCLUSIVE": 0}
    for sid, sc in registry().items():
        if tag is not None and tag not in sc.tags:
            continue
        rep = sc.run()
        counts[rep.verdict] = counts.get(rep.verdict, 0) + 1
        results.append((sid, rep))
    return results, counts
