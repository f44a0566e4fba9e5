"""Acceptance checks: one test per shipped guarantee.

Every comparison is an exact integer identity; the only tolerances anywhere
are wall-clock budgets on the three long suites.  Each test prints a single
PASS or FAIL line so a verbose run doubles as a checklist.
"""

import itertools
import json
import random
import time

import pytest

from mcalc.cli import main
from mcalc.fpmodules import ModuleVector, syzygies
from mcalc.groebner import buchberger, normal_form, standard_monomials
from mcalc.multiplicity import VERIFIED
from mcalc.polyring import INFINITE, Polynomial, RingSpec
from mcalc.scalars import FieldSpec
from mcalc.scenarios import registry, run_scenario

from oracles import membership_oracle, standard_monomial_count


def _report(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _run_prefix(prefix):
    ids = [sid for sid in registry() if sid.startswith(prefix)]
    return {sid: run_scenario(sid) for sid in ids}


# the cusp instances legitimately warn about non-homogeneous quotients
@pytest.mark.filterwarnings("ignore:non-homogeneous defining polynomials")
def test_serre_formula_suite():
    start = time.perf_counter()
    reports = _run_prefix("serre-")
    elapsed = time.perf_counter() - start
    bad = [sid for sid, r in reports.items()
           if r.verdict != VERIFIED or r.left != r.right]
    ok = (len(reports) >= 8
          and "serre-noncm-module" in reports
          and "serre-killed-variable" in reports
          and not bad and elapsed < 30.0)
    _report("serre formula suite", ok,
            f"{len(reports)} instances agree exactly in {elapsed:.2f}s"
            + (f", failing: {bad}" if bad else ""))


def test_factorization_suite():
    reports = _run_prefix("factor-")
    bad = [sid for sid, r in reports.items()
           if r.verdict != VERIFIED or r.left != r.right]
    ok = len(reports) >= 6 and not bad
    _report("factorization suite", ok,
            f"{len(reports)} instances, split sums equal double sums"
            + (f", failing: {bad}" if bad else ""))


def test_vanishing_suite():
    reports = _run_prefix("vanish-")
    bad = [sid for sid, r in reports.items()
           if r.verdict != VERIFIED or r.left != 0]
    ok = len(reports) >= 4 and not bad
    _report("vanishing suite", ok,
            f"{len(reports)} annihilated instances, alternating sum 0"
            + (f", failing: {bad}" if bad else ""))


def test_quadric_cone_example():
    start = time.perf_counter()
    length = run_scenario("example-bad-length")
    parity = run_scenario("example-bad-parity")
    p2 = run_scenario("example-bad-search-p2")
    p3 = run_scenario("example-bad-search-p3")
    elapsed = time.perf_counter() - start
    samples = parity.certificate["samples"]
    ok = (length.verdict == VERIFIED and length.left == 2
          and parity.verdict == VERIFIED and len(samples) == 20
          and all(s["colength"] % 2 == 0 for s in samples)
          and p2.verdict == VERIFIED and p2.left["status"] == "EXHAUSTED"
          and p3.verdict == VERIFIED
          and p3.left == {"status": "FOUND", "ideal": ["x"], "e": 2}
          and elapsed < 60.0)
    _report("quadric cone example", ok,
            f"colength 2, 20 even samples, search p=2 exhausted / p=3 finds"
            f" (x) with e=2, {elapsed:.2f}s")


def test_yn_scaling_family():
    reports = [run_scenario(f"yn-class-relation-n{n}") for n in range(1, 6)]
    ok = all(r.verdict == VERIFIED and r.left == r.right
             and len(r.certificate["cut_elements"]) == 3 for r in reports)
    _report("y^n scaling family", ok,
            "n = 1..5, three cut elements each, sums scale by n exactly")


def test_order_additivity():
    reports = [run_scenario(sid)
               for sid in ("ord-additivity-conic", "ord-additivity-cusp")]
    ok = all(r.verdict == VERIFIED and len(r.certificate["sub_reports"]) >= 5
             for r in reports)
    _report("order additivity", ok,
            "two one-dimensional reduced rings, five parameter pairs each")


@pytest.mark.filterwarnings("ignore:non-homogeneous defining polynomials")
def test_multiplicity_degenerate_and_regular():
    above = [run_scenario(f"mult-above-dim-{name}")
             for name in ("conic", "cusp", "fat")]
    point = run_scenario("mult-regular-point")
    ok = (all(r.verdict == VERIFIED and r.left == 0 for r in above)
          and point.verdict == VERIFIED and point.left == 1)
    _report("multiplicity edge cases", ok,
            "e = 0 above the dimension on 3 rings, e = 1 at a regular point")


# exhaustive engine sweep --------------------------------------------------

_MONS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def _poly_from_coeffs(field, coeffs):
    f = Polynomial.zero(field, 2)
    for m, c in zip(_MONS, coeffs):
        if c:
            f = f + Polynomial.term(field, 2, m, field.from_int(c))
    return f


def _f2_ideals():
    field = FieldSpec.prime_field(2)
    polys = [_poly_from_coeffs(field, bits)
             for bits in itertools.product((0, 1), repeat=6)]
    polys = [f for f in polys if not f.is_zero()]
    ideals = [(f,) for f in polys]
    ideals += list(itertools.combinations(polys, 2))
    return RingSpec(field, ("x", "y")), ideals


def _q_ideals():
    # over Q the degree-2 family is infinite; sweep all sign-normalized
    # {-1,0,1} coefficient vectors and a seeded sample of pairs
    field = FieldSpec.rationals()
    polys = []
    for coeffs in itertools.product((-1, 0, 1), repeat=6):
        nonzero = [c for c in coeffs if c]
        if not nonzero or nonzero[0] < 0:
            continue
        polys.append(_poly_from_coeffs(field, coeffs))
    ideals = [(f,) for f in polys]
    rng = random.Random(20260817)
    pairs = set()
    while len(pairs) < 250:
        i, j = rng.sample(range(len(polys)), 2)
        pairs.add((min(i, j), max(i, j)))
    ideals += [(polys[i], polys[j]) for i, j in sorted(pairs)]
    return RingSpec(field, ("x", "y")), ideals


def _check_ideal(ring, gens):
    gb = buchberger(ring, gens)
    member = membership_oracle(ring, gens, cofactor_cap=4)
    x, y = ring.variable("x"), ring.variable("y")
    probes = [ring.one(), x, y * y, x * gens[0], gens[0] + gens[-1],
              (x * y) * gens[-1]]
    for f in probes:
        engine = gb.contains(f)
        oracle = member(f)
        assert engine == oracle, (
            f"membership mismatch on {ring.poly_to_str(f)} in "
            f"({', '.join(ring.poly_to_str(g) for g in gens)}): "
            f"engine {engine}, oracle {oracle}")
    for f in (probes[3], probes[4]):
        r, witness = normal_form(f, gb, with_witness=True)
        rebuilt = r
        for c, g in zip(witness, gb.generators):
            rebuilt = rebuilt + c * g
        assert rebuilt == f
    if len(gens) == 2:
        rows = syzygies(ring, [ModuleVector((g,)) for g in gens])
        assert rows
        for s in rows:
            acc = ring.zero()
            for c, g in zip(s.components, gens):
                acc = acc + c * g
            assert acc.is_zero()
    std = standard_monomials(gb)
    count = standard_monomial_count(ring, gens)
    if std is INFINITE:
        assert count is None
    else:
        assert count == len(std), (
            f"count mismatch for ({', '.join(ring.poly_to_str(g) for g in gens)}):"
            f" engine {len(std)}, oracle {count}")


def test_engine_oracle_sweep():
    start = time.perf_counter()
    totals = []
    for ring, ideals in (_f2_ideals(), _q_ideals()):
        for gens in ideals:
            _check_ideal(ring, gens)
        totals.append(len(ideals))
    elapsed = time.perf_counter() - start
    ok = totals == [63 + 1953, 364 + 250] and elapsed < 120.0
    _report("engine oracle sweep", ok,
            f"{totals[0]} ideals over F2 and {totals[1]} over Q agree with "
            f"the row-reduction oracle in {elapsed:.2f}s")


def test_cli_determinism(tmp_path, capsys):
    conic = tmp_path / "conic.mc"
    conic.write_text(
        "field = F2\n"
        "vars = x, y\n"
        "quotient = [x^2 + x*y + y^2]\n"
        "module M = rank 1 relations [[x]]\n"
        "seq s = [x, y]\n")
    plane = tmp_path / "plane.mc"
    plane.write_text("field = Q\nvars = x, y\n")
    runs = [
        ["gb", str(conic)],
        ["dim", str(conic)],
        ["length", str(conic), "--module", "M"],
        ["mult", str(conic), "--params", "x"],
        ["koszul", str(conic), "--seq", "@s"],
        ["verify", "serre", str(plane), "--seq", "x,y"],
        ["verify", "factor", str(conic), "--seq", "x", "--seq2", "y"],
        ["verify", "vanish", str(conic), "--seq", "x,y", "--index", "1",
         "--power", "1", "--module", "M"],
        ["verify", "ord", str(conic), "--f", "x", "--g", "y"],
        ["verify", "serre2", str(plane), "--seq", "x", "--seq2", "y"],
        ["verify", "scenario", "--id", "example-bad-length"],
        ["search", str(conic), "--prime", "2", "--budget", "15",
         "--seed", "11"],
    ]
    for argv in runs:
        outs = []
        for _ in range(2):
            assert main(argv + ["--json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] and outs[0] == outs[1], f"output drift for {argv}"
        json.loads(outs[0])
    _report("cli determinism", True,
            f"{len(runs)} commands, repeated runs byte-identical")
