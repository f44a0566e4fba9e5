"""The four benchmark workloads: fixed job lists, seeded inputs, reference checks.

Every input is generated as text (session files and polynomial strings) and
parsed by mcalc, so building a workload is part of its set-up. Seed 0 is the
documented job list. Any other seed rescales every ring variable,
x_i -> c_i*x_i, with c_i drawn from the field's units. Over Q all variables of
a ring get one sign c = +1 or -1: larger integers would grow the coefficients,
and mixed signs change the work of the module engine (it merges generators
only when they are exactly equal, and on k[x,y,z]/(xz, yz) the sequence
(x + z, y) costs twice what (x - z, y) does), so either would make the run
time depend on the seed. Such a scaling is a graded automorphism: quotient
degrees, Krull dimensions, length tables, multiplicities, Koszul homology
lengths and verdicts are all unchanged, so one reference serves every seed.

The reference values below are derived by hand or from closed formulas, never
by running the engine under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

import mcalc
from mcalc import cli
from mcalc.parsing import parse_polynomial
from mcalc.scenarios import registry
from mcalc.session import parse_session_text

WORKLOADS = ("ideal-gb", "module-homology", "hilbert-samuel", "cli-mix")

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "cli-mix.json")


@dataclass
class Job:
    """One closed-loop request.

    run() does the timed work. inspect(raw) runs untimed and returns
    (summary, problem): the summary must repeat exactly on every pass, and
    problem is None when the answer matches its reference. A job with
    known_wrong set is a seed defect kept on purpose; known_wrong states the
    true answer it is checked against.
    """

    id: str
    run: Callable[[], object]
    inspect: Callable[[object], tuple]
    known_wrong: str | None = None


# seeded inputs --------------------------------------------------------------

class Scaling:
    """The substitution x_i -> c_i*x_i applied to polynomial text."""

    def __init__(self, field: str, names, rng):
        self.factors = {}
        if rng is not None:
            m = re.fullmatch(r"F([0-9]+)(\(t\))?", field)
            if m is None:  # Q: one sign for the whole ring
                sign = rng.choice((1, -1))
                self.factors = {name: sign for name in names}
            else:
                self.factors = {name: rng.randrange(1, int(m.group(1)))
                                for name in names}
        self._pattern = re.compile(
            r"\b(" + "|".join(re.escape(n) for n in names) + r")\b")

    def __call__(self, text: str) -> str:
        if not self.factors:
            return text
        return self._pattern.sub(self._replace, text)

    def _replace(self, match):
        name = match.group(1)
        c = self.factors[name]
        return name if c == 1 else f"({c}*{name})"


def session_text(field, names, scale, quotient=(), modules=(), seqs=(),
                 order=None):
    lines = [f"field = {field}", "vars = " + ", ".join(names)]
    if order is not None:
        lines.append(f"order = {order}")
    if quotient:
        lines.append("quotient = [" + ", ".join(scale(p) for p in quotient) + "]")
    for name, rank, rows in modules:
        body = ", ".join("[" + ", ".join(scale(c) for c in row) + "]"
                         for row in rows)
        lines.append(f"module {name} = rank {rank} relations [{body}]")
    for name, polys in seqs:
        lines.append(f"seq {name} = [" + ", ".join(scale(p) for p in polys) + "]")
    return "\n".join(lines) + "\n"


class Inputs:
    """Draws one scaling per ring, in job-list order, from the seed."""

    def __init__(self, seed: int):
        self.rng = None if seed == 0 else random.Random(seed)

    def scaling(self, field, names):
        return Scaling(field, names, self.rng)

    def ring(self, field, names, quotient=(), modules=()):
        """(session, scale) for a ring given by template polynomials."""
        scale = self.scaling(field, names)
        text = session_text(field, names, scale, quotient, modules)
        return parse_session_text(text), scale


def _polys(ring, scale, texts):
    return [parse_polynomial(ring, scale(t)) for t in texts]


def _problem(ok, message):
    return None if ok else message


# ideal-gb ---------------------------------------------------------------------

def cyclic(n):
    names = [f"x{i}" for i in range(n)]
    polys = [" + ".join("*".join(names[(i + j) % n] for j in range(k))
                        for i in range(n)) for k in range(1, n)]
    polys.append("*".join(names) + " - 1")
    return names, polys


def katsura(n, one="1"):
    names = [f"x{i}" for i in range(n + 1)]

    def var(k):
        return names[abs(k)] if abs(k) <= n else None

    polys = [names[0] + "".join(f" + 2*{v}" for v in names[1:]) + f" - {one}"]
    for m in range(n):
        terms = [f"{var(l)}*{var(m - l)}" for l in range(-n, n + 1)
                 if var(l) and var(m - l)]
        polys.append(" + ".join(terms) + f" - {names[m]}")
    return names, polys


def _gb_inspect(degree, dim):
    """Quotient degree (vector-space dimension) and Krull dimension."""
    def inspect(gb):
        sm = mcalc.standard_monomials(gb)
        got_degree = "INFINITE" if sm is mcalc.INFINITE else len(sm)
        got_dim = mcalc.krull_dimension(gb)
        summary = (got_degree, got_dim,
                   tuple(gb.ring.poly_to_str(g) for g in gb.generators))
        problem = None
        if degree is not None and got_degree != degree:
            problem = f"quotient degree {got_degree}, expected {degree}"
        elif got_dim != dim:
            problem = f"Krull dimension {got_dim}, expected {dim}"
        return summary, problem
    return inspect


def _ideal_gb(inputs: Inputs):
    # (family, system, fields, quotient degree, Krull dimension)
    families = [
        ("cyclic-4", cyclic(4), ("F32003", "Q"), None, 1),
        ("cyclic-5", cyclic(5), ("F32003", "Q"), 70, 0),
        ("katsura-3", katsura(3), ("F32003", "Q"), 8, 0),
        ("katsura-4", katsura(4), ("F32003", "Q"), 16, 0),
        ("katsura-3-t", katsura(3, one="t"), ("F5(t)",), 8, 0),
    ]
    jobs = []
    for family, (names, texts), fields, degree, dim in families:
        for field in fields:
            session, scale = inputs.ring(field, names)
            ring = session.ring
            gens = _polys(ring, scale, texts)
            jobs.append(Job(f"{family}/{field}",
                            lambda ring=ring, gens=gens: mcalc.buchberger(ring, gens),
                            _gb_inspect(degree, dim)))
    return jobs


# module-homology ----------------------------------------------------------------

QUADRIC = dict(field="F32003", names=("x", "y", "z"), quotient=("x*z - y^2",),
               modules=(("M", 2, (("x", "y"), ("y", "z"))),))
"""A = k[x,y,z]/(xz - y^2) and M = coker [[x, y], [y, z]]. Since the matrix
has determinant xz - y^2, M has the S-free resolution 0 -> S^2 -> S^2 -> M,
so its Koszul homology on (x,y,z) has lengths equal to the Betti numbers
(2, 2, 0, 0), and its Hilbert function is 2k + 2, giving
l(M/m^n M) = n^2 + n."""


def _lengths_inspect(expected):
    def inspect(lengths):
        lengths = list(lengths)
        return lengths, _problem(lengths == expected,
                                 f"lengths {lengths}, expected {expected}")
    return inspect


def _report_inspect(value):
    def inspect(rep):
        summary = (rep.verdict, rep.left, rep.right)
        ok = rep.verdict == "VERIFIED" and rep.left == rep.right == value
        return summary, _problem(ok, f"report {summary}, expected VERIFIED "
                                     f"with left = right = {value}")
    return inspect


# F2[x,y]/(x^2, y^2) has k-basis 1, x, y, xy. F = A^2 has length 8;
# N = A^2/A(x, y) and P = A^2/(A(y, x) + A(0, xy)) both have length 5.
SWEEP_MODULES = (("F", 2, ()), ("N", 2, (("x", "y"),)),
                 ("P", 2, (("y", "x"), ("0", "x*y"))))
SWEEP_LENGTHS = {"F": 8, "N": 5, "P": 5}
SWEEP_MATRICES = (("x", "y", "0", "x"), ("1", "x", "y", "1"),
                  ("x*y", "0", "0", "x"), ("x + y", "x", "y", "x + y"),
                  ("0", "1", "1", "0"), ("y", "x*y", "x", "0"),
                  ("x", "x", "y", "y"))


def _rank_nullity_job(job_id, mods, source, target, columns):
    """phi: source -> target; checks l(ker) + l(im) = l(source) and
    l(coker) + l(im) = l(target) against the known module lengths."""
    ring = mods[source].ring
    ls, lt = SWEEP_LENGTHS[source], SWEEP_LENGTHS[target]
    source, target = mods[source], mods[target]

    def run():
        phi = mcalc.ModuleMap(source, target, columns)
        kernel, _ = mcalc.kernel_of_map(phi)
        image = mcalc.subquotient(list(phi.matrix), [], target)
        coker = mcalc.subquotient(mcalc.unit_vectors(ring, target.rank),
                                  list(phi.matrix), target)
        return kernel, image, coker

    def inspect(raw):
        k, i, c = (m.length() for m in raw)
        ok = k + i == ls and c + i == lt
        return (k, i, c), _problem(ok, f"ker {k} + im {i} != {ls} or coker "
                                       f"{c} + im {i} != {lt}")
    return Job(job_id, run, inspect)


def _module_homology(inputs: Inputs):
    jobs = []
    session, scale = inputs.ring(**QUADRIC)
    M, seq = session.modules["M"], _polys(session.ring, scale, "xyz")
    jobs.append(Job("koszul-quadric-module",
                    lambda M=M, seq=seq: mcalc.homology_lengths(seq, M),
                    _lengths_inspect([2, 2, 0, 0])))

    # A = k[x,y,z,w]/(xw - yz) is S/(f): Betti numbers (1, 1, 0, 0, 0).
    session, scale = inputs.ring("Q", ("x", "y", "z", "w"), ("x*w - y*z",))
    A = mcalc.FPModule.free(session.ring, 1)
    seq4 = _polys(session.ring, scale, "xyzw")
    jobs.append(Job("koszul-segre-ring",
                    lambda A=A, seq4=seq4: mcalc.homology_lengths(seq4, A),
                    _lengths_inspect([1, 1, 0, 0, 0])))

    # k[x,y,z]/(xz, yz) is the plane z = 0 plus the z-axis. (x + z, y) is
    # m-primary and only the plane has dimension 2, so the alternating sum
    # is e((x, y); k[x,y]) = 1, and the cut-down class has length 1.
    session, scale = inputs.ring("Q", ("x", "y", "z"), ("x*z", "y*z"))
    B = mcalc.FPModule.free(session.ring, 1)
    f, g = _polys(session.ring, scale, ("x + z", "y"))
    jobs.append(Job("factor-xz-yz",
                    lambda B=B, f=f, g=g: mcalc.verify_factorization(B, [f], [g]),
                    _report_inspect(1)))
    jobs.append(Job("reduce-class-xz-yz",
                    lambda B=B, f=f, g=g: [mcalc.reduce_class([f, g], B).length()],
                    _lengths_inspect([1])))

    session, scale = inputs.ring("F2", ("x", "y"), ("x^2", "y^2"),
                                 SWEEP_MODULES)
    ring = session.ring
    mods = session.modules
    k = 0
    for target in ("F", "N"):
        for entries in SWEEP_MATRICES:
            a, b, c, d = _polys(ring, scale, entries)
            cols = [mcalc.ModuleVector((a, b)), mcalc.ModuleVector((c, d))]
            k += 1
            jobs.append(_rank_nullity_job(f"rank-nullity-{k:02d}", mods,
                                          "F", target, cols))
    for source, text in (("N", "x"), ("P", "x + y")):
        (p,) = _polys(ring, scale, (text,))
        k += 1
        cols = [mcalc.ModuleVector(tuple(p if i == j else ring.zero()
                                         for i in range(2))) for j in range(2)]
        jobs.append(_rank_nullity_job(f"rank-nullity-{k:02d}", mods,
                                      source, source, cols))
    return jobs


# hilbert-samuel ----------------------------------------------------------------

def _binom3(k):
    return math.comb(k, 3) if k >= 3 else 0


def _table_inspect(e, entry):
    """e and every length-table entry l(M/I^n M) = entry(n), n = 1, 2, .."""
    def inspect(data):
        got_e, table = data
        want = [entry(n) for n in range(1, len(table) + 1)]
        ok = got_e == e and list(table) == want and len(table) >= 3
        return (got_e, tuple(table)), _problem(
            ok, f"e = {got_e}, table {list(table)}; expected e = {e}, table {want}")
    return inspect


def _hilbert_samuel(inputs: Inputs):
    jobs = []
    # Fermat A = S/(x^d + y^d + z^d): l(A/m^n) = C(n+2,3) - C(n-d+2,3), e = d.
    for d in range(3, 7):
        session, scale = inputs.ring("F32003", ("x", "y", "z"),
                                     (f"x^{d} + y^{d} + z^{d}",))
        A = mcalc.FPModule.free(session.ring, 1)
        m = _polys(session.ring, scale, "xyz")
        jobs.append(Job(f"fermat-{d}",
                        lambda A=A, m=m: mcalc.multiplicity_data(A, m, 2),
                        _table_inspect(d, lambda n, d=d: _binom3(n + 2) - _binom3(n - d + 2))))
    # A parameter ideal I of the plane is generated by a regular sequence,
    # so gr_I is a polynomial ring over R/I: l(R/I^n) = l(R/I) * C(n+1, 2)
    # and e = l(R/I). The colengths are intersection multiplicities.
    session, scale = inputs.ring("Q", ("x", "y"))
    R = mcalc.FPModule.free(session.ring, 1)
    for label, gens, colength in (("x3-y4", ("x^3", "y^4"), 12),
                                  ("x2+y3-xy", ("x^2 + y^3", "x*y"), 5),
                                  ("x2-y3", ("x^2", "y^3"), 6),
                                  ("x+y2-y3", ("x + y^2", "y^3"), 3)):
        ideal = _polys(session.ring, scale, gens)
        jobs.append(Job(f"plane-{label}",
                        lambda R=R, ideal=ideal: mcalc.multiplicity_data(R, ideal, 2),
                        _table_inspect(colength,
                                       lambda n, c=colength: c * n * (n + 1) // 2)))
    session, scale = inputs.ring(**QUADRIC)
    M, m = session.modules["M"], _polys(session.ring, scale, "xyz")
    jobs.append(Job("quadric-module-m",
                    lambda M=M, m=m: mcalc.multiplicity_data(M, m, 2),
                    _table_inspect(2, lambda n: n * n + n)))
    return jobs


# cli-mix --------------------------------------------------------------------------

# name -> (field, vars, quotient, modules, seqs, order)
CLI_SESSIONS = {
    "conic": ("F2", ("x", "y"), ("x^2 + x*y + y^2",),
              (("M", 1, (("x",),)),), (("s", ("x", "y")),), None),
    "plane": ("Q", ("x", "y"), (), (("T", 1, (("x^2",), ("y^3",))),),
              (("s", ("x", "y")), ("p", ("x^2 + y^3", "x*y"))), None),
    "cusp": ("Q", ("x", "y"), ("y^2 - x^3",), (), (), None),
    "cross": ("Q", ("x", "y"), ("x*y",), (), (), None),
    "fat": ("Q", ("x", "y"), ("x^2", "x*y"), (), (), None),
    "nil": ("Q", ("x", "y"), ("x^2",), (), (), None),
    "f5t": ("F5(t)", ("x", "y"), ("y^2 - t*x^2",), (), (), None),
    "quad": ("F32003", ("x", "y", "z"), ("x*z - y^2",),
             (("M", 2, (("x", "y"), ("y", "z"))),), (), None),
    "xzyz": ("Q", ("x", "y", "z"), ("x*z", "y*z"), (), (), None),
    "x10": ("Q", ("x",), ("x^10",), (), (), None),
    "idem": ("Q", ("x",), ("x^2 - x",), (), (), None),
    "block5": ("Q", ("x", "y"), (), (), (), "block(5)"),
    "unitq": ("Q", ("x", "y"), ("x^2 + 1",), (), (), None),
}

POLY_FLAGS = ("--gens", "--params", "--seq", "--seq2", "--f", "--g")


def _get(record, path):
    value = record
    for key in path.split("."):
        value = value[key]
    return value


def _leads(*monomials):
    """Leading monomials of a printed basis, read off its first terms."""
    want = sorted(monomials)

    def check(basis, names):
        got = []
        for poly in basis:
            # coefficients over F_p(t) are parenthesized and may hold + and -
            first = re.split(r" [+-] ", re.sub(r"\([^()]*\)", "c", poly))[0]
            got.append("*".join(f for f in first.lstrip("-").split("*")
                                if f.split("^")[0] in names))
        return sorted(got) == want
    return check


def _seq_table(entry):
    def check(table, names):
        return table == [entry(n) for n in range(1, len(table) + 1)] and len(table) >= 3
    return check


def verified(value, right=None):
    return {"verdict": "VERIFIED", "result.left": value,
            "result.right": value if right is None else right}


def mult(e, entry):
    return {"result.e": e, "certificate.length_table": _seq_table(entry)}


def tri(n):
    return n * (n + 1) // 2


CODED_ERROR = "coded-error"

# (id, session, argv after the session path, expected fields or CODED_ERROR).
# The search seed "S" is 7 at benchmark seed 0 and drawn from the seed
# otherwise; every checked invariant holds for any search seed.
CLI_JOBS = [
    ("conic-gb", "conic", ["gb"], {"result": _leads("x^2")}),
    ("conic-gb-x", "conic", ["gb", "--gens", "x"], {"result": _leads("x", "y^2")}),
    ("conic-gb-xy", "conic", ["gb", "--gens", "x, y"], {"result": _leads("x", "y")}),
    ("conic-gb-x+y", "conic", ["gb", "--gens", "x + y"], {"result": _leads("x", "y^2")}),
    ("conic-dim", "conic", ["dim"], {"result": 1}),
    ("conic-length", "conic", ["length"], {"result": "INFINITE"}),
    ("conic-length-M", "conic", ["length", "--module", "M"], {"result": 2}),
    ("conic-mult-x", "conic", ["mult", "--params", "x"], mult(2, lambda n: 2 * n)),
    ("conic-mult-m", "conic", ["mult", "--params", "x, y"], mult(2, lambda n: 2 * n - 1)),
    ("conic-mult-s", "conic", ["mult", "--params", "@s"], mult(2, lambda n: 2 * n - 1)),
    ("conic-mult-m-r2", "conic", ["mult", "--params", "x, y", "--r", "2"],
     mult(0, lambda n: 2 * n - 1)),
    ("conic-koszul-x", "conic", ["koszul", "--seq", "x"], {"result.lengths": [2, 0]}),
    ("conic-koszul-s", "conic", ["koszul", "--seq", "@s"], {"result.lengths": [1, 1, 0]}),
    ("conic-koszul-xy-1", "conic", ["koszul", "--seq", "x, y", "--degree", "1"],
     {"result.length": 1}),
    ("conic-serre-x", "conic", ["verify", "serre", "--seq", "x"], verified(2)),
    ("conic-serre-x-M", "conic", ["verify", "serre", "--seq", "x", "--module", "M"],
     verified(0)),
    ("conic-serre-s", "conic", ["verify", "serre", "--seq", "@s"], verified(0)),
    ("conic-factor-x-y", "conic", ["verify", "factor", "--seq", "x", "--seq2", "y"],
     verified(0)),
    ("conic-factor-y-x", "conic", ["verify", "factor", "--seq", "y", "--seq2", "x"],
     verified(0)),
    ("conic-vanish-M", "conic", ["verify", "vanish", "--seq", "x", "--index", "1",
                                 "--power", "1", "--module", "M"], verified(0)),
    ("conic-ord-x-y", "conic", ["verify", "ord", "--f", "x", "--g", "y"], verified(4)),
    ("conic-ord-x-x", "conic", ["verify", "ord", "--f", "x", "--g", "x"], verified(4)),
    ("conic-ord-x+y-y", "conic", ["verify", "ord", "--f", "x + y", "--g", "y"],
     verified(4)),
    ("conic-serre2", "conic", ["verify", "serre2", "--seq", "", "--seq2", "x"],
     verified(2, [2, 2])),
    ("conic-search-p3", "conic", ["search", "--prime", "3", "--budget", "50",
                                  "--seed", "S"],
     {"result.status": "FOUND", "result.e": 2}),
    ("conic-search-p2", "conic", ["search", "--prime", "2", "--budget", "12",
                                  "--seed", "S"],
     {"result.status": "EXHAUSTED", "result.tried": 12,
      "certificate.table": lambda rows, names: all(r["e"] % 2 == 0 for r in rows)}),
    ("plane-dim", "plane", ["dim"], {"result": 2}),
    ("plane-length", "plane", ["length"], {"result": "INFINITE"}),
    ("plane-length-T", "plane", ["length", "--module", "T"], {"result": 6}),
    ("plane-gb-p", "plane", ["gb", "--gens", "x^2 + y^3, x*y"], {"result": _leads("x*y", "y^3", "x^3")}),
    ("plane-gb-x3-y4", "plane", ["gb", "--gens", "x^3, y^4"],
     {"result": _leads("x^3", "y^4")}),
    ("plane-gb-x+y2-y3", "plane", ["gb", "--gens", "x + y^2, y^3"],
     {"result": _leads("y^2", "x*y", "x^2")}),
    ("plane-mult-m", "plane", ["mult", "--params", "x, y"], mult(1, tri)),
    ("plane-mult-s", "plane", ["mult", "--params", "@s"], mult(1, tri)),
    ("plane-mult-x3-y4", "plane", ["mult", "--params", "x^3, y^4"],
     mult(12, lambda n: 12 * tri(n))),
    ("plane-mult-p", "plane", ["mult", "--params", "@p"], mult(5, lambda n: 5 * tri(n))),
    ("plane-mult-x2-y3", "plane", ["mult", "--params", "x^2, y^3"],
     mult(6, lambda n: 6 * tri(n))),
    ("plane-mult-x+y2-y3", "plane", ["mult", "--params", "x + y^2, y^3"],
     mult(3, lambda n: 3 * tri(n))),
    ("plane-koszul-s", "plane", ["koszul", "--seq", "x, y"], {"result.lengths": [1, 0, 0]}),
    ("plane-koszul-p", "plane", ["koszul", "--seq", "@p"], {"result.lengths": [5, 0, 0]}),
    ("plane-koszul-x2-y3-0", "plane", ["koszul", "--seq", "x^2, y^3", "--degree", "0"],
     {"result.length": 6}),
    ("plane-koszul-s-2", "plane", ["koszul", "--seq", "x, y", "--degree", "2"],
     {"result.length": 0}),
    ("plane-serre-s", "plane", ["verify", "serre", "--seq", "@s"], verified(1)),
    ("plane-serre-x2-y", "plane", ["verify", "serre", "--seq", "x^2, y"], verified(2)),
    ("plane-serre-p", "plane", ["verify", "serre", "--seq", "@p"], verified(5)),
    ("plane-serre-T", "plane", ["verify", "serre", "--seq", "@s", "--module", "T"],
     verified(0)),
    ("plane-factor-x-y", "plane", ["verify", "factor", "--seq", "x", "--seq2", "y"],
     verified(1)),
    ("plane-serre2-x-y", "plane", ["verify", "serre2", "--seq", "x", "--seq2", "y"],
     verified(1, [1, 1])),
    ("plane-vanish-T", "plane", ["verify", "vanish", "--seq", "x, y", "--index", "1",
                                 "--power", "2", "--module", "T"], verified(0)),
    ("plane-search-p2", "plane", ["search", "--prime", "2", "--budget", "20",
                                  "--seed", "S"],
     {"result.status": "FOUND", "result.e": 1}),
    ("cusp-dim", "cusp", ["dim"], {"result": 1}),
    ("cusp-length", "cusp", ["length"], {"result": "INFINITE"}),
    ("cusp-gb", "cusp", ["gb"], {"result": _leads("x^3")}),
    ("cusp-gb-x", "cusp", ["gb", "--gens", "x"], {"result": _leads("x", "y^2")}),
    ("cusp-mult-x", "cusp", ["mult", "--params", "x"], mult(2, lambda n: 2 * n)),
    ("cusp-mult-y", "cusp", ["mult", "--params", "y"], mult(3, lambda n: 3 * n)),
    ("cusp-mult-m", "cusp", ["mult", "--params", "x, y"], mult(2, lambda n: 2 * n - 1)),
    ("cusp-koszul-x", "cusp", ["koszul", "--seq", "x"], {"result.lengths": [2, 0]}),
    ("cusp-koszul-y", "cusp", ["koszul", "--seq", "y"], {"result.lengths": [3, 0]}),
    ("cusp-serre-x", "cusp", ["verify", "serre", "--seq", "x"], verified(2)),
    ("cusp-serre-y", "cusp", ["verify", "serre", "--seq", "y"], verified(3)),
    ("cusp-ord-x-y", "cusp", ["verify", "ord", "--f", "x", "--g", "y"], verified(5)),
    ("cusp-ord-x-xy", "cusp", ["verify", "ord", "--f", "x", "--g", "x*y"], verified(7)),
    ("cusp-search-p2", "cusp", ["search", "--prime", "2", "--budget", "20",
                                "--seed", "S"],
     {"result.status": "FOUND", "result.e": 3}),
    ("cross-dim", "cross", ["dim"], {"result": 1}),
    ("cross-gb-x+y", "cross", ["gb", "--gens", "x + y"], {"result": _leads("x", "y^2")}),
    ("cross-mult", "cross", ["mult", "--params", "x + y"], mult(2, lambda n: 2 * n)),
    ("cross-koszul", "cross", ["koszul", "--seq", "x + y"], {"result.lengths": [2, 0]}),
    ("cross-serre", "cross", ["verify", "serre", "--seq", "x + y"], verified(2)),
    ("cross-ord", "cross", ["verify", "ord", "--f", "x + y", "--g", "x + y"],
     verified(4)),
    ("fat-dim", "fat", ["dim"], {"result": 1}),
    ("fat-gb", "fat", ["gb"], {"result": _leads("x^2", "x*y")}),
    ("fat-koszul-y", "fat", ["koszul", "--seq", "y"], {"result.lengths": [2, 1]}),
    ("fat-serre-y", "fat", ["verify", "serre", "--seq", "y"], verified(1)),
    ("fat-mult-y", "fat", ["mult", "--params", "y"], mult(1, lambda n: n + 1)),
    ("fat-mult-y-r2", "fat", ["mult", "--params", "y", "--r", "2"],
     mult(0, lambda n: n + 1)),
    ("fat-vanish", "fat", ["verify", "vanish", "--seq", "x, y", "--index", "1",
                           "--power", "2"], verified(0)),
    ("nil-serre-y", "nil", ["verify", "serre", "--seq", "y"], verified(2)),
    ("nil-vanish", "nil", ["verify", "vanish", "--seq", "x, y", "--index", "1",
                           "--power", "2"], verified(0)),
    ("nil-mult-y", "nil", ["mult", "--params", "y"], mult(2, lambda n: 2 * n)),
    ("nil-koszul-y", "nil", ["koszul", "--seq", "y"], {"result.lengths": [2, 0]}),
    ("f5t-dim", "f5t", ["dim"], {"result": 1}),
    ("f5t-gb", "f5t", ["gb"], {"result": _leads("x^2")}),
    ("f5t-mult-x", "f5t", ["mult", "--params", "x"], mult(2, lambda n: 2 * n)),
    ("f5t-koszul-x", "f5t", ["koszul", "--seq", "x"], {"result.lengths": [2, 0]}),
    ("f5t-serre-x", "f5t", ["verify", "serre", "--seq", "x"], verified(2)),
    ("f5t-ord-x-y", "f5t", ["verify", "ord", "--f", "x", "--g", "y"], verified(4)),
    ("quad-dim", "quad", ["dim"], {"result": 2}),
    ("quad-gb", "quad", ["gb"], {"result": _leads("y^2")}),
    ("quad-gb-xz", "quad", ["gb", "--gens", "x, z"], {"result": _leads("x", "y^2", "z")}),
    ("quad-length-M", "quad", ["length", "--module", "M"], {"result": "INFINITE"}),
    ("quad-mult-xz", "quad", ["mult", "--params", "x, z"], mult(2, lambda n: 2 * tri(n))),
    ("quad-mult-m", "quad", ["mult", "--params", "x, y, z"], mult(2, lambda n: n * n)),
    ("quad-koszul-xz", "quad", ["koszul", "--seq", "x, z"], {"result.lengths": [2, 0, 0]}),
    ("quad-serre-xz", "quad", ["verify", "serre", "--seq", "x, z"], verified(2)),
    ("xzyz-dim", "xzyz", ["dim"], {"result": 2}),
    ("xzyz-gb", "xzyz", ["gb"], {"result": _leads("x*z", "y*z")}),
    # A/I^n has the plane monomials of degree < n, z, .., z^(n-1), and
    # x^n = -z^n: l = C(n+1, 2) + n.
    ("xzyz-mult", "xzyz", ["mult", "--params", "x + z, y"],
     mult(1, lambda n: tri(n) + n)),
    ("xzyz-factor", "xzyz", ["verify", "factor", "--seq", "x + z", "--seq2", "y"],
     verified(1)),
]

# Seed defects kept on purpose, each checked against its true answer.
# (id, session, argv, expected, what is true, what the seed does)
KNOWN_WRONG = [
    ("kw-serre-x10", "x10", ["verify", "serre", "--seq", "x"], verified(0),
     "VERIFIED with 0 = 0: k[x]/(x^10) has dimension 0, so e((x), M, 1) = 0",
     "prints REFUTED with e = 1 and exits 1"),
    ("kw-length-idempotent", "idem", ["length"], "local-length-1",
     "local length 1 at the origin, or exit 2 with SUPPORT_NOT_AT_ORIGIN",
     "prints the global length 2"),
    ("kw-koszul-degree", "plane", ["koszul", "--seq", "x, y", "--degree", "5"],
     CODED_ERROR, "exit 2 with a coded error", "raises a bare ValueError"),
    ("kw-mult-negative-r", "plane", ["mult", "--params", "x, y", "--r", "-1"],
     CODED_ERROR, "exit 2 with a coded error", "raises a bare ValueError"),
    ("kw-vanish-index", "nil", ["verify", "vanish", "--seq", "x", "--index", "3",
                                "--power", "2"],
     CODED_ERROR, "exit 2 with a coded error", "raises a bare ValueError"),
    ("kw-block-order", "block5", ["dim"], CODED_ERROR,
     "exit 2 with a coded error", "raises a bare ValueError"),
    ("kw-unit-quotient", "unitq", ["dim"], CODED_ERROR,
     "exit 2 with a coded error", "raises a bare ValueError"),
]
"""Left out: `x^20000000` in a session hangs at the seed (Polynomial.__pow__
multiplies in a loop), and a pass must finish."""

_CODED = re.compile(r"^error: [A-Z][A-Z_]*: ", re.M)


def run_cli(argv):
    """mcalc.cli.main in-process: (exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an uncaught engine error is a traceback exit
            code = None
            err.write(f"Traceback: {type(exc).__name__}: {exc}\n")
    return code, out.getvalue(), err.getvalue()


def _cli_problem(expected, names, code, out, err):
    if expected == CODED_ERROR:
        return _problem(code == 2 and _CODED.search(err) is not None,
                        f"exit {code}, stderr {err.strip()[:80]!r}; expected "
                        "exit 2 with a coded error")
    if expected == "local-length-1":
        if code == 2:
            return _problem("SUPPORT_NOT_AT_ORIGIN" in err,
                            f"exit 2 without SUPPORT_NOT_AT_ORIGIN: {err.strip()[:80]!r}")
        expected = {"result": 1}
    if code != 0:
        return f"exit {code}, stderr {err.strip()[:80]!r}"
    record = json.loads(out)
    for path, want in expected.items():
        got = _get(record, path)
        ok = want(got, names) if callable(want) else got == want
        if not ok:
            return f"{path} = {json.dumps(got)[:120]}"
    return None


def _cli_job(job_id, argv, expected, names, golden, known_wrong=None):
    def inspect(raw):
        code, out, err = raw
        problem = _cli_problem(expected, names, code, out, err)
        if problem is None and golden is not None and out != golden:
            problem = "record differs from the golden copy"
        return (code, out), problem
    return Job(job_id, lambda: run_cli(argv), inspect, known_wrong)


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _cli_mix(inputs: Inputs, workdir: str, seed: int, golden: dict):
    paths, scalings, names_of = {}, {}, {}
    for name, (field, names, quotient, modules, seqs, order) in CLI_SESSIONS.items():
        scale = inputs.scaling(field, names)
        text = session_text(field, names, scale, quotient, modules, seqs, order)
        path = os.path.join(workdir, f"{name}.mc")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if name not in ("block5", "unitq"):  # these two must fail to parse
            parse_session_text(text)
        paths[name], scalings[name], names_of[name] = path, scale, names
    search_seed = "7" if seed == 0 else str(random.Random(seed).randrange(10**6))

    def argv_for(session, tail):
        argv = [tail[0]] + (tail[1:2] if tail[0] == "verify" else [])
        rest = tail[len(argv):]
        argv.append(paths[session])
        for i, arg in enumerate(rest):
            if arg == "S":
                arg = search_seed
            elif i > 0 and rest[i - 1] in POLY_FLAGS and not arg.startswith("@"):
                arg = scalings[session](arg)
            argv.append(arg)
        return argv + ["--json"]

    jobs = []
    for job_id, session, tail, expected in CLI_JOBS:
        jobs.append(_cli_job(job_id, argv_for(session, tail), expected,
                             names_of[session], golden.get(job_id)))
    for job_id, session, tail, expected, truth, _seed_does in KNOWN_WRONG:
        jobs.append(_cli_job(job_id, argv_for(session, tail), expected,
                             names_of[session], None, known_wrong=truth))
    for sid in registry():
        jobs.append(_cli_job(f"scenario-{sid}",
                             ["verify", "scenario", "--id", sid, "--json"],
                             {"verdict": "VERIFIED"}, (), golden.get(f"scenario-{sid}")))
    return jobs


def build(workload: str, seed: int, workdir: str, golden=None):
    """The job list of one workload.

    cli-mix writes its session files to workdir and compares each --json
    record with golden[job id] where golden has one.
    """
    inputs = Inputs(seed)
    if workload == "ideal-gb":
        return _ideal_gb(inputs)
    if workload == "module-homology":
        return _module_homology(inputs)
    if workload == "hilbert-samuel":
        return _hilbert_samuel(inputs)
    if workload == "cli-mix":
        return _cli_mix(inputs, workdir, seed, golden or {})
    raise ValueError(f"unknown workload {workload!r}")


# The subset each workload runs under run.py --smoke: cheap jobs that still
# reach every layer the workload exercises.
TINY = {
    "ideal-gb": ("cyclic-4/F32003", "cyclic-4/Q", "katsura-3/F32003",
                 "katsura-3/Q", "katsura-3-t/F5(t)"),
    "module-homology": ("reduce-class-xz-yz", "rank-nullity-01",
                        "rank-nullity-03", "rank-nullity-15"),
    "hilbert-samuel": ("fermat-3", "plane-x3-y4", "plane-x2+y3-xy"),
    "cli-mix": ("conic-gb-x", "conic-koszul-s", "plane-mult-p", "cusp-serre-y",
                "plane-search-p2", "kw-serre-x10", "kw-length-idempotent",
                "kw-koszul-degree", "kw-block-order",
                "scenario-serre-cusp-x", "scenario-factor-plane-split"),
}
