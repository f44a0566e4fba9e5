"""Command line front end.

Subcommands compute Groebner bases, dimensions, lengths, multiplicities, and
Koszul homology over a ring described by a session file, run the identity
verifiers, and search for parameter sequences. `--json` switches to a
machine record {command, session, inputs, result, certificate, verdict};
output is deterministic for fixed inputs and seeds.

Exit codes: 0 success or VERIFIED, 1 REFUTED, 2 usage or engine errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import EngineError, ParseError
from .fpmodules import FPModule
from .groebner import buchberger, krull_dimension
from .koszul import koszul_homology
from .multiplicity import (VERIFIED, _jsonable, multiplicity_data, ord_check,
                           search_parameters, verify_factorization,
                           verify_serre, verify_serre2, verify_vanish)
from .parsing import parse_polynomial, parse_polynomial_list
from .scenarios import run_all, run_scenario
from .session import parse_session, serialize_session


def _record(command, session_text, inputs, result, certificate, verdict):
    return {
        "command": command,
        "session": session_text,
        "inputs": {k: _jsonable(v) for k, v in inputs.items()},
        "result": _jsonable(result),
        "certificate": _jsonable(certificate),
        "verdict": verdict,
    }


def _emit(args, record, human_lines, code):
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)
    return code


def _load(args):
    session = parse_session(args.session)
    return session, serialize_session(session)


def _resolve_module(session, name):
    if name is None:
        return FPModule.free(session.ring, 1)
    if name not in session.modules:
        raise ParseError(f"unknown module {name!r} in session")
    return session.modules[name]


def _resolve_seq(session, text):
    if text is None:
        return []
    if text.startswith("@"):
        name = text[1:]
        if name not in session.sequences:
            raise ParseError(f"unknown sequence {name!r} in session")
        return list(session.sequences[name])
    return parse_polynomial_list(session.ring, text)


def _report_lines(rep):
    return [f"claim: {rep.claim}",
            f"left: {_jsonable(rep.left)}",
            f"right: {_jsonable(rep.right)}",
            f"verdict: {rep.verdict}"]


def _report_exit(rep):
    return 0 if rep.verdict == VERIFIED else 1


def _emit_report(args, command, session_text, inputs, rep):
    record = _record(command, session_text, inputs,
                     {"left": _jsonable(rep.left),
                      "right": _jsonable(rep.right)},
                     dict(rep.certificate, claim=rep.claim), rep.verdict)
    return _emit(args, record, _report_lines(rep), _report_exit(rep))


# subcommand handlers --------------------------------------------------------

def cmd_gb(args):
    session, text = _load(args)
    ring = session.ring
    gens = parse_polynomial_list(ring, args.gens) if args.gens else []
    gb = buchberger(ring, gens)
    names = [ring.poly_to_str(g) for g in gb.generators]
    record = _record("gb", text, {"gens": args.gens},
                     names, {"count": len(names),
                             "unit_ideal": gb.is_unit_ideal()}, None)
    lines = [f"groebner basis ({len(names)} generators):"]
    lines += [f"  {n}" for n in names]
    return _emit(args, record, lines, 0)


def cmd_dim(args):
    session, text = _load(args)
    d = krull_dimension(buchberger(session.ring, []))
    record = _record("dim", text, {}, d, {}, None)
    return _emit(args, record, [f"krull dimension: {d}"], 0)


def cmd_length(args):
    session, text = _load(args)
    M = _resolve_module(session, args.module)
    l = M.local_length()
    record = _record("length", text, {"module": args.module}, l, {}, None)
    return _emit(args, record, [f"length: {_jsonable(l)}"], 0)


def cmd_mult(args):
    session, text = _load(args)
    ring = session.ring
    M = _resolve_module(session, args.module)
    params = _resolve_seq(session, args.params)
    r = args.r
    if r is None:
        r = krull_dimension(buchberger(ring, []))
    e, table = multiplicity_data(M, params, r)
    record = _record("mult", text,
                     {"params": args.params, "r": args.r,
                      "module": args.module},
                     {"e": e, "r": r}, {"length_table": list(table)}, None)
    return _emit(args, record,
                 [f"multiplicity: {e} (difference order {r})",
                  f"length table: {list(table)}"], 0)


def cmd_koszul(args):
    session, text = _load(args)
    ring = session.ring
    M = _resolve_module(session, args.module)
    seq = _resolve_seq(session, args.seq)
    inputs = {"seq": args.seq, "module": args.module, "degree": args.degree}
    if args.degree is not None:
        H = koszul_homology(seq, M, args.degree)
        l = H.local_length()
        result = {"degree": args.degree, "length": l}
        cert = {"presentation": H.describe()}
        lines = [f"H_{args.degree}: length {_jsonable(l)}"]
        record = _record("koszul", text, inputs, result, cert, None)
        return _emit(args, record, lines, 0)
    degrees = []
    for i in range(len(seq) + 1):
        H = koszul_homology(seq, M, i)
        degrees.append({"degree": i, "length": H.local_length(),
                        "presentation": H.describe()})
    record = _record("koszul", text, inputs,
                     {"lengths": [d["length"] for d in degrees]},
                     {"degrees": degrees}, None)
    lines = [f"H_{d['degree']}: length {_jsonable(d['length'])}"
             for d in degrees]
    return _emit(args, record, lines, 0)


def cmd_search(args):
    session, text = _load(args)
    ring = session.ring
    res = search_parameters(ring, args.prime, args.budget, args.seed)
    ideal = [ring.poly_to_str(f) for f in res.ideal]
    table = [{"ideal": [ring.poly_to_str(f) for f in seq], "e": e}
             for seq, e in res.table]
    result = {"status": res.status, "ideal": ideal, "e": res.e,
              "tried": res.tried}
    cert = {"table": table, "dimension": res.dimension,
            "prime": res.prime, "seed": res.seed, "budget": res.budget}
    record = _record("search", text,
                     {"prime": args.prime, "budget": args.budget,
                      "seed": args.seed}, result, cert, None)
    if res.status == "FOUND":
        lines = [f"FOUND: ideal = ({', '.join(ideal)}), e = {res.e}, "
                 f"tried {res.tried} of {args.budget}"]
    else:
        lines = [f"EXHAUSTED after {res.tried} candidates"]
    lines += [f"  ({', '.join(row['ideal'])}): e = {row['e']}"
              for row in table]
    return _emit(args, record, lines, 0)


def cmd_verify_serre(args):
    session, text = _load(args)
    M = _resolve_module(session, args.module)
    seq = _resolve_seq(session, args.seq)
    rep = verify_serre(M, seq)
    return _emit_report(args, "verify serre", text,
                        {"seq": args.seq, "module": args.module}, rep)


def cmd_verify_factor(args):
    session, text = _load(args)
    M = _resolve_module(session, args.module)
    seq = _resolve_seq(session, args.seq)
    seq2 = _resolve_seq(session, args.seq2)
    rep = verify_factorization(M, seq, seq2)
    return _emit_report(args, "verify factor", text,
                        {"seq": args.seq, "seq2": args.seq2,
                         "module": args.module}, rep)


def cmd_verify_vanish(args):
    session, text = _load(args)
    M = _resolve_module(session, args.module)
    seq = _resolve_seq(session, args.seq)
    rep = verify_vanish(M, seq, args.index, args.power)
    return _emit_report(args, "verify vanish", text,
                        {"seq": args.seq, "index": args.index,
                         "power": args.power, "module": args.module}, rep)


def cmd_verify_ord(args):
    session, text = _load(args)
    ring = session.ring
    f = parse_polynomial(ring, args.f)
    g = parse_polynomial(ring, args.g)
    rep = ord_check(ring, f, g)
    return _emit_report(args, "verify ord", text,
                        {"f": args.f, "g": args.g}, rep)


def cmd_verify_serre2(args):
    session, text = _load(args)
    M = _resolve_module(session, args.module)
    seq = _resolve_seq(session, args.seq)
    seq2 = _resolve_seq(session, args.seq2)
    rep = verify_serre2(M, seq, seq2)
    return _emit_report(args, "verify serre2", text,
                        {"seq": args.seq, "seq2": args.seq2,
                         "module": args.module}, rep)


def cmd_verify_scenario(args):
    inputs = {"id": args.id, "tag": args.tag}
    if args.id is not None:
        rep = run_scenario(args.id)
        return _emit_report(args, "verify scenario", None, inputs, rep)
    results, counts = run_all(args.tag)
    rows = [{"id": sid, "verdict": rep.verdict,
             "left": _jsonable(rep.left), "right": _jsonable(rep.right)}
            for sid, rep in results]
    verdict = VERIFIED if all(r["verdict"] == VERIFIED for r in rows) else "REFUTED"
    record = _record("verify scenario", None, inputs,
                     {"counts": counts, "reports": rows},
                     {"reports": [dict(rep.to_dict(), id=sid)
                                  for sid, rep in results]}, verdict)
    width = max((len(r["id"]) for r in rows), default=0)
    lines = [f"{r['id']:<{width}}  {r['verdict']}" for r in rows]
    lines.append(f"summary: {counts['VERIFIED']} verified, "
                 f"{counts['REFUTED']} refuted of {len(rows)}")
    return _emit(args, record, lines, 0 if verdict == VERIFIED else 1)


# parser construction --------------------------------------------------------

def _add_session(p):
    p.add_argument("session", help="path to a session file")


def _add_json(p):
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable record")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process, at the first call:
    building it costs far more than a parse, which leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="mcalc",
        description="Exact multiplicities, Koszul homology, and Groebner "
                    "bases over polynomial quotient rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gb", help="reduced Groebner basis of the quotient "
                                  "ideal plus optional generators")
    _add_session(p)
    p.add_argument("--gens", help="comma-separated extra generators")
    _add_json(p)
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser("dim", help="Krull dimension of the ring")
    _add_session(p)
    _add_json(p)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("length", help="length of the ring or a named module")
    _add_session(p)
    p.add_argument("--module", help="named module from the session")
    _add_json(p)
    p.set_defaults(func=cmd_length)

    p = sub.add_parser("mult", help="Hilbert-Samuel multiplicity")
    _add_session(p)
    p.add_argument("--params", required=True,
                   help="comma-separated ideal generators, or @name")
    p.add_argument("--r", type=int, default=None,
                   help="difference order (default: ring dimension)")
    p.add_argument("--module", help="named module from the session")
    _add_json(p)
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("koszul", help="Koszul homology lengths")
    _add_session(p)
    p.add_argument("--seq", required=True,
                   help="comma-separated sequence, or @name")
    p.add_argument("--degree", type=int, default=None,
                   help="single homological degree (default: all)")
    p.add_argument("--module", help="named module from the session")
    _add_json(p)
    p.set_defaults(func=cmd_koszul)

    verify = sub.add_parser("verify", help="run an identity verifier")
    vsub = verify.add_subparsers(dest="verb", required=True)

    p = vsub.add_parser("serre", help="multiplicity vs Koszul alternating sum")
    _add_session(p)
    p.add_argument("--seq", required=True)
    p.add_argument("--module")
    _add_json(p)
    p.set_defaults(func=cmd_verify_serre)

    p = vsub.add_parser("factor", help="concatenation vs iterated homology")
    _add_session(p)
    p.add_argument("--seq", required=True, help="outer sequence")
    p.add_argument("--seq2", required=True, help="inner sequence")
    p.add_argument("--module")
    _add_json(p)
    p.set_defaults(func=cmd_verify_factor)

    p = vsub.add_parser("vanish", help="nilpotent element forces a zero sum")
    _add_session(p)
    p.add_argument("--seq", required=True)
    p.add_argument("--index", type=int, required=True,
                   help="1-based position in the sequence")
    p.add_argument("--power", type=int, required=True,
                   help="exponent that kills the module")
    p.add_argument("--module")
    _add_json(p)
    p.set_defaults(func=cmd_verify_vanish)

    p = vsub.add_parser("ord", help="order-function additivity")
    _add_session(p)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    _add_json(p)
    p.set_defaults(func=cmd_verify_ord)

    p = vsub.add_parser("serre2", help="three multiplicity routes agree")
    _add_session(p)
    p.add_argument("--seq", required=True, help="first sequence (may be empty)")
    p.add_argument("--seq2", required=True, help="second sequence")
    p.add_argument("--module")
    _add_json(p)
    p.set_defaults(func=cmd_verify_serre2)

    p = vsub.add_parser("scenario", help="run registered scenarios")
    p.add_argument("--id", help="single scenario id")
    p.add_argument("--tag", choices=("lemma", "theorem", "example", "property"),
                   help="filter by tag")
    _add_json(p)
    p.set_defaults(func=cmd_verify_scenario)

    p = sub.add_parser("search", help="parameter sequence with multiplicity "
                                      "prime to a given number")
    _add_session(p)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--budget", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    _add_json(p)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except EngineError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
