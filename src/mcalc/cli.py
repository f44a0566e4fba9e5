"""Command line front end.

Subcommands compute Groebner bases, dimensions, lengths, multiplicities, and
Koszul homology over a ring described by a session file, run the identity
verifiers, and search for parameter sequences. `--json` switches to a
machine record {command, session, inputs, result, certificate, verdict};
output is deterministic for fixed inputs and seeds.

`--module NAME` and the sequence flags (`@name` or a comma list) are read by
`SessionData.module` and `SessionData.sequence`. The verbs that run a
verifier on a module and sequences, `verify serre`, `factor`, `vanish` and
`serre2`, share one handler and are built from one table, `_VERIFIERS`;
`verify ord` takes a ring and two polynomials instead.

Exit codes: 0 success or VERIFIED, 1 REFUTED, 2 usage or engine errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import EngineError
from .groebner import buchberger, krull_dimension
from .koszul import koszul_homology
from .multiplicity import (REFUTED, VERIFIED, _jsonable, _verdict,
                           multiplicity_data, ord_check, search_parameters,
                           verify_factorization, verify_serre, verify_serre2,
                           verify_vanish)
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


def _emit_report(args, command, session_text, inputs, rep):
    left, right = _jsonable(rep.left), _jsonable(rep.right)
    record = _record(command, session_text, inputs, {"left": left, "right": right},
                     dict(rep.certificate, claim=rep.claim), rep.verdict)
    lines = [f"claim: {rep.claim}", f"left: {left}", f"right: {right}",
             f"verdict: {rep.verdict}"]
    return _emit(args, record, lines, 0 if rep.verdict == VERIFIED else 1)


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
    M = session.module(args.module)
    l = M.local_length()
    record = _record("length", text, {"module": args.module}, l, {}, None)
    return _emit(args, record, [f"length: {_jsonable(l)}"], 0)


def cmd_mult(args):
    session, text = _load(args)
    ring = session.ring
    M = session.module(args.module)
    params = session.sequence(args.params)
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
    M = session.module(args.module)
    seq = session.sequence(args.seq)
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


_SEQ = "comma-separated sequence, or @name"

# verb -> (verifier, help, {flag: help}). The verifier takes the module, then
# one argument per flag in order: a flag named seq* gives a sequence, any
# other an int. Each verb also takes --module.
_VERIFIERS = {
    "serre": (verify_serre, "multiplicity vs Koszul alternating sum",
              {"seq": _SEQ}),
    "factor": (verify_factorization, "concatenation vs iterated homology",
               {"seq": "outer sequence", "seq2": "inner sequence"}),
    "vanish": (verify_vanish, "nilpotent element forces a zero sum",
               {"seq": _SEQ, "index": "1-based position in the sequence",
                "power": "exponent that kills the module"}),
    "serre2": (verify_serre2, "three multiplicity routes agree",
               {"seq": "first sequence (may be empty)", "seq2": "second sequence"}),
}


def cmd_verify(args):
    session, text = _load(args)
    verifier, _, flags = _VERIFIERS[args.verb]
    M = session.module(args.module)
    inputs = {flag: getattr(args, flag) for flag in flags}
    rep = verifier(M, *(session.sequence(v) if flag.startswith("seq") else v
                        for flag, v in inputs.items()))
    inputs["module"] = args.module
    return _emit_report(args, f"verify {args.verb}", text, inputs, rep)


def cmd_verify_ord(args):
    session, text = _load(args)
    ring = session.ring
    f = parse_polynomial(ring, args.f)
    g = parse_polynomial(ring, args.g)
    rep = ord_check(ring, f, g)
    return _emit_report(args, "verify ord", text,
                        {"f": args.f, "g": args.g}, rep)


def cmd_verify_scenario(args):
    inputs = {"id": args.id, "tag": args.tag}
    if args.id is not None:
        rep = run_scenario(args.id)
        return _emit_report(args, "verify scenario", None, inputs, rep)
    results, counts = run_all(args.tag)
    rows = [{"id": sid, "verdict": rep.verdict,
             "left": _jsonable(rep.left), "right": _jsonable(rep.right)}
            for sid, rep in results]
    verdict = _verdict(all(r["verdict"] == VERIFIED for r in rows))
    record = _record("verify scenario", None, inputs,
                     {"counts": counts, "reports": rows},
                     {"reports": [dict(rep.to_dict(), id=sid)
                                  for sid, rep in results]}, verdict)
    width = max((len(r["id"]) for r in rows), default=0)
    lines = [f"{r['id']:<{width}}  {r['verdict']}" for r in rows]
    lines.append(f"summary: {counts[VERIFIED]} verified, "
                 f"{counts[REFUTED]} refuted of {len(rows)}")
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
    p.add_argument("--seq", required=True, help=_SEQ)
    p.add_argument("--degree", type=int, default=None,
                   help="single homological degree (default: all)")
    p.add_argument("--module", help="named module from the session")
    _add_json(p)
    p.set_defaults(func=cmd_koszul)

    verify = sub.add_parser("verify", help="run an identity verifier")
    vsub = verify.add_subparsers(dest="verb", required=True)

    for verb, (_, help_text, flags) in _VERIFIERS.items():
        p = vsub.add_parser(verb, help=help_text)
        _add_session(p)
        for flag, flag_help in flags.items():
            p.add_argument(f"--{flag}", required=True, help=flag_help,
                           type=str if flag.startswith("seq") else int)
        p.add_argument("--module", help="named module from the session")
        _add_json(p)
        p.set_defaults(func=cmd_verify)

    p = vsub.add_parser("ord", help="order-function additivity")
    _add_session(p)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    _add_json(p)
    p.set_defaults(func=cmd_verify_ord)

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
