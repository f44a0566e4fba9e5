"""End-to-end CLI behavior: output shapes, exit codes, determinism."""

import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from mcalc import fpmodules, groebner
from mcalc.cli import _VERIFIERS, main
from mcalc.parsing import MAX_NESTING

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "report-schema.json").read_text())

CONIC = """\
field = F2
vars = x, y
order = grevlex
quotient = [x^2 + x*y + y^2]
module M = rank 1 relations [[x]]
seq s = [x, y]
"""

PLANE = "field = Q\nvars = x, y\n"

EMBEDDED_POINT = ("field = Q\nvars = x, y\norder = grevlex\n"
                  "quotient = [x^2, x*y]\n")


@pytest.fixture
def conic(tmp_path):
    p = tmp_path / "conic.ring"
    p.write_text(CONIC, encoding="utf-8")
    return str(p)


@pytest.fixture
def plane(tmp_path):
    p = tmp_path / "plane.ring"
    p.write_text(PLANE, encoding="utf-8")
    return str(p)


def _json_run(capsys, argv):
    code = main(argv + ["--json"])
    record = json.loads(capsys.readouterr().out)
    jsonschema.validate(record, SCHEMA)
    return code, record


def test_readme_quick_start_transcript(tmp_path, capsys):
    """README's quick start, its session file and each `$ mcalc` line of the
    transcript under it, run through `main`: the output is the text under
    that line byte for byte, with nothing on stderr and exit 0."""
    blocks = re.findall(r"^```.*?\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.S | re.M)
    session = next(b for b in blocks if b.startswith("# cone.mc"))
    transcript = next(b for b in blocks if b.startswith("$ mcalc"))
    (tmp_path / "cone.mc").write_text(session, encoding="utf-8")
    runs = re.findall(r"^\$ mcalc (.*)\n((?:.+\n)*)", transcript, re.M)
    assert [shlex.split(argv)[0] for argv, _ in runs] == ["gb", "mult", "verify"]
    for argv, want in runs:
        code = main([str(tmp_path / a) if a == "cone.mc" else a for a in shlex.split(argv)])
        assert (code, capsys.readouterr()) == (0, (want, ""))


def test_gb_human_output(conic, capsys):
    assert main(["gb", conic, "--gens", "x"]) == 0
    out = capsys.readouterr().out
    assert "groebner basis (2 generators):" in out
    assert "  x" in out and "  y^2" in out


def test_gb_json_record(conic, capsys):
    code, record = _json_run(capsys, ["gb", conic, "--gens", "x"])
    assert code == 0
    assert record["command"] == "gb"
    assert record["result"] == ["x", "y^2"]
    assert record["certificate"] == {"count": 2, "unit_ideal": False}
    assert record["verdict"] is None
    assert record["session"].startswith("field = F2\n")


def test_dim(conic, capsys):
    code, record = _json_run(capsys, ["dim", conic])
    assert code == 0 and record["result"] == 1


def test_length_of_named_module(conic, capsys):
    code, record = _json_run(capsys, ["length", conic, "--module", "M"])
    assert code == 0 and record["result"] == 2


def test_length_infinite_encoding(plane, capsys):
    code, record = _json_run(capsys, ["length", plane])
    assert code == 0 and record["result"] == "INFINITE"


def test_mult_defaults_r_to_dimension(conic, capsys):
    code, record = _json_run(capsys, ["mult", conic, "--params", "x"])
    assert code == 0
    assert record["result"] == {"e": 2, "r": 1}
    assert record["certificate"]["length_table"][:3] == [2, 4, 6]


def _count_bases(monkeypatch):
    """The list of the arguments of every `_basis` call from now on."""
    calls = []
    for module in (groebner, fpmodules):
        def counted(*args, real=module._basis, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, "_basis", counted)
    return calls


def test_mult_builds_the_ring_basis_once(conic, capsys, monkeypatch):
    """`mult --params x` on the conic, with neither --module nor --r: the
    session's module M once when the session is read, the free module once
    for both the ring's dimension r and the multiplicity, A/xA once, and
    the two Rees bases, since ℓ(A/xA) = 2 is not ℓ(A/mA) = 1."""
    calls = _count_bases(monkeypatch)
    code, record = _json_run(capsys, ["mult", conic, "--params", "x"])
    assert code == 0 and record["result"] == {"e": 2, "r": 1}
    assert len(calls) == 5


def test_mult_defaults_r_to_the_module_dimension(tmp_path, capsys, monkeypatch):
    """With --module and no --r, r is M's dimension at the origin, read off
    the series that gives e: T = R/(x^2, y^3) has dimension 0, not the
    plane's 2, so e = ℓ(T) = 6. T when the session is read and T/mT are
    the only bases; no basis of the ring is built for its dimension."""
    p = tmp_path / "t.ring"
    p.write_text(PLANE + "module T = rank 1 relations [[x^2], [y^3]]\n", encoding="utf-8")
    calls = _count_bases(monkeypatch)
    code, record = _json_run(capsys, ["mult", str(p), "--params", "x, y", "--module", "T"])
    assert code == 0 and record["result"] == {"e": 6, "r": 0}
    assert record["certificate"]["length_table"] == [1, 3, 5, 6, 6, 6]
    assert len(calls) == 2


def test_mult_of_a_redundant_maximal_ideal_at_r_zero_builds_one_quotient(plane, capsys,
                                                                       monkeypatch):
    """m = (x, y, x + y) on the plane with --r 0: IM = mM, so the plane's
    own Hilbert series gives the dimension 2 > 0 at the origin, and `mult`
    exits 2 with NO_STABILIZATION after building M/IM alone."""
    calls = []
    real = fpmodules.FPModule.quotient_by_polys

    def counted(self, polys):
        calls.append(polys)
        return real(self, polys)
    monkeypatch.setattr(fpmodules.FPModule, "quotient_by_polys", counted)
    assert main(["mult", plane, "--params", "x, y, x + y", "--r", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: NO_STABILIZATION: ")
    assert len(calls) == 1


def test_mult_below_the_dimension_raises_after_a_fixed_count_of_bases(plane, capsys,
                                                                      monkeypatch):
    """(x^2, y^2, x^2 + x*y + y^2) on the plane with --r 0: the free module,
    M/IM and the two Rees bases, whose series gives the dimension 2 > 0 at
    the origin, and exit 2 with no table read."""
    calls = _count_bases(monkeypatch)
    assert main(["mult", plane, "--params", "x^2, y^2, x^2 + x*y + y^2", "--r", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: NO_STABILIZATION: ")
    assert len(calls) == 4


@pytest.mark.parametrize("quotient, table", [
    ("", [9000000, 27000000, 54000000, 90000000, 135000000]),
    ("quotient = [x*y]\n", [5999, 11999, 17999, 23999])])
def test_mult_of_large_pure_powers_reads_few_numerators(tmp_path, capsys, monkeypatch,
                                                        quotient, table):
    """(x^3000, y^3000) on the plane and on k[x,y]/(xy): IM is not mM, so
    the series of gr_I(M) is read, whose standard terms of T-degree 0 number
    9*10^6 and 5999. It takes a handful of Hilbert numerators, recursive
    calls included, however large the powers; more than 50 fail the test
    at once rather than run on."""
    calls = []
    real = groebner._hilbert_numerator

    def counted(gens):
        calls.append(gens)
        assert len(calls) <= 50, "Hilbert numerators grow with the powers"
        return real(gens)
    monkeypatch.setattr(groebner, "_hilbert_numerator", counted)
    ring = tmp_path / "r.ring"
    ring.write_text(PLANE + quotient, encoding="utf-8")
    code, record = _json_run(capsys, ["mult", str(ring), "--params", "x^3000, y^3000"])
    assert code == 0 and record["certificate"]["length_table"] == table
    assert len(calls) <= 10


def test_koszul_full_profile(conic, capsys):
    code, record = _json_run(capsys, ["koszul", conic, "--seq", "@s"])
    assert code == 0
    assert record["result"] == {"lengths": [1, 1, 0]}


def test_koszul_single_degree(conic, capsys):
    code, record = _json_run(capsys, ["koszul", conic, "--seq", "@s",
                                      "--degree", "1"])
    assert code == 0
    assert record["result"] == {"degree": 1, "length": 1}


def test_koszul_of_the_empty_sequence_is_the_module(conic, capsys):
    """K(∅; M) is M in degree 0, so `--seq ''` prints ℓ(M): 2 for M = A/(x)."""
    assert main(["koszul", conic, "--seq", "", "--module", "M"]) == 0
    assert capsys.readouterr().out == "H_0: length 2\n"


def test_verify_serre_plane(plane, capsys):
    assert main(["verify", "serre", plane, "--seq", "x,y"]) == 0
    out = capsys.readouterr().out
    assert "left: 1" in out and "right: 1" in out
    assert "verdict: VERIFIED" in out


def test_verify_serre_above_support_dimension(tmp_path, capsys):
    # k[x]/(x^10) has dimension 0, so e((x), M, 1) = 0 = 1 - 1
    p = tmp_path / "x10.ring"
    p.write_text("field = Q\nvars = x\nquotient = [x^10]\n", encoding="utf-8")
    code, record = _json_run(capsys, ["verify", "serre", str(p), "--seq", "x"])
    assert code == 0
    assert record["verdict"] == "VERIFIED"
    assert record["result"] == {"left": 0, "right": 0}


# On A = Q[x,y]/(x^3, y^3) the lengths l(A/m^n) are 1, 3, 6, 8, 9, 9, whose
# second differences settle at -1 before the table levels off; A has
# dimension 0 < 2, so e(m, A, 2) = 0.
ARTINIAN_XY3 = "field = Q\nvars = x, y\nquotient = [x^3, y^3]\n"


@pytest.fixture
def artinian_xy3(tmp_path):
    p = tmp_path / "artinian-xy3.ring"
    p.write_text(ARTINIAN_XY3, encoding="utf-8")
    return str(p)


def test_mult_above_the_support_dimension_after_negative_differences(artinian_xy3, capsys):
    code, record = _json_run(capsys, ["mult", artinian_xy3, "--params", "x, y", "--r", "2"])
    assert code == 0
    assert record["result"] == {"e": 0, "r": 2}
    assert record["certificate"]["length_table"] == [1, 3, 6, 8, 9, 9]


@pytest.mark.parametrize("argv, right", [
    (["serre", "--seq", "x, y"], 0),
    (["serre2", "--seq", "", "--seq2", "x, y"], [0, 0]),
])
def test_verify_above_the_support_dimension_after_negative_differences(artinian_xy3, capsys,
                                                                       argv, right):
    code, record = _json_run(capsys, ["verify", argv[0], artinian_xy3] + argv[1:])
    assert (code, record["verdict"]) == (0, "VERIFIED")
    assert record["result"]["right"] == right


def test_verify_factor(conic, capsys):
    code, record = _json_run(capsys, ["verify", "factor", conic,
                                      "--seq", "x", "--seq2", "y"])
    assert code == 0
    assert record["verdict"] == "VERIFIED"
    assert record["result"]["left"] == record["result"]["right"] == 0


def test_verify_vanish(tmp_path, capsys):
    p = tmp_path / "nilpotent.ring"
    p.write_text("field = Q\nvars = x, y\nquotient = [x^2]\n", encoding="utf-8")
    code, record = _json_run(capsys, ["verify", "vanish", str(p),
                                      "--seq", "x,y", "--index", "1",
                                      "--power", "2"])
    assert code == 0
    assert record["verdict"] == "VERIFIED"
    assert record["result"]["left"] == 0


def test_verify_ord(conic, capsys):
    code, record = _json_run(capsys, ["verify", "ord", conic,
                                      "--f", "x", "--g", "y"])
    assert code == 0
    assert record["result"] == {"left": 4, "right": 4}


def test_verify_serre2_with_empty_first_sequence(conic, capsys):
    code, record = _json_run(capsys, ["verify", "serre2", conic,
                                      "--seq", "", "--seq2", "x"])
    assert code == 0
    assert record["verdict"] == "VERIFIED"
    assert record["certificate"]["routes"] == [2, 2, 2]


def test_refuted_identity_exits_one(tmp_path, capsys):
    p = tmp_path / "embedded.ring"
    p.write_text(EMBEDDED_POINT, encoding="utf-8")
    code, record = _json_run(capsys, ["verify", "ord", str(p),
                                      "--f", "y", "--g", "y"])
    assert code == 1
    assert record["verdict"] == "REFUTED"
    assert record["result"] == {"left": 3, "right": 4}


def test_scenario_single(capsys):
    code, record = _json_run(capsys, ["verify", "scenario",
                                      "--id", "example-bad-length"])
    assert code == 0
    assert record["verdict"] == "VERIFIED"
    assert record["session"] is None


def test_scenario_tag_summary(capsys):
    assert main(["verify", "scenario", "--tag", "example"]) == 0
    out = capsys.readouterr().out
    assert "summary:" in out
    assert "0 refuted" in out


def test_search_exhausted(conic, capsys):
    code, record = _json_run(capsys, ["search", conic, "--prime", "2",
                                      "--budget", "30", "--seed", "7"])
    assert code == 0
    assert record["result"]["status"] == "EXHAUSTED"
    assert all(row["e"] % 2 == 0 for row in record["certificate"]["table"])


def test_search_found(conic, capsys):
    code, record = _json_run(capsys, ["search", conic, "--prime", "3",
                                      "--budget", "30", "--seed", "7"])
    assert code == 0
    assert record["result"]["status"] == "FOUND"
    assert record["result"]["ideal"] == ["x"]
    assert record["result"]["e"] == 2


def test_search_on_a_zero_dimensional_ring_tries_the_empty_sequence_once(tmp_path, capsys):
    p = tmp_path / "point.ring"
    p.write_text("field = F3\nvars = x, y\nquotient = [x^2, y^2]\n", encoding="utf-8")
    argv = ["search", str(p), "--prime", "2", "--budget", "3"]
    code, record = _json_run(capsys, argv)
    assert code == 0
    assert record["result"] == {"status": "EXHAUSTED", "ideal": [], "e": 0, "tried": 1}
    assert record["certificate"]["table"] == [{"ideal": [], "e": 4}]
    assert main(argv) == 0
    assert capsys.readouterr().out == "EXHAUSTED after 1 candidates\n  (): e = 4\n"


def test_search_with_a_negative_budget_tries_nothing(conic, capsys):
    """A budget below 0 cuts the candidate stream at 0, as a budget of 0
    does: no candidate, no error."""
    assert main(["search", conic, "--prime", "2", "--budget", "-1"]) == 0
    assert capsys.readouterr().out == "EXHAUSTED after 0 candidates\n"


def test_json_output_is_byte_identical(conic, capsys):
    argv = ["search", conic, "--prime", "2", "--budget", "25",
            "--seed", "11", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_missing_file_exits_two(capsys):
    assert main(["dim", "/no/such/file.ring"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_engine_error_surfaces_code(conic, capsys):
    # y does not annihilate M = A/(x), so the vanishing hypothesis fails
    code = main(["verify", "vanish", conic, "--seq", "x,y",
                 "--index", "2", "--power", "1", "--module", "M"])
    assert code == 2
    err = capsys.readouterr().err
    assert "HYPOTHESIS_FAILS" in err


def test_parse_error_exits_two(conic, capsys):
    assert main(["length", conic, "--module", "missing"]) == 2
    assert "PARSE_ERROR" in capsys.readouterr().err


# (command words, flags after the session path) of each command that reads a
# module name and a sequence flag: mult, koszul and every verb of the verify
# table
SEQUENCE_READERS = {
    "mult": (["mult"], ["--params", "x"]),
    "koszul": (["koszul"], ["--seq", "x"]),
    "verify serre": (["verify", "serre"], ["--seq", "x"]),
    "verify factor": (["verify", "factor"], ["--seq", "x", "--seq2", "y"]),
    "verify vanish": (["verify", "vanish"], ["--seq", "x", "--index", "1", "--power", "1"]),
    "verify serre2": (["verify", "serre2"], ["--seq", "x", "--seq2", "y"]),
}


def test_sequence_readers_cover_the_verify_table():
    assert {f"verify {verb}" for verb in _VERIFIERS} <= set(SEQUENCE_READERS)


@pytest.mark.parametrize("command", sorted(SEQUENCE_READERS))
def test_unknown_module_exits_two(conic, capsys, command):
    words, flags = SEQUENCE_READERS[command]
    err = _coded_exit(capsys, words + [conic] + flags + ["--module", "N"], "PARSE_ERROR")
    assert "unknown module 'N' in session" in err


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in sorted(SEQUENCE_READERS)
    for flag in SEQUENCE_READERS[command][1] if flag in ("--params", "--seq", "--seq2")])
def test_unknown_sequence_exits_two(conic, capsys, command, flag):
    words, flags = SEQUENCE_READERS[command]
    flags = list(flags)
    flags[flags.index(flag) + 1] = "@nope"
    err = _coded_exit(capsys, words + [conic] + flags, "PARSE_ERROR")
    assert "unknown sequence 'nope' in session" in err


def test_session_that_is_not_utf8_exits_two(tmp_path, capsys):
    p = tmp_path / "binary.ring"
    p.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(256)))
    err = _coded_exit(capsys, ["dim", str(p)], "PARSE_ERROR")
    assert "not UTF-8: byte 0x80 at offset 136 (line 2)" in err
    p.write_bytes(CONIC.encode() + b"seq u = [x\xff]\n")
    err = _coded_exit(capsys, ["dim", str(p)], "PARSE_ERROR")
    assert "(line 7)" in err


def test_bad_field_session_exits_two(tmp_path, capsys):
    p = tmp_path / "bad.ring"
    p.write_text("field = F4\nvars = x\n", encoding="utf-8")
    assert main(["dim", str(p)]) == 2
    assert "BAD_CHARACTERISTIC" in capsys.readouterr().err


def test_usage_error_exits_two(capsys):
    assert main([]) == 2
    assert main(["mult"]) == 2
    capsys.readouterr()


def _coded_exit(capsys, argv, code):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {code}: ")
    assert "Traceback" not in err
    return err


def test_koszul_degree_out_of_range_exits_two(plane, capsys):
    _coded_exit(capsys, ["koszul", plane, "--seq", "x, y", "--degree", "5"],
                "OUT_OF_RANGE")


def test_negative_difference_order_exits_two(plane, capsys):
    _coded_exit(capsys, ["mult", plane, "--params", "x, y", "--r", "-1"],
                "OUT_OF_RANGE")


def test_vanish_index_out_of_range_exits_two(tmp_path, capsys):
    p = tmp_path / "nilpotent.ring"
    p.write_text("field = Q\nvars = x, y\nquotient = [x^2]\n", encoding="utf-8")
    _coded_exit(capsys, ["verify", "vanish", str(p), "--seq", "x",
                         "--index", "3", "--power", "2"], "OUT_OF_RANGE")


@pytest.mark.parametrize("split", [5, 0])
def test_block_split_outside_variables_exits_two(tmp_path, capsys, split):
    p = tmp_path / "block.ring"
    p.write_text(f"field = Q\nvars = x, y\norder = block({split})\n", encoding="utf-8")
    _coded_exit(capsys, ["dim", str(p)], "BAD_ORDER")


@pytest.mark.parametrize("session, message", [
    # an input exponent at the cap
    ("field = Q\nvars = x, y\nquotient = [x^2147483648]\n", "not below the cap 2^31"),
    # inputs under the cap, but reducing x^2 by x - y^N reaches y^(2N)
    ("field = Q\nvars = x, y\norder = lex\nquotient = [x - y^1500000000, x^2]\n",
     "exponent of 2^31 or more"),
])
def test_exponents_past_the_cap_exit_two(tmp_path, capsys, session, message):
    """Exponents are capped below 2^31: past it the run stops with a coded
    error, never with a wrong basis, and fast."""
    p = tmp_path / "huge.ring"
    p.write_text(session, encoding="utf-8")
    for command in ("gb", "dim"):
        assert message in _coded_exit(capsys, [command, str(p)], "EXPONENT_TOO_LARGE")


def test_signature_past_the_cap_exits_two(tmp_path, capsys):
    """x^N and x*y^N - 1, N = 2^30, generate the unit ideal, but their
    basis steps the power of x down by one per S-pair. The signatures, the
    cofactors of those steps, pass 2^31 within a few pairs, though no term
    does: the run stops with a coded error, fast, and no traceback."""
    p = tmp_path / "plane.ring"
    p.write_text("field = Q\nvars = x, y\n", encoding="utf-8")
    err = _coded_exit(capsys, ["gb", str(p), "--gens", "x^1073741824, x*y^1073741824 - 1"],
                      "EXPONENT_TOO_LARGE")
    assert "a signature of the computation has an exponent of 2^31 or more" in err


@pytest.mark.parametrize("command", [["dim"], ["length"], ["koszul", "--seq", "x"], ["gb"],
                                     ["mult", "--params", "x,y"]],
                         ids=["dim", "length", "koszul", "gb", "mult"])
def test_coefficient_too_long_to_print_exits_two(tmp_path, capsys, command):
    """2^15000 has 4516 digits, past the 4300 that Python prints: every
    print path stops with a coded error, not a traceback."""
    p = tmp_path / "wide.ring"
    p.write_text("field = Q\nvars = x, y\nquotient = [(2*x)^15000]\n", encoding="utf-8")
    _coded_exit(capsys, command[:1] + [str(p)] + command[1:], "COEFFICIENT_TOO_LARGE")


@pytest.mark.parametrize("session, command, out", [
    # 2^14000 has 4215 digits, within the limit
    ("field = Q\nvars = x, y\nquotient = [(2*x)^14000]\n", "dim", "krull dimension: 1"),
    ("field = Q\nvars = x, y\nquotient = [x^1000000000]\n", "dim", "krull dimension: 1"),
    ("field = F7\nvars = x\nquotient = [x^3000000]\n", "length", "length: 3000000"),
], ids=["wide-coefficient", "dim-huge-power", "length-huge-power"])
def test_large_inputs_answer(tmp_path, capsys, session, command, out):
    """Dimension and length come from the Hilbert series of the leads, so a
    huge pure power costs no enumeration."""
    p = tmp_path / "large.ring"
    p.write_text(session, encoding="utf-8")
    assert main([command, str(p)]) == 0
    assert capsys.readouterr().out.strip() == out


@pytest.mark.parametrize("header", ["field = F5(t)\nvars = t, y\n",
                                    "field = Q\nvars = x, x\n",
                                    "field = Q\nvars = x, if\n"])
def test_bad_variable_list_exits_two(tmp_path, capsys, header):
    p = tmp_path / "vars.ring"
    p.write_text(header, encoding="utf-8")
    err = _coded_exit(capsys, ["dim", str(p)], "PARSE_ERROR")
    assert "(line 2, column 1)" in err


@pytest.mark.parametrize("field, generator", [("Q", "x + 1"), ("F5", "x + 1"),
                                              ("F5(t)", "x + t")],
                         ids=["Q", "F5", "F5(t)"])
def test_quotient_with_constant_term_exits_two(tmp_path, capsys, field, generator):
    p = tmp_path / "unit.ring"
    p.write_text(f"field = {field}\nvars = x, y\nquotient = [{generator}]\n", encoding="utf-8")
    _coded_exit(capsys, ["dim", str(p)], "QUOTIENT_NOT_AT_ORIGIN")


def test_quotient_vanishing_at_origin_over_function_field_is_accepted(tmp_path, capsys):
    # the raw zero of F5(t) is not the int 0, so the check must ask the field
    p = tmp_path / "cone.ring"
    p.write_text("field = F5(t)\nvars = x, y\nquotient = [x^2 + t*y]\n", encoding="utf-8")
    assert main(["dim", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "krull dimension: 1"


def test_length_supported_away_from_the_origin_exits_two(tmp_path, capsys):
    # k[x]/(x^2 - x) is k x k: length 2 globally, 1 at the origin
    p = tmp_path / "idempotent.ring"
    p.write_text("field = Q\nvars = x\nquotient = [x^2 - x]\n", encoding="utf-8")
    _coded_exit(capsys, ["length", str(p)], "SUPPORT_NOT_AT_ORIGIN")
    assert main(["length", str(p), "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: SUPPORT_NOT_AT_ORIGIN: ")


IDEMPOTENT_PLANE = "field = Q\nvars = x, y\nquotient = [x^2 - x]\n"
LINE = "field = Q\nvars = x\n"


# Each homology length is finite but counts a point away from the origin:
# k[x,y]/(x^2 - x, y) is k x k with one point at x = 1, and x - 1 is a unit
# at the origin of k[x], where k[x]/(x - 1) has its one point at x = 1.
@pytest.mark.parametrize("session, command, options", [
    (IDEMPOTENT_PLANE, ["koszul"], ["--seq", "y"]),
    (IDEMPOTENT_PLANE, ["koszul"], ["--seq", "y", "--degree", "0", "--json"]),
    (LINE, ["koszul"], ["--seq", "x - 1", "--json"]),
    (LINE, ["koszul"], ["--seq", "x - 1", "--degree", "0"]),
    (IDEMPOTENT_PLANE, ["verify", "factor"], ["--seq", "y", "--seq2", "x - 1"]),
], ids=["koszul", "koszul-degree-json", "koszul-unit-json", "koszul-unit-degree",
        "verify-factor"])
def test_homology_supported_away_from_the_origin_exits_two(tmp_path, capsys, session,
                                                            command, options):
    p = tmp_path / "away.ring"
    p.write_text(session, encoding="utf-8")
    assert main(command + [str(p)] + options) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: SUPPORT_NOT_AT_ORIGIN: ")


def test_python_dash_m_runs_the_cli():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "mcalc", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: mcalc")


def test_output_does_not_depend_on_the_hash_seed(conic):
    """Each process hashes strings with its own seed, so dict and set order
    may differ between processes; the printed records must not."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    commands = [["koszul", conic, "--seq", "@s", "--json"],
                ["search", conic, "--prime", "2", "--budget", "15", "--seed", "11", "--json"],
                ["verify", "scenario", "--json"]]
    runs = {}
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        runs[seed] = [subprocess.run([sys.executable, "-m", "mcalc"] + argv, env=env,
                                     capture_output=True, timeout=120)
                      for argv in commands]
    for one, two in zip(runs["1"], runs["2"]):
        assert one.returncode == two.returncode == 0, one.stderr
        assert one.stdout and one.stdout == two.stdout


# Plateaus of the Hilbert-Samuel function, where three equal differences
# come before the table settles, pinned with their true values. On A =
# Q[x,y]/(x^2, x*y^4) the lengths l(A/y^n A) are 2, 4, 6, 8, 9, 10, 11, ...,
# so e((y), A) = 1, which is also the Koszul side 2 - 1 of Serre's formula;
# the series of gr_(y)(A) certifies it. On Q[x,y]/(x^2, x*y^3) the Hilbert
# function is 1, 2, 2, 2, 1, 1, ..., so e(m, A) = 1: that m-adic table is
# graded, and A's own Hilbert series certifies e.
PLATEAU_Y4 = "field = Q\nvars = x, y\nquotient = [x^2, x*y^4]\n"
PLATEAU_Y3 = "field = Q\nvars = x, y\nquotient = [x^2, x*y^3]\n"


@pytest.fixture
def plateau_y4(tmp_path):
    p = tmp_path / "plateau-y4.ring"
    p.write_text(PLATEAU_Y4, encoding="utf-8")
    return str(p)


def test_multiplicity_past_a_plateau(plateau_y4, capsys):
    code, record = _json_run(capsys, ["mult", plateau_y4, "--params", "y"])
    assert code == 0
    assert record["result"]["e"] == 1
    assert record["certificate"]["length_table"] == [2, 4, 6, 8, 9, 10, 11]


def test_serre_verified_past_a_plateau(plateau_y4, capsys):
    code, record = _json_run(capsys, ["verify", "serre", plateau_y4, "--seq", "y"])
    assert (code, record["verdict"]) == (0, "VERIFIED")
    assert record["result"] == {"left": 1, "right": 1}


def test_search_finds_a_parameter_past_a_plateau(plateau_y4, capsys):
    code, record = _json_run(capsys, ["search", plateau_y4, "--prime", "2",
                                      "--budget", "5"])
    assert code == 0
    assert record["result"]["status"] == "FOUND"
    assert record["result"]["ideal"] == ["y"]
    assert record["result"]["e"] == 1


def test_maximal_ideal_multiplicity_past_a_plateau(tmp_path, capsys):
    p = tmp_path / "plateau-y3.ring"
    p.write_text(PLATEAU_Y3, encoding="utf-8")
    code, record = _json_run(capsys, ["mult", str(p), "--params", "x, y"])
    assert code == 0
    assert record["result"]["e"] == 1
    assert record["certificate"]["length_table"] == [1, 3, 5, 7, 8, 9, 10]


# Serre's formula holds on every Artinian module: e = 0 because r > 0 = dim,
# and the Koszul alternating sum of a finite-length module is 0. So on the
# quotients drawn here `verify serre` must answer VERIFIED with exit 0.
_SERRE_ELEMENTS = ["x", "y", "x + y", "x^2", "x*y"]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(["Q", "F2"]), a=st.integers(1, 5), b=st.integers(1, 5),
       mixed=st.none() | st.tuples(st.integers(1, 4), st.integers(1, 4)),
       seq=st.lists(st.sampled_from(_SERRE_ELEMENTS), min_size=1, max_size=2))
@example(field="Q", a=3, b=3, mixed=None, seq=["x", "y"])
def test_serre_holds_on_artinian_monomial_quotients(tmp_path, capsys, field, a, b, mixed, seq):
    gens = [f"x^{a}", f"y^{b}"] + ([f"x^{mixed[0]}*y^{mixed[1]}"] if mixed else [])
    p = tmp_path / "artinian.ring"
    p.write_text(f"field = {field}\nvars = x, y\nquotient = [{', '.join(gens)}]\n",
                 encoding="utf-8")
    code = main(["verify", "serre", str(p), "--seq", ", ".join(seq)])
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert code == 0, err
    assert "verdict: VERIFIED" in out


# The front end: whatever the text of a generator list or a quotient line,
# the answer is exit 0, or exit 2 with a coded error, never a traceback, and
# exit 1 stays reserved for REFUTED. Nesting past MAX_NESTING levels of '('
# and unary '-' is a PARSE_ERROR, found at once, not a RecursionError.
_DEEP = "(" * 250 + "x" + ")" * 250


@pytest.mark.parametrize("session, argv", [
    (PLANE, ["gb", "--gens", _DEEP]),
    (PLANE + f"quotient = [{_DEEP}]\n", ["dim"]),
    (PLANE, ["gb", "--gens=" + "-" * 1000 + "x"]),
])
def test_deep_nesting_exits_two(tmp_path, capsys, session, argv):
    p = tmp_path / "deep.ring"
    p.write_text(session, encoding="utf-8")
    start = time.perf_counter()
    err = _coded_exit(capsys, argv[:1] + [str(p)] + argv[1:], "PARSE_ERROR")
    assert time.perf_counter() - start < 1.0
    assert f"nesting deeper than {MAX_NESTING} levels" in err


_FRONT_TOKENS = ["x", "y", "0", "1", "2", "3", "+", "-", "*", "/", "^", "(", ")", "[", "]",
                 ",", "(" * (MAX_NESTING + 1), "-" * (MAX_NESTING + 1)]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(["Q", "F7"]),
       tokens=st.lists(st.sampled_from(_FRONT_TOKENS), max_size=15))
def test_front_end_exits_zero_or_two(tmp_path, capsys, field, tokens):
    text = " ".join(tokens)
    p = tmp_path / "front.ring"
    header = f"field = {field}\nvars = x, y\n"
    for session, argv in ((header, ["gb", str(p), "--gens=" + text]),
                          (header + f"quotient = [{text}]\n", ["gb", str(p)])):
        p.write_text(session, encoding="utf-8")
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2), err
        assert "Traceback" not in err
        if code == 2:
            assert re.match(r"error: [A-Z_]+: ", err), err


# Q[x,y]/(x*y - x, y^2 - y) is the origin plus the line y = 1, so its local
# ring at the origin is k, of dimension 0 and multiplicity 1. Both commands
# below read the global dimension 1 instead.
GLOBAL_DIMENSION_ONE = "field = Q\nvars = x, y\nquotient = [x*y - x, y^2 - y]\n"


@pytest.fixture
def point_and_line(tmp_path):
    p = tmp_path / "point-and-line.ring"
    p.write_text(GLOBAL_DIMENSION_ONE, encoding="utf-8")
    return str(p)


def test_mult_defaults_r_to_the_local_dimension(point_and_line, capsys):
    code, record = _json_run(capsys, ["mult", point_and_line, "--params", "x, y"])
    assert code == 0
    assert record["result"] == {"e": 1, "r": 0}


@pytest.mark.xfail(strict=True, reason="search draws candidates of the global dimension's "
                                       "length 1 and never tries the empty system")
def test_search_tries_the_empty_system_at_local_dimension_zero(point_and_line, capsys):
    code, record = _json_run(capsys, ["search", point_and_line, "--prime", "2",
                                      "--budget", "6"])
    assert code == 0
    assert (record["result"]["status"], record["result"]["ideal"],
            record["result"]["e"]) == ("FOUND", [], 1)
