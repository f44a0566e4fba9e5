"""End-to-end CLI behavior: output shapes, exit codes, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from mcalc.cli import _VERIFIERS, main

SCHEMA = json.loads((pathlib.Path(__file__).resolve().parent.parent
                     / "docs" / "report-schema.json").read_text())

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


def test_koszul_full_profile(conic, capsys):
    code, record = _json_run(capsys, ["koszul", conic, "--seq", "@s"])
    assert code == 0
    assert record["result"] == {"lengths": [1, 1, 0]}


def test_koszul_single_degree(conic, capsys):
    code, record = _json_run(capsys, ["koszul", conic, "--seq", "@s",
                                      "--degree", "1"])
    assert code == 0
    assert record["result"] == {"degree": 1, "length": 1}


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


# Wrong answers of the three-equal-differences stopping rule, pinned with
# their true values: the Hilbert-Samuel function of these rings has a
# plateau, and the rule stops on it. On A = Q[x,y]/(x^2, x*y^4) the lengths
# l(A/y^n A) are 2, 4, 6, 8, 9, 10, 11, ..., so e((y), A) = 1, which is also
# the Koszul side 2 - 1 of Serre's formula; on Q[x,y]/(x^2, x*y^3) the
# Hilbert function is 1, 2, 2, 2, 1, 1, ..., so e(m, A) = 1.
PLATEAU_Y4 = "field = Q\nvars = x, y\nquotient = [x^2, x*y^4]\n"
PLATEAU_Y3 = "field = Q\nvars = x, y\nquotient = [x^2, x*y^3]\n"
PLATEAU = pytest.mark.xfail(strict=True, raises=AssertionError,
                            reason="the stopping rule stops on a plateau of the "
                                   "Hilbert function and prints e = 2")


@pytest.fixture
def plateau_y4(tmp_path):
    p = tmp_path / "plateau-y4.ring"
    p.write_text(PLATEAU_Y4, encoding="utf-8")
    return str(p)


@PLATEAU
def test_multiplicity_past_a_plateau(plateau_y4, capsys):
    code, record = _json_run(capsys, ["mult", plateau_y4, "--params", "y"])
    assert code == 0
    assert record["result"]["e"] == 1


@PLATEAU
def test_serre_verified_past_a_plateau(plateau_y4, capsys):
    code, record = _json_run(capsys, ["verify", "serre", plateau_y4, "--seq", "y"])
    assert (code, record["verdict"]) == (0, "VERIFIED")
    assert record["result"] == {"left": 1, "right": 1}


@PLATEAU
def test_search_finds_a_parameter_past_a_plateau(plateau_y4, capsys):
    code, record = _json_run(capsys, ["search", plateau_y4, "--prime", "2",
                                      "--budget", "5"])
    assert code == 0
    assert record["result"]["status"] == "FOUND"
    assert record["result"]["ideal"] == ["y"]
    assert record["result"]["e"] == 1


@PLATEAU
def test_maximal_ideal_multiplicity_past_a_plateau(tmp_path, capsys):
    p = tmp_path / "plateau-y3.ring"
    p.write_text(PLATEAU_Y3, encoding="utf-8")
    code, record = _json_run(capsys, ["mult", str(p), "--params", "x, y"])
    assert code == 0
    assert record["result"]["e"] == 1
