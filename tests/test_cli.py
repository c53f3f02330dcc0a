import json
import os
import subprocess
import sys

import pytest

import alphafrac
from alphafrac.cli import main
from alphafrac.datasets import EXAMPLE_NAMES, example
from alphafrac.serialize import canonical_dumps

from conftest import (
    DEGENERATE_EXPAND,
    PURE_N3_EXPANSION_JSON,
    PURE_N3_TRIPLE_JSON,
    SECT4_ALPHA_JSON,
    SECT4_EXPANSION_JSON,
    SECT4_INPUT,
    SECT4_JACOBI_JSON,
    SECT4_R_JSON,
    SECT4_TRIPLE_JSON,
    run_cli,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

# The seven golden requests, golden name -> (argv, stdin payload or None).
GOLDENS = {
    **{name: (["example", "--name", name], None) for name in EXAMPLE_NAMES},
    # N = 5 with zero b_i: 168 elements, 72 skipped edges, and pairs of one
    # shift order whose branch-1 element sorts first as well as pairs whose
    # branch-0 element does.
    "orbit-n5": (["orbit"], {
        "b0": "1/2", "block": ["0", "-1", "4", "-1", "-2"],
        "alpha": ["1", "3", "2", "-4", "-1"]}),
    # A complete N = 5 orbit: 240 elements, no skipped edge, a b_i of 0
    # that is never a pivot, and 48 of 120 shift orders whose branch-1
    # element sorts first.
    "orbit-n5-complete": (["orbit"], {
        "b0": "3", "block": ["1", "5/2", "-3/2", "-3/2", "2"],
        "alpha": ["5", "-3", "-1", "2", "-4"]}),
    # B + 1: passing texts for A, C and the determinant, a failing B.
    "verify-sect4": (["verify"], {
        "expansion": SECT4_EXPANSION_JSON,
        "triple": dict(SECT4_TRIPLE_JSON, B=["9/2", "-3/2"])}),
}


def golden_bytes(name):
    with open(os.path.join(GOLDEN_DIR, name + ".json"), "rb") as fh:
        return fh.read()


def run(args, payload=None, stdin_text=None):
    """run_cli on the payload as JSON; returns (exit_code, stdout_obj,
    stderr_text)."""
    if payload is not None:
        stdin_text = json.dumps(payload)
    code, out, err = run_cli(args, stdin_text)
    return code, json.loads(out) if out else None, err


def check_golden(name):
    """The golden request run in-process prints the golden file's bytes."""
    argv, payload = GOLDENS[name]
    code, out, _ = run_cli(argv, None if payload is None
                           else json.dumps(payload))
    assert code == 0
    assert out.encode() == golden_bytes(name)


@pytest.mark.parametrize("seed", ["0", "1", "random"])
@pytest.mark.parametrize("name", GOLDENS)
def test_golden_bytes_in_a_child(name, seed):
    # The entry point as a user runs it, with warnings as errors; output
    # that followed set or dict hash order would differ between seeds.
    argv, payload = GOLDENS[name]
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.path.dirname(os.path.dirname(alphafrac.__file__)))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "alphafrac.cli", *argv],
        input=b"" if payload is None else json.dumps(payload).encode(),
        capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == golden_bytes(name)


class TestExpandCommand:
    def test_sect4(self):
        code, out, _ = run(["expand"], SECT4_INPUT)
        assert code == 0
        assert out == [
            SECT4_EXPANSION_JSON,
            {"b0": "-1/5", "block": ["-5/2", "6/5", "3/10"],
             "alpha": SECT4_ALPHA_JSON},
        ]

    @pytest.mark.parametrize("name", DEGENERATE_EXPAND)
    def test_degenerate_branch(self, name):
        # The branch that exists is printed next to the other's error
        # record, exit 0; with neither, the plus branch's record, exit 1.
        payload, code, want = DEGENERATE_EXPAND[name]
        got = run(["expand"], payload)
        assert got == ((1, None, canonical_dumps(want)) if code
                       else (0, want, ""))

    def test_file_io(self, tmp_path):
        inp = tmp_path / "in.json"
        outp = tmp_path / "out.json"
        inp.write_text(json.dumps(SECT4_INPUT))
        code = main(["expand", "--input", str(inp), "--output", str(outp)])
        assert code == 0
        assert json.loads(outp.read_text())[0] == SECT4_EXPANSION_JSON

    def test_domain_error(self):
        bad = dict(SECT4_INPUT, alpha=["1", "2", "5"])
        code, out, err = run(["expand"], bad)
        assert code == 1
        assert out is None
        assert json.loads(err)["error"] == "NotAdmissible"

    def test_malformed_json(self):
        code, out, err = run(["expand"], stdin_text="{nope")
        assert code == 2
        assert json.loads(err)["error"] == "MalformedInput"

    def test_missing_key(self):
        code, _, err = run(["expand"], {"A": ["1"]})
        assert code == 2
        assert json.loads(err)["error"] == "MalformedInput"

    def test_alpha_string_rejected(self):
        code, out, err = run(["expand"], dict(SECT4_INPUT, alpha="134"))
        assert (code, out) == (2, None)
        assert json.loads(err)["error"] == "MalformedInput"

    @pytest.mark.parametrize("b0", ["1/0", "1.5", "1e400", True])
    def test_bad_rational_rejected(self, b0):
        code, out, err = run(["triple"], dict(SECT4_EXPANSION_JSON, b0=b0))
        assert (code, out) == (2, None)
        assert json.loads(err)["error"] == "MalformedInput"

    def test_deeply_nested_json(self, tmp_path):
        inp = tmp_path / "nested.json"
        inp.write_text("[" * 100_000)
        code, out, err = run(["expand", "-i", str(inp)])
        assert (code, out) == (2, None)
        assert json.loads(err)["error"] == "MalformedInput"

    def test_long_value_gives_short_record(self):
        code, out, err = run(["triple"],
                             dict(SECT4_EXPANSION_JSON, b0="x" * 10 ** 6))
        assert (code, out) == (2, None)
        assert json.loads(err)["error"] == "MalformedInput"
        assert len(err.encode()) < 1024

    @pytest.mark.parametrize("command, payload, message", [
        ("expand", dict(SECT4_INPUT, A=["-6", "2"]),
         "A must be monic of degree g"),
        ("jacobi-to-divisor", dict(SECT4_JACOBI_JSON, U=["-6", "2"]),
         "U must be monic"),
        ("triple", dict(SECT4_EXPANSION_JSON, block=["-3", "1"]),
         "block length must equal the period N"),
    ])
    def test_constructor_check_gives_one_record(self, command, payload,
                                                message):
        code, out, err = run([command], payload)
        assert (code, out) == (2, None)
        assert json.loads(err) == {"error": "MalformedInput",
                                   "detail": message}

    def test_missing_output_dir(self, tmp_path):
        outp = tmp_path / "no-such-dir" / "out.json"
        code, out, err = run(["expand", "--output", str(outp)], SECT4_INPUT)
        assert (code, out) == (2, None)
        assert json.loads(err)["error"] == "MalformedInput"
        assert not outp.exists()


class TestTriplePipeline:
    def test_triple_then_expand_round_trips(self):
        code, triple_out, _ = run(["triple"], SECT4_EXPANSION_JSON)
        assert code == 0
        assert triple_out["A"] == SECT4_TRIPLE_JSON["A"]
        assert triple_out["T"] == ["-7/2", "1/2"]
        code, expansions, _ = run(["expand"], triple_out)
        assert code == 0
        assert SECT4_EXPANSION_JSON in expansions


class TestOtherCommands:
    def test_admissible(self):
        payload = {"R": SECT4_R_JSON, "alpha": SECT4_ALPHA_JSON}
        code, out, _ = run(["admissible"], payload)
        assert code == 0
        assert out == {"S": ["-7/2", "1/2"]}

    def test_act(self):
        code, out, _ = run(
            ["act", "--word", '["sigma:2"]'], SECT4_EXPANSION_JSON)
        assert code == 0
        assert out == {"b0": "1", "block": ["-2", "1", "2"],
                       "alpha": ["1", "4", "3"]}

    def test_act_bad_word(self):
        code, _, err = run(
            ["act", "--word", '["sigma:9"]'], SECT4_EXPANSION_JSON)
        assert code == 2
        assert json.loads(err)["error"] == "MalformedInput"

    def test_act_text_word(self):
        # --word is JSON: '"epspi"' decodes to a string, not a word.
        code, out, err = run(
            ["act", "--word", '"epspi"'], SECT4_EXPANSION_JSON)
        assert (code, out) == (2, None)
        assert json.loads(err) == {
            "error": "MalformedInput",
            "detail": "expected a sequence, got the text 'epspi'"}

    @pytest.mark.parametrize("word, kind", [("5", "int 5"),
                                            ("null", "NoneType None"),
                                            ("1.5", "float 1.5")])
    def test_act_non_iterable_word(self, word, kind):
        # A JSON scalar gets the sequence rule's text, not "not iterable".
        code, out, err = run(["act", "--word", word], SECT4_EXPANSION_JSON)
        assert (code, out) == (2, None)
        assert json.loads(err) == {
            "error": "MalformedInput",
            "detail": "expected a sequence, got the %s" % kind}

    def test_orbit(self):
        code, out, _ = run(["orbit"], SECT4_EXPANSION_JSON)
        assert code == 0
        assert len(out["expansions"]) == 12
        assert out["complete"] is True

    def test_orbit_matches_golden_bytes(self):
        check_golden("orbit-n5")

    def test_complete_orbit_matches_golden_bytes(self):
        check_golden("orbit-n5-complete")

    def test_orbit_pure_rejects_non_pure(self):
        code, _, err = run(["orbit", "--pure"], SECT4_EXPANSION_JSON)
        assert code == 1
        assert json.loads(err)["error"] == "NotPure"

    def test_pure_expand(self):
        payload = dict(PURE_N3_TRIPLE_JSON,
                       alpha=PURE_N3_EXPANSION_JSON["alpha"])
        code, out, _ = run(["pure-expand"], payload)
        assert code == 0
        assert out == PURE_N3_EXPANSION_JSON

    def test_jacobi_round_trip(self):
        code, jac, _ = run(["triple-to-jacobi"], SECT4_TRIPLE_JSON)
        assert code == 0
        assert jac["beta"] == "-3/2"
        assert jac["U"] == SECT4_JACOBI_JSON["U"]
        code, back, _ = run(["jacobi-to-triple"], jac)
        assert code == 0
        assert back == SECT4_TRIPLE_JSON

    def test_divisor_round_trip(self):
        divisor = {
            "points": [{"lambda": "6", "mu": "-11/2"}],
            "R": SECT4_R_JSON,
        }
        code, jac, _ = run(["divisor-to-jacobi"], divisor)
        assert code == 0
        assert jac["V"] == ["-11/2"]
        code, back, _ = run(["jacobi-to-divisor"], jac)
        assert code == 0
        assert back == divisor

    @pytest.mark.parametrize("points", ["", {}, "ab", {"lambda": "1"}, None],
                             ids=["empty-text", "empty-object", "text",
                                  "object", "null"])
    def test_divisor_points_must_be_an_array(self, points):
        # Iterated, "" and {} would be the divisor with no points.
        payload = {"points": points, "R": ["0", "1"]}
        code, out, err = run(["divisor-to-jacobi"], payload)
        assert (code, out) == (2, None)
        assert json.loads(err) == {"error": "MalformedInput",
                                   "detail": "points must be an array"}

    @pytest.mark.parametrize("point, shown", [
        (["6", "-11/2"], "['6', '-11/2']"),
        ({"lambda": "6"}, "{'lambda': '6'}"),
        ("ab", "'ab'"),
        (None, "None"),
    ], ids=["pair", "no-mu", "text", "null"])
    def test_divisor_point_must_be_an_object(self, point, shown):
        # The detail names the point and its fields, not the interpreter's
        # text for a failed lookup.
        payload = {"points": [{"lambda": "6", "mu": "-11/2"}, point],
                   "R": SECT4_R_JSON}
        code, out, err = run(["divisor-to-jacobi"], payload)
        assert (code, out) == (2, None)
        assert json.loads(err) == {
            "error": "MalformedInput",
            "detail": 'point 1 must be an object with "lambda" and "mu", '
                      "got " + shown}

    def test_pure_beta(self):
        payload = dict(SECT4_JACOBI_JSON, alpha_n="4")
        code, out, _ = run(["pure-beta"], payload)
        assert code == 0
        assert out == {"betas": ["-2", "-7/2"]}

    def test_verify(self):
        payload = {
            "expansion": SECT4_EXPANSION_JSON,
            "triple": SECT4_TRIPLE_JSON,
        }
        code, out, _ = run(["verify"], payload)
        assert code == 0
        assert out["pass"] is True

    def test_verify_matches_golden_bytes(self):
        check_golden("verify-sect4")

    def test_residual(self):
        code, out, _ = run(["residual", "--lambda", "0"], SECT4_TRIPLE_JSON)
        assert code == 0
        assert out["residual"] <= 1e-9

    def test_residual_has_no_branch_option(self):
        # Either root gives the same relation; the command reads one.
        code, out, err = run(
            ["residual", "--lambda", "0", "--branch", "-"], SECT4_TRIPLE_JSON)
        assert (code, out) == (2, None)
        assert json.loads(err)["error"] == "MalformedInput"

    @pytest.mark.parametrize("lam", ["1" + "0" * 400, "1e400"],
                             ids=["401-digit", "1e400"])
    def test_residual_lambda_outside_float_range(self, lam):
        code, out, err = run(["residual", "--lambda", lam], SECT4_TRIPLE_JSON)
        assert (code, out) == (2, None)
        assert json.loads(err)["error"] == "MalformedInput"

    def test_residual_pole(self):
        code, _, err = run(["residual", "--lambda", "6"], SECT4_TRIPLE_JSON)
        assert code == 1
        assert json.loads(err)["error"] == "PoleAtLambda"


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        [], ["act"], ["nope"], ["expand", "--bogus"],
        # argparse reads -1/2 as an option; --lambda=-1/2 is the spelling.
        ["residual", "--lambda", "-1/2"],
    ], ids=["no-command", "act-without-word", "unknown-command",
            "unknown-flag", "negative-lambda-as-option"])
    def test_one_malformed_input_record(self, argv):
        code, out, err = run(argv, SECT4_INPUT)
        assert (code, out) == (2, None)
        assert json.loads(err)["error"] == "MalformedInput"

    def test_negative_lambda_with_equals(self):
        code, out, err = run(["residual", "--lambda=-1/2"], SECT4_TRIPLE_JSON)
        assert (code, err) == (0, "")
        assert out["residual"] <= 1e-9

    @pytest.mark.parametrize("argv", [["--help"], ["act", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: alphafrac")
        assert captured.err == ""


class TestLongIntegers:
    """Input is bounded at 4300 digits per integer; answers are not."""

    BIG = "1" + "0" * 4000

    def run_checked(self, args, payload):
        # Python 3.10 before 3.10.7 has no limit to restore.
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        limit = get_limit()
        result = run(args, payload)
        assert get_limit() == limit
        return result

    def test_triple_with_long_coefficients(self):
        bs = [str(10 ** 300 + 7 * k + 1) for k in range(16)]
        payload = {"b0": bs[0], "block": bs[1:],
                   "alpha": [str(k) for k in range(1, 16)]}
        code, out, _ = self.run_checked(["triple"], payload)
        assert code == 0
        assert max(len(c) for c in out["C"]) > 4300

    def test_not_pure_with_a_long_value(self):
        payload = dict(SECT4_INPUT, alpha=["1", "3", self.BIG])
        code, _, err = self.run_checked(["pure-expand"], payload)
        assert code == 1
        assert json.loads(err)["error"] == "NotPure"

    def test_irrational_beta_with_a_long_value(self):
        payload = dict(SECT4_JACOBI_JSON, alpha_n=self.BIG)
        code, _, err = self.run_checked(["pure-beta"], payload)
        assert code == 1
        assert json.loads(err)["error"] == "IrrationalBeta"

    def test_longer_input_integer_is_malformed(self):
        payload = dict(SECT4_JACOBI_JSON, alpha_n="1" * 4301)
        code, _, err = self.run_checked(["pure-beta"], payload)
        assert code == 2
        assert "lowest terms, got " in json.loads(err)["detail"]


class TestExampleCommand:
    def test_unknown_example(self):
        code, _, err = run(["example", "--name", "nope"])
        assert code == 1
        assert json.loads(err)["error"] == "UnknownExample"

    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_example_matches_golden_bytes(self, name):
        check_golden(name)

    def test_returned_record_is_a_copy(self):
        first = example("sect4")
        first["alpha"].append("9")
        first["triple"]["A"].append("9")
        first["expansions"][0]["block"].append("9")
        assert example("sect4") == json.loads(golden_bytes("sect4"))

    def test_n1_pure(self):
        code, out, _ = run(["example", "--name", "n1-pure"])
        assert code == 0
        assert out["expansion"] == {"b0": "-2", "block": ["-2"],
                                    "alpha": ["0"]}

    def test_pure_n3(self):
        code, out, _ = run(["example", "--name", "pure-n3"])
        assert code == 0
        assert out["expansion"] == PURE_N3_EXPANSION_JSON

    def test_n1_periodic(self):
        code, out, _ = run(["example", "--name", "n1-periodic"])
        assert code == 0
        assert out["expansions"] == [
            {"b0": "2", "block": ["4"], "alpha": ["1"]},
            {"b0": "-2", "block": ["-4"], "alpha": ["1"]},
        ]

    def test_every_example_parses(self):
        for name in EXAMPLE_NAMES:
            code, out, _ = run(["example", "--name", name])
            assert code == 0
            assert out["name"] == name
