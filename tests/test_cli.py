import hashlib
import json

import pytest

from sialg.cli import main

# sha256 of report files, pinned so that refactors keep every byte
DIAGONAL_NSY_2_2_22_COMUL_SHA256 = (
    "03d228b6e637381dec85aa3ab26f2fc75efe01927dbadb2ca8cf2c79e96475af"
)
VERIFY_SMALL_REPORT_SHA256 = (
    "6448049195ca15288cc6f801c70dc9f67876f7780742dfa3f8005f3298d84d3e"
)
# `sialg verify --profile standard --report` takes about 9 s, half of
# Tier-1 again, so only the CI workflow (.github/workflows/tier1.yml) checks it
VERIFY_STANDARD_REPORT_SHA256 = (
    "af1557ded646bc100536cb5eee7b83a4d39b126acc19ccdbfbf3a312f6cacd85"
)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(*argv):
    return main(list(argv))


def test_generate_analyze_comul_round_trip(tmp_path):
    alg_path = tmp_path / "a.json"
    assert run_cli("generate", "--family", "nsy", "--n", "2", "--l", "2",
                   "--m", "1,2", "-o", str(alg_path)) == 0
    data = json.loads(alg_path.read_text())
    assert data["dim"] == 9
    assert data["provenance"] == {
        "family": "nsy", "n": 2, "l": 2, "m": [1, 2], "field": "rational",
    }
    report_path = tmp_path / "analysis.json"
    assert run_cli("analyze", "--input", str(alg_path), "--report", str(report_path)) == 0
    analysis = json.loads(report_path.read_text())
    assert analysis["multiplicities"] == [1, 2]
    assert analysis["nakayama"] == [2, 1]
    comul_path = tmp_path / "comul.json"
    assert run_cli("comul", "--input", str(alg_path), "--preset", "singleton",
                   "--report", str(comul_path)) == 0
    report = json.loads(comul_path.read_text())["report"]
    assert report["invariant"] and report["coassociative"]
    assert report["delta_rank"] == 9 and report["injective"]
    assert not report["counital"]


def test_generate_matrix_and_group(tmp_path):
    m_path = tmp_path / "m2.json"
    assert run_cli("generate", "--family", "matrix", "--m", "2", "-o", str(m_path)) == 0
    assert json.loads(m_path.read_text())["dim"] == 4
    g_path = tmp_path / "g.json"
    assert run_cli("generate", "--family", "group", "--factors", "2",
                   "--prime", "2", "-o", str(g_path)) == 0
    data = json.loads(g_path.read_text())
    assert data["dim"] == 2 and data["field"] == {"prime": 2}


def test_comul_with_spec_file(tmp_path):
    alg_path = tmp_path / "a.json"
    run_cli("generate", "--family", "matrix", "--m", "2", "-o", str(alg_path))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"classes": [{"i": 1, "pairs": [[1, 1], [2, 2]]}]}
    ))
    out = tmp_path / "r.json"
    assert run_cli("comul", "--input", str(alg_path), "--spec", str(spec_path),
                   "--report", str(out)) == 0
    report = json.loads(out.read_text())["report"]
    assert report["counital"] and report["counit_built"]


@pytest.mark.parametrize("text", ["[[1, 1]]", "3", '"full"'])
def test_comul_spec_file_not_an_object(tmp_path, capsys, text):
    alg_path = tmp_path / "a.json"
    run_cli("generate", "--family", "matrix", "--m", "2", "-o", str(alg_path))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(text)
    assert run_cli("comul", "--input", str(alg_path), "--spec", str(spec_path)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: BadParams: malformed subset data")
    assert captured.out == ""


def test_comul_spec_file_duplicate_class(tmp_path, capsys):
    alg_path = tmp_path / "a.json"
    run_cli("generate", "--family", "nsy", "--n", "2", "--l", "2", "--m", "1,2",
            "-o", str(alg_path))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"classes": [{"i": 1, "pairs": [[1, 1]]}, {"i": 1, "pairs": []}]}
    ))
    assert run_cli("comul", "--input", str(alg_path), "--spec", str(spec_path)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: BadParams: class index 1 given twice")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["analyze", "comul", "verify"])
@pytest.mark.parametrize("row, entry, message, witness", [
    # E11 E11 = 2 E11 breaks the unit first
    (0, [0, 0, 0, "2"], "unit axiom fails at basis index 0", "0"),
    # E12 E21 = 2 E11 keeps the unit and breaks associativity
    (2, [1, 2, 0, "2"], "associativity fails at triple (1, 2, 1)", "(1, 2, 1)"),
], ids=["unit", "associativity"])
def test_corrupted_input_exit_code(tmp_path, capsys, command, row, entry, message, witness):
    # every command validates its input once, in analyze, before any layer
    alg_path = tmp_path / "bad.json"
    run_cli("generate", "--family", "matrix", "--m", "2", "-o", str(alg_path))
    data = json.loads(alg_path.read_text())
    data["structure"][row] = entry
    alg_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli(command, "--input", str(alg_path)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: invalid algebra: {message} (witness: {witness})\n"
    assert captured.out == ""


@pytest.mark.parametrize("prime", [None, "5"])
@pytest.mark.parametrize("command", ["analyze", "comul"])
def test_zero_denominator_scalar(tmp_path, capsys, prime, command):
    alg_path = tmp_path / "a.json"
    field_args = ("--prime", prime) if prime else ()
    run_cli("generate", "--family", "matrix", "--m", "2", *field_args, "-o", str(alg_path))
    data = json.loads(alg_path.read_text())
    if command == "analyze":
        data["unit"][0] = "1/0"
    else:
        data["structure"][0][3] = "1/0"
    alg_path.write_text(json.dumps(data))
    assert run_cli(command, "--input", str(alg_path)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: BadParams: ")
    assert "scalar '1/0' has a zero denominator" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("prime", [None, "5"])
def test_float_scalar_refused(tmp_path, capsys, prime):
    alg_path = tmp_path / "a.json"
    field_args = ("--prime", prime) if prime else ()
    run_cli("generate", "--family", "matrix", "--m", "2", *field_args, "-o", str(alg_path))
    data = json.loads(alg_path.read_text())
    data["unit"][0] = 1.5
    alg_path.write_text(json.dumps(data))
    assert run_cli("analyze", "--input", str(alg_path)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: BadParams: scalar 1.5 is not exact")
    assert captured.out == ""


@pytest.mark.parametrize("prime", [None, "5"])
@pytest.mark.parametrize("text", ["1e400", "0.5"])
def test_exponent_and_decimal_scalars_refused(tmp_path, capsys, prime, text):
    # Fraction() would expand "1e400" exactly before the unit check ran
    alg_path = tmp_path / "a.json"
    field_args = ("--prime", prime) if prime else ()
    run_cli("generate", "--family", "matrix", "--m", "2", *field_args, "-o", str(alg_path))
    data = json.loads(alg_path.read_text())
    data["unit"][0] = text
    alg_path.write_text(json.dumps(data))
    assert run_cli("analyze", "--input", str(alg_path)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: BadParams: scalar '{text}' is not an integer")
    assert captured.out == ""


def _non_integral_structure_index(data):
    entry = next(e for e in data["structure"] if e[:3] == [0, 0, 0])
    entry[0] = 0.5


def _non_integral_dim(data):
    data["dim"] = 1.9


@pytest.mark.parametrize("family, corrupt, message", [
    (("matrix", "--m", "2"), _non_integral_structure_index,
     "structure index must be an integer, got 0.5"),
    (("product", "--m", "1"), _non_integral_dim, "dim must be an integer, got 1.9"),
], ids=["structure-index", "dim"])
def test_non_integral_algebra_index(tmp_path, capsys, family, corrupt, message):
    alg_path = tmp_path / "a.json"
    run_cli("generate", "--family", *family, "-o", str(alg_path))
    data = json.loads(alg_path.read_text())
    corrupt(data)
    alg_path.write_text(json.dumps(data))
    assert run_cli("analyze", "--input", str(alg_path)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: BadParams: ")
    assert message in captured.err
    assert captured.out == ""


def test_comul_spec_file_non_integral_pair(tmp_path, capsys):
    alg_path = tmp_path / "a.json"
    run_cli("generate", "--family", "nsy", "--n", "2", "--l", "2", "--m", "1,2",
            "-o", str(alg_path))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"classes": [{"i": 1, "pairs": [[1, 1]]}, {"i": 2, "pairs": [[1.7, 1]]}]}
    ))
    assert run_cli("comul", "--input", str(alg_path), "--spec", str(spec_path)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "error: BadParams: copy index must be an integer, got 1.7"
    )
    assert captured.out == ""


@pytest.mark.parametrize("family_args, message", [
    (("nsy", "--n", "2", "--l", "2", "--m", "1,x"),
     "expected comma-separated integers, got '1,x'"),
    (("matrix", "--m", "2,3"), "expected 1 integer(s), got '2,3'"),
], ids=["non-integer-m", "two-sizes"])
def test_generate_malformed_integers(capsys, family_args, message):
    assert run_cli("generate", "--family", *family_args) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: BadParams: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--input", "--spec"])
def test_non_utf8_file_refused(tmp_path, capsys, flag):
    alg_path = tmp_path / "a.json"
    run_cli("generate", "--family", "nakayama", "--n", "2", "--l", "2", "-o", str(alg_path))
    bad_path = tmp_path / "latin1.json"
    bad_path.write_bytes(b'{"classes": "\xe9"}')
    argv = ["comul", "--input", str(bad_path if flag == "--input" else alg_path)]
    if flag == "--spec":
        argv += ["--spec", str(bad_path)]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: BadParams: {bad_path} is not UTF-8 text")
    assert captured.out == ""


HUGE_INT = "9" * 5000  # past Python's int-string conversion limit of 4300 digits


@pytest.mark.parametrize("flag, text", [
    ("--input", "[" * 200_000),
    ("--input", '{"field": "rational", "dim": %s}' % HUGE_INT),
    ("--spec", '{"classes": [{"i": 1, "pairs": [[%s, 1]]}]}' % HUGE_INT),
    ("--input", "{"),
    ("--spec", "{"),
], ids=["deep-nesting", "huge-dim", "huge-copy-index", "malformed-input", "malformed-spec"])
def test_unreadable_json_refused(tmp_path, capsys, flag, text):
    alg_path = tmp_path / "a.json"
    run_cli("generate", "--family", "nakayama", "--n", "2", "--l", "2", "-o", str(alg_path))
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(text)
    command = "analyze" if flag == "--input" else "comul"
    argv = [command, "--input", str(bad_path if flag == "--input" else alg_path)]
    if flag == "--spec":
        argv += ["--spec", str(bad_path)]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: BadParams: {bad_path} is not readable JSON")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_missing_file_is_operational_error(tmp_path):
    assert run_cli("analyze", "--input", str(tmp_path / "nope.json")) == 1


def test_verify_single_input(tmp_path):
    alg_path = tmp_path / "a.json"
    run_cli("generate", "--family", "nakayama", "--n", "3", "--l", "2",
            "-o", str(alg_path))
    out = tmp_path / "v.json"
    assert run_cli("verify", "--input", str(alg_path), "--report", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["invariant"] and report["coassociative"]


def test_report_bytes_deterministic(tmp_path):
    alg_path = tmp_path / "a.json"
    run_cli("generate", "--family", "nsy", "--n", "2", "--l", "2", "--m", "2,2",
            "-o", str(alg_path))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run_cli("comul", "--input", str(alg_path), "--preset", "diagonal",
            "--report", str(out1))
    run_cli("comul", "--input", str(alg_path), "--preset", "diagonal",
            "--report", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    assert sha256(out1) == DIAGONAL_NSY_2_2_22_COMUL_SHA256


def test_string_unit_refused(tmp_path, capsys):
    alg_path = tmp_path / "m2.json"
    assert run_cli("generate", "--family", "matrix", "--m", "2", "-o", str(alg_path)) == 0
    data = json.loads(alg_path.read_text())
    data["unit"] = "1001"
    alg_path.write_text(json.dumps(data))
    assert run_cli("analyze", "--input", str(alg_path)) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: BadParams: unit must be an array, got str\n"
    assert captured.out == ""


def test_generate_bad_params():
    assert run_cli("generate", "--family", "nsy", "--n", "2") == 1


@pytest.mark.parametrize("l", ["0", "-1"])
def test_generate_nsy_without_paths(capsys, l):
    assert run_cli("generate", "--family", "nsy", "--n", "2", "--l", l, "--m", "1,1") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: BadParams: need n >= 1 and l >= 1\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["generate"], "the following arguments are required: --family"),
    (["generate", "--family", "torus"], "argument --family: invalid choice"),
    (["analyze"], "the following arguments are required: --input"),
    (["analyze", "--input", "a.json", "--seed", "x"], "argument --seed: invalid int value"),
    (["comul", "--preset", "full"], "the following arguments are required: --input"),
    (["comul", "--input", "a.json", "--preset", "none"], "argument --preset: invalid choice"),
    (["verify", "--input"], "argument --input: expected one argument"),
    (["verify", "--profile", "huge"], "argument --profile: invalid choice"),
], ids=["no-command", "generate-required", "generate-choice", "analyze-required",
        "analyze-type", "comul-required", "comul-choice", "verify-missing-value",
        "verify-choice"])
def test_usage_error_exit_code(capsys, argv, message):
    # exit code 2 is reserved for a falsified statement, so a usage error
    # exits 1 with argparse's usage line and message
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: sialg")
    assert message in err


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["comul", "-h"]])
def test_help_exit_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: sialg")


def test_verify_small_profile_reports_findings(tmp_path, capsys):
    # the battery includes two checks that are falsified by exact
    # counterexamples (see README, "Verification findings"); the exit code
    # contract reserves 2 for exactly this signal
    out = tmp_path / "verify.json"
    code = run_cli("verify", "--profile", "small", "--report", str(out))
    assert code == 2
    assert sha256(out) == VERIFY_SMALL_REPORT_SHA256
    report = json.loads(out.read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    assert len(by_name) == 9
    expected_pass = {
        "reference-tensor-regression",
        "multiplication-identities",
        "singleton-injectivity",
        "spread-family-invariance",
        "nakayama-crosscheck",
        "negative-controls",
        "permuted-round-trip",
    }
    for name in expected_pass:
        assert by_name[name]["passed"], by_name[name]["failures"][:2]
    for name in ("counitality-characterization", "frobenius-pair-support"):
        assert not by_name[name]["passed"]
        assert by_name[name]["failures"]
    assert "witness:" in capsys.readouterr().out
