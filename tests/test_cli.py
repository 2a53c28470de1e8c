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
# `sialg verify --profile standard --report` takes about 40 s, too slow
# for Tier-1, so only the CI workflow (.github/workflows/tier1.yml) checks it
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


def test_corrupted_input_exit_code(tmp_path, capsys):
    alg_path = tmp_path / "bad.json"
    run_cli("generate", "--family", "matrix", "--m", "2", "-o", str(alg_path))
    data = json.loads(alg_path.read_text())
    data["structure"][0] = [0, 0, 0, "2"]
    alg_path.write_text(json.dumps(data))
    assert run_cli("analyze", "--input", str(alg_path)) == 1
    err = capsys.readouterr().err
    assert "witness" in err


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


def test_generate_bad_params():
    assert run_cli("generate", "--family", "nsy", "--n", "2") == 1


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
