import json

import pytest

from g2chow.cli import main
from support import MALFORMED_COMPLEX_DOCUMENTS, MALFORMED_FIBRE_DOCUMENTS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_case_ii(capsys):
    code, out, err = run(capsys, "catalog", "--case", "II", "--n", "2")
    assert code == 0 and not err
    doc = json.loads(out)
    assert len(doc["components"]) == 4
    assert doc["expected_rank"] == 2
    assert doc["weierstrass"]["w5"] == "X2"


def test_catalog_case_i_and_vii(capsys):
    code, out, _ = run(capsys, "catalog", "--case", "I")
    assert code == 0
    assert len(json.loads(out)["components"]) == 1
    code, out, _ = run(capsys, "catalog", "--case", "VII", "--r", "2", "--s", "2", "--t", "2")
    assert code == 0
    assert len(json.loads(out)["components"]) == 11


def test_catalog_invalid_params(capsys):
    code, out, err = run(capsys, "catalog", "--case", "II", "--n", "1")
    assert code == 2 and not out
    assert err.startswith("error:")
    assert "n >= 2" in err
    code, _, err = run(capsys, "catalog", "--case", "II")
    assert code == 2 and "requires --n" in err
    code, _, err = run(capsys, "catalog", "--case", "I", "--n", "3")
    assert code == 2 and "does not take" in err


def test_catalog_deterministic(capsys):
    _, first, _ = run(capsys, "catalog", "--case", "VI", "--s", "2", "--n", "1", "--m", "2")
    _, second, _ = run(capsys, "catalog", "--case", "VI", "--s", "2", "--n", "1", "--m", "2")
    assert first == second


def test_certify_case_iii(capsys):
    code, out, _ = run(capsys, "certify", "--case", "III", "--n", "2", "--m", "2",
                       "--cycles", "B:Xn,B:Ym")
    assert code == 0
    assert "verdict: pass" in out
    assert "achieved rank: 3" in out


def test_certify_case_vi(capsys):
    code, out, _ = run(capsys, "certify", "--case", "VI", "--s", "1", "--n", "1", "--m", "2",
                       "--cycles", "B1:B2,B1:Zm")
    assert code == 0
    assert "achieved rank: 3" in out


def test_certify_case_i_bound_only(capsys):
    code, out, _ = run(capsys, "certify", "--case", "I", "--cycles", "C:C")
    assert code == 1
    assert "verdict: bound-only" in out
    assert "achieved rank: 1" in out


def test_certify_json_and_default_cycles(capsys):
    code, out, _ = run(capsys, "certify", "--case", "II", "--n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["cycles"] == ["E:X3"]
    assert doc["verdict"] == "pass"


def test_certify_bad_cycles(capsys):
    code, _, err = run(capsys, "certify", "--case", "II", "--n", "2", "--cycles", "E-X2")
    assert code == 2 and "malformed placement" in err
    code, _, err = run(capsys, "certify", "--case", "II", "--n", "2", "--cycles", "E:X1")
    assert code == 2 and "Weierstrass" in err


def test_boundary_text(capsys):
    code, out, _ = run(capsys, "boundary", "--case", "II", "--n", "2", "--cycle", "E:Xn",
                       "--format", "text")
    assert code == 0
    assert "∂Ξ(E,X2) = -2·X1 - 4·X2 - 2·X3 (mod fibre)" in out


def test_solve_catalog_mode(capsys):
    code, out, _ = run(capsys, "solve", "--case", "IV", "--r", "1", "--cycle", "E1:E2",
                       "--normalize", "E1=2")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == {"E1": "2", "E2": "-2", "X1": "0"}


def test_solve_file_mode(tmp_path, capsys):
    path = tmp_path / "fibre.json"
    path.write_text(json.dumps({
        "components": [
            {"name": "E", "genus": 1, "self": -2},
            {"name": "X1", "genus": 0, "self": -2},
            {"name": "X2", "genus": 0, "self": -2},
            {"name": "X3", "genus": 0, "self": -2},
        ],
        "intersections": [["E", "X1", 1], ["X1", "X2", 1], ["X2", "X3", 1], ["X3", "E", 1]],
        "horizontal": {"E": 2, "X2": -2},
    }))
    code, out, _ = run(capsys, "solve", "--input", str(path))
    assert code == 0
    assert json.loads(out)["coefficients"] == {"E": "0", "X1": "-1", "X2": "-2", "X3": "-1"}


def test_solve_file_mode_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "fibre.json"
    path.write_text(json.dumps({"components": [{"name": "C", "self": 0}], "bogus": 1}))
    code, _, err = run(capsys, "solve", "--input", str(path))
    assert code == 2 and "unknown keys" in err


def test_solve_rejects_two_sources(tmp_path, capsys):
    path = tmp_path / "fibre.json"
    path.write_text("{}")
    code, _, err = run(capsys, "solve", "--input", str(path), "--case", "I")
    assert code == 2 and "exactly one input source" in err


def test_solve_degree_nonzero(tmp_path, capsys):
    path = tmp_path / "fibre.json"
    path.write_text(json.dumps({
        "components": [{"name": "C", "genus": 2, "self": 0}],
        "horizontal": {"C": 2},
    }))
    code, _, err = run(capsys, "solve", "--input", str(path))
    assert code == 2 and "degree-zero" in err


def test_sweep_case_ii(capsys):
    code, out, _ = run(capsys, "sweep", "--case", "II", "--n", "2..5")
    assert code == 0
    assert "4 rows, 0 failures" in out


def test_sweep_case_iv_bound_only(capsys):
    code, out, _ = run(capsys, "sweep", "--case", "IV", "--r", "1..6")
    assert code == 0
    assert out.count("verdict=bound-only") == 6
    assert "rank=2" in out


def test_sweep_empty_range(capsys):
    code, out, _ = run(capsys, "sweep", "--case", "II", "--n", "5..2")
    assert code == 0
    assert "0 rows, 0 failures" in out


def test_sweep_malformed_range(capsys):
    code, _, err = run(capsys, "sweep", "--case", "II", "--n", "two")
    assert code == 2 and "malformed range" in err


def test_sweep_case_v_reports_placement_disagreement(capsys):
    # the two standard placements provably differ in this lattice model,
    # so the sweep flags every row; see README
    code, out, _ = run(capsys, "sweep", "--case", "V", "--r", "1..1", "--m", "2..2")
    assert code == 1
    assert "placement_agreement=FAIL" in out
    assert "closed_form=ok" in out


def test_complex_type2(capsys):
    code, out, _ = run(capsys, "complex", "--type", "2", "--N", "4")
    assert code == 0
    assert "γ² = 0: pass" in out
    assert "γ·ρ + ρ·γ" in out


def test_complex_from_case_with_pch(capsys):
    code, out, _ = run(capsys, "complex", "--from-case", "II", "--n", "2", "--q", "3", "--a", "1")
    assert code == 0
    assert "quotient 1" in out


def test_complex_json_input(tmp_path, capsys):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"strata": {"1": [[0]]}}))
    code, out, _ = run(capsys, "complex", "--input", str(path), "--format", "json",
                       "--q", "4", "--a", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["pch"]["quotient"] == 0


def _single_error_line(code, out, err):
    return code == 2 and not out and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("doc", MALFORMED_FIBRE_DOCUMENTS, ids=json.dumps)
def test_malformed_fibre_documents_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "fibre.json"
    path.write_text(json.dumps(doc))
    assert _single_error_line(*run(capsys, "solve", "--input", str(path), "--cycle", "A:B"))
    assert _single_error_line(*run(capsys, "boundary", "--input", str(path), "--cycle", "A:B"))


@pytest.mark.parametrize("doc", MALFORMED_COMPLEX_DOCUMENTS, ids=json.dumps)
def test_malformed_complex_documents_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(doc))
    assert _single_error_line(*run(capsys, "complex", "--input", str(path), "--format", "json"))


def test_complex_missing_iistar(capsys):
    code, _, err = run(capsys, "complex", "--type", "2", "--N", "3", "--q", "3", "--a", "1")
    assert code == 2 and "i*i_*" in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "catalog", "--case", "I", "--output", str(target))
    assert code == 0 and not out
    assert json.loads(target.read_text())["components"][0]["name"] == "C"


def test_unknown_command_is_an_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2 and err.startswith("error:")
