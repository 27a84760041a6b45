import json

import pytest

from gradecat.abelian import AbelianGroup
from gradecat.classify import CoverageError, classify, parse_algebra_name, rows_to_json
from gradecat.cli import main
from gradecat.division import canonical
from gradecat.structconst import from_division


def test_parse_algebra_name():
    assert parse_algebra_name("M4C") == ("C", 4)
    assert parse_algebra_name("M(4,C)") == ("C", 4)
    assert parse_algebra_name("M_2(R)") == ("R", 2)
    assert parse_algebra_name("H") == ("H", 1)
    with pytest.raises(CoverageError):
        parse_algebra_name("SU(2)")


def test_classify_deterministic():
    a = rows_to_json(classify("M(2,C)"), "M(2,C)")
    b = rows_to_json(classify("M(2,C)"), "M(2,C)")
    assert a == b
    assert a["schema"] == 1


def test_classify_coverage_error():
    with pytest.raises(CoverageError):
        classify("M(5,C)")
    with pytest.raises(CoverageError):
        classify("M(4,R)")


def test_classify_m1_cases():
    assert len(classify("M(1,R)")) == 1
    rows = classify("M(1,C)")
    assert len(rows) == 1
    assert rows[0].division.type_tag == "1-c"


def test_build_row_enumerates_aut_once(monkeypatch):
    import gradecat.autgroups as autgroups
    from gradecat.classify import _build_row

    calls = []
    enumerate_aut = autgroups.automorphism_group

    def counting(group):
        calls.append(group)
        return enumerate_aut(group)

    monkeypatch.setattr(autgroups, "automorphism_group", counting)
    row = _build_row(2, "1-c", AbelianGroup(0, (2,)))
    assert row.weyl_identified == "Z2^2"  # the descriptor and the model both ran
    assert calls == [AbelianGroup(0, (2,))]


def test_weyl_order_consistency_invariant():
    import math

    from gradecat.autgroups import weyl_division

    for name in ("M(2,R)", "H", "M(2,C)", "M(3,C)"):
        for row in classify(name):
            w0, _ = weyl_division(row.division)
            expected = (row.division.support.order() ** (row.k - 1)) \
                * math.factorial(row.k) * len(w0)
            assert row.weyl_finite_order == expected


def test_cli_classify_table(capsys):
    assert main(["classify", "--algebra", "M2R"]) == 0
    out = capsys.readouterr().out
    assert "2 classes" in out
    assert "Sym(2)" in out


def test_cli_classify_json(capsys):
    assert main(["classify", "--algebra", "M3C", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == 1
    assert len(data["rows"]) == 2
    assert data["rows"][1]["flags"] == ["complex grading"]
    assert data["rows"][1]["weyl"]["identified"] == "GL(2,3)"


def test_cli_coverage_exit_code(capsys):
    assert main(["classify", "--algebra", "M9H"]) == 2
    assert "insufficient catalog" in capsys.readouterr().err


def test_cli_unknown_suite(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 2


def test_cli_verify_squares(capsys):
    assert main(["verify", "--suite", "squares"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_cli_verify_json(capsys):
    assert main(["verify", "--suite", "idempotents", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == 1
    assert data["failed"] == 0


def test_cli_universal_canonical(tmp_path, capsys):
    spec = {"D": "1-c:Z2", "k": 2}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["universal", "--spec", str(path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["universal"] == {"free_rank": 1, "torsion": [2]}
    assert data["components"] == 6


def test_cli_universal_explicit_ambient(tmp_path, capsys):
    # the Z-grading on M_2(R): G = Z, gamma = (0, 1), trivial D
    spec = {
        "D": "1-a:",
        "gamma": [[0], [1]],
        "G": {"free_rank": 1, "torsion": []},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["universal", "--spec", str(path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["universal"] == {"free_rank": 1, "torsion": []}


def test_cli_universal_group_literal_embedding(tmp_path, capsys):
    # division grading of type (1-d) embedded in G = Z2 x Z4 itself
    spec = {
        "D": {"type": "1-d", "support": {"free_rank": 0, "torsion": [2, 4]}},
        "gamma": [[0, 0]],
        "G": {"free_rank": 0, "torsion": [2, 4]},
        "embed": [[1, 0], [0, 1]],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["universal", "--spec", str(path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["universal"] == {"free_rank": 0, "torsion": [2, 4]}


def test_cli_verify_fixture_dump(tmp_path, capsys):
    dump = from_division(canonical("1-b", "Z2xZ2")).to_json()
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(dump))
    assert main(["verify", "--fixture", str(path)]) == 0
    out = capsys.readouterr().out
    assert "graded-simple" in out


def test_cli_catalog_json(capsys):
    assert main(["catalog", "--entry", "2-f:Z3xZ3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["type_tag"] == "2-f"
    assert data["conductor"] == 3
    assert data["kind"] == "C"


def test_cli_missing_spec_file(capsys):
    assert main(["universal", "--spec", "/nonexistent/file.json"]) == 2


@pytest.mark.parametrize("argv,message", [
    (["catalog", "--entry", "1-a:Q2"], "bad group string"),
    (["catalog", "--entry", "2-f:Z0^2"], "bad group string"),
    (["catalog", "--entry", "1-a:Z3"], "incompatible"),
    (["verify", "--suite", "nonsense"], "unknown suite"),
    (["catalog", "--entry", "2-f:Z"], "incompatible"),
])
def test_cli_user_errors_exit_2(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("spec,message", [
    ({"k": 2}, "malformed spec"),
    ({"D": "1-c:Z2", "k": 0}, "positive integer"),
    ({"D": "1-c:Zx"}, "bad group string"),
    ({"D": {"type": "1-d", "support": {"torsion": [2, 3]}}}, "malformed spec"),
    ({"D": "1-a:", "G": {"free_rank": 1}}, "explicit gamma"),
    ({"D": "1-a:", "G": {"free_rank": 1}, "gamma": [[0, 0]]}, "malformed spec"),
    ("not an object", "malformed spec"),
])
def test_cli_malformed_spec_exit_2(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["universal", "--spec", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_cli_bad_json_exit_2(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text("{not json")
    assert main(["universal", "--spec", str(path)]) == 2


def test_cli_internal_errors_propagate(tmp_path, monkeypatch):
    import gradecat.cli as cli

    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"D": "1-c:Z2", "k": 2}))

    def broken_lookup(algebra):
        raise KeyError("a table lookup failed")

    monkeypatch.setattr(cli, "harvest_universal_group", broken_lookup)
    with pytest.raises(KeyError):
        main(["universal", "--spec", str(path)])

    def broken_check(name, seed=0):
        raise ValueError("an internal check misfired")

    monkeypatch.setattr(cli, "run_suite", broken_check)
    with pytest.raises(ValueError):
        main(["verify", "--suite", "squares"])
