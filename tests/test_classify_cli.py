import json
import os
import pathlib
import subprocess
import sys

import pytest

from gradecat import cli
from gradecat.abelian import AbelianGroup
from gradecat.classify import (
    _COVERED,
    CoverageError,
    _abelian_groups_of_order,
    _division_plans,
    classify,
    parse_algebra_name,
    rows_to_json,
)
from gradecat.cli import main
from gradecat.division import CatalogError, canonical, underlying_algebra_name
from gradecat.matrix import is_fine, matrix_algebra
from gradecat.structconst import (
    StructureConstantAlgebra,
    from_division,
    group_algebra,
    quaternion_pair_algebra,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_parse_algebra_name():
    assert parse_algebra_name("M4C") == ("C", 4)
    assert parse_algebra_name("M(4,C)") == ("C", 4)
    assert parse_algebra_name("M_2(R)") == ("R", 2)
    assert parse_algebra_name("H") == ("H", 1)
    with pytest.raises(CoverageError):
        parse_algebra_name("SU(2)")
    for name in ("M0C", "M(0,R)", "M_00(H)"):
        with pytest.raises(CoverageError, match="size must be at least 1"):
            parse_algebra_name(name)


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


def test_division_plans_are_pairwise_distinct():
    # rows are equivalent only when k, the type and the support all agree,
    # so distinct plans give one row per equivalence class
    for family, n in _COVERED:
        plans = [(k, tag, support.free_rank, support.torsion)
                 for k, tag, support in _division_plans(family, n)]
        assert plans and len(set(plans)) == len(plans), (family, n)


CATALOG_TAGS = ("1-a", "1-b", "1-c", "1-d", "2-a", "2-b", "2-c", "2-d", "2-e", "2-f",
                "3-a", "3-b", "3-c", "3-d")


def _real_algebra(d):
    """(family, p) with M_p(family) the real algebra of a catalog entry.  A
    3-x entry is named H (x) A; H (x) M_p(R) = M_p(H), H (x) M_p(H) =
    M_4p(R) and H (x) M_p(C) = M_2p(C)."""
    name = underlying_algebra_name(d)
    family, p = parse_algebra_name(name.removeprefix("H (x) "))
    if name.startswith("H (x) "):
        family, p = {"R": ("H", p), "H": ("R", 4 * p), "C": ("C", 2 * p)}[family]
    return family, p


def test_division_plans_list_exactly_the_fine_catalog_entries():
    # every catalog entry on M_p(family), p | n, with |T| <= dim_R M_p(H) = 4p^2
    # gives a fine M_(n/p)(D) exactly when _division_plans lists it
    reached = set()
    for family, n in sorted(_COVERED):
        fine = set()
        for p in (p for p in range(1, n + 1) if n % p == 0):
            for order in range(1, 4 * p * p + 1):
                for support in _abelian_groups_of_order(order):
                    for tag in CATALOG_TAGS:
                        try:
                            d = canonical(tag, support)
                        except CatalogError:
                            continue
                        if _real_algebra(d) != (family, p):
                            continue
                        reached.add(tag)
                        if is_fine(matrix_algebra(d, n // p)):
                            fine.add((n // p, tag, support))
        assert fine == set(_division_plans(family, n)), (family, n)
    assert reached == set(CATALOG_TAGS) - {"3-b"}  # M_4p(R) is not covered


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

    def counting(group, *invariants):
        calls.append(group)
        return enumerate_aut(group, *invariants)

    monkeypatch.setattr(autgroups, "automorphism_group", counting)
    row = _build_row(2, "1-c", AbelianGroup(0, (2,)))
    assert row.weyl_identified == "Z2^2"  # the descriptor and the model both ran
    assert calls == [AbelianGroup(0, (2,))]


def test_build_row_refuses_a_non_fine_row(monkeypatch):
    import importlib

    # the package attribute `gradecat.classify` is the function, not the module
    classify_module = importlib.import_module("gradecat.classify")
    monkeypatch.setattr(classify_module, "is_fine", lambda algebra: False)
    with pytest.raises(AssertionError, match="not a fine grading"):
        classify_module._build_row(1, "1-a", AbelianGroup.trivial())


def test_weyl_order_consistency_invariant():
    import math

    from gradecat.abelian import chain_elements
    from gradecat.autgroups import weyl_division

    for name in ("M(2,R)", "H", "M(2,C)", "M(3,C)"):
        for row in classify(name):
            w0 = chain_elements(weyl_division(row.division)[0])
            expected = (row.division.support.order() ** (row.k - 1)) \
                * math.factorial(row.k) * len(w0)
            assert row.weyl_finite_order == expected


def test_no_covered_table_prints_a_w0_placeholder(capsys):
    for name in ("M1R", "M2R", "H", "M1C", "M2C", "M3C", "M4C"):
        for fmt in ("table", "json"):
            assert main(["classify", "--algebra", name, "--format", fmt]) == 0
            assert "W0[" not in capsys.readouterr().out, (name, fmt)
        assert all(row.weyl_finite_order for row in classify(name)), name


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


@pytest.mark.parametrize("dump,code,checks", [
    (from_division(canonical("1-b", "Z2xZ2")).to_json(), 0,
     [("graded-simple", True, ""),
      ("homogeneous-units-witness", True, "4 homogeneous units tested")]),
    (quaternion_pair_algebra().to_json(), 1, [("graded-simple", False, "")]),
], ids=["H", "HxH"])
def test_cli_verify_fixture_text_and_json(tmp_path, capsys, dump, code, checks):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(dump))
    assert main(["verify", "--fixture", str(path)]) == code
    assert capsys.readouterr().out.splitlines() == [
        f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  {detail}" if detail else "")
        for name, ok, detail in checks]
    assert main(["verify", "--fixture", str(path), "--format", "json"]) == code
    assert json.loads(capsys.readouterr().out) == {
        "schema": 1, "suite": "fixture", "seed": 0,
        "checks": [{"name": name, "ok": ok, "detail": detail} for name, ok, detail in checks],
        "passed": sum(ok for _, ok, _ in checks), "failed": sum(not ok for _, ok, _ in checks)}


def test_python_m_gradecat_runs_the_cli(capsys):
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "gradecat", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    proc = run("classify", "--algebra", "M1R", "--format", "json")
    assert main(["classify", "--algebra", "M1R", "--format", "json"]) == proc.returncode == 0
    assert proc.stdout == capsys.readouterr().out
    assert run("verify", "--suite", "nope").returncode == 2
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, gradecat.cli; print('gradecat.__main__' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert loaded.stdout == "False\n"


def test_cli_verify_fixture_reads_int_constants(tmp_path, capsys):
    # a JSON int is a constant as well as the "p/q" string that to_json writes
    dump = _z2_dump(table=[[i, j, {str(k): 1 for k in entry}]
                           for i, j, entry in _z2_dump()["table"]], unity={"0": 1})
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(dump))
    assert main(["verify", "--fixture", str(path)]) == 0
    assert StructureConstantAlgebra.from_json(dump).table \
        == StructureConstantAlgebra.from_json(_z2_dump()).table


def test_cli_verify_fixture_undecidable_centre_propagates(tmp_path):
    # Q[Z3] trivially graded: whether its 3-dimensional Z(A)_e is a field is
    # left undecided, which is a gap of the library and no user error
    q = group_algebra(AbelianGroup(0, (3,)))
    e = AbelianGroup.trivial().zero()
    dump = StructureConstantAlgebra(q.labels, [e] * q.dim, q.table, q.unity).to_json()
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(dump))
    with pytest.raises(NotImplementedError, match="dimension 3"):
        main(["verify", "--fixture", str(path)])


def _z2_dump(**changes):
    g = AbelianGroup(0, (2,))
    table = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}}
    dump = StructureConstantAlgebra(["one", "x"], [g.zero(), g.element((1,))], table,
                                    {0: 1}).to_json()
    dump.update(changes)
    return dump


@pytest.mark.parametrize("dump", [
    _z2_dump(table=_z2_dump()["table"] + [[-1, -1, {"0": "1/1"}]]),
    _z2_dump(table=_z2_dump()["table"] + [[0, 3, {"1": "1/1"}]]),
    _z2_dump(table=[[0, 0, {"5": "1/1"}]] + _z2_dump()["table"][1:]),
    _z2_dump(unity={"0": "1/1", "2": "1/1"}),
    _z2_dump(unity={"0": "1/0"}),
    _z2_dump(group=[2]),
    # a JSON boolean passes `in range(2)` but is no basis index
    _z2_dump(table=_z2_dump()["table"][:3] + [[True, True, {"0": "1/1"}]]),
    # keys that int() reads as an index but that are not its decimal: "00" would
    # overwrite x^2 = 1 with x^2 = -1
    _z2_dump(table=_z2_dump()["table"][:3] + [[1, 1, {"0": "1/1", "00": "-1/1"}]]),
    _z2_dump(table=_z2_dump()["table"][:3] + [[1, 1, {"+0": "1/1"}]]),
    _z2_dump(table=_z2_dump()["table"][:3] + [[1, 1, {" 0_0 ": "1/1"}]]),
    _z2_dump(unity={"00": "1/1"}),
    _z2_dump(unity={"+0": "1/1"}),
    _z2_dump(unity={" 0_0 ": "1/1"}),
    # a repeated row would replace the earlier one
    _z2_dump(table=_z2_dump()["table"] + [[1, 1, {"0": "-1/1"}]]),
    # numbers that int() would truncate or read as 0 or 1
    _z2_dump(degrees=[[0], [1.5]]),
    _z2_dump(degrees=[[0], [True]]),
    _z2_dump(group={"free_rank": 0, "torsion": [2.9]}),
    _z2_dump(group={"free_rank": 0, "torsion": [2.0]}),
    _z2_dump(group={"free_rank": False, "torsion": [2]}),
    # constants that Fraction() would read as 1: only an int or "p/q" is one
    _z2_dump(table=_z2_dump()["table"][:3] + [[1, 1, {"0": True}]]),
    _z2_dump(table=_z2_dump()["table"][:3] + [[1, 1, {"0": 1.0}]]),
    _z2_dump(table=_z2_dump()["table"][:3] + [[1, 1, {"0": "1"}]]),
    _z2_dump(unity={"0": True}),
    _z2_dump(unity={"0": 1.0}),
    "not an object",
])
def test_cli_malformed_fixture_exit_2(tmp_path, capsys, dump):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(dump))
    assert main(["verify", "--fixture", str(path)]) == 2
    assert "malformed fixture" in capsys.readouterr().err


@pytest.mark.parametrize("command,text,repeated", [
    # the last of two equal keys would win: x^2 = -1, which loads as Q(i)
    (["verify", "--fixture"], json.dumps(_z2_dump()).replace(
        '[1, 1, {"0": "1/1"}]', '[1, 1, {"0": "1/1", "0": "-1/1"}]'), '"0": "1/1", "0"'),
    (["universal", "--spec"], '{"D": "1-c:Z2", "k": 2, "k": 3}', '"k": 2, "k"'),
])
def test_cli_repeated_json_key_exit_2(tmp_path, capsys, command, text, repeated):
    assert repeated in text
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main(command + [str(path)]) == 2
    assert f"malformed {command[1][2:]}" in capsys.readouterr().err


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
    (["classify", "--algebra", "M0C"], "cannot parse algebra name 'M0C'"),
])
def test_cli_user_errors_exit_2(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


# a valid spec with an explicit G, spoiled one value at a time below
_G_SPEC = {"D": "1-c:Z2", "G": {"free_rank": 1, "torsion": [2]}, "embed": [[0, 1]],
           "gamma": [[0, 0], [1, 0]], "kappa": [1, 1]}


def test_cli_g_spec_is_valid(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_G_SPEC))
    assert main(["universal", "--spec", str(path)]) == 0
    assert "Z × Z2" in capsys.readouterr().out


@pytest.mark.parametrize("spec,message", [
    ({"k": 2}, "malformed spec"),
    ({"D": "1-c:Z2", "k": 0}, "positive integer"),
    ({"D": "1-c:Zx"}, "bad group string"),
    ({"D": {"type": "1-d", "support": {"torsion": [2, 3]}}}, "malformed spec"),
    ({"D": "1-a:", "G": {"free_rank": 1}}, "explicit gamma"),
    ({"D": "1-a:", "G": {"free_rank": 1}, "gamma": [[0, 0]]}, "malformed spec"),
    ("not an object", "malformed spec"),
    # numbers that int() would truncate or read as 1
    ({**_G_SPEC, "gamma": [[0, 0], [1.5, 0]]}, "malformed spec"),
    ({**_G_SPEC, "embed": [[0, 1.7]]}, "malformed spec"),
    ({"D": {"type": "1-c", "support": {"torsion": [2.9]}}}, "malformed spec"),
    ({**_G_SPEC, "kappa": [1.5, 1]}, "malformed spec"),
    ({"D": "1-c:Z2", "k": True}, "malformed spec"),
    ({**_G_SPEC, "kappa": [True, True]}, "malformed spec"),
    # a key outside the spec's form
    ({"D": "1-a:", "gamma": [[0], [0]]}, "unexpected spec key 'gamma'"),
    ({"D": "1-c:Z2", "k": 2, "kappa": [2, 1]}, "unexpected spec key 'kappa'"),
    ({"D": "1-a:", "k": 2, "embed": [[5]]}, "unexpected spec key 'embed'"),
    ({"D": "1-a:", "G": {"free_rank": 1}, "gamma": [[0], [1]], "k": 7},
     "unexpected spec key 'k'"),
    ({"D": "1-a:", "k": 2, "colour": 3}, "unexpected spec key 'colour'"),
    # G without embed on a nontrivial support
    ({"D": "1-c:Z2", "G": {"free_rank": 1, "torsion": [2]}, "gamma": [[0, 0], [1, 0]]},
     "explicit embed"),
    # a catalog tag that is not a string
    ({"D": {"type": 5, "support": {"torsion": [2, 2]}}, "k": 1}, "type tag 5 is not a string"),
    ({"D": {"type": ["1-a"], "support": {"torsion": [2, 2]}}, "k": 1},
     "type tag ['1-a'] is not a string"),
    ({"D": {"type": None, "support": {"torsion": [2, 2]}}, "k": 1},
     "type tag None is not a string"),
])
def test_cli_malformed_spec_exit_2(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["universal", "--spec", str(path)]) == 2
    assert message in capsys.readouterr().err


def _readme_universal_specs():
    """The ```json blocks of README's `universal` paragraph, up to the next
    section."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("`universal` reads a JSON grading spec", 1)[1].split("\n## ", 1)[0]
    return [block.split("```", 1)[0] for block in section.split("```json\n")[1:]]


def test_readme_universal_specs_run(tmp_path, capsys):
    specs = _readme_universal_specs()
    assert len(specs) >= 2
    for text in specs:
        path = tmp_path / "spec.json"
        path.write_text(text, encoding="utf-8")
        assert main(["universal", "--spec", str(path)]) == 0, text
        assert "universal abelian group:" in capsys.readouterr().out


def test_cli_bad_json_exit_2(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text("{not json")
    assert main(["universal", "--spec", str(path)]) == 2


@pytest.mark.parametrize("command", [["verify", "--fixture"], ["universal", "--spec"]])
@pytest.mark.parametrize("unreadable", ["directory", "not-utf-8"])
def test_cli_unreadable_input_exit_2(tmp_path, capsys, command, unreadable):
    path = tmp_path / "input.json"
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"labels": ["\xe9"]}')  # Latin-1, not UTF-8
    assert main(command + [str(path)]) == 2
    assert "unreadable" in capsys.readouterr().err


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


def test_one_parser_per_process_prints_what_a_fresh_parser_prints(capsys):
    # build_parser is cached; parse_args fills a fresh Namespace on each call
    calls = (["classify", "--algebra", "M2R", "--format", "json"],
             ["verify", "--suite", "nonsense"],
             ["classify"],  # argparse's own usage error: --algebra is required
             ["verify", "--suite", "squares", "--format", "json"])

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
        return code, capsys.readouterr()

    cli.build_parser.cache_clear()
    fresh = []
    for argv in calls:
        fresh.append(run(argv))
        cli.build_parser.cache_clear()
    assert [code for code, _ in fresh] == [0, 2, 2, 0]
    parser = cli.build_parser()
    assert [run(argv) for argv in calls] == fresh
    assert cli.build_parser() is parser
