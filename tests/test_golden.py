"""Byte-for-byte golden outputs of `classify`, `catalog` and `verify` in JSON form.

The files under tests/golden/ pin the CLI output for the 7 covered algebras,
for every catalog entry that `classify` and `verify` build, including the
full sigma and beta tables, and for `verify --suite all` at seed 7.  A change
that must keep outputs identical passes this test unchanged; a change that
alters an output on purpose regenerates the files and says why.

Regenerate from the checkout's own sources with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import pathlib
import sys

import pytest

from gradecat.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

CLASSIFY = ("M1R", "M2R", "H", "M1C", "M2C", "M3C", "M4C")

CATALOG = (
    "1-a:1", "1-a:Z2^2", "1-a:Z2^4", "1-b:Z2^2",
    "1-c:Z2", "1-c:Z2^3", "1-c:Z2^5", "1-d:Z2xZ4", "1-d:Z2^3xZ4",
    "2-a:Z2", "2-b:Z2", "2-d:Z2^2xZ4", "2-e:Z4",
    "2-f:Z2^2", "2-f:Z3^2", "2-f:Z4^2", "3-b:Z2^2", "3-d:Z2xZ4",
)


def _cases():
    for name in CLASSIFY:
        yield f"classify-{name}", ["classify", "--algebra", name, "--format", "json"]
    for ref in CATALOG:
        yield f"catalog-{ref}", ["catalog", "--entry", ref, "--format", "json"]
    yield "verify-all-seed7", ["verify", "--suite", "all", "--seed", "7", "--format", "json"]


def _path(case_id):
    return GOLDEN / (case_id.replace(":", "_").replace("^", "p") + ".json")


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"{argv} exited with {code}"
    return out.getvalue()


@pytest.mark.parametrize("case_id,argv", list(_cases()), ids=[c for c, _ in _cases()])
def test_output_matches_golden(case_id, argv):
    expected = _path(case_id).read_text(encoding="utf-8")
    got = _run(argv)
    if got != expected:
        # report the first differing line: a full diff of 300 kB is unreadable
        pairs = zip(got.splitlines(), expected.splitlines())
        line = next((n for n, (a, b) in enumerate(pairs, 1) if a != b), None)
        pytest.fail(f"{case_id} differs from {_path(case_id).name} "
                    f"at line {line or 'end'}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.mkdir(exist_ok=True)
    for case_id, argv in _cases():
        _path(case_id).write_text(_run(argv), encoding="utf-8")
        print(f"wrote {_path(case_id).name}")
