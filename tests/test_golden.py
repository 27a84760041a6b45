"""Byte-for-byte golden outputs of `classify`, `catalog`, `verify` and
`universal` in JSON form.

The files under tests/golden/ pin the CLI output for the 7 covered algebras,
for every catalog entry that `classify` and `verify` build, including the
full sigma and beta tables, for `verify --suite all` at seeds 0, 1 and 7
(each seed draws different fractional conjugators), and for
`universal --spec` on the specs of UNIVERSAL.  A change
that must keep outputs identical passes this test unchanged; a change that
alters an output on purpose regenerates the files and says why.

Regenerate from the checkout's own sources with

    PYTHONPATH=src python tests/test_golden.py --write [CASE ...]

which writes the named cases only (ids as pytest prints them, such as
`universal-1-b:Z2^10-k1`), or every case when none is named.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

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

VERIFY_SEEDS = (0, 1, 7)

# `universal --spec` inputs, written to a temporary file for each run
UNIVERSAL = {
    "1-c:Z2-k2": {"D": "1-c:Z2", "k": 2},
    "1-c:Z2-G-kappa": {"D": "1-c:Z2", "G": {"free_rank": 1, "torsion": [2]},
                       "embed": [[0, 1]], "gamma": [[0, 0], [1, 0]], "kappa": [2, 1]},
    "2-f:Z4^2-k1": {"D": "2-f:Z4^2", "k": 1},
    "1-d:Z2^3xZ4-k1": {"D": "1-d:Z2^3xZ4", "k": 1},
    # n = 16 sizes: the M(16,H) and M(16,C) harvests, 1024 and 512 labels per block
    "1-b:Z2^10-k1": {"D": "1-b:Z2^10", "k": 1},
    "1-c:Z2^5-k2": {"D": "1-c:Z2^5", "k": 2},
}


def _cases():
    for name in CLASSIFY:
        yield f"classify-{name}", ["classify", "--algebra", name, "--format", "json"]
    for ref in CATALOG:
        yield f"catalog-{ref}", ["catalog", "--entry", ref, "--format", "json"]
    for seed in VERIFY_SEEDS:
        yield f"verify-all-seed{seed}", ["verify", "--suite", "all", "--seed", str(seed),
                                         "--format", "json"]
    for name, spec in UNIVERSAL.items():
        yield f"universal-{name}", ["universal", "--format", "json", "--spec", spec]


def _path(case_id):
    return GOLDEN / (case_id.replace(":", "_").replace("^", "p") + ".json")


def _run(argv):
    """stdout of the CLI on `argv`; a dict after --spec is written to a file first."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        if argv[:1] == ["universal"]:
            spec = pathlib.Path(tmp) / "spec.json"
            spec.write_text(json.dumps(argv[-1]), encoding="utf-8")
            argv = argv[:-1] + [str(spec)]
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
    if sys.argv[1:2] != ["--write"]:
        sys.exit(__doc__)
    cases = dict(_cases())
    names = sys.argv[2:] or list(cases)
    unknown = [name for name in names if name not in cases]
    if unknown:
        sys.exit(f"unknown case(s): {' '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for case_id in names:
        _path(case_id).write_text(_run(cases[case_id]), encoding="utf-8")
        print(f"wrote {_path(case_id).name}")
