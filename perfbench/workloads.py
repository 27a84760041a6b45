"""Workload inputs and the correctness gate applied to every pass.

A workload is a list of `gradecat` command lines.  One pass runs each of
them once through `gradecat.cli.main`; the gate checks the exit code and the
parsed JSON of every command against facts that hold for any correct
implementation, so later changes to search strategy or pretty-printing do not
need a benchmark edit.
"""

from __future__ import annotations

import copy
import random

# Fine gradings of each covered algebra, keyed by (k, division type, support
# torsion), with the Weyl group order where the seed computes one.  A value of
# None is a row whose W(Gamma_0) is out of reach today: it may gain a finite
# order later, but a row that has one must keep exactly that order.
EXPECTED_ROWS = {
    "M1R": {(1, "1-a", ()): 1},
    "M2R": {(2, "1-a", ()): 2, (1, "1-a", (2, 2)): 2},
    "H": {(1, "1-b", (2, 2)): 6},
    "M1C": {(1, "1-c", (2,)): 1},
    "M2C": {(2, "1-c", (2,)): 4, (1, "1-c", (2, 2, 2)): 6, (1, "1-d", (2, 4)): 4},
    "M3C": {(3, "1-c", (2,)): 24, (1, "2-f", (3, 3)): 48},
    "M4C": {
        (4, "1-c", (2,)): 192,
        (2, "1-c", (2, 2, 2)): 96,
        (2, "1-d", (2, 4)): 64,
        (1, "1-c", (2, 2, 2, 2, 2)): None,
        (1, "1-d", (2, 2, 2, 4)): None,
        (1, "2-f", (4, 4)): 96,
    },
}

SMALL_ALGEBRAS = ("M1R", "M2R", "H", "M1C", "M2C", "M3C")

# `verify --suite all` runs 97 checks at the seed; more is allowed, fewer is not.
MIN_VERIFY_CHECKS = 97

WORKLOADS = ("classify-m4c", "classify-small", "verify-all")


def inputs(workload: str, seed: int) -> list[list[str]]:
    """The command lines of one pass.  Same seed, same list."""
    if workload == "classify-m4c":
        return [["classify", "--algebra", "M4C", "--format", "json"]]
    if workload == "classify-small":
        # the seed only permutes the algebras: the work per pass is fixed,
        # the order in which lazy caches fill is not
        names = list(SMALL_ALGEBRAS)
        random.Random(seed).shuffle(names)
        return [["classify", "--algebra", name, "--format", "json"] for name in names]
    if workload == "verify-all":
        return [["verify", "--suite", "all", "--seed", str(seed), "--format", "json"]]
    raise ValueError(f"unknown workload {workload!r}; pick from {', '.join(WORKLOADS)}")


def check_command(argv: list[str], code: int, doc) -> list[tuple[str, bool]]:
    """Named checks of one command's exit code and parsed JSON output."""
    checks = [("exit-code-0", code == 0)]
    if argv[0] == "classify":
        checks += _check_classify(argv[argv.index("--algebra") + 1], doc)
    else:
        checks += _check_verify(doc)
    return checks


def _check_classify(algebra: str, doc) -> list[tuple[str, bool]]:
    expected = EXPECTED_ROWS[algebra]
    rows = doc.get("rows", []) if isinstance(doc, dict) else []
    checks = [(f"{algebra}/class-count", len(rows) == len(expected))]
    seen = set()
    for row in rows:
        k = row["k"]
        support = row["division"]["support"]
        key = (k, row["division"]["type"], tuple(support["torsion"]))
        seen.add(key)
        label = f"{algebra}/{key[1]}:k={k}:{'x'.join(map(str, key[2])) or '1'}"
        universal = row["universal"]
        checks.append((f"{label}/universal=Z^(k-1)xT",
                       support["free_rank"] == 0
                       and universal["free_rank"] == k - 1
                       and universal["torsion"] == support["torsion"]))
        order = row["weyl"]["finite_order"]
        pinned = expected.get(key)
        if pinned is None:
            ok = order is None or (isinstance(order, int) and order >= 1)
        else:
            ok = order == pinned
        checks.append((f"{label}/weyl-order", ok))
    checks.append((f"{algebra}/class-set", seen == set(expected)))
    return checks


def _check_verify(doc) -> list[tuple[str, bool]]:
    checks = doc.get("checks", []) if isinstance(doc, dict) else []
    return [
        ("verify/failed=0", doc.get("failed") == 0),
        ("verify/all-checks-pass",
         all(c["ok"] for c in checks) and doc.get("passed") == len(checks)),
        ("verify/full-check-count", len(checks) >= MIN_VERIFY_CHECKS),
    ]


def _mutations(argv: list[str]):
    """Corruptions of a correct (code, doc) pair that the gate must reject."""
    def bad_exit(code, doc):
        return 1, doc

    if argv[0] == "classify":
        def drop_row(code, doc):
            doc["rows"].pop()
            return code, doc

        def grow_universal(code, doc):
            doc["rows"][0]["universal"]["free_rank"] += 1
            return code, doc

        def change_weyl_order(code, doc):
            row = next(r for r in doc["rows"] if r["weyl"]["finite_order"] is not None)
            row["weyl"]["finite_order"] *= 2
            return code, doc

        return [bad_exit, drop_row, grow_universal, change_weyl_order]

    def fail_check(code, doc):
        doc["checks"][0]["ok"] = False
        doc["passed"] -= 1
        doc["failed"] += 1
        return code, doc

    def drop_check(code, doc):
        doc["checks"].pop()
        doc["passed"] -= 1
        return code, doc

    return [bad_exit, fail_check, drop_check]


def negative_controls(argv: list[str], code: int, doc) -> list[tuple[str, bool]]:
    """One check per corruption: ok when the gate trips on it."""
    results = []
    for mutate in _mutations(argv):
        bad_code, bad_doc = mutate(code, copy.deepcopy(doc))
        tripped = not all(ok for _, ok in check_command(argv, bad_code, bad_doc))
        results.append((f"negative-control/{argv[0]}/{mutate.__name__}", tripped))
    return results
