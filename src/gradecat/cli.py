"""Command-line front end.

    gradecat classify --algebra M4C [--format json|table]
    gradecat verify --suite all [--seed N] [--fixture dump.json] [--format text|json]
    gradecat universal --spec spec.json [--format json|table]
    gradecat catalog --entry 2-f:Z3xZ3 [--format json|table]

Exit codes: 0 all passed, 1 verification failure, 2 user error (bad input,
an uncovered algebra, an incompatible catalog request).  Any other exception
is a bug, or a question the library leaves undecided (NotImplementedError),
and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from functools import cache

from .abelian import AbelianGroup, GroupHomomorphism, exact_ints
from .classify import CoverageError, classify, rows_to_json, rows_to_table
from .division import CatalogError, CocycleError, canonical, parse_catalog_ref
from .matrix import GradingError, harvest_universal_group, component_count, matrix_algebra
from .structconst import (
    NO_WITNESS,
    NotInStabilizerError,
    NotInvertibleError,
    StructureConstantAlgebra,
    homogeneous_witness,
    is_graded_simple,
)
from .verify import SUITES, CheckResult, checks_report, run_suite


class UsageError(ValueError):
    """Bad input at the command line: an unknown suite, or a malformed spec
    or fixture file."""


def _cmd_classify(args) -> int:
    rows = classify(args.algebra)
    if args.format == "json":
        print(json.dumps(rows_to_json(rows, args.algebra), indent=2, ensure_ascii=False))
    else:
        print(rows_to_table(rows, args.algebra))
    return 0


def _cmd_verify(args) -> int:
    if args.fixture:
        report = _verify_fixture(args)
    elif args.suite != "all" and args.suite not in SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; pick from "
                         + ", ".join(list(SUITES) + ["all"]))
    else:
        report = run_suite(args.suite, seed=args.seed)
    if args.format == "json":
        print(json.dumps(report, indent=2, ensure_ascii=False))
    else:
        for check in report["checks"]:
            status = "PASS" if check["ok"] else "FAIL"
            tail = f"  {check['detail']}" if check["detail"] else ""
            print(f"{status}  {check['name']}{tail}")
        if not args.fixture:
            print(f"{report['passed']} passed, {report['failed']} failed")
    return 0 if report["failed"] == 0 else 1


def _verify_fixture(args) -> dict:
    """The report of the inner-automorphism checks on a structure-constant
    dump, as suite "fixture"."""
    data = _read_json("fixture", args.fixture)
    with _spec_values("fixture", args.fixture):
        algebra = StructureConstantAlgebra.from_json(data)
    checks = []
    simple = is_graded_simple(algebra)
    checks.append(CheckResult("graded-simple", simple))
    failures = 0
    if simple:
        tested = 0
        for i in range(algebra.dim):
            try:
                ok = homogeneous_witness(algebra, algebra.basis_element(i)) is not NO_WITNESS
            except NotInvertibleError:
                continue
            except NotInStabilizerError:
                ok = False
            tested += 1
            if not ok:
                failures += 1
        checks.append(CheckResult("homogeneous-units-witness",
                                  failures == 0, f"{tested} homogeneous units tested"))
    return checks_report("fixture", args.seed, checks)


def _unique_keys(pairs):
    """A JSON object as a dict, refusing a repeated key (`json` keeps the last)."""
    keys = [k for k, _ in pairs]
    if len(set(keys)) != len(keys):
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return dict(pairs)


def _read_json(what, path):
    """The JSON value of an input file; a file that cannot be opened, is not
    UTF-8 or is not JSON is a usage error, and so is an object with a repeated
    key.  `what` names the file's role, "spec" or "fixture"."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=_unique_keys)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise UsageError(f"unreadable {what} {path}: {err}") from err
    except ValueError as err:  # a repeated key
        raise UsageError(f"malformed {what} {path}: {err}") from err


@contextlib.contextmanager
def _spec_values(what, path):
    """Report a malformed value read from an input file as a usage error;
    `what` names the file's role, "spec" or "fixture"."""
    try:
        yield
    except UsageError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as err:
        raise UsageError(f"malformed {what} {path}: {err!r}") from err


def _matrix_shape(spec, support: AbelianGroup) -> dict:
    """The matrix_algebra keyword arguments of a grading spec; every number
    in it must be a JSON integer.  A spec is `D` with an optional `k`, or `D`,
    `G` and `gamma` with an `embed` (optional on a trivial support) and an
    optional `kappa`; any other key is a usage error."""
    keys = ("D", "G", "gamma", "embed", "kappa") if "G" in spec else ("D", "k")
    extra = next((key for key in spec if key not in keys), None)
    if extra is not None:
        raise UsageError(f"unexpected spec key {extra!r}: a spec is D with an optional k, "
                         "or D, G and gamma with an optional embed and kappa")
    if "G" not in spec:
        k = spec.get("k", 1)
        if type(k) is not int or k < 1:
            raise ValueError(f"k must be a positive integer, got {k!r}")
        return {"k": k}
    gamma_spec = spec.get("gamma")
    if gamma_spec is None:
        raise UsageError("a spec with an explicit G needs explicit gamma degrees")
    ambient = AbelianGroup.from_json(spec["G"])
    embed_spec = spec.get("embed")
    if embed_spec is None:
        if not support.is_trivial():
            raise UsageError("a spec with an explicit G on a nontrivial support needs "
                             "explicit embed images")
        embed_spec = []
    images = [ambient.element(coords) for coords in embed_spec]
    kappa = spec.get("kappa")
    return {
        "gamma": [ambient.element(coords) for coords in gamma_spec],
        "ambient": ambient,
        "embed": GroupHomomorphism(support, ambient, images),
        # checked here too, so that a bad multiplicity reads as a malformed spec
        "kappa": None if kappa is None else exact_ints(kappa, "multiplicity"),
    }


def _cmd_universal(args) -> int:
    spec = _read_json("spec", args.spec)
    with _spec_values("spec", args.spec):
        dref = spec["D"]
        if not isinstance(dref, str):
            tag, support = dref["type"], AbelianGroup.from_json(dref["support"])
    division = parse_catalog_ref(dref) if isinstance(dref, str) else canonical(tag, support)
    with _spec_values("spec", args.spec):
        shape = _matrix_shape(spec, division.support)
    algebra = matrix_algebra(division, **shape)
    group, _ = harvest_universal_group(algebra)
    payload = {
        "schema": 1,
        "universal": group.to_json(),
        "pretty": group.pretty(),
        "components": component_count(algebra),
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2, ensure_ascii=False))
    else:
        print(f"universal abelian group: {group.pretty()}")
        print(f"homogeneous components:  {payload['components']}")
    return 0


def _cmd_catalog(args) -> int:
    division = parse_catalog_ref(args.entry)
    data = division.to_json()
    if args.format == "json":
        print(json.dumps(data, indent=2, ensure_ascii=False))
    else:
        print(f"type:      {data['type_tag']}")
        print(f"support:   {division.support.pretty()}")
        print(f"kind:      {data['kind']}"
              + (f" (conductor {data['conductor']})" if "conductor" in data else ""))
        print(f"K index:   {division.support.order() // len(division.centralizer_elements())}")
        if "arf" in data:
            print(f"Arf:       {data['arf']:+d}")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parse_args fills a fresh Namespace on
    each call, so nothing carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="gradecat",
        description="fine gradings on real matrix algebras: tables, universal "
                    "groups, automorphism groups, verification suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="enumerate fine gradings up to equivalence")
    p_classify.add_argument("--algebra", required=True,
                            help="M(n,R) | M(n,C) | M(n,H) | M4C | H ...")
    p_classify.add_argument("--format", choices=("table", "json"), default="table")
    p_classify.set_defaults(func=_cmd_classify)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", default="all",
                          help="inner-aut | idempotents | squares | universal | "
                               "weyl | stab | properties | all")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--fixture", help="JSON structure-constant dump to check instead")
    p_verify.set_defaults(func=_cmd_verify)

    p_universal = sub.add_parser("universal",
                                 help="universal abelian group of a grading spec")
    p_universal.add_argument("--spec", required=True, help="JSON file describing M_k(D)")
    p_universal.add_argument("--format", choices=("table", "json"), default="table")
    p_universal.set_defaults(func=_cmd_universal)

    p_catalog = sub.add_parser("catalog", help="dump a canonical division grading")
    p_catalog.add_argument("--entry", required=True, help="e.g. 2-f:Z3xZ3 or 1-b:Z2^2")
    p_catalog.add_argument("--format", choices=("table", "json"), default="table")
    p_catalog.set_defaults(func=_cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CoverageError, CatalogError, CocycleError, GradingError, UsageError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
