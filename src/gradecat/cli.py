"""Command-line front end.

    gradecat classify --algebra M4C [--format json|table]
    gradecat verify --suite all [--seed N] [--fixture dump.json]
    gradecat universal --spec spec.json [--format json|table]
    gradecat catalog --entry 2-f:Z3xZ3 [--format json|table]

Exit codes: 0 all passed, 1 verification failure, 2 usage or coverage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .abelian import AbelianGroup, GroupHomomorphism
from .classify import CoverageError, classify, rows_to_json, rows_to_table
from .division import CatalogError, CocycleError, canonical, parse_catalog_ref
from .matrix import GradingError, harvest_universal_group, component_count, matrix_algebra
from .structconst import (
    NO_WITNESS,
    StructureConstantAlgebra,
    homogeneous_witness,
    int_in_stabilizer,
    invert,
    is_graded_simple,
)
from .verify import run_suite


def _cmd_classify(args) -> int:
    rows = classify(args.algebra)
    if args.format == "json":
        print(json.dumps(rows_to_json(rows, args.algebra), indent=2, ensure_ascii=False))
    else:
        print(rows_to_table(rows, args.algebra))
    return 0


def _cmd_verify(args) -> int:
    if args.fixture:
        return _verify_fixture(args)
    report = run_suite(args.suite, seed=args.seed)
    if args.format == "json":
        print(json.dumps(report, indent=2, ensure_ascii=False))
    else:
        for check in report["checks"]:
            status = "PASS" if check["ok"] else "FAIL"
            tail = f"  {check['detail']}" if check["detail"] else ""
            print(f"{status}  {check['name']}{tail}")
        print(f"{report['passed']} passed, {report['failed']} failed")
    return 0 if report["failed"] == 0 else 1


def _verify_fixture(args) -> int:
    """Run the inner-automorphism checks against a structure-constant dump."""
    with open(args.fixture, "r", encoding="utf-8") as handle:
        algebra = StructureConstantAlgebra.from_json(json.load(handle))
    checks = []
    simple = is_graded_simple(algebra)
    checks.append(("graded-simple", simple, ""))
    failures = 0
    if simple:
        tested = 0
        for i in range(algebra.dim):
            x = algebra.basis_element(i)
            if invert(x) is None:
                continue
            tested += 1
            ok = int_in_stabilizer(algebra, x) \
                and homogeneous_witness(algebra, x) is not NO_WITNESS
            if not ok:
                failures += 1
        checks.append(("homogeneous-units-witness",
                       failures == 0, f"{tested} homogeneous units tested"))
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        tail = f"  {detail}" if detail else ""
        print(f"{status}  {name}{tail}")
    return 0 if all(ok for _, ok, _ in checks) else 1


def _cmd_universal(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    dref = spec["D"]
    if isinstance(dref, str):
        division = parse_catalog_ref(dref)
    else:
        division = canonical(dref["type"], AbelianGroup.from_json(dref["support"]))
    gamma_spec = spec.get("gamma")
    if "G" in spec:
        if gamma_spec is None:
            raise GradingError("a spec with an explicit G needs explicit gamma degrees")
        ambient = AbelianGroup.from_json(spec["G"])
        gamma = [ambient.element(c) for c in gamma_spec]
        embed_spec = spec.get("embed")
        if embed_spec is None and division.support.is_trivial():
            embed = GroupHomomorphism(division.support, ambient, [])
        else:
            embed = GroupHomomorphism(
                division.support, ambient,
                [ambient.element(c) for c in embed_spec],
            )
        algebra = matrix_algebra(division, gamma=gamma, ambient=ambient, embed=embed,
                                 kappa=spec.get("kappa"))
    else:
        k = spec.get("k", len(gamma_spec) if gamma_spec else 1)
        algebra = matrix_algebra(division, k=k)
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


def build_parser() -> argparse.ArgumentParser:
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
    except (CoverageError, CatalogError, CocycleError, GradingError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (FileNotFoundError, KeyError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
