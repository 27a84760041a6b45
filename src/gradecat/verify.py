"""Named verification suites driving the property checks of every module.

Each suite returns a list of CheckResult values; `run_suite` wraps them in a
machine-readable report (schema 1), built by `checks_report`, which also
reports `gradecat verify --fixture`.  The same functions back the
acceptance tests and the `gradecat verify` command.  Each algebra the suites
check is built once per process by `fixture`, so a later pass reads the
inverses and centres that an earlier one found.  An M_k(D) fixture is the
one `matrix_algebra` keeps on its catalog entry, the instance that
`classify` and `from_division` read as well.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .abelian import AbelianGroup, character_group
from .autgroups import (
    DirectProduct,
    FiniteAbelian,
    Torus,
    descriptors_equal,
    diag_descriptor,
    stab_descriptor,
    stab_division,
    weyl_descriptor,
    weyl_division,
    weyl_model,
)
from .division import canonical, commutation_bicharacter, quad_forms, quadratic_form, arf
from .matrix import (
    NONZERO_SQUARES,
    component_count,
    expected_component_count,
    expected_universal_group,
    harvest_universal_group,
    homogeneous_idempotents,
    matrix_algebra,
    squares_profile,
    to_structure_constants,
)
from .structconst import (
    NO_WITNESS,
    NotInStabilizerError,
    _component_units,
    center_basis,
    from_division,
    group_algebra,
    homogeneous_witness,
    hxh_counterexample,
    inner_stabilizer_quotient,
    int_in_stabilizer,
    is_graded_simple,
    scaled_inverse,
)
from .records import Record


class CheckResult(Record):
    __slots__ = ("name", "ok", "detail")
    _defaults = {"detail": ""}


# label -> (catalog tag, support, k) of M_k(D), or (None, torsion, None) of Q[T]
_FIXTURES = {
    **{f"M{k}R-split": ("1-a", "1", k) for k in range(1, 6)},
    "M2R-1a": ("1-a", "Z2xZ2", 1), "H-1b": ("1-b", "Z2xZ2", 1),
    "M2C-k2-1c": ("1-c", "Z2", 2), "M3C-k3-1c": ("1-c", "Z2", 3), "M2C-1c": ("1-c", "Z2^3", 1),
    "M2C-1d": ("1-d", "Z2xZ4", 1), "M2C-2e": ("2-e", "Z4", 1), "M3C-2f": ("2-f", "Z3^2", 1),
    "M2C-2f-coarse": ("2-f", "Z2^2", 1), "M4C-k2-2f-coarse": ("2-f", "Z2^2", 2),
    "Q[Z4]": (None, (4,), None), "Q[Z2^2]": (None, (2, 2), None),
}


@functools.cache
def fixture(label: str, *, exact: bool = False):
    """The M_k(D) of a label, the one kept on its catalog entry, or with
    `exact` its structure constants (the export kept on D when k = 1),
    built once per process and not changed."""
    tag, support, k = _FIXTURES[label]
    if not exact:
        return matrix_algebra(canonical(tag, support), k=k)
    if tag is None:
        return group_algebra(AbelianGroup(0, support))
    return from_division(canonical(tag, support)) if k == 1 \
        else to_structure_constants(fixture(label))


def matrix_fixtures():
    """Matrix gradings satisfying the fine condition, used across suites."""
    return [(label, fixture(label)) for label in (
        "M2R-split", "M2R-1a", "H-1b", "M2C-k2-1c", "M2C-1d", "M3C-k3-1c", "M3C-2f",
        "M2C-2f-coarse")]


def graded_simple_fixtures():
    """Exact graded-simple algebras for the inner-automorphism theorem."""
    return [(label, fixture(label, exact=True)) for label in (
        "M2R-1a", "H-1b", "M2C-1d", "M2C-2e", "M3C-2f", "M2R-split", "Q[Z4]", "Q[Z2^2]")]


def _homogeneous_unit_pool(a):
    return [x for indices in a.basis_degrees_by_component().values()
            for x in _component_units(a, indices)]


def _central_unit_pool(a, rng):
    """The unity, then every invertible one of 30 random integer combinations
    of the centre basis, in the order drawn.  A combination is summed on
    coordinates, a coordinate dropped as soon as it cancels, so it has the
    coordinates, in the same order, of the sum of `AlgebraElement` multiples
    that it replaces.  A combination that is a rational multiple of one
    drawn before, a repeat included, is not solved again: `scaled_inverse`
    keeps each inverse on the algebra under its primitive coordinates, so a
    1-dimensional centre costs at most one solve."""
    centre = [z.coords for z in center_basis(a)]
    pool = [a.one()]
    for _ in range(30):
        coords: dict = {}
        for basis_el in centre:
            c = rng.randint(-3, 3)
            for i, v in basis_el.items():
                if x := coords.get(i, 0) + c * v:
                    coords[i] = x
                else:
                    coords.pop(i, None)
        if coords:
            z = a.element(coords)
            if scaled_inverse(z) is not None:
                pool.append(z)
    return pool


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_inner_aut(seed: int = 0):
    import random  # only the seeded sampling needs it; a CLI start does not

    checks = []
    rng = random.Random(seed)
    fixtures = graded_simple_fixtures()
    checks.append(CheckResult(
        "inner-aut/fixtures", len(fixtures) >= 5, f"{len(fixtures)} graded-simple fixtures"))
    sampled = 0
    multi_component = 0
    for label, a in fixtures:
        checks.append(CheckResult(f"inner-aut/graded-simple/{label}", is_graded_simple(a)))
        units = _homogeneous_unit_pool(a)
        central = _central_unit_pool(a, rng)
        ok = True
        detail = ""
        for _ in range(14):  # conjugators per fixture
            x = rng.choice(central) * rng.choice(units)
            scale = Fraction(rng.choice([1, 2, -1, 3]), rng.choice([1, 2]))
            x = scale * x
            sampled += 1
            components = x.homogeneous_components()
            if len(components) >= 2:
                multi_component += 1
            try:
                witnesses = homogeneous_witness(a, x)
            except NotInStabilizerError:
                ok = False
                detail = "Int(x) left the stabilizer"
                break
            if witnesses is NO_WITNESS or len(witnesses) != len(components):
                ok = False
                detail = "a homogeneous component failed to witness Int(x)"
                break
        checks.append(CheckResult(f"inner-aut/theorem/{label}", ok, detail))
    checks.append(CheckResult(
        "inner-aut/sample-size", sampled >= 100, f"{sampled} sampled conjugators"))
    checks.append(CheckResult(
        "inner-aut/multi-component-samples", multi_component >= 10,
        f"{multi_component} conjugators with >= 2 homogeneous components"))

    report = hxh_counterexample()
    checks.append(CheckResult("inner-aut/hxh/not-graded-simple", not report.graded_simple))
    checks.append(CheckResult("inner-aut/hxh/int-ii-stabilizes", report.int_ii_stabilizes))
    checks.append(CheckResult(
        "inner-aut/hxh/invertible-homogeneous-central",
        report.invertible_homogeneous_all_central))

    # hypothesis-class sanity: a generic unit may fall outside the stabilizer
    a = dict(fixtures)["M2R-split"]
    e12 = next(a.basis_element(i) for i in range(a.dim) if a.labels[i].startswith("E[0,1]"))
    x = a.one() + e12
    checks.append(CheckResult(
        "inner-aut/negative-control", not int_in_stabilizer(a, x),
        "Int(I + E12) must move components of the fine Z-grading"))
    return checks


def suite_idempotents():
    checks = []
    for k in range(1, 6):
        all_idem, primitive = homogeneous_idempotents(fixture(f"M{k}R-split"))
        checks.append(CheckResult(
            f"idempotents/k={k}",
            len(all_idem) == 2 ** k and len(primitive) == k,
            f"{len(all_idem)} idempotents, {len(primitive)} primitive"))
    all_idem, primitive = homogeneous_idempotents(fixture("M4C-k2-2f-coarse"))
    checks.append(CheckResult(
        "idempotents/complex-coefficients",
        len(all_idem) == 4 and len(primitive) == 2,
        "division coefficient rings only admit 0/1 diagonal idempotents"))
    return checks


def suite_squares():
    checks = []
    for label, r in matrix_fixtures():
        try:
            profile = squares_profile(r)
            k = r.k
            ok = (
                len(profile) == k * k - k + 1
                and sum(1 for v in profile.values() if v == NONZERO_SQUARES) == 1
            )
            detail = f"{len(profile)} support classes"
        except Exception as err:  # squares_profile raises on any violation
            ok = False
            detail = str(err)
        checks.append(CheckResult(f"squares/{label}", ok, detail))
    return checks


def suite_universal():
    checks = []
    for label, r in matrix_fixtures():
        group, _ = harvest_universal_group(r)
        expected = expected_universal_group(r)
        checks.append(CheckResult(
            f"universal/{label}", group == expected,
            f"{group.pretty()} vs Z^(k-1) x T = {expected.pretty()}"))
        count = component_count(r)
        checks.append(CheckResult(
            f"components/{label}", count == expected_component_count(r),
            f"{count} components"))
    return checks


def suite_weyl():
    checks = []
    division_cases = [
        ("1-a", "Z2xZ2", 2, "Z2"),
        ("1-b", "Z2xZ2", 6, "Sym(3)"),
        ("1-c", "Z2^3", 6, "Sym(3)"),
        ("1-d", "Z2xZ4", 4, "Z2^2"),
        ("2-f", "Z3^2", 48, "GL(2,3)"),
    ]
    for tag, support, order, name in division_cases:
        # the order and the name of the census that `weyl_division` kept
        w0 = weyl_division(canonical(tag, support))[1]
        got_order, got = w0.finite_part_order(), w0.pretty()
        checks.append(CheckResult(
            f"weyl/division/{tag}:{support}",
            got_order == order and got == name,
            f"order {got_order}, identified {got}"))
    for label, order, name in [
        ("M2R-split", 2, "Z2"), ("M2C-k2-1c", 4, "Z2^2"), ("M3C-k3-1c", 24, "Sym(4)"),
    ]:
        r = fixture(label)
        model = weyl_model(r)
        descriptor_order = weyl_descriptor(r).finite_part_order()
        w0_order = math.prod(map(len, weyl_division(r.division)[0]))
        recomputed = (r.division.support.order() ** (r.k - 1)) \
            * math.factorial(r.k) * w0_order
        checks.append(CheckResult(
            f"weyl/matrix/{label}",
            model.order() == order == descriptor_order == recomputed
            and model.identify() == name,
            f"order {model.order()}, identified {model.identify()}"))
    return checks


def suite_stab():
    checks = []
    z2 = AbelianGroup(0, (2,))
    z2xz2 = AbelianGroup(0, (2, 2))
    for label, expected in [
        ("M2R-split", Torus("Rx")), ("M2R-1a", FiniteAbelian(z2xz2)),
        ("H-1b", FiniteAbelian(z2xz2)),
        ("M2C-k2-1c", DirectProduct((Torus("Rx"), FiniteAbelian(z2)))),
        ("M2C-1c", FiniteAbelian(AbelianGroup(0, (2, 2, 2)))), ("M2C-1d", FiniteAbelian(z2xz2)),
        ("M3C-k3-1c", DirectProduct((Torus("Rx"), Torus("Rx"), FiniteAbelian(z2)))),
        ("M3C-2f", FiniteAbelian(AbelianGroup(0, (3, 3)))),
    ]:
        r = fixture(label)
        got = stab_descriptor(r)
        checks.append(CheckResult(
            f"stab/{label}", descriptors_equal(got, expected),
            f"{got.pretty()} vs {expected.pretty()}"))
        if r.division.kind.dim == 1:
            checks.append(CheckResult(
                f"stab-equals-diag/{label}",
                descriptors_equal(got, diag_descriptor(r)),
                "dim D_e = 1 forces Stab = Diag"))
    # types whose stabilizer automorphisms are all inner: the finite part is
    # realized by conjugations with homogeneous units
    inner_cases = [
        ("1-d", "Z2xZ4"),
        ("2-d", "Z2^2xZ4"),
        ("2-e", "Z4"),
        ("3-d", "Z2xZ4"),
        ("2-f", "Z3^2"),
    ]
    for tag, support in inner_cases:
        d = canonical(tag, support)
        quotient, gens = inner_stabilizer_quotient(from_division(d))
        stab = stab_division(d)
        finite = stab
        if hasattr(stab, "acting"):
            finite = stab.acting
        elif isinstance(stab, DirectProduct):
            finite = next(f for f in stab.factors if isinstance(f, FiniteAbelian))
        ok = isinstance(finite, FiniteAbelian) and finite.group == quotient
        checks.append(CheckResult(
            f"stab/inner-witness/{tag}:{support}", ok,
            f"inner quotient {quotient.pretty()}, descriptor part {finite.pretty()}"))
    return checks


def suite_properties():
    """Associativity (Light's test in `from_division`, independent of the
    overlap check), bicharacter laws, Quad torsor, Arf values."""
    checks = []
    refs = [
        ("1-a", "Z2xZ2"), ("1-a", "Z2^4"), ("1-b", "Z2xZ2"), ("1-c", "Z2^3"),
        ("1-d", "Z2xZ4"), ("2-a", "Z2"), ("2-b", "Z2"), ("2-e", "Z4"),
        ("2-f", "Z3^2"), ("2-f", "Z4^2"), ("3-b", "Z2xZ2"),
    ]
    for tag, support in refs:
        d = canonical(tag, support)
        try:
            from_division(d)
            ok, detail = True, ""
        except ValueError as err:
            ok, detail = False, str(err)
        beta = commutation_bicharacter(d)  # validates alternation and bimultiplicativity
        checks.append(CheckResult(
            f"properties/assoc+beta/{tag}:{support}", ok and beta is not None, detail))
    for tag, support, expected in [("1-b", "Z2xZ2", -1), ("1-a", "Z2xZ2", 1)]:
        d = canonical(tag, support)
        checks.append(CheckResult(
            f"properties/arf/{tag}", arf(quadratic_form(d)) == expected,
            f"Arf = {arf(quadratic_form(d))}"))
    for tag, support in [("1-a", "Z2xZ2"), ("1-b", "Z2xZ2"), ("1-a", "Z2^4")]:
        d = canonical(tag, support)
        beta = commutation_bicharacter(d)
        forms = quad_forms(d.support, beta)
        hom_order = character_group(d.support, 2).order()
        torsor_ok = len(forms) == hom_order and quadratic_form(d) in forms
        checks.append(CheckResult(
            f"properties/quad-torsor/{tag}:{support}", torsor_ok,
            f"|Quad| = {len(forms)}, |Hom(T, +-1)| = {hom_order}"))
    return checks


SUITES = {
    "inner-aut": lambda seed: suite_inner_aut(seed),
    "idempotents": lambda seed: suite_idempotents(),
    "squares": lambda seed: suite_squares(),
    "universal": lambda seed: suite_universal(),
    "weyl": lambda seed: suite_weyl(),
    "stab": lambda seed: suite_stab(),
    "properties": lambda seed: suite_properties(),
}


def run_suite(name: str, seed: int = 0) -> dict:
    if name == "all":
        checks = []
        for key in SUITES:
            checks.extend(SUITES[key](seed))
    elif name in SUITES:
        checks = SUITES[name](seed)
    else:
        raise ValueError(f"unknown suite {name!r}; pick from "
                         + ", ".join(list(SUITES) + ["all"]))
    return checks_report(name, seed, checks)


def checks_report(name: str, seed: int, checks) -> dict:
    """The schema-1 report of a list of CheckResult values."""
    return {
        "schema": 1,
        "suite": name,
        "seed": seed,
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
        "passed": sum(1 for c in checks if c.ok),
        "failed": sum(1 for c in checks if not c.ok),
    }
