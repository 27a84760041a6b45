"""Acceptance suite: one test per criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import random
from fractions import Fraction

import pytest

from gradecat.abelian import AbelianGroup, compose
from gradecat.autgroups import (
    AutTriple,
    DivisionAutomorphism,
    triple_apply,
    triple_product,
    weyl_division,
)
from gradecat.classify import classify
from gradecat.division import (
    CocycleError,
    CoefficientKind,
    arf,
    build_crossed_product,
    canonical,
    quadratic_form,
)
from gradecat.matrix import matrix_algebra
from gradecat.verify import (
    suite_idempotents,
    suite_inner_aut,
    suite_properties,
    suite_squares,
    suite_universal,
)

Z = AbelianGroup


def _report(num, label, ok):
    print(f"[criterion {num:2}] {'PASS' if ok else 'FAIL'}  {label}")
    assert ok, f"criterion {num} failed: {label}"


@pytest.fixture(scope="module")
def tables():
    return {name: classify(name) for name in ("M(2,R)", "H", "M(2,C)", "M(3,C)", "M(4,C)")}


def test_criterion_1_m4c_table(tables):
    rows = tables["M(4,C)"]
    expected = [
        Z(3, (2,)),
        Z(1, (2, 2, 2)),
        Z(1, (2, 4)),
        Z(0, (2, 2, 2, 2, 2)),
        Z(0, (2, 2, 2, 4)),
        Z(0, (4, 4)),
    ]
    ok = (
        len(rows) == 6
        and [r.universal for r in rows] == expected
        and rows[5].flags == ("complex grading",)
        and all(r.flags == () for r in rows[:5])
    )
    _report(1, "M_4(C): 6 rows, universal groups, complex flag on Z4^2", ok)


def test_criterion_2_m2r_table(tables):
    rows = tables["M(2,R)"]
    ok = len(rows) == 2
    ok = ok and rows[0].universal == Z(1, ()) and rows[1].universal == Z(0, (2, 2))
    ok = ok and rows[0].weyl_finite_order == 2 and rows[0].weyl_identified == "Z2"
    ok = ok and rows[1].weyl_finite_order == 2 and rows[1].weyl_identified == "Z2"
    ok = ok and rows[0].stabilizer.pretty() == "R^x"
    ok = ok and rows[1].stabilizer.normalized().group == Z(0, (2, 2))
    _report(2, "M_2(R): 2 rows, Weyl Sym(2)=Z2 and Z2, stab R^x and Z2^2", ok)


def test_criterion_3_quaternion_table(tables):
    rows = tables["H"]
    ok = len(rows) == 1
    row = rows[0]
    ok = ok and row.universal == Z(0, (2, 2))
    ok = ok and row.weyl_finite_order == 6 and row.weyl_identified == "Sym(3)"
    ok = ok and row.stabilizer.normalized().group == Z(0, (2, 2))
    # nonabelian order 6: witnessed by the brute-forced element list
    elems, _ = weyl_division(row.division)
    nonabelian = any(
        compose(f, g) != compose(g, f) for f in elems for g in elems
    )
    ok = ok and len(elems) == 6 and nonabelian
    _report(3, "H: 1 row, Weyl Sym(3) (order 6, nonabelian), stab Z2^2", ok)


def test_criterion_4_m2c_table(tables):
    rows = tables["M(2,C)"]
    ok = len(rows) == 3
    ok = ok and [r.universal for r in rows] == [Z(1, (2,)), Z(0, (2, 2, 2)), Z(0, (2, 4))]
    ok = ok and [r.weyl_identified for r in rows] == ["Z2^2", "Sym(3)", "Z2^2"]
    ok = ok and [r.weyl_finite_order for r in rows] == [4, 6, 4]
    ok = ok and rows[0].stabilizer.pretty() == "R^x × Z2"
    ok = ok and rows[1].stabilizer.normalized().group == Z(0, (2, 2, 2))
    ok = ok and rows[2].stabilizer.normalized().group == Z(0, (2, 2))
    _report(4, "M_2(C): 3 rows with the expected universal/Weyl/stabilizer data", ok)


def test_criterion_5_m3c_table(tables):
    rows = tables["M(3,C)"]
    ok = len(rows) == 2
    # row 1: Weyl = Z2^2 >| Sym(3) of finite order 24, identified Sym(4)
    ok = ok and rows[0].weyl_finite_order == 24 and rows[0].weyl_identified == "Sym(4)"
    ok = ok and rows[0].weyl.pretty() == "Z2^2 ⋊ Sym(3)"
    # row 2: GL(2,3) of order 48, brute-forced from Aut(Z3^2)
    elems, _ = weyl_division(rows[1].division)
    ok = ok and len(elems) == 48 and rows[1].weyl_identified == "GL(2,3)"
    ok = ok and rows[0].stabilizer.pretty() == "(R^x)^2 × Z2"
    ok = ok and rows[1].stabilizer.normalized().group == Z(0, (3, 3))
    _report(5, "M_3(C): Weyl Sym(4) (24) and GL(2,3) (48), stab (R^x)^2 x Z2 and Z3^2", ok)


def test_criterion_6_inner_automorphism_suite():
    checks = suite_inner_aut(seed=0)
    failed = [c for c in checks if not c.ok]
    sample = next(c for c in checks if c.name == "inner-aut/sample-size")
    fixtures = next(c for c in checks if c.name == "inner-aut/fixtures")
    ok = not failed and sample.ok and fixtures.ok
    _report(6, "inner-automorphism theorem on >= 5 fixtures, >= 100 samples, "
               "plus the quaternion-pair counterexample", ok)


def test_criterion_7_idempotent_counts():
    checks = suite_idempotents()
    ok = all(c.ok for c in checks)
    _report(7, "2^k homogeneous idempotents, k primitive, for k = 1..5", ok)


def test_criterion_8_squares_dichotomy():
    checks = suite_squares()
    ok = all(c.ok for c in checks)
    _report(8, "squares dichotomy holds on every fine-condition fixture", ok)


def test_criterion_9_universal_groups():
    checks = suite_universal()
    ok = all(c.ok for c in checks)
    _report(9, "universal groups equal Z^(k-1) x T; component counts (k^2-k+1)|T|", ok)


def test_criterion_10_triple_correspondence():
    rng = random.Random(2024)
    cases = [
        (canonical("1-b", "Z2xZ2"), 2),   # |T| = 4
        (canonical("1-d", "Z2xZ4"), 2),   # |T| = 8
        (canonical("1-c", "Z2"), 3),      # k = 3
    ]
    ok = True
    for d, k in cases:
        r = matrix_algebra(d, k=k)
        basis = [
            r.basis_element(i, j, t)
            for i in range(k) for j in range(k) for t in d.elements()
        ]
        for _ in range(5):
            t1 = _random_triple(r, rng)
            t2 = _random_triple(r, rng)
            prod = triple_product(t1, t2)
            for x in basis:
                if triple_apply(prod, x) != triple_apply(t1, triple_apply(t2, x)):
                    ok = False
    # gauge invariance for 50 seeded gauge elements
    d = canonical("1-b", "Z2xZ2")
    r = matrix_algebra(d, k=2)
    basis = [
        r.basis_element(i, j, t)
        for i in range(2) for j in range(2) for t in d.elements()
    ]
    elems = list(d.elements())
    for _ in range(50):
        triple = _random_triple(r, rng)
        gauge = d.unit(rng.choice(elems), rng.choice([1, -1, Fraction(5, 3)]))
        moved = triple.gauge(gauge)
        for x in basis:
            if triple_apply(moved, x) != triple_apply(triple, x):
                ok = False
    _report(10, "triple functoriality (k <= 3, |T| <= 8) and gauge invariance (50 seeds)", ok)


def _random_triple(r, rng):
    d = r.division
    elems = list(d.elements())
    diag = [d.one()]
    for _ in range(r.k - 1):
        diag.append(d.unit(rng.choice(elems), rng.choice([1, -1, Fraction(2)])))
    perm = list(range(r.k))
    rng.shuffle(perm)
    hom_signs = [rng.choice([1, -1]) for _ in d.support.torsion]
    chi = {}
    for t in elems:
        sign = 1
        for c, s in zip(t.coords, hom_signs):
            if c % 2:
                sign *= s
        chi[t] = sign
    psi0 = DivisionAutomorphism.from_character(d, chi)
    return AutTriple(r, diag, perm, psi0)


def test_properties_reports_a_failed_export(monkeypatch):
    import gradecat.verify as verify

    def broken(d):
        raise ValueError("associativity fails at triple (0, 1, 2)")

    monkeypatch.setattr(verify, "from_division", broken)
    check = next(c for c in suite_properties() if c.name.startswith("properties/assoc+beta/"))
    assert not check.ok and check.detail == "associativity fails at triple (0, 1, 2)"


def test_criterion_11_property_suites():
    checks = suite_properties()
    ok = all(c.ok for c in checks)

    # cocycle identity <-> associativity, both directions, |T| <= 16
    for tag, support in (("1-a", "Z2^4"), ("2-f", "Z4^2")):
        d = canonical(tag, support)
        elems = list(d.elements())
        for u in elems:
            for v in elems:
                for w in elems:
                    xu, xv, xw = d.unit(u), d.unit(v), d.unit(w)
                    if (xu * xv) * xw != xu * (xv * xw):
                        ok = False
    # a broken cocycle is rejected with a witness triple
    g = AbelianGroup(0, (2, 2))
    sigma = {(u, v): 1 for u in g.elements() for v in g.elements()}
    a, b = g.element((1, 0)), g.element((0, 1))
    sigma[(a, b)] = -1
    sigma[(a, a + b)] = -1  # breaks the cocycle identity somewhere
    try:
        build_crossed_product(g, CoefficientKind.real(), set(), sigma)
        ok = False
    except CocycleError:
        pass

    # pinned Arf values
    ok = ok and arf(quadratic_form(canonical("1-b", "Z2xZ2"))) == -1
    ok = ok and arf(quadratic_form(canonical("1-a", "Z2xZ2"))) == 1
    _report(11, "property suites: cocycle<->associativity, bicharacter laws, "
                "Quad torsor, Arf values", ok)
