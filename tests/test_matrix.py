import itertools
from fractions import Fraction

import pytest

from gradecat.abelian import AbelianGroup, GroupHomomorphism
from gradecat.division import canonical
from gradecat.matrix import (
    GradingError,
    NONZERO_SQUARES,
    ZERO_SQUARES,
    component_count,
    expected_component_count,
    expected_universal_group,
    equivalent_gradings,
    fine_condition,
    harvest_universal_group,
    homogeneous_idempotents,
    is_fine,
    matrix_algebra,
    squares_profile,
    to_structure_constants,
)
from gradecat.structconst import is_graded_simple

TRIVIAL_R = canonical("1-a", AbelianGroup.trivial())


def m2_over_z() -> "GradedMatrixAlgebra":
    return matrix_algebra(TRIVIAL_R, k=2)


def test_degree_formula():
    r = m2_over_z()
    e = r.division.support.zero()
    assert r.degree_of(0, 0, e).is_zero()
    # gamma = (0, 1) in Z: E_12 has degree -1, E_21 degree +1
    assert r.degree_of(0, 1, e).coords == (-1,)
    assert r.degree_of(1, 0, e).coords == (1,)


def test_degree_formula_division_factor():
    d = canonical("2-f", "Z3^2")
    r = matrix_algebra(d, k=1)
    t = d.support.element((1, 2))
    assert r.degree_of(0, 0, t).coords == (1, 2)


def test_degree_errors():
    r = m2_over_z()
    e = r.division.support.zero()
    with pytest.raises(GradingError):
        r.degree_of(0, 2, e)
    with pytest.raises(GradingError):
        r.degree_of(0, 0, AbelianGroup(0, (2,)).element((1,)))


def test_fine_condition_multiplicity_witness():
    ambient = AbelianGroup(1, ())
    embed = GroupHomomorphism(AbelianGroup.trivial(), ambient, [])
    r = matrix_algebra(TRIVIAL_R, gamma=[ambient.zero()], ambient=ambient,
                       embed=embed, kappa=[2])
    res = fine_condition(r.params)
    assert not res
    assert res.witness[0] == "multiplicity"


def test_fine_condition_holds_for_canonical_gamma():
    assert fine_condition(m2_over_z().params)


def test_fine_condition_difference_witness():
    # G = Z2, T = 0, gamma = (0, 1): g1 - g2 = g2 - g1
    ambient = AbelianGroup(0, (2,))
    embed = GroupHomomorphism(AbelianGroup.trivial(), ambient, [])
    r = matrix_algebra(TRIVIAL_R, gamma=[ambient.zero(), ambient.element((1,))],
                       ambient=ambient, embed=embed)
    res = fine_condition(r.params)
    assert not res
    assert res.witness[0] == "difference"


def test_fine_condition_2g_in_t():
    # gamma = (e, g) with 2g in the embedded support but g outside it
    d = canonical("1-a", "Z2xZ2")
    t = d.support
    ambient = AbelianGroup(0, (2, 2, 4))
    images = [ambient.element((1, 0, 0)), ambient.element((0, 0, 2))]
    embed = GroupHomomorphism(t, ambient, images)
    gamma = [ambient.zero(), ambient.element((0, 0, 1))]
    r = matrix_algebra(d, gamma=gamma, ambient=ambient, embed=embed)
    res = fine_condition(r.params)
    assert not res and res.witness[0] == "difference"


def test_is_fine():
    assert is_fine(m2_over_z())
    assert is_fine(matrix_algebra(canonical("1-c", "Z2"), k=4))
    assert not is_fine(matrix_algebra(canonical("2-f", "Z2^2"), k=2))


def test_multiply_matrix_units():
    r = m2_over_z()
    e = r.division.support.zero()
    e12 = r.basis_element(0, 1, e)
    e21 = r.basis_element(1, 0, e)
    e11 = r.basis_element(0, 0, e)
    assert e12 * e21 == e11
    assert (e12 * e12).is_zero()


def test_multiply_crossed_product_law():
    d = canonical("1-b", "Z2xZ2")
    r = matrix_algebra(d, k=2)
    u = d.support.element((1, 0))
    v = d.support.element((0, 1))
    x = r.basis_element(0, 0, u)
    y = r.basis_element(0, 0, v)
    prod = x * y
    entry = prod.entries[(0, 0)]
    assert entry == d.unit(u) * d.unit(v)


@pytest.mark.parametrize("ref,k", [("1-c:Z2", 3), ("1-d:Z2xZ4", 2), ("1-b:Z2xZ2", 2)])
def test_homogeneity_of_products_exhaustive(ref, k):
    from gradecat.division import parse_catalog_ref

    d = parse_catalog_ref(ref)
    r = matrix_algebra(d, k=k)
    elems = list(d.elements())
    basis = [
        r.basis_element(i, j, t)
        for i in range(k) for j in range(k) for t in elems
    ]
    for x in basis:
        for y in basis:
            z = x * y
            assert z.is_homogeneous()
            if not z.is_zero():
                (dx,) = x.support_degrees()
                (dy,) = y.support_degrees()
                (dz,) = z.support_degrees()
                assert dz == dx + dy


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_idempotent_counts(k):
    r = matrix_algebra(TRIVIAL_R, k=k)
    all_idem, primitive = homogeneous_idempotents(r)
    assert len(all_idem) == 2 ** k
    assert len(primitive) == k


def test_idempotent_counts_complex_coefficients():
    # dim D_e = 2: the identity component still only has 0/1 diagonals
    r = matrix_algebra(canonical("2-f", "Z2^2"), k=2)
    all_idem, primitive = homogeneous_idempotents(r)
    assert len(all_idem) == 4
    assert len(primitive) == 2


def test_graded_simple_matrix_and_pauli():
    pauli = matrix_algebra(canonical("1-a", "Z2xZ2"), k=1)
    assert is_graded_simple(to_structure_constants(pauli))
    assert is_graded_simple(to_structure_constants(m2_over_z()))


def test_squares_profile():
    d = canonical("1-c", "Z2")
    r = matrix_algebra(d, k=2)
    profile = squares_profile(r)
    diag = r.params._coset_key(r.ambient.zero())
    assert profile[diag] == NONZERO_SQUARES
    off = r.params._coset_key(r.gamma[0] - r.gamma[1])
    assert profile[off] == ZERO_SQUARES
    values = list(profile.values())
    assert values.count(NONZERO_SQUARES) == 1


def test_squares_profile_division_algebra():
    r = matrix_algebra(canonical("1-b", "Z2xZ2"), k=1)
    profile = squares_profile(r)
    assert set(profile.values()) == {NONZERO_SQUARES}


def test_equivalent_gradings():
    a = matrix_algebra(canonical("1-c", "Z2"), k=2)
    b = matrix_algebra(canonical("1-c", "Z2"), k=2)
    c = matrix_algebra(canonical("1-c", "Z2^3"), k=1)
    assert equivalent_gradings(a, b)
    assert equivalent_gradings(a, a)
    assert not equivalent_gradings(a, c)


def test_universal_group_formula():
    cases = [
        (TRIVIAL_R, 2, AbelianGroup(1, ())),
        (canonical("2-f", "Z3^2"), 1, AbelianGroup(0, (3, 3))),
        (canonical("1-c", "Z2"), 2, AbelianGroup(1, (2,))),
        (canonical("1-d", "Z2xZ4"), 2, AbelianGroup(1, (2, 4))),
        (canonical("1-b", "Z2xZ2"), 3, AbelianGroup(2, (2, 2))),
    ]
    for d, k, expected in cases:
        r = matrix_algebra(d, k=k)
        group, projection = harvest_universal_group(r)
        assert group == expected
        assert group == expected_universal_group(r)
        # the projection respects every harvested relation by construction;
        # check that distinct components got distinct universal degrees
        assert len({p.coords for p in projection.values()}) == len(projection)


def test_component_count():
    for d, k in [(TRIVIAL_R, 3), (canonical("1-c", "Z2"), 2), (canonical("1-b", "Z2xZ2"), 2)]:
        r = matrix_algebra(d, k=k)
        assert component_count(r) == expected_component_count(r)


def test_matrix_export_products_agree():
    r = matrix_algebra(canonical("1-c", "Z2"), k=2)
    a = to_structure_constants(r)
    assert a.dim == 4 * 2
    assert is_graded_simple(a)


# ---------------------------------------------------------------------------
# the eight-matrix fixture: a Z2-grading on M_2(R) and its two refinements
# ---------------------------------------------------------------------------

def _vec(m):
    return (m[0][0], m[0][1], m[1][0], m[1][1])


def _mmul(a, b):
    return [[a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
            [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]]]


def _span_contains(span_vectors, v):
    # exact rational membership via Gaussian elimination
    rows = [list(s) for s in span_vectors]
    target = list(v)
    for col in range(4):
        pivot = next((r for r in rows if r[col] and max(map(abs, r[:col]), default=0) == 0), None)
        if pivot is None:
            continue
        if target[col]:
            c = target[col] / pivot[col]
            target = [x - c * y for x, y in zip(target, pivot)]
    return not any(target)


def test_eight_matrix_refinements():
    one = Fraction(1)
    half = Fraction(1, 2)
    ident = [[one, 0], [0, one]]
    xa = [[0, one], [one, 0]]
    xb = [[-one, 0], [0, one]]
    xc = [[0, -one], [one, 0]]
    e11 = [[half, half], [half, half]]
    e12 = [[-half, half], [-half, half]]
    e21 = [[-half, -half], [half, half]]
    e22 = [[half, -half], [-half, half]]

    # the coarse Z2-grading has two components, written in both bases
    coarse = [
        [_vec(ident), _vec(xa)],
        [_vec(xb), _vec(xc)],
    ]
    assert _span_contains(coarse[0], _vec(e11)) and _span_contains(coarse[0], _vec(e22))
    assert _span_contains(coarse[1], _vec(e12)) and _span_contains(coarse[1], _vec(e21))

    # refinement one: the Z2^2 division grading by I, X_a, X_b, X_c
    fine_division = [[_vec(ident)], [_vec(xa)], [_vec(xb)], [_vec(xc)]]
    # refinement two: the Z-grading E_21 | E_11 + E_22 | E_12
    fine_elementary = [[_vec(e21)], [_vec(e11), _vec(e22)], [_vec(e12)]]

    def refines(fine, coarse_parts):
        for comp in fine:
            homes = [
                part for part in coarse_parts
                if all(_span_contains(part, v) for v in comp)
            ]
            if len(homes) != 1:
                return False
        return True

    assert refines(fine_division, coarse)
    assert refines(fine_elementary, coarse)

    # both refinements are honest gradings: products land in single components
    for a in (ident, xa, xb, xc):
        for b in (ident, xa, xb, xc):
            prod = _mmul(a, b)
            assert any(_span_contains(comp, _vec(prod)) for comp in fine_division)

    # and the catalog at this size yields exactly these two equivalence classes
    from gradecat.classify import classify

    rows = classify("M(2,R)")
    assert len(rows) == 2


def _reference_harvest(r):
    """Labels and relations from the former loop, three degree_of calls per product."""
    labels, index = [], {}
    for i in range(r.k):
        for j in range(r.k):
            for t in r.division.elements():
                d = r.degree_of(i, j, t).coords
                if d not in index:
                    index[d] = len(labels)
                    labels.append(d)
    relations = set()
    for i, j, l in itertools.product(range(r.k), repeat=3):
        for t in r.division.elements():
            for s in r.division.elements():
                vec = [0] * len(labels)
                vec[index[r.degree_of(i, j, t).coords]] += 1
                vec[index[r.degree_of(j, l, s).coords]] += 1
                vec[index[r.degree_of(i, l, t + s).coords]] -= 1
                if any(vec):
                    relations.add(tuple(vec))
    return labels, relations


def test_harvest_matches_reference_on_classify_rows(monkeypatch):
    import gradecat.matrix as matrix
    from gradecat.abelian import universal_abelian_group
    from gradecat.classify import classify

    seen = []

    def recording(labels, relations):
        seen.append((list(labels), set(relations)))
        return universal_abelian_group(labels, relations)

    for name in ("M1R", "M2R", "H", "M1C", "M2C", "M3C"):
        for row in classify(name):
            monkeypatch.setattr(matrix, "universal_abelian_group", recording)
            group, projection = harvest_universal_group(row.algebra)
            monkeypatch.undo()
            labels, relations = _reference_harvest(row.algebra)
            assert seen.pop() == (labels, relations)
            ref_group, ref_projection = universal_abelian_group(labels, relations)
            assert group == ref_group
            assert list(projection.items()) == [(x, ref_projection[x]) for x in labels]
