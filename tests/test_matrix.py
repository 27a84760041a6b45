import itertools
from fractions import Fraction

import pytest

from gradecat.abelian import AbelianGroup, GroupHomomorphism
from gradecat.division import canonical, parse_catalog_ref
from gradecat.matrix import (
    GradedElement,
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


@pytest.mark.parametrize("ref, support, k", [
    ("1-c", "Z2^3", 3),
    ("1-d", "Z2xZ4", 3),
    ("2-f", "Z4^2", 2),
    ("1-c", "Z2^5", 2),
])
def test_universal_group_beyond_classify_coverage(ref, support, k):
    # M(6,C) and M(8,C) sizes: up to 96 labels and 426 relations
    r = matrix_algebra(canonical(ref, support), k=k)
    group, _ = harvest_universal_group(r)
    assert group == expected_universal_group(r)


def test_component_count():
    for d, k in [(TRIVIAL_R, 3), (canonical("1-c", "Z2"), 2), (canonical("1-b", "Z2xZ2"), 2)]:
        r = matrix_algebra(d, k=k)
        assert component_count(r) == expected_component_count(r)


def reference_export(r):
    """The value-arithmetic exporter: every entry is the coefficient product
    b1 alpha_t(b2) sigma(t, s) of E_ij X_t b1 times E_jl X_s b2, on the Q-basis."""
    d = r.division
    kind = d.kind
    coeff_basis = kind.basis()
    width = len(coeff_basis)
    elems = d.elements()
    t_index = {t: n for n, t in enumerate(elems)}
    k = r.k

    def flat(i, j, t, b):
        return ((i * k + j) * len(elems) + t_index[t]) * width + b

    labels = []
    degrees = []
    for i in range(k):
        for j in range(k):
            for t in elems:
                for b in range(width):
                    labels.append(f"E[{i},{j}]X{t.coords}:{b}")
                    degrees.append(r.degree_of(i, j, t))
    table = {}
    for i, j, t, b1, l, s, b2 in itertools.product(
            range(k), range(k), elems, range(width), range(k), elems, range(width)):
        value = coeff_basis[b1] * d.alpha(t, coeff_basis[b2]) * d.sigma(t, s)
        entry = {flat(i, l, t + s, b3): c for b3, c in enumerate(kind.to_vector(value)) if c}
        if entry:
            table[(flat(i, j, t, b1), flat(j, l, s, b2))] = entry
    unity = {flat(i, i, d.support.zero(), 0): 1 for i in range(k)}
    return labels, degrees, table, unity


@pytest.mark.parametrize("tag,support", [
    ("1-a", "Z2xZ2"), ("1-b", "Z2xZ2"), ("1-c", "Z2"), ("1-d", "Z2xZ4"),
    ("2-a", "Z2"), ("2-b", "Z2"), ("2-c", "Z2xZ2"), ("2-d", "Z2^2xZ4"), ("2-e", "Z4"),
    ("2-f", "Z3^2"), ("3-a", "Z2xZ2"), ("3-b", "Z2xZ2"), ("3-c", "Z2"), ("3-d", "Z2xZ4"),
])
def test_export_agrees_with_the_value_arithmetic_reference(tag, support):
    d = canonical(tag, support)
    ks = [k for k in (1, 2, 3)
          if k == 1 or k * k * d.support.order() * len(d.kind.basis()) <= 32]
    for k in ks:
        r = matrix_algebra(d, k=k)
        a = to_structure_constants(r)
        labels, degrees, table, unity = reference_export(r)
        assert a.labels == tuple(labels)
        assert a.degrees == tuple(degrees)
        assert a.table == table and list(a.table) == list(table)
        assert a.unity == unity


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


def _reference_harvest(r, right=None):
    """Labels and relations from the former loop, three degree_of calls per
    product; with `right`, only for the right factors E_jl (x) X_s with
    (j, l, s) in it."""
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
                if right is not None and (j, l, s) not in right:
                    continue
                vec = [0] * len(labels)
                vec[index[r.degree_of(i, j, t).coords]] += 1
                vec[index[r.degree_of(j, l, s).coords]] += 1
                vec[index[r.degree_of(i, l, t + s).coords]] -= 1
                if any(vec):
                    relations.add(tuple(vec))
    return labels, relations


def _harvest_rows():
    from gradecat.classify import classify

    for name in ("M1R", "M2R", "H", "M1C", "M2C", "M3C", "M4C"):
        for row in classify(name):
            yield row.algebra
    for ref in ("1-b:Z2^6", "2-f:Z2^2xZ4^2"):
        yield matrix_algebra(parse_catalog_ref(ref), k=1)


def _right_factors(r):
    """E_(j,j+1) times X_0, and E_00 times X_g for the generators g of T
    (E_00 X_0 when T = 0), as (j, l, g)."""
    zero, k = r.division.support.zero(), r.k
    gens = {(0, 0, g) for g in r.division.support.generators()} or {(0, 0, zero)}
    return gens | {(j, j + 1, zero) for j in range(k - 1)}


def test_harvest_matches_reference_on_classify_rows(monkeypatch):
    """The harvest keeps the relations whose right factor is E_(j,j+1) X_0
    or E_00 X_g, and they present the group of all products: every relation
    of the reference vanishes under the harvested projection."""
    import gradecat.matrix as matrix
    from gradecat.abelian import universal_abelian_group

    seen = []

    def recording(labels, relations):
        seen.append((list(labels), set(relations)))
        return universal_abelian_group(labels, relations)

    for algebra in _harvest_rows():
        monkeypatch.setattr(matrix, "universal_abelian_group", recording)
        group, projection = harvest_universal_group(algebra)
        monkeypatch.undo()
        labels, relations = _reference_harvest(algebra)
        got_labels, got_relations = seen.pop()
        assert got_labels == labels
        assert got_relations <= relations
        assert got_relations == _reference_harvest(algebra, _right_factors(algebra))[1]
        assert group == universal_abelian_group(labels, relations)[0]
        assert list(projection) == labels
        images = [projection[x] for x in labels]
        for rel in relations:
            total = group.zero()
            for c, image in zip(rel, images):
                if c:
                    total = total + c * image
            assert total.is_zero()


def _reference_homogeneous_idempotents(r):
    """The list scan `homogeneous_idempotents` used before its lookup by
    diagonal positions."""
    one = r.division.one()
    found = []
    for mask in range(2 ** r.k):
        entries = {(i, i): one for i in range(r.k) if (mask >> i) & 1}
        candidate = GradedElement(r, entries)
        if candidate * candidate == candidate:
            found.append(candidate)
    zero = r.zero_element()
    primitive = []
    for eps in found:
        if eps.is_zero():
            continue
        decomposable = False
        for delta in found:
            if delta.is_zero() or delta == eps:
                continue
            mu = eps - delta
            if mu.is_zero() or mu not in found:
                continue
            if (delta * mu) == zero and (mu * delta) == zero:
                decomposable = True
                break
        if not decomposable:
            primitive.append(eps)
    return found, primitive


@pytest.mark.parametrize("tag,support,k",
                         [("1-a", "trivial", k) for k in range(1, 7)] + [("2-f", "Z2^2", 2)])
def test_idempotents_match_the_list_scan(tag, support, k):
    r = matrix_algebra(canonical(tag, support), k=k)
    found, primitive = homogeneous_idempotents(r)
    ref_found, ref_primitive = _reference_homogeneous_idempotents(r)
    assert [x.entries for x in found] == [x.entries for x in ref_found]
    assert [x.entries for x in primitive] == [x.entries for x in ref_primitive]
