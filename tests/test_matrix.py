import collections
import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from gradecat import cli, division, verify
from gradecat.abelian import AbelianGroup, GroupHomomorphism, support_table
from gradecat.classify import _abelian_groups_of_order
from gradecat.division import (
    CatalogError,
    CoefficientKind,
    GradedDivisionAlgebra,
    canonical,
    parse_catalog_ref,
)
from gradecat.matrix import (
    GradedElement,
    GradedMatrixAlgebra,
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


@pytest.mark.parametrize("kappa, index, shown", [([1.7, True], 0, "1.7"),
                                                 ([2.0, 1], 0, "2.0"),
                                                 ([1, True], 1, "True")])
def test_multiplicities_must_be_ints(kappa, index, shown):
    # int() would read kappa = [1.7, True] as (1, 1)
    with pytest.raises(GradingError, match=rf"kappa\[{index}\] = {shown} is not an int"):
        matrix_algebra(canonical("1-c", "Z2"), k=2, kappa=kappa)
    assert matrix_algebra(canonical("1-c", "Z2"), k=2, kappa=[2, 1]).kappa == (2, 1)


@pytest.mark.parametrize("k", [True, 1.0, 2.0, 0, -1, "2"])
def test_k_must_be_a_positive_int(k):
    # True and 1.0 equal, and hash as, the key of the kept M_1(D): the check
    # comes before the lookup
    d = canonical("1-c", "Z2")
    matrix_algebra(d, k=1), matrix_algebra(d, k=2)
    with pytest.raises(GradingError, match=f"^k must be an int >= 1, got {re.escape(repr(k))}$"):
        matrix_algebra(d, k=k)


def test_matrix_algebra_keeps_the_universal_realization_on_d():
    d = canonical("1-c", "Z2")
    r = matrix_algebra(d, k=2)
    assert matrix_algebra(d, k=2) is r and matrix_algebra(canonical("1-c", AbelianGroup(0, (2,))), k=2) is r
    assert matrix_algebra(d) is matrix_algebra(d, k=1) is not r
    for other in (_unshared(r), matrix_algebra(d, k=2, kappa=[1, 1])):  # an explicit shape
        assert other is not r and other.gamma == r.gamma and other._columns == r._columns
        assert harvest_universal_group(other) == harvest_universal_group(r)
        assert harvest_universal_group(other)[0] is not harvest_universal_group(r)[0]
    group, projection = harvest_universal_group(r)
    assert all(x is y for x, y in zip(harvest_universal_group(r), (group, projection)))
    division._canonical_entry.cache_clear()  # drops the entry and what is kept on it
    fresh = matrix_algebra(canonical("1-c", "Z2"), k=2)
    assert fresh is not r and harvest_universal_group(fresh)[0] is not group


# a valid explicit grading on M_2(1-c:Z2), spoiled one argument at a time below
_D = canonical("1-c", "Z2")
_G = AbelianGroup(1, (2,))
_EMBED = GroupHomomorphism(_D.support, _G, [_G.element((0, 1))])
_GAMMA = [_G.zero(), _G.element((1, 0))]


@pytest.mark.parametrize("build, message", [
    (lambda: matrix_algebra(_D, k=2, kappa=[1]), "kappa and gamma must have equal length"),
    (lambda: GradedMatrixAlgebra(_D, _G, [], [], _EMBED), "the module V must be nonzero (k >= 1)"),
    (lambda: GradedMatrixAlgebra(_D, _G, _GAMMA, [1, 0], _EMBED), "multiplicities must be positive"),
    (lambda: GradedMatrixAlgebra(_D, _G, [_G.zero(), AbelianGroup(1, ()).element((1,))], [1, 1],
                                 _EMBED), "degrees must lie in the ambient group"),
    (lambda: GradedMatrixAlgebra(_D, _G, _GAMMA, [1, 1], GroupHomomorphism(
        _D.support, _D.support, _D.support.generators())),
     "support embedding must land in the ambient group"),
    (lambda: GradedMatrixAlgebra(TRIVIAL_R, _G, _GAMMA, [1, 1], _EMBED),
     "support embedding must start at the support of D"),
    (lambda: matrix_algebra(_D, ambient=_G), "explicit ambient groups need explicit degrees"),
    (lambda: matrix_algebra(_D, gamma=_GAMMA, ambient=_G), "an embedding of the support is required"),
    (lambda: matrix_algebra(_D, k=3, gamma=_GAMMA, ambient=_G, embed=_EMBED),
     "k = 3 differs from the 2 degrees of gamma"),
    (lambda: matrix_algebra(_D, k=2, embed=GroupHomomorphism(
        _D.support, _D.support, _D.support.generators())),
     "an embedding of the support needs an explicit ambient group"),
])
def test_grading_errors(build, message):
    assert GradedMatrixAlgebra(_D, _G, _GAMMA, [1, 1], _EMBED).k == 2
    with pytest.raises(GradingError, match=f"^{re.escape(message)}$"):
        build()


def test_fine_condition_multiplicity_witness():
    ambient = AbelianGroup(1, ())
    embed = GroupHomomorphism(AbelianGroup.trivial(), ambient, [])
    r = matrix_algebra(TRIVIAL_R, gamma=[ambient.zero()], ambient=ambient,
                       embed=embed, kappa=[2])
    res = fine_condition(r)
    assert not res
    assert res.witness[0] == "multiplicity"


def test_fine_condition_holds_for_canonical_gamma():
    assert fine_condition(m2_over_z())


def test_fine_condition_difference_witness():
    # G = Z2, T = 0, gamma = (0, 1): g1 - g2 = g2 - g1
    ambient = AbelianGroup(0, (2,))
    embed = GroupHomomorphism(AbelianGroup.trivial(), ambient, [])
    r = matrix_algebra(TRIVIAL_R, gamma=[ambient.zero(), ambient.element((1,))],
                       ambient=ambient, embed=embed)
    res = fine_condition(r)
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
    res = fine_condition(r)
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


def _reference_matrix_product(x, y):
    """Every pair of entries, (i, j)·(h, l) kept when j = h, summed in pair
    order."""
    out: dict = {}
    for (i, j), a in x.entries.items():
        for (h, l), b in y.entries.items():
            if j != h:
                continue
            prod = a * b
            out[(i, l)] = out[(i, l)] + prod if (i, l) in out else prod
    return {pos: val for pos, val in out.items() if not val.is_zero()}


@st.composite
def _sparse_matrices(draw, r):
    """A random sparse k x k matrix over D: a few entries, each of one to
    three terms with small integer coefficients."""
    d, k = r.division, r.k
    positions = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                              max_size=k * k, unique=True))
    entries = {}
    for pos in positions:
        degrees = draw(st.lists(st.sampled_from(d.elements()), min_size=1, max_size=3,
                                unique=True))
        entries[pos] = d.element({t: draw(st.integers(-2, 2)) for t in degrees})
    return GradedElement(r, entries)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["1-a:Z2xZ2", "1-b:Z2xZ2", "2-e:Z4", "2-f:Z3^2"]),
       st.integers(1, 4), st.data())
def test_the_row_grouped_product_is_the_all_pairs_product(ref, k, data):
    r = matrix_algebra(parse_catalog_ref(ref), k=k)
    x = data.draw(_sparse_matrices(r), label="x")
    y = data.draw(_sparse_matrices(r), label="y")
    for left, right in ((x, y), (y, x), (x, x)):
        got = left * right
        assert list(got.entries.items()) == list(_reference_matrix_product(left, right).items())


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
    diag = r._coset_key(r.ambient.zero())
    assert profile[diag] == NONZERO_SQUARES
    off = r._coset_key(r.gamma[0] - r.gamma[1])
    assert profile[off] == ZERO_SQUARES
    values = list(profile.values())
    assert values.count(NONZERO_SQUARES) == 1


def test_squares_profile_division_algebra():
    r = matrix_algebra(canonical("1-b", "Z2xZ2"), k=1)
    profile = squares_profile(r)
    assert set(profile.values()) == {NONZERO_SQUARES}


def test_equivalent_gradings():
    a = matrix_algebra(canonical("1-c", "Z2"), k=2)
    b = _unshared(a)  # matrix_algebra(canonical("1-c", "Z2"), k=2) is a itself
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
    ("1-b", "Z2^10", 1),
    ("1-c", "Z2^9", 1),
])
def test_universal_group_beyond_classify_coverage(ref, support, k):
    # M(6,C) and M(8,C) sizes: up to 96 labels and 183 relations; M(16,H)
    # and M(16,C) sizes: 1024 labels and 2037 relations
    r = matrix_algebra(canonical(ref, support), k=k)
    group, _ = harvest_universal_group(r)
    assert group == expected_universal_group(r)


def test_component_count():
    for d, k in [(TRIVIAL_R, 3), (canonical("1-c", "Z2"), 2), (canonical("1-b", "Z2xZ2"), 2)]:
        r = matrix_algebra(d, k=k)
        assert component_count(r) == expected_component_count(r)


def _explicit_ambient_algebras():
    """Gradings whose degrees are not those of the canonical realization."""
    d = canonical("1-c", "Z2")
    g = AbelianGroup(1, (2,))  # kappa = (2, 1), as the universal golden spec
    yield matrix_algebra(d, gamma=[g.zero(), g.element((1, 0))], ambient=g, kappa=[2, 1],
                         embed=GroupHomomorphism(d.support, g, [g.element((0, 1))]))
    g = AbelianGroup(1, (4,))  # torsion sums that wrap, and a negative free degree
    yield matrix_algebra(d, gamma=[g.zero(), g.element((1, 3)), g.element((-2, 1))], ambient=g,
                         embed=GroupHomomorphism(d.support, g, [g.element((0, 2))]))
    d = canonical("1-a", "Z2xZ2")  # the gamma of test_fine_condition_2g_in_t
    g = AbelianGroup(0, (2, 2, 4))
    yield matrix_algebra(d, gamma=[g.zero(), g.element((0, 0, 1))], ambient=g, embed=(
        GroupHomomorphism(d.support, g, [g.element((1, 0, 0)), g.element((0, 0, 2))])))


def test_degree_labels_are_the_degrees_of_degree_of():
    for r in [*_harvest_rows(), *_explicit_ambient_algebras()]:
        labels, ids = r.degree_labels()
        elems, k = r.division.elements(), r.k
        assert len(set(labels)) == len(labels)
        assert [[[labels[a] for a in row] for row in block] for block in ids] == [
            [[r.degree_of(i, j, t).coords for t in elems] for j in range(k)] for i in range(k)]
        assert r.component_degrees() == sorted(
            {r.degree_of(i, j, t) for i in range(k) for j in range(k) for t in elems},
            key=lambda d: d.coords)


def _reference_coset_key(r, g):
    """The former `abelian.coset_rep`: the least of the GroupElement sums
    g + embed(t), by coordinates."""
    return min((g + r.embed(t) for t in r.embed.source.elements()),
               key=lambda e: e.coords).coords


def _real_group_algebra(t):
    """R[T]: the crossed product over T with trivial action and cocycle."""
    return GradedDivisionAlgebra(t, CoefficientKind.real(), [False] * t.rank, [1] * t.rank, {})


_TORSION = [(), (2,), (3,), (4,), (6,), (2, 2), (2, 4), (2, 2, 4)]


@st.composite
def _embeddings(draw):
    """(T, G, embed): a finite T, an ambient G with free and torsion
    coordinates, and a homomorphism T -> G, often not injective."""
    t = AbelianGroup(0, draw(st.sampled_from(_TORSION[:6])))
    g = AbelianGroup(draw(st.integers(0, 2)), draw(st.sampled_from(_TORSION)))
    images = []
    for m in t.torsion:  # m·image = 0: free coordinates 0, torsion ones in (n/gcd(m, n))Z
        images.append(g.element([0] * g.free_rank + [
            draw(st.integers(0, n)) * (n // math.gcd(m, n)) for n in g.torsion]))
    return t, g, GroupHomomorphism(t, g, images)


def _elements_of(g):
    return st.lists(st.integers(-3, 7), min_size=g.rank, max_size=g.rank).map(g.element)


@settings(max_examples=300, deadline=None)  # about a fifth embed T injectively
@given(_embeddings(), st.data())
def test_coset_key_is_the_least_groupelement_sum(embedding, data):
    t, g, embed = embedding
    gamma = data.draw(st.lists(_elements_of(g), min_size=1, max_size=3))
    image = {embed(x) for x in t.elements()}
    try:
        r = GradedMatrixAlgebra(_real_group_algebra(t), g, gamma, [1] * len(gamma), embed)
    except GradingError as err:
        if len(image) < t.order():
            assert "injective" in str(err)
        else:
            # the constructor refuses only degrees that meet modulo T
            assert "distinct modulo T" in str(err)
            keys = [min((x + y).coords for y in image) for x in gamma]
            assert len(set(keys)) < len(keys)
        return
    assert len(image) == t.order()
    for x in gamma + [g.zero(), *data.draw(st.lists(_elements_of(g), max_size=4))]:
        assert r._coset(x) == [(x + embed(y)).coords for y in support_table(t)[0]]
        assert r._coset_key(x) == _reference_coset_key(r, x)


def test_coset_keys_of_the_trivial_ambient():
    zero = AbelianGroup.trivial()
    r = GradedMatrixAlgebra(_real_group_algebra(zero), zero, [zero.zero()], [1],
                            GroupHomomorphism(zero, zero, []))
    assert r._coset(zero.zero()) == [()]
    assert r._coset_key(zero.zero()) == () == _reference_coset_key(r, zero.zero())
    z2 = AbelianGroup(0, (2,))
    with pytest.raises(GradingError, match="injective"):
        GradedMatrixAlgebra(_real_group_algebra(z2), zero, [zero.zero()], [1],
                            GroupHomomorphism(z2, zero, [zero.zero()]))


# the specs of the `universal-*` goldens in tests/test_golden.py
_UNIVERSAL_SPECS = [
    {"D": "1-c:Z2", "k": 2},
    {"D": "1-c:Z2", "G": {"free_rank": 1, "torsion": [2]}, "embed": [[0, 1]],
     "gamma": [[0, 0], [1, 0]], "kappa": [2, 1]},
    {"D": "2-f:Z4^2", "k": 1},
    {"D": "1-d:Z2^3xZ4", "k": 1},
]


def test_export_degrees_are_those_of_degree_of():
    from gradecat.verify import matrix_fixtures

    algebras = [r for _, r in matrix_fixtures()]
    for spec in _UNIVERSAL_SPECS:
        d = parse_catalog_ref(spec["D"])
        algebras.append(matrix_algebra(d, **cli._matrix_shape(spec, d.support)))
    assert any(r.kappa != (1,) * len(r.kappa) for r in algebras)
    for r in algebras:
        a = to_structure_constants(r)
        elems, k, width = r.division.elements(), r.k, len(r.division.kind.basis())
        assert list(a.degrees) == [r.degree_of(i, j, t) for i in range(k) for j in range(k)
                                   for t in elems for _ in range(width)]


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
    """Labels and relations of every nonzero product of basis elements, from
    degree_of, each relation as its sorted nonzero (label, coefficient)
    pairs; with `right`, a mapping (j, l, s) -> set of t, only the products
    of E_ij (x) X_t by E_jl (x) X_s with t in right[(j, l, s)]."""
    elems = list(r.division.elements())
    degree = {(i, j, t): r.degree_of(i, j, t).coords
              for i, j, t in itertools.product(range(r.k), range(r.k), elems)}
    labels = list(dict.fromkeys(degree.values()))
    index = {d: n for n, d in enumerate(labels)}
    plus = {(t, s): t + s for t in elems for s in elems}
    relations = set()
    for i, j, l in itertools.product(range(r.k), repeat=3):
        for t in elems:
            for s in elems:
                if right is not None and t not in right.get((j, l, s), ()):
                    continue
                vec = collections.Counter([index[degree[i, j, t]], index[degree[j, l, s]]])
                vec[index[degree[i, l, plus[t, s]]]] -= 1
                if any(vec.values()):
                    relations.add(tuple(sorted((x, c) for x, c in vec.items() if c)))
    return labels, relations


def _harvest_rows():
    from gradecat.classify import classify

    for name in ("M1R", "M2R", "H", "M1C", "M2C", "M3C", "M4C"):
        for row in classify(name):
            yield row.algebra
    for ref in ("1-b:Z2^6", "2-f:Z2^2xZ4^2"):
        yield matrix_algebra(parse_catalog_ref(ref), k=1)
    yield from _explicit_ambient_algebras()


def _right_factors(r):
    """The products the harvest keeps, as (j, l, g) -> the t of the left
    factors E_ij (x) X_t: E_(j,j+1) X_0 with every t, and E_00 X_(e_j) with
    t in T_j = <e_j, ...>, the elements zero on the coordinates below j
    (E_00 X_0 with every t when T = 0)."""
    support, k = r.division.support, r.k
    elems = set(support.elements())
    right = {(0, 0, g): {t for t in elems if not any(t.coords[:j])}
             for j, g in enumerate(support.generators())} or {(0, 0, support.zero()): elems}
    return right | {(j, j + 1, support.zero()): elems for j in range(k - 1)}


def _unshared(r):
    """r rebuilt from its explicit ambient, isotypic degrees, embedding and
    multiplicities: never the M_k(D) kept on D, so not harvested yet."""
    return matrix_algebra(r.division, gamma=list(dict.fromkeys(r.gamma)), ambient=r.ambient,
                          embed=r.embed, kappa=r.kappa)


def _recorded_harvest(monkeypatch, algebra):
    """(group, projection, labels, relations): the harvest of an unshared
    copy of `algebra` with the labels and the relations it hands to
    `universal_abelian_group`, which must arrive sparse, at most three
    terms each, each vector once; the relations as `_reference_harvest`
    writes them.  The copy, since `algebra` may be kept on its D and
    harvested already, which hands nothing over."""
    import gradecat.matrix as matrix
    from gradecat.abelian import universal_abelian_group

    seen = []

    def recording(labels, relations):
        labels = list(labels)
        assert all(1 <= len(rel) <= 3 and 0 not in rel.values() for rel in relations)
        sparse = [tuple(sorted(rel.items())) for rel in relations]
        assert len(set(sparse)) == len(sparse)
        seen.append((labels, sparse))
        return universal_abelian_group(labels, relations)

    monkeypatch.setattr(matrix, "universal_abelian_group", recording)
    try:
        group, projection = harvest_universal_group(_unshared(algebra))
    finally:
        monkeypatch.undo()
    (labels, relations), = seen
    return group, projection, labels, relations


def _assert_presents_all_products(r, group, projection):
    """The harvested group is that of every nonzero product, and every
    relation of every product vanishes under the harvested projection."""
    from gradecat.abelian import universal_abelian_group

    labels, relations = _reference_harvest(r)
    assert group == universal_abelian_group(labels, map(dict, relations))[0]
    assert list(projection) == labels
    images = [projection[x] for x in labels]
    for rel in relations:
        total = group.zero()
        for x, c in rel:
            total = total + c * images[x]
        assert total.is_zero()


def test_harvest_matches_reference_on_classify_rows(monkeypatch):
    """The harvest keeps the relations whose right factor is E_(j,j+1) X_0,
    or E_00 X_(e_j) with a left factor of degree in T_j, and they present
    the group of all products."""
    for algebra in _harvest_rows():
        group, projection, labels, relations = _recorded_harvest(monkeypatch, algebra)
        assert labels == _reference_harvest(algebra)[0]
        assert set(relations) == _reference_harvest(algebra, _right_factors(algebra))[1]
        _assert_presents_all_products(algebra, group, projection)


# every catalog entry with |T| <= 32
_REFS_UP_TO_32 = (
    "1-a:1", "2-f:1", "3-a:1", "1-c:Z2", "2-a:Z2", "2-b:Z2", "3-c:Z2",
    "1-a:Z2^2", "1-b:Z2^2", "2-c:Z2^2", "2-f:Z2^2", "3-a:Z2^2", "3-b:Z2^2",
    "1-c:Z2^3", "2-a:Z2^3", "2-b:Z2^3", "3-c:Z2^3",
    "1-a:Z2^4", "1-b:Z2^4", "2-c:Z2^4", "2-f:Z2^4", "3-a:Z2^4", "3-b:Z2^4",
    "1-c:Z2^5", "2-a:Z2^5", "2-b:Z2^5", "3-c:Z2^5",
    "1-d:Z2^3xZ4", "3-d:Z2^3xZ4", "2-d:Z2^2xZ4", "2-e:Z2^2xZ4", "1-d:Z2xZ4", "3-d:Z2xZ4",
    "2-f:Z3^2", "2-e:Z4", "2-f:Z4^2", "2-f:Z5^2",
)


@st.composite
def _gradings(draw):
    """M_k(D) for a catalog D with |T| <= 32 and k <= 3: the universal
    realization, or an explicit ambient Z^f x cT with T embedded by
    e_j -> c e_j, degrees drawn in it and multiplicities kappa."""
    d = parse_catalog_ref(draw(st.sampled_from(_REFS_UP_TO_32)))
    if draw(st.booleans()):
        return matrix_algebra(d, k=draw(st.integers(1, 3)))
    c, free = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    g = AbelianGroup(free, tuple(c * m for m in d.support.torsion))
    embed = GroupHomomorphism(d.support, g, [
        g.element([0] * free + [c if i == j else 0 for i in range(len(g.torsion))])
        for j in range(len(g.torsion))])
    kappa = draw(st.sampled_from([[1], [2], [3], [1, 1], [2, 1], [1, 2], [1, 1, 1]]))
    gamma = [g.zero(), *(g.element([draw(st.integers(-2, 2)) for _ in range(free)]
                                   + [draw(st.integers(0, n - 1)) for n in g.torsion])
                         for _ in kappa[1:])]
    try:
        return matrix_algebra(d, gamma=gamma, ambient=g, embed=embed, kappa=kappa)
    except GradingError as err:
        assert "distinct modulo T" in str(err)
        assume(False)


@settings(max_examples=40, deadline=None)
@given(_gradings())
def test_harvest_presents_the_group_of_all_products(r):
    group, projection = harvest_universal_group(r)
    _assert_presents_all_products(r, group, projection)


def _work_bound(r):
    """k sum_j |T_j| + k(k - 1)|T|, with the one factor E_00 X_0 when T = 0."""
    torsion, k = r.division.support.torsion, r.k
    prefixes = [math.prod(torsion[j:]) for j in range(len(torsion))] or [1]
    return k * sum(prefixes) + k * (k - 1) * math.prod(torsion)


def test_harvest_hands_over_at_most_the_prefix_relations(monkeypatch):
    """The E_00 X_(e_j) factors meet only the left factors over T_j, so the
    relation count grows with |T|, not with |T| rank T."""
    big = matrix_algebra(parse_catalog_ref("1-b:Z2^10"), k=1)
    assert _work_bound(big) == 2046
    for algebra in [*_harvest_rows(), big]:
        relations = _recorded_harvest(monkeypatch, algebra)[3]
        assert len(relations) <= _work_bound(algebra)


def test_warm_classify_builds_few_group_elements(monkeypatch):
    """A warm pass builds no M_k(D) and harvests none: it reads those kept
    on the catalog entries.  It builds no image of the harvest projection,
    which no row reads, embeds no support position one at a time, and
    harvests with no support generator: at most 16 GroupElements for M4C
    and 10 for the six smaller algebras, against 94 and 86 with an M_k(D)
    built and harvested per call, 363 and 200 with an eager projection and
    an embed per position as well, and 111 and 100 with the generators.
    It lists and names no Weyl group either: the cold pass builds a
    WeylModel for each of the 10 rows of the six smaller algebras (none on
    M4C, whose W(Gamma) are all larger than IDENTIFY_BOUND), and a warm
    pass reads the model kept on each M_k(D), so it constructs none and
    calls `identify_group` not at all.  Its rows are those of the cold
    pass."""
    import gradecat.autgroups as autgroups
    import gradecat.matrix as matrix
    import gradecat.structconst as structconst
    from gradecat.abelian import GroupElement
    from gradecat.classify import classify

    built, algebras, harvests, models, named = [], [], [], [], []

    def counting(init, tally):
        def wrapped(self, *args):
            tally.append(1)
            init(self, *args)
        return wrapped

    def harvesting(labels, relations):
        harvests.append(1)
        return universal_abelian_group(labels, relations)

    def naming(elements, mul):
        named.append(1)
        return identify_group(elements, mul)

    universal_abelian_group = matrix.universal_abelian_group
    identify_group = autgroups.identify_group
    for names, bound, cold_models in ((["M4C"], 16, 0),
                                      (["M1R", "M2R", "H", "M1C", "M2C", "M3C"], 10, 10)):
        monkeypatch.setattr(autgroups.WeylModel, "__init__",
                            counting(autgroups.WeylModel.__init__, models))
        cold = [[row.to_json() for row in classify(name)] for name in names]
        assert len(models) == cold_models, names
        built.clear()
        models.clear()
        monkeypatch.setattr(autgroups, "identify_group", naming)
        monkeypatch.setattr(GroupElement, "__init__", counting(GroupElement.__init__, built))
        monkeypatch.setattr(GradedMatrixAlgebra, "__init__",
                            counting(GradedMatrixAlgebra.__init__, algebras))
        for module in (matrix, structconst):
            monkeypatch.setattr(module, "universal_abelian_group", harvesting)
        warm = [[row.to_json() for row in classify(name)] for name in names]
        monkeypatch.undo()
        assert len(built) <= bound, names
        assert algebras == harvests == models == named == [], names
        assert warm == cold, names


def _embedded_columns(r):
    """The columns of embed(t).coords over the support positions t."""
    return list(zip(*(r.embed(t).coords for t in support_table(r.division.support)[0])))


def _catalog_up_to(order):
    """Each catalog entry with |T| <= order."""
    tags = [f"{n}-{c}" for n, cs in ((1, "abcd"), (2, "abcdef"), (3, "abcd")) for c in cs]
    for n in range(1, order + 1):
        for group, tag in itertools.product(_abelian_groups_of_order(n), tags):
            try:
                yield canonical(tag, group)
            except CatalogError:
                pass


def test_support_columns_are_the_embedded_support():
    algebras = [matrix_algebra(d, k=k) for d in _catalog_up_to(64) for k in (1, 2, 3)]
    assert len(algebras) > 100
    for r in [*algebras, *_explicit_ambient_algebras()]:
        assert r._columns == _embedded_columns(r), r


@st.composite
def _embedded_supports(draw):
    """M_1(D) for a catalog D with |T| <= 32 in an ambient Z^f x cT, with a
    larger top factor or not, and T embedded by e_j -> c e_j plus a drawn
    element of order dividing m_j on the later coordinates: triangular, so
    injective, and not the canonical embedding."""
    d = parse_catalog_ref(draw(st.sampled_from(_REFS_UP_TO_32)))
    torsion = d.support.torsion
    c, free = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    top = (c * torsion[-1] * draw(st.integers(2, 3)),) if torsion and draw(st.booleans()) else ()
    g = AbelianGroup(free, tuple(c * m for m in torsion) + top)
    images = [g.element([0] * free + [
        c if i == j else draw(st.integers(0, n)) * (n // math.gcd(m, n)) if i > j else 0
        for i, n in enumerate(g.torsion)]) for j, m in enumerate(torsion)]
    return matrix_algebra(d, gamma=[g.zero()], ambient=g,
                          embed=GroupHomomorphism(d.support, g, images))


@settings(max_examples=60, deadline=None)
@given(_embedded_supports())
def test_support_columns_under_explicit_embeddings(r):
    assert r._columns == _embedded_columns(r)


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


def _idempotent_terms(pair):
    """(found, primitive) as the terms of each entry, comparable across
    algebras."""
    return [[{pos: val.terms for pos, val in x.entries.items()} for x in xs] for xs in pair]


@pytest.mark.parametrize("label", [label for label, (tag, _, _) in verify._FIXTURES.items()
                                   if tag is not None])
def test_kept_idempotents_and_squares_match_an_unshared_copy(label):
    r = verify.fixture(label)
    pair, profile = homogeneous_idempotents(r), squares_profile(r)
    assert type(pair) is tuple and all(type(xs) is tuple for xs in pair)
    assert homogeneous_idempotents(r) is pair is r._idempotents
    assert squares_profile(r) == profile == r._squares and profile is not r._squares
    copy = _unshared(r)  # keeps answers of its own, found anew
    assert copy._idempotents is None and copy._squares is None
    assert _idempotent_terms(homogeneous_idempotents(copy)) == _idempotent_terms(pair)
    assert squares_profile(copy) == profile
    assert copy._idempotents is not pair and copy._squares is not r._squares


def test_a_refused_grading_keeps_no_idempotents_or_squares(monkeypatch):
    r = matrix_algebra(canonical("1-c", "Z2"), kappa=[2])
    assert not fine_condition(r)
    for _ in range(2):
        with pytest.raises(GradingError, match="idempotent counting assumes the fine condition"):
            homogeneous_idempotents(r)
        with pytest.raises(GradingError, match="squares dichotomy assumes the fine condition"):
            squares_profile(r)
    assert r._idempotents is None and r._squares is None
    # a squares dichotomy that fails is refused on every call too: with every
    # square read as nonzero, the off-diagonal classes break it
    r = _unshared(matrix_algebra(canonical("1-c", "Z2"), k=2))
    monkeypatch.setattr(GradedElement, "is_zero", lambda self: False)
    for _ in range(2):
        with pytest.raises(GradingError, match="squares dichotomy violated"):
            squares_profile(r)
    assert r._squares is None
    monkeypatch.undo()
    for _ in range(2):  # the call that keeps the profile and one that reads it
        profile = squares_profile(r)
        assert profile == r._squares and profile is not r._squares
        profile.clear()
    assert len(r._squares) == 3
    assert set(r._squares.values()) == {NONZERO_SQUARES, ZERO_SQUARES}
