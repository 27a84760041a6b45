import functools
import itertools
import math
import operator
import random
from collections.abc import Mapping

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.matrices.normalforms import invariant_factors

from gradecat import abelian, structconst
from gradecat.abelian import (
    AbelianGroup,
    AutBoundError,
    GroupElement,
    GroupMismatchError,
    abstract_type,
    automorphism_group,
    chain_elements,
    character_group,
    compose,
    parse_group_string,
    quotient_type,
    smith_normal_form,
    square_elements,
    subgroup_generated,
    support_table,
    universal_abelian_group,
)
from gradecat.classify import classify
from gradecat.division import Bicharacter, CoefficientKind
from gradecat.matrix import harvest_universal_group
from gradecat.scalars import zeta

Z = AbelianGroup
Z2xZ2 = Z(0, (2, 2))
Z2xZ4 = Z(0, (2, 4))


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def det(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det(minor)
    return total


# ---------------------------------------------------------------------------
# groups and elements
# ---------------------------------------------------------------------------

def test_normal_form_validation():
    with pytest.raises(ValueError):
        Z(0, (3, 2))
    with pytest.raises(ValueError):
        Z(0, (2, 3))
    with pytest.raises(ValueError):
        Z(0, (1,))
    assert Z.from_cyclic_orders([2, 3]) == Z(0, (6,))
    assert Z.from_cyclic_orders([4, 2, 2]) == Z(0, (2, 2, 4))
    assert Z.from_cyclic_orders([12, 60]) == Z(0, (12, 60))
    assert Z.from_cyclic_orders([10, 4]) == Z(0, (2, 20))


def test_isomorphism_is_normal_form_equality():
    assert Z.from_cyclic_orders([2, 3]) == Z.from_cyclic_orders([6])
    assert Z.from_cyclic_orders([2, 4]) != Z.from_cyclic_orders([8])


def test_combine_in_z2_squared():
    a = Z2xZ2.element((1, 0))
    b = Z2xZ2.element((1, 1))
    assert (a + b).coords == (0, 1)


def test_combine_in_z_times_z2():
    g = Z(1, (2,))
    assert (g.element((3, 1)) + g.element((-1, 1))).coords == (2, 0)


def test_combine_in_z4():
    g = Z(0, (4,))
    assert (g.element((3,)) + g.element((3,))).coords == (2,)


def test_mismatched_parents_rejected():
    with pytest.raises(GroupMismatchError):
        Z2xZ2.element((1, 0)) + Z(0, (4,)).element((1,))


def test_element_orders():
    assert Z2xZ4.element((1, 2)).order() == 2
    assert Z2xZ4.element((0, 1)).order() == 4
    assert Z(1, ()).element((2,)).order() is None
    assert Z2xZ4.zero().order() == 1


def test_pretty_and_parse_roundtrip():
    g = Z(1, (2, 2, 4))
    assert g.pretty() == "Z × Z2^2 × Z4"
    assert parse_group_string("ZxZ2^2xZ4") == g
    assert parse_group_string("Z3^2") == Z(0, (3, 3))
    assert parse_group_string("1") == Z.trivial()


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def snf_oracle(m):
    """Check the contract `universal_abelian_group` relies on and return the
    diagonal: u is unimodular, the diagonal is a divisibility chain, and
    u * m = d * v^-1 for a unimodular v, so row i of u * m has gcd d_i (the
    rows of a unimodular matrix are primitive) and is zero past the rank."""
    d, u = smith_normal_form(m)
    rows, cols = len(m), len(m[0]) if m else 0
    assert abs(det(u)) == 1
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    um = mat_mul(u, [list(r) for r in m])
    for i, row in enumerate(um):
        assert math.gcd(*row) == (diag[i] if i < len(diag) else 0)
    return diag


def test_snf_identity():
    assert snf_oracle([[1, 0], [0, 1]]) == [1, 1]


def test_snf_diag_2_3():
    assert snf_oracle([[2, 0], [0, 3]]) == [1, 6]


def test_snf_2468():
    # |det| = 8 is preserved: 2 * 4
    assert snf_oracle([[2, 4], [6, 8]]) == [2, 4]


def test_snf_random_small_matrices():
    rng = random.Random(7)
    for _ in range(150):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        snf_oracle(m)


def test_snf_zero_and_rectangular():
    assert snf_oracle([[0, 0], [0, 0]]) == [0, 0]
    assert snf_oracle([[4, 6, 10]]) == [2]


@st.composite
def _snf_inputs(draw):
    """Small integer matrices of any shape; a row is often a combination of
    two others, so rank-deficient inputs are common."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    m = [draw(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols))
         for _ in range(rows)]
    if rows >= 3 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return m


@settings(max_examples=200, deadline=None)
@given(_snf_inputs())
def test_snf_agrees_with_sympy_invariant_factors(m):
    diag = snf_oracle(m)
    theirs = invariant_factors(sympy.Matrix(m), domain=sympy.ZZ)
    assert [x for x in diag if x] == [int(x) for x in theirs if x]


# ---------------------------------------------------------------------------
# universal abelian group
# ---------------------------------------------------------------------------

def test_universal_free_when_no_relations():
    g, proj = universal_abelian_group(["a", "b"], [])
    assert g == Z(2, ())
    assert proj["a"] != proj["b"]


def test_universal_quotient_with_torsion():
    # a + a = 0 and b free: Z2 x Z
    g, proj = universal_abelian_group(["a", "b"], [[2, 0]])
    assert g == Z(1, (2,))
    assert (2 * proj["a"]).is_zero()
    assert not (2 * proj["b"]).is_zero()


def test_universal_respects_relations():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 4)
        labels = list(range(n))
        rels = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        g, proj = universal_abelian_group(labels, rels)
        for rel in rels:
            acc = g.zero()
            for c, lab in zip(rel, labels):
                acc = acc + c * proj[lab]
            assert acc.is_zero()


def test_universal_invariant_under_presentation_changes():
    labels = ["x", "y", "z"]
    rels = [[2, 0, 0], [0, 3, -1]]
    g1, _ = universal_abelian_group(labels, rels)
    # permute generators
    g2, _ = universal_abelian_group(["y", "z", "x"], [[0, 0, 2], [3, -1, 0]])
    # row operations on relations
    g3, _ = universal_abelian_group(labels, [[2, 3, -1], [0, 3, -1], [2, 0, 0]])
    assert g1 == g2 == g3


def test_universal_rejects_a_zero_relation_of_the_wrong_length():
    with pytest.raises(ValueError, match="length"):
        universal_abelian_group(["a"], [[0, 0]])


def test_universal_rejects_non_integral_entries():
    with pytest.raises(ValueError, match="integers"):
        universal_abelian_group(["a", "b"], [(1.5, 0)])


@pytest.mark.parametrize("relation, message", [
    ([2.0], "relation entries must be integers"),  # int() would read Z2
    ([True], "relation entries must be integers"),  # and Z1 here
    ([0.0], "relation entries must be integers"),  # a zero entry is no exception
    ({0: 2.0}, "relation entries must be integers"),
    ({0: True}, "relation entries must be integers"),
    ({1: 1}, r"relation positions must be integers in range\(1\)"),
    ({-1: 1}, r"relation positions must be integers in range\(1\)"),
    ({0.0: 1}, r"relation positions must be integers in range\(1\)"),
    ({False: 1}, r"relation positions must be integers in range\(1\)"),
], ids=["dense-float", "dense-bool", "dense-float-zero", "sparse-float", "sparse-bool",
        "sparse-past-the-end", "sparse-negative", "sparse-float-position",
        "sparse-bool-position"])
def test_universal_rejects_what_int_would_misread(relation, message):
    with pytest.raises(ValueError, match=message):
        universal_abelian_group(["a"], [relation])


def dense_universal_group(labels, relations):
    """Reference: Smith normal form of the whole label x relation matrix,
    without unit-pivot elimination."""
    labels = list(labels)
    n = len(labels)
    rows = sorted({tuple(int(c) for c in rel) for rel in relations if any(rel)})
    r = len(rows)
    cols = [[rows[j][i] for j in range(r)] for i in range(n)]
    if r == 0:
        diag = [0] * n
        u = [[int(i == j) for j in range(n)] for i in range(n)]
    else:
        d, u = smith_normal_form(cols)
        diag = [d[i][i] if i < r else 0 for i in range(n)]
    free_rows = [i for i in range(n) if diag[i] == 0]
    tors_rows = [i for i in range(n) if diag[i] >= 2]
    group = AbelianGroup(len(free_rows), tuple(diag[i] for i in tors_rows))
    projection = {}
    for idx, label in enumerate(labels):
        coords = [u[i][idx] for i in free_rows] + [u[i][idx] for i in tors_rows]
        projection[label] = group.element(coords)
    return group, projection


@st.composite
def _ternary_relations(draw):
    """Harvest-like relations a + b - c; repeated labels give 2a - c, b and a."""
    n = draw(st.integers(1, 8))
    rels = []
    for a, b, c in draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), max_size=14)):
        vec = [0] * n
        vec[a] += 1
        vec[b] += 1
        vec[c] -= 1
        rels.append(tuple(vec))
    return n, rels


@st.composite
def _relations_without_unit_entries(draw):
    """Small relation sets in which no entry is +-1, so nothing is eliminated."""
    n = draw(st.integers(1, 5))
    entry = st.sampled_from([0, 0, 2, -2, 3, -3, 4, 6, -6, 9])
    rels = draw(st.lists(st.tuples(*[entry] * n), max_size=6))
    return n, rels


def _check_presentation(n, rels):
    labels = [f"x{i}" for i in range(n)]
    _assert_presents(labels, rels, *universal_abelian_group(labels, rels))


def _assert_presents(labels, rels, group, proj):
    """Same group as the dense reference, every relation maps to zero, and the
    labels generate the group.  A surjection from Z^n / <rels> onto an
    isomorphic finitely generated abelian group is injective, so the kernel
    of the projection is exactly the relation span.  Sparse relations are
    read in their dense form."""
    rels = [tuple(rel.get(i, 0) for i in range(len(labels))) if isinstance(rel, Mapping)
            else rel for rel in rels]
    assert group == dense_universal_group(labels, rels)[0]
    for rel in rels:
        acc = group.zero()
        for c, lab in zip(rel, labels):
            acc = acc + c * proj[lab]
        assert acc.is_zero(), rel
    if group.rank:
        # images of the labels plus the torsion relations must span Z^rank
        rows = [list(proj[lab].coords) for lab in labels]
        for k, m in enumerate(group.torsion):
            rows.append([m * (i == group.free_rank + k) for i in range(group.rank)])
        factors = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
        assert [int(f) for f in factors] == [1] * group.rank


@settings(max_examples=200, deadline=None)
@given(_ternary_relations())
def test_universal_ternary_relations_against_dense_reference(case):
    _check_presentation(*case)


@settings(max_examples=100, deadline=None)
@given(_relations_without_unit_entries())
def test_universal_non_unit_relations_against_dense_reference(case):
    _check_presentation(*case)


@st.composite
def _harvest_shaped_relations(draw):
    """Sparse relations L_a + L_b - L_c, as the harvest passes them, on
    label blocks drawn apart.  a == b gives 2 L_a - L_c, where the only open
    label can have coefficient 2; c == a or b gives a unit vector; and a
    block with few relations, or none, leaves labels that must survive."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    rels, start = [], 0
    for size in sizes:
        block = st.integers(start, start + size - 1)
        for a, b, c in draw(st.lists(st.tuples(block, block, block), max_size=2 * size)):
            rel = {a: 1}
            rel[b] = rel.get(b, 0) + 1
            rel[c] = rel.get(c, 0) - 1
            rels.append({x: e for x, e in rel.items() if e})
        start += size
    return start, rels


@settings(max_examples=200, deadline=None)
@given(_harvest_shaped_relations())
@example((2, [{0: -1, 1: 2}])).via("label 1 is left open with coefficient 2, so it survives")
@example((3, [{0: 1, 1: 1, 2: -1}, {0: 2}])).via("a + b - c with 2a = 0")
@example((4, [{0: 1, 1: 1, 2: -1}])).via("label 3 has no relation")
@example((5, [{0: 2, 1: -1}, {3: 1, 4: 1, 2: -1}, {1: 1}])).via("two blocks, a unit vector")
@example((1, [])).via("no relation")
def test_universal_sparse_relations_against_dense_reference(case):
    """The same group as the dense Smith normal form, every relation zero
    under the projection, and the dense form of the same relations gives
    the same result."""
    n, sparse = case
    dense = [tuple(rel.get(i, 0) for i in range(n)) for rel in sparse]
    labels = [f"x{i}" for i in range(n)]
    assert universal_abelian_group(labels, sparse) == universal_abelian_group(labels, dense)
    _check_presentation(n, dense)


@settings(max_examples=100, deadline=None)
@given(_ternary_relations(), st.randoms(use_true_random=False))
def test_universal_ignores_relation_order_and_repeats(case, rnd):
    n, rels = case
    labels = list(range(n))
    shuffled = rels + rnd.sample(rels, len(rels) // 2)
    rnd.shuffle(shuffled)
    assert universal_abelian_group(labels, shuffled) == universal_abelian_group(labels, rels)


def eager_projection(group, projection) -> dict:
    """The oracle of the lazy projection: every label's image built at once,
    the kept rows of u dotted with the label's vector on the survivors.  It
    reads those rows and vectors off the projection, so it checks only that
    deferring the build keeps each image; `_assert_presents`, which reads
    nothing inside `universal_abelian_group`, checks the images themselves."""
    return {label: group.element([sum(map(operator.mul, row, vector))
                                  for row in projection._images])
            for label, vector in projection._vectors.items()}


@settings(max_examples=200, deadline=None)
@given(st.one_of(_harvest_shaped_relations(), _ternary_relations(),
                 _relations_without_unit_entries()),
       st.randoms(use_true_random=False))
def test_lazy_projection_equals_the_eager_one(case, rnd):
    """Read in any order, sparse or dense relations: the images are those
    the eager build gives, and they present the group."""
    n, rels = case
    labels = [f"x{i}" for i in range(n)]
    group, projection = universal_abelian_group(labels, rels)
    for label in rnd.sample(labels, rnd.randint(0, n)):
        projection[label]
    assert dict(projection) == eager_projection(group, projection)
    _assert_presents(labels, rels, group, projection)


def test_lazy_projection_equals_the_eager_one_on_every_classify_row(monkeypatch):
    import gradecat.matrix as matrix

    handed = []

    def recording(labels, relations):
        handed.append((list(labels), list(relations)))
        return universal_abelian_group(*handed[-1])

    monkeypatch.setattr(matrix, "universal_abelian_group", recording)
    for name in ("M1R", "M2R", "H", "M1C", "M2C", "M3C", "M4C"):
        for row in classify(name):
            handed.clear()
            # row.algebra is kept on its D, harvested already: harvest a copy
            r = row.algebra
            unshared = matrix.matrix_algebra(r.division, gamma=r.gamma, ambient=r.ambient,
                                             embed=r.embed)
            group, projection = harvest_universal_group(unshared)
            (labels, relations), = handed
            assert list(projection) == labels == row.algebra.degree_labels()[0]
            assert dict(projection) == eager_projection(group, projection), name
            _assert_presents(labels, relations, group, projection)


def test_projection_is_a_read_only_mapping_in_label_order():
    labels, rels = ["z", "a", "m", "b"], [[2, 0, 0, 0], [0, 3, -1, 0], [0, 1, 1, -1]]
    group, projection = universal_abelian_group(labels, rels)
    assert isinstance(projection, Mapping) and not isinstance(projection, dict)
    assert list(projection) == labels and len(projection) == 4
    assert "a" in projection and "y" not in projection
    with pytest.raises(KeyError, match="'y'"):
        projection["y"]
    first = projection["m"]
    assert projection["m"] is first and projection.get("m") is first
    with pytest.raises(TypeError):
        projection["m"] = group.zero()
    fresh = universal_abelian_group(labels, rels)
    assert fresh == (group, projection) and fresh[1] == dict(projection)
    assert list(projection.items()) == list(eager_projection(group, projection).items())


def test_invariant_factors_gates_every_call_behind_its_cache():
    assert abelian.invariant_factors([2, 4]) == abelian.invariant_factors((2, 4)) == (2, 4)
    for orders in ([2.0, 4], [True, 2]):  # equal and of equal hash to a cached key
        with pytest.raises(TypeError, match="cyclic order"):
            abelian.invariant_factors(orders)
    with pytest.raises(ValueError, match="must be positive, got 0"):
        abelian.invariant_factors([0, 2])
    assert abelian.invariant_factors([3, 2, 4]) == (2, 12)


# ---------------------------------------------------------------------------
# the support layout
# ---------------------------------------------------------------------------

@st.composite
def _cyclic_orders(draw, bound=256):
    """Orders of cyclic factors, in any order, with product at most `bound`."""
    orders = []
    while 2 * math.prod(orders) <= bound and draw(st.booleans()):
        orders.append(draw(st.integers(2, min(16, bound // math.prod(orders)))))
    return orders


def _reference_sums(group):
    """The addition table of `group.elements()` by GroupElement sums."""
    elements = tuple(group.elements())
    index = {x: i for i, x in enumerate(elements)}
    return tuple(tuple(index[x + y] for y in elements) for x in elements)


@settings(max_examples=25, deadline=None)
@given(_cyclic_orders())
@example([]).via("the trivial group")
@example([2, 4, 8]).via("a mixed 2-chain")
@example([3, 6]).via("a mixed chain with an odd factor")
@example([5, 7]).via("odd order")
@example([2] * 8).via("Z2^8")
def test_support_table_is_the_sum_table_in_the_mixed_radix_layout(orders):
    group = Z.from_cyclic_orders(orders)
    elements, index, add = support_table(group)
    assert elements == tuple(group.elements())
    assert all(index[x] == i for i, x in enumerate(elements))
    assert add == _reference_sums(group)
    # the coordinate generator e_j sits at |T_(j+1)|
    assert [index[g] for g in group.generators()] == [
        math.prod(group.torsion[j + 1:]) for j in range(len(group.torsion))]


def test_support_table_bicharacter_and_group_algebra_add_no_group_elements(monkeypatch):
    group = Z(0, (2, 6, 6))
    elements = tuple(group.elements())
    sub = {elements.index(x) for x in subgroup_generated(group, [elements[7], elements[6]])}
    assert 1 < len(sub) < len(elements)
    support_table.cache_clear()  # the table is built under the patch, not read from the cache

    def refuse(self, other):
        raise AssertionError("a GroupElement was added")

    with monkeypatch.context() as patch:
        patch.setattr(GroupElement, "__add__", refuse)
        with pytest.raises(AssertionError):
            elements[1] + elements[1]
        _, index, add = support_table(group)
        beta = _alternating(group, sub, [[0, 1, 0], [0, 0, 1], [0, 0, 0]], _kind(group))
        # the algebra's own validation adds degrees: keep the arguments only
        patch.setattr(structconst, "StructureConstantAlgebra", lambda *args: args)
        labels, degrees, table, unity = structconst.group_algebra(group)
    assert add == _reference_sums(group)
    assert beta.domain == tuple(elements[x] for x in sorted(sub))
    assert subgroup_generated(group, [elements[x] for x in beta.generators]) == set(beta.domain)
    algebra = structconst.StructureConstantAlgebra(labels, degrees, table, unity)
    assert algebra.degrees == elements and algebra.unity == {index[group.zero()]: 1}
    assert algebra.table == {(index[x], index[y]): {index[x + y]: 1}
                             for x in elements for y in elements}


# ---------------------------------------------------------------------------
# subgroups, quotients, characters
# ---------------------------------------------------------------------------

def test_subgroup_generated():
    g = Z2xZ4
    sub = subgroup_generated(g, [g.element((0, 2))])
    assert len(sub) == 2
    assert abstract_type(sub) == Z(0, (2,))


def square_subgroup(group):
    """(type of T^[2], type of T / T^[2]) for a finite group T, as an oracle."""
    sq = square_elements(group)
    return abstract_type(sq), quotient_type(group, sq)


def test_square_subgroup_elementary():
    sub, quot = square_subgroup(Z(0, (2, 2, 2)))
    assert sub == Z.trivial()
    assert quot == Z(0, (2, 2, 2))


def test_square_subgroup_z2_z4():
    sub, quot = square_subgroup(Z2xZ4)
    assert sub == Z(0, (2,))
    assert quot == Z2xZ2


def test_square_subgroup_z4_z4():
    sub, quot = square_subgroup(Z(0, (4, 4)))
    assert sub == Z2xZ2
    assert quot == Z2xZ2


def test_quotient_type():
    g = Z(0, (4, 4))
    sub = subgroup_generated(g, [g.element((1, 0))])
    assert quotient_type(g, sub) == Z(0, (4,))


def brute_hom_count(group, m):
    """Count maps T -> Z_m that are homomorphisms, by exhaustion."""
    target = AbelianGroup(0, (m,)) if m > 1 else AbelianGroup.trivial()
    elements = list(group.elements())
    index = {e.coords: i for i, e in enumerate(elements)}
    count = 0
    for values in itertools.product(range(m), repeat=len(elements)):
        ok = True
        for a in elements:
            for b in elements:
                if (values[index[a.coords]] + values[index[b.coords]]) % m != values[index[(a + b).coords]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def test_character_group_small_brute_force():
    for torsion in [(2, 2), (3,), (2, 4), (4,)]:
        g = Z(0, torsion)
        got = character_group(g, 2)
        assert (got.order() or 1) == brute_hom_count(g, 2)


def test_character_group_examples():
    assert character_group(Z2xZ2, 2) == Z2xZ2
    assert character_group(Z(0, (3,)), 2) == Z.trivial()
    assert character_group(Z2xZ4, 2) == Z2xZ2
    assert character_group(Z(0, (3, 3)), 3) == Z(0, (3, 3))


def test_hom_count_even_factor_rule():
    # |Hom(T, Z2)| = 2^(number of even invariant factors), up to |T| = 64
    for torsion in [(2,), (2, 2), (2, 4), (4, 4), (2, 2, 2), (3,), (6,), (2, 6),
                    (8,), (2, 2, 4), (2, 4, 8), (4, 4, 4), (8, 8), (2, 2, 2, 8)]:
        g = Z(0, torsion)
        expected = 2 ** sum(1 for m in torsion if m % 2 == 0)
        assert (character_group(g, 2).order() or 1) == expected


# ---------------------------------------------------------------------------
# automorphism groups as stabilizer chains
# ---------------------------------------------------------------------------

def _aut_elements(group, label=None, betas=()):
    """The elements of the chain of `automorphism_group`, in position order."""
    return sorted(chain_elements(automorphism_group(group, label, betas)))


def test_aut_z2_is_trivial():
    assert _aut_elements(Z(0, (2,))) == [(0, 1)]


def brute_gl2_f2_count():
    count = 0
    for entries in itertools.product(range(2), repeat=4):
        a, b, c, d = entries
        if (a * d - b * c) % 2 == 1:
            count += 1
    return count


def test_aut_z2_squared():
    auts = _aut_elements(Z2xZ2)
    assert len(auts) == brute_gl2_f2_count() == 6


def test_aut_z3_squared_is_gl23():
    auts = _aut_elements(Z(0, (3, 3)))
    assert len(auts) == 48


def test_aut_z2_z4():
    auts = _aut_elements(Z2xZ4)
    assert len(auts) == 8


def test_aut_is_a_group():
    g = Z2xZ4
    auts = _aut_elements(g)
    keys = set(auts)
    ident = tuple(range(g.order()))
    assert ident in keys
    for f in auts:
        for h in auts:
            assert compose(f, h) in keys
    for f in auts:
        # every element has an inverse in the list
        assert any(
            compose(f, h) == ident and compose(h, f) == ident for h in auts
        )


def _groups_up_to(order):
    """Every abelian group of order <= `order`, once, as invariant-factor chains."""
    def chains(prefix, product):
        yield prefix
        step = prefix[-1] if prefix else 1
        m = max(step, 2)
        while product * m <= order:
            yield from chains(prefix + (m,), product * m)
            m += step
    return [Z(0, t) for t in chains((), 1)]


def hillar_rhea_aut_order(group):
    """|Aut| of a finite abelian group, Hillar and Rhea, Amer. Math. Monthly 114 (2007)."""
    by_prime = {}
    for m in group.torsion:
        for p, e in sympy.factorint(m).items():
            by_prime.setdefault(p, []).append(e)
    total = 1
    for p, e in by_prime.items():
        e.sort()
        n = len(e)
        for k in range(n):
            d = max(l for l in range(1, n + 1) if e[l - 1] == e[k])
            c = min(l for l in range(1, n + 1) if e[l - 1] == e[k])
            total *= (p ** d - p ** k) * p ** (e[k] * (n - d)) * p ** ((e[k] - 1) * (n - c + 1))
    return total


def _is_automorphism(group, p):
    """p is a bijection of the support positions with p(x + y) = p(x) + p(y)."""
    add = support_table(group)[2]
    n = group.order()
    return sorted(p) == list(range(n)) and all(
        [p[k] for k in add[i]] == [add[p[i]][q] for q in p] for i in range(n))


def _strong_generators(transversals):
    return [u for level in transversals for u in level[1:]]


def _assert_chain(group, transversals):
    """Level j fixes T_(j+1), the prefix of |T_(j+1)| positions, and sends
    g_j, at position |T_(j+1)|, to distinct points, the identity first."""
    assert len(transversals) == len(group.torsion)
    size = group.order()
    for m, level in zip(group.torsion, transversals):
        size //= m  # |T_(j+1)|
        assert level[0] == tuple(range(group.order()))
        assert all(u[:size] == level[0][:size] for u in level)
        assert len({u[size] for u in level}) == len(level)


def test_aut_search_against_hillar_rhea():
    groups = _groups_up_to(32)
    # one group per choice of a partition of each prime exponent
    assert len(groups) == sum(
        math.prod(int(sympy.partition(e)) for e in sympy.factorint(n).values())
        for n in range(1, 33))
    for g in groups:
        chain = automorphism_group(g)
        _assert_chain(g, chain)
        assert math.prod(map(len, chain)) == hillar_rhea_aut_order(g), g
        assert all(_is_automorphism(g, p) for p in _strong_generators(chain)), g


def test_chain_generates_a_permutation_group_of_its_order():
    # sympy's Schreier-Sims on the strong generators, independent of the chain
    from sympy.combinatorics import Permutation, PermutationGroup

    for g in _groups_up_to(32):
        chain = automorphism_group(g)
        strong = _strong_generators(chain) or [tuple(range(g.order()))]
        group = PermutationGroup([Permutation(list(p)) for p in strong])
        assert group.order() == math.prod(map(len, chain)), g


def test_chain_elements_list_the_group_once():
    for g in _groups_up_to(16):
        elements = chain_elements(automorphism_group(g))
        assert len(set(elements)) == len(elements) == hillar_rhea_aut_order(g), g
        assert elements[0] == tuple(range(g.order()))
        assert all(_is_automorphism(g, p) for p in elements), g


def test_aut_bounds():
    with pytest.raises(AutBoundError):
        automorphism_group(Z(1, ()))
    with pytest.raises(AutBoundError):
        automorphism_group(Z(0, (257,)))
    # |T| = ELEMENT_BOUND is in reach, Z2^5 too: its search once refused
    assert math.prod(map(len, automorphism_group(Z(0, (256,))))) == 128
    assert math.prod(map(len, automorphism_group(Z(0, (2,) * 5)))) == 9999360


@functools.lru_cache(maxsize=None)
def _all_automorphisms(group):
    return tuple(_aut_elements(group))


def _filtered(group, label=None, tables=()):
    """All of Aut(T), then the invariants of `automorphism_group` at every
    position and every pair of positions."""
    positions = range(group.order())
    kept = []
    for p in _all_automorphisms(group):
        if label is not None and [label[x] for x in p] != list(label):
            continue
        if tables and not any(all(t[p[x]][p[y]] == tables[0][x][y]
                                  for x in positions for y in positions) for t in tables):
            continue
        kept.append(p)
    return kept


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_label_search_is_the_filter_of_aut(data):
    group = data.draw(st.sampled_from(_groups_up_to(16)))
    n = group.order()
    if data.draw(st.booleans()):
        colours = data.draw(st.integers(1, 3))
        label = [0] + data.draw(st.lists(st.integers(1, colours), min_size=n - 1,
                                         max_size=n - 1))
    else:
        # the orbits of a random automorphism q, named by their least position,
        # so that the kept list holds at least the powers of q
        q = data.draw(st.sampled_from(_all_automorphisms(group)))
        label = list(range(n))
        for x in range(n):
            y = q[x]
            while y != x:
                label[x] = min(label[x], y)
                y = q[y]
    assert _aut_elements(group, label) == _filtered(group, label)


def _alternating(group, sub, skew, kind):
    """beta(u, v) = prod zeta_gcd(m_i, m_j)^(skew[i][j] u_i v_j) on the
    subgroup with the positions `sub`, as a Bicharacter of `kind`; skew[i][j]
    is read for i < j, and skew[j][i] is its negative."""
    n, m = kind.conductor, group.torsion

    def power(u, v):  # the exponent of zeta_n
        return sum(skew[i][j] * (u[i] * v[j] - u[j] * v[i]) * (n // math.gcd(m[i], m[j]))
                   for i, j in itertools.combinations(range(len(m)), 2))

    elements = support_table(group)[0]
    return Bicharacter(group, kind, [
        [kind.exponent(zeta(n, power(u.coords, v.coords))) if x in sub and y in sub else None
         for y, v in enumerate(elements)] for x, u in enumerate(elements)])


def _kind(group):
    """The coefficients of the values of `_alternating` on `group`."""
    return CoefficientKind.complex(math.lcm(group.exponent(), 4))


def test_table_search_tests_every_pair():
    # K the whole group or cyclic, and beta trivial or marked at one pair of
    # coordinates; with no label only beta keeps K
    for group in (Z(0, (4,)), Z2xZ2, Z2xZ4, Z(0, (3, 3)), Z(0, (2, 2, 2))):
        elements, index, _ = support_table(group)
        r = len(group.torsion)
        subgroups = {frozenset(index[y] for y in subgroup_generated(group, gens))
                     for gens in [elements] + [[x] for x in elements]}
        marks = [[[0] * r for _ in range(r)]]
        for i, j in itertools.combinations(range(r), 2):
            marks.append([[int((a, b) == (i, j)) for b in range(r)] for a in range(r)])
        for sub, skew in itertools.product(sorted(subgroups, key=sorted), marks):
            beta = _alternating(group, sub, skew, _kind(group))
            assert _aut_elements(group, None, [beta]) == \
                _filtered(group, None, [beta.ids]), (group, sorted(sub), skew)


def test_the_conjugate_must_hold_on_the_fixed_prefix():
    # On Z3^3 with beta(g0, g1) = beta(g1, g2) = z, p: g0 -> g0 + 2 g2 (the
    # identity on g1, g2) takes beta to its conjugate at the pairs new to g0
    # but not at (g1, g2), so it keeps neither: the level that starts from
    # the identity on g1, g2 must drop the conjugate before its search
    group = Z(0, (3, 3, 3))
    beta = _alternating(group, set(range(group.order())),
                        [[0, 1, 0], [0, 0, 1], [0, 0, 0]], _kind(group))
    kept = _aut_elements(group, None, [beta, beta.conjugate()])
    assert kept == _filtered(group, None, [beta.ids, beta.conjugate().ids])
    elements, index, _ = support_table(group)
    shift = 2 * group.generators()[2]
    p = tuple(index[x + x.coords[0] * shift] for x in elements)
    assert p in _all_automorphisms(group) and p not in kept


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_table_search_on_a_subgroup_is_the_filter_of_aut(data):
    group = data.draw(st.sampled_from(_groups_up_to(16)))
    elements, index, _ = support_table(group)
    gens = data.draw(st.lists(st.sampled_from(elements), max_size=2))
    sub = {index[x] for x in subgroup_generated(group, gens)}
    r, kind = len(group.torsion), _kind(group)
    skew = data.draw(st.lists(st.lists(st.integers(0, group.exponent() - 1), min_size=r,
                                       max_size=r), min_size=r, max_size=r))
    beta = _alternating(group, sub, skew, kind)
    # beta alone, or with its conjugate: either way the kept p form a group
    betas = [beta, beta.conjugate()] if data.draw(st.booleans()) else [beta]
    # without a label only beta keeps the subgroup
    label = data.draw(st.none() | st.just([int(x in sub) for x in range(group.order())]))
    assert _aut_elements(group, label, betas) == \
        _filtered(group, label, [b.ids for b in betas])


@st.composite
def _group_and_generators(draw):
    orders = draw(st.lists(st.integers(2, 12), max_size=3).filter(lambda ms: math.prod(ms) <= 144))
    group = Z.from_cyclic_orders(orders)
    elements = list(group.elements())
    return group, draw(st.lists(st.sampled_from(elements), max_size=3))


@settings(max_examples=100, deadline=None)
@given(_group_and_generators())
def test_quotient_order_is_index(case):
    group, gens = case
    sub = subgroup_generated(group, gens)
    assert quotient_type(group, sub).order() * len(sub) == group.order()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 12), max_size=3).filter(lambda ms: math.prod(ms) <= 144))
def test_abstract_type_agrees_with_sympy_invariant_factors(orders):
    # the element set of Z_m1 x ... x Z_mr as plain tuples, whatever the orders
    elements = list(itertools.product(*(range(m) for m in orders)))
    add = lambda x, y: tuple((a + b) % m for a, b, m in zip(x, y, orders))
    got = abstract_type(elements, add=add)
    theirs = invariant_factors(sympy.diag(*orders), domain=sympy.ZZ) if orders else ()
    assert got == Z(0, tuple(int(f) for f in theirs if f != 1))


@settings(max_examples=100, deadline=None)
@given(_group_and_generators())
def test_quotient_type_agrees_with_sympy_invariant_factors(case):
    # T / <gens> is Z^r modulo the rows of diag(m_i) and the generators' coordinates
    group, gens = case
    rows = [[m * (i == j) for j in range(group.rank)] for i, m in enumerate(group.torsion)]
    rows += [list(g.coords) for g in gens]
    theirs = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ) if group.rank else ()
    got = quotient_type(group, subgroup_generated(group, gens))
    assert got == Z(0, tuple(int(f) for f in theirs if f != 1))


def test_abstract_type_census():
    g = Z(0, (2, 4))
    assert abstract_type(g.elements()) == g
    h = Z(0, (6,))
    assert abstract_type(h.elements()) == h
