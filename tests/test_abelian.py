import itertools
import math
import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.matrices.normalforms import invariant_factors

from gradecat.abelian import (
    AbelianGroup,
    AutBoundError,
    GroupHomomorphism,
    GroupMismatchError,
    abstract_type,
    automorphism_group,
    character_group,
    parse_group_string,
    quotient_type,
    smith_normal_form,
    square_subgroup,
    subgroup_generated,
    universal_abelian_group,
)

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


# ---------------------------------------------------------------------------
# subgroups, quotients, characters
# ---------------------------------------------------------------------------

def test_subgroup_generated():
    g = Z2xZ4
    sub = subgroup_generated(g, [g.element((0, 2))])
    assert len(sub) == 2
    assert abstract_type(sub) == Z(0, (2,))


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
# automorphism enumeration
# ---------------------------------------------------------------------------

def test_aut_z2_is_trivial():
    assert len(automorphism_group(Z(0, (2,)))) == 1


def brute_gl2_f2_count():
    count = 0
    for entries in itertools.product(range(2), repeat=4):
        a, b, c, d = entries
        if (a * d - b * c) % 2 == 1:
            count += 1
    return count


def test_aut_z2_squared():
    auts = automorphism_group(Z2xZ2)
    assert len(auts) == brute_gl2_f2_count() == 6


def test_aut_z3_squared_is_gl23():
    auts = automorphism_group(Z(0, (3, 3)))
    assert len(auts) == 48


def test_aut_z2_z4():
    auts = automorphism_group(Z2xZ4)
    assert len(auts) == 8


def test_aut_is_a_group():
    g = Z2xZ4
    auts = automorphism_group(g)
    keys = {tuple(i.coords for i in f.images) for f in auts}
    ident = GroupHomomorphism.identity(g)
    assert tuple(i.coords for i in ident.images) in keys
    for f in auts:
        for h in auts:
            comp = f.compose(h)
            assert tuple(i.coords for i in comp.images) in keys
    for f in auts:
        # every element has an inverse in the list
        assert any(
            f.compose(h) == ident and h.compose(f) == ident for h in auts
        )


def test_aut_bounds():
    with pytest.raises(AutBoundError):
        automorphism_group(Z(1, ()))
    with pytest.raises(AutBoundError):
        automorphism_group(Z(0, (257,)))
    with pytest.raises(AutBoundError):
        automorphism_group(Z(0, (2,) * 5))


@st.composite
def _group_and_generators(draw):
    orders = draw(st.lists(st.sampled_from([2, 3, 4]), max_size=3))
    group = Z.from_cyclic_orders(orders)
    elements = list(group.elements())
    return group, draw(st.lists(st.sampled_from(elements), max_size=3))


@settings(max_examples=100, deadline=None)
@given(_group_and_generators())
def test_quotient_order_is_index(case):
    group, gens = case
    sub = subgroup_generated(group, gens)
    assert quotient_type(group, sub).order() * len(sub) == group.order()


def test_abstract_type_census():
    g = Z(0, (2, 4))
    assert abstract_type(g.elements()) == g
    h = Z(0, (6,))
    assert abstract_type(h.elements()) == h
