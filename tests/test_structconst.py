import functools
import json
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gradecat.abelian import AbelianGroup
from gradecat.division import canonical, parse_catalog_ref
from gradecat.structconst import (
    NO_WITNESS,
    NotInvertibleError,
    StructureConstantAlgebra,
    center_basis,
    direct_sum,
    from_division,
    group_algebra,
    homogeneous_witness,
    hxh_counterexample,
    inner_stabilizer_quotient,
    int_in_stabilizer,
    invert,
    is_graded_simple,
    nullspace,
    quaternion_pair_algebra,
    solve_square,
)
from gradecat.verify import graded_simple_fixtures


def test_solve_square():
    assert solve_square([[2, 0], [0, 4]], [1, 2]) == [Fraction(1, 2), Fraction(1, 2)]
    assert solve_square([[1, 1], [2, 2]], [1, 1]) is None


@st.composite
def _integer_matrices(draw, square=False):
    """Small integer matrices; a row is often a combination of two others, so
    singular and rank-deficient inputs are common."""
    width = draw(st.integers(1, 5))
    height = width if square else draw(st.integers(0, 5))
    rows = [draw(st.lists(st.integers(-3, 3), min_size=width, max_size=width))
            for _ in range(height)]
    if height >= 3 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows, width


def _rationals(values):
    return [sympy.Rational(v.numerator, v.denominator) for v in values]


@settings(max_examples=200, deadline=None)
@given(_integer_matrices(square=True), st.lists(st.integers(-3, 3), min_size=5, max_size=5))
def test_solve_square_agrees_with_sympy(system, rhs):
    matrix, n = system
    rhs = rhs[:n]
    y = solve_square(matrix, rhs)
    m = sympy.Matrix(matrix)
    if m.rank() < n:
        assert y is None
    else:
        assert _rationals(y) == list(m.LUsolve(sympy.Matrix(rhs)))


@settings(max_examples=200, deadline=None)
@given(_integer_matrices())
def test_nullspace_agrees_with_sympy(system):
    rows, width = system
    basis = nullspace(rows, width)
    m = sympy.Matrix(rows) if rows else sympy.zeros(0, width)
    assert len(basis) == width - m.rank() == len(m.nullspace())
    for vec in basis:
        assert all(x == 0 for x in m * sympy.Matrix(_rationals(vec)))
    if basis:
        ours = sympy.Matrix([_rationals(v) for v in basis])
        assert ours.rank() == len(basis)
        theirs = sympy.Matrix.vstack(ours, *(v.T for v in m.nullspace()))
        assert theirs.rank() == len(basis)


def test_group_algebra_is_graded_simple_but_not_simple():
    a = group_algebra(AbelianGroup(0, (4,)))
    assert is_graded_simple(a)
    # 1 + x^2 is a zero divisor, so the ungraded algebra is not simple
    z = a.element({0: Fraction(1), 2: Fraction(1)})
    assert invert(z) is None


def test_validation_catches_bad_tables():
    g = AbelianGroup(0, (2,))
    e, t = g.zero(), g.element((1,))
    labels = ["one", "x"]
    degrees = [e, t]
    good = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}}
    StructureConstantAlgebra(labels, degrees, good, {0: 1})
    bad_grading = dict(good)
    bad_grading[(1, 1)] = {1: 1}
    with pytest.raises(ValueError):
        StructureConstantAlgebra(labels, degrees, bad_grading, {0: 1})
    bad_assoc = dict(good)
    bad_assoc[(1, 1)] = {0: 2}
    bad_assoc[(0, 1)] = {1: 1}
    # x(xx) = 2, (xx)x = 2x ... scale one side to break associativity
    bad_assoc[(1, 0)] = {1: 3}
    with pytest.raises(ValueError):
        StructureConstantAlgebra(labels, degrees, bad_assoc, {0: 1})


def test_division_exports_agree_with_crossed_products():
    rng = random.Random(4)
    for ref in ("1-b:Z2xZ2", "1-d:Z2xZ4", "2-f:Z3^2", "2-e:Z4", "3-b:Z2xZ2"):
        d = parse_catalog_ref(ref)
        a = from_division(d)
        width = len(d.kind.basis())
        assert a.dim == d.support.order() * width
        # spot-check products against the crossed-product law
        elems = list(d.elements())
        for _ in range(20):
            t, s = rng.choice(elems), rng.choice(elems)
            b1, b2 = rng.randrange(width), rng.randrange(width)
            x = d.unit(t, d.kind.basis()[b1])
            y = d.unit(s, d.kind.basis()[b2])
            prod = x * y
            i = elems.index(t) * width + b1
            j = elems.index(s) * width + b2
            entry = a.table.get((i, j), {})
            vec = d.kind.to_vector(prod.coefficient(t + s))
            k0 = elems.index(t + s) * width
            assert entry == {k0 + b3: c for b3, c in enumerate(vec) if c}


def test_matrix_like_exports_are_graded_simple():
    for ref in ("1-a:Z2xZ2", "1-b:Z2xZ2", "1-c:Z2", "1-d:Z2xZ4", "2-f:Z3^2", "2-e:Z4"):
        assert is_graded_simple(from_division(parse_catalog_ref(ref)))


def test_trivially_graded_field_is_graded_simple():
    a = group_algebra(AbelianGroup.trivial())
    assert is_graded_simple(a)


def test_center_of_quaternions():
    a = from_division(canonical("1-b", "Z2xZ2"))
    basis = center_basis(a)
    assert len(basis) == 1


def test_center_supports_of_dimension_two_types():
    # the dimension-2 non-central types all have center C; its support is
    # {e, z} for 2-c and exactly T^[2] for 2-d and 2-e
    cases = {
        "2-c:Z2xZ2": {(0, 0), (0, 1)},
        "2-d:Z2^2xZ4": {(0, 0, 0), (0, 0, 2)},
        "2-e:Z4": {(0,), (2,)},
    }
    for ref, expected in cases.items():
        d = parse_catalog_ref(ref)
        a = from_division(d)
        centre = center_basis(a)
        assert len(centre) == 2
        degs = set()
        for z in centre:
            degs.update(deg.coords for deg in z.homogeneous_components())
        assert degs == expected
        square_degrees = {(2 * t).coords for t in d.support.elements()}
        if ref != "2-c:Z2xZ2":
            assert degs == square_degrees


def test_int_in_stabilizer_homogeneous_always():
    a = from_division(canonical("1-b", "Z2xZ2"))
    for i in range(a.dim):
        x = a.basis_element(i)
        assert int_in_stabilizer(a, x)
        assert homogeneous_witness(a, x) != NO_WITNESS


def test_int_not_in_stabilizer_for_generic_unit():
    # I + E_12 in the fine Z-grading on M_2(R)
    from gradecat.matrix import matrix_algebra, to_structure_constants

    r = matrix_algebra(canonical("1-a", AbelianGroup.trivial()), k=2)
    a = to_structure_constants(r)
    one = a.one()
    e12 = next(
        a.basis_element(i) for i in range(a.dim)
        if a.labels[i].startswith("E[0,1]")
    )
    x = one + e12
    assert invert(x) is not None
    assert not int_in_stabilizer(a, x)


def test_witnesses_on_central_products():
    # (1 + X_{s^2}) * X_u has two homogeneous components, both invertible,
    # and both induce the same inner automorphism
    d = canonical("2-e", "Z4")
    a = from_division(d)
    s2_idx = next(i for i, deg in enumerate(a.degrees) if deg.coords == (2,) and i % 2 == 0)
    u_idx = next(i for i, deg in enumerate(a.degrees) if deg.coords == (1,) and i % 2 == 0)
    z = a.one() + a.basis_element(s2_idx)
    x = z * a.basis_element(u_idx)
    assert len(x.homogeneous_components()) == 2
    assert int_in_stabilizer(a, x)
    wits = homogeneous_witness(a, x)
    assert wits != NO_WITNESS
    assert len(wits) == 2


def test_non_invertible_conjugator_raises():
    a = quaternion_pair_algebra()
    with pytest.raises(NotInvertibleError):
        int_in_stabilizer(a, a.basis_element(1))  # (i, 0) is a zero divisor


def test_hxh_counterexample_report():
    report = hxh_counterexample()
    assert report.graded_simple is False
    assert report.int_ii_stabilizes is True
    assert report.invertible_homogeneous_all_central is True
    assert report.all_pass()
    # the failing witness: components of (i, i) are not invertible
    a = report.algebra
    x = a.element({1: Fraction(1), 5: Fraction(1)})
    assert homogeneous_witness(a, x) is NO_WITNESS


def test_inner_stabilizer_quotient_quaternions():
    quotient, gens = inner_stabilizer_quotient(from_division(canonical("1-b", "Z2xZ2")))
    assert quotient == AbelianGroup(0, (2, 2))
    assert len(gens) == 3


def test_inner_stabilizer_quotient_1d_is_t_mod_squares():
    d = canonical("1-d", "Z2xZ4")
    quotient, _ = inner_stabilizer_quotient(from_division(d))
    assert quotient == AbelianGroup(0, (2, 2))


def test_inner_stabilizer_quotient_trivial_grading():
    quotient, gens = inner_stabilizer_quotient(group_algebra(AbelianGroup.trivial()))
    assert quotient.is_trivial()
    assert gens == []


def test_inner_stabilizer_quotient_requires_graded_simple():
    with pytest.raises(ValueError):
        inner_stabilizer_quotient(quaternion_pair_algebra())


def test_direct_sum_grading():
    a = group_algebra(AbelianGroup(0, (2,)))
    b = group_algebra(AbelianGroup(0, (2,)))
    s = direct_sum(a, b)
    assert s.dim == 4
    assert not is_graded_simple(s)
    assert s.group == AbelianGroup(0, (2, 2))


def test_json_roundtrip():
    a = from_division(canonical("1-b", "Z2xZ2"))
    b = StructureConstantAlgebra.from_json(a.to_json())
    assert b.labels == a.labels
    assert b.table == a.table
    assert is_graded_simple(b)


# ---------------------------------------------------------------------------
# integer constants and the sympy oracle on the verify fixtures
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _verify_fixtures():
    return tuple(graded_simple_fixtures())


def _q(c):
    return sympy.Rational(c.numerator, c.denominator)


def test_exports_store_integer_constants():
    for label, a in _verify_fixtures():
        values = [c for entry in a.table.values() for c in entry.values()]
        values += a.unity.values()
        assert all(type(c) is int for c in values), label


def test_non_integral_constants_round_trip():
    # Q[x]/(x^2 - 1/2), graded by Z2 with x odd
    g = AbelianGroup(0, (2,))
    table = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: Fraction(1, 2)}}
    a = StructureConstantAlgebra(["one", "x"], [g.zero(), g.element((1,))], table, {0: 1})
    text = json.dumps(a.to_json())
    b = StructureConstantAlgebra.from_json(json.loads(text))
    assert json.dumps(b.to_json()) == text
    assert b.table == a.table and b.unity == a.unity
    assert type(b.table[(0, 1)][1]) is int
    assert b.table[(1, 1)][0] == Fraction(1, 2)
    assert invert(b.basis_element(1)) == b.element({1: 2})


def test_center_and_inverses_agree_with_sympy():
    for label, a in _verify_fixtures():
        n = a.dim

        def matrix_of(columns):
            return sympy.Matrix(n, n, lambda i, j: _q(columns[j].get(i, 0)))

        # x is central iff (L_g - R_g) x = 0 for every basis element g
        basis = [a._basis_vec(j) for j in range(n)]
        left = [matrix_of([a.mul_vectors(g, b) for b in basis]) for g in basis]
        right = [matrix_of([a.mul_vectors(b, g) for b in basis]) for g in basis]
        commutators = sympy.Matrix.vstack(*(l - r for l, r in zip(left, right)))
        assert len(center_basis(a)) == n - commutators.rank(), label
        unity = sympy.Matrix([_q(a.unity.get(i, 0)) for i in range(n)])
        for i in range(n):
            ours = invert(a.basis_element(i))
            if left[i].rank() < n:
                assert ours is None, (label, i)
            else:
                theirs = left[i].inv() * unity
                assert [_q(ours.coords.get(k, 0)) for k in range(n)] == list(theirs), (label, i)
