import functools
import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gradecat.abelian import AbelianGroup
from gradecat.division import canonical, parse_catalog_ref
from gradecat.structconst import (
    NO_WITNESS,
    NotInStabilizerError,
    NotInvertibleError,
    StructureConstantAlgebra,
    _Rref,
    _trace_form_rank,
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


_small_ints = st.integers(-3, 3)
# denominators 1..4: the fraction-free kernel scales such a row by their lcm
_small_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def _matrices(draw, entries, square=False):
    """Small matrices; a row is often a combination of two others, so
    singular and rank-deficient inputs are common."""
    width = draw(st.integers(1, 5))
    height = width if square else draw(st.integers(0, 5))
    rows = [draw(st.lists(entries, min_size=width, max_size=width)) for _ in range(height)]
    if height >= 3 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows, width


def _rationals(values):
    return [sympy.Rational(v.numerator, v.denominator) for v in values]


def _sympy_matrix(rows, width):
    return sympy.Matrix([_rationals(row) for row in rows]) if rows else sympy.zeros(0, width)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_matrices(_small_ints, square=True), _matrices(_small_rationals, square=True)),
       st.lists(st.one_of(_small_ints, _small_rationals), min_size=5, max_size=5))
def test_solve_square_agrees_with_sympy(system, rhs):
    matrix, n = system
    rhs = rhs[:n]
    y = solve_square(matrix, rhs)
    m = _sympy_matrix(matrix, n)
    if m.rank() < n:
        assert y is None
    else:
        assert _rationals(y) == list(m.LUsolve(sympy.Matrix(_rationals(rhs))))
        assert all(type(c) is int or c.denominator > 1 for c in y)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_matrices(_small_ints), _matrices(_small_rationals)))
def test_rref_rank_agrees_with_sympy(system):
    rows, width = system
    rref = _Rref(width)
    grew = [rref.add(row) for row in rows]
    m = _sympy_matrix(rows, width)
    assert rref.rank == sum(grew) == m.rank()
    # primitive int rows with a positive pivot, zero at every other pivot
    for row, p in zip(rref.rows, rref.pivots):
        assert all(type(x) is int for x in row)
        assert row[p] > 0 and math.gcd(*row) == 1
        assert all(row[q] == 0 for q in rref.pivots if q != p)
    for row in rows:
        assert not any(rref.reduce(row))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_matrices(_small_ints), _matrices(_small_rationals)))
def test_nullspace_agrees_with_sympy(system):
    rows, width = system
    basis = nullspace(rows, width)
    m = _sympy_matrix(rows, width)
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
    bad_unity = dict(good)
    bad_unity[(1, 0)] = {1: 3}  # x * one = 3x
    with pytest.raises(ValueError, match="unity fails"):
        StructureConstantAlgebra(labels, degrees, bad_unity, {0: 1})
    # one, x, y with x, y odd: (xy)x = x but x(yx) = -x
    bad_assoc = {(0, 0): {0: 1}, (1, 1): {0: 1}, (2, 2): {0: 1},
                 (1, 2): {0: 1}, (2, 1): {0: -1}}
    for i in (1, 2):
        bad_assoc[(0, i)] = bad_assoc[(i, 0)] = {i: 1}
    with pytest.raises(ValueError, match="associativity fails at triple"):
        StructureConstantAlgebra(["one", "x", "y"], [e, t, t], bad_assoc, {0: 1})


def _z2_line():
    g = AbelianGroup(0, (2,))
    table = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}}
    return ["one", "x"], [g.zero(), g.element((1,))], table


def test_validation_rejects_a_negative_table_key():
    labels, degrees, table = _z2_line()
    table[(-1, -1)] = {0: 1}  # degrees[-1] would wrap to x
    with pytest.raises(ValueError, match=r"table entry \(-1, -1\)"):
        StructureConstantAlgebra(labels, degrees, table, {0: 1})


def test_validation_rejects_a_table_key_past_the_dimension():
    labels, degrees, table = _z2_line()
    table[(0, 3)] = {1: 1}
    with pytest.raises(ValueError, match=r"table entry \(0, 3\)"):
        StructureConstantAlgebra(labels, degrees, table, {0: 1})


def test_validation_rejects_an_entry_index_out_of_range():
    labels, degrees, table = _z2_line()
    table[(1, 1)] = {0: 1, 2: 0}  # even with a zero coefficient
    with pytest.raises(ValueError, match=r"table entry \(1, 1\)"):
        StructureConstantAlgebra(labels, degrees, table, {0: 1})


def test_validation_rejects_a_unity_index_out_of_range():
    labels, degrees, table = _z2_line()
    with pytest.raises(ValueError, match="unity"):
        StructureConstantAlgebra(labels, degrees, table, {0: 1, -2: 1})


def test_validation_rejects_a_bool_or_float_index():
    # True == 1 and 1.0 == 1 pass `in range(2)`, and so do False and 0.0
    labels, degrees, table = _z2_line()
    for one, zero in ((True, False), (1.0, 0.0)):
        keyed = {key: entry for key, entry in table.items() if key != (1, 1)}
        keyed[(one, one)] = {0: 1}
        with pytest.raises(ValueError, match=r"table entry"):
            StructureConstantAlgebra(labels, degrees, keyed, {0: 1})
        with pytest.raises(ValueError, match=r"table entry \(1, 1\)"):
            StructureConstantAlgebra(labels, degrees, {**table, (1, 1): {zero: 1}}, {0: 1})
        with pytest.raises(ValueError, match="unity"):
            StructureConstantAlgebra(labels, degrees, table, {zero: 1})


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


def test_homogeneous_witness_inverts_the_conjugator_once(monkeypatch):
    import gradecat.structconst as structconst
    from gradecat.matrix import matrix_algebra, to_structure_constants

    d = canonical("2-e", "Z4")
    a = from_division(d)
    s2_idx = next(i for i, deg in enumerate(a.degrees) if deg.coords == (2,) and i % 2 == 0)
    u_idx = next(i for i, deg in enumerate(a.degrees) if deg.coords == (1,) and i % 2 == 0)
    x = (a.one() + a.basis_element(s2_idx)) * a.basis_element(u_idx)
    calls = []

    def counting(y):
        calls.append(y)
        return invert(y)

    products = []  # (u, v) of every product u v of coordinate dicts
    mul_vectors = a.mul_vectors

    def counting_mul(u, v):
        products.append((dict(u), dict(v)))
        return mul_vectors(u, v)

    monkeypatch.setattr(structconst, "invert", counting)
    monkeypatch.setattr(a, "mul_vectors", counting_mul)
    wits = homogeneous_witness(a, x)
    assert len(wits) == 2
    assert sum(1 for y in calls if y == x) == 1
    assert len(calls) == 1 + len(wits)  # x, then each component
    # each conjugation y e_i y^-1 is computed once, for x and for each component:
    # one product by y^-1, whose left factor y e_i differs for each i
    for y in [x] + [comp for _, comp in wits]:
        inverse = invert(y).coords
        lefts = [u for u, v in products if v == inverse]
        assert len(lefts) == a.dim
        assert all(lefts.count(u) == 1 for u in lefts)
    # the error behaviour is unchanged
    q = quaternion_pair_algebra()
    with pytest.raises(NotInvertibleError):
        homogeneous_witness(q, q.basis_element(1))
    r = to_structure_constants(matrix_algebra(canonical("1-a", AbelianGroup.trivial()), k=2))
    e12 = next(r.basis_element(i) for i in range(r.dim) if r.labels[i].startswith("E[0,1]"))
    with pytest.raises(NotInStabilizerError, match="^Int\\(x\\) does not stabilize the grading$"):
        homogeneous_witness(r, r.one() + e12)
    assert issubclass(NotInStabilizerError, ValueError)
    assert not issubclass(NotInStabilizerError, NotInvertibleError)


def test_suite_inner_aut_inverts_each_conjugator_once(monkeypatch):
    import gradecat.structconst as structconst
    import gradecat.verify as verify

    events = []  # ("invert", y), ("pools", None) and ("witness", x) in call order

    def logged(tag, fn):
        def wrapper(*args):
            if tag == "invert":
                events.append((tag, args[0]))
            out = fn(*args)
            if tag != "invert":
                events.append((tag, args[1] if tag == "witness" else None))
            return out
        return wrapper

    monkeypatch.setattr(structconst, "invert", logged("invert", structconst.invert))
    monkeypatch.setattr(verify, "_central_unit_pool",
                        logged("pools", verify._central_unit_pool))
    monkeypatch.setattr(verify, "homogeneous_witness",
                        logged("witness", verify.homogeneous_witness))
    checks = verify.suite_inner_aut(0)
    assert all(c.ok for c in checks)
    # count the inversions of each conjugator from the end of the fixture's
    # unit pools or of the previous witness call to the end of its own
    counts, window = [], []
    for tag, y in events:
        if tag == "invert":
            window.append(y)
        else:
            if tag == "witness":
                counts.append(sum(1 for z in window if z == y))
            window = []
    sampled = next(c for c in checks if c.name == "inner-aut/sample-size")
    assert f"{len(counts)} sampled conjugators" == sampled.detail
    assert counts == [1] * len(counts)


def test_quaternion_pair_is_two_copies_of_the_catalog_quaternions():
    h = from_division(canonical("1-b", "Z2xZ2"))
    q = quaternion_pair_algebra()
    assert q.group == AbelianGroup(0, (2, 2, 2, 2))
    assert q.labels == tuple(f"{side}:{l}" for side in "LR" for l in h.labels)
    for side in (0, 4):
        assert {(i - side, j - side): {k - side: c for k, c in entry.items()}
                for (i, j), entry in q.table.items() if min(i, j) >= side
                and max(i, j) < side + 4} == h.table
    assert all((i < 4) == (j < 4) for i, j in q.table)
    # the left i, j, k square to -1 and i j = k
    assert [q.mul_vectors({b: 1}, {b: 1}) for b in (1, 2, 3)] == [{0: -1}] * 3
    assert q.mul_vectors({2: 1}, {1: 1}) == {3: 1}


def test_non_invertible_conjugator_raises():
    a = quaternion_pair_algebra()
    with pytest.raises(NotInvertibleError):
        int_in_stabilizer(a, a.basis_element(2))  # (i, 0) is a zero divisor


def test_hxh_counterexample_report():
    report = hxh_counterexample()
    assert report.graded_simple is False
    assert report.int_ii_stabilizes is True
    assert report.invertible_homogeneous_all_central is True
    assert report.all_pass()
    # the failing witness: components of (i, i) are not invertible
    a = report.algebra
    x = a.element({2: Fraction(1), 6: Fraction(1)})
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


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_invert_agrees_with_sympy_on_random_elements(data):
    label, a = data.draw(st.sampled_from(_verify_fixtures()))
    n = a.dim
    components = sorted(a.basis_degrees_by_component().items(), key=lambda kv: kv[0].coords)
    if data.draw(st.booleans()):
        indices = data.draw(st.sampled_from(components))[1]  # a homogeneous element
    else:
        indices = range(n)  # usually a mixed one
    x = a.element({i: data.draw(st.integers(-2, 2)) for i in indices})
    left = sympy.Matrix(n, n, lambda i, j: _q(a.mul_vectors(x.coords, {j: 1}).get(i, 0)))
    ours = invert(x)
    if left.rank() < n:
        assert ours is None, label
    else:
        theirs = left.inv() * sympy.Matrix([_q(a.unity.get(i, 0)) for i in range(n)])
        assert [_q(ours.coords.get(k, 0)) for k in range(n)] == list(theirs), label


def test_inverses_and_centre_solve_one_component_at_a_time(monkeypatch):
    widths = []
    init = _Rref.__init__

    def recording(self, width):
        widths.append(width)
        init(self, width)

    monkeypatch.setattr(_Rref, "__init__", recording)
    for label, a in _verify_fixtures():
        widths.clear()
        for i in range(a.dim):
            invert(a.basis_element(i))
        center_basis(a)
        largest = max(len(ix) for ix in a.basis_degrees_by_component().values())
        assert widths and max(widths) <= largest + 1, label


def test_center_basis_keeps_the_full_width_order():
    # Q[Z2^2] graded by its second coordinate: the components {0, 2} and
    # {1, 3} interleave, so the per-component kernels must be merged back
    full = group_algebra(AbelianGroup(0, (2, 2)))
    z2 = AbelianGroup(0, (2,))
    regraded = StructureConstantAlgebra(
        full.labels, [z2.element(d.coords[1:]) for d in full.degrees], full.table, full.unity)
    for label, a in _verify_fixtures() + (("Q[Z2^2]/Z2", regraded),):
        n = a.dim
        rows = []
        for g in range(n):
            for k in range(n):
                rows.append([a.mul_vectors({j: 1}, {g: 1}).get(k, 0)
                             - a.mul_vectors({g: 1}, {j: 1}).get(k, 0) for j in range(n)])
        ours = [[z.coords.get(i, 0) for i in range(n)] for z in center_basis(a)]
        assert ours == nullspace(rows, n), label


# ---------------------------------------------------------------------------
# graded-simplicity: J(A) = 0 through the trace form, and Z(A)_e a field
# ---------------------------------------------------------------------------

def _trivially_graded(a):
    e = AbelianGroup.trivial().zero()
    return StructureConstantAlgebra(a.labels, [e] * a.dim, a.table, a.unity)


def _q_times_q():
    # the unity u = (1, 1) and v = (1, -1), with v^2 = u
    e = AbelianGroup.trivial().zero()
    table = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}}
    return StructureConstantAlgebra(["u", "v"], [e, e], table, {0: 1})


def _dual_numbers():
    # Q[x]/(x^2), graded by Z2 with x odd: J(A) = Qx is graded
    g = AbelianGroup(0, (2,))
    table = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    return StructureConstantAlgebra(["one", "x"], [g.zero(), g.element((1,))], table, {0: 1})


def test_q_times_q_is_not_graded_simple():
    a = _q_times_q()
    assert _trace_form_rank(a) == 2  # semisimple, so only Z(A)_e = Q x Q can fail
    assert not is_graded_simple(a)


def test_radical_fails_the_trace_form():
    a = _dual_numbers()
    assert _trace_form_rank(a) == 1
    assert not is_graded_simple(a)


def test_verify_fixtures_are_graded_simple():
    for label, a in _verify_fixtures():
        assert is_graded_simple(a), label


def test_direct_sums_of_fixtures_are_not_graded_simple():
    pairs = list(itertools.combinations_with_replacement(_verify_fixtures(), 2))
    assert len(pairs) == 36
    for (l1, a), (l2, b) in pairs:
        s = direct_sum(a, b)
        assert s.group == a.group.direct_sum(b.group), (l1, l2)
        # the two supports embed injectively and meet only in the identity
        assert len(set(s.degrees)) == len(set(a.degrees)) + len(set(b.degrees)) - 1
        assert not is_graded_simple(s), (l1, l2)


def test_trivially_graded_q_cubed_has_a_central_zero_divisor():
    q = group_algebra(AbelianGroup.trivial())
    a = direct_sum(direct_sum(q, q), q)
    assert len(center_basis(a)) == 3
    assert not is_graded_simple(a)


def test_undecidable_identity_centre_raises():
    # Q[Z3] = Q x Q(w), trivially graded: Z(A)_e is all of it, and 1, g, g^2 are units
    a = _trivially_graded(group_algebra(AbelianGroup(0, (3,))))
    centre = center_basis(a)
    assert len(centre) == 3 and all(invert(z) is not None for z in centre)
    with pytest.raises(NotImplementedError, match="dimension 3"):
        is_graded_simple(a)


def test_trace_form_rank_agrees_with_sympy():
    cases = _verify_fixtures() + (
        ("HxH", quaternion_pair_algebra()), ("QxQ", _q_times_q()), ("Q[x]/x^2", _dual_numbers()))
    for label, a in cases:
        n = a.dim
        # the trace of every L_b, not only of those of degree e
        trace = [sum(_q(a.table.get((k, i), {}).get(i, 0)) for i in range(n)) for k in range(n)]
        form = sympy.Matrix(n, n, lambda i, j: sum(
            (_q(c) * trace[k] for k, c in a.table.get((i, j), {}).items()), sympy.Integer(0)))
        assert _trace_form_rank(a) == form.rank(), label


# ---------------------------------------------------------------------------
# associativity: Light's test over the greedy generating set against the
# all-triples loop
# ---------------------------------------------------------------------------

def _triple_fails(a, i, j, k):
    return (a.mul_vectors(a.table.get((i, j), {}), {k: 1})
            != a.mul_vectors({i: 1}, a.table.get((j, k), {})))


def reference_associative(a):
    """(e_i e_j) e_k = e_i (e_j e_k) on all n^3 basis triples."""
    n = a.dim
    return not any(_triple_fails(a, i, j, k)
                   for i in range(n) for j in range(n) for k in range(n))


class _Unvalidated(StructureConstantAlgebra):
    def _validate(self):
        pass


@functools.lru_cache(maxsize=None)
def _light_sources():
    from gradecat.matrix import matrix_algebra, to_structure_constants

    exports = [(ref, from_division(parse_catalog_ref(ref)))
               for ref in ("1-b:Z2xZ2", "1-c:Z2^3", "1-d:Z2xZ4", "2-e:Z4", "2-f:Z3^2",
                           "1-a:Z2^4")]
    m2h = to_structure_constants(matrix_algebra(canonical("1-b", "Z2xZ2"), k=2))
    # Q[x]/(x^2 - c) stays associative for every c, so its mutants all pass
    qz2 = group_algebra(AbelianGroup(0, (2,)))
    return tuple(exports + [("M2(1-b:Z2xZ2)", m2h), ("Q[Z2]", qz2)])


def _mutants(a, key):
    """Single-entry mutants of the product at `key`: sign flip, scaling,
    deletion, and moving the coefficient to another index of its degree."""
    for k, c in sorted(a.table[key].items()):
        others = [m for m in range(a.dim) if m != k and a.degrees[m] == a.degrees[k]]
        changes = [{k: -c}, {k: 2 * c}, {k: Fraction(c, 3)}, {k: 0}]
        changes += [{k: 0, m: a.table[key].get(m, 0) + c} for m in others]
        for change in changes:
            yield {**a.table, key: {**a.table[key], **change}}


def _light_agrees_with_reference(a, table):
    """The validating constructor rejects the table iff some basis triple
    fails, and only ever names a failing triple; returns its verdict."""
    mutant = _Unvalidated(a.labels, a.degrees, table, a.unity)
    try:
        StructureConstantAlgebra(a.labels, a.degrees, table, a.unity)
    except ValueError as err:
        found = re.fullmatch(r"associativity fails at triple \((\d+), (\d+), (\d+)\)", str(err))
        assert found, err
        assert _triple_fails(mutant, *map(int, found.groups()))
        return False
    assert reference_associative(mutant)
    return True


def test_generating_sets_of_the_sources():
    # the unity E_11 + E_22 of M_2(D) does not span E_11 (index 0), so it
    # comes first
    assert {label: a._generating_set() for label, a in _light_sources()} == {
        "1-b:Z2xZ2": [1, 2], "1-c:Z2^3": [1, 2, 4], "1-d:Z2xZ4": [1, 4],
        "2-e:Z4": [1, 2], "2-f:Z3^2": [1, 2, 6], "1-a:Z2^4": [1, 2, 4, 8],
        "M2(1-b:Z2xZ2)": [0, 1, 2, 4, 8], "Q[Z2]": [1]}
    for label, a in _light_sources():
        assert reference_associative(a), label


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_light_test_agrees_with_all_triples_on_mutants(data):
    label, a = data.draw(st.sampled_from(_light_sources()))
    # products off the unity's support, so the unity check still passes
    keys = sorted(key for key in a.table if not set(key) & set(a.unity))
    key = data.draw(st.sampled_from(keys))
    table = data.draw(st.sampled_from(list(_mutants(a, key))))
    _light_agrees_with_reference(a, table)


@pytest.mark.parametrize("label,mutants,accepted", [("1-d:Z2xZ4", 196, 0), ("Q[Z2]", 4, 4)])
def test_light_test_agrees_with_all_triples_on_every_mutant(label, mutants, accepted):
    a = dict(_light_sources())[label]
    verdicts = [_light_agrees_with_reference(a, table)
                for key in a.table if not set(key) & set(a.unity)
                for table in _mutants(a, key)]
    assert (len(verdicts), sum(verdicts)) == (mutants, accepted)


def _square_zero_extension(n):
    """Q·1 + N with N^2 = 0, trivially graded: products of basis vectors of N
    vanish, so no generator reaches another one."""
    e = AbelianGroup.trivial().zero()
    table = {(0, 0): {0: 1}}
    for i in range(1, n):
        table[(0, i)] = table[(i, 0)] = {i: 1}
    return [f"n{i}" for i in range(n)], [e] * n, table


def test_light_test_with_the_whole_basis_as_generating_set():
    labels, degrees, table = _square_zero_extension(5)
    a = StructureConstantAlgebra(labels, degrees, table, {0: 1})
    assert a._generating_set() == [1, 2, 3, 4]
    assert reference_associative(a)


@pytest.mark.parametrize("key,triple", [((1, 4), (1, 4, 4)), ((4, 1), (4, 1, 1))])
def test_light_test_finds_the_one_failing_triple(key, triple):
    # n1 n4 = n1 fails only at (n1 n4) n4 = n1 against n1 (n4 n4) = 0, with
    # the last generator in the middle; n4 n1 = n4 only at (n4, n1, n1)
    labels, degrees, table = _square_zero_extension(5)
    table[key] = {key[0]: 1}
    mutant = _Unvalidated(labels, degrees, table, {0: 1})
    assert mutant._generating_set() == [1, 2, 3, 4]
    assert [t for t in itertools.product(range(5), repeat=3) if _triple_fails(mutant, *t)] \
        == [triple]
    with pytest.raises(ValueError, match=re.escape(f"associativity fails at triple {triple}")):
        StructureConstantAlgebra(labels, degrees, table, {0: 1})


# ---------------------------------------------------------------------------
# `_validate` against the loop it replaced, on every algebra `verify` builds
# ---------------------------------------------------------------------------

def _reference_validate(a):
    """The former `_validate`: one group addition per table entry, and two
    `mul_vectors` calls on `{k: 1}` dicts per triple of Light's test."""
    n = a.dim
    for (i, j), entry in a.table.items():
        target = a.degrees[i] + a.degrees[j]
        for k in entry:
            if a.degrees[k] != target:
                raise ValueError(f"product {a.labels[i]}*{a.labels[j]} leaves its component")
    for i in range(n):
        b = {i: 1}
        if a.mul_vectors(a.unity, b) != b or a.mul_vectors(b, a.unity) != b:
            raise ValueError("unity fails on a basis element")
    for s in a._generating_set():
        for i in range(n):
            i_s = a.table.get((i, s), {})
            for k in range(n):
                left = a.mul_vectors(i_s, {k: 1})
                right = a.mul_vectors({i: 1}, a.table.get((s, k), {}))
                if left != right:
                    raise ValueError(f"associativity fails at triple ({i}, {s}, {k})")


@functools.lru_cache(maxsize=None)
def _verify_builds():
    """(labels, degrees, table, unity) of every algebra that a run of
    `verify --suite all` validates, each distinct one once."""
    import gradecat.verify as verify

    built = {}
    validate = StructureConstantAlgebra._validate

    def recording(self):
        key = json.dumps(self.to_json(), sort_keys=True)
        built.setdefault(key, (self.labels, self.degrees, self.table, self.unity))
        validate(self)

    StructureConstantAlgebra._validate = recording
    try:
        verify.run_suite("all", seed=0)
    finally:
        StructureConstantAlgebra._validate = validate
    return tuple(built.values())


def _verdict(validate):
    try:
        validate()
    except ValueError as err:
        return str(err)
    return None


def test_verify_builds_pass_both_validations():
    builds = _verify_builds()
    assert len(builds) >= 17
    assert max(len(labels) for labels, *_ in builds) >= 32
    for labels, degrees, table, unity in builds:
        _reference_validate(_Unvalidated(labels, degrees, table, unity))
        StructureConstantAlgebra(labels, degrees, table, unity)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_validate_agrees_with_the_reference_on_one_perturbed_constant(data):
    labels, degrees, table, unity = data.draw(st.sampled_from(_verify_builds()))
    n = len(labels)
    table = {key: dict(entry) for key, entry in table.items()}
    unity = dict(unity)
    # one constant: of a product or of the unity, at an index that may lie
    # in another component, changed by a small rational (possibly to 0)
    if data.draw(st.integers(0, 9)):
        entry = table.setdefault(data.draw(st.sampled_from(sorted(table))), {})
    else:
        entry = unity
    k = data.draw(st.sampled_from(sorted(entry)) if entry and data.draw(st.booleans())
                  else st.integers(0, n - 1))
    delta = data.draw(st.one_of(st.integers(-2, 2), _small_rationals).filter(bool))
    entry[k] = entry.get(k, 0) + delta
    reference = _verdict(lambda: _reference_validate(_Unvalidated(labels, degrees, table, unity)))
    assert _verdict(lambda: StructureConstantAlgebra(labels, degrees, table, unity)) == reference
