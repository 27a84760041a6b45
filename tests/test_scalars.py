import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gradecat.abelian import AbelianGroup, invariant_factors, smith_normal_form
from gradecat.division import CoefficientKind, _scalar_json
from gradecat.scalars import (
    Cyclotomic,
    RationalQuaternion,
    cyclotomic_polynomial,
    zeta,
)
from gradecat.structconst import AlgebraElement, StructureConstantAlgebra


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_zeta4_squares_to_minus_one():
    assert zeta(4) * zeta(4) == -1


def test_zeta_has_exact_order():
    for n in (3, 4, 6, 8):
        z = zeta(n)
        assert z ** n == 1
        for k in range(1, n):
            assert z ** k != 1


def test_conj_of_zeta3():
    assert zeta(3).conjugate() == zeta(3) ** 2


def test_inverse_of_one_plus_i():
    val = 1 + zeta(4)
    inv = val.inverse()
    assert inv == (1 - zeta(4)) * Fraction(1, 2)
    assert val * inv == 1


def test_cross_conductor_arithmetic():
    # zeta_6 = -zeta_3^2
    assert zeta(6) == -(zeta(3) ** 2)
    assert zeta(6) * zeta(2) == zeta(3) ** 2
    assert zeta(4) + zeta(3) == zeta(3) + zeta(4)


def random_cyclo(rng, n):
    deg = len(cyclotomic_polynomial(n)) - 1
    return Cyclotomic(n, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(deg)])


def test_field_axioms_sampled():
    rng = random.Random(11)
    for n in (3, 4, 8, 12):
        for _ in range(20):
            a, b, c = (random_cyclo(rng, n) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if a:
                assert a * a.inverse() == 1


def test_conj_is_ring_involution():
    rng = random.Random(5)
    for n in (3, 4, 8):
        for _ in range(15):
            a, b = random_cyclo(rng, n), random_cyclo(rng, n)
            assert a.conjugate().conjugate() == a
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_conj_fixes_exactly_rationals_at_quadratic_conductors():
    # Q(zeta_N) for N in {3, 4} has Q as its real subfield
    rng = random.Random(9)
    for n in (3, 4):
        for _ in range(40):
            a = random_cyclo(rng, n)
            assert (a.conjugate() == a) == a.is_rational()


GALOIS_CONDUCTORS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 15)


def cyclotomics(n):
    """Elements of Q(zeta_n) with small rational coordinates."""
    deg = len(cyclotomic_polynomial(n)) - 1
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return st.lists(coeff, min_size=deg, max_size=deg).map(lambda c: Cyclotomic(n, c))


@pytest.mark.parametrize("n", GALOIS_CONDUCTORS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_galois_inverse_agrees_with_sympy(n, data):
    x = data.draw(cyclotomics(n).filter(bool), label="x")
    inv = x.inverse()
    assert x * inv == 1
    var = sympy.Symbol("x")
    poly = sum(sympy.Rational(c.numerator, c.denominator) * var ** i
               for i, c in enumerate(x.coeffs))
    theirs = sympy.Poly(sympy.invert(poly, sympy.cyclotomic_poly(n, var), var), var)
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(theirs.all_coeffs())]
    assert inv == Cyclotomic(n, coeffs)


@pytest.mark.parametrize("n", GALOIS_CONDUCTORS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_galois_substitutions_are_ring_maps(n, data):
    k = data.draw(st.sampled_from([k for k in range(1, max(n, 2)) if math.gcd(k, n) == 1]))
    x, y = data.draw(cyclotomics(n)), data.draw(cyclotomics(n))

    def g(a):
        return a._substituted(n, k)

    assert g(x + y) == g(x) + g(y)
    assert g(x * y) == g(x) * g(y)


def test_inverting_zero_raises():
    with pytest.raises(ZeroDivisionError, match="inversion of zero cyclotomic"):
        Cyclotomic.from_rational(0, 5).inverse()
    with pytest.raises(ZeroDivisionError, match="inversion of zero cyclotomic"):
        1 / Cyclotomic.from_rational(0, 4)
    with pytest.raises(ZeroDivisionError, match="inversion of zero quaternion"):
        1 / RationalQuaternion()


def test_cyclotomic_json_roundtrip():
    a = Cyclotomic(4, [Fraction(1, 2), Fraction(-3)])
    assert Cyclotomic.from_json(a.to_json()) == a


# ---------------------------------------------------------------------------
# quaternions
# ---------------------------------------------------------------------------

def test_quaternion_relations():
    i, j, k = RationalQuaternion.i(), RationalQuaternion.j(), RationalQuaternion.k()
    assert i * i == -1
    assert j * j == -1
    assert k * k == -1
    assert i * j == k
    assert j * i == -k
    assert i * j * k == -1


def test_quaternion_inverse_of_one_plus_i():
    q = RationalQuaternion(1, 1)
    assert q.inverse() == RationalQuaternion(Fraction(1, 2), Fraction(-1, 2))
    assert q * q.inverse() == 1
    assert q.inverse() * q == 1


def test_rational_over_quaternion_is_the_inverse_times_it():
    q = RationalQuaternion(1, 1, 1)
    assert 1 / q == q.inverse()
    assert Fraction(3, 2) / q == q.inverse() * Fraction(3, 2)
    assert (1 / q) * q == 1


def random_quat(rng):
    return RationalQuaternion(*(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)))


def test_quaternion_division_ring_axioms():
    rng = random.Random(23)
    for _ in range(40):
        a, b, c = (random_quat(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == 1
            assert a.inverse() * a == 1


def test_quaternion_conj_antihomomorphism():
    rng = random.Random(29)
    for _ in range(30):
        a, b = random_quat(rng), random_quat(rng)
        assert (a * b).conjugate() == b.conjugate() * a.conjugate()
        assert a.conjugate().conjugate() == a


def test_quaternion_norm_multiplicative():
    rng = random.Random(31)
    for _ in range(30):
        a, b = random_quat(rng), random_quat(rng)
        assert (a * b).norm() == a.norm() * b.norm()


def test_quaternion_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        RationalQuaternion().inverse()
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.from_rational(0, 4).inverse()


# ---------------------------------------------------------------------------
# the normal form: an int when integral, a Fraction only with a denominator
# ---------------------------------------------------------------------------

def is_normal(c) -> bool:
    """Never a float, a bool or Fraction(n, 1)."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def rationals():
    """Ints and Fractions, Fraction(n, 1) included, as a caller may pass them."""
    return st.one_of(st.integers(-4, 4),
                     st.fractions(min_value=-4, max_value=4, max_denominator=3))


def mixed_cyclotomics(n):
    deg = len(cyclotomic_polynomial(n)) - 1
    return st.lists(rationals(), min_size=deg, max_size=deg).map(lambda c: Cyclotomic(n, c))


def quaternions():
    return st.lists(rationals(), min_size=4, max_size=4).map(lambda c: RationalQuaternion(*c))


def to_fraction(r) -> Fraction:
    return Fraction(int(r.p), int(r.q))


@pytest.mark.parametrize("n", (1, 3, 4, 8, 12))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cyclotomic_results_are_in_normal_form(n, data):
    x, y = data.draw(mixed_cyclotomics(n), label="x"), data.draw(mixed_cyclotomics(n), label="y")
    r = data.draw(rationals(), label="r")
    results = [x + y, x - y, x * y, x + r, r - x, x * r, -x, x.conjugate(),
               x.promoted(2 * n), x * zeta(5)]
    if y:
        results += [x / y, r / y, y ** -2, y.inverse()]
    for value in results:
        assert all(map(is_normal, value.coeffs)), value
    if x.is_rational():
        assert is_normal(x.rational_value())


@settings(max_examples=60, deadline=None)
@given(p=quaternions(), q=quaternions(), r=rationals())
def test_quaternion_results_are_in_normal_form(p, q, r):
    results = [p + q, p - q, p * q, p + r, r - p, r * p, -p, p.conjugate()]
    if q:
        results += [p / q, r / q, q.inverse(), q.inverse() * q]
    for value in results:
        assert all(map(is_normal, value.components())), value
    assert is_normal(p.norm())


@pytest.mark.parametrize("n, m", [(3, 1), (4, 1), (5, 1), (8, 1), (12, 1), (4, 2), (3, 4)])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_cyclotomic_products_agree_with_sympy(n, m, data):
    # y lives in Q(zeta_n) and x in Q(zeta_(n m)); the product is promoted
    x, y = data.draw(mixed_cyclotomics(n * m), label="x"), data.draw(mixed_cyclotomics(n), label="y")
    var = sympy.Symbol("x")
    big = n * m

    def poly(c, step):
        return sum(sympy.Rational(a.numerator, a.denominator) * var ** (i * step)
                   for i, a in enumerate(c.coeffs))

    theirs = sympy.Poly(sympy.rem(sympy.expand(poly(x, 1) * poly(y, m)),
                                  sympy.cyclotomic_poly(big, var), var), var)
    coeffs = [to_fraction(c) for c in reversed(theirs.all_coeffs())]
    ours = x * y
    assert ours.conductor == big
    assert ours.coeffs == tuple(coeffs + [0] * (len(ours.coeffs) - len(coeffs)))


@settings(max_examples=60, deadline=None)
@given(p=quaternions(), q=quaternions())
def test_quaternion_products_agree_with_sympy(p, q):
    def theirs(a):
        return sympy.Quaternion(*(sympy.Rational(c.numerator, c.denominator)
                                  for c in a.components()))

    prod = theirs(p) * theirs(q)
    assert (p * q).components() == tuple(to_fraction(c) for c in (prod.a, prod.b, prod.c, prod.d))


@pytest.mark.parametrize("bad", [0.5, 1.0, True])
def test_float_and_bool_components_are_refused(bad):
    # Fraction() would read 0.5 as 1/2, 1.0 as 1 and True as 1
    for make in (lambda: Cyclotomic(4, [bad, 1]), lambda: Cyclotomic(4, [0, bad]),
                 lambda: Cyclotomic.from_rational(bad, 3),
                 lambda: RationalQuaternion(bad), lambda: RationalQuaternion(0, 0, 0, bad)):
        with pytest.raises(TypeError, match="is not an exact rational"):
            make()


def test_integral_values_are_ints_and_others_fractions():
    assert Cyclotomic(4, [Fraction(4, 2), Fraction(1, 2)]).coeffs == (2, Fraction(1, 2))
    assert type(Cyclotomic(4, [Fraction(4, 2), 0]).coeffs[0]) is int
    assert type((zeta(3) ** 3).coeffs[0]) is int
    assert RationalQuaternion(Fraction(6, 3), 1).components() == (2, 1, 0, 0)
    assert type(RationalQuaternion(1, 1).norm()) is int
    assert RationalQuaternion(1, 1).inverse().components() == (Fraction(1, 2), Fraction(-1, 2), 0, 0)
    assert Cyclotomic(4, [Fraction(3), 1]).to_json() == {"conductor": 4, "coeffs": ["3", "1"]}


def test_real_coefficients_stay_fractions():
    # the R family keeps Fraction values, so `_scalar_json` still prints 3/1
    value = CoefficientKind.real().coerce(Cyclotomic.from_rational(3, 4))
    assert type(value) is Fraction and value == 3
    assert _scalar_json(value) == "3/1"


def _z2_algebra(square, unit=1):
    """Q[x] / (x^2 - square) graded by Z2, with the unity unit * e_0."""
    g = AbelianGroup(0, (2,))
    table = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: square}}
    return StructureConstantAlgebra(["1", "x"], [g.zero(), g.element((1,))], table, {0: unit})


# (build, exact, value): each place an input number becomes part of a value;
# build(exact) == value, and an inexact number in place of `exact` is refused
_GATES = {
    "free rank": (lambda x: AbelianGroup(x, (2,)).free_rank, 1, 1),
    "torsion": (lambda x: AbelianGroup(0, (x,)).torsion, 2, (2,)),
    "coordinates": (lambda x: AbelianGroup(1, (2,)).element((x, 3)).coords, 5, (5, 1)),
    "multiplier": (lambda x: (AbelianGroup(1, (2,)).element((1, 1)) * x).coords, 3, (3, 1)),
    "invariant_factors": (lambda x: invariant_factors([2, x]), 4, (2, 4)),
    "smith_normal_form": (lambda x: smith_normal_form([[x, 0], [0, 4]])[0], 6,
                          [[2, 0], [0, 12]]),
    "table": (lambda x: _z2_algebra(x).table[(1, 1)], Fraction(1, 2), {0: Fraction(1, 2)}),
    "unity": (lambda x: _z2_algebra(1, x).unity, Fraction(1), {0: 1}),
    "element": (lambda x: AlgebraElement(_z2_algebra(1), {0: 1, 1: x}).coords,
                Fraction(4, 2), {0: 1, 1: 2}),
    "scalar": (lambda x: (_z2_algebra(1).element([1, 3]) * x).coords,
               Fraction(1, 3), {0: Fraction(1, 3), 1: 1}),
    "real coerce": (CoefficientKind.real().coerce, 2, Fraction(2)),
    "Cyclotomic.from_json": (lambda x: Cyclotomic.from_json({"conductor": 4,
                                                              "coeffs": ["1/2", x]}).coeffs,
                             Fraction(3), (Fraction(1, 2), 3)),
}


@pytest.mark.parametrize("gate", list(_GATES))
def test_inexact_numbers_are_refused_where_values_are_built(gate):
    # int() would truncate 1.5 and read True as 1; Fraction() would read
    # 1.5 as 3/2 and 2.0 as 2
    build, exact, value = _GATES[gate]
    assert repr(build(exact)) == repr(value)  # the same numbers, of the same types
    for bad in (1.5, 2.0, True):
        with pytest.raises(TypeError):
            build(bad)


def test_true_is_no_cocycle_unit_of_any_kind():
    for kind in (CoefficientKind.real(), CoefficientKind.complex(4),
                 CoefficientKind.quaternion()):
        assert kind.is_allowed_cocycle_unit(1) and kind.is_allowed_cocycle_unit(-1)
        assert not kind.is_allowed_cocycle_unit(True)
