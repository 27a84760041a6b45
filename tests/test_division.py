import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gradecat.abelian import AbelianGroup, abstract_type
from gradecat.division import (
    Bicharacter,
    CatalogError,
    CocycleError,
    CoefficientKind,
    GradedDivisionAlgebra,
    build_crossed_product,
    canonical,
    centralizer_support,
    commutation_bicharacter,
    equivalent,
    is_fine_division,
    parse_catalog_ref,
    quad_forms,
    quadratic_form,
    radical,
    arf,
    underlying_algebra_name,
)
from gradecat.scalars import Cyclotomic, RationalQuaternion, zeta

Z2xZ2 = AbelianGroup(0, (2, 2))


def mmul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)] for i in range(n)]


def mscale(c, a):
    return [[c * x for x in row] for row in a]


def madd(a, b):
    return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


# ---------------------------------------------------------------------------
# crossed products built by hand
# ---------------------------------------------------------------------------

def hamilton_product_table():
    """sigma for H = R X_e + R X_a + R X_b + R X_ab with X_a = i, X_b = j."""
    sigma = {}
    quat = {
        (0, 0): RationalQuaternion.one(),
        (1, 0): RationalQuaternion.i(),
        (0, 1): RationalQuaternion.j(),
        (1, 1): RationalQuaternion.k(),
    }
    for u in Z2xZ2.elements():
        for v in Z2xZ2.elements():
            prod = quat[u.coords] * quat[v.coords]
            base = quat[(u + v).coords]
            if prod == base:
                sigma[(u, v)] = 1
            elif prod == -base:
                sigma[(u, v)] = -1
            else:  # pragma: no cover - quaternion units always hit the basis
                raise AssertionError
    return sigma


def test_build_quaternions_by_hand():
    sigma = hamilton_product_table()
    d = build_crossed_product(Z2xZ2, CoefficientKind.real(), set(), sigma)
    a = d.unit(Z2xZ2.element((1, 0)))
    b = d.unit(Z2xZ2.element((0, 1)))
    ab = d.unit(Z2xZ2.element((1, 1)))
    assert a * b == ab
    assert b * a == -ab
    assert a * a == -d.one()
    assert b * b == -d.one()
    # the defining sign table: sigma(a,b)=1, sigma(b,a)=-1, squares -1
    assert d.sigma(a.degree(), b.degree()) == 1
    assert d.sigma(b.degree(), a.degree()) == -1


def test_invalid_cocycle_reports_witness():
    sigma = {(u, v): 1 for u in Z2xZ2.elements() for v in Z2xZ2.elements()}
    bad = Z2xZ2.element((1, 0))
    sigma[(bad, bad)] = -1
    # breaking normalization elsewhere breaks the cocycle identity
    sigma[(bad, Z2xZ2.element((0, 1)))] = -1
    sigma[(Z2xZ2.element((0, 1)), bad)] = 1
    with pytest.raises(CocycleError) as err:
        build_crossed_product(Z2xZ2, CoefficientKind.real(), set(), sigma)
    # first failing (u, v, w) in lexicographic order: sigma(b, a) sigma(a + b, b) = 1
    # but sigma(a, b) sigma(b, a + b) = -1
    b, a = Z2xZ2.element((0, 1)), Z2xZ2.element((1, 0))
    assert err.value.witness == (b, a, b)
    assert str(err.value) == "cocycle identity fails at (<0,1>, <1,0>, <0,1>)"


def test_rejected_actions():
    sigma = {(u, v): 1 for u in Z2xZ2.elements() for v in Z2xZ2.elements()}
    with pytest.raises(ValueError):
        build_crossed_product(Z2xZ2, CoefficientKind.real(), {Z2xZ2.element((1, 0))}, sigma)
    with pytest.raises(ValueError):
        build_crossed_product(Z2xZ2, CoefficientKind.quaternion(),
                              {Z2xZ2.element((1, 0))}, sigma)
    with pytest.raises(ValueError):
        # an action that is not a homomorphism: only one nonzero element conjugates
        g = AbelianGroup(0, (4,))
        s4 = {(u, v): 1 for u in g.elements() for v in g.elements()}
        build_crossed_product(g, CoefficientKind.complex(4), {g.element((1,))}, s4)


# ---------------------------------------------------------------------------
# catalog entries against literal matrix models
# ---------------------------------------------------------------------------

def test_pauli_matrices_model_1a():
    # the eight-matrix example: X_a, X_b, X_c = X_b X_a with signs
    d = canonical("1-a", "Z2xZ2")
    one = Fraction(1)
    mats = {
        (0, 0): [[one, 0], [0, one]],
        (1, 0): [[0, one], [one, 0]],
        (0, 1): [[-one, 0], [0, one]],
    }
    mats[(1, 1)] = mmul(mats[(1, 0)], mats[(0, 1)])
    for u in d.elements():
        for v in d.elements():
            lhs = mmul(mats[u.coords], mats[v.coords])
            rhs = mscale(d.sigma(u, v), mats[(u + v).coords])
            assert lhs == rhs
    mu = quadratic_form(d)
    values = sorted(mu.values.values())
    assert values == [-1, 1, 1, 1]
    assert mu.values[d.support.zero()] == 1
    assert arf(mu) == 1


def test_quaternion_model_1b():
    d = canonical("1-b", "Z2xZ2")
    quat = {
        (0, 0): RationalQuaternion.one(),
        (1, 0): RationalQuaternion.i(),
        (0, 1): RationalQuaternion.j(),
    }
    quat[(1, 1)] = quat[(1, 0)] * quat[(0, 1)]
    for u in d.elements():
        for v in d.elements():
            prod = quat[u.coords] * quat[v.coords]
            assert prod == d.sigma(u, v) * quat[(u + v).coords]
    mu = quadratic_form(d)
    assert sorted(mu.values.values()) == [-1, -1, -1, 1]
    assert arf(mu) == -1
    beta = commutation_bicharacter(d)
    a, b = d.support.element((1, 0)), d.support.element((0, 1))
    assert beta.value(a, b) == -1


def test_complex_unit_model_1c():
    d = canonical("1-c", "Z2")
    z = d.support.element((1,))
    assert d.unit(z) * d.unit(z) == -d.one()
    assert is_fine_division(d)
    assert underlying_algebra_name(d) == "C"


def test_matrix_model_1d():
    # 2x2 matrices over Q(i): X_a = diag(1,-1), X_s = [[0,i],[1,0]]
    d = canonical("1-d", "Z2xZ4")
    i = zeta(4)
    one = Cyclotomic.from_rational(1, 4)
    zero = Cyclotomic.from_rational(0, 4)
    xa = [[one, zero], [zero, -one]]
    xs = [[zero, i], [one, zero]]
    mats = {}
    for t1 in range(2):
        for t2 in range(4):
            m = [[one, zero], [zero, one]]
            for _ in range(t1):
                m = mmul(m, xa)
            for _ in range(t2):
                m = mmul(m, xs)
            mats[(t1, t2)] = m
    for u in d.elements():
        for v in d.elements():
            lhs = mmul(mats[u.coords], mats[v.coords])
            rhs = mscale(d.sigma(u, v), mats[(u + v).coords])
            assert lhs == rhs
    # X_s^2 is central of degree s^2 and squares to -1
    s2 = d.support.element((0, 2))
    assert d.sigma(s2, s2) == -1
    beta = commutation_bicharacter(d)
    assert radical(beta) == AbelianGroup(0, (2,))
    sq = {2 * t for t in d.support.elements()}
    assert set(beta.radical_elements()) == sq


def test_clock_shift_model_2f():
    d = canonical("2-f", "Z3^2")
    w = zeta(3)
    one = Cyclotomic.from_rational(1, 3)
    zero = Cyclotomic.from_rational(0, 3)
    clock = [[one, zero, zero], [zero, w, zero], [zero, zero, w * w]]
    shift = [[zero, zero, one], [one, zero, zero], [zero, one, zero]]

    def commutator_scalar(a, b):
        lhs = mmul(a, b)
        rhs = mmul(b, a)
        for i in range(3):
            for j in range(3):
                if rhs[i][j] != zero:
                    return lhs[i][j] * rhs[i][j].inverse()
        raise AssertionError

    beta = commutation_bicharacter(d)
    u = d.support.element((1, 0))
    v = d.support.element((0, 1))
    assert beta.value(u, v) == zeta(3)
    assert commutator_scalar(clock, shift) == beta.value(u, v)
    assert radical(beta).is_trivial()
    assert is_fine_division(d)


def test_matrix_model_2e():
    # M_2(C) with a Z4 support: M_s = [[0,i],[1,0]], coefficients via J = diag(i,-i)
    d = canonical("2-e", "Z4")
    i = zeta(4)
    one = Cyclotomic.from_rational(1, 4)
    zero = Cyclotomic.from_rational(0, 4)
    ms = [[zero, i], [one, zero]]
    jmat = [[i, zero], [zero, -i]]
    ident = [[one, zero], [zero, one]]

    def embed_coeff(c):
        # a + b*i -> a*I + b*J
        a, b = c.coeffs
        return madd(mscale(a, ident), mscale(b, jmat))

    def embed(x):
        out = [[zero, zero], [zero, zero]]
        for t, c in x.terms.items():
            m = ident
            for _ in range(t.coords[0]):
                m = mmul(m, ms)
            out = madd(out, mmul(embed_coeff(c), m))
        return out

    basis = [d.unit(t, c) for t in d.elements() for c in (1, zeta(4))]
    for x in basis:
        for y in basis:
            assert embed(x * y) == mmul(embed(x), embed(y))
    s = d.support.element((1,))
    xs = d.unit(s)
    assert xs * xs * xs * xs == -d.one()
    # X_s^2 has central degree: the centralizer support is {e, s^2}
    assert set(d.centralizer_elements()) == {d.support.zero(), d.support.element((2,))}


# ---------------------------------------------------------------------------
# invariants of the catalog
# ---------------------------------------------------------------------------

def test_centralizer_support_by_type():
    assert centralizer_support(canonical("1-a", "Z2xZ2")) == Z2xZ2
    d2a = canonical("2-a", "Z2")
    assert centralizer_support(d2a).is_trivial()
    assert len(d2a.centralizer_elements()) * 2 == d2a.support.order()
    d2f = canonical("2-f", "Z3^2")
    assert centralizer_support(d2f) == AbelianGroup(0, (3, 3))


def test_radical_trivial_cocycle_is_everything():
    g = AbelianGroup(0, (2, 4))
    sigma = {(u, v): 1 for u in g.elements() for v in g.elements()}
    d = build_crossed_product(g, CoefficientKind.real(), set(), sigma)
    beta = commutation_bicharacter(d)
    assert radical(beta) == g
    assert set(beta.radical_elements()) == set(g.elements())


def test_quadratic_form_identity_is_plus_one():
    for ref in ("1-a:Z2xZ2", "1-b:Z2xZ2", "1-c:Z2", "1-d:Z2xZ4"):
        d = parse_catalog_ref(ref)
        assert quadratic_form(d).values[d.support.zero()] == 1


def test_partial_nu_for_dimension_two():
    d2a = canonical("2-a", "Z2")
    d2b = canonical("2-b", "Z2")
    nu_a = quadratic_form(d2a)
    nu_b = quadratic_form(d2b)
    assert not nu_a.total and not nu_b.total
    g = d2a.support.element((1,))
    assert nu_a.values[g] == 1
    assert nu_b.values[g] == -1


def test_arf_trivial_group():
    d = canonical("1-a", AbelianGroup.trivial())
    assert arf(quadratic_form(d)) == 1


def test_arf_tie_signals_degeneracy():
    from gradecat.division import QuadraticData

    g = AbelianGroup(0, (2, 2))
    elems = list(g.elements())
    tied = QuadraticData(True, {t: (1 if i < 2 else -1) for i, t in enumerate(elems)})
    with pytest.raises(ValueError):
        arf(tied)


def brute_force_quad(support, beta):
    elems = list(support.elements())
    out = []
    for signs in itertools.product((1, -1), repeat=len(elems)):
        table = dict(zip(elems, signs))
        if table[support.zero()] != 1:
            continue
        if all(
            table[u + v] == (1 if beta.value(u, v) == 1 else -1) * table[u] * table[v]
            for u in elems for v in elems
        ):
            out.append(table)
    return out


def test_quad_forms_nondegenerate_z2_squared():
    d = canonical("1-a", "Z2xZ2")
    beta = commutation_bicharacter(d)
    forms = quad_forms(d.support, beta)
    brute = brute_force_quad(d.support, beta)
    assert len(forms) == len(brute) == 4
    got = {tuple(sorted((t.coords, s) for t, s in f.values.items())) for f in forms}
    want = {tuple(sorted((t.coords, s) for t, s in f.items())) for f in brute}
    assert got == want


def test_quad_forms_trivial_beta_is_hom():
    g = AbelianGroup(0, (2, 2))
    sigma = {(u, v): 1 for u in g.elements() for v in g.elements()}
    d = build_crossed_product(g, CoefficientKind.real(), set(), sigma)
    forms = quad_forms(g, commutation_bicharacter(d))
    # Quad = Hom(T, {+-1}): multiplicative sign maps
    assert len(forms) == 4
    for f in forms:
        for u in g.elements():
            for v in g.elements():
                assert f.values[u + v] == f.values[u] * f.values[v]


def test_quad_torsor_property():
    d = canonical("1-b", "Z2xZ2")
    beta = commutation_bicharacter(d)
    forms = quad_forms(d.support, beta)
    assert len(forms) == 4
    mu = quadratic_form(d)
    assert any(f == mu for f in forms)
    # difference of two members is a character
    for f in forms:
        for g in forms:
            diff = {t: f.values[t] * g.values[t] for t in f.values}
            for u in d.support.elements():
                for v in d.support.elements():
                    assert diff[u + v] == diff[u] * diff[v]


def test_equivalence():
    a = canonical("2-f", "Z3^2")
    b = canonical("2-f", AbelianGroup(0, (3, 3)))
    assert equivalent(a, b)
    assert equivalent(a, a)
    assert not equivalent(canonical("1-a", "Z2xZ2"), canonical("1-b", "Z2xZ2"))
    with pytest.raises(CatalogError):
        g = AbelianGroup(0, (2,))
        sigma = {(u, v): 1 for u in g.elements() for v in g.elements()}
        nameless = build_crossed_product(g, CoefficientKind.real(), set(), sigma)
        equivalent(nameless, a)


def test_fineness_flags():
    assert is_fine_division(canonical("2-f", "Z3^2"))
    assert not is_fine_division(canonical("2-f", "Z2^2"))
    assert is_fine_division(canonical("1-b", "Z2xZ2"))
    assert is_fine_division(canonical("1-d", "Z2xZ4"))
    # dimension-2 and dimension-4 types admit refinements, so they are not fine
    assert not is_fine_division(canonical("2-a", "Z2"))
    assert not is_fine_division(canonical("2-e", "Z4"))
    assert not is_fine_division(canonical("3-b", "Z2xZ2"))


def test_catalog_compatibility_errors():
    with pytest.raises(CatalogError):
        canonical("2-f", "Z3")
    with pytest.raises(CatalogError):
        canonical("1-a", "Z2")
    with pytest.raises(CatalogError):
        canonical("1-d", "Z4")
    with pytest.raises(CatalogError):
        canonical("2-d", "Z4")  # needs at least Z2^2 x Z4
    with pytest.raises(CatalogError):
        canonical("9-z", "Z2")


@pytest.mark.parametrize("ref", [
    "2-f:Z", "1-d:ZxZ2xZ4", "2-d:ZxZ2^2xZ4", "2-e:ZxZ4", "3-d:ZxZ2xZ4",
])
def test_catalog_rejects_a_free_rank(ref):
    # the compatibility rules read the torsion only; a Z factor must not be
    # dropped or reach the finite-support check of the crossed product
    with pytest.raises(CatalogError, match="incompatible"):
        parse_catalog_ref(ref)


def test_every_catalog_entry_is_associative_and_division():
    rng = random.Random(17)
    refs = [
        "1-a:Z2xZ2", "1-b:Z2xZ2", "1-c:Z2", "1-c:Z2^3", "1-d:Z2xZ4",
        "2-a:Z2", "2-b:Z2", "2-c:Z2xZ2", "2-d:Z2^2xZ4", "2-e:Z4",
        "2-f:Z2^2", "2-f:Z3^2", "2-f:Z4^2",
        "3-a:Z2xZ2", "3-b:Z2xZ2", "3-c:Z2", "3-d:Z2xZ4",
    ]
    for ref in refs:
        d = parse_catalog_ref(ref)
        elems = list(d.elements())
        # associativity on sampled basis triples mirrors the cocycle identity
        for _ in range(25):
            u, v, w = (rng.choice(elems) for _ in range(3))
            xu, xv, xw = d.unit(u), d.unit(v), d.unit(w)
            assert (xu * xv) * xw == xu * (xv * xw)
        # every nonzero homogeneous element has the closed-form two-sided inverse
        for t in elems:
            for c in _unit_samples(d):
                x = d.unit(t, c)
                xi = x.inverse()
                assert x * xi == d.one()
                assert xi * x == d.one()


def _unit_samples(d):
    if d.kind.family == "R":
        return [1, Fraction(-3, 2)]
    if d.kind.family == "C":
        return [1, zeta(d.kind.conductor), 1 + zeta(d.kind.conductor)]
    return [1, RationalQuaternion.i(), RationalQuaternion(1, 2, 0, 1)]


def test_bicharacter_alternating_and_bimultiplicative_exhaustive():
    for ref in ("1-a:Z2xZ2", "1-b:Z2xZ2", "1-d:Z2xZ4", "2-f:Z3^2", "2-f:Z4^2",
                "1-a:Z2^4", "2-e:Z4"):
        d = parse_catalog_ref(ref)
        beta = commutation_bicharacter(d)  # the constructor verifies both laws
        for t in beta.domain:
            assert beta.value(t, t) == d.kind.one()


def test_underlying_names():
    assert underlying_algebra_name(canonical("1-a", "Z2xZ2")) == "M2(R)"
    assert underlying_algebra_name(canonical("1-b", "Z2xZ2")) == "H"
    assert underlying_algebra_name(canonical("1-c", "Z2^5")) == "M4(C)"
    assert underlying_algebra_name(canonical("1-d", "Z2^3xZ4")) == "M4(C)"
    assert underlying_algebra_name(canonical("2-f", "Z4^2")) == "M4(C)"
    assert underlying_algebra_name(canonical("2-b", "Z2")) == "H"


def test_json_dump_has_required_fields():
    d = canonical("1-b", "Z2xZ2")
    data = d.to_json()
    assert data["type_tag"] == "1-b"
    assert data["arf"] == -1
    assert data["quadratic"]["total"]
    assert len(data["sigma"]) == 16


def test_inverse_raises_when_only_one_side_inverts():
    z3 = AbelianGroup(0, (3,))
    e = list(z3.elements())
    cocycle = {(u, v): Fraction(1) for u in e for v in e}
    d = GradedDivisionAlgebra(z3, CoefficientKind.real(), (), cocycle)
    # construction validated the trivial cocycle; break it afterwards
    d.cocycle[(e[2], e[1])] = Fraction(-1)  # sigma(1, 2) = 1 but sigma(2, 1) = -1
    with pytest.raises(ArithmeticError):
        d.unit(e[1]).inverse()


# ---------------------------------------------------------------------------
# the index-table checks against the former GroupElement loops
# ---------------------------------------------------------------------------

# catalog entries with |T| <= 16: R, C with and without a conjugation action, H
SMALL_REFS = (
    "1-a:Z2xZ2", "1-a:Z2^4", "1-b:Z2xZ2", "1-b:Z2^4", "1-c:Z2^3", "1-d:Z2xZ4",
    "2-a:Z2^3", "2-b:Z2", "2-c:Z2xZ2", "2-d:Z2^2xZ4", "2-e:Z4", "2-e:Z2^2xZ4",
    "2-f:Z3^2", "2-f:Z4^2", "3-b:Z2xZ2", "3-c:Z2^3", "3-d:Z2xZ4",
)


@functools.lru_cache(maxsize=None)
def _catalog(ref):
    return parse_catalog_ref(ref)


def _reference_validate(support, kind, conj, cocycle):
    """The O(|T|^3) GroupElement validation of a crossed product, as an oracle."""
    elems = list(support.elements())
    zero = support.zero()
    for u in elems:
        for v in elems:
            if ((u in conj) ^ (v in conj)) != ((u + v) in conj):
                raise ValueError(f"action is not a group homomorphism at {u}, {v}")
    sigma = {}
    for u in elems:
        for v in elems:
            if (u, v) not in cocycle:
                raise CocycleError(f"sigma undefined at ({u}, {v})")
            value = sigma[(u, v)] = kind.coerce(cocycle[(u, v)])
            if not kind.is_allowed_cocycle_unit(value):
                raise CocycleError(f"sigma({u}, {v}) = {value!r} is not an allowed unit")
    one = kind.one()
    for u in elems:
        if sigma[(zero, u)] != one or sigma[(u, zero)] != one:
            raise CocycleError(f"sigma is not normalized at {u}")

    def alpha(t, value):
        return kind.conjugate(value) if t in conj else value

    for u in elems:
        for v in elems:
            for w in elems:
                lhs = sigma[(u, v)] * sigma[(u + v, w)]
                rhs = alpha(u, sigma[(v, w)]) * sigma[(u, v + w)]
                if lhs != rhs:
                    raise CocycleError(f"cocycle identity fails at ({u}, {v}, {w})",
                                       witness=(u, v, w))


def _outcome(check):
    try:
        check()
    except ValueError as err:
        return type(err).__name__, str(err), getattr(err, "witness", None)
    return None


def _unit_multipliers(kind):
    """Units other than 1 that keep a cocycle value an allowed unit."""
    if kind.family == "R":
        return [Fraction(-1)]
    if kind.family == "C":
        n = kind.conductor
        return [zeta(n, j) for j in range(1, n)] + [kind.coerce(-1)]
    q = RationalQuaternion
    return [q(-1)] + [s * u() for s in (1, -1) for u in (q.i, q.j, q.k)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SMALL_REFS), st.data())
def test_flipped_cocycle_entry_matches_reference_check(ref, data):
    d = _catalog(ref)
    elems = d.elements()
    u = data.draw(st.sampled_from(elems), label="u")
    v = data.draw(st.sampled_from(elems), label="v")
    # a unit keeps sigma unit-valued; 2 makes it a non-unit
    factor = data.draw(st.sampled_from(_unit_multipliers(d.kind) + [d.kind.coerce(2)]))
    cocycle = dict(d.cocycle)
    cocycle[(u, v)] = cocycle[(u, v)] * factor
    expected = _outcome(lambda: _reference_validate(d.support, d.kind, d.conj_elements, cocycle))
    got = _outcome(lambda: GradedDivisionAlgebra(
        d.support, d.kind, d.conj_elements, cocycle, d.type_tag))
    assert got == expected
    if u != d.support.zero() and v != d.support.zero() and factor != d.kind.coerce(2):
        assert expected is None or expected[2] is not None  # the triple loop decided


def test_catalog_cocycles_pass_the_reference_check():
    for ref in SMALL_REFS:
        d = _catalog(ref)
        _reference_validate(d.support, d.kind, d.conj_elements, d.cocycle)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_REFS), st.data())
def test_coboundary_twist_validates_and_keeps_beta(ref, data):
    d = _catalog(ref)
    kind = d.kind
    if kind.family == "C":
        units = [zeta(kind.conductor, j) for j in range(kind.conductor)]
    else:
        units = [kind.coerce(1), kind.coerce(-1)]
    elems = d.elements()
    picks = data.draw(st.lists(st.sampled_from(units), min_size=len(elems) - 1,
                               max_size=len(elems) - 1))
    c = dict(zip(elems, [kind.one()] + picks))
    # sigma'(u, v) = sigma(u, v) c(u) alpha_u(c(v)) / c(u + v); every c(t) is a
    # root of unity, so its inverse is its conjugate
    cocycle = {
        (u, v): d.sigma(u, v) * c[u] * d.alpha(u, c[v]) * kind.conjugate(c[u + v])
        for u in elems for v in elems
    }
    twisted = GradedDivisionAlgebra(d.support, kind, d.conj_elements, cocycle, d.type_tag)
    beta, twisted_beta = commutation_bicharacter(d), commutation_bicharacter(twisted)
    assert twisted_beta.domain == beta.domain
    assert all(twisted_beta.value(u, v) == beta.value(u, v)
               for u in beta.domain for v in beta.domain)


def _first_non_multiplicative(domain, values):
    for u in domain:
        for v in domain:
            for w in domain:
                if values[(u + v, w)] != values[(u, w)] * values[(v, w)]:
                    return u, v, w
    return None


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([r for r in SMALL_REFS if len(_catalog(r).centralizer_elements()) >= 4]),
       st.data())
def test_corrupted_bicharacter_names_first_bad_triple(ref, data):
    d = _catalog(ref)
    beta = commutation_bicharacter(d)
    u = data.draw(st.sampled_from(beta.domain), label="u")
    v = data.draw(st.sampled_from([x for x in beta.domain if x != u]), label="v")
    factor = data.draw(st.sampled_from(_unit_multipliers(d.kind)))
    values = dict(beta.values)
    values[(u, v)] = values[(u, v)] * factor
    bad = _first_non_multiplicative(beta.domain, values)
    assert bad is not None  # |K| >= 4, so some x outside {0, u} exposes the change
    with pytest.raises(ValueError) as err:
        Bicharacter(beta.domain, values, d.kind)
    assert str(err.value) == "bicharacter not multiplicative at ({},{},{})".format(*bad)
