import functools
import itertools
import math
import random
import re
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gradecat import division
from gradecat.abelian import AbelianGroup, subgroup_generated
from gradecat.classify import classify
from gradecat.division import (
    Bicharacter,
    CatalogError,
    CocycleError,
    CoefficientKind,
    GradedDivisionAlgebra,
    QuadraticData,
    _polarization_failure,
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
from gradecat.verify import run_suite

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


def test_quaternion_cocycle_values_are_signs():
    # H carries the trivial action, so (c X_u)(c' X_v) = c c' sigma(u, v) X_(u+v);
    # sigma(1, 1) = i would give (X X) j = i j = k but X (X j) = j i = -k
    z2 = AbelianGroup(0, (2,))
    e, x = z2.elements()
    q = RationalQuaternion
    assert q.i() * q.j() == q.k() and q.j() * q.i() == -q.k()

    def build(value):
        sigma = {(u, v): q(1) for u in (e, x) for v in (e, x)}
        sigma[(x, x)] = value
        return build_crossed_product(z2, CoefficientKind.quaternion(), set(), sigma)

    assert build(q(-1)).sigma(x, x) == -1
    for unit in (q.i(), q.j(), q.k(), -q.i(), -q.j(), -q.k()):
        with pytest.raises(CocycleError, match="not an allowed unit"):
            build(unit)


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


def _reference_quad_forms(support, beta):
    """The per-mask loop that quad_forms ran before it checked eta0 once: a
    table for every generator sign mask, each checked on all |T|^2 pairs."""
    if not support.is_elementary_two():
        raise ValueError("Quad(T, beta) is defined for elementary abelian 2-groups")

    def as_sign(value):
        if value == 1:
            return 1
        if value == -1:
            return -1
        raise ValueError("beta must be {+-1}-valued")

    elems = list(support.elements())
    gens = support.generators()
    out = []
    n = len(gens)
    for mask in range(2 ** n):
        gen_signs = [1 - 2 * ((mask >> i) & 1) for i in range(n)]
        table = {support.zero(): 1}
        ok = True
        for x in sorted(elems, key=lambda e: (sum(e.coords), e.coords)):
            if x in table:
                continue
            i = next(i for i, c in enumerate(x.coords) if c)
            y = x - gens[i]
            table[x] = as_sign(beta.value(y, gens[i])) * table[y] * gen_signs[i]
        for u in elems:
            for v in elems:
                if table[u + v] != as_sign(beta.value(u, v)) * table[u] * table[v]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(QuadraticData(True, table))
    return out


# every entry of the catalog on an elementary abelian 2-group of order 2 ... 64
ELEMENTARY_TWO_REFS = tuple(
    f"{tag}:Z2^{r}"
    for tags, ranks in ((("1-a", "1-b", "2-c", "2-f", "3-a", "3-b"), (2, 4, 6)),
                        (("1-c", "2-a", "2-b", "3-c"), (1, 3, 5)))
    for tag in tags for r in ranks)


def test_elementary_two_refs_are_the_catalog():
    for tag in ("1-a", "1-b", "1-c", "2-a", "2-b", "2-c", "2-f", "3-a", "3-b", "3-c"):
        for r in range(1, 7):
            ref = f"{tag}:Z2^{r}"
            try:
                _catalog(ref)
            except CatalogError:
                assert ref not in ELEMENTARY_TWO_REFS
            else:
                assert ref in ELEMENTARY_TWO_REFS


def _sign_table(beta):
    """beta's values on K x K, each one equal to 1 or -1 replaced by that int.
    The loop reads beta only through `as_sign`, so its outcome on the table
    is its outcome on beta."""
    return frozenset((key, next((s for s in (1, -1) if x == s), x))
                     for key, x in _values(beta).items())


@functools.lru_cache(maxsize=None)
def _reference_forms(support, table):
    """The value dicts of the loop's forms on a sign table; 3-a, 3-b and 3-c
    carry the sign tables of 1-a, 1-b and 1-c, so it runs once for each pair."""
    values = dict(table)
    beta = types.SimpleNamespace(value=lambda u, v: values[(u, v)])
    return tuple(f.values for f in _reference_quad_forms(support, beta))


def _assert_quad_forms_match_the_loop(d, beta):
    """quad_forms gives the loop's forms, form by form and in list order,
    each listing T in position order, and a full torsor."""
    got = [f.values for f in quad_forms(d.support, beta)]
    assert got == list(_reference_forms(d.support, _sign_table(beta)))
    assert len(got) == 2 ** d.support.rank
    assert all(list(f) == list(d.elements()) for f in got)
    return got


NEEDS_BETA_ON_T = r"^Quad\(T, beta\) needs beta on all of T$"


@pytest.mark.parametrize("ref", ELEMENTARY_TWO_REFS)
def test_quad_forms_against_the_per_mask_loop(ref):
    d = _catalog(ref)
    beta = commutation_bicharacter(d)
    if d.conj_elements:  # types 2-a, 2-b and 2-c: beta lives on K != T
        with pytest.raises(ValueError, match=NEEDS_BETA_ON_T):
            quad_forms(d.support, beta)
    else:
        _assert_quad_forms_match_the_loop(d, beta)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 4).flatmap(lambda r: st.lists(
    st.lists(st.integers(0, 1), min_size=r, max_size=r), min_size=r, max_size=r)))
@example([[int(j == i + 2) for j in range(6)] for i in range(6)])  # radical of rank 2
def test_quad_forms_on_upper_triangular_cocycles(rows):
    """Z2^r over R with sigma(u, v) = (-1)^(u^T B v), B the strictly upper
    triangular part of `rows`, so that beta runs over every alternating
    form: quad_forms is the loop's torsor, mu is in it, and for r <= 3 each
    form passes the identity on every pair.  The loop takes 0.5 s at r = 5
    and 2.6 s at r = 6, so r <= 4 is drawn and r = 6 is one example, with a
    radical of rank 2 (the catalog's rank-6 forms are nondegenerate)."""
    r = len(rows)
    t = AbelianGroup(0, (2,) * r)
    elems = list(t.elements())
    sigma = {(u, v): (-1) ** sum(rows[i][j] * u.coords[i] * v.coords[j]
                                 for i in range(r) for j in range(i + 1, r))
             for u in elems for v in elems}
    d = build_crossed_product(t, CoefficientKind.real(), set(), sigma)
    beta = commutation_bicharacter(d)
    forms = _assert_quad_forms_match_the_loop(d, beta)
    assert quadratic_form(d).values in forms
    if r <= 3:
        for f in forms:
            assert all(f[u + v] == beta.value(u, v) * f[u] * f[v] for u in elems for v in elems)


def test_quad_forms_rejects_a_beta_on_another_group_and_other_supports():
    """The entries with K != T are refused in the test against the loop."""
    z4 = AbelianGroup(0, (4,))
    on_z4 = commutation_bicharacter(build_crossed_product(
        z4, CoefficientKind.real(), set(), {(u, v): 1 for u in z4.elements() for v in z4.elements()}))
    for support, beta in [(Z2xZ2, commutation_bicharacter(_catalog("1-a:Z2^4"))),
                          (AbelianGroup(0, (2,) * 4), commutation_bicharacter(_catalog("1-a:Z2^2"))),
                          (Z2xZ2, on_z4)]:  # the last on a group of the same order
        with pytest.raises(ValueError, match=NEEDS_BETA_ON_T):
            quad_forms(support, beta)
    d = _catalog("2-f:Z3^2")
    for support, beta in [(z4, on_z4), (d.support, commutation_bicharacter(d))]:
        with pytest.raises(ValueError, match="defined for elementary abelian 2-groups"):
            quad_forms(support, beta)


def _reference_polarization_failure(d, beta, mu):
    """The per-pair loop that quadratic_form ran before it checked
    generators only: the first (u, v) at which the identity fails."""
    for u in d.elements():
        for v in d.elements():
            if beta.value(u, v) != mu[u + v] * mu[u] * mu[v]:
                return u, v
    return None


@pytest.mark.parametrize("ref", [r for r in ELEMENTARY_TWO_REFS if r[0] in "13"])
def test_polarization_on_generators_against_the_per_pair_loop(ref):
    """The total forms (types 1 and 3), as built and with the sign flipped at
    each element in turn: the same verdict as the per-pair loop, and a
    failing pair named has a generator second."""
    d = _catalog(ref)
    beta = commutation_bicharacter(d)
    mu = quadratic_form(d).values
    assert _polarization_failure(beta, [mu[t] for t in d.elements()]) is None
    assert _reference_polarization_failure(d, beta, mu) is None
    for t in d.elements():
        corrupted = dict(mu)
        corrupted[t] = -corrupted[t]
        bad = _polarization_failure(beta, [corrupted[s] for s in d.elements()])
        assert (bad is None) == (_reference_polarization_failure(d, beta, corrupted) is None)
        if bad is not None:
            u, g = bad
            assert beta.value(u, g) != corrupted[u + g] * corrupted[u] * corrupted[g]
            assert g in d.support.generators()


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


def test_canonical_shares_one_entry_per_tag_and_support():
    d = canonical("1-a", "Z2xZ2")
    assert canonical("1-a", "Z2^2") is d
    assert canonical("1-a", AbelianGroup(0, (2, 2))) is d
    assert parse_catalog_ref("1-a:Z2^2") is d
    assert canonical("1-b", "Z2^2") is not d
    assert canonical("1-a", "Z2^4") is not d


@pytest.mark.parametrize("tag, support", [("1-b", "Z2"), ("2-d", "Z4"), ("9-z", "Z2"),
                                          ("2-f", "Z")])
def test_canonical_refuses_a_bad_entry_on_every_call(tag, support):
    for _ in range(3):
        with pytest.raises(CatalogError):
            canonical(tag, support)
    assert division._canonical_entry.cache_info().currsize == 0


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


@pytest.mark.parametrize("ref", ["3-a:Z2xZ2", "3-b:Z2xZ2", "3-c:Z2^3", "3-d:Z2xZ4"])
def test_inverse_with_a_noncentral_quaternion_coefficient(ref):
    d = parse_catalog_ref(ref)
    c = RationalQuaternion(1, 1, 1)  # 1 + i + j
    for t in d.elements():
        x = d.unit(t, c)
        xi = x.inverse()  # raises ArithmeticError unless the inverse is two-sided
        assert xi.degree() == -t
        assert x * xi == d.one()
        assert xi * x == d.one()


def test_inverse_raises_when_only_one_side_inverts():
    z3 = AbelianGroup(0, (3,))
    e = list(z3.elements())
    cocycle = {(u, v): Fraction(1) for u in e for v in e}
    d = build_crossed_product(z3, CoefficientKind.real(), (), cocycle)
    # construction validated the trivial cocycle; break it afterwards
    d._sigma_ids[2][1] = d.kind.exponent(-1)  # sigma(1, 2) = 1 but sigma(2, 1) = -1
    assert d.sigma(e[2], e[1]) == -1 and d.sigma(e[1], e[2]) == 1
    with pytest.raises(ArithmeticError):
        d.unit(e[1]).inverse()


def test_roots_of_unity_are_the_allowed_units():
    # the oracle of the former Cyclotomic.is_root_of_unity_or_zero
    assert CoefficientKind.complex(8).is_allowed_cocycle_unit(zeta(8, 3))
    assert CoefficientKind.complex(3).is_allowed_cocycle_unit(-zeta(3))
    assert not CoefficientKind.complex(4).is_allowed_cocycle_unit(1 + zeta(4))
    # membership after coercion: zeta_8 lies outside Q(zeta_4), zeta_3 inside Q(zeta_12)
    assert not CoefficientKind.complex(4).is_allowed_cocycle_unit(zeta(8))
    assert CoefficientKind.complex(12).is_allowed_cocycle_unit(zeta(3))
    kinds = [CoefficientKind.complex(n) for n in range(3, 17)]
    for kind in [CoefficientKind.real(), CoefficientKind.quaternion()] + kinds:
        n = kind.conductor
        roots, order = kind.roots, 2 if n is None else math.lcm(2, n)
        assert len(roots) == order == len({kind.to_vector(x) for x in roots}), kind
        power = kind.one()  # roots[e] = omega^e, and omega^N = 1: omega has order N
        for e, x in enumerate(roots):
            assert x == power and kind.exponent(x) == e, (kind, e)
            power = power * roots[1]
        assert power == kind.one(), kind
        if n is None:
            q = RationalQuaternion
            others = [0, 2, -2, Fraction(1, 2)] + [q.i(), -q.j(), q.k(), q(1, 1)] * (
                kind.family == "H")
            assert [kind.is_allowed_cocycle_unit(v) for v in [1, -1] + others] == \
                [True, True] + [False] * len(others), kind
            continue
        for v in [s * zeta(n, k) for s in (1, -1) for k in range(n)] + [0 * zeta(n), 2 * zeta(n)]:
            assert kind.is_allowed_cocycle_unit(v) == (v ** (2 * n) == 1), (kind, v)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 16), st.data())
def test_allowed_units_are_the_roots_of_unity_of_the_conductor(n, data):
    kind = CoefficientKind.complex(n)
    degree = len(kind.basis())
    # small coefficients: +-zeta_n^k, sums of two roots, and non-units all occur
    v = Cyclotomic(n, data.draw(st.lists(st.integers(-1, 1), min_size=degree, max_size=degree)))
    assert kind.is_allowed_cocycle_unit(v) == (v ** (2 * n) == 1)


def test_constructor_takes_a_checked_presentation():
    z2 = AbelianGroup(0, (2,))
    e, x = z2.elements()
    real = CoefficientKind.real()
    d = GradedDivisionAlgebra(z2, real, (False,), (-1,), {})
    assert d.sigma(x, x) == -1 and d.sigma(e, x) == 1
    assert d.presentation == ((False,), (-1,), {})
    assert not hasattr(d, "cocycle")
    with pytest.raises(ValueError, match="a presentation of Z2 needs 1 action flags, 1 powers"):
        GradedDivisionAlgebra(z2, real, (False,), (), {})
    with pytest.raises(ValueError, match="a presentation of Z2 needs 1 action flags, 1 powers"):
        GradedDivisionAlgebra(z2, real, (), (-1,), {})
    with pytest.raises(ValueError, match=r"commutators at \(j, i\) with i < j < 1"):
        GradedDivisionAlgebra(z2, real, (False,), (-1,), {(0, 0): 1})
    with pytest.raises(TypeError, match="cannot coerce"):  # a value of another kind
        GradedDivisionAlgebra(z2, real, (False,), (zeta(4),), {})
    with pytest.raises(CocycleError, match=r"sigma undefined at \(<1>, <1>\)"):
        build_crossed_product(z2, real, (), {(e, e): 1, (e, x): 1, (x, e): 1})


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


def _identity_fails(kind, conj, sigma, u, v, w):
    """Does sigma(u, v) sigma(u + v, w) = alpha_u(sigma(v, w)) sigma(u, v + w) fail?"""
    s_vw = kind.conjugate(sigma[(v, w)]) if u in conj else sigma[(v, w)]
    return sigma[(u, v)] * sigma[(u + v, w)] != s_vw * sigma[(u, v + w)]


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
    for u in elems:
        for v in elems:
            for w in elems:
                if _identity_fails(kind, conj, sigma, u, v, w):
                    raise CocycleError(f"cocycle identity fails at ({u}, {v}, {w})",
                                       witness=(u, v, w))


def _cocycle(d):
    return {(u, v): d.sigma(u, v) for u in d.elements() for v in d.elements()}


def _outcome(check):
    try:
        check()
    except ValueError as err:
        return type(err).__name__, str(err), getattr(err, "witness", None)
    return None


def _unit_multipliers(kind):
    """Units other than 1.  Each keeps a cocycle value an allowed unit, except
    the quaternion units +-i, +-j, +-k: H admits only +-1 (see `_keeps_allowed`)."""
    if kind.family == "R":
        return [Fraction(-1)]
    if kind.family == "C":
        n = kind.conductor
        return [zeta(n, j) for j in range(1, n)] + [kind.coerce(-1)]
    q = RationalQuaternion
    return [q(-1)] + [s * u() for s in (1, -1) for u in (q.i, q.j, q.k)]


def _keeps_allowed(kind, factor):
    """Does multiplying an allowed cocycle value by `factor` keep it allowed?"""
    return factor != kind.coerce(2) and (kind.family != "H" or factor == -1)


def _assert_reference_verdict(d, cocycle):
    """Building from `cocycle` gives the verdict of the O(|T|^3) reference.
    A failure of the cocycle identity may name another triple: one that fails
    under the reference, with a generator of T in the middle."""
    expected = _outcome(lambda: _reference_validate(d.support, d.kind, d.conj_elements, cocycle))
    got = _outcome(lambda: build_crossed_product(
        d.support, d.kind, d.conj_elements, cocycle, d.type_tag))
    if expected is None or expected[2] is None:
        assert got == expected
        return expected
    assert got is not None and got[0] == "CocycleError"
    u, g, w = got[2]
    assert got[1] == f"cocycle identity fails at ({u}, {g}, {w})"
    assert g in d.support.generators()
    sigma = {pair: d.kind.coerce(value) for pair, value in cocycle.items()}
    assert _identity_fails(d.kind, d.conj_elements, sigma, u, g, w)
    return expected


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SMALL_REFS), st.data())
def test_flipped_cocycle_entry_matches_reference_check(ref, data):
    d = _catalog(ref)
    elems = d.elements()
    u = data.draw(st.sampled_from(elems), label="u")
    v = data.draw(st.sampled_from(elems), label="v")
    # a sign or a root of unity keeps sigma an allowed unit; 2 makes it a
    # non-unit, and a quaternion unit +-i, +-j, +-k one that H does not admit
    factor = data.draw(st.sampled_from(_unit_multipliers(d.kind) + [d.kind.coerce(2)]))
    cocycle = _cocycle(d)
    cocycle[(u, v)] = cocycle[(u, v)] * factor
    expected = _assert_reference_verdict(d, cocycle)
    if u != d.support.zero() and v != d.support.zero() and _keeps_allowed(d.kind, factor):
        assert expected is None or expected[2] is not None  # the triple loop decided


@pytest.mark.parametrize("ref", ["2-b:Z2", "2-e:Z4", "1-a:Z2xZ2", "1-d:Z2xZ4"])
def test_every_flipped_entry_matches_reference_check(ref):
    # cyclic supports have one generator: a check that skips it, or that stops
    # the last argument short, accepts a broken sigma(1, 1)
    d = _catalog(ref)
    for u, v in itertools.product(d.elements(), repeat=2):
        for factor in _unit_multipliers(d.kind):
            cocycle = _cocycle(d)
            cocycle[(u, v)] = cocycle[(u, v)] * factor
            _assert_reference_verdict(d, cocycle)


def test_catalog_cocycles_pass_the_reference_check():
    for ref in SMALL_REFS:
        d = _catalog(ref)
        _reference_validate(d.support, d.kind, d.conj_elements, _cocycle(d))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 4), (2, 2, 4), (4, 4)]), st.data())
def test_conjugation_sets_match_reference_check(torsion, data):
    # the trivial cocycle suits every action, so the verdict is the action's:
    # the set of elements on which a character T -> Z2 is odd, maybe perturbed
    support = AbelianGroup(0, torsion)
    elems = list(support.elements())
    bits = data.draw(st.lists(st.integers(0, 1), min_size=len(torsion), max_size=len(torsion)))
    conj = {t for t in elems if sum(b * c for b, c in zip(bits, t.coords)) % 2}
    conj ^= set(data.draw(st.lists(st.sampled_from(elems), max_size=2)))
    kind = CoefficientKind.complex(4)
    cocycle = {(u, v): 1 for u in elems for v in elems}
    expected = _outcome(lambda: _reference_validate(support, kind, conj, cocycle))
    got = _outcome(lambda: build_crossed_product(support, kind, conj, cocycle))
    assert (got is None) == (expected is None)


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
    twisted = build_crossed_product(d.support, kind, d.conj_elements, cocycle, d.type_tag)
    beta, twisted_beta = commutation_bicharacter(d), commutation_bicharacter(twisted)
    assert twisted_beta.domain == beta.domain
    assert all(twisted_beta.value(u, v) == beta.value(u, v)
               for u in beta.domain for v in beta.domain)


def _former_sigma(block):
    """The catalog's former sigma formula of a block, on its own coordinates."""
    former = [
        (division._PAULI, lambda u, v: (-1) ** (u[1] * v[0])),
        (division._QUATERNION, lambda u, v: (-1) ** (u[1] * v[0] + u[0] * v[0] + u[1] * v[1])),
        (division._CENTRAL_I, lambda u, v: (-1) ** (u[0] * v[0])),
        (division._Z2_Z4, lambda u, v: (-1) ** (u[1] * v[0] + (u[1] + v[1]) // 4)),
        (division._CONJ2[1], lambda u, v: 1),
        (division._CONJ2[-1], lambda u, v: (-1) ** (u[0] * v[0])),
        (division._CONJ4, lambda u, v: (-1) ** ((u[0] + v[0]) // 4)),
    ]
    for known, sigma in former:
        if block is known:
            return sigma
    m = block[0][0]  # the clock and shift of 2-f
    assert block == ((m, m), (False, False), (1, 1), {(1, 0): zeta(m, m - 1)})
    return lambda u, v: zeta(m, u[0] * v[1] % m)


def _per_pair_sigma(blocks, family):
    """sigma by the former per-pair construction: the product, over the
    blocks, each (orders, sigma on its coordinates), of each block's value
    on the pair's own coordinates.  Over H, the values are those over R
    wrapped as quaternions."""
    if family == "H":
        return {pair: RationalQuaternion(value)
                for pair, value in _per_pair_sigma(blocks, "R").items()}
    group = AbelianGroup(0, tuple(m for orders, _ in blocks for m in orders))
    exp = group.exponent()
    kind = CoefficientKind.real() if family == "R" else CoefficientKind.complex(
        exp if exp > 2 else 4)
    spans, start = [], 0
    for orders, block_sigma in blocks:
        spans.append((start, start + len(orders), block_sigma))
        start += len(orders)

    def sig(u, v):
        value = kind.one()
        for a, b, block_sigma in spans:
            value = value * kind.coerce(block_sigma(u.coords[a:b], v.coords[a:b]))
        return value

    elems = list(group.elements())
    return {(u, v): sig(u, v) for u in elems for v in elems}


def test_catalog_tables_match_the_per_pair_construction(monkeypatch):
    # off 2-f the normal words are the former tables; on 2-f (zeta^(u_0 v_1)
    # then, zeta^(-u_1 v_0) now) beta is the same and the table a cocycle
    built = {}
    assemble = division._assemble

    def recording(blocks, family, tag):
        d = assemble(blocks, family, tag)
        former = [(block[0], _former_sigma(block)) for block in blocks]
        built.setdefault((tag, d.support), (d, former, family))
        return d

    monkeypatch.setattr(division, "_assemble", recording)
    for name in ("M1R", "M2R", "H", "M1C", "M2C", "M3C", "M4C"):
        classify(name)
    run_suite("all")
    assert len(built) >= 18  # the distinct entries the 7 tables and the suites build
    for ref in ("1-b:Z2^6", "1-c:Z2^5", "1-d:Z2^3xZ4", "2-f:Z4^2",
                "3-a:Z2^4", "3-b:Z2^4", "3-c:Z2^5", "3-d:Z2^3xZ4"):
        parse_catalog_ref(ref)
    for (tag, support), (d, blocks, family) in built.items():
        expected = _per_pair_sigma(blocks, family)
        assert {(u, v) for u in d.elements() for v in d.elements()} == set(expected)
        if tag != "2-f":
            assert all(d.sigma(u, v) == value
                       for (u, v), value in expected.items()), (tag, support)
            continue
        beta = commutation_bicharacter(d)
        assert all(beta.value(u, v) == value / expected[(v, u)]
                   for (u, v), value in expected.items()), support
        _reference_validate(d.support, d.kind, d.conj_elements, _cocycle(d))
    assert {"3-a", "3-b", "3-c", "3-d"} <= {tag for tag, _ in built}
    assert "2-f" in {tag for tag, _ in built}


# inconsistent presentations, each with the overlap whose two reductions differ
INCONSISTENT = [
    # 1-d's Z2xZ4 block in 2-d:Z2^2xZ4, its commutation sign -1 replaced by i.
    # A sign alone cannot do it: with every value +-1 and every order even,
    # each condition of `_overlap_failure` holds.  The conjugating X_0 sends
    # i to -i, so X_s X_a X_0 has two reductions.
    ("2-d:Z2^2xZ4", lambda conj, powers, comm: (conj, powers, {(2, 1): zeta(4)}),
     "X<0,0,1> X<0,1,0> X<1,0,0>"),
    # 2-a:Z2 with the square of its conjugating generator i, not real
    ("2-a:Z2", lambda conj, powers, comm: (conj, (zeta(4),), comm), "X<1>^3"),
    # 2-f:Z3^2 with b_10 = -1, a commutation factor that no skew bicharacter
    # on Z3^2 takes: X_1^3 = 1 commutes with X_0, but b_10^3 = -1
    ("2-f:Z3^2", lambda conj, powers, comm: (conj, powers, {(1, 0): -1}), "X<0,1>^3 X<1,0>"),
    # 2-f:Z3^2 with X_0, of order 3, conjugating: X_0^3 is central, alpha^3 is not
    ("2-f:Z3^2", lambda conj, powers, comm: ((True, False), powers, comm), "X<1,0>^3 c"),
    # 2-e:Z2^2xZ4 with b_20 = i, the only failing check: X_s X_a^2 = X_s but
    # N_a(i) = i^2 = -1
    ("2-e:Z2^2xZ4", lambda conj, powers, comm: (conj, powers, {**comm, (2, 0): zeta(4)}),
     "X<0,0,1> X<1,0,0>^2"),
]


@pytest.mark.parametrize("ref,mutate,overlap", INCONSISTENT, ids=[r for r, _, _ in INCONSISTENT])
def test_inconsistent_presentation_names_its_overlap(ref, mutate, overlap):
    d = parse_catalog_ref(ref)
    GradedDivisionAlgebra(d.support, d.kind, *d.presentation)  # the catalog's is consistent
    with pytest.raises(CocycleError) as err:
        GradedDivisionAlgebra(d.support, d.kind, *mutate(*d.presentation))
    assert str(err.value) == f"presentation is inconsistent at the overlap {overlap}"
    assert err.value.witness == overlap


def test_a_consistent_presentation_with_complex_values_gives_a_cocycle():
    # 2-a:Z2^3 with X_1^2 = i and X_1 X_0 = i X_0 X_1 is consistent, X_0
    # conjugating: collecting then conjugates p_1 and b_10 past X_0
    d = parse_catalog_ref("2-a:Z2^3")
    conj, powers, comm = d.presentation
    e = GradedDivisionAlgebra(d.support, d.kind, conj, (powers[0], zeta(4), powers[2]),
                              {**comm, (1, 0): zeta(4)})
    _reference_validate(e.support, e.kind, e.conj_elements, _cocycle(e))
    twin = build_crossed_product(e.support, e.kind, e.conj_elements, _cocycle(e))
    assert twin.presentation[:2] == e.presentation[:2]
    assert {key: b for key, b in twin.presentation[2].items() if b != 1} == e.presentation[2]


def test_a_conjugating_generator_of_order_four_crosses_a_commutator():
    # On Z4^2 over Q(zeta_4), X_1 conjugates and X_1 X_0 = i X_0 X_1: in
    # s(w) X_0, X_0 crosses X_1^w_1 and leaves i, -i, i, ... alternating,
    # whose product is i for an odd w_1 and 1 for an even one, not i^w_1
    group, kind = AbelianGroup(0, (4, 4)), CoefficientKind.complex(4)
    d = GradedDivisionAlgebra(group, kind, (False, True), (1, 1), {(1, 0): zeta(4)})
    _reference_validate(d.support, d.kind, d.conj_elements, _cocycle(d))
    x0, x1 = group.generators()
    assert d.sigma(x1, x0) == zeta(4) and d.sigma(2 * x1, x0) == 1
    assert d.sigma(3 * x1, x0) == zeta(4)


def _allowed_units(kind):
    """The values a presentation may take: +-1 over R and H, the roots of
    unity of the conductor and their negatives over C."""
    if kind.family != "C":
        return [kind.coerce(1), kind.coerce(-1)]
    return [s * zeta(kind.conductor, k) for s in (1, -1) for k in range(kind.conductor)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_REFS), st.data())
def test_overlap_verdict_is_the_reference_verdict_of_the_normal_words(ref, data):
    # a catalog presentation with p_j, b_ji and, over C, action flags redrawn:
    # the constructor refuses it iff the collected tau fails the O(|T|^3) check
    d = _catalog(ref)
    kind, orders, elems = d.kind, d.support.torsion, d.elements()
    conj, powers, comm = list(d.presentation[0]), list(d.presentation[1]), dict(d.presentation[2])
    r, values = len(orders), _allowed_units(kind)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        j = data.draw(st.integers(0, r - 1), label="j")
        target = data.draw(st.sampled_from(["p", "b"] + ["conj"] * (kind.family == "C")))
        if target == "p":
            powers[j] = data.draw(st.sampled_from(values))
        elif target == "conj":
            conj[j] = not conj[j]
        elif j:
            comm[(j, data.draw(st.integers(0, j - 1)))] = data.draw(st.sampled_from(values))
    try:
        GradedDivisionAlgebra(d.support, kind, conj, powers, comm)
        refused = False
    except CocycleError:
        refused = True
    tau = division._normal_words(
        orders, conj, [kind.exponent(x) for x in powers],
        [[kind.exponent(comm.get((j, i), 1)) for i in range(j)] for j in range(r)],
        len(kind.roots), d._add)
    cocycle = {(u, v): kind.roots[tau[x][y]]
               for x, u in enumerate(elems) for y, v in enumerate(elems)}
    acting = {t for t in elems if sum(c for c, f in zip(t.coords, conj) if f) % 2}
    expected = _outcome(lambda: _reference_validate(d.support, kind, acting, cocycle))
    assert refused == (expected is not None)


def _division_line_events(call):
    """call() and the line events in `gradecat/division.py` frames while it
    runs: each loop iteration there, in a comprehension too, makes at least
    one, so the count is a deterministic measure of the work done there."""
    events = [0]

    def local(frame, event, arg):
        events[0] += event == "line"
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename == division.__file__ else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, events[0]


def test_canonical_makes_at_most_three_products_per_pair():
    # the normal-word collector makes one sum per pair of T, plus about
    # rank^2 |T| / 2 for its column table; the former Kronecker product and
    # cocycle check made (1 + rank T) products per pair.  Z2^6 has the
    # largest share of column work in 64 <= |T| <= 256
    for tag, torsion in [("1-a", (2,) * 6), ("2-e", (2,) * 4 + (4,)), ("2-f", (9, 9)),
                         ("1-d", (2,) * 5 + (4,)), ("1-b", (2,) * 8), ("2-f", (16, 16))]:
        group = AbelianGroup(0, torsion)
        d, events = _division_line_events(lambda: canonical(tag, group))
        assert d.support == group and events <= 3 * group.order() ** 2, (tag, torsion, events)


def _values(beta):
    """beta as a map of the pairs of K x K, read through `value`."""
    return {(u, v): beta.value(u, v) for u in beta.domain for v in beta.domain}


IDS_MESSAGE = "bicharacter ids must be ints in range({}), the exponents of kind.roots"


def _exponent_or_value(kind, value):
    """The exponent of value in kind.roots, or the value itself outside them."""
    e = kind.exponent(value)
    return value if e is None else e


def _beta_from_values(group, values, kind):
    """The Bicharacter on `group` with `values`, a map of element pairs, each
    given as its exponent in kind.roots (a value outside them as itself),
    and None at every pair that `values` does not hold."""
    elements = list(group.elements())
    return Bicharacter(group, kind, [
        [_exponent_or_value(kind, values[(u, v)]) if (u, v) in values else None
         for v in elements] for u in elements])


def _first_non_multiplicative(domain, values):
    for u in domain:
        for v in domain:
            for w in domain:
                if values[(u + v, w)] != values[(u, w)] * values[(v, w)]:
                    return u, v, w
    return None


def _greedy_generators(domain):
    """Each element of the domain, in lexicographic order, that the earlier
    ones do not generate."""
    group, gens = domain[0].group, []
    for x in sorted(domain, key=lambda e: e.coords):
        if x not in subgroup_generated(group, gens):
            gens.append(x)
    return gens


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([r for r in SMALL_REFS if len(_catalog(r).centralizer_elements()) >= 4]),
       st.data())
def test_corrupted_bicharacter_names_first_bad_triple(ref, data):
    """A corrupted beta is refused exactly when the |K|^3 loop finds a bad
    triple, and the triple named fails there too, with a generator of K in
    the middle; a value outside kind.roots (quaternion i, j, k) has no id."""
    d = _catalog(ref)
    beta = commutation_bicharacter(d)
    u = data.draw(st.sampled_from(beta.domain), label="u")
    v = data.draw(st.sampled_from([x for x in beta.domain if x != u]), label="v")
    factor = data.draw(st.sampled_from(_unit_multipliers(d.kind)))
    values = _values(beta)
    values[(u, v)] = values[(u, v)] * factor
    assert _first_non_multiplicative(beta.domain, values) is not None  # |K| >= 4
    with pytest.raises(ValueError) as err:
        _beta_from_values(d.support, values, d.kind)
    if not d.kind.is_allowed_cocycle_unit(values[(u, v)]):
        assert str(err.value) == IDS_MESSAGE.format(len(d.kind.roots))
        return
    triples = {"bicharacter not multiplicative at ({},{},{})".format(*t): t
               for t in itertools.product(beta.domain, repeat=3)}
    x, g, w = triples[str(err.value)]
    assert values[(x + g, w)] != values[(x, w)] * values[(g, w)]
    assert g in _greedy_generators(beta.domain)


def test_bicharacter_on_every_catalog_beta_matches_the_triple_loop():
    for ref in SMALL_REFS:
        beta = commutation_bicharacter(_catalog(ref))
        assert _first_non_multiplicative(beta.domain, _values(beta)) is None


def test_bicharacter_checks_its_last_generator():
    # on Z2^2, with e2 = (0, 1) the first generator taken and e1 = (1, 0) the
    # last: f(u + e2, w) = f(u, w) f(e2, w) holds everywhere, while
    # f(e1 + e1, e2) = 1 is not f(e1, e2)^2 = -1
    group = AbelianGroup(0, (2, 2))
    zero, e2, e1, e12 = group.elements()
    rows = {e1: {e1: 1, e2: zeta(4), e12: -1}, e2: {e1: -1, e2: 1, e12: -1}}
    rows[e12] = {w: rows[e1][w] * rows[e2][w] for w in (e1, e2, e12)}
    values = {(u, w): rows[u][w] if u != zero and w != zero else 1
              for u in group.elements() for w in group.elements()}
    with pytest.raises(ValueError) as err:
        _beta_from_values(group, values, CoefficientKind.complex(4))
    assert str(err.value) == f"bicharacter not multiplicative at ({e1},{e1},{e2})"


def test_bicharacter_checks_its_second_argument():
    # on Z2, beta(1, 0) = -1 and 1 elsewhere is alternating and a character
    # in its first argument, but beta(1, 0 + 0) is not beta(1, 0)^2; the
    # polarization check on generators never looks at v = 0, so it would
    # pass this beta, on which mu(1) = beta(1, 0) mu(1) mu(0) fails for any mu
    group = AbelianGroup(0, (2,))
    zero, one = group.elements()
    values = {(u, v): -1 if (u, v) == (one, zero) else 1
              for u in group.elements() for v in group.elements()}
    with pytest.raises(ValueError, match=r"^bicharacter is not skew at \(<0>,<1>\)$"):
        _beta_from_values(group, values, CoefficientKind.real())


def _is_alternating_bicharacter(domain, values, kind):
    """The |K|^3 triple loop on the values: values is alternating, and
    multiplicative in each argument at every triple of the domain."""
    f = {pair: kind.coerce(value) for pair, value in values.items()}
    one = kind.one()
    return all(f[(u, u)] == one for u in domain) and all(
        f[(u + v, w)] == f[(u, w)] * f[(v, w)] and f[(w, u + v)] == f[(w, u)] * f[(w, v)]
        for u in domain for v in domain for w in domain)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_REFS), st.sampled_from(["beta", "transpose", "conjugate", "square"]),
       st.data())
def test_bicharacter_verdict_is_the_triple_loop_verdict(ref, start, data):
    """Each of the four starts is an alternating bicharacter; up to three
    entries of K x K, the diagonal and the zero row included, are then
    multiplied by units.  The checks on the presentation accept exactly
    the tables that the |K|^3 loop accepts."""
    d = _catalog(ref)
    beta = commutation_bicharacter(d)
    kind, values = d.kind, _values(beta)
    table = {(u, v): {"beta": values[(u, v)], "transpose": values[(v, u)],
                      "conjugate": kind.conjugate(values[(u, v)]),
                      "square": values[(u, v)] * values[(u, v)]}[start] for u, v in values}
    for _ in range(data.draw(st.integers(0, 3), label="corrupted")):
        pair = data.draw(st.sampled_from(sorted(table, key=lambda p: (p[0].coords, p[1].coords))))
        table[pair] = table[pair] * data.draw(st.sampled_from(_unit_multipliers(kind)))
    try:
        _beta_from_values(d.support, table, kind)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == _is_alternating_bicharacter(beta.domain, table, kind)


def test_bicharacter_checks_the_relation_of_each_generator():
    # K = {0, (0,2), (1,1), (1,3)} in Z2 x Z4 is cyclic of order 4, but the
    # greedy generators are g1 = (0,2) and g2 = (1,1), with relation
    # 2 g2 = g1.  The table is the Kronecker build of the rows chi1 of g1
    # (the character with chi1(g2) = -1) and chi2 = 1 of g2, so every tree
    # step holds; only the relation row f(g1, w) = f(g2, w)^2 fails, at w = g2
    group = AbelianGroup(0, (2, 4))
    zero, g1, g2 = group.zero(), group.element((0, 2)), group.element((1, 1))
    domain = [zero, g1, g2, g1 + g2]
    chi1 = {zero: 1, g1: 1, g2: -1, g1 + g2: -1}
    values = {(a * g1 + b * g2, w): chi1[w] ** a for a in (0, 1) for b in (0, 1) for w in domain}
    assert _greedy_generators(domain) == [g1, g2]
    assert values[(g1, g2)] != values[(g2, g2)] * values[(g2, g2)]
    assert not _is_alternating_bicharacter(domain, values, CoefficientKind.real())
    with pytest.raises(ValueError) as err:
        _beta_from_values(group, values, CoefficientKind.real())
    assert str(err.value) == f"bicharacter not multiplicative at ({g2},{g2},{g2})"


def test_bicharacter_refuses_what_is_no_exponent():
    # the ids are exponents in range(N), N = len(kind.roots): the values lie
    # in the cyclic group mu_N, so they commute and need no check; an id of
    # another type or out of range, or a value outside roots (quaternion i,
    # 1 + zeta_4), is refused before any law is checked
    for ref, outside in (("2-f:Z4^2", 1 + zeta(4)), ("3-b:Z2xZ2", RationalQuaternion.i())):
        beta = commutation_bicharacter(_catalog(ref))
        order, x, y = len(beta.kind.roots), 0, beta.ids[0].index(0, 1)  # y != 0 in K
        message = "^" + re.escape(IDS_MESSAGE.format(order)) + "$"
        for bad in (order, -1, float(beta.ids[x][y]), True, Fraction(1), outside):
            with pytest.raises(ValueError, match=message):
                Bicharacter(beta.group, beta.kind, _with(beta.ids, x, y, bad))
        values = _values(beta)
        values[(beta.domain[1], beta.domain[2])] = outside
        with pytest.raises(ValueError, match=message):
            _beta_from_values(beta.group, values, beta.kind)
        assert not beta.kind.is_allowed_cocycle_unit(outside)


def test_bicharacter_on_the_zero_subgroup_checks_its_one_value():
    # K = 0 has no generator, so no tree, relation or skew step: only
    # alternation at 0 sees beta(0, 0)
    group = AbelianGroup(0, (2,))
    zero = group.zero()
    with pytest.raises(ValueError, match=r"^bicharacter is not alternating at <0>$"):
        _beta_from_values(group, {(zero, zero): -1}, CoefficientKind.real())
    assert _beta_from_values(group, {(zero, zero): 1}, CoefficientKind.real()).domain == (zero,)


def test_bicharacter_check_makes_at_most_two_products_per_pair():
    # the tree, relation and skew rows make |K|^2 + (2 rank K - 1)|K| sums;
    # the former check made |K|^2 rank K products.  2-a on Z2^9 has |T| = 512
    # and |K| = 256, so its table checks must not cost |T|^2
    for tag, torsion in [("2-a", (2,) * 7), ("2-f", (9, 9)), ("1-d", (2,) * 5 + (4,)),
                         ("1-b", (2,) * 8), ("2-a", (2,) * 9), ("2-f", (16, 16))]:
        beta = commutation_bicharacter(canonical(tag, AbelianGroup(0, torsion)))
        size, rank = len(beta.domain), len(beta.generators)
        rebuilt, events = _division_line_events(
            lambda: Bicharacter(beta.group, beta.kind, beta.ids))  # the constructor only
        assert rebuilt.generators == beta.generators and 64 <= size <= 256
        assert events <= 2 * size ** 2 + 4 * size * rank, (tag, torsion, events)


@pytest.mark.parametrize("domain", [
    [(0,), (1,)],  # {0, 1} in Z4
    [(1,), (2,), (3,)],  # Z4 without its zero
])
def test_bicharacter_domain_that_is_not_a_subgroup(domain):
    group = AbelianGroup(0, (4,))
    domain = [group.element(c) for c in domain]
    values = {(u, v): 1 for u in domain for v in domain}
    with pytest.raises(ValueError, match="bicharacter domain is not a subgroup"):
        _beta_from_values(group, values, CoefficientKind.real())


def _reference_beta_ids(d):
    """Each sigma(u, v) / sigma(v, u), divided as values and looked up anew in
    kind.roots, in row-major order over the support positions, and None off
    K x K."""
    domain = set(d.centralizer_elements())
    return [[d.kind.exponent(d.sigma(u, v) / d.sigma(v, u)) if u in domain and v in domain
             else None for v in d.elements()] for u in d.elements()]


def _reference_radical_elements(beta):
    return tuple(t for t in beta.domain
                 if all(beta.value(u, t) == beta.kind.one() for u in beta.domain))


def _reference_is_self_conjugate(beta):
    return all(beta.value(u, v) == beta.kind.conjugate(beta.value(u, v))
               for u in beta.domain for v in beta.domain)


def test_beta_ids_interned_per_sigma_pair_match_a_per_value_intern():
    for ref in SMALL_REFS:
        d = parse_catalog_ref(ref)
        beta = commutation_bicharacter(d)  # a fresh beta
        assert beta.domain == d.centralizer_elements(), ref
        assert beta.ids == _reference_beta_ids(d), ref
        rebuilt = _beta_from_values(d.support, _values(beta), beta.kind)
        assert rebuilt.ids == beta.ids and rebuilt == beta, ref
        for b in (beta, rebuilt):
            assert b.radical_elements() == _reference_radical_elements(b), ref
            assert b.is_self_conjugate() == _reference_is_self_conjugate(b), ref


def _catalog_up_to(order):
    """(ref, algebra) of each catalog entry with |T| <= order."""
    def chains(prefix, product):  # invariant-factor chains m1 | m2 | ...
        yield prefix
        step = prefix[-1] if prefix else 1
        m = max(step, 2)
        while product * m <= order:
            yield from chains(prefix + (m,), product * m)
            m += step
    tags = [f"{n}-{c}" for n, cs in ((1, "abcd"), (2, "abcdef"), (3, "abcd")) for c in cs]
    for torsion, tag in itertools.product(chains((), 1), tags):
        group = AbelianGroup(0, torsion)
        try:
            yield f"{tag}:{group.pretty()}", canonical(tag, group)
        except CatalogError:
            pass


def test_generators_below_each_prefix_generate_k_on_it():
    # T_j, the subgroup on coordinates j.., is the prefix of |T_j| positions
    # that the automorphism search fills first
    seen = set()
    for ref, d in _catalog_up_to(64):
        beta, group = commutation_bicharacter(d), d.support
        elements = list(group.elements())
        for j in range(group.rank + 1):
            size = math.prod(group.torsion[j:])
            assert all(not any(x.coords[:j]) for x in elements[:size]), ref
            below = subgroup_generated(group, [elements[g] for g in beta.generators if g < size])
            assert below == {x for x in beta.domain if not any(x.coords[:j])}, (ref, j)
        seen.add(ref.split(":")[0])
    assert len(seen) == 14


def _with(ids, x, y, a):
    """A copy of the table `ids` with `a` at (x, y)."""
    ids = [list(row) for row in ids]
    ids[x][y] = a
    return ids


def test_bicharacter_table_has_a_value_exactly_on_k_x_k():
    beta = commutation_bicharacter(_catalog("2-a:Z2^3"))  # |K| = 4, |T| = 8
    index = {t: i for i, t in enumerate(beta.group.elements())}
    k = [index[t] for t in beta.domain]
    off = next(x for x in index.values() if x not in k)
    one = beta.ids[0][0]
    bad = [
        _with(beta.ids, k[1], off, one),  # a value at (x, y), y outside K
        _with(beta.ids, off, k[1], one),  # and at (y, x)
        _with(beta.ids, k[1], k[2], None),  # no value inside K x K
        _with(beta.ids, k[1], k[1], None),  # k[1] off the diagonal: its row has values
        beta.ids[:-1],  # not |T| x |T|
        beta.ids + [beta.ids[-1]],
        [row[:-1] for row in beta.ids],
        [row + [None] for row in beta.ids],
        beta.ids[:-1] + [beta.ids[-1][:-1]],
    ]
    for ids in bad:
        with pytest.raises(ValueError, match="table of ids with a value exactly on K x K"):
            Bicharacter(beta.group, beta.kind, ids)
    assert Bicharacter(beta.group, beta.kind, [list(row) for row in beta.ids]) == beta
    for b in (beta, commutation_bicharacter(_catalog("1-a:Z2xZ2"))):  # K < T and K = T
        assert Bicharacter(b.group, b.kind, [tuple(row) for row in b.ids]) == b


def test_bicharacter_value_raises_key_error_off_k_x_k():
    d = _catalog("2-a:Z2^3")
    beta = commutation_bicharacter(d)
    u = beta.domain[1]
    v = next(t for t in d.elements() if t not in beta.domain)
    for pair in ((u, v), (v, u), (v, v)):
        with pytest.raises(KeyError) as err:
            beta.value(*pair)
        assert err.value.args == (pair,)
    assert beta.value(u, u) == d.kind.one()
