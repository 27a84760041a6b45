import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gradecat.abelian import (
    AbelianGroup,
    AutBoundError,
    abstract_type,
    automorphism_group,
    chain_elements,
    compose,
)
from gradecat.autgroups import (
    IDENTIFY_BOUND,
    AutomorphismError,
    AutTriple,
    DirectProduct,
    DivisionAutomorphism,
    FiniteAbelian,
    NamedFinite,
    SemidirectProduct,
    Symmetric,
    Torus,
    TRIVIAL,
    WeylModel,
    _finite_group_descriptor,
    descriptors_equal,
    diag_descriptor,
    identify_group,
    stab_descriptor,
    stab_division,
    triple_apply,
    triple_product,
    weyl_descriptor,
    weyl_division,
)
from gradecat.classify import classify
from gradecat.division import (
    Bicharacter,
    CoefficientKind,
    GradedDivisionAlgebra,
    canonical,
    commutation_bicharacter,
)
from gradecat.matrix import GradedElement, matrix_algebra
from gradecat.scalars import RationalQuaternion, zeta

Z2 = AbelianGroup(0, (2,))
Z2xZ2 = AbelianGroup(0, (2, 2))
TRIVIAL_R = canonical("1-a", AbelianGroup.trivial())


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

def test_descriptor_normalization():
    assert Symmetric(2).normalized() == FiniteAbelian(Z2)
    assert Symmetric(1).normalized() == TRIVIAL
    prod = DirectProduct((FiniteAbelian(Z2), Symmetric(2)))
    assert prod.normalized() == FiniteAbelian(Z2xZ2)
    nested = DirectProduct((DirectProduct((Torus("Rx"), Torus("Rx"))), FiniteAbelian(Z2)))
    flat = nested.normalized()
    assert isinstance(flat, DirectProduct) and len(flat.factors) == 3


def test_descriptor_orders_and_pretty():
    w = SemidirectProduct(FiniteAbelian(Z2xZ2), DirectProduct((Symmetric(3), TRIVIAL)))
    assert w.finite_part_order() == 24
    assert "⋊" in w.pretty()
    assert Torus("Rx").pretty() == "R^x"
    assert DirectProduct((Torus("Rx"), Torus("Rx"))).pretty() == "(R^x)^2"


# ---------------------------------------------------------------------------
# identify_group
# ---------------------------------------------------------------------------

def _cyclic_model(n):
    return list(range(n)), lambda a, b: (a + b) % n


def test_identify_small_groups():
    assert identify_group(*_cyclic_model(1)) == "1"
    assert identify_group(*_cyclic_model(2)) == "Z2"
    assert identify_group(*_cyclic_model(3)) == "Z3"
    assert identify_group(*_cyclic_model(4)) == "Z4"
    assert identify_group(*_cyclic_model(6)) == "Z6"
    elements = [(a, b) for a in range(2) for b in range(2)]
    assert identify_group(elements, lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2)) == "Z2^2"
    elements = [(a, b) for a in range(2) for b in range(4)]
    assert identify_group(elements, lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 4)) \
        == "Z2 × Z4"
    # the quaternion group: not abelian, and no census name
    units = (RationalQuaternion.one(), RationalQuaternion.i(), RationalQuaternion.j(),
             RationalQuaternion.k())
    assert identify_group([s * u for s in (1, -1) for u in units], lambda x, y: x * y) \
        == "other(8)"
    import itertools
    perms3 = list(itertools.permutations(range(3)))
    mul3 = lambda p, q: tuple(p[q[i]] for i in range(3))
    assert identify_group(perms3, mul3) == "Sym(3)"
    perms4 = list(itertools.permutations(range(4)))
    mul4 = lambda p, q: tuple(p[q[i]] for i in range(4))
    assert identify_group(perms4, mul4) == "Sym(4)"


def test_identify_gl23_from_aut():
    auts = chain_elements(automorphism_group(AbelianGroup(0, (3, 3))))
    assert identify_group(auts, compose) == "GL(2,3)"


def test_identify_reads_the_census_before_any_commutation_scan():
    # the census costs one product per element and step of its order, about
    # 5 n here; a scan of all pairs for commutation alone would cost n (n - 1)
    perms4 = list(itertools.permutations(range(4)))
    gl23 = chain_elements(automorphism_group(AbelianGroup(0, (3, 3))))
    for elements, name in ((perms4, "Sym(4)"), (gl23, "GL(2,3)")):
        calls = []

        def mul(p, q):
            calls.append(None)
            return compose(p, q)

        assert identify_group(elements, mul) == name
        assert len(calls) <= 5 * len(elements)


def _reference_census(elements, mul):
    """The census that identify_group and the descriptor each ran before one
    census was shared: the identity by an O(n^2) scan."""
    ident = next(
        x for x in elements if all(mul(x, y) == y and mul(y, x) == y for y in elements)
    )
    orders = {}
    for x in elements:
        acc = x
        k = 1
        while acc != ident:
            acc = mul(acc, x)
            k += 1
        orders[k] = orders.get(k, 0) + 1
    abelian = all(mul(x, y) == mul(y, x) for x in elements for y in elements)
    return orders, abelian


def _reference_identify(elements, mul):
    n = len(elements)
    if n > 48:
        return f"other({n})"
    census, abelian = _reference_census(elements, mul)
    exponent = max(census)
    names = {1: "1", 2: "Z2", 3: "Z3"}
    if n in names:
        return names[n]
    if n == 4 and abelian and exponent == 2:
        return "Z2^2"
    if n == 6 and not abelian:
        return "Sym(3)"
    if n == 8 and abelian and exponent == 2:
        return "Z2^3"
    perms4 = list(itertools.permutations(range(4)))
    if n == 24 and not abelian and census == _reference_census(
            perms4, lambda p, q: tuple(p[q[i]] for i in range(4)))[0]:
        return "Sym(4)"
    if n == 48 and not abelian and census == _reference_census(
            chain_elements(automorphism_group(AbelianGroup(0, (3, 3)))), compose)[0]:
        return "GL(2,3)"
    return f"other({n})"


def _reference_descriptor(elements, mul):
    _, abelian = _reference_census(elements, mul)
    if abelian:
        return FiniteAbelian(abstract_type(elements, add=mul))
    tag = _reference_identify(elements, mul)
    if tag == "Sym(3)":
        return Symmetric(3)
    if tag == "Sym(4)":
        return Symmetric(4)
    return NamedFinite(tag, len(elements))


def _classify_groups():
    """(label, elements, mul, chain) of every W0 that classify builds, of
    every Weyl model it builds, and of Sym(4) and GL(2,3) by their
    definitions; chain is the stabilizer chain of a W0, else None."""
    groups = []
    for name in ("M1R", "M2R", "H", "M1C", "M2C", "M3C", "M4C"):
        for row in classify(name):
            label = f"{name}/{row.k}/{row.division.type_tag}:{row.division.support.pretty()}"
            chain = weyl_division(row.division)[0]
            groups.append((f"W0 {label}", chain_elements(chain), compose, chain))
            if row.weyl_identified is not None:
                model = WeylModel(row.algebra)
                groups.append((f"W {label}", list(model.elements), model.mul, None))
    groups.append(("Sym(4)", list(itertools.permutations(range(4))),
                   lambda p, q: tuple(p[q[i]] for i in range(4)), None))
    gl23 = automorphism_group(AbelianGroup(0, (3, 3)))
    groups.append(("GL(2,3)", chain_elements(gl23), compose, gl23))
    return groups


def test_census_on_shuffled_groups_matches_the_reference():
    rng = random.Random(3)
    groups = _classify_groups()
    names = set()
    for label, elements, mul, chain in groups:
        shuffled = list(elements)
        rng.shuffle(shuffled)
        if len(shuffled) > 1 and mul(shuffled[0], shuffled[0]) == shuffled[0]:
            shuffled.append(shuffled.pop(0))  # the identity is not first
        got = identify_group(shuffled, mul)
        assert got == _reference_identify(shuffled, mul), label
        if chain is not None:
            assert _finite_group_descriptor(chain) == _reference_descriptor(
                shuffled, mul), label
        names.add(got)
    assert {"Sym(3)", "Sym(4)", "GL(2,3)", "Z2^2", "other(720)", "other(96)"} <= names


def test_abelian_w0_agrees_with_sympy_abelian_invariants():
    # sympy reads abelianness and the invariants off the strong generators alone
    from sympy.combinatorics import Permutation, PermutationGroup

    typed = set()
    for name in ("M1R", "M2R", "H", "M1C", "M2C", "M3C", "M4C"):
        for row in classify(name):
            chain, w0 = weyl_division(row.division)
            strong = [Permutation(list(u)) for level in chain for u in level[1:]]
            group = PermutationGroup(strong or [Permutation(list(chain_elements(chain)[0]))])
            assert isinstance(w0, FiniteAbelian) == group.is_abelian, name
            if group.is_abelian:
                assert w0.group == AbelianGroup.from_cyclic_orders(group.abelian_invariants())
                typed.add(w0.group)
    assert AbelianGroup(0, (2, 2)) in typed and AbelianGroup.trivial() in typed


@pytest.mark.parametrize("ref,k", [("1-c:Z2^5", 6), ("1-b:Z2^4", 5)])
def test_w0_has_the_census_of_a_symmetric_group(ref, k):
    # Sp(4, 2) = Sym(6) and O^-(4, 2) = Sym(5): W0 has the order and the
    # element-order census of Sym(k)
    from gradecat.division import parse_catalog_ref

    elements = chain_elements(weyl_division(parse_catalog_ref(ref))[0])
    perms = list(itertools.permutations(range(k)))
    assert len(elements) == len(perms) == math.factorial(k)
    census = _reference_census(perms, lambda p, q: tuple(p[i] for i in q))[0]
    assert _reference_census(elements, compose)[0] == census
    if k == 6:
        assert census == {1: 1, 2: 75, 3: 80, 4: 180, 5: 144, 6: 240}


def test_identify_bound_is_the_classify_bound():
    n = IDENTIFY_BOUND + 2
    assert identify_group(*_cyclic_model(n)) == f"other({n})"
    for name in ("M3C", "M4C"):
        for row in classify(name):
            order = row.weyl_finite_order
            assert (row.weyl_identified is not None) == (
                order is not None and order <= IDENTIFY_BOUND)


# ---------------------------------------------------------------------------
# Weyl groups of division gradings on small real algebras
# ---------------------------------------------------------------------------

def _w0(d):
    """The elements of W(Gamma_0) listed from its chain, and its descriptor."""
    chain, desc = weyl_division(d)
    return chain_elements(chain), desc


def test_weyl_quaternions_is_sym3():
    elems, desc = _w0(canonical("1-b", "Z2xZ2"))
    assert len(elems) == 6
    assert desc == Symmetric(3)


def test_weyl_pauli_m2r_is_z2():
    elems, desc = _w0(canonical("1-a", "Z2xZ2"))
    assert len(elems) == 2
    assert desc == FiniteAbelian(Z2)


def test_weyl_2f_z3_squared_is_gl23():
    elems, desc = _w0(canonical("2-f", "Z3^2"))
    assert len(elems) == 48
    assert desc == NamedFinite("GL(2,3)", 48)


def test_weyl_1d_z2_z4_is_z2_squared():
    elems, desc = _w0(canonical("1-d", "Z2xZ4"))
    assert len(elems) == 4
    assert desc == FiniteAbelian(Z2xZ2)


def test_weyl_1c_m2c_is_sym3():
    elems, desc = _w0(canonical("1-c", "Z2^3"))
    assert len(elems) == 6
    assert desc == Symmetric(3)


def test_weyl_1c_on_c_is_trivial():
    elems, desc = _w0(canonical("1-c", "Z2"))
    assert len(elems) == 1
    assert desc == TRIVIAL


def _trivially_graded_z257():
    """Q graded trivially by Z257, one element past ELEMENT_BOUND."""
    real = CoefficientKind.real()
    return GradedDivisionAlgebra(AbelianGroup(0, (257,)), real, (False,), (1,), {})


def test_weyl_respects_bound():
    with pytest.raises(AutBoundError):
        weyl_division(_trivially_graded_z257())


def test_weyl_refuses_a_square_off_k_that_is_not_a_sign():
    from gradecat.division import build_crossed_product

    # 2-e:Z4 with X_2 rescaled by i: sigma'(u, v) = lam(u) alpha_u(lam(v))
    # sigma(u, v) / lam(u + v) is cohomologous, and X_1^2 = -+i X_2 off K
    d = canonical("2-e", "Z4")
    elems = list(d.elements())
    lam = {t: zeta(4) if t == elems[2] else 1 for t in elems}
    cocycle = {(u, v): lam[u] * d.alpha(u, lam[v]) * d.sigma(u, v) / lam[u + v]
               for u in elems for v in elems}
    rescaled = build_crossed_product(d.support, d.kind, d.conj_elements, cocycle)
    with pytest.raises(ValueError, match=r"normalized square .* is not \+-1"):
        weyl_division(rescaled)


def test_weyl_order_divides_aut_order():
    for ref, support in (("1-b", "Z2xZ2"), ("1-d", "Z2xZ4"), ("2-f", "Z3^2")):
        d = canonical(ref, support)
        elems, _ = _w0(d)
        assert len(chain_elements(automorphism_group(d.support))) % len(elems) == 0


# ---------------------------------------------------------------------------
# stabilizers of division gradings, by type
# ---------------------------------------------------------------------------

def _reference_keeps(d, p):
    """The GroupElement filter of weyl_division, as an oracle: does the
    automorphism p of T keep the invariants of d?  The position tuple p is
    read as the map x -> elems[p[index[x]]]."""
    from gradecat.division import quadratic_form

    elems = list(d.support.elements())
    index = {x: i for i, x in enumerate(elems)}
    beta = commutation_bicharacter(d)

    def f(x):
        return elems[p[index[x]]]

    if d.type_tag == "2-f" or (d.kind.family == "C" and not d.conj_elements):
        pairs = [(beta.value(f(u), f(v)), beta.value(u, v)) for u in elems for v in elems]
        return all(a == b for a, b in pairs) or \
            all(a == d.kind.conjugate(b) for a, b in pairs)
    if d.kind.family in ("R", "H"):
        two_torsion = [x for x in elems if (2 * x).is_zero()]
        return all(d.sigma(f(x), f(x)) == d.sigma(x, x) for x in two_torsion) and all(
            beta.value(f(u), f(v)) == beta.value(u, v) for u in elems for v in elems)
    kset = set(d.centralizer_elements())
    nu = quadratic_form(d).values
    return all((f(x) in kset) == (x in kset) for x in elems) \
        and all(nu[f(x)] == nu[x] for x in nu) \
        and all(beta.value(f(u), f(v)) == beta.value(u, v) for u in kset for v in kset)


def _reference_weyl_kept(d):
    """The elements of Aut(T) that `_reference_keeps` keeps."""
    return [p for p in chain_elements(automorphism_group(d.support)) if _reference_keeps(d, p)]


@pytest.mark.parametrize("ref", [
    "1-a:1", "1-a:Z2xZ2", "1-b:Z2xZ2", "1-c:Z2", "1-c:Z2^3", "1-d:Z2xZ4",
    "2-a:Z2", "2-a:Z2^3", "2-b:Z2", "2-c:Z2xZ2", "2-d:Z2^2xZ4", "2-e:Z4",
    "2-f:Z2^2", "2-f:Z3^2", "3-b:Z2xZ2", "3-d:Z2xZ4",
    "3-a:Z2xZ2", "3-c:Z2", "2-b:Z2^3", "2-e:Z2^2xZ4", "2-f:Z4^2",
])
def test_weyl_division_matches_reference_filter(ref):
    from gradecat.division import parse_catalog_ref

    d = parse_catalog_ref(ref)
    assert sorted(_w0(d)[0]) == sorted(_reference_weyl_kept(d))


def _enumerate_then_filter_kept(d):
    """The int-table filter of weyl_division before its search was pruned,
    as an oracle: all of Aut(T) first, then the label and the exponents of
    sigma(u, v) / sigma(v, u), looked up afresh, on K at every position."""
    elems, sigma, add, real = d.elements(), d._sigma_ids, d._add, d.kind.family != "C"
    in_k = [x not in d.conj_elements for x in elems]
    label = [(k, sigma[i][i] if not k or (real and add[i][i] == 0) else None)
             for i, k in enumerate(in_k)]
    k_at = [i for i, k in enumerate(in_k) if k]
    quotients = {(i, j): d.sigma(elems[i], elems[j]) / d.sigma(elems[j], elems[i])
                 for i in k_at for j in k_at}
    images = [lambda q: q] + [d.kind.conjugate] * (not real and not d.conj_elements)
    tables = [[[d.kind.exponent(image(quotients[(i, j)])) if (i, j) in quotients else None
                for j in range(len(elems))] for i in range(len(elems))] for image in images]
    rows = [(i, [tables[0][i][j] for j in k_at]) for i in k_at]
    return [p for p in chain_elements(automorphism_group(d.support))
            if [label[x] for x in p] == label
            and any(all([t[p[i]][p[j]] for j in k_at] == row for i, row in rows)
                    for t in tables)]


@pytest.mark.parametrize("ref", ["1-a:Z2^4", "1-b:Z2^4", "2-f:Z4^2", "2-f:Z3^2",
                                 "2-f:Z5^2", "2-e:Z2^2xZ4", "3-d:Z2xZ4", "2-a:Z2^3",
                                 "2-c:Z2^2", "2-d:Z2^2xZ4"])
def test_weyl_division_matches_the_enumerate_then_filter_oracle(ref):
    from gradecat.division import parse_catalog_ref

    d = parse_catalog_ref(ref)
    assert sorted(_w0(d)[0]) == sorted(_enumerate_then_filter_kept(d))


def _sp_order(m):
    """|Sp(2m, 2)|."""
    return 2 ** (m * m) * math.prod(4 ** i - 1 for i in range(1, m + 1))


def _o_order(m, sign):
    """|O^+(2m, 2)| for sign 1, |O^-(2m, 2)| for sign -1."""
    return 2 * 2 ** (m * (m - 1)) * (2 ** m - sign) * math.prod(4 ** i - 1 for i in range(1, m))


def _gl_pm_order(n):
    """2 n^3 prod_(p | n) (1 - p^-2), the order of W0 of 2-f on Z_n^2."""
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    return int(2 * n ** 3 * math.prod(Fraction(p * p - 1, p * p) for p in primes))


CHAIN_ORDERS = [
    ("1-c:Z2^3", _sp_order(1)), ("1-c:Z2^5", _sp_order(2)), ("1-c:Z2^7", _sp_order(3)),
    ("1-a:Z2^4", _o_order(2, 1)), ("1-a:Z2^6", _o_order(3, 1)),
    ("1-b:Z2^4", _o_order(2, -1)), ("1-b:Z2^6", _o_order(3, -1)),
    ("2-f:Z3^2", _gl_pm_order(3)), ("2-f:Z4^2", _gl_pm_order(4)),
    ("2-f:Z5^2", _gl_pm_order(5)), ("2-f:Z6^2", _gl_pm_order(6)),
    ("1-d:Z2^3xZ4", 96), ("2-f:Z2^2xZ4^2", 9216),  # pinned: no closed form is derived
]


@pytest.mark.parametrize("ref,order", CHAIN_ORDERS, ids=[r for r, _ in CHAIN_ORDERS])
def test_chain_order_is_the_closed_form(ref, order):
    # sympy's Schreier-Sims, independent of the chain, finds that the strong
    # generators generate a group of its order, and a generating subset of
    # them, picked by sympy's membership test, keeps the invariants
    from sympy.combinatorics import Permutation, PermutationGroup

    from gradecat.division import parse_catalog_ref

    d = parse_catalog_ref(ref)
    chain, desc = weyl_division(d)
    assert math.prod(map(len, chain)) == desc.finite_part_order() == order
    gens = []
    for p in (Permutation(list(u)) for level in chain for u in level[1:]):
        if not gens or not PermutationGroup(gens).contains(p):
            gens.append(p)
    assert PermutationGroup(gens).order() == order
    assert all(_reference_keeps(d, p.array_form) for p in gens)


@pytest.mark.parametrize("ref", ["2-a:Z2^3", "2-d:Z2^2xZ4", "2-f:Z3^2", "1-c:Z2^3"])
def test_weyl_division_tables_hold_none_exactly_off_k(ref, monkeypatch):
    from gradecat import autgroups
    from gradecat.division import parse_catalog_ref

    seen = []
    monkeypatch.setattr(autgroups, "automorphism_group", lambda group, label, betas:
                        seen.append(betas) or ())  # the chain of the trivial group
    d = parse_catalog_ref(ref)  # fresh per test (conftest): the stub's answer is memoized on it
    in_k = [x not in d.conj_elements for x in d.elements()]
    weyl_division(d)
    beta, betas = commutation_bicharacter(d), seen[0]
    assert betas[0] is beta
    if ref.startswith("2-f"):  # beta may also go to its conjugate
        assert [b.ids for b in betas[1:]] == [[[-a % len(beta.kind.roots) for a in row]
                                               for row in beta.ids]]
    else:
        assert len(betas) == 1
    for b in betas:
        assert isinstance(b, Bicharacter) and b.kind is beta.kind
        assert b.domain == d.centralizer_elements()
        assert [[a is not None for a in row] for row in b.ids] == \
            [[i and j for j in in_k] for i in in_k]


def test_weyl_division_refuses_before_computing_beta():
    d = _trivially_graded_z257()
    with pytest.raises(AutBoundError):
        weyl_division(d)
    assert d._beta is None


def _census_stab_division(d):
    """Stab(Gamma_0) with T/T^[2] and T read off element censuses, as an oracle."""
    from gradecat.abelian import quotient_type, square_elements
    from gradecat.division import commutation_bicharacter

    t = d.support
    quot = FiniteAbelian(quotient_type(t, square_elements(t)))
    whole = abstract_type(t.elements())
    family, tag = d.type_tag[0], d.type_tag
    if family == "1":
        return quot
    if family == "3":
        return DirectProduct((Torus("AutH"), quot))
    if tag == "2-f":
        if commutation_bicharacter(d).is_self_conjugate():
            return FiniteAbelian(whole.direct_sum(Z2))
        return FiniteAbelian(whole)
    return quot if tag in ("2-d", "2-e") else FiniteAbelian(whole)


@pytest.mark.parametrize("ref", [
    "1-a:Z2^2", "1-a:Z2^4", "1-b:Z2^2", "1-b:Z2^4", "1-c:Z2", "1-c:Z2^3",
    "1-d:Z2xZ4", "1-d:Z2^3xZ4", "2-a:Z2", "2-a:Z2^3", "2-b:Z2^3", "2-c:Z2^2",
    "2-d:Z2^2xZ4", "2-d:Z2^4xZ4", "2-e:Z4", "2-e:Z2^2xZ4", "2-f:Z2^2", "2-f:Z4^2",
    "2-f:Z6^2", "2-f:Z2^2xZ4^2", "3-a:Z2^2", "3-b:Z2^2", "3-c:Z2^3", "3-d:Z2xZ4",
    "3-d:Z2^3xZ4",
])
def test_stab_division_matches_census_form(ref):
    from gradecat.division import parse_catalog_ref

    d = parse_catalog_ref(ref)
    stab, expected = stab_division(d), _census_stab_division(d)
    if isinstance(stab, SemidirectProduct):  # 2-a ... 2-e
        assert stab.normal == Torus("U1")
        assert stab.acting == expected
    else:
        assert stab == expected


def test_stab_division_table():
    assert stab_division(canonical("1-a", "Z2xZ2")) == FiniteAbelian(Z2xZ2)
    assert stab_division(canonical("1-b", "Z2xZ2")) == FiniteAbelian(Z2xZ2)
    assert stab_division(canonical("1-d", "Z2xZ4")) == FiniteAbelian(Z2xZ2)
    assert stab_division(canonical("2-f", "Z3^2")) == FiniteAbelian(AbelianGroup(0, (3, 3)))
    # 2-f with elementary support: beta is real, so Stab = T x Z2
    assert stab_division(canonical("2-f", "Z2^2")) == FiniteAbelian(AbelianGroup(0, (2, 2, 2)))
    sd = stab_division(canonical("2-a", "Z2"))
    assert isinstance(sd, SemidirectProduct)
    assert sd.normal == Torus("U1")
    assert sd.finite_part_order() == 2
    sd_e = stab_division(canonical("2-e", "Z4"))
    assert sd_e.acting == FiniteAbelian(Z2)
    d3 = stab_division(canonical("3-b", "Z2xZ2"))
    assert d3 == DirectProduct((Torus("AutH"), FiniteAbelian(Z2xZ2)))
    d3d = stab_division(canonical("3-d", "Z2xZ4"))
    assert d3d == DirectProduct((Torus("AutH"), FiniteAbelian(Z2xZ2)))


# ---------------------------------------------------------------------------
# matrix-level descriptors on the small reference algebras
# ---------------------------------------------------------------------------

def test_trivial_grading_has_trivial_groups():
    r = matrix_algebra(TRIVIAL_R, k=1)
    assert descriptors_equal(diag_descriptor(r), TRIVIAL)
    assert descriptors_equal(stab_descriptor(r), TRIVIAL)
    assert weyl_descriptor(r).finite_part_order() == 1


def test_m2r_split_descriptors():
    r = matrix_algebra(TRIVIAL_R, k=2)
    assert descriptors_equal(diag_descriptor(r), Torus("Rx"))
    assert descriptors_equal(stab_descriptor(r), Torus("Rx"))
    w = weyl_descriptor(r)
    assert w.finite_part_order() == 2
    model = WeylModel(r)
    assert model.order() == 2
    assert model.identify() == "Z2"


def test_quaternion_descriptors():
    r = matrix_algebra(canonical("1-b", "Z2xZ2"), k=1)
    assert descriptors_equal(stab_descriptor(r), FiniteAbelian(Z2xZ2))
    assert descriptors_equal(diag_descriptor(r), FiniteAbelian(Z2xZ2))
    w = weyl_descriptor(r)
    assert w == Symmetric(3)


def test_m2c_row1_descriptors():
    r = matrix_algebra(canonical("1-c", "Z2"), k=2)
    assert descriptors_equal(stab_descriptor(r),
                             DirectProduct((Torus("Rx"), FiniteAbelian(Z2))))
    w = weyl_descriptor(r)
    assert w.finite_part_order() == 4
    assert descriptors_equal(w, FiniteAbelian(Z2xZ2))
    assert WeylModel(r).identify() == "Z2^2"


def test_m3c_row1_weyl_is_sym4():
    r = matrix_algebra(canonical("1-c", "Z2"), k=3)
    w = weyl_descriptor(r)
    assert w.finite_part_order() == 24
    model = WeylModel(r)
    assert model.order() == 24
    assert model.identify() == "Sym(4)"
    assert descriptors_equal(
        stab_descriptor(r),
        DirectProduct((Torus("Rx"), Torus("Rx"), FiniteAbelian(Z2))),
    )


def test_weyl_descriptor_finite_order_formula():
    # |W| = |T|^(k-1) * k! * |W0|
    cases = [
        (canonical("1-b", "Z2xZ2"), 2),
        (canonical("1-c", "Z2"), 3),
        (canonical("1-d", "Z2xZ4"), 2),
    ]
    import math

    for d, k in cases:
        r = matrix_algebra(d, k=k)
        w0, _ = _w0(d)
        expected = (d.support.order() ** (k - 1)) * math.factorial(k) * len(w0)
        assert weyl_descriptor(r).finite_part_order() == expected
        assert WeylModel(r).order() == expected


def test_weyl_descriptor_of_m4c_rows_4_and_5_is_finite():
    # once out of the search's reach and printed W0[...]
    from gradecat.division import parse_catalog_ref

    for ref, order in (("1-c:Z2^5", 720), ("1-d:Z2^3xZ4", 96)):
        w = weyl_descriptor(matrix_algebra(parse_catalog_ref(ref), k=1))
        assert w == NamedFinite(f"other({order})", order)
        assert w.finite_part_order() == order


def test_semidirect_pretty_brackets_product_factors():
    w = weyl_descriptor(matrix_algebra(canonical("1-d", "Z2xZ4"), k=2))
    assert w.pretty() == "(Z2 × Z4) ⋊ (Sym(2) × Z2^2)"
    w = weyl_descriptor(matrix_algebra(canonical("1-c", "Z2"), k=4))
    assert w.pretty() == "Z2^3 ⋊ Sym(4)"


def _reference_weyl_mul(model, a, b):
    """The product of T^(k-1) >| (Sym(k) x W0) by GroupElement arithmetic:
    (t, pi, w)(t', pi', w') = (t + w(t' o pi^-1), pi pi', w w'), modulo T."""
    elems = list(model.support.elements())
    index = {x: i for i, x in enumerate(elems)}
    (t1, p1, w1), (t2, p2, w2) = a, b
    full1 = [elems[0]] + [elems[i] for i in t1]
    full2 = [elems[0]] + [elems[i] for i in t2]
    acted = [elems[w1[index[full2[p1.index(i)]]]] for i in range(model.k)]
    total = [x + y for x, y in zip(full1, acted)]
    tbar = tuple(index[x - total[0]] for x in total[1:])
    return tbar, tuple(p1[i] for i in p2), tuple(w1[i] for i in w2)


def test_weyl_model_is_a_group():
    from gradecat.division import parse_catalog_ref

    for ref, k, order, w0_order in (
        ("1-c:Z2", 2, 4, 1),
        ("1-d:Z2xZ4", 2, 64, 4),  # order-4 elements in T and a nontrivial W0
    ):
        model = WeylModel(matrix_algebra(parse_catalog_ref(ref), k=k))
        assert model.order() == order and len(model.w0) == w0_order
        elems = set(model.elements)
        ident = model.identity()
        assert ident in elems
        rng = random.Random(0)
        for _ in range(60):
            a, b, c = (rng.choice(model.elements) for _ in range(3))
            assert model.mul(a, ident) == a and model.mul(ident, a) == a
            assert model.mul(model.mul(a, b), c) == model.mul(a, model.mul(b, c))
            assert model.mul(a, b) in elems
            assert model.mul(a, b) == _reference_weyl_mul(model, a, b)
            assert any(model.mul(a, x) == ident == model.mul(x, a) for x in model.elements)


# ---------------------------------------------------------------------------
# psi0 and triples
# ---------------------------------------------------------------------------

def test_division_automorphism_character():
    d = canonical("1-b", "Z2xZ2")
    chi = {}
    for t in d.elements():
        chi[t] = -1 if t.coords[0] == 1 else 1
    psi = DivisionAutomorphism.from_character(d, chi)
    a = d.support.element((1, 0))
    assert psi.apply(d.unit(a)) == d.unit(a, -1)


def test_division_automorphism_rejects_non_characters():
    d = canonical("1-b", "Z2xZ2")
    chi = {t: 1 for t in d.elements()}
    chi[d.support.element((1, 0))] = Fraction(2)  # not even a sign
    with pytest.raises(AutomorphismError):
        DivisionAutomorphism(d, chi, d.kind.basis())


def _reference_psi(d, phi, images):
    """psi(c X_t) = phi(t) m(c) X_t, with m read off the coordinates of c."""
    kind = d.kind

    def psi(x):
        terms = {}
        for t, c in x.terms.items():
            m_c = kind.zero()
            for q, image in zip(kind.to_vector(c), images):
                if q:
                    m_c = m_c + kind.coerce(q) * kind.coerce(image)
            terms[t] = kind.coerce(phi[t]) * m_c
        return d.element(terms)
    return psi


@functools.lru_cache(maxsize=None)
def _basis_products(d):
    """The Q-basis b X_u of D, and the product x y of each pair of it, which
    do not depend on psi: computed once per algebra."""
    basis = [d.unit(u, b) for u in d.elements() for b in d.kind.basis()]
    return basis, [[x * y for y in basis] for x in basis]


def _reference_is_automorphism(d, phi, images):
    """psi(x y) = psi(x) psi(y) for every pair x, y of the Q-basis b X_u of D."""
    psi = _reference_psi(d, phi, images)
    basis, products = _basis_products(d)
    psis = [psi(x) for x in basis]
    return all(psi(xy) == psi_x * psi_y for row, psi_x in zip(products, psis)
               for xy, psi_y in zip(row, psis))


def _assert_generating_witness(d, phi, images, err):
    """The witness is a pair (x, y), with y in D_e or X_g for a generator g,
    at which psi fails to be multiplicative; the message names it."""
    x, y = err.witness
    psi = _reference_psi(d, phi, images)
    assert psi(x * y) != psi(x) * psi(y)
    g = y.degree()
    assert g == d.support.zero() or (y == d.unit(g) and g in d.support.generators())
    assert f"({x!r}, {y!r})" in str(err)


def test_division_automorphism_witness_pair():
    d = canonical("2-f", "Z3^2")
    # a map that is not a character cannot be an automorphism
    phi = {t: 1 for t in d.elements()}
    phi[d.support.element((1, 0))] = zeta(3)
    with pytest.raises(AutomorphismError) as err:
        DivisionAutomorphism(d, phi, d.kind.basis())
    _assert_generating_witness(d, phi, d.kind.basis(), err.value)


def test_division_automorphism_refuses_a_non_central_phi_over_h():
    # phi(a, s) = i^s is a character of T, but i is not central in H:
    # psi(j X_s) = k X_s while psi(j) psi(X_s) = -k X_s
    d = canonical("3-d", "Z2xZ4")
    i, j, k = RationalQuaternion.i(), RationalQuaternion.j(), RationalQuaternion.k()
    powers = [1, i, -1, -i]
    phi = {t: powers[t.coords[1]] for t in d.elements()}
    s = d.support.element((0, 1))
    psi = _reference_psi(d, phi, d.kind.basis())
    assert psi(d.unit(s, j)) == d.unit(s, k)
    assert psi(d.one() * j) * psi(d.unit(s)) == d.unit(s, -k)
    with pytest.raises(AutomorphismError) as err:
        DivisionAutomorphism(d, phi, d.kind.basis())
    _assert_generating_witness(d, phi, d.kind.basis(), err.value)


def test_division_automorphism_checks_products_inside_d_e():
    # swapping i and j is unital and invertible but reverses ij = k; with
    # phi = 1 it commutes with every X_g, so only D_e x D_e shows the failure
    d = canonical("3-b", "Z2xZ2")
    one, i, j, k = d.kind.basis()
    phi = {t: 1 for t in d.elements()}
    with pytest.raises(AutomorphismError) as err:
        DivisionAutomorphism(d, phi, (one, j, i, k))
    assert err.value.witness[1].degree() == d.support.zero()
    _assert_generating_witness(d, phi, (one, j, i, k), err.value)


def test_division_automorphism_checks_the_last_generator():
    # phi(a, s) = -1 exactly at s = 2 is multiplicative along a but not
    # along s, the last coordinate generator
    d = canonical("1-d", "Z2xZ4")
    phi = {t: -1 if t.coords[1] == 2 else 1 for t in d.elements()}
    with pytest.raises(AutomorphismError) as err:
        DivisionAutomorphism(d, phi, d.kind.basis())
    assert err.value.witness[1] == d.unit(d.support.element((0, 1)))
    _assert_generating_witness(d, phi, d.kind.basis(), err.value)


def test_division_automorphism_refuses_inputs_of_the_wrong_shape():
    # an extra coefficient image, or phi at an element outside T, is refused
    # even when the rest is the identity
    d = canonical("3-b", "Z2xZ2")
    basis, phi = d.kind.basis(), {t: 1 for t in d.elements()}
    with pytest.raises(AutomorphismError, match="expected 4 coefficient images, got 5"):
        DivisionAutomorphism(d, phi, basis + (basis[1],))
    with pytest.raises(AutomorphismError, match="outside T"):
        DivisionAutomorphism(d, {**phi, AbelianGroup(0, (2,)).element((1,)): 1}, basis)
    assert DivisionAutomorphism(d, phi, basis) == DivisionAutomorphism.identity(d)


_PSI0_ALGEBRAS = {
    f"{tag}:{support}": canonical(tag, support)
    for tag, support in (("1-b", "Z2^2"), ("1-d", "Z2xZ4"), ("2-e", "Z4"),
                         ("2-f", "Z3^2"), ("3-b", "Z2^2"), ("3-d", "Z2xZ4"))
}


def _small_units(kind):
    if kind.family == "R":
        return [1, -1]
    if kind.family == "C":
        z = zeta(kind.conductor)
        return [1, -1, z, -z]
    units = list(kind.basis())
    return units + [-q for q in units]


def _coefficient_maps(kind):
    """Images of the Q-basis: automorphisms of the kind, and one unital,
    invertible map that is not multiplicative."""
    basis = kind.basis()
    if kind.family == "R":
        return [basis]
    if kind.family == "C":
        conj = tuple(kind.conjugate(b) for b in basis)
        return [basis, conj, (basis[0], 2 * basis[1]) + basis[2:]]
    one, i, j, k = basis
    inner = [tuple(q * b * q.conjugate() for b in basis) for q in (i, j, k)]
    return [basis] + inner + [(one, j, i, k)]


@pytest.mark.parametrize("name", sorted(_PSI0_ALGEBRAS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_division_automorphism_accepts_what_the_pair_loop_accepts(name, data):
    d = _PSI0_ALGEBRAS[name]
    elems = d.elements()
    if data.draw(st.booleans(), label="sign character"):
        signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=len(d.support.torsion),
                                   max_size=len(d.support.torsion)))
        phi = {t: math.prod(s ** c for s, c in zip(signs, t.coords)) for t in elems}
    else:
        values = data.draw(st.lists(st.sampled_from(_small_units(d.kind)),
                                    min_size=len(elems) - 1, max_size=len(elems) - 1))
        phi = dict(zip(elems, [1] + values))  # position 0 is the zero of T
    images = data.draw(st.sampled_from(_coefficient_maps(d.kind)))
    expected = _reference_is_automorphism(d, phi, images)
    try:
        DivisionAutomorphism(d, phi, images)
    except AutomorphismError as err:
        assert not expected
        _assert_generating_witness(d, phi, images, err)
    else:
        assert expected


def test_second_kind_automorphism_2f():
    # conjugation of coefficients with the trivial character is an
    # automorphism iff beta is self-conjugate; on Z2^2 it is
    d = canonical("2-f", "Z2^2")
    psi = DivisionAutomorphism.from_character(
        d, {t: 1 for t in d.elements()}, conjugate_coefficients=True
    )
    i_val = zeta(4)
    assert psi.map_coefficient(i_val) == i_val.conjugate()
    d_fine = canonical("2-f", "Z3^2")
    with pytest.raises(AutomorphismError):
        DivisionAutomorphism.from_character(
            d_fine, {t: 1 for t in d_fine.elements()}, conjugate_coefficients=True
        )


def test_inner_automorphism_quaternion_coefficients():
    d = canonical("3-b", "Z2xZ2")
    unit = d.unit(d.support.element((1, 0)), RationalQuaternion.i())
    psi = DivisionAutomorphism.inner(d, unit)
    # conjugation by i X_a fixes i and flips j
    assert psi.map_coefficient(RationalQuaternion.i()) == RationalQuaternion.i()
    assert psi.map_coefficient(RationalQuaternion.j()) == -RationalQuaternion.j()


def test_triple_identity_and_permutation():
    r = matrix_algebra(TRIVIAL_R, k=2)
    e = r.division.support.zero()
    x = r.basis_element(0, 1, e)
    ident = AutTriple.identity(r)
    assert triple_apply(ident, x) == x
    swap = AutTriple(r, [r.division.one()] * 2, (1, 0),
                     DivisionAutomorphism.identity(r.division))
    assert triple_apply(swap, x) == r.basis_element(1, 0, e)


def test_triple_degree_transformation():
    # d_2 = X_t shifts the degree of E_12 by the embedded t
    d = canonical("1-b", "Z2xZ2")
    r = matrix_algebra(d, k=2)
    t = d.support.element((1, 0))
    triple = AutTriple(r, [d.one(), d.unit(t)], (0, 1),
                       DivisionAutomorphism.identity(d))
    e = d.support.zero()
    x = r.basis_element(0, 1, e)
    y = triple_apply(triple, x)
    (deg_x,) = x.support_degrees()
    (deg_y,) = y.support_degrees()
    # deg(E_12) picks up deg(d_1) - deg(d_2) = -t
    assert deg_y == deg_x - r.embed(t)
    # and homogeneity is preserved on every basis element
    for i in range(2):
        for j in range(2):
            for s in d.elements():
                img = triple_apply(triple, r.basis_element(i, j, s))
                assert img.is_homogeneous() and not img.is_zero()


def _random_triple(r, rng):
    d = r.division
    elems = list(d.elements())
    diag = [d.one()]
    for _ in range(r.k - 1):
        coeff = rng.choice([1, -1, Fraction(2)])
        diag.append(d.unit(rng.choice(elems), coeff))
    perm = list(range(r.k))
    rng.shuffle(perm)
    chi = {}
    hom_signs = [rng.choice([1, -1]) for _ in d.support.torsion]
    for t in elems:
        sign = 1
        for c, s in zip(t.coords, hom_signs):
            if c % 2:
                sign *= s
        chi[t] = sign
    psi0 = DivisionAutomorphism.from_character(d, chi)
    return AutTriple(r, diag, perm, psi0)


def _reference_triple_apply(t, x):
    """X -> D P psi0(X) P^-1 D^-1 as a product of k x k matrices."""
    r = t.algebra
    k = r.k
    inv = [0] * k
    for i, v in enumerate(t.perm):
        inv[v] = i
    one = r.division.one()
    d_mat = GradedElement(r, {(i, i): t.diag[i] for i in range(k)})
    d_inv = GradedElement(r, {(i, i): t.diag[i].inverse() for i in range(k)})
    p_mat = GradedElement(r, {(i, inv[i]): one for i in range(k)})
    p_inv = GradedElement(r, {(i, t.perm[i]): one for i in range(k)})
    psi_x = GradedElement(r, {pos: t.psi0.apply(val) for pos, val in x.entries.items()})
    return d_mat * p_mat * psi_x * p_inv * d_inv


def test_triple_apply_matches_the_matrix_product():
    rng = random.Random(11)
    for d, k in ((canonical("1-b", "Z2xZ2"), 2),
                 (canonical("1-d", "Z2xZ4"), 2),
                 (canonical("1-c", "Z2"), 3)):
        r = matrix_algebra(d, k=k)
        basis = [
            r.basis_element(i, j, t, c)
            for i in range(k) for j in range(k) for t in d.elements() for c in (1, Fraction(-3, 2))
        ]
        for _ in range(6):
            triple = _random_triple(r, rng)
            for x in basis:
                assert triple_apply(triple, x) == _reference_triple_apply(triple, x)


def test_triple_product_functoriality_exhaustive_basis():
    rng = random.Random(42)
    for d, k in ((canonical("1-b", "Z2xZ2"), 2),
                 (canonical("1-d", "Z2xZ4"), 2),
                 (canonical("1-c", "Z2"), 3)):
        r = matrix_algebra(d, k=k)
        basis = [
            r.basis_element(i, j, t)
            for i in range(k) for j in range(k) for t in d.elements()
        ]
        for _ in range(6):
            t1 = _random_triple(r, rng)
            t2 = _random_triple(r, rng)
            prod = triple_product(t1, t2)
            for x in basis:
                assert triple_apply(prod, x) == triple_apply(t1, triple_apply(t2, x))


def test_permutation_only_triples_compose_as_permutation_matrices():
    r = matrix_algebra(TRIVIAL_R, k=3)
    ident = DivisionAutomorphism.identity(r.division)
    one = r.division.one()
    import itertools

    perms = list(itertools.permutations(range(3)))
    for p in perms:
        for q in perms:
            tp = AutTriple(r, [one] * 3, p, ident)
            tq = AutTriple(r, [one] * 3, q, ident)
            combo = triple_product(tp, tq)
            expected = tuple(p[q[i]] for i in range(3))
            assert combo.perm == expected


def test_gauge_invariance():
    rng = random.Random(7)
    d = canonical("1-b", "Z2xZ2")
    r = matrix_algebra(d, k=2)
    basis = [
        r.basis_element(i, j, t)
        for i in range(2) for j in range(2) for t in d.elements()
    ]
    elems = list(d.elements())
    for _ in range(50):
        triple = _random_triple(r, rng)
        gauge_elem = d.unit(rng.choice(elems), rng.choice([1, -1, Fraction(3, 2)]))
        moved = triple.gauge(gauge_elem)
        for x in basis:
            assert triple_apply(moved, x) == triple_apply(triple, x)
