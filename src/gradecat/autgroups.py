"""Automorphism groups of graded matrix algebras and division gradings.

Symbolic group descriptors encode the closed-form answers (tori are never
enumerated); finite parts are computed exactly.  Weyl groups of division
gradings are brute-forced as subgroups of Aut(T) filtered by the grading
invariants, and the (diagonal, permutation, psi0) triples realize concrete
automorphisms of M_k(D) together with their twisted product law.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .abelian import (
    AbelianGroup,
    AutBoundError,
    GroupHomomorphism,
    abstract_type,
    automorphism_group,
    character_group,
    quotient_type,
    square_elements,
    support_table,
)
from .division import (
    CatalogError,
    DivisionElement,
    GradedDivisionAlgebra,
    UnitInterner,
    commutation_bicharacter,
    quadratic_form,
)
from .matrix import GradedElement, GradedMatrixAlgebra
from .structconst import nullspace


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

class GroupDescriptor:
    def normalized(self) -> "GroupDescriptor":
        return self

    def finite_part_order(self):
        raise NotImplementedError

    def pretty(self) -> str:
        raise NotImplementedError

    def sexpr(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class FiniteAbelian(GroupDescriptor):
    group: AbelianGroup

    def finite_part_order(self):
        return self.group.order()

    def pretty(self):
        return self.group.pretty()

    def sexpr(self):
        torsion = " ".join(str(m) for m in self.group.torsion)
        return f"(ab {self.group.free_rank} ({torsion}))"


@dataclass(frozen=True)
class Symmetric(GroupDescriptor):
    k: int

    def normalized(self):
        if self.k <= 1:
            return TRIVIAL
        if self.k == 2:
            return FiniteAbelian(AbelianGroup(0, (2,)))
        return self

    def finite_part_order(self):
        return math.factorial(self.k)

    def pretty(self):
        return f"Sym({self.k})"

    def sexpr(self):
        return f"(sym {self.k})"


@dataclass(frozen=True)
class NamedFinite(GroupDescriptor):
    tag: str
    order: int

    def finite_part_order(self):
        return self.order

    def pretty(self):
        return self.tag

    def sexpr(self):
        return f"(named {self.tag} {self.order})"


@dataclass(frozen=True)
class Torus(GroupDescriptor):
    kind: str  # 'Rx' | 'Cx' | 'Hx' | 'U1' | 'AutH'

    _PRETTY = {"Rx": "R^x", "Cx": "C^x", "Hx": "H^x", "U1": "C^x/R^x", "AutH": "Aut(H)"}

    def finite_part_order(self):
        return 1

    def pretty(self):
        return self._PRETTY[self.kind]

    def sexpr(self):
        return f"(torus {self.kind})"


@dataclass(frozen=True)
class Opaque(GroupDescriptor):
    label: str

    def finite_part_order(self):
        return None

    def pretty(self):
        return self.label

    def sexpr(self):
        return f"(opaque {self.label})"


@dataclass(frozen=True)
class DirectProduct(GroupDescriptor):
    factors: tuple

    def normalized(self):
        flat = []
        abelian = AbelianGroup.trivial()
        for f in self.factors:
            f = f.normalized()
            if isinstance(f, DirectProduct):
                children = f.factors
            else:
                children = (f,)
            for child in children:
                if isinstance(child, FiniteAbelian):
                    abelian = abelian.direct_sum(child.group)
                else:
                    flat.append(child)
        rank = {Torus: 0, Symmetric: 1, NamedFinite: 2, Opaque: 3, SemidirectProduct: 4}
        flat.sort(key=lambda f: (rank.get(type(f), 9), f.sexpr()))
        if not abelian.is_trivial() or not flat:
            flat.append(FiniteAbelian(abelian))
        if len(flat) == 1:
            return flat[0]
        return DirectProduct(tuple(flat))

    def finite_part_order(self):
        total = 1
        for f in self.factors:
            n = f.finite_part_order()
            if n is None:
                return None
            total *= n
        return total

    def pretty(self):
        parts = []
        for f, grp in itertools.groupby(self.factors, key=lambda x: x.sexpr()):
            grp = list(grp)
            inner = grp[0].pretty()
            if isinstance(grp[0], (DirectProduct, SemidirectProduct)):
                inner = f"({inner})"
            if len(grp) > 1:
                inner = inner if inner.startswith("(") else f"({inner})"
                parts.append(f"{inner}^{len(grp)}")
            else:
                parts.append(inner)
        return " × ".join(parts)

    def sexpr(self):
        return "(x " + " ".join(f.sexpr() for f in self.factors) + ")"


@dataclass(frozen=True)
class SemidirectProduct(GroupDescriptor):
    normal: GroupDescriptor
    acting: GroupDescriptor
    action_note: str = ""
    action_trivial: bool = False

    def normalized(self):
        normal = self.normal.normalized()
        acting = self.acting.normalized()
        if self.action_trivial or normal == TRIVIAL or acting == TRIVIAL:
            return DirectProduct((normal, acting)).normalized()
        return SemidirectProduct(normal, acting, self.action_note, False)

    def finite_part_order(self):
        a = self.normal.finite_part_order()
        b = self.acting.finite_part_order()
        if a is None or b is None:
            return None
        return a * b

    def pretty(self):
        return f"{_operand(self.normal)} ⋊ {_operand(self.acting)}"

    def sexpr(self):
        return f"(sd {self.normal.sexpr()} {self.acting.sexpr()})"


def _operand(f: GroupDescriptor) -> str:
    """Pretty form of a semidirect factor, bracketed unless it is one factor."""
    text = f.pretty()
    if isinstance(f, (DirectProduct, SemidirectProduct)) or " × " in text:
        return f"({text})"
    return text


TRIVIAL = FiniteAbelian(AbelianGroup.trivial())


def descriptors_equal(a: GroupDescriptor, b: GroupDescriptor) -> bool:
    return a.normalized() == b.normalized()


# ---------------------------------------------------------------------------
# identification of small finite groups
# ---------------------------------------------------------------------------

def _census(elements, mul):
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


def _sym4_census():
    perms = list(itertools.permutations(range(4)))

    def mul(p, q):
        return tuple(p[q[i]] for i in range(4))

    return _census(perms, mul)[0]


_GL23_CENSUS = None


def _gl23_census():
    global _GL23_CENSUS
    if _GL23_CENSUS is None:
        auts = automorphism_group(AbelianGroup(0, (3, 3)))
        _GL23_CENSUS = _census(auts, lambda f, g: f.compose(g))[0]
    return _GL23_CENSUS


def identify_group(elements, mul) -> str:
    """Name a finite group from order, abelianness, and element-order census.

    Returns one of '1', 'Z2', 'Z3', 'Z2^2', 'Z2^3', 'Sym(3)', 'Sym(4)',
    'GL(2,3)', or 'other(n)' when the census is not decisive.
    """
    n = len(elements)
    if n > 48:
        return f"other({n})"
    census, abelian = _census(elements, mul)
    exponent = max(census)
    if n == 1:
        return "1"
    if n == 2:
        return "Z2"
    if n == 3:
        return "Z3"
    if n == 4 and abelian and exponent == 2:
        return "Z2^2"
    if n == 6 and not abelian:
        return "Sym(3)"
    if n == 8 and abelian and exponent == 2:
        return "Z2^3"
    if n == 24 and not abelian and census == _sym4_census():
        return "Sym(4)"
    if n == 48 and not abelian and census == _gl23_census():
        return "GL(2,3)"
    return f"other({n})"


# ---------------------------------------------------------------------------
# automorphism groups of division gradings
# ---------------------------------------------------------------------------

def weyl_division(d: GradedDivisionAlgebra):
    """Brute-forced Weyl group of a division grading, memoized on `d`.

    Returns (elements, descriptor): the support automorphisms preserving the
    grading invariants, and a descriptor identified from their composition.
    Raises AutBoundError when enumeration of Aut(T) is out of reach.
    """
    if d._weyl is not None:
        return d._weyl
    t = d.support
    auts = automorphism_group(t)
    elems, index, _ = support_table(t)
    n = len(elems)
    # each automorphism as a permutation of support positions
    perms = [[index[f(x)] for x in elems] for f in auts]
    beta = commutation_bicharacter(d)
    ids, m = beta.ids, len(beta.domain)

    def keeps(table, q):  # table[q[u]][q[v]] == ids[u][v] on the domain positions of beta
        return all(table[q[u]][q[v]] == ids[u][v] for u in range(m) for v in range(m))

    # in the first two branches the action is trivial, so K = T and the
    # domain positions of beta are support positions
    kept = []
    if d.type_tag == "2-f" or (d.kind.family == "C" and not d.conj_elements):
        conj = [[beta.units.conj(a) for a in row] for row in ids]
        for f, p in zip(auts, perms):
            if keeps(ids, p) or keeps(conj, p):
                kept.append(f)
    elif d.kind.family in ("R", "H"):
        units = UnitInterner(d.kind)
        mu2 = {i: units.intern(d.sigma(x, x)) for i, x in enumerate(elems) if (2 * x).is_zero()}
        for f, p in zip(auts, perms):
            if all(mu2[p[i]] == mu2[i] for i in mu2) and keeps(ids, p):
                kept.append(f)
    else:
        # dimension-2 components with a nontrivial action: preserve K, the
        # partial square signs on T \ K, and the bicharacter on K
        in_k = [x not in d.conj_elements for x in elems]
        nu = {index[x]: s for x, s in quadratic_form(d).values.items()}
        k_at = [index[x] for x in beta.domain]
        k_pos = {ti: i for i, ti in enumerate(k_at)}
        for f, p in zip(auts, perms):
            if not all(in_k[p[i]] == in_k[i] for i in range(n)):
                continue
            if not all(nu[p[i]] == s for i, s in nu.items()):
                continue
            if keeps(ids, [k_pos[p[ti]] for ti in k_at]):
                kept.append(f)
    descriptor = _finite_group_descriptor(kept, lambda f, g: f.compose(g))
    d._weyl = (tuple(kept), descriptor)
    return d._weyl


def _finite_group_descriptor(elements, mul) -> GroupDescriptor:
    if not elements:
        raise ValueError("a group needs at least the identity")
    _, abelian = _census(elements, mul)
    if abelian:
        return FiniteAbelian(abstract_type(
            elements, add=mul,
            zero=next(x for x in elements if mul(x, x) == x)))
    tag = identify_group(elements, mul)
    if tag == "Sym(3)":
        return Symmetric(3)
    if tag == "Sym(4)":
        return Symmetric(4)
    return NamedFinite(tag, len(elements))


def stab_division(d: GradedDivisionAlgebra) -> GroupDescriptor:
    """Stabilizer of a catalog division grading, by type."""
    tag = d.type_tag
    if tag is None:
        raise CatalogError("stabilizer formulas apply to catalog algebras")
    t = d.support
    if tag in ("1-a", "1-b", "1-c"):
        return FiniteAbelian(character_group(t, 2))
    if tag == "1-d":
        return FiniteAbelian(quotient_type(t, square_elements(t)))
    if tag in ("2-a", "2-b", "2-c"):
        outside = sorted(
            (x for x in t.elements() if x in d.conj_elements),
            key=lambda e: e.coords,
        )
        note = f"T\\K acts on C^x/R^x by conjugation (chosen g = {outside[0].coords})"
        return SemidirectProduct(Torus("U1"), FiniteAbelian(abstract_type(t.elements())), note)
    if tag in ("2-d", "2-e"):
        quot = quotient_type(t, square_elements(t))
        note = "(T\\K)/T^[2] acts on C^x/R^x by conjugation"
        return SemidirectProduct(Torus("U1"), FiniteAbelian(quot), note)
    if tag in ("3-a", "3-b", "3-c"):
        return DirectProduct((Torus("AutH"), FiniteAbelian(character_group(t, 2))))
    if tag == "3-d":
        return DirectProduct((Torus("AutH"),
                              FiniteAbelian(quotient_type(t, square_elements(t)))))
    if tag == "2-f":
        beta = commutation_bicharacter(d)
        if beta.is_self_conjugate():
            return FiniteAbelian(t.direct_sum(AbelianGroup(0, (2,))))
        return FiniteAbelian(AbelianGroup(0, t.torsion))
    raise CatalogError(f"unknown type tag {tag!r}")


def diag_descriptor(r: GradedMatrixAlgebra) -> GroupDescriptor:
    """Diag(Gamma) = (R^x)^(k-1) x Hom(T, {+-1}) over the reals."""
    factors = tuple([Torus("Rx")] * (r.k - 1))
    return DirectProduct(
        factors + (FiniteAbelian(character_group(r.division.support, 2)),)
    ).normalized()


def stab_descriptor(r: GradedMatrixAlgebra) -> GroupDescriptor:
    """Stab(Gamma) = (D_e^x)^(k-1) >| Stab(Gamma_0), componentwise action;
    collapses to Diag(Gamma) when dim D_e = 1."""
    d = r.division
    if d.kind.dim == 1:
        return diag_descriptor(r)
    stab0 = stab_division(d)
    if r.k == 1:
        return stab0
    torus = Torus("Cx") if d.kind.dim == 2 else Torus("Hx")
    normal = DirectProduct(tuple([torus] * (r.k - 1)))
    return SemidirectProduct(normal, stab0, "componentwise")


def weyl_descriptor(r: GradedMatrixAlgebra) -> GroupDescriptor:
    """W(Gamma) = T^(k-1) >| (Sym(k) x W(Gamma_0))."""
    d = r.division
    t = d.support
    k = r.k
    try:
        w0_elems, w0 = weyl_division(d)
        w0_size = len(w0_elems)
    except AutBoundError:
        tag = d.type_tag or "?"
        w0 = Opaque(f"W0[{tag}:{t.pretty()}]")
        w0_size = None
    if k == 1:
        return w0
    acting = Symmetric(k) if w0 == TRIVIAL else DirectProduct((Symmetric(k), w0))
    if t.is_trivial():
        return acting
    power = AbelianGroup.trivial()
    for _ in range(k - 1):
        power = power.direct_sum(t)
    trivial = w0_size == 1 and k == 2 and t.exponent() <= 2
    if trivial:
        return DirectProduct((FiniteAbelian(power), acting))
    return SemidirectProduct(
        FiniteAbelian(power), acting,
        "Sym(k) permutes, W0 acts componentwise on T^k/T",
    )


# ---------------------------------------------------------------------------
# explicit Weyl group model
# ---------------------------------------------------------------------------

class WeylModel:
    """Explicit finite model of W(Gamma) = T^(k-1) >| (Sym(k) x W0).

    Elements are (tbar, pi, w) with tbar a T^k/T coset normalized to first
    entry e, pi a permutation tuple, and w an index into the W0 list.
    """

    def __init__(self, r: GradedMatrixAlgebra):
        self.support = r.division.support
        self.k = r.k
        self.w0, _ = weyl_division(r.division)
        self._w0_index = {f: i for i, f in enumerate(self.w0)}
        t_elems = list(self.support.elements())
        perms = list(itertools.permutations(range(self.k)))
        self.elements = [
            (tbar, pi, w)
            for tbar in itertools.product([e.coords for e in t_elems], repeat=self.k - 1)
            for pi in perms
            for w in range(len(self.w0))
        ]

    def order(self) -> int:
        return len(self.elements)

    def identity(self):
        zero = self.support.zero().coords
        ident_w = self._w0_index[GroupHomomorphism.identity(self.support)]
        return ((zero,) * (self.k - 1), tuple(range(self.k)), ident_w)

    def mul(self, a, b):
        t1, p1, w1 = a
        t2, p2, w2 = b
        g = self.support
        full1 = [g.zero()] + [g.element(c) for c in t1]
        full2 = [g.zero()] + [g.element(c) for c in t2]
        inv1 = [0] * self.k
        for i, v in enumerate(p1):
            inv1[v] = i
        w1_hom = self.w0[w1]
        acted = [w1_hom(full2[inv1[i]]) for i in range(self.k)]
        total = [x + y for x, y in zip(full1, acted)]
        base = total[0]
        tbar = tuple((x - base).coords for x in total[1:])
        perm = tuple(p1[p2[i]] for i in range(self.k))
        w = self._w0_index[w1_hom.compose(self.w0[w2])]
        return (tbar, perm, w)

    def identify(self) -> str:
        return identify_group(self.elements, self.mul)


# ---------------------------------------------------------------------------
# concrete automorphisms: psi0 and (D, pi, psi0) triples
# ---------------------------------------------------------------------------

class AutomorphismError(ValueError):
    """The candidate map fails to be an automorphism; carries a witness pair."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DivisionAutomorphism:
    """A support-fixing graded automorphism of D: X_t -> phi(t) m(.) X_t,
    where m is a Q-linear ring automorphism of the coefficients."""

    def __init__(self, algebra: GradedDivisionAlgebra, phi, coeff_images):
        self.algebra = algebra
        self.phi = {t: algebra.kind.coerce(v) for t, v in phi.items()}
        self.coeff_images = tuple(algebra.kind.coerce(v) for v in coeff_images)
        self._validate()

    @classmethod
    def identity(cls, algebra: GradedDivisionAlgebra) -> "DivisionAutomorphism":
        phi = {t: 1 for t in algebra.elements()}
        return cls(algebra, phi, algebra.kind.basis())

    @classmethod
    def from_character(cls, algebra: GradedDivisionAlgebra, values,
                       conjugate_coefficients: bool = False) -> "DivisionAutomorphism":
        images = algebra.kind.basis()
        if conjugate_coefficients:
            images = tuple(algebra.kind.conjugate(b) for b in images)
        return cls(algebra, dict(values), images)

    @classmethod
    def inner(cls, algebra: GradedDivisionAlgebra, unit: DivisionElement) -> "DivisionAutomorphism":
        """Int(unit): x -> unit x unit^{-1} for a homogeneous unit."""
        if not unit.is_homogeneous() or unit.is_zero():
            raise AutomorphismError("inner automorphisms here use homogeneous units")
        inv = unit.inverse()
        phi = {}
        for t in algebra.elements():
            image = unit * algebra.unit(t) * inv
            phi[t] = image.coefficient(t)
        coeff_images = []
        zero_deg = algebra.support.zero()
        for b in algebra.kind.basis():
            image = unit * algebra.unit(zero_deg, b) * inv
            coeff_images.append(image.coefficient(zero_deg))
        return cls(algebra, phi, coeff_images)

    def map_coefficient(self, value):
        kind = self.algebra.kind
        vec = kind.to_vector(kind.coerce(value))
        out = kind.zero()
        for c, img in zip(vec, self.coeff_images):
            if c:
                out = out + kind.coerce(c) * img
        return out

    def apply(self, x: DivisionElement) -> DivisionElement:
        alg = self.algebra
        terms = {}
        for t, c in x.terms.items():
            terms[t] = self.phi[t] * self.map_coefficient(c)
        return DivisionElement(alg, terms)

    def compose(self, other: "DivisionAutomorphism") -> "DivisionAutomorphism":
        """self o other."""
        if other.algebra is not self.algebra:
            raise AutomorphismError("automorphisms of different algebras")
        phi = {
            t: self.phi[t] * self.map_coefficient(other.phi[t])
            for t in self.algebra.elements()
        }
        images = tuple(self.map_coefficient(img) for img in other.coeff_images)
        return DivisionAutomorphism(self.algebra, phi, images)

    def _validate(self):
        alg = self.algebra
        kind = alg.kind
        elems = alg.elements()
        for t in elems:
            if t not in self.phi:
                raise AutomorphismError(f"phi undefined at {t}")
            if not self.phi[t]:
                raise AutomorphismError(f"phi({t}) must be a unit")
        if self.phi[alg.support.zero()] != kind.one():
            raise AutomorphismError("phi(e) must equal 1")
        # the coefficient map must be a unital ring automorphism
        basis = kind.basis()
        if self.map_coefficient(kind.one()) != kind.one():
            raise AutomorphismError("coefficient map does not fix 1")
        if nullspace([kind.to_vector(img) for img in self.coeff_images], len(basis)):
            raise AutomorphismError("coefficient map is not invertible")
        for b1 in basis:
            for b2 in basis:
                if self.map_coefficient(b1 * b2) != \
                        self.map_coefficient(b1) * self.map_coefficient(b2):
                    raise AutomorphismError("coefficient map is not multiplicative")
        # graded-automorphism condition on all basis pairs
        for u in elems:
            for v in elems:
                lhs = self.apply(alg.unit(u) * alg.unit(v))
                rhs = self.apply(alg.unit(u)) * self.apply(alg.unit(v))
                if lhs != rhs:
                    raise AutomorphismError(
                        f"not an automorphism: fails at the pair ({u}, {v})",
                        witness=(u, v),
                    )

    def __eq__(self, other):
        if not isinstance(other, DivisionAutomorphism):
            return NotImplemented
        return (
            self.algebra is other.algebra
            and all(self.phi[t] == other.phi[t] for t in self.algebra.elements())
            and all(a == b for a, b in zip(self.coeff_images, other.coeff_images))
        )

    __hash__ = None


class AutTriple:
    """(diag, pi, psi0) acting on M_k(D) by X -> D P psi0(X) P^-1 D^-1.

    The first diagonal entry is kept normalized to 1 via the gauge move
    (d_i) -> (d_i d), psi0 -> Int(d^-1) o psi0.
    """

    def __init__(self, algebra: GradedMatrixAlgebra, diag, perm, psi0: DivisionAutomorphism):
        self.algebra = algebra
        diag = tuple(diag)
        if len(diag) != algebra.k:
            raise AutomorphismError("one diagonal unit per row required")
        for entry in diag:
            if not entry.is_homogeneous() or entry.is_zero():
                raise AutomorphismError("diagonal entries must be homogeneous units")
        if len(perm) != algebra.k or sorted(perm) != list(range(algebra.k)):
            raise AutomorphismError("perm must be a permutation of 0..k-1")
        if psi0.algebra is not algebra.division:
            raise AutomorphismError("psi0 must be an automorphism of the same D")
        one = algebra.division.one()
        if diag[0] != one:
            d = diag[0]
            dinv = d.inverse()
            diag = tuple(entry * dinv for entry in diag)
            psi0 = DivisionAutomorphism.inner(algebra.division, d).compose(psi0)
        self.diag = diag
        self.perm = tuple(perm)
        self.psi0 = psi0

    @classmethod
    def identity(cls, algebra: GradedMatrixAlgebra) -> "AutTriple":
        one = algebra.division.one()
        return cls(algebra, [one] * algebra.k, range(algebra.k),
                   DivisionAutomorphism.identity(algebra.division))

    def gauge(self, d: DivisionElement) -> "AutTriple":
        """The equivalent triple with all d_i replaced by d_i d (same map)."""
        dinv = d.inverse()
        psi0 = DivisionAutomorphism.inner(self.algebra.division, dinv).compose(self.psi0)
        triple = AutTriple.__new__(AutTriple)
        triple.algebra = self.algebra
        triple.diag = tuple(entry * d for entry in self.diag)
        triple.perm = self.perm
        triple.psi0 = psi0
        return triple


def triple_apply(t: AutTriple, x: GradedElement) -> GradedElement:
    """Image of x under the automorphism encoded by the triple."""
    r = t.algebra
    if x.algebra is not r:
        raise AutomorphismError("element belongs to a different algebra")
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


def triple_product(t1: AutTriple, t2: AutTriple) -> AutTriple:
    """Composition: (D, pi, psi0) * (D', pi', psi0')
    = (D . psi0(pi(D')), pi o pi', psi0 o psi0')."""
    if t1.algebra is not t2.algebra:
        raise AutomorphismError("triples act on different algebras")
    k = t1.algebra.k
    inv1 = [0] * k
    for i, v in enumerate(t1.perm):
        inv1[v] = i
    diag = [t1.diag[i] * t1.psi0.apply(t2.diag[inv1[i]]) for i in range(k)]
    perm = tuple(t1.perm[t2.perm[i]] for i in range(k))
    psi0 = t1.psi0.compose(t2.psi0)
    return AutTriple(t1.algebra, diag, perm, psi0)
