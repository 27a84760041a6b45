"""Automorphism groups of graded matrix algebras and division gradings.

Symbolic group descriptors encode the closed-form answers (tori are never
enumerated); finite parts are computed exactly.  Weyl groups of division
gradings come from one stabilizer-chain search of Aut(T) pruned by the
grading invariants, and the (diagonal, permutation, psi0) triples realize
concrete automorphisms of M_k(D) together with their twisted product law.
"""

from __future__ import annotations

import itertools
import math

from .abelian import (
    AbelianGroup,
    _aut_candidates,
    abstract_type,
    automorphism_group,
    chain_elements,
    character_group,
    compose,
)
from .division import (
    CatalogError,
    DivisionElement,
    GradedDivisionAlgebra,
    commutation_bicharacter,
    quadratic_form,
)
from .matrix import GradedElement, GradedMatrixAlgebra
from .records import FrozenRecord
from .structconst import nullspace


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

class GroupDescriptor(FrozenRecord):
    """An immutable value: equal to another of the same class with equal fields."""

    __slots__ = ()

    def normalized(self) -> "GroupDescriptor":
        return self

    def finite_part_order(self):
        raise NotImplementedError

    def pretty(self) -> str:
        raise NotImplementedError

    def sexpr(self) -> str:
        raise NotImplementedError


class FiniteAbelian(GroupDescriptor):
    __slots__ = ("group",)  # AbelianGroup

    def finite_part_order(self):
        return self.group.order()

    def pretty(self):
        return self.group.pretty()

    def sexpr(self):
        torsion = " ".join(str(m) for m in self.group.torsion)
        return f"(ab {self.group.free_rank} ({torsion}))"


class Symmetric(GroupDescriptor):
    __slots__ = ("k",)

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


class NamedFinite(GroupDescriptor):
    __slots__ = ("tag", "order")

    def finite_part_order(self):
        return self.order

    def pretty(self):
        return self.tag

    def sexpr(self):
        return f"(named {self.tag} {self.order})"


class Torus(GroupDescriptor):
    __slots__ = ("kind",)  # 'Rx' | 'Cx' | 'Hx' | 'U1' | 'AutH'

    _PRETTY = {"Rx": "R^x", "Cx": "C^x", "Hx": "H^x", "U1": "C^x/R^x", "AutH": "Aut(H)"}

    def finite_part_order(self):
        return 1

    def pretty(self):
        return self._PRETTY[self.kind]

    def sexpr(self):
        return f"(torus {self.kind})"


class DirectProduct(GroupDescriptor):
    __slots__ = ("factors",)  # tuple of GroupDescriptor

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
        rank = {Torus: 0, Symmetric: 1, NamedFinite: 2, SemidirectProduct: 3}
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


class SemidirectProduct(GroupDescriptor):
    __slots__ = ("normal", "acting", "action_note")
    _defaults = {"action_note": ""}

    def normalized(self):
        normal = self.normal.normalized()
        acting = self.acting.normalized()
        if normal == TRIVIAL or acting == TRIVIAL:
            return DirectProduct((normal, acting)).normalized()
        return SemidirectProduct(normal, acting, self.action_note)

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

IDENTIFY_BOUND = 48  # identify_group answers other(n) for larger orders


def identify_group(elements, mul) -> str:
    """Name a finite group: Sym(3), Sym(4) or GL(2,3) by its element-order
    census, else an abelian group by `abstract_type` ('1', 'Z4', 'Z2 × Z4',
    ...), else (and when n > IDENTIFY_BOUND) 'other(n)'.

    No abelian group has one of the censuses, which need 3, 9 and 13
    involutions: those of an abelian group and 0 are the elements killed by
    2, 2^r of them with 2^r dividing n, so it has 1 at n = 6, at most 7 at
    n = 24 and one of 1, 3, 7, 15 at n = 48.  Sym(3) is the only
    non-abelian group of order 6; at 24, 8 elements of order 3 leave Sym(4),
    SL(2,3) and Z2 × A4 (9, 1 and 7 involutions).  The GL(2,3) census is
    not proved unique at n = 48.
    """
    n = len(elements)
    if n > IDENTIFY_BOUND:
        return f"other({n})"
    ident, census = next(x for x in elements if mul(x, x) == x), {}  # the only idempotent
    for x in elements:  # census: {order: number of elements of that order}
        k, acc = 1, x
        while acc != ident:
            k, acc = k + 1, mul(acc, x)
        census[k] = census.get(k, 0) + 1
    for name, known in (("Sym(3)", {1: 1, 2: 3, 3: 2}), ("Sym(4)", {1: 1, 2: 9, 3: 8, 4: 6}),
                        ("GL(2,3)", {1: 1, 2: 13, 3: 8, 4: 6, 6: 8, 8: 12})):
        if census == known:
            return name
    if all(mul(x, y) == mul(y, x) for x, y in itertools.combinations(elements, 2)):
        return abstract_type(elements, mul).pretty()
    return f"other({n})"


# ---------------------------------------------------------------------------
# automorphism groups of division gradings
# ---------------------------------------------------------------------------

def weyl_division(d: GradedDivisionAlgebra):
    """Weyl group of a division grading, memoized on `d`: (transversals,
    descriptor), the stabilizer chain of the support automorphisms that keep
    the label of every position t and beta (so p(K) = K), found by one
    `automorphism_group` search.  The label pairs the exponent of sigma(t, t)
    where the square of X_t is an invariant (on the 2-torsion over R and H,
    off K over C; else None) with t in rad beta, which such a p keeps.  Over
    C with the trivial action (2-f) beta may also go to its conjugate.
    AutBoundError, before computing beta, when |T| is out of reach.
    """
    if d._weyl is not None:
        return d._weyl
    _aut_candidates(d.support)  # refuse before computing beta
    beta = commutation_bicharacter(d)
    if d.conj_elements:
        quadratic_form(d)  # a square off K that is not +-1 raises ValueError
    sigma, add, conj, real = d._sigma_ids, d._add, d._conj, d.kind.family != "C"
    rad = set(beta.radical_elements())
    label = [(sigma[i][i] if conj[i] or (real and add[i][i] == 0) else None,
              x in rad) for i, x in enumerate(d.elements())]
    betas = [beta, beta.conjugate()] if not real and not d.conj_elements else [beta]
    transversals = automorphism_group(d.support, label, betas)
    d._weyl = (transversals, _finite_group_descriptor(transversals))
    return d._weyl


def _finite_group_descriptor(transversals) -> GroupDescriptor:
    """Descriptor of the group with these transversals of a stabilizer chain:
    abelian exactly when its strong generators commute, and then typed by
    `abstract_type`; else named by `identify_group`, its elements listed
    only when its order is at most IDENTIFY_BOUND."""
    order = math.prod(map(len, transversals))
    strong = [u for level in transversals for u in level[1:]]
    if all(compose(a, b) == compose(b, a) for a, b in itertools.combinations(strong, 2)):
        return FiniteAbelian(abstract_type(chain_elements(transversals), compose))
    if order > IDENTIFY_BOUND:
        return NamedFinite(f"other({order})", order)
    tag = identify_group(chain_elements(transversals), compose)
    return Symmetric(int(tag[4])) if tag in ("Sym(3)", "Sym(4)") else NamedFinite(tag, order)


def stab_division(d: GradedDivisionAlgebra) -> GroupDescriptor:
    """Stabilizer of a catalog division grading, by type.

    T/T^[2] is Hom(T, Z2), the sum of the Z_gcd(2, m_i).
    """
    tag = d.type_tag
    if tag is None:
        raise CatalogError("stabilizer formulas apply to catalog algebras")
    t = d.support
    if tag in ("1-a", "1-b", "1-c", "1-d"):
        return FiniteAbelian(character_group(t, 2))
    if tag in ("2-a", "2-b", "2-c"):
        g = min(d.conj_elements, key=lambda e: e.coords)
        note = f"T\\K acts on C^x/R^x by conjugation (chosen g = {g.coords})"
        return SemidirectProduct(Torus("U1"), FiniteAbelian(t), note)
    if tag in ("2-d", "2-e"):
        note = "(T\\K)/T^[2] acts on C^x/R^x by conjugation"
        return SemidirectProduct(Torus("U1"), FiniteAbelian(character_group(t, 2)), note)
    if tag in ("3-a", "3-b", "3-c", "3-d"):
        return DirectProduct((Torus("AutH"), FiniteAbelian(character_group(t, 2))))
    if tag == "2-f":
        beta = commutation_bicharacter(d)
        if beta.is_self_conjugate():
            return FiniteAbelian(t.direct_sum(AbelianGroup(0, (2,))))
        return FiniteAbelian(t)
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
    t, k = r.division.support, r.k
    _, w0 = weyl_division(r.division)
    if k == 1:
        return w0
    acting = Symmetric(k) if w0 == TRIVIAL else DirectProduct((Symmetric(k), w0))
    if t.is_trivial():
        return acting
    power = AbelianGroup.from_cyclic_orders(t.torsion * (k - 1))
    if w0 == TRIVIAL and k == 2 and t.exponent() <= 2:
        return DirectProduct((FiniteAbelian(power), acting))
    return SemidirectProduct(
        FiniteAbelian(power), acting,
        "Sym(k) permutes, W0 acts componentwise on T^k/T",
    )


# ---------------------------------------------------------------------------
# explicit Weyl group model
# ---------------------------------------------------------------------------

class WeylModel:
    """W(Gamma) = T^(k-1) >| (Sym(k) x W0) as the permutations it induces on
    the homogeneous components, so `compose` multiplies it.  Under the fine
    condition these are T, shared by the diagonal blocks, and one coset
    g_i - g_j + T per ordered pair i != j: component (i, j, t) is t when
    i = j and |T| c + t for the c-th off-diagonal block (from 1, row-major).
    (tbar, pi, w), tbar in T^k with tbar_0 = 0 and w in W0, sends the
    component of E_ij (x) X_t to that of E_pi(i)pi(j) (x) X_(w(t) + tbar_pi(i) - tbar_pi(j)).
    """

    def __init__(self, r: GradedMatrixAlgebra):
        n, k, add = r.division.support.order(), r.k, r.division._add
        w0 = chain_elements(weyl_division(r.division)[0])
        off = [(i, j) for i, j in itertools.product(range(k), repeat=2) if i != j]
        start = {(i, i): 0 for i in range(k)} | {b: n * c for c, b in enumerate(off, 1)}
        components = [(i, j, t) for i, j in [(0, 0), *off] for t in range(n)]
        images = {}  # each distinct permutation once, the identity first
        for tbar in itertools.product([0], *[range(n)] * (k - 1)):
            # block (a, b) moves x + tbar_b to x + tbar_a
            shift = {(a, b): dict(zip(add[tbar[b]], add[tbar[a]])) for a, b in start}
            for pi in itertools.permutations(range(k)):
                moves = [(start[pi[i], pi[j]], shift[pi[i], pi[j]], t) for i, j, t in components]
                for w in w0:
                    images[tuple(c + moved[w[t]] for c, moved, t in moves)] = None
        self.elements = list(images)

    def order(self) -> int:
        return len(self.elements)

    def mul(self, a, b):
        return compose(a, b)

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
    """A support-fixing graded automorphism of D: c X_t -> phi(t) m(c) X_t,
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
        """Check psi(x y) = psi(x) psi(y) for x on the Q-basis b X_u of D and y
        in S: the Q-basis of D_e and X_g for the coordinate generators g of T.

        Both sides are linear in x.  The set Y of the y that pass for every x
        is a subspace closed under products: psi(x y1 y2) = psi(x y1) psi(y2)
        = psi(x) psi(y1) psi(y2) = psi(x) psi(y1 y2), where the last step is
        the first with x = y1.  psi(1) = 1 (phi(e) = 1 and m(1) = 1) puts 1 in
        Y, and S generates D, as X_(u+g) = sigma(u, g)^-1 X_u X_g; so Y = D and
        psi is multiplicative.  With phi(t) nonzero and m invertible it is
        bijective.  A failure carries the pair (x, y) as its witness.
        """
        alg = self.algebra
        kind = alg.kind
        elems, basis = alg.elements(), kind.basis()
        if len(self.coeff_images) != len(basis):
            raise AutomorphismError(f"expected {len(basis)} coefficient images, "
                                    f"got {len(self.coeff_images)}")
        for t in elems:
            if t not in self.phi:
                raise AutomorphismError(f"phi undefined at {t}")
            if not self.phi[t]:
                raise AutomorphismError(f"phi({t}) must be a unit")
        if len(self.phi) != len(elems):  # every t in T is a key
            raise AutomorphismError("phi is defined outside T")
        zero = alg.support.zero()
        if self.phi[zero] != kind.one():
            raise AutomorphismError("phi(e) must equal 1")
        if self.map_coefficient(kind.one()) != kind.one():
            raise AutomorphismError("coefficient map does not fix 1")
        if nullspace([dict(enumerate(kind.to_vector(img))) for img in self.coeff_images],
                     len(basis)):
            raise AutomorphismError("coefficient map is not invertible")
        s = [alg.unit(zero, b) for b in basis] + [alg.unit(g) for g in alg.support.generators()]
        images = [self.apply(y) for y in s]
        for x in (alg.unit(u, b) for u in elems for b in basis):
            image = self.apply(x)
            for y, psi_y in zip(s, images):
                if self.apply(x * y) != image * psi_y:
                    raise AutomorphismError(
                        f"not an automorphism: fails at the pair ({x!r}, {y!r})",
                        witness=(x, y),
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
    """Image of x under the automorphism encoded by the triple: entry (a, b)
    of x goes to entry (pi(a), pi(b)) as d_pi(a) psi0(x_ab) d_pi(b)^-1."""
    r = t.algebra
    if x.algebra is not r:
        raise AutomorphismError("element belongs to a different algebra")
    d, p = t.diag, t.perm
    inv = [entry.inverse() for entry in d]
    return GradedElement(r, {(p[a], p[b]): d[p[a]] * t.psi0.apply(val) * inv[p[b]]
                             for (a, b), val in x.entries.items()})


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
