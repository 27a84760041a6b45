"""Graded-division algebras as crossed products over a finite abelian support.

An algebra D = sum_t C * X_t is described by its support T, a coefficient
kind C (exact rationals, a cyclotomic model of the complex numbers, or
rational quaternions), an action of T on C by {identity, conjugation}, and
a normalized 2-cocycle sigma, with the multiplication rule

    (c * X_u) (c' * X_v) = c * alpha_u(c') * sigma(u, v) * X_{u+v}.

The module also carries the catalog of canonical real division gradings
(type tags 1-a ... 3-d and 2-f) together with their invariants: the
centralizer support K, the commutation bicharacter, quadratic sign data,
and the Arf invariant.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .abelian import (
    AbelianGroup,
    GroupElement,
    abstract_type,
    parse_group_string,
    support_table,
)
from .scalars import Cyclotomic, RationalQuaternion, zeta


class CocycleError(ValueError):
    """The given sigma is not a valid normalized 2-cocycle; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CatalogError(ValueError):
    """Incompatible or unknown catalog request."""


class CoefficientKind:
    """One of the three exact coefficient rings: R, C (with conductor), H."""

    __slots__ = ("family", "conductor")

    def __init__(self, family: str, conductor=None):
        if family not in ("R", "C", "H"):
            raise ValueError(f"unknown coefficient family {family!r}")
        if family == "C":
            if conductor is None or conductor < 3:
                raise ValueError("complex coefficients need a conductor >= 3")
        elif conductor is not None:
            raise ValueError("conductor only applies to complex coefficients")
        self.family = family
        self.conductor = conductor

    @classmethod
    def real(cls):
        return cls("R")

    @classmethod
    def complex(cls, conductor: int):
        return cls("C", conductor)

    @classmethod
    def quaternion(cls):
        return cls("H")

    @property
    def dim(self) -> int:
        """Real dimension of the modelled division ring (1, 2 or 4)."""
        return {"R": 1, "C": 2, "H": 4}[self.family]

    def one(self):
        return self.coerce(1)

    def zero(self):
        return self.coerce(0)

    def coerce(self, value):
        if self.family == "R":
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
            if isinstance(value, Cyclotomic) and value.is_rational():
                return value.rational_value()
            raise TypeError(f"cannot coerce {value!r} into rational coefficients")
        if self.family == "C":
            if isinstance(value, Cyclotomic):
                if self.conductor % value.conductor:
                    raise TypeError(
                        f"conductor {value.conductor} value outside Q(zeta_{self.conductor})"
                    )
                return value.promoted(self.conductor)
            if isinstance(value, (int, Fraction)):
                return Cyclotomic.from_rational(value, self.conductor)
            raise TypeError(f"cannot coerce {value!r} into cyclotomic coefficients")
        if isinstance(value, RationalQuaternion):
            return value
        if isinstance(value, (int, Fraction)):
            return RationalQuaternion(value)
        raise TypeError(f"cannot coerce {value!r} into quaternion coefficients")

    def conjugate(self, value):
        if self.family == "R":
            return value
        return value.conjugate()

    def is_allowed_cocycle_unit(self, value) -> bool:
        """R and H admit +-1 only: with the trivial action on H, the product
        c c' sigma(u, v) X_(u+v) is associative only for central sigma values."""
        if self.family == "C":
            return isinstance(value, Cyclotomic) and value.is_root_of_unity_or_zero()
        return value in (1, -1)

    def basis(self):
        """Q-basis of the coefficient ring."""
        if self.family == "R":
            return (Fraction(1),)
        if self.family == "C":
            n = self.conductor
            deg = len(Cyclotomic.from_rational(0, n).coeffs)
            return tuple(zeta(n, k) for k in range(deg))
        return (RationalQuaternion.one(), RationalQuaternion.i(),
                RationalQuaternion.j(), RationalQuaternion.k())

    def to_vector(self, value):
        """Coordinates of a coefficient on the Q-basis."""
        if self.family == "R":
            return (value,)
        if self.family == "C":
            return value.coeffs
        return value.components()

    def __eq__(self, other):
        if not isinstance(other, CoefficientKind):
            return NotImplemented
        return self.family == other.family and self.conductor == other.conductor

    def __hash__(self):
        return hash((self.family, self.conductor))

    def __repr__(self):
        if self.family == "C":
            return f"CoefficientKind('C', conductor={self.conductor})"
        return f"CoefficientKind({self.family!r})"


class UnitInterner:
    """Exact int ids for the coefficient values of one kind.

    A value is keyed on its coordinates on the Q-basis of the kind
    (`kind.to_vector`), so two ids are equal exactly when the values are.
    `values[i]` is the value with id i.  Products and conjugates are
    memoized by id, so the Kronecker product of the catalog's block tables
    and the cocycle identity (|T|^2 rank T triples) multiply each pair of
    distinct values once and otherwise compare ints.
    """

    __slots__ = ("kind", "values", "_ids", "_products", "_conjugates")

    def __init__(self, kind: CoefficientKind):
        self.kind = kind
        self.values = []
        self._ids = {}
        self._products = {}
        self._conjugates = {}

    def intern(self, value) -> int:
        value = self.kind.coerce(value)
        key = self.kind.to_vector(value)
        found = self._ids.get(key)
        if found is None:
            found = self._ids[key] = len(self.values)
            self.values.append(value)
        return found

    def mul(self, a: int, b: int) -> int:
        """Id of values[a] * values[b]."""
        found = self._products.get((a, b))
        if found is None:
            found = self._products[(a, b)] = self.intern(self.values[a] * self.values[b])
        return found

    def conj(self, a: int) -> int:
        """Id of kind.conjugate(values[a])."""
        found = self._conjugates.get(a)
        if found is None:
            found = self._conjugates[a] = self.intern(self.kind.conjugate(self.values[a]))
        return found


FINE_DIVISION_TAGS = frozenset({"1-a", "1-b", "1-c", "1-d"})
NON_FINE_DIVISION_TAGS = frozenset({"2-a", "2-b", "2-c", "2-d", "2-e", "3-a", "3-b", "3-c", "3-d"})


class GradedDivisionAlgebra:
    """A crossed product over a finite abelian support, validated eagerly;
    `sigma_ids[i][j]` is the id in `units` of sigma at support positions i, j,
    and `_conj[i]` tells whether position i acts by conjugation."""

    def __init__(self, support: AbelianGroup, kind: CoefficientKind, conj_elements,
                 units: UnitInterner, sigma_ids, type_tag=None):
        if not support.is_finite():
            raise ValueError("the support of a division grading must be finite")
        self.support = support
        self.kind = kind
        self.conj_elements = frozenset(conj_elements)
        self.type_tag = type_tag
        self._elements, self._index, self._add = support_table(support)
        n = len(self._elements)
        if units.kind != kind or len(sigma_ids) != n or any(len(row) != n for row in sigma_ids):
            raise ValueError(f"sigma must be a {n} x {n} table of ids interned for {kind!r}")
        self._units = units
        self._sigma_ids = sigma_ids
        self._validate()
        self._beta = None
        self._quad = None
        self._weyl = None

    # -- construction-time checks ------------------------------------------

    def _validate(self):
        """Check the action and the cocycle with the middle argument in the
        coordinate generators S of T only.

        Action: phi(u + g) = phi(u) + phi(g) for all u and g in S gives
        phi(0) = 0 (at u = 0), then additivity by induction on words in S.
        Cocycle (Light's argument): with x = a X_u, y = b X_v, the set
        M = {m : (x m) y = x (m y) for all x, y} is a subspace closed under
        products: (x (m m')) y = ((x m) m') y = (x m) (m' y) = x (m (m' y))
        = x ((m m') y).  D_e lies in M, as sigma is normalized and alpha_u is
        a ring automorphism: (x c) y = a alpha_u(c) alpha_u(b) sigma(u, v)
        X_(u+v) = x (c y).  sigma values commute with D_e (C is commutative;
        R and H admit only +-1), so with alpha_(u+s) = alpha_u alpha_s, both
        (x X_s) y and x (X_s y) are a alpha_(u+s)(b) X_(u+s+v) times, in turn,
        sigma(u, s) sigma(u + s, v) and alpha_u(sigma(s, v)) sigma(u, s + v):
        X_s is in M iff the identity holds at every (u, s, v).  D_e and X_S
        generate A, so M = A: A is associative, and the identity holds on all
        triples.  The checks before it establish the facts used.
        """
        elems, add, sigma, units = self._elements, self._add, self._sigma_ids, self._units
        n = len(elems)
        if self.conj_elements and self.kind.family == "R":
            raise ValueError("the rationals admit no conjugation action")
        if self.conj_elements and self.kind.family == "H":
            raise ValueError(
                "quaternion conjugation is an anti-automorphism; "
                "quaternion coefficients only support the trivial action"
            )
        for g in self.conj_elements:
            if g.group != self.support:
                raise ValueError("action defined outside the support")
        gens = [self._index[g] for g in self.support.generators()] or [0]  # T = 0: its zero
        self._conj = conj = [t in self.conj_elements for t in elems]
        for u in range(n):
            for g in gens:
                if (conj[u] ^ conj[g]) != conj[add[u][g]]:
                    raise ValueError(
                        f"action is not a group homomorphism at {elems[u]}, {elems[g]}")
        allowed = {a: self.kind.is_allowed_cocycle_unit(units.values[a])
                   for a in set().union(*sigma)}
        if not all(allowed.values()):
            u, v = next((u, v) for u in range(n) for v in range(n) if not allowed[sigma[u][v]])
            raise CocycleError(f"sigma({elems[u]}, {elems[v]}) = "
                               f"{units.values[sigma[u][v]]!r} is not an allowed unit")
        one = units.intern(self.kind.one())
        for u in range(n):  # position 0 is the zero of T
            if sigma[0][u] != one or sigma[u][0] != one:
                raise CocycleError(f"sigma is not normalized at {elems[u]}")
        # sigma(u, g) sigma(u + g, w) = alpha_u(sigma(g, w)) sigma(u, g + w) on ids
        mul, conjugate = units.mul, units.conj
        for u in range(n):
            s_u, add_u, conj_u = sigma[u], add[u], conj[u]
            for g in gens:
                s_ug, s_sum, s_g, add_g = s_u[g], sigma[add_u[g]], sigma[g], add[g]
                for w in range(n):
                    s_gw = conjugate(s_g[w]) if conj_u else s_g[w]
                    if mul(s_ug, s_sum[w]) != mul(s_gw, s_u[add_g[w]]):
                        raise CocycleError(
                            f"cocycle identity fails at ({elems[u]}, {elems[g]}, {elems[w]})",
                            witness=(elems[u], elems[g], elems[w]),
                        )

    # -- basic structure -----------------------------------------------------

    def elements(self):
        return self._elements

    def alpha(self, t: GroupElement, value):
        """Action of degree t on a coefficient."""
        return self.kind.conjugate(value) if t in self.conj_elements else value

    def sigma(self, u: GroupElement, v: GroupElement):
        return self._units.values[self._sigma_ids[self._index[u]][self._index[v]]]

    def one(self) -> "DivisionElement":
        return self.unit(self.support.zero())

    def unit(self, t: GroupElement, coeff=1) -> "DivisionElement":
        """The homogeneous element coeff * X_t."""
        return DivisionElement(self, {t: self.kind.coerce(coeff)})

    def element(self, terms) -> "DivisionElement":
        return DivisionElement(self, {t: self.kind.coerce(c) for t, c in terms.items()})

    def centralizer_elements(self) -> tuple:
        """Support of the centralizer of the identity component (= ker of the action)."""
        return tuple(t for t, c in zip(self._elements, self._conj) if not c)

    def __repr__(self):
        tag = f", type={self.type_tag}" if self.type_tag else ""
        return f"GradedDivisionAlgebra(T={self.support.pretty()}, kind={self.kind.family}{tag})"

    def to_json(self) -> dict:
        beta = commutation_bicharacter(self)
        quad = quadratic_form(self)
        data = {
            "support": self.support.to_json(),
            "kind": self.kind.family,
            "type_tag": self.type_tag,
            "action_kernel": sorted(t.coords for t in self.centralizer_elements()),
            "sigma": [
                [list(u.coords), list(v.coords), _scalar_json(self.sigma(u, v))]
                for u in self._elements for v in self._elements
            ],
            "beta": [
                [list(u.coords), list(v.coords), _scalar_json(beta.value(u, v))]
                for u in beta.domain for v in beta.domain
            ],
        }
        if self.kind.family == "C":
            data["conductor"] = self.kind.conductor
        data["quadratic"] = {
            "total": quad.total,
            "values": [[list(t.coords), s] for t, s in sorted(
                quad.values.items(), key=lambda kv: kv[0].coords)],
        }
        if quad.total and self.support.is_elementary_two() and not self.support.is_trivial():
            signs = list(quad.values.values())
            # tied counts mean the form is nonzero on the radical of beta: no Arf invariant
            if signs.count(1) != signs.count(-1):
                data["arf"] = arf(quad)
        return data


def _scalar_json(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value.to_json()


class DivisionElement:
    """A finitely supported map T -> coefficients, with crossed-product arithmetic."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: GradedDivisionAlgebra, terms):
        self.algebra = algebra
        self.terms = {t: c for t, c in terms.items() if c}

    def _check(self, other):
        if not isinstance(other, DivisionElement) or other.algebra is not self.algebra:
            raise ValueError("elements belong to different algebras")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for t, c in other.terms.items():
            out[t] = out.get(t, self.algebra.kind.zero()) + c
        return DivisionElement(self.algebra, out)

    def __neg__(self):
        return DivisionElement(self.algebra, {t: -c for t, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, DivisionElement):
            self._check(other)
            alg = self.algebra
            out: dict = {}
            for u, c in self.terms.items():
                for v, d in other.terms.items():
                    target = u + v
                    val = c * alg.alpha(u, d) * alg.sigma(u, v)
                    out[target] = out.get(target, alg.kind.zero()) + val
            return DivisionElement(alg, out)
        # scalar on the right: x * c = x * (c X_e), which twists c by the action
        return self * self.algebra.unit(self.algebra.support.zero(), other)

    def __rmul__(self, other):
        return self.algebra.unit(self.algebra.support.zero(), other) * self

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        return len(self.terms) <= 1

    def degree(self) -> GroupElement:
        if len(self.terms) != 1:
            raise ValueError("degree of a non-homogeneous element")
        return next(iter(self.terms))

    def coefficient(self, t: GroupElement):
        return self.terms.get(t, self.algebra.kind.zero())

    def inverse(self) -> "DivisionElement":
        """Two-sided inverse of a nonzero homogeneous element."""
        if len(self.terms) != 1:
            raise ValueError("only homogeneous elements are inverted here")
        alg = self.algebra
        (t, c), = self.terms.items()
        ti = -t
        d = alg.alpha(t, 1 / (c * alg.sigma(t, ti)))
        result = DivisionElement(alg, {ti: alg.kind.coerce(d)})
        one = alg.one().terms
        if (self * result).terms != one or (result * self).terms != one:
            raise ArithmeticError(f"X_{t} has no two-sided inverse under this cocycle")
        return result

    def __eq__(self, other):
        if not isinstance(other, DivisionElement):
            return NotImplemented
        return other.algebra is self.algebra and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c!r})*X{t!r}" for t, c in self.terms.items())


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

class Bicharacter:
    """An alternating bimultiplicative pairing beta on a subgroup K of a
    finite abelian group T, as one table of ids over T's support positions.

    `ids[x][y]` is the id in `units` of beta at the `support_table(group)`
    positions x and y, and None exactly when x or y lies outside K; K is
    read from the diagonal.  `domain` lists K in position order, and
    `generators` a generating set of K as positions, taken greedily in order.

    Alternation is checked on all of K, and
    beta(u + v, w) = beta(u, w) beta(v, w) for all u, w and for v in
    `generators` only.  The set M of the v that pass for all u, w is closed
    under +: for v1, v2 in M,
    beta(u + v1 + v2, w) = beta(u + v1, w) beta(v2, w)
    = beta(u, w) beta(v1, w) beta(v2, w) = beta(u, w) beta(v1 + v2, w).  K is
    finite, so the sums of its generators exhaust it, and M = K.  Then
    beta(u, g) beta(g, u) = 1 is checked for all u and the same g, so
    beta(g, .) is the inverse of the character beta(., g), and beta(v, .) is
    a product of those for every v (the values commute): beta is
    multiplicative in its second argument too.  The first two checks do not
    give this: on Z2, beta(1, 0) = -1 and 1 elsewhere passes them.
    """

    def __init__(self, group: AbelianGroup, units: UnitInterner, ids):
        elements, self._index, add = support_table(group)
        n = len(elements)
        in_k = [x < len(row) and row[x] is not None for x, row in enumerate(ids)]
        if len(ids) != n or [[a is not None for a in row] for row in ids] != [
                [x and y for y in in_k] for x in in_k]:
            raise ValueError(f"bicharacter must be a {n} x {n} table of ids with a value "
                             "exactly on K x K, K read from its diagonal")
        k = [x for x in range(n) if in_k[x]]
        self.group, self.units, self.ids, self.kind = group, units, ids, units.kind
        self.domain = tuple(elements[x] for x in k)
        gens, span = [], {0}
        for x in k:
            if x not in span:
                gens.append(x)
                while (grown := span | {add[y][x] for y in span}) != span:  # span + <x>
                    span = grown
        if span != set(k):
            raise ValueError("bicharacter domain is not a subgroup")
        self.generators = tuple(gens)
        one, mul = units.intern(self.kind.one()), units.mul
        for x in k:
            if ids[x][x] != one:
                raise ValueError(f"bicharacter is not alternating at {elements[x]}")
            ids_u, sums = ids[x], add[x]
            for g in gens:
                ids_v, ids_sum = ids[g], ids[sums[g]]
                for w in k:
                    if ids_sum[w] != mul(ids_u[w], ids_v[w]):
                        raise ValueError("bicharacter not multiplicative at "
                                         f"({elements[x]},{elements[g]},{elements[w]})")
        for x in k:
            for g in gens:
                if mul(ids[x][g], ids[g][x]) != one:
                    raise ValueError(f"bicharacter is not skew at ({elements[x]},{elements[g]})")

    def value(self, u, v):
        """beta(u, v); KeyError for a pair outside K x K."""
        a = self.ids[self._index[u]][self._index[v]]
        if a is None:
            raise KeyError((u, v))
        return self.units.values[a]

    def radical_elements(self) -> tuple:
        """The t in K with beta(t, g) = 1 at each of `generators`, so on K."""
        one = self.units.intern(self.kind.one())
        return tuple(t for t in self.domain
                     if all(self.ids[self._index[t]][g] == one for g in self.generators))

    def conjugate(self) -> "Bicharacter":
        """beta-bar on the same interner, not checked again: conjugation is a
        ring automorphism of the coefficients, so it keeps every law."""
        other = object.__new__(Bicharacter)
        other.__dict__.update(vars(self), ids=[[None if a is None else self.units.conj(a)
                                                for a in row] for row in self.ids])
        return other

    def is_self_conjugate(self) -> bool:
        conj = self.units.conj
        return all(conj(a) == a for a in set().union(*self.ids) - {None})

    def __eq__(self, other):
        if not isinstance(other, Bicharacter):
            return NotImplemented
        return self.domain == other.domain and all(
            self.value(u, v) == other.value(u, v) for u in self.domain for v in self.domain)


class QuadraticData:
    """Sign data of normalized squares: a total form on T or a partial map on T \\ K."""

    def __init__(self, total: bool, values):
        self.total = total
        self.values = dict(values)
        for s in self.values.values():
            if s not in (1, -1):
                raise ValueError("quadratic data must be +-1 valued")

    def __eq__(self, other):
        if not isinstance(other, QuadraticData):
            return NotImplemented
        return self.total == other.total and self.values == other.values


def build_crossed_product(support, kind, action, cocycle, type_tag=None) -> GradedDivisionAlgebra:
    """Validated crossed product.

    `action` is the collection of the elements that act by conjugation;
    `cocycle` maps element pairs to coefficient units, and is turned here into
    the sigma id table of `GradedDivisionAlgebra`.
    """
    elems = list(support.elements())
    missing = next(((u, v) for u in elems for v in elems if (u, v) not in cocycle), None)
    if missing:
        raise CocycleError("sigma undefined at ({}, {})".format(*missing))
    units = UnitInterner(kind)
    sigma = [[units.intern(cocycle[(u, v)]) for v in elems] for u in elems]
    return GradedDivisionAlgebra(support, kind, action, units, sigma, type_tag)


def commutation_bicharacter(d: GradedDivisionAlgebra) -> Bicharacter:
    """beta(u, v) = sigma(u, v) * sigma(v, u)^(-1) on the centralizer support K,
    memoized on d: the whole-support id table of `Bicharacter`, filled on
    K x K with one division and one intern per distinct pair of sigma ids."""
    if d._beta is not None:
        return d._beta
    sigma, values, n = d._sigma_ids, d._units.values, len(d._elements)
    k = [i for i, c in enumerate(d._conj) if not c]
    units, quotients = UnitInterner(d.kind), {}
    ids = [[None] * n for _ in range(n)]
    for i in k:
        for j in k:
            key = (sigma[i][j], sigma[j][i])
            found = quotients.get(key)
            if found is None:
                found = quotients[key] = units.intern(values[key[0]] / values[key[1]])
            ids[i][j] = found
    d._beta = Bicharacter(d.support, units, ids)
    return d._beta


def centralizer_support(d: GradedDivisionAlgebra) -> AbelianGroup:
    """Isomorphism type of K = supp C_D(D_e)."""
    return abstract_type(d.centralizer_elements())


def radical(beta: Bicharacter) -> AbelianGroup:
    return abstract_type(beta.radical_elements())


def quadratic_form(d: GradedDivisionAlgebra) -> QuadraticData:
    """Signs of normalized squares.

    For components of dimension 1 or 4 this is the total table t -> sign with
    X_t^2 = mu(t) X_{2t} in the defining basis; for dimension-2 components
    with a nontrivial action it is the partial map nu on T \\ K.  Squares
    whose cocycle value is not +-1 indicate a non-catalog cocycle.
    """
    if d._quad is not None:
        return d._quad

    def sign_of(value):
        if value == d.kind.one():
            return 1
        if value == -d.kind.one():
            return -1
        raise ValueError(f"normalized square {value!r} is not +-1")

    if d.kind.dim in (1, 4):
        values = {t: sign_of(d.sigma(t, t)) for t in d.elements()}
        quad = QuadraticData(True, values)
        if d.support.is_elementary_two():
            bad = _polarization_failure(commutation_bicharacter(d),
                                        [values[t] for t in d.elements()])
            if bad:
                raise ValueError("polarization identity fails at ({}, {})".format(*bad))
    else:
        values = {t: sign_of(d.sigma(t, t)) for t in d.conj_elements}
        quad = QuadraticData(False, values)
    d._quad = quad
    return quad


def _polarization_failure(beta: Bicharacter, signs):
    """The first (u, g) with g a coordinate generator of T = beta.group, the
    last left out when rank T >= 2, at which mu(u + g) = beta(u, g) mu(u)
    mu(g) fails, or None; `signs[x]` is mu at the support position x.  T
    must be an elementary abelian 2-group, and beta live on all of T.

    All generators would cover every pair: if v1 and v2 pass for all u, then
    mu(u + v1 + v2) = beta(u + v1, v2) beta(u, v1) mu(u) mu(v1) mu(v2)
    = beta(u, v1 + v2) mu(u) mu(v1 + v2), beta being bimultiplicative
    (`Bicharacter` checks it).  The last one, h, adds nothing: take eta0
    with polar beta (eta0(x) = prod beta(g_i, g_j) over i < j set in x, as
    beta is alternating) and psi = mu eta0.  psi(u + g) = psi(u) psi(g) at
    the g tested, so psi(0) = 1 and psi(v + c h) = psi(c h) chi(v) with v on
    the other coordinates, chi(g) = psi(g) and c -> psi(c h) a character of
    Z2: psi is a character of T, and mu = eta0 psi passes every pair.
    """
    elems, index, add = support_table(beta.group)
    values, ids = beta.units.values, beta.ids
    gens = [index[g] for g in beta.group.generators()]
    gens = gens[:-1] or gens  # rank 1 keeps its one generator
    for u, sums in enumerate(add):
        for g in gens:
            if values[ids[u][g]] != signs[sums[g]] * signs[u] * signs[g]:
                return elems[u], elems[g]
    return None


def arf(quad: QuadraticData) -> int:
    """Majority sign of a total quadratic form; a tie signals degeneracy."""
    if not quad.total:
        raise ValueError("Arf invariant needs a total quadratic form")
    plus = sum(1 for s in quad.values.values() if s == 1)
    minus = len(quad.values) - plus
    if plus == minus:
        raise ValueError("tied sign counts: polarization is degenerate")
    return 1 if plus > minus else -1


def quad_forms(support: AbelianGroup, beta: Bicharacter) -> list[QuadraticData]:
    """All eta: T -> {+-1} with eta(u + v) = beta(u, v) eta(u) eta(v).

    T = `support` must be an elementary abelian 2-group and beta a
    `Bicharacter` on all of T; its values are +-1, as beta(u, v)^2 =
    beta(2u, v) = beta(0, v) = 1.  Each eta is eta0 chi, with eta0 the
    extension of the sign +1 on every generator and chi the character with
    chi(g_i) = -1 exactly for the coordinates i set in the mask, listed in
    mask order; `values` lists T in position order.  eta0 is built along the
    positions, eta0(x) = beta(x - g, g) eta0(x - g) with g = x & -x, the
    generator of x's last nonzero digit (`support_table`), and checked once
    by `_polarization_failure`: since
    chi(u + v) = chi(u) chi(v), eta0 chi satisfies the identity iff eta0
    does.  A `Bicharacter` is alternating, and for every alternating beta
    Quad(T, beta) is a full torsor of 2^rank forms over Hom(T, {+-1}), so
    the check only guards the construction: an empty list means a fault.
    """
    if not support.is_elementary_two():
        raise ValueError("Quad(T, beta) is defined for elementary abelian 2-groups")
    elements = support_table(support)[0]
    if beta.group != support or len(beta.domain) != len(elements):
        raise ValueError("Quad(T, beta) needs beta on all of T")
    one, ids = beta.units.intern(beta.kind.one()), beta.ids
    eta0 = [1] * len(elements)
    for x in range(1, len(elements)):
        g = x & -x
        eta0[x] = eta0[x - g] if ids[x - g][g] == one else -eta0[x - g]
    if _polarization_failure(beta, eta0):
        return []
    masks = [sum(c << i for i, c in enumerate(t.coords)) for t in elements]
    return [QuadraticData(True, {t: -s if (mask & m).bit_count() % 2 else s
                                 for t, s, m in zip(elements, eta0, masks)})
            for mask in range(2 ** support.rank)]


def equivalent(d1: GradedDivisionAlgebra, d2: GradedDivisionAlgebra) -> bool:
    """Catalog equivalence: same type tag and isomorphic supports."""
    if d1.type_tag is None or d2.type_tag is None:
        raise CatalogError("equivalence is decided for catalog algebras only")
    if d1.type_tag != d2.type_tag:
        return False
    return d1.support == d2.support


def is_fine_division(d: GradedDivisionAlgebra) -> bool:
    """Fineness of a catalog division grading in the class of abelian group gradings.

    Dimension-1 gradings (types 1-a ... 1-d) are fine.  A type (2-f) grading
    is fine exactly when its support is not an elementary abelian 2-group.
    The remaining types admit proper refinements with components of smaller
    dimension (splitting the identity component, or the dimension-1
    refinement with support Z2 x T used for the 2-a/2-b stabilizers), so
    they are never fine.
    """
    tag = d.type_tag
    if tag is None:
        raise CatalogError("fineness flags are defined for catalog algebras only")
    if tag == "2-f":
        return not d.support.is_elementary_two()
    if tag in FINE_DIVISION_TAGS:
        return True
    if tag in NON_FINE_DIVISION_TAGS:
        return False
    raise CatalogError(f"unknown type tag {tag!r}")


# ---------------------------------------------------------------------------
# canonical catalog
# ---------------------------------------------------------------------------

def _block_pauli():
    # X_a, X_b the 2x2 real Pauli-type units: X_a X_b = -X_b X_a, squares +1
    return (2, 2), (False, False), lambda u, v: (-1) ** (u[1] * v[0])


def _block_quaternion():
    # X_a = i, X_b = j inside the quaternions: anticommute, squares -1
    return (2, 2), (False, False), \
        lambda u, v: (-1) ** (u[1] * v[0] + u[0] * v[0] + u[1] * v[1])


def _block_central_i():
    # X_z central with X_z^2 = -1 (the complex unit viewed over the reals)
    return (2,), (False,), lambda u, v: (-1) ** (u[0] * v[0])


def _block_z2_z4():
    # X_a of order 2, X_s of order 4 with X_s^2 central, X_s^4 = -1,
    # X_a X_s = -X_s X_a; drives the 1-d family
    return (2, 4), (False, False), \
        lambda u, v: (-1) ** (u[1] * v[0] + (u[1] + v[1]) // 4)


def _block_conj2(square_sign: int):
    # X_g of order 2 acting on the coefficients by conjugation, X_g^2 = +-1
    return (2,), (True,), lambda u, v: square_sign ** (u[0] * v[0])


def _block_conj4():
    # X_s of order 4 acting by conjugation, normalized so that X_s^4 = -1
    return (4,), (True,), lambda u, v: (-1) ** ((u[0] + v[0]) // 4)


def _block_complex_pauli(order: int):
    # generalized clock and shift of size `order`: X_u X_v = zeta X_v X_u
    return (order, order), (False, False), lambda u, v: zeta(order, u[0] * v[1] % order)


def _assemble(blocks, kind_family, type_tag) -> GradedDivisionAlgebra:
    """The crossed product of `blocks`, each (orders, conjugation flags, sigma on
    its own coordinates).  In the layout of `support_table`, T's sigma id
    table is the Kronecker product of the block tables under `units.mul`."""
    orders = tuple(m for block_orders, _, _ in blocks for m in block_orders)
    conj_flags = [flag for _, block_conj, _ in blocks for flag in block_conj]
    support = AbelianGroup(0, orders)
    if kind_family == "R":
        kind = CoefficientKind.real()
    elif kind_family == "H":
        kind = CoefficientKind.quaternion()
    else:
        exp = support.exponent()
        kind = CoefficientKind.complex(exp if exp > 2 else 4)
    units = UnitInterner(kind)
    mul = units.mul
    sigma = [[units.intern(1)]]
    for block_orders, _, block_sigma in blocks:
        coords = list(itertools.product(*(range(m) for m in block_orders)))
        block = [[units.intern(block_sigma(u, v)) for v in coords] for u in coords]
        sigma = [[mul(x, y) for x in row for y in block_row]
                 for row in sigma for block_row in block]
    conj = {t for t in support.elements()
            if sum(c for c, flag in zip(t.coords, conj_flags) if flag) % 2 == 1}
    return GradedDivisionAlgebra(support, kind, conj, units, sigma, type_tag)


def _require(condition, tag, support):
    if not condition:
        raise CatalogError(f"type {tag} is incompatible with support {support.pretty()}")


def canonical(type_tag: str, support) -> GradedDivisionAlgebra:
    """A concrete crossed-product representative of a catalog equivalence class.

    `support` may be an AbelianGroup or a string such as 'Z2xZ2' or 'Z3^2'.
    Types other than those exercised by dimension-1 and 2-f gradings are
    built at their minimal compatible sizes from the same blocks.
    """
    if isinstance(support, str):
        support = parse_group_string(support)
    tag, real = type_tag, "R"
    if tag in ("3-a", "3-b", "3-c", "3-d"):  # the blocks of 1-a ... 1-d over H
        tag, real = "1-" + tag[-1], "H"
    _require(support.is_finite(), tag, support)
    tors = support.torsion
    twos = sum(1 for m in tors if m == 2)
    fours = sum(1 for m in tors if m == 4)

    if tag == "1-a":
        _require(support.is_elementary_two() and len(tors) % 2 == 0, tag, support)
        return _assemble([_block_pauli()] * (len(tors) // 2), real, type_tag)
    if tag == "1-b":
        _require(support.is_elementary_two() and len(tors) % 2 == 0 and tors, tag, support)
        blocks = [_block_quaternion()] + [_block_pauli()] * (len(tors) // 2 - 1)
        return _assemble(blocks, real, type_tag)
    if tag == "1-c":
        _require(support.is_elementary_two() and len(tors) % 2 == 1, tag, support)
        blocks = [_block_pauli()] * (len(tors) // 2) + [_block_central_i()]
        return _assemble(blocks, real, type_tag)
    if tag == "1-d":
        _require(twos + fours == len(tors) and fours == 1 and twos % 2 == 1, tag, support)
        return _assemble([_block_pauli()] * (twos // 2) + [_block_z2_z4()], real, type_tag)
    if tag in ("2-a", "2-b"):
        _require(support.is_elementary_two() and len(tors) % 2 == 1, tag, support)
        sign = 1 if tag == "2-a" else -1
        return _assemble([_block_conj2(sign)] + [_block_pauli()] * (len(tors) // 2), "C", tag)
    if tag == "2-c":
        _require(support.is_elementary_two() and len(tors) % 2 == 0 and tors, tag, support)
        blocks = [_block_conj2(1), _block_central_i()] + [_block_pauli()] * (len(tors) // 2 - 1)
        return _assemble(blocks, "C", tag)
    if tag == "2-d":
        _require(twos + fours == len(tors) and fours == 1 and twos % 2 == 0 and twos >= 2,
                 tag, support)
        blocks = [_block_conj2(1)] + [_block_pauli()] * ((twos - 2) // 2) + [_block_z2_z4()]
        return _assemble(blocks, "C", tag)
    if tag == "2-e":
        _require(twos + fours == len(tors) and fours == 1 and twos % 2 == 0, tag, support)
        return _assemble([_block_pauli()] * (twos // 2) + [_block_conj4()], "C", tag)
    if tag == "2-f":
        _require(len(tors) % 2 == 0, tag, support)
        half = []
        for i in range(0, len(tors), 2):
            _require(tors[i] == tors[i + 1], tag, support)
            half.append(tors[i])
        return _assemble([_block_complex_pauli(m) for m in half], "C", tag)
    raise CatalogError(f"unknown type tag {type_tag!r}")


def parse_catalog_ref(ref: str) -> GradedDivisionAlgebra:
    """Parse a catalog reference such as '2-f:Z3xZ3' or '1-b:Z2^2'."""
    tag, _, spec = ref.partition(":")
    tag = tag.strip()
    if tag == "trivial" or (tag == "1-a" and not spec.strip()):
        return canonical("1-a", AbelianGroup.trivial())
    if not spec:
        raise CatalogError(f"catalog reference {ref!r} needs a support, e.g. '1-b:Z2xZ2'")
    return canonical(tag, spec.strip())


def underlying_algebra_name(d: GradedDivisionAlgebra) -> str:
    """Name of the ungraded algebra of a catalog entry, e.g. 'M2(C)' or 'H'."""
    tag = d.type_tag
    order = d.support.order()
    if tag is None:
        raise CatalogError("underlying algebra names are catalog metadata")
    if tag == "1-a":
        n = math.isqrt(order)
        return "R" if n == 1 else f"M{n}(R)"
    if tag == "1-b":
        n = math.isqrt(order) // 2
        return "H" if n == 1 else f"M{n}(H)"
    if tag in ("1-c", "1-d"):
        n = math.isqrt(order // 2)
        return "C" if n == 1 else f"M{n}(C)"
    if tag == "2-f":
        n = math.isqrt(order)
        return "C" if n == 1 else f"M{n}(C)"
    # dimension-2 and dimension-4 minimal representatives
    if tag in ("2-a",):
        return f"M{math.isqrt(2 * order)}(R)"
    if tag in ("2-b",):
        return f"M{math.isqrt(2 * order) // 2}(H)" if 2 * order > 4 else "H"
    if tag in ("2-c", "2-d", "2-e"):
        return f"M{math.isqrt(order)}(C)"
    inner = {"3-a": "1-a", "3-b": "1-b", "3-c": "1-c", "3-d": "1-d"}[tag]
    return f"H (x) {underlying_algebra_name(canonical(inner, d.support))}"
