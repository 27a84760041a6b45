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

import math
from fractions import Fraction

from .abelian import (
    AbelianGroup,
    GroupElement,
    abstract_type,
    parse_group_string,
    quotient_type,
    square_elements,
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
        if self.family == "R":
            return value in (1, -1)
        if self.family == "C":
            return isinstance(value, Cyclotomic) and value.is_root_of_unity_or_zero()
        units = [RationalQuaternion(s) for s in (1, -1)]
        units += [s * u() for s in (1, -1)
                  for u in (RationalQuaternion.i, RationalQuaternion.j, RationalQuaternion.k)]
        return any(value == u for u in units)

    def basis(self):
        """Q-basis of the coefficient ring."""
        if self.family == "R":
            return (Fraction(1),)
        if self.family == "C":
            n = self.conductor
            deg = len(Cyclotomic.from_rational(0, n).coeffs)
            return tuple(zeta(n, k) if k else Cyclotomic.from_rational(1, n)
                         for k in range(deg))
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
    memoized by id, so an O(|T|^3) identity check multiplies each pair of
    distinct values once and otherwise compares ints.
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
ALL_TAGS = FINE_DIVISION_TAGS | NON_FINE_DIVISION_TAGS | {"2-f"}


class GradedDivisionAlgebra:
    """A crossed product over a finite abelian support, validated eagerly."""

    def __init__(self, support: AbelianGroup, kind: CoefficientKind, conj_elements,
                 cocycle, type_tag=None):
        if not support.is_finite():
            raise ValueError("the support of a division grading must be finite")
        self.support = support
        self.kind = kind
        self.conj_elements = frozenset(conj_elements)
        self.cocycle = dict(cocycle)
        self.type_tag = type_tag
        self._elements, self._index, self._add = support_table(support)
        self._units = UnitInterner(kind)
        self._sigma_ids = self._validate()
        self._beta = None
        self._quad = None
        self._weyl = None

    # -- construction-time checks ------------------------------------------

    def _validate(self):
        """Check the action and the cocycle; returns sigma as ids of `self._units`,
        indexed by support positions."""
        elems, add = self._elements, self._add
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
        # the action must be a homomorphism T -> {id, conj}
        conj = [t in self.conj_elements for t in elems]
        for u in range(n):
            for v in range(n):
                if (conj[u] ^ conj[v]) != conj[add[u][v]]:
                    raise ValueError(
                        f"action is not a group homomorphism at {elems[u]}, {elems[v]}")
        units = self._units
        allowed = {}
        sigma = []
        for u in elems:
            row = []
            for v in elems:
                if (u, v) not in self.cocycle:
                    raise CocycleError(f"sigma undefined at ({u}, {v})")
                value = self.kind.coerce(self.cocycle[(u, v)])
                self.cocycle[(u, v)] = value
                a = units.intern(value)
                if a not in allowed:
                    allowed[a] = self.kind.is_allowed_cocycle_unit(value)
                if not allowed[a]:
                    raise CocycleError(f"sigma({u}, {v}) = {value!r} is not an allowed unit")
                row.append(a)
            sigma.append(row)
        one = units.intern(self.kind.one())
        for u in range(n):  # position 0 is the zero of T
            if sigma[0][u] != one or sigma[u][0] != one:
                raise CocycleError(f"sigma is not normalized at {elems[u]}")
        # sigma(u, v) sigma(u + v, w) = alpha_u(sigma(v, w)) sigma(u, v + w) on ids
        mul, conjugate = units.mul, units.conj
        for u in range(n):
            s_u, add_u, conj_u = sigma[u], add[u], conj[u]
            for v in range(n):
                s_uv, s_sum, s_v, add_v = s_u[v], sigma[add_u[v]], sigma[v], add[v]
                for w in range(n):
                    s_vw = conjugate(s_v[w]) if conj_u else s_v[w]
                    if mul(s_uv, s_sum[w]) != mul(s_vw, s_u[add_v[w]]):
                        raise CocycleError(
                            f"cocycle identity fails at ({elems[u]}, {elems[v]}, {elems[w]})",
                            witness=(elems[u], elems[v], elems[w]),
                        )
        return sigma

    # -- basic structure -----------------------------------------------------

    def elements(self):
        return self._elements

    def alpha(self, t: GroupElement, value):
        """Action of degree t on a coefficient."""
        return self.kind.conjugate(value) if t in self.conj_elements else value

    def sigma(self, u: GroupElement, v: GroupElement):
        return self.cocycle[(u, v)]

    def zero_element(self) -> "DivisionElement":
        return DivisionElement(self, {})

    def one(self) -> "DivisionElement":
        return self.unit(self.support.zero())

    def unit(self, t: GroupElement, coeff=1) -> "DivisionElement":
        """The homogeneous element coeff * X_t."""
        return DivisionElement(self, {t: self.kind.coerce(coeff)})

    def element(self, terms) -> "DivisionElement":
        return DivisionElement(self, {t: self.kind.coerce(c) for t, c in terms.items()})

    def centralizer_elements(self) -> tuple:
        """Support of the centralizer of the identity component (= ker of the action)."""
        return tuple(t for t in self._elements if t not in self.conj_elements)

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
    if isinstance(value, Cyclotomic):
        return value.to_json()
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
        need = alg.sigma(t, ti).inverse() if not isinstance(alg.sigma(t, ti), Fraction) \
            else 1 / alg.sigma(t, ti)
        cinv = c.inverse() if not isinstance(c, Fraction) else 1 / c
        d = alg.alpha(t, need * cinv)
        result = DivisionElement(alg, {ti: alg.kind.coerce(d)})
        one = alg.one().terms
        if (self * result).terms != one or (result * self).terms != one:
            raise ArithmeticError(f"X_{t} has no two-sided inverse under this cocycle")
        return result

    def __eq__(self, other):
        if not isinstance(other, DivisionElement):
            return NotImplemented
        if other.algebra is not self.algebra:
            return False
        keys = set(self.terms) | set(other.terms)
        zero = self.algebra.kind.zero()
        return all(self.terms.get(k, zero) == other.terms.get(k, zero) for k in keys)

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c!r})*X{t!r}" for t, c in self.terms.items())


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

class Bicharacter:
    """An alternating bimultiplicative pairing on a finite abelian group.

    `ids[i][j]` is the id in `units` of the value at (domain[i], domain[j]).
    """

    def __init__(self, domain, values, kind: CoefficientKind):
        self.domain = tuple(domain)
        self.values = dict(values)
        self.kind = kind
        self.units = units = UnitInterner(kind)
        self.ids = ids = [[units.intern(self.values[(u, v)]) for v in self.domain]
                          for u in self.domain]
        if not self.domain:
            return
        _, index, add = support_table(self.domain[0].group)
        at = [index[u] for u in self.domain]
        pos = {t: i for i, t in enumerate(at)}
        one, mul = units.intern(kind.one()), units.mul
        n = len(self.domain)
        for i, u in enumerate(self.domain):
            if ids[i][i] != one:
                raise ValueError(f"bicharacter is not alternating at {u}")
            ids_u, sums = ids[i], add[at[i]]
            for j, v in enumerate(self.domain):
                ids_v, ids_sum = ids[j], ids[pos[sums[at[j]]]]
                for k in range(n):
                    if ids_sum[k] != mul(ids_u[k], ids_v[k]):
                        raise ValueError(
                            f"bicharacter not multiplicative at ({u},{v},{self.domain[k]})")

    def value(self, u, v):
        return self.values[(u, v)]

    def radical_elements(self) -> tuple:
        return tuple(
            t for t in self.domain
            if all(self.values[(u, t)] == self.kind.one() for u in self.domain)
        )

    def is_self_conjugate(self) -> bool:
        return all(
            self.values[(u, v)] == self.kind.conjugate(self.values[(u, v)])
            for u in self.domain for v in self.domain
        )

    def __eq__(self, other):
        if not isinstance(other, Bicharacter):
            return NotImplemented
        return set(self.domain) == set(other.domain) and all(
            self.values[k] == other.values[k] for k in self.values
        )


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

    `action` may be a set of conjugation-acting elements, a dict t -> 'id'/'conj',
    or a callable; `cocycle` maps element pairs to coefficient units.
    """
    if callable(action):
        conj = {t for t in support.elements() if action(t) in ("conj", True)}
    elif isinstance(action, dict):
        conj = {t for t, a in action.items() if a in ("conj", True)}
    else:
        conj = set(action)
    return GradedDivisionAlgebra(support, kind, conj, cocycle, type_tag)


def commutation_bicharacter(d: GradedDivisionAlgebra) -> Bicharacter:
    """beta(u, v) = sigma(u, v) * sigma(v, u)^(-1) on the centralizer support K."""
    if d._beta is not None:
        return d._beta
    k = d.centralizer_elements()
    sigma, units = d._sigma_ids, d._units
    at = [d._index[u] for u in k]
    quotients = {}  # one division per pair of distinct sigma values
    values = {}
    for u, i in zip(k, at):
        for v, j in zip(k, at):
            key = (sigma[i][j], sigma[j][i])
            if key not in quotients:
                s_uv, s_vu = units.values[key[0]], units.values[key[1]]
                inv = 1 / s_vu if isinstance(s_vu, Fraction) else s_vu.inverse()
                quotients[key] = s_uv * inv
            values[(u, v)] = quotients[key]
    d._beta = Bicharacter(k, values, d.kind)
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
            beta = commutation_bicharacter(d)
            for u in d.elements():
                for v in d.elements():
                    if quad.values[u + v] != sign_of(beta.value(u, v)) * quad.values[u] * quad.values[v]:
                        raise ValueError(f"polarization identity fails at ({u}, {v})")
    else:
        values = {t: sign_of(d.sigma(t, t)) for t in d.conj_elements}
        quad = QuadraticData(False, values)
    d._quad = quad
    return quad


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
    """All eta: T -> {+-1} with eta(uv) = beta(u, v) eta(u) eta(v).

    The support must be an elementary abelian 2-group and beta {+-1}-valued;
    the result is a torsor over Hom(T, {+-1}) when nonempty.
    """
    if not support.is_elementary_two():
        raise ValueError("Quad(T, beta) is defined for elementary abelian 2-groups")

    def as_sign(value):
        if value == 1 or value == Fraction(1):
            return 1
        if value == -1 or value == Fraction(-1):
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
        # extend along coordinates using the polarization identity
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
    return (order, order), (False, False), ("zeta", order)


def _assemble(blocks, kind_family, type_tag, conductor=None) -> GradedDivisionAlgebra:
    orders: list[int] = []
    conj_flags: list[bool] = []
    sigmas = []
    for block_orders, block_conj, block_sigma in blocks:
        sigmas.append((len(orders), len(block_orders), block_sigma))
        orders.extend(block_orders)
        conj_flags.extend(block_conj)
    support = AbelianGroup(0, tuple(orders))

    if kind_family == "R":
        kind = CoefficientKind.real()
    elif kind_family == "H":
        kind = CoefficientKind.quaternion()
    else:
        if conductor is None:
            exp = support.exponent()
            conductor = exp if exp > 2 else 4
        kind = CoefficientKind.complex(conductor)

    def sig(u: GroupElement, v: GroupElement):
        sign = 1
        root = kind.one()
        for start, width, fn in sigmas:
            uu = u.coords[start:start + width]
            vv = v.coords[start:start + width]
            if callable(fn):
                sign *= fn(uu, vv)
            else:
                _, order = fn
                exponent = (uu[0] * vv[1]) % order
                if exponent:
                    root = root * zeta(conductor, (conductor // order) * exponent)
        return kind.coerce(sign) * root if kind_family == "C" else kind.coerce(sign)

    elements = list(support.elements())
    cocycle = {(u, v): sig(u, v) for u in elements for v in elements}
    conj = {
        t for t in elements
        if sum(c for c, flag in zip(t.coords, conj_flags) if flag) % 2 == 1
    }
    return GradedDivisionAlgebra(support, kind, conj, cocycle, type_tag)


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
    tag = type_tag
    _require(support.is_finite(), tag, support)
    tors = support.torsion
    twos = sum(1 for m in tors if m == 2)
    fours = sum(1 for m in tors if m == 4)

    if tag == "1-a":
        _require(support.is_elementary_two() and len(tors) % 2 == 0, tag, support)
        return _assemble([_block_pauli()] * (len(tors) // 2), "R", tag)
    if tag == "1-b":
        _require(support.is_elementary_two() and len(tors) % 2 == 0 and tors, tag, support)
        blocks = [_block_quaternion()] + [_block_pauli()] * (len(tors) // 2 - 1)
        return _assemble(blocks, "R", tag)
    if tag == "1-c":
        _require(support.is_elementary_two() and len(tors) % 2 == 1, tag, support)
        return _assemble([_block_pauli()] * (len(tors) // 2) + [_block_central_i()], "R", tag)
    if tag == "1-d":
        _require(twos + fours == len(tors) and fours == 1 and twos % 2 == 1, tag, support)
        return _assemble([_block_pauli()] * (twos // 2) + [_block_z2_z4()], "R", tag)
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
    if tag in ("3-a", "3-b", "3-c", "3-d"):
        inner = canonical("1-" + tag[-1], support)
        cocycle = {
            pair: RationalQuaternion(value)
            for pair, value in inner.cocycle.items()
        }
        return GradedDivisionAlgebra(
            support, CoefficientKind.quaternion(), frozenset(), cocycle, tag
        )
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
