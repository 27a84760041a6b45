"""Graded-division algebras as crossed products over a finite abelian support.

An algebra D = sum_t C * X_t is described by its support T, a coefficient
kind C (exact rationals, a cyclotomic model of the complex numbers, or
rational quaternions), an action of T on C by {identity, conjugation}, and
a normalized 2-cocycle sigma, with the multiplication rule

    (c * X_u) (c' * X_v) = c * alpha_u(c') * sigma(u, v) * X_{u+v}.

D is built from a presentation, and sigma is the cocycle of its normal
words, proved one on O(rank^3) generator overlaps.  The values of sigma,
of the presentation and of the commutation bicharacter are roots of unity,
kept as their exponents in the cyclic group `CoefficientKind.roots`, so
the tables are computed in Z_N: a product is a sum mod N and conjugation
a negation.  The module also carries the catalog of canonical real
division gradings (type tags 1-a ... 3-d and 2-f), each a presentation,
with their invariants: the centralizer support K, the commutation
bicharacter, quadratic sign data, the Arf invariant.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from .abelian import AbelianGroup, GroupElement, abstract_type, parse_group_string, support_table
from .scalars import Cyclotomic, RationalQuaternion, _rational, zeta


class CocycleError(ValueError):
    """sigma, or a presentation, gives no crossed product; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CatalogError(ValueError):
    """Incompatible or unknown catalog request."""


class CoefficientKind:
    """One of the three exact coefficient rings: R, C (with conductor), H.

    `roots[e]` = omega^e, e in range(N), lists the allowed cocycle units,
    a cyclic group mu_N: N = 2 and omega = -1 over R and H; over C with
    conductor n, N = lcm(2, n) and omega = zeta_n for an even n, while for
    an odd n Q(zeta_n) also holds -1, and omega = -zeta_n^((n + 1) / 2),
    a primitive 2n-th root with omega^2 = zeta_n.  Sigma, presentation and
    beta tables hold such exponents e, so a product is a sum mod N and
    conjugation, omega -> omega^-1, a negation.
    """

    __slots__ = ("family", "conductor", "roots", "_exponents")

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
        if family != "C":
            self.roots = (self.coerce(1), self.coerce(-1))
        elif conductor % 2:
            half = (conductor + 1) // 2
            self.roots = tuple(-zeta(conductor, e * half) if e % 2 else zeta(conductor, e * half)
                               for e in range(2 * conductor))
        else:
            self.roots = tuple(zeta(conductor, e) for e in range(conductor))
        self._exponents = {self.to_vector(x): e for e, x in enumerate(self.roots)}

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
            if isinstance(value, Cyclotomic) and value.is_rational():
                value = value.rational_value()
            if isinstance(value, (int, Fraction)):
                value = _rational(value)  # a bool is refused
                return value if type(value) is Fraction else Fraction(value)
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

    def exponent(self, value):
        """The e with value = roots[e], or None for a value outside roots;
        TypeError for a value that is no coefficient of this kind."""
        return self._exponents.get(self.to_vector(self.coerce(value)))

    def is_allowed_cocycle_unit(self, value) -> bool:
        """Is value in roots?  R and H admit +-1 only: with the trivial action
        on H, the product c c' sigma(u, v) X_(u+v) is associative only for
        central sigma values.  C admits every root of unity of Q(zeta_n)."""
        try:
            return self.exponent(value) is not None
        except TypeError:
            return False

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


FINE_DIVISION_TAGS = frozenset({"1-a", "1-b", "1-c", "1-d"})
NON_FINE_DIVISION_TAGS = frozenset({"2-a", "2-b", "2-c", "2-d", "2-e", "3-a", "3-b", "3-c", "3-d"})


class GradedDivisionAlgebra:
    """A crossed product over a finite abelian support, presented by one X_j
    per coordinate generator g_j of T: X_j c = alpha_j(c) X_j (conjugation
    where `conj[j]`), X_j^o(g_j) = `powers[j]`, and X_j X_i = b_ji X_i X_j
    for i < j, b_ji = `commutators[(j, i)]` or 1; X_t is the normal word.
    `presentation` keeps the three; `_sigma_ids[i][j]` is the exponent e
    with sigma = kind.roots[e] at positions i, j, and `_conj[i]` tells if i
    acts by conjugation."""

    def __init__(self, support: AbelianGroup, kind: CoefficientKind, conj, powers, commutators,
                 type_tag=None):
        if not support.is_finite():
            raise ValueError("the support of a division grading must be finite")
        orders, r = support.torsion, support.rank
        if len(conj) != r or len(powers) != r or not all(0 <= i < j < r for j, i in commutators):
            raise ValueError(f"a presentation of {support.pretty()} needs {r} action flags, "
                             f"{r} powers, and commutators at (j, i) with i < j < {r}")
        if any(conj) and kind.family != "C":
            raise ValueError("the rationals admit no conjugation action" if kind.family == "R" else
                             "quaternion conjugation is an anti-automorphism; "
                             "quaternion coefficients only support the trivial action")
        self.support, self.kind, self.type_tag = support, kind, type_tag
        self._elements, self._index, self._add = support_table(support)
        self.presentation = (tuple(conj), tuple(map(kind.coerce, powers)),
                             {key: kind.coerce(b) for key, b in commutators.items()})
        for x in self.presentation[1] + tuple(self.presentation[2].values()):
            if not kind.is_allowed_cocycle_unit(x):
                raise CocycleError(f"presentation value {x!r} is not an allowed unit")
        p = list(map(kind.exponent, self.presentation[1]))
        b = [[kind.exponent(commutators.get((j, i), 1)) for i in range(j)] for j in range(r)]
        modulus, names = len(kind.roots), [f"X{g}" for g in support.generators()]
        word = _overlap_failure(orders, conj, p, b, modulus, names)
        if word:
            raise CocycleError(f"presentation is inconsistent at the overlap {word}", witness=word)
        self._conj = [sum(c for c, f in zip(t.coords, conj) if f) % 2 == 1 for t in self._elements]
        self.conj_elements = frozenset(t for t, c in zip(self._elements, self._conj) if c)
        self._sigma_ids = _normal_words(orders, conj, p, b, modulus, self._add)
        self._beta = self._quad = self._weyl = self._export = None
        self._matrices = {}  # k -> M_k(D) in its universal realization, see matrix_algebra

    # -- basic structure -----------------------------------------------------

    def elements(self):
        return self._elements

    def alpha(self, t: GroupElement, value):
        """Action of degree t on a coefficient."""
        return self.kind.conjugate(value) if t in self.conj_elements else value

    def sigma(self, u: GroupElement, v: GroupElement):
        return self.kind.roots[self._sigma_ids[self._index[u]][self._index[v]]]

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
            out[t] = out[t] + c if t in out else c
        return DivisionElement(self.algebra, out)

    def __neg__(self):
        return DivisionElement(self.algebra, {t: -c for t, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """(c X_u)(d X_v) = c alpha_u(d) sigma(u, v) X_(u+v), read by support
        position: u + v off `_add`, sigma off `_sigma_ids`, alpha_u off
        `_conj`.  The terms of the product come in the order of their first
        (u, v) pair, each summed in pair order."""
        if isinstance(other, DivisionElement):
            self._check(other)
            alg = self.algebra
            index, add, sigma, conj = alg._index, alg._add, alg._sigma_ids, alg._conj
            elements, roots, conjugate = alg._elements, alg.kind.roots, alg.kind.conjugate
            right = [(index[v], d) for v, d in other.terms.items()]
            out: dict = {}
            for u, c in self.terms.items():
                i = index[u]
                sums, sigmas, bar = add[i], sigma[i], conj[i]
                for j, d in right:
                    target = elements[sums[j]]
                    val = c * (conjugate(d) if bar else d) * roots[sigmas[j]]
                    out[target] = out[target] + val if target in out else val
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
    finite abelian group T, as one table of exponents over T's positions.

    `ids[x][y]` is the e in range(N), N = len(kind.roots), with beta =
    kind.roots[e] at the `support_table(group)` positions x and y, and None
    exactly when x or y lies outside K; K is read from the diagonal.
    `domain` lists K in position order, and `generators` a generating set
    of K as positions, taken greedily in order.

    The table f is checked on the polycyclic presentation of K that the
    generators give (Sims, Computation with Finitely Presented Groups,
    ch. 9).  With g_1, ..., g_r the generators, S_j = <g_1, ..., g_j> and
    o_j the least o with o g_j in S_(j-1), each u in K is sum a_j g_j with
    0 <= a_j < o_j in exactly one way.  The tree step of u != 0 takes one
    g_j off at its last nonzero a_j: u = u' + g_j.  The checks, products
    being sums of exponents mod N, are:
    (A) f(0, 0) = 1, and f(g, g) = 1 at each generator g;
    (M) f(x + g, w) = f(x, w) f(g, w) for all w in K, at each tree step
        (x, g) = (u', g_j), and at each relation step ((o_j - 1) g_j, g_j),
        where x + g = o_j g_j lies in S_(j-1);
    (S) f(u, g) f(g, u) = 1 for all u in K and each generator g.
    (M) and (S) make |K|^2 + (2r - 1)|K| sums: they compare f on K x K
    with the table that the tree steps build row by row, row(u) =
    row(u') + row(g_j), as `support_table` builds sums.

    These accept exactly the alternating bicharacters with values in
    roots.  One passes them all.  Conversely, fix w and let chi_j =
    f(g_j, w).  The step (0, g_1) gives f(0, w) = 1 (when K = 0, (A) does),
    as f(g_1, w) is a unit.  The tree steps then give f(u, w) = chi_1^a_1
    ... chi_r^a_r for every u.  The values lie in mu_N, which is abelian,
    so they commute (over H a table of values would need a check of this).
    The relation step of g_j says chi_j^o_j = f(o_j g_j, w) = prod_(i<j)
    chi_i^c_i, where o_j g_j = sum c_i g_i in normal form.  The relations
    o_j e_j - sum c_i e_i present K: as in `abstract_type`, they span a
    lattice of index prod o_j = |K| in Z^r, inside the kernel of e_j ->
    g_j, which has that index too.  So e_j -> chi_j defines a character of
    K, which is f(., w) on every normal form: f is multiplicative in its
    first argument.  By (S), f(g, .) = f(., g)^-1 is a character too, and
    so is each f(u, .) = prod f(g_j, .)^a_j.  Last, f(u, u) is
    prod_i f(g_i, g_i)^(a_i^2) prod_(i<j) (f(g_i, g_j) f(g_j, g_i))^(a_i a_j),
    which is 1 by (A) and (S).  On Z2, beta(1, 0) = -1 and 1 elsewhere
    passes (A) and (M) but not (S).
    """

    def __init__(self, group: AbelianGroup, kind: CoefficientKind, ids):
        elements, self._index, add = support_table(group)
        n, order = len(elements), len(kind.roots)
        in_k = [x < len(row) and row[x] is not None for x, row in enumerate(ids)]
        outside = [False] * len(in_k)
        if len(ids) != n or any(list(map(operator.is_not, row, itertools.repeat(None))) != (
                in_k if x else outside) for x, row in zip(in_k, ids)):
            raise ValueError(f"bicharacter must be a {n} x {n} table of ids with a value "
                             "exactly on K x K, K read from its diagonal")
        k = [x for x in range(n) if in_k[x]]
        rows = list(map(list, ids)) if len(k) == n else {  # f on K x K, as lists
            x: list(map(ids[x].__getitem__, k)) for x in k}
        on_k = [rows[x] for x in k]
        if {*map(type, itertools.chain.from_iterable(on_k))} - {int} or \
                not set().union(*on_k) <= set(range(order)):
            raise ValueError(f"bicharacter ids must be ints in range({order}), "
                             "the exponents of kind.roots")
        self.group, self.kind, self.ids = group, kind, ids
        self.domain = tuple(elements[x] for x in k)
        gens, steps, span = [], [], {0}  # steps: (x, g, x + g), in tree order
        for x in k:
            if x in span:
                continue
            gens.append(x)
            coset = sorted(span)  # S_(j-1) + a g_j, from a = 0; 0 first
            while (multiple := add[coset[0]][x]) not in span:
                grown = [add[y][x] for y in coset]
                steps += zip(coset, [x] * len(coset), grown)
                span.update(grown)
                coset = grown
            steps.append((coset[0], x, multiple))  # the relation: o_j g_j in S_(j-1)
        if span != set(k):
            raise ValueError("bicharacter domain is not a subgroup")
        self.generators = tuple(gens)
        for x in (0, *gens):
            if ids[x][x]:
                raise ValueError(f"bicharacter is not alternating at {elements[x]}")
        for x, g, y in steps:
            if rows[y] != [(a + b) % order for a, b in zip(rows[x], rows[g])]:
                w = next(w for w, a, b, c in zip(k, rows[x], rows[g], rows[y])
                         if (a + b - c) % order)
                raise ValueError("bicharacter not multiplicative at "
                                 f"({elements[x]},{elements[g]},{elements[w]})")
        zeros = [0] * len(k)
        if any([(ids[x][g] + a) % order for x, a in zip(k, rows[g])] != zeros for g in gens):
            x, g = next((x, g) for x in k for g in gens if (ids[x][g] + ids[g][x]) % order)
            raise ValueError(f"bicharacter is not skew at ({elements[x]},{elements[g]})")

    def value(self, u, v):
        """beta(u, v); KeyError for a pair outside K x K."""
        a = self.ids[self._index[u]][self._index[v]]
        if a is None:
            raise KeyError((u, v))
        return self.kind.roots[a]

    def radical_elements(self) -> tuple:
        """The t in K with beta(t, g) = 1 at each of `generators`, so on K."""
        return tuple(t for t in self.domain
                     if not any(self.ids[self._index[t]][g] for g in self.generators))

    def conjugate(self) -> "Bicharacter":
        """beta-bar, the negated exponents, not checked again: conjugation is
        a ring automorphism of the coefficients, so it keeps every law."""
        order = len(self.kind.roots)
        other = object.__new__(Bicharacter)
        other.__dict__.update(vars(self), ids=[[None if a is None else -a % order for a in row]
                                                for row in self.ids])
        return other

    def is_self_conjugate(self) -> bool:
        order = len(self.kind.roots)
        return all(2 * a % order == 0 for a in set().union(*self.ids) - {None})

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


def _overlap_failure(orders, conj, powers, comm, modulus, names):
    """The first overlap word (in `names`) at which a presentation fails, or
    None; `powers[j]` and `comm[j][i]` (i < j) are the exponents of p_j and
    b_ji in `CoefficientKind.roots`, a cyclic group of order `modulus`: a
    product is a sum, and alpha_j a negation where X_j conjugates.

    With i < j < k, m_j = o(g_j) and N_j(b) = prod_(l < m_j) alpha_j^l(b),
    which is m_j b, or 0 for a conjugating X_j (b and -b alternate, and m_j
    is even by (1)), each check (1)-(5) below equates two reductions of the
    word it returns, so each is necessary.  Together they are sufficient, by
    induction: let B_j = <D_e, X_0 ... X_(j-1)> be free on its normal
    words, so presented by their relations.  B_(j+1) =
    B_j[Y; theta]/(Y^m - p), m = m_j, p = p_j,
    theta = alpha_j on D_e and theta(X_i) = b_ji X_i.  theta keeps B_j's
    relations: X_i c = alpha_i(c) X_i (the actions commute, and the values,
    allowed units, are central in D_e), X_i^m_i = p_i by (4), as (b_ji X_i)^m_i
    = N_i(b_ji) p_i, and X_k X_i = b_ki X_i X_k by (5) on i < k < j; it scales
    each normal word by a unit, so it is an automorphism.  By (2) theta(p) = p;
    theta^m is conjugation by p, on D_e by (1) (alpha_j^m = 1) and on X_i by
    (3) (N_j(b_ji) X_i = p alpha_i(p)^-1 X_i).  So (Y^m - p) r = p r p^-1
    (Y^m - p) and Y (Y^m - p) = (Y^m - p) Y: Y^m - p, monic, spans a two-sided
    ideal, and B_(j+1) is free over B_j on 1, Y, ..., Y^(m-1).  Hence D is
    free on the s(t), s(u) s(v) = tau(u, v) s(u + v), and associative: tau
    is a cocycle.
    """
    def alpha(j, a):
        return -a if conj[j] else a

    def norm(j, a):
        return 0 if conj[j] else orders[j] * a

    for j, (m, p) in enumerate(zip(orders, powers)):
        if conj[j] and m % 2:  # (1) a conjugating X_j has even order
            return f"{names[j]}^{m} c"
        if (alpha(j, p) - p) % modulus:  # (2) alpha_j(p_j) = p_j
            return f"{names[j]}^{m + 1}"
        for i in range(j):
            b = comm[j][i]
            if (norm(j, b) + alpha(i, p) - p) % modulus:  # (3) p_j = N_j(b) alpha_i(p_j)
                return f"{names[j]}^{m} {names[i]}"
            if (alpha(j, powers[i]) - norm(i, b) - powers[i]) % modulus:
                return f"{names[j]} {names[i]}^{orders[i]}"  # (4) alpha_j(p_i) = N_i(b) p_i
            for k in range(j + 1, len(orders)):
                # (5) with c = b_kj, d = b_ki: c alpha_j(d) b_ji = alpha_k(b_ji) d alpha_i(c)
                c, d = comm[k][j], comm[k][i]
                if (c + alpha(j, d) + b - alpha(k, b) - d - alpha(i, c)) % modulus:
                    return f"{names[k]} {names[j]} {names[i]}"
    return None


def _digit_steps(orders):
    """(v, v - g_j, j) for each nonzero position v of `support_table`, with
    j its last nonzero digit (the first whose stride divides v): s(v) = s(v - g_j) X_j."""
    strides = [math.prod(orders[j + 1:]) for j in range(len(orders))]
    for v in range(1, math.prod(orders)):
        j = next(j for j, s in enumerate(strides) if v % s == 0)
        yield v, v - strides[j], j


def _normal_words(orders, conj, powers, comm, modulus, add):
    """The exponents of tau, s(u) s(v) = tau(u, v) s(u + v) with s(t) =
    X_0^t_0 ... X_(r-1)^t_(r-1), on the positions of `add`, for a consistent
    presentation (exponents as in `_overlap_failure`).  In s(w) X_j, X_j
    crosses X_k^w_k (k > j), leaving prod_(l < w_k) alpha_k^l(b_kj), which is
    w_k b_kj, or (w_k mod 2) b_kj where X_k conjugates, to cross w_0 ...
    w_(k-1), which conjugate it when their conjugating digits sum to an odd
    number; if w_j = m_j - 1, p_j crosses w_0 ... w_(j-1).  Then s(v) =
    s(v') X_j (`_digit_steps`) gives tau(u, v) = tau(u, v') tau(u + v', g_j),
    one column v of tau at a time (T is abelian, so `add[w]` is a column).
    """
    r, col = len(orders), []
    below = [[comm[k][j] for k in range(j + 1, r)] for j in range(r)]  # the b_kj, k > j
    for d in itertools.product(*(range(m) for m in orders)):
        odd = itertools.accumulate(map(operator.mul, d, conj), initial=0)  # conjugating digits
        sign = [(-1) ** o for o in odd]
        runs = [s * (w % 2 if f else w) for s, w, f in zip(sign, d, conj)]
        last = [s * p if w == m - 1 else 0 for s, p, w, m in zip(sign, powers, d, orders)]
        col.append([(sum(map(operator.mul, runs[j + 1:], below[j])) + last[j]) % modulus
                    for j in range(r)])
    tau = [[0] * len(add)]  # tau[v][u] = tau(u, v), transposed at the end
    for v, w, j in _digit_steps(orders):
        tau.append([(a + col[x][j]) % modulus for a, x in zip(tau[w], add[w])])
    return [list(row) for row in zip(*tau)]


def build_crossed_product(support, kind, action, cocycle, type_tag=None) -> GradedDivisionAlgebra:
    """Validated crossed product with the given sigma.

    `action` is the collection of the elements that act by conjugation;
    `cocycle` maps element pairs to coefficient units, read once as their
    exponents in `kind.roots`.  Past the checks of the action, the units
    and the normalization, a presentation is read off sigma, with s(v) =
    lambda(v) X_v, lambda(v) = lambda(v') sigma(v', g_j) (`_digit_steps`).
    sigma is a cocycle iff it is consistent and sigma(u, v) lambda(u)
    alpha_u(lambda(v)) = tau(u, v) lambda(u + v) at each pair: a cocycle
    makes D associative, so both hold, and then c X_t -> c lambda(t) X_t is
    a ring isomorphism from the tau algebra.
    """
    elems, index, add = support_table(support)
    n, order = len(elems), len(kind.roots)
    missing = next(((u, v) for u in elems for v in elems if (u, v) not in cocycle), None)
    if missing:
        raise CocycleError("sigma undefined at ({}, {})".format(*missing))
    sigma = [[kind.exponent(cocycle[(u, v)]) for v in elems] for u in elems]
    action = frozenset(action)
    if any(g.group != support for g in action):
        raise ValueError("action defined outside the support")
    gens, conj = [index[g] for g in support.generators()], [t in action for t in elems]
    for u, g in itertools.product(range(n), gens or [0]):  # T = 0: its zero
        if (conj[u] ^ conj[g]) != conj[add[u][g]]:
            raise ValueError(f"action is not a group homomorphism at {elems[u]}, {elems[g]}")
    if any(None in row for row in sigma):
        u, v = next((u, v) for u in elems for v in elems if sigma[index[u]][index[v]] is None)
        raise CocycleError(f"sigma({u}, {v}) = {kind.coerce(cocycle[(u, v)])!r} "
                           "is not an allowed unit")
    for u in range(n):  # position 0 is the zero of T
        if sigma[0][u] or sigma[u][0]:
            raise CocycleError(f"sigma is not normalized at {elems[u]}")
    lam = [0] * n
    for v, w, j in _digit_steps(support.torsion):
        lam[v] = (lam[w] + sigma[w][gens[j]]) % order
    powers = [kind.roots[(lam[(m - 1) * g] + sigma[(m - 1) * g][g]) % order]
              for m, g in zip(support.torsion, gens)]
    comm = {(j, i): kind.roots[(sigma[g][h] - sigma[h][g]) % order]
            for j, g in enumerate(gens) for i, h in enumerate(gens[:j])}
    try:
        d = GradedDivisionAlgebra(support, kind, [conj[g] for g in gens], powers, comm, type_tag)
    except CocycleError:
        tau = None
    else:
        tau = d._sigma_ids
    if tau is not None and not any(
            (sigma[u][v] + lam[u] + (-lam[v] if conj[u] else lam[v]) - tau[u][v] - lam[add[u][v]])
            % order for u in range(n) for v in range(n)):
        d._sigma_ids = sigma
        return d
    # Refused: name the first (u, g, w), g a coordinate generator, at which the
    # identity fails.  One exists (Light): the m with (x m) y = x (m y) for all
    # x, y form a subalgebra; it holds D_e (sigma is normalized, alpha_u a ring
    # automorphism), and X_g iff the identity holds at every (u, g, w), as the
    # values commute with D_e.  D_e and the X_g generate D, not associative.
    for u, g, w in itertools.product(range(n), gens, range(n)):
        if (sigma[u][g] + sigma[add[u][g]][w] - (-sigma[g][w] if conj[u] else sigma[g][w])
                - sigma[u][add[g][w]]) % order:
            raise CocycleError(f"cocycle identity fails at ({elems[u]}, {elems[g]}, {elems[w]})",
                               witness=(elems[u], elems[g], elems[w]))
    raise AssertionError("a refused sigma passes the cocycle identity on every triple")


def commutation_bicharacter(d: GradedDivisionAlgebra) -> Bicharacter:
    """beta(u, v) = sigma(u, v) * sigma(v, u)^(-1) on the centralizer support K,
    memoized on d: the whole-support table of `Bicharacter`, the exponent
    difference of the two sigma exponents mod N on K x K and None elsewhere."""
    if d._beta is not None:
        return d._beta
    sigma, n, order = d._sigma_ids, len(d._elements), len(d.kind.roots)
    in_k = [not c for c in d._conj]
    ids = [[(a - b) % order if y else None for y, a, b in zip(in_k, row, col)] if x
           else [None] * n for x, row, col in zip(in_k, sigma, zip(*sigma))]
    d._beta = Bicharacter(d.support, d.kind, ids)
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
    whose cocycle value is not +-1 indicate a non-catalog cocycle.  As D is
    associative, mu(u + v) = beta(u, v) mu(u) mu(v) on an elementary T.
    """
    if d._quad is None:
        def sign_of(value):
            if value == d.kind.one():
                return 1
            if value == -d.kind.one():
                return -1
            raise ValueError(f"normalized square {value!r} is not +-1")

        total = d.kind.dim in (1, 4)
        d._quad = QuadraticData(total, {t: sign_of(d.sigma(t, t))
                                        for t in (d.elements() if total else d.conj_elements)})
    return d._quad


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
    ids, exponent = beta.ids, {1: 0, -1: beta.kind.exponent(-1)}  # a sign in roots
    gens = [index[g] for g in beta.group.generators()]
    gens = gens[:-1] or gens  # rank 1 keeps its one generator
    for u, sums in enumerate(add):
        for g in gens:
            if ids[u][g] != exponent[signs[sums[g]] * signs[u] * signs[g]]:
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
    ids = beta.ids
    eta0 = [1] * len(elements)
    for x in range(1, len(elements)):
        g = x & -x
        eta0[x] = eta0[x - g] if ids[x - g][g] == 0 else -eta0[x - g]  # 0: the exponent of 1
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

# Each block presents D on its own coordinates: (orders, conjugation flags,
# powers X_j^o(g_j), {(j, i): b_ji} with X_j X_i = b_ji X_i X_j).
# X_a, X_b the 2x2 real Pauli-type units: X_a X_b = -X_b X_a, squares +1
_PAULI = (2, 2), (False, False), (1, 1), {(1, 0): -1}
# X_a = i, X_b = j inside the quaternions: anticommute, squares -1
_QUATERNION = (2, 2), (False, False), (-1, -1), {(1, 0): -1}
# X_z central with X_z^2 = -1 (the complex unit viewed over the reals)
_CENTRAL_I = (2,), (False,), (-1,), {}
# X_a of order 2, X_s of order 4 with X_s^4 = -1, X_a X_s = -X_s X_a: the 1-d family
_Z2_Z4 = (2, 4), (False, False), (1, -1), {(1, 0): -1}
# X_g of order 2 acting on the coefficients by conjugation, X_g^2 = +1 or -1
_CONJ2 = {sign: ((2,), (True,), (sign,), {}) for sign in (1, -1)}
# X_s of order 4 acting by conjugation, X_s^4 = -1
_CONJ4 = (4,), (True,), (-1,), {}


def _assemble(blocks, kind_family, type_tag) -> GradedDivisionAlgebra:
    """The crossed product of `blocks` on consecutive coordinates; blocks commute."""
    orders, conj, powers, comm = (), (), (), {}
    for block_orders, block_conj, block_powers, block_comm in blocks:
        at = len(orders)
        comm.update({(j + at, i + at): b for (j, i), b in block_comm.items()})
        orders, conj, powers = orders + block_orders, conj + block_conj, powers + block_powers
    support = AbelianGroup(0, orders)
    exp = support.exponent()
    kind = CoefficientKind(kind_family, None if kind_family != "C" else exp if exp > 2 else 4)
    return GradedDivisionAlgebra(support, kind, conj, powers, comm, type_tag)


def canonical(type_tag: str, support) -> GradedDivisionAlgebra:
    """A concrete crossed-product representative of a catalog equivalence class.

    `support` may be an AbelianGroup or a string such as 'Z2xZ2' or 'Z3^2'.
    Each (tag, support) is built once per process: every spelling of the
    same group returns the same shared instance, to be read and not changed.
    """
    if not isinstance(type_tag, str):  # before the cache, which would hash it
        raise CatalogError(f"type tag {type_tag!r} is not a string")
    if isinstance(support, str):
        support = parse_group_string(support)
    return _canonical_entry(type_tag, support)


@functools.lru_cache(maxsize=64)
def _canonical_entry(type_tag: str, support: AbelianGroup) -> GradedDivisionAlgebra:
    """Each type is a list of blocks, which fits T when their orders are T's;
    on 2-f the clock and shift give sigma(u, v) = zeta^(-u_1 v_0)."""
    tag, family = type_tag, "C"
    if tag in ("3-a", "3-b", "3-c", "3-d"):  # the blocks of 1-a ... 1-d over H
        tag, family = "1-" + tag[-1], "H"
    elif tag.startswith("1-"):
        family = "R"
    tors = support.torsion
    half, twos = len(tors) // 2, tors.count(2)
    blocks = {
        "1-a": [_PAULI] * half,
        "1-b": [_QUATERNION] + [_PAULI] * (half - 1),
        "1-c": [_PAULI] * half + [_CENTRAL_I],
        "1-d": [_PAULI] * (twos // 2) + [_Z2_Z4],
        "2-a": [_CONJ2[1]] + [_PAULI] * half,
        "2-b": [_CONJ2[-1]] + [_PAULI] * half,
        "2-c": [_CONJ2[1], _CENTRAL_I] + [_PAULI] * (half - 1),
        "2-d": [_CONJ2[1]] + [_PAULI] * (twos // 2 - 1) + [_Z2_Z4],
        "2-e": [_PAULI] * (twos // 2) + [_CONJ4],
        # generalized clock and shift of size m: X_b X_a = zeta^-1 X_a X_b
        "2-f": [((m, m), (False, False), (1, 1), {(1, 0): zeta(m, m - 1)}) for m in tors[::2]],
    }.get(tag)
    if not support.is_finite() or blocks is not None and tors != tuple(
            m for block in blocks for m in block[0]):
        raise CatalogError(f"type {tag} is incompatible with support {support.pretty()}")
    if blocks is None:
        raise CatalogError(f"unknown type tag {type_tag!r}")
    return _assemble(blocks, family, type_tag)


def parse_catalog_ref(ref: str) -> GradedDivisionAlgebra:
    """Parse a catalog reference such as '2-f:Z3xZ3' or '1-b:Z2^2'."""
    tag, _, spec = ref.partition(":")
    tag = tag.strip()
    try:
        support = parse_group_string(spec)
    except ValueError as err:  # only the parse: an incompatible request passes as it is
        raise CatalogError(f"bad group string {spec.strip()!r}: {err}") from err
    if tag == "trivial" or (tag == "1-a" and not spec.strip()):
        return canonical("1-a", AbelianGroup.trivial())
    if not spec:
        raise CatalogError(f"catalog reference {ref!r} needs a support, e.g. '1-b:Z2xZ2'")
    return canonical(tag, support)


def underlying_algebra_name(d: GradedDivisionAlgebra) -> str:
    """Name of the ungraded algebra of a catalog entry, e.g. 'M2(C)' or 'H'; the
    dimension-2 types at their minimal representatives, 3-a ... 3-d as H (x) 1-a ... 1-d."""
    tag, order, root = d.type_tag, d.support.order(), math.isqrt
    if tag is None:
        raise CatalogError("underlying algebra names are catalog metadata")
    field, n = {
        "1-a": ("R", root(order)), "1-b": ("H", root(order) // 2),
        "1-c": ("C", root(order // 2)), "1-d": ("C", root(order // 2)), "2-f": ("C", root(order)),
        "2-a": ("R", root(2 * order)), "2-b": ("H", root(2 * order) // 2),
        "2-c": ("C", root(order)), "2-d": ("C", root(order)), "2-e": ("C", root(order)),
    }["1-" + tag[2] if tag.startswith("3-") else tag]
    name = field if n == 1 else f"M{n}({field})"
    return f"H (x) {name}" if tag.startswith("3-") else name
