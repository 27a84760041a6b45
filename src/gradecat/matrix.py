"""Graded matrix algebras M_k(D) with a degree tuple gamma.

A grading is determined by a graded-division algebra D with support T, an
ambient abelian group G, an embedding of T into G, and degrees
gamma = (g_1, ..., g_k); the basis element E_ij (x) d is homogeneous of
degree g_i - g_j + deg d.  The module decides the fine condition, the
fineness of the whole grading, counts homogeneous idempotents, classifies
squares per support class, and harvests the relations that present the
universal abelian group of the grading.
"""

from __future__ import annotations

from fractions import Fraction

from .abelian import (
    AbelianGroup,
    GroupElement,
    GroupHomomorphism,
    coset_rep,
    support_table,
    universal_abelian_group,
)
from .division import GradedDivisionAlgebra, is_fine_division, equivalent
# is_graded_simple is re-exported: perfbench/tracer.py wraps it by this name
from .structconst import StructureConstantAlgebra, _exact, is_graded_simple  # noqa: F401


class GradingError(ValueError):
    pass


class FineConditionResult:
    """Outcome of the fine-condition test, with a violation witness on failure."""

    __slots__ = ("ok", "witness")

    def __init__(self, ok: bool, witness=None):
        self.ok = ok
        self.witness = witness

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"FineConditionResult({self.ok}, witness={self.witness})"


class GradingParams:
    """Multiplicities, degrees, ambient group, and the embedding of the support."""

    def __init__(self, ambient: AbelianGroup, gamma, kappa, embed: GroupHomomorphism):
        self.ambient = ambient
        self.gamma = tuple(gamma)
        self.kappa = tuple(int(k) for k in kappa)
        self.embed = embed
        if len(self.gamma) != len(self.kappa):
            raise GradingError("kappa and gamma must have equal length")
        if not self.gamma:
            raise GradingError("the module V must be nonzero (k >= 1)")
        if any(k < 1 for k in self.kappa):
            raise GradingError("multiplicities must be positive")
        for g in self.gamma:
            if g.group != ambient:
                raise GradingError("degrees must lie in the ambient group")
        if embed.target != ambient:
            raise GradingError("support embedding must land in the ambient group")
        self._support_image = frozenset(embed(t) for t in embed.source.elements())
        if len(self._support_image) != embed.source.order():
            raise GradingError("support embedding must be injective")
        # distinct isotypic supports: g_i and g_j must differ mod T for i != j
        classes = [self._coset_key(g) for g in self.gamma]
        if len(set(classes)) != len(classes):
            raise GradingError("isotypic degrees must be distinct modulo T")

    def _coset_key(self, g: GroupElement):
        return coset_rep(g, self._support_image).coords

    @property
    def k(self) -> int:
        return sum(self.kappa)


class GradedMatrixAlgebra:
    """M_k(D) with its elementary grading refined by the division grading on D."""

    def __init__(self, division: GradedDivisionAlgebra, params: GradingParams):
        if params.embed.source != division.support:
            raise GradingError("params embed a different support than D carries")
        self.division = division
        self.params = params
        # expanded degree list: one degree per row/column of the matrix
        expanded = []
        for g, mult in zip(params.gamma, params.kappa):
            expanded.extend([g] * mult)
        self.gamma = tuple(expanded)

    @property
    def k(self) -> int:
        return len(self.gamma)

    @property
    def ambient(self) -> AbelianGroup:
        return self.params.ambient

    def degree_of(self, i: int, j: int, t: GroupElement) -> GroupElement:
        """deg(E_ij (x) d) = g_i - g_j + deg d, 0-based indices."""
        if not (0 <= i < self.k and 0 <= j < self.k):
            raise GradingError(f"index pair ({i}, {j}) out of range for k = {self.k}")
        if t.group != self.division.support:
            raise GradingError("degree must lie in the support of D")
        return self.gamma[i] - self.gamma[j] + self.params.embed(t)

    def zero_element(self) -> "GradedElement":
        return GradedElement(self, {})

    def one(self) -> "GradedElement":
        one = self.division.one()
        return GradedElement(self, {(i, i): one for i in range(self.k)})

    def basis_element(self, i: int, j: int, t: GroupElement, coeff=1) -> "GradedElement":
        return GradedElement(self, {(i, j): self.division.unit(t, coeff)})

    def component_degrees(self) -> list:
        degs = set()
        for t in self.division.elements():
            for i in range(self.k):
                for j in range(self.k):
                    degs.add(self.degree_of(i, j, t))
        return sorted(degs, key=lambda d: d.coords)

    def __repr__(self):
        return f"GradedMatrixAlgebra(k={self.k}, D={self.division!r})"


class GradedElement:
    """A k x k matrix with entries in D."""

    __slots__ = ("algebra", "entries")

    def __init__(self, algebra: GradedMatrixAlgebra, entries):
        self.algebra = algebra
        self.entries = {pos: val for pos, val in entries.items() if not val.is_zero()}

    def _check(self, other):
        if not isinstance(other, GradedElement) or other.algebra is not self.algebra:
            raise GradingError("elements belong to different matrix algebras")

    def __add__(self, other):
        self._check(other)
        out = dict(self.entries)
        for pos, val in other.entries.items():
            out[pos] = out[pos] + val if pos in out else val
        return GradedElement(self.algebra, out)

    def __neg__(self):
        return GradedElement(self.algebra, {pos: -val for pos, val in self.entries.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out: dict = {}
        for (i, j), x in self.entries.items():
            for (h, l), y in other.entries.items():
                if j != h:
                    continue
                prod = x * y
                if (i, l) in out:
                    out[(i, l)] = out[(i, l)] + prod
                else:
                    out[(i, l)] = prod
        return GradedElement(self.algebra, out)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        if other.algebra is not self.algebra:
            return False
        keys = set(self.entries) | set(other.entries)
        for key in keys:
            a = self.entries.get(key)
            b = other.entries.get(key)
            if a is None or b is None:
                if (a or b) and not (a or b).is_zero():
                    return False
            elif a != b:
                return False
        return True

    __hash__ = None

    def support_degrees(self) -> set:
        degs = set()
        for (i, j), val in self.entries.items():
            for t in val.terms:
                degs.add(self.algebra.degree_of(i, j, t))
        return degs

    def is_homogeneous(self) -> bool:
        return len(self.support_degrees()) <= 1

    def __repr__(self):
        if not self.entries:
            return "0"
        return " + ".join(f"E[{i},{j}]({val!r})" for (i, j), val in sorted(self.entries.items()))


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------

def canonical_ambient(division: GradedDivisionAlgebra, k: int):
    """The universal-shape ambient Z^(k-1) x T with the obvious embedding."""
    t = division.support
    ambient = AbelianGroup(k - 1, t.torsion)
    images = []
    for i in range(len(t.torsion)):
        coords = [0] * ambient.rank
        coords[k - 1 + i] = 1
        images.append(ambient.element(coords))
    embed = GroupHomomorphism(t, ambient, images)
    gamma = [ambient.zero()]
    for i in range(k - 1):
        coords = [0] * ambient.rank
        coords[i] = 1
        gamma.append(ambient.element(coords))
    return ambient, gamma, embed


def matrix_algebra(division: GradedDivisionAlgebra, k: int = None, gamma=None,
                   ambient: AbelianGroup = None, embed: GroupHomomorphism = None,
                   kappa=None) -> GradedMatrixAlgebra:
    """Build M_k(D).  With no ambient given, degrees live in Z^(k-1) x T with
    gamma = (0, e_1, ..., e_{k-1}), the universal realization."""
    if ambient is None:
        if k is None:
            k = len(gamma) if gamma is not None else 1
        ambient, default_gamma, embed = canonical_ambient(division, k)
        if gamma is None:
            gamma = default_gamma
    else:
        if gamma is None:
            raise GradingError("explicit ambient groups need explicit degrees")
        if embed is None:
            if division.support.is_trivial():
                embed = GroupHomomorphism(division.support, ambient, [])
            else:
                raise GradingError("an embedding of the support is required")
    gamma = list(gamma)
    if kappa is None:
        kappa = [1] * len(gamma)
    params = GradingParams(ambient, gamma, kappa, embed)
    return GradedMatrixAlgebra(division, params)


# ---------------------------------------------------------------------------
# the fine condition and fineness
# ---------------------------------------------------------------------------

def fine_condition(params: GradingParams) -> FineConditionResult:
    """k_i = 1 for all i, and the difference classes g_i - g_j (i != j) are
    pairwise distinct modulo T."""
    for idx, mult in enumerate(params.kappa):
        if mult != 1:
            return FineConditionResult(False, ("multiplicity", idx, mult))
    seen = {}
    k = len(params.gamma)
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            key = params._coset_key(params.gamma[i] - params.gamma[j])
            if key in seen:
                return FineConditionResult(False, ("difference", seen[key], (i, j)))
            seen[key] = (i, j)
    return FineConditionResult(True)


def is_fine(r: GradedMatrixAlgebra) -> bool:
    """Fineness of the whole grading: fine condition plus a fine division grading."""
    return bool(fine_condition(r.params)) and is_fine_division(r.division)


def equivalent_gradings(r1: GradedMatrixAlgebra, r2: GradedMatrixAlgebra) -> bool:
    """Under the fine condition: equivalent iff k = k' and D ~ D'."""
    if not fine_condition(r1.params) or not fine_condition(r2.params):
        raise GradingError("the equivalence criterion assumes the fine condition")
    return r1.k == r2.k and equivalent(r1.division, r2.division)


# ---------------------------------------------------------------------------
# idempotents
# ---------------------------------------------------------------------------

def _diagonal_key(x: GradedElement) -> frozenset:
    return frozenset(i for i, j in x.entries if i == j)


def homogeneous_idempotents(r: GradedMatrixAlgebra):
    """(all, primitive) homogeneous idempotents of M_k(D).

    Homogeneous idempotents have degree e and live in the identity component
    R_e = diag(D_e, ..., D_e); since D_e is one of the exact division rings,
    the scalar equation c^2 = c only has the solutions 0 and 1, so the
    idempotents are exactly the 0/1 diagonal matrices.  Primitivity is
    decided by searching for an orthogonal decomposition inside the set.
    """
    if not fine_condition(r.params):
        raise GradingError("idempotent counting assumes the fine condition")
    k = r.k
    one = r.division.one()
    found = []
    for mask in range(2 ** k):
        entries = {(i, i): one for i in range(k) if (mask >> i) & 1}
        candidate = GradedElement(r, entries)
        if candidate * candidate == candidate:
            found.append(candidate)
    # an element equal to a member of `found` has that member's nonzero
    # diagonal positions: look it up by them, then confirm with one ==
    by_diagonal = {_diagonal_key(eps): eps for eps in found}
    zero = r.zero_element()
    primitive = []
    for eps in found:
        if eps.is_zero():
            continue
        decomposable = False
        for delta in found:
            if delta.is_zero() or delta is eps:  # the members of found are distinct
                continue
            mu = eps - delta
            if mu.is_zero():
                continue
            hit = by_diagonal.get(_diagonal_key(mu))
            if hit is None or hit != mu:
                continue
            if (delta * mu) == zero and (mu * delta) == zero:
                decomposable = True
                break
        if not decomposable:
            primitive.append(eps)
    return found, primitive


# ---------------------------------------------------------------------------
# squares dichotomy
# ---------------------------------------------------------------------------

NONZERO_SQUARES = "NONZERO_SQUARES"
ZERO_SQUARES = "ZERO_SQUARES"


def squares_profile(r: GradedMatrixAlgebra) -> dict:
    """Classify each support class g + T by whether nonzero elements of R_g square
    to zero; the outcome must match membership of the class in the diagonal
    classes (i = j), and a mismatch raises."""
    if not fine_condition(r.params):
        raise GradingError("the squares dichotomy assumes the fine condition")
    coeff_samples = [1]
    if r.division.kind.family == "C":
        from .scalars import zeta

        coeff_samples.append(1 + zeta(r.division.kind.conductor))
    elif r.division.kind.family == "H":
        from .scalars import RationalQuaternion

        coeff_samples.append(RationalQuaternion(1, 2, 0, 3))
    else:
        coeff_samples.append(Fraction(-7, 3))
    profile: dict = {}
    for i in range(r.k):
        for j in range(r.k):
            for t in r.division.elements():
                key = r.params._coset_key(r.gamma[i] - r.gamma[j])
                outcomes = set()
                for c in coeff_samples:
                    x = r.basis_element(i, j, t, c)
                    outcomes.add((x * x).is_zero())
                if len(outcomes) != 1:
                    raise GradingError(f"inconsistent squares inside class {key}")
                verdict = ZERO_SQUARES if outcomes.pop() else NONZERO_SQUARES
                expected = NONZERO_SQUARES if i == j else ZERO_SQUARES
                if verdict != expected:
                    raise GradingError(
                        f"squares dichotomy violated at E[{i},{j}] (x) X_{t}"
                    )
                previous = profile.get(key)
                if previous is not None and previous != verdict:
                    raise GradingError(f"class {key} received both verdicts")
                profile[key] = verdict
    return profile


# ---------------------------------------------------------------------------
# universal group and component counts
# ---------------------------------------------------------------------------

def harvest_universal_group(r: GradedMatrixAlgebra):
    """Present the universal abelian group by the relations
    r(x, y) = L(x) + L(y) - L(xy) on the degree labels L, for every basis
    element x = E_ij (x) X_t and every y = E_jl (x) X_s in the set H of
    right factors: u_j = E_(j,j+1) (x) X_0 for j < k - 1, and E_00 (x) X_g
    for the coordinate generators g of T (E_00 (x) X_0 if T = 0).  Here xy
    stands for the basis element that the product is a multiple of.

    These relations span the lattice S of all of them, so the group is
    that of all nonzero products.  First, L(0) is in S: it is
    r(E_00 (x) X_0, E_00 (x) X_g), or r(E_00 (x) X_0, E_00 (x) X_0) when
    T = 0.  Next, with f_j = E_(j+1,j) (x) X_0 and x f_j != 0, x f_j u_j is
    a multiple of x and f_j u_j one of E_(j+1,j+1) (x) X_0, of degree 0, so
    r(x, f_j) = r(f_j, u_j) - r(x f_j, u_j) + L(0) is in S as well.  So S
    holds r(x, g) for every g in G = H + {f_j}, which generates the basis
    monoid.  A product of basis elements is 0 or a nonzero multiple of a
    basis element, and D is validated associative, so
    r(x, y1 y2) = r(x, y1) + r(x y1, y2) - r(y1, y2) whenever x y1 y2 != 0,
    and then x y1 != 0 and y1 y2 != 0 too.  Every basis element is a
    multiple of a word in G with nonzero prefixes (E_jl (x) X_s =
    E_j0 (E_00 (x) X_s) E_0l), so induction on the length of the word in y
    puts each r(x, y) in S.
    """
    elems = r.division.elements()
    _, at, add = support_table(r.division.support)
    k, n = r.k, len(elems)
    labels = []
    index = {}
    # ids[i][j][t]: label id of deg(E_ij (x) X_t), one degree_of per (i, j, t)
    ids = [[[0] * n for _ in range(k)] for _ in range(k)]
    for i in range(k):
        for j in range(k):
            for t, x in enumerate(elems):
                d = r.degree_of(i, j, x).coords
                if d not in index:
                    index[d] = len(labels)
                    labels.append(d)
                ids[i][j][t] = index[d]
    # H as (j, l, s): y = E_jl (x) X_s, with s a support position
    right = [(0, 0, at[g]) for g in r.division.support.generators()] or [(0, 0, 0)]
    right += [(j, j + 1, 0) for j in range(k - 1)]
    # (E_ij (x) X_t)(E_jl (x) X_s) is never zero over D and relates the
    # label ids a, b, c of the two factors and the product
    triples = {
        (ids[i][j][t], ids[j][l][s], ids[i][l][add[t][s]])
        for j, l, s in right for i in range(k) for t in range(n)
    }
    relations = set()
    for a, b, c in triples:
        vec = [0] * len(labels)
        vec[a] += 1
        vec[b] += 1
        vec[c] -= 1
        relations.add(tuple(vec))  # never zero: its entries sum to 1
    group, projection = universal_abelian_group(labels, relations)
    return group, {label: projection[label] for label in labels}


def expected_universal_group(r: GradedMatrixAlgebra) -> AbelianGroup:
    """Z^(k-1) x T in normal form."""
    return AbelianGroup(r.k - 1, r.division.support.torsion)


def component_count(r: GradedMatrixAlgebra) -> int:
    return len(r.component_degrees())


def expected_component_count(r: GradedMatrixAlgebra) -> int:
    k = r.k
    return (k * k - k + 1) * r.division.support.order()


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def to_structure_constants(r: GradedMatrixAlgebra) -> StructureConstantAlgebra:
    """Lossless rational structure constants for M_k(D) = M_k(Q) (x) D.

    D's table is read once from the validated sigma ids: with b, b' on the
    Q-basis of the coefficients, (b X_t)(b' X_s) = b alpha_t(b') sigma(t, s)
    X_(t+s), a unit and so never zero.  It is placed in every block
    (i, j, l) by E_ij E_jl = E_il.  Basis element (i, j, t, b) has index
    ((i k + j) |T| + t) w + b, with t a support position and w the width
    of the coefficient basis.  Each distinct coefficient is converted once,
    to an int when it is integral.
    """
    d = r.division
    kind, units, sigma, add = d.kind, d._units, d._sigma_ids, d._add
    elems = d.elements()
    basis = [units.intern(b) for b in kind.basis()]
    width, k = len(basis), r.k
    block = len(elems) * width
    coords = {}  # product id -> its nonzero (b3, c) on the Q-basis
    rows = []  # rows[t w + b1]: (s w + b2, [((t + s) w + b3, c), ...]) per column
    for t in range(len(elems)):
        images = [units.conj(b) for b in basis] if elems[t] in d.conj_elements else basis
        for b1 in basis:
            row = []
            for s in range(len(elems)):
                at = add[t][s] * width
                for b2, image in enumerate(images):
                    p = units.mul(units.mul(b1, image), sigma[t][s])
                    if p not in coords:
                        coords[p] = [(b3, _exact(c)) for b3, c in
                                     enumerate(kind.to_vector(units.values[p])) if c]
                    row.append((s * width + b2, [(at + b3, c) for b3, c in coords[p]]))
            rows.append(row)
    labels, degrees, table = [], [], {}
    for i in range(k):
        for j in range(k):
            for p, row in enumerate(rows):
                t = elems[p // width]
                labels.append(f"E[{i},{j}]X{t.coords}:{p % width}")
                degrees.append(r.degree_of(i, j, t))
                left = (i * k + j) * block + p
                for l in range(k):
                    right, out = (j * k + l) * block, (i * k + l) * block
                    for q, entry in row:
                        table[(left, right + q)] = {out + c: v for c, v in entry}
    unity = {(i * k + i) * block: 1 for i in range(k)}
    return StructureConstantAlgebra(labels, degrees, table, unity)
