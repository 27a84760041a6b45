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
    support_table,
    universal_abelian_group,
)
from .division import GradedDivisionAlgebra, is_fine_division, equivalent
from .scalars import RationalQuaternion, _rational, zeta
# is_graded_simple is re-exported: perfbench/tracer.py wraps it by this name
from .structconst import StructureConstantAlgebra, is_graded_simple  # noqa: F401


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
    """Multiplicities, degrees, ambient group, and the embedding of the support.

    The embedded support is kept as integer columns, one per coordinate of
    G, each over the support positions of `support_table`: `_coset(g)` adds
    g to them, so a coset g + T is read with no GroupElement operation.
    """

    def __init__(self, ambient: AbelianGroup, gamma, kappa, embed: GroupHomomorphism):
        self.ambient = ambient
        self.gamma = tuple(gamma)
        self.kappa = tuple(kappa)
        for i, k in enumerate(self.kappa):
            if type(k) is not int:  # int() would truncate 1.7 and read True as 1
                raise GradingError(f"multiplicity kappa[{i}] = {k!r} is not an int")
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
        elements = support_table(embed.source)[0]
        self._mods = (0,) * ambient.free_rank + ambient.torsion
        self._columns = list(zip(*(embed(t).coords for t in elements)))
        self._size = len(elements)
        if len(set(self._coset(ambient.zero()))) != self._size:
            raise GradingError("support embedding must be injective")
        # distinct isotypic supports: g_i and g_j must differ mod T for i != j
        classes = [self._coset_key(g) for g in self.gamma]
        if len(set(classes)) != len(classes):
            raise GradingError("isotypic degrees must be distinct modulo T")

    def _coset(self, g: GroupElement) -> list:
        """The coordinates of g + embed(t) over the support positions t,
        torsion coordinates reduced."""
        sums = [[(b + c) % m if m else b + c for c in col] if b else col
                for b, col, m in zip(g.coords, self._columns, self._mods)]
        return list(zip(*sums)) if sums else [()] * self._size  # G = 0 has one degree

    def _coset_key(self, g: GroupElement) -> tuple:
        """The least coordinates in the coset g + T."""
        return min(self._coset(g))


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

    def degree_labels(self):
        """(labels, ids): the distinct degree coordinates of the basis
        elements, in order of first appearance over (i, j, t), and
        ids[i][j][t], the index in `labels` of deg(E_ij (x) X_t) for the
        support position t.  Block (i, j) is the coset g_i - g_j + T, read
        off `GradingParams._coset`, so the k^2 |T| degrees take k^2
        GroupElement operations."""
        index = {}  # degree coordinates -> label index, in order of first appearance
        ids = [[[index.setdefault(d, len(index)) for d in self.params._coset(gi - gj)]
                for gj in self.gamma] for gi in self.gamma]
        return list(index), ids

    def component_degrees(self) -> list:
        """The degrees of the homogeneous components, sorted by coordinates."""
        return sorted((self.ambient.element(d) for d in self.degree_labels()[0]),
                      key=lambda d: d.coords)

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
        return other.algebra is self.algebra and self.entries == other.entries

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

def homogeneous_idempotents(r: GradedMatrixAlgebra):
    """(all, primitive) homogeneous idempotents of M_k(D).

    Homogeneous idempotents have degree e and live in the identity component
    R_e = diag(D_e, ..., D_e); since D_e is one of the exact division rings,
    the scalar equation c^2 = c only has the solutions 0 and 1, so the
    idempotents are exactly the 0/1 diagonal matrices.  A nonzero eps is
    primitive exactly when no delta in the set other than 0 and eps has
    eps delta = delta = delta eps.  If such a delta exists, mu = eps - delta
    is a homogeneous idempotent, so in the set, with delta mu = mu delta = 0:
    eps = delta + mu is an orthogonal decomposition.  Conversely, such a
    decomposition gives eps delta = (delta + mu) delta = delta, and
    delta eps = delta likewise.
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
    primitive = [
        eps for eps in found
        if not eps.is_zero() and not any(
            not delta.is_zero() and delta is not eps  # the members of found are distinct
            and eps * delta == delta == delta * eps
            for delta in found)
    ]
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
        coeff_samples.append(1 + zeta(r.division.kind.conductor))
    elif r.division.kind.family == "H":
        coeff_samples.append(RationalQuaternion(1, 2, 0, 3))
    else:
        coeff_samples.append(Fraction(-7, 3))
    profile: dict = {}
    for i in range(r.k):
        for j in range(r.k):
            key = r.params._coset_key(r.gamma[i] - r.gamma[j])
            for t in r.division.elements():
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

    The labels are those of `degree_labels`, and each r(x, y) goes to
    `universal_abelian_group` as a sparse vector of at most three terms.
    """
    _, at, add = support_table(r.division.support)
    labels, ids = r.degree_labels()
    k, n = r.k, r.division.support.order()
    # H as (j, l, s): y = E_jl (x) X_s, with s a support position
    right = [(0, 0, at[g]) for g in r.division.support.generators()] or [(0, 0, 0)]
    right += [(j, j + 1, 0) for j in range(k - 1)]
    # (E_ij (x) X_t)(E_jl (x) X_s) is never zero over D and relates the
    # label ids a, b, c of the two factors and the product
    triples = set()
    for j, l, s in right:
        plus_s = [row[s] for row in add]  # t -> t + s
        for i in range(k):
            triples.update(zip(ids[i][j], [ids[j][l][s]] * n, map(ids[i][l].__getitem__, plus_s)))
    # L_a + L_b - L_c once per distinct vector: e_(a + b - c) when c is a or b
    relations, unit_vectors = {}, set()
    for a, b, c in triples:
        if c == a or c == b:
            unit_vectors.add(a + b - c)
        else:
            relations[(a, b) if a < b else (b, a), c] = {a: 2, c: -1} if a == b else \
                {a: 1, b: 1, c: -1}
    return universal_abelian_group(labels, [*relations.values(), *({x: 1} for x in unit_vectors)])


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

    D's table is read once from the validated sigma exponents: with b, b'
    on the Q-basis of the coefficients, (b X_t)(b' X_s) = b alpha_t(b')
    sigma(t, s) X_(t+s), a unit and so never zero.  It is placed in every
    block (i, j, l) by E_ij E_jl = E_il.  Basis element (i, j, t, b) has
    index ((i k + j) |T| + t) w + b, with t a support position and w the
    width of the coefficient basis.  The basis is not in the roots of unity
    (H's i, j, k are not central), so the products are values, each
    b alpha_t(b') sigma(t, s) multiplied and converted once, to ints where
    integral, per (alpha_t, b, b', exponent of sigma(t, s)).  The degrees
    are those of `degree_labels`, one GroupElement per distinct degree.
    """
    d = r.division
    kind, sigma, add = d.kind, d._sigma_ids, d._add
    elems, basis = d.elements(), kind.basis()
    width, k = len(basis), r.k
    block = len(elems) * width
    images = {c: [kind.conjugate(b) for b in basis] if c else basis for c in (False, True)}
    coords = {}  # (conjugating, b1, b2, sigma exponent) -> nonzero (b3, c) of the product
    rows = []  # rows[t w + b1]: (s w + b2, [((t + s) w + b3, c), ...]) per column
    for t in range(len(elems)):
        conj = d._conj[t]
        for b1 in range(width):
            row = []
            for s in range(len(elems)):
                at, e = add[t][s] * width, sigma[t][s]
                for b2 in range(width):
                    entry = coords.get((conj, b1, b2, e))
                    if entry is None:
                        value = basis[b1] * images[conj][b2] * kind.roots[e]
                        entry = coords[(conj, b1, b2, e)] = [
                            (b3, _rational(c)) for b3, c in enumerate(kind.to_vector(value)) if c]
                    row.append((s * width + b2, [(at + b3, c) for b3, c in entry]))
            rows.append(row)
    degree_coords, ids = r.degree_labels()
    points = [r.ambient.element(c) for c in degree_coords]
    labels, degrees, table = [], [], {}
    for i in range(k):
        for j in range(k):
            for p, row in enumerate(rows):
                t, b = divmod(p, width)
                labels.append(f"E[{i},{j}]X{elems[t].coords}:{b}")
                degrees.append(points[ids[i][j][t]])
                left = (i * k + j) * block + p
                for l in range(k):
                    right, out = (j * k + l) * block, (i * k + l) * block
                    for q, entry in row:
                        table[(left, right + q)] = {out + c: v for c, v in entry}
    unity = {(i * k + i) * block: 1 for i in range(k)}
    return StructureConstantAlgebra(labels, degrees, table, unity)
