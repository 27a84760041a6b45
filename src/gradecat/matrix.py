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
from .records import FrozenRecord
from .scalars import RationalQuaternion, _rational, zeta
# is_graded_simple is re-exported: perfbench/tracer.py wraps it by this name
from .structconst import StructureConstantAlgebra, is_graded_simple  # noqa: F401


class GradingError(ValueError):
    pass


class FineConditionResult(FrozenRecord):
    """Outcome of the fine-condition test, with a violation witness on failure."""

    __slots__ = ("ok", "witness")
    _defaults = {"witness": None}

    def __bool__(self):
        return self.ok


class GradedMatrixAlgebra:
    """M_k(D) with its elementary grading refined by the division grading on D.

    The grading is an ambient group G, an embedding of the support T of D
    into G, and isotypic degrees g_i with multiplicities kappa_i, distinct
    modulo T; `gamma` is the row degrees, each g_i repeated kappa_i times.
    The embedded support is kept as integer columns, one per coordinate of
    G, each over the support positions of `support_table`: `_coset(g)` adds
    g to them, so a coset g + T is read with no GroupElement operation.
    """

    def __init__(self, division: GradedDivisionAlgebra, ambient: AbelianGroup, gamma, kappa,
                 embed: GroupHomomorphism):
        gamma, kappa = tuple(gamma), tuple(kappa)
        for i, m in enumerate(kappa):
            if type(m) is not int:  # int() would truncate 1.7 and read True as 1
                raise GradingError(f"multiplicity kappa[{i}] = {m!r} is not an int")
        if len(gamma) != len(kappa):
            raise GradingError("kappa and gamma must have equal length")
        if not gamma:
            raise GradingError("the module V must be nonzero (k >= 1)")
        if any(m < 1 for m in kappa):
            raise GradingError("multiplicities must be positive")
        if any(g.group != ambient for g in gamma):
            raise GradingError("degrees must lie in the ambient group")
        if embed.target != ambient:
            raise GradingError("support embedding must land in the ambient group")
        if embed.source != division.support:
            raise GradingError("support embedding must start at the support of D")
        self.division, self.ambient, self.kappa, self.embed = division, ambient, kappa, embed
        elements = support_table(embed.source)[0]
        self._mods = (0,) * ambient.free_rank + ambient.torsion
        self._columns = list(zip(*(embed(t).coords for t in elements)))
        self._size = len(elements)
        if len(set(self._coset(ambient.zero()))) != self._size:
            raise GradingError("support embedding must be injective")
        if len({self._coset_key(g) for g in gamma}) != len(gamma):
            raise GradingError("isotypic degrees must be distinct modulo T")
        self.gamma = tuple(g for g, m in zip(gamma, kappa) for _ in range(m))

    @property
    def k(self) -> int:
        return len(self.gamma)

    def _coset(self, g: GroupElement) -> list:
        """The coordinates of g + embed(t) over the support positions t,
        torsion coordinates reduced."""
        sums = [[(b + c) % m if m else b + c for c in col] if b else col
                for b, col, m in zip(g.coords, self._columns, self._mods)]
        return list(zip(*sums)) if sums else [()] * self._size  # G = 0 has one degree

    def _coset_key(self, g: GroupElement) -> tuple:
        """The least coordinates in the coset g + T."""
        return min(self._coset(g))

    def degree_of(self, i: int, j: int, t: GroupElement) -> GroupElement:
        """deg(E_ij (x) d) = g_i - g_j + deg d, 0-based indices."""
        if not (0 <= i < self.k and 0 <= j < self.k):
            raise GradingError(f"index pair ({i}, {j}) out of range for k = {self.k}")
        if t.group != self.division.support:
            raise GradingError("degree must lie in the support of D")
        return self.gamma[i] - self.gamma[j] + self.embed(t)

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
        off `_coset`, so the k^2 |T| degrees take k^2 GroupElement
        operations."""
        index = {}  # degree coordinates -> label index, in order of first appearance
        ids = [[[index.setdefault(d, len(index)) for d in self._coset(gi - gj)]
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

def matrix_algebra(division: GradedDivisionAlgebra, k: int = None, gamma=None,
                   ambient: AbelianGroup = None, embed: GroupHomomorphism = None,
                   kappa=None) -> GradedMatrixAlgebra:
    """Build M_k(D).  With no ambient given, degrees live in Z^(k-1) x T, T
    on the last coordinates, with gamma = (0, e_1, ..., e_{k-1}), the
    universal realization."""
    if ambient is None:
        if k is None:
            k = len(gamma) if gamma is not None else 1
        ambient = AbelianGroup(k - 1, division.support.torsion)
        generators = ambient.generators()
        embed = GroupHomomorphism(division.support, ambient, generators[k - 1:])
        if gamma is None:
            gamma = [ambient.zero(), *generators[:k - 1]]
    elif gamma is None:
        raise GradingError("explicit ambient groups need explicit degrees")
    elif embed is None:
        if not division.support.is_trivial():
            raise GradingError("an embedding of the support is required")
        embed = GroupHomomorphism(division.support, ambient, [])
    gamma = list(gamma)
    kappa = [1] * len(gamma) if kappa is None else kappa
    return GradedMatrixAlgebra(division, ambient, gamma, kappa, embed)


# ---------------------------------------------------------------------------
# the fine condition and fineness
# ---------------------------------------------------------------------------

def fine_condition(r: GradedMatrixAlgebra) -> FineConditionResult:
    """k_i = 1 for all i, and the difference classes g_i - g_j (i != j) are
    pairwise distinct modulo T; with every k_i = 1 the row degrees are the
    isotypic ones."""
    for idx, mult in enumerate(r.kappa):
        if mult != 1:
            return FineConditionResult(False, ("multiplicity", idx, mult))
    seen = {}
    for i, gi in enumerate(r.gamma):
        for j, gj in enumerate(r.gamma):
            if i == j:
                continue
            key = r._coset_key(gi - gj)
            if key in seen:
                return FineConditionResult(False, ("difference", seen[key], (i, j)))
            seen[key] = (i, j)
    return FineConditionResult(True)


def is_fine(r: GradedMatrixAlgebra) -> bool:
    """Fineness of the whole grading: fine condition plus a fine division grading."""
    return bool(fine_condition(r)) and is_fine_division(r.division)


def equivalent_gradings(r1: GradedMatrixAlgebra, r2: GradedMatrixAlgebra) -> bool:
    """Under the fine condition: equivalent iff k = k' and D ~ D'."""
    if not fine_condition(r1) or not fine_condition(r2):
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
    if not fine_condition(r):
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
    if not fine_condition(r):
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
            key = r._coset_key(r.gamma[i] - r.gamma[j])
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
    r(x, y) = L(x) + L(y) - L(xy) on the degree labels L, for the y =
    E_jl (x) X_s in the set H of right factors and the basis elements
    x = E_ij (x) X_t paired with them.  H holds u_j = E_(j,j+1) (x) X_0 for
    j < k - 1, paired with every x, and E_00 (x) X_(e_j) for the coordinate
    generators e_j of T, paired with the x = E_i0 (x) X_t for t in
    T_j = <e_j, ..., e_(r-1)> (E_00 (x) X_0, with every x, if T = 0).  Here
    xy stands for the basis element that the product is a multiple of.
    That is k(k - 1)|T| + k sum_j |T_j| products (k(k - 1) + k if T = 0),
    and |T_j| <= |T| / 2^j bounds the second term by 2k|T| whatever the
    rank of T.

    The pairs left out add nothing.  Fix i and write
    p(t, s) = r(E_i0 (x) X_t, E_00 (x) X_s).  Each side of
    p(a + e_m, e_j) = p(a, e_j) - p(a, e_m) + p(a + e_j, e_m) is
    L(E_i0 X_(a+e_m)) + L(E_00 X_(e_j)) - L(E_i0 X_(a+e_m+e_j)), so the
    identity holds formally.  Let t be outside T_j, m < j its first nonzero
    coordinate and a = t - e_m.  Then a and a + e_j are zero below m, so
    they lie in T_m and p(a, e_m), p(a + e_j, e_m) are passed.  The
    coordinates of a below j, each read as its least nonnegative residue,
    sum to one less than those of t, so induction on that sum puts
    p(a, e_j), and so p(t, e_j), in the span of the relations passed,
    which is therefore the span of all nonzero r(x, y) with y in H.

    These relations span the lattice S of all of them, so the group is
    that of all nonzero products.  First, L(0) is in S: it is
    r(E_00 (x) X_0, E_00 (x) X_(e_j)), passed as 0 lies in every T_j, or
    r(E_00 (x) X_0, E_00 (x) X_0) when T = 0.  Next, with
    f_j = E_(j+1,j) (x) X_0 and x f_j != 0, x f_j u_j is a multiple of x
    and f_j u_j one of E_(j+1,j+1) (x) X_0, of degree 0, so
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
    support = r.division.support
    _, at, add = support_table(support)
    labels, ids = r.degree_labels()
    k, n = r.k, support.order()
    # H as (j, l, s, size): y = E_jl (x) X_s, with s a support position,
    # paired with the x = E_ij (x) X_t for the first `size` positions t;
    # e_j sits at |T_(j+1)|, so T_j is the prefix of m_j |T_(j+1)| positions
    right = [(0, 0, at[g], at[g] * m) for g, m in zip(support.generators(), support.torsion)]
    right = (right or [(0, 0, 0, 1)]) + [(j, j + 1, 0, n) for j in range(k - 1)]
    # (E_ij (x) X_t)(E_jl (x) X_s) is never zero over D and relates the
    # label ids a, b, c of the two factors and the product
    triples = set()
    for j, l, s, size in right:
        plus_s = [row[s] for row in add[:size]]  # t -> t + s
        for i in range(k):
            triples.update(zip(ids[i][j][:size], [ids[j][l][s]] * size,
                               map(ids[i][l].__getitem__, plus_s)))
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
