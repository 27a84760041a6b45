"""Generic graded algebras over Q given by structure constants.

This is the brute-force substrate: any crossed product or graded matrix
algebra in the package exports losslessly to a StructureConstantAlgebra,
and the checks for graded-simplicity, inner automorphisms stabilizing a
grading, and the quaternion-pair counterexample all run here with exact
rational linear algebra.  Constants and coordinates are ints when integral
(`_exact`), and every algebra is validated when it is built.  `_Rref` is the
single elimination kernel: `solve_square`, `nullspace` and every span
computation reduce through it.  It eliminates fraction-free, in ints, and
a Fraction appears only where a solution or a basis vector is read out of
it, divided by its pivot.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .abelian import (AbelianGroup, abstract_type, coset_rep, json_int, support_table,
                      universal_abelian_group)
from .division import GradedDivisionAlgebra, canonical
from .records import Record


class NotInvertibleError(ValueError):
    """The element has no two-sided inverse."""


class NotInStabilizerError(ValueError):
    """Conjugation by the element moves a homogeneous component."""


class _NoWitness:
    def __repr__(self):
        return "NoWitness"

    def __bool__(self):
        return False


NO_WITNESS = _NoWitness()


def _exact(c):
    """`c` as an int when it is integral, else as an exact Fraction; an int
    or a Fraction is returned as it is, or as its numerator."""
    if type(c) is not int:
        if type(c) is not Fraction:
            c = Fraction(c)
        if c.denominator == 1:
            return c.numerator
    return c


# ---------------------------------------------------------------------------
# exact linear algebra over Q
# ---------------------------------------------------------------------------

def _integral(vec) -> list:
    """The entries of the sequence `vec` times the lcm of their
    denominators, as a list of ints."""
    if set(map(type, vec)) <= {int}:
        return list(vec)
    den = math.lcm(*(x.denominator for x in vec))
    return [x.numerator * (den // x.denominator) for x in vec]


def _primitive(v: list) -> list:
    """`v` divided by the gcd of its entries (a zero `v` as it is)."""
    g = math.gcd(*v)
    return v if g <= 1 else [x // g for x in v]


class _Rref:
    """Incremental row-reduced span, fraction-free in ints.

    Each row is a primitive integer vector with a positive pivot entry, and
    every other row is zero at that pivot: row r is a positive multiple of
    row r of the reduced row echelon form, which is unique, so a reader
    divides by `row[pivot]` to get it.  A vector with Fraction entries is
    scaled by the lcm of its denominators on the way in, which keeps its
    span.  Eliminating by a row cross-multiplies (a v - c row, as in
    Bareiss's fraction-free elimination) and divides by the gcd of the
    entries, so no Fraction is built.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> list:
        """A nonzero integer multiple of the remainder of `vec` modulo the
        span, or zero when `vec` lies in the span.  The remainder itself is
        not returned: `_generating_set`, the one caller outside this class,
        only tests whether it is zero."""
        v = _integral(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                a = row[p]
                if a == 1:  # no entry grows
                    v = [x - c * y for x, y in zip(v, row)]
                else:
                    v = _primitive([a * x - c * y for x, y in zip(v, row)])
        return v

    def add(self, vec) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        v = self.reduce(vec)
        lead = next(filter(None, v), 0)
        if not lead:
            return False
        pivot = v.index(lead)  # the entries before the first nonzero one are 0
        v = _primitive(v)
        if v[pivot] < 0:
            v = [-x for x in v]
        a = v[pivot]
        for r, row in enumerate(self.rows):
            c = row[pivot]
            if c:
                self.rows[r] = _primitive([a * x - c * y for x, y in zip(row, v)])
        self.rows.append(v)
        self.pivots.append(pivot)
        return True


def solve_square(matrix, rhs):
    """Solve matrix * y = rhs exactly; returns None when singular."""
    n = len(matrix)
    rref = _Rref(n + 1)
    for row, b in zip(matrix, rhs):
        rref.add(list(row) + [b])
    if rref.rank < n or n in rref.pivots:
        return None
    y = [0] * n
    for row, p in zip(rref.rows, rref.pivots):
        y[p] = _exact(Fraction(row[n], row[p]))
    return y


def nullspace(rows, width):
    """Basis of the right nullspace of the given rational matrix."""
    rref = _Rref(width)
    for row in rows:
        rref.add(row)
    pivot_cols = set(rref.pivots)
    basis = []
    for free in range(width):
        if free in pivot_cols:
            continue
        vec = [0] * width
        vec[free] = 1
        for row, p in zip(rref.rows, rref.pivots):
            vec[p] = _exact(Fraction(-row[free], row[p]))
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# the algebra
# ---------------------------------------------------------------------------

def _nonzero(vec: dict) -> dict:
    return {k: c for k, c in vec.items() if c}


class StructureConstantAlgebra:
    """Finite-dimensional graded unital algebra with exact structure constants.

    `generators` lists the basis indices S of `_generating_set`: words in
    the e_s, s in S, span A.  Light's test, the stabilizer and centrality
    tests and the centre are all decided on S.
    """

    def __init__(self, labels, degrees, table, unity):
        self.labels = tuple(labels)
        self.degrees = tuple(degrees)
        n = len(self.labels)
        if len(self.degrees) != n:
            raise ValueError("one degree per basis element required")
        group = self.degrees[0].group if n else AbelianGroup.trivial()
        for d in self.degrees:
            if d.group != group:
                raise ValueError("degrees must share one grading group")
        self.group = group
        unity = dict(unity)

        def index(x):  # True and 1.0 pass `in range(n)`, but neither is an index
            return type(x) is int and 0 <= x < n

        for (i, j), entry in table.items():
            if not all(index(x) for x in (i, j, *entry)):
                raise ValueError(f"table entry {(i, j)}: {entry} has an index "
                                 f"that is not an int in range({n})")
        if not all(index(x) for x in unity):
            raise ValueError(f"unity {unity} has an index that is not an int in range({n})")
        self.table = {
            key: {k: _exact(c) for k, c in entry.items() if c}
            for key, entry in table.items()
        }
        self.unity = {k: _exact(c) for k, c in unity.items() if c}
        self._by_degree: dict = {}
        for i, d in enumerate(self.degrees):
            self._by_degree.setdefault(d, []).append(i)
        self._validate()

    @property
    def dim(self) -> int:
        return len(self.labels)

    def _basis_vec(self, i):
        return {i: 1}

    def mul_vectors(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for i, ci in x.items():
            for j, cj in y.items():
                entry = self.table.get((i, j))
                if not entry:
                    continue
                c = ci * cj
                for k, ck in entry.items():
                    val = out.get(k, 0) + c * ck
                    if val:
                        out[k] = val
                    elif k in out:
                        del out[k]
        return out

    def _generating_set(self) -> list[int]:
        """Basis indices S that generate A together with the unity, greedily.

        V starts as Q·1.  While V != A, the smallest i with e_i not in V
        joins S and V is closed under left and right multiplication by every
        element of S; each step adds at least e_i = e_i·1 to V, so it ends.
        The closing stops as soon as V = A: no product can enlarge V then,
        and no further generator is chosen, so S is the same.
        """
        n = self.dim
        span = _Rref(n)
        spanned: list[dict] = []
        generators: list[int] = []
        pending: list = []  # (s, v): v in V still to be multiplied by e_s

        def add(vec):
            if span.add([vec.get(k, 0) for k in range(n)]):
                spanned.append(vec)
                pending.extend((s, vec) for s in generators)

        add(self.unity)
        while span.rank < n:
            s = next(i for i in range(n)
                     if any(span.reduce([int(k == i) for k in range(n)])))
            generators.append(s)
            pending.extend((s, v) for v in spanned)
            while pending and span.rank < n:
                s, v = pending.pop()
                add(self.mul_vectors({s: 1}, v))
                add(self.mul_vectors(v, {s: 1}))
        return generators

    def _validate(self):
        """Grading, unity, then associativity by Light's test; the generating
        set S of the test is kept as `generators`.

        The grading is checked on every table entry, with deg e_i + deg e_j
        computed once per pair of components: the components are numbered
        in the order of `_by_degree`, and an entry passes when every index
        of it lies in the component numbered for the sum.

        Associativity is checked only on the triples (e_i, e_s, e_k) with s
        in the generating set S of `_generating_set`, and this proves it on
        all triples.  M = {g : (xg)y = x(gy) for all x, y} is a subspace,
        closed under products, since for a, b in M
        (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).
        M contains 1 once the unity check has passed, and the check below
        puts S in M.  Every element of V = A is a sum of products of 1 and
        elements of S, so M = A.  Both sides of a triple are read off the
        table rows: (e_i e_s) e_k sums c (e_m e_k) over the terms c e_m of
        e_i e_s, and e_i (e_s e_k) sums c (e_i e_m) over those of e_s e_k.
        """
        n, table = self.dim, self.table
        # grading compatibility, one group addition per pair of components
        number = {d: c for c, d in enumerate(self._by_degree)}
        component = [number[d] for d in self.degrees]
        sums: dict = {}
        for (i, j), entry in table.items():
            pair = (component[i], component[j])
            target = sums.get(pair)
            if target is None:
                target = sums[pair] = number.get(self.degrees[i] + self.degrees[j])
            for k in entry:
                if component[k] != target:
                    raise ValueError(
                        f"product {self.labels[i]}*{self.labels[j]} leaves its component"
                    )
        # unity
        for i in range(n):
            b = {i: 1}
            if self.mul_vectors(self.unity, b) != b or self.mul_vectors(b, self.unity) != b:
                raise ValueError("unity fails on a basis element")
        # associativity by Light's test: the middle factor runs over S only;
        # rows[i][j] is the entry of e_i e_j
        empty: dict = {}
        rows = [[table.get((i, j), empty) for j in range(n)] for i in range(n)]
        self.generators = self._generating_set()
        for s in self.generators:
            row_s = rows[s]
            for i in range(n):
                row_i = rows[i]
                i_s = row_i[s].items()
                for k in range(n):
                    left: dict = {}
                    for m, c in i_s:
                        for t, v in rows[m][k].items():
                            left[t] = left.get(t, 0) + c * v
                    right: dict = {}
                    for m, c in row_s[k].items():
                        for t, v in row_i[m].items():
                            right[t] = right.get(t, 0) + c * v
                    if left != right and _nonzero(left) != _nonzero(right):
                        raise ValueError(f"associativity fails at triple ({i}, {s}, {k})")

    def element(self, coords) -> "AlgebraElement":
        if isinstance(coords, dict):
            return AlgebraElement(self, coords)
        return AlgebraElement(self, {i: c for i, c in enumerate(coords) if c})

    def basis_element(self, i) -> "AlgebraElement":
        return AlgebraElement(self, self._basis_vec(i))

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, dict(self.unity))

    def basis_degrees_by_component(self) -> dict:
        return {d: list(indices) for d, indices in self._by_degree.items()}

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "group": self.group.to_json(),
            "degrees": [list(d.coords) for d in self.degrees],
            "table": [
                [i, j, {str(k): f"{c.numerator}/{c.denominator}" for k, c in entry.items()}]
                for (i, j), entry in sorted(self.table.items())
            ],
            "unity": {str(k): f"{c.numerator}/{c.denominator}" for k, c in self.unity.items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "StructureConstantAlgebra":
        def constant(value):  # Fraction() would read true as 1 and 1.0 as 1
            if type(value) is int:
                return value
            if type(value) is not str or "/" not in value:
                raise ValueError(f"constant {value!r} is neither an int nor a 'p/q' string")
            return Fraction(value)

        def index(key):  # "00" or "+0" would merge with "0", as a repeated row would
            if str(int(key)) != key:
                raise ValueError(f"key {key!r} is not the decimal of a basis index")
            return int(key)

        group = AbelianGroup.from_json(data["group"])
        degrees = [group.element([json_int(c) for c in coords]) for coords in data["degrees"]]
        table = {}
        for i, j, entry in data["table"]:
            if (i, j) in table:
                raise ValueError(f"table row {[i, j]} is repeated")
            table[(i, j)] = {index(k): constant(c) for k, c in entry.items()}
        unity = {index(k): constant(c) for k, c in data["unity"].items()}
        return cls(data["labels"], degrees, table, unity)


class AlgebraElement:
    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: StructureConstantAlgebra, coords: dict):
        self.algebra = algebra
        self.coords = {i: _exact(c) for i, c in coords.items() if c}

    def _check(self, other):
        if not isinstance(other, AlgebraElement) or other.algebra is not self.algebra:
            raise ValueError("elements belong to different algebras")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coords)
        for i, c in other.coords.items():
            out[i] = out.get(i, 0) + c
        return AlgebraElement(self.algebra, out)

    def __neg__(self):
        return AlgebraElement(self.algebra, {i: -c for i, c in self.coords.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return AlgebraElement(self.algebra, self.algebra.mul_vectors(self.coords, other.coords))
        s = _exact(other)
        return AlgebraElement(self.algebra, {i: c * s for i, c in self.coords.items()})

    __rmul__ = __mul__  # only reached for scalars, which commute

    def is_zero(self) -> bool:
        return not self.coords

    def homogeneous_components(self) -> dict:
        parts: dict = {}
        for i, c in self.coords.items():
            parts.setdefault(self.algebra.degrees[i], {})[i] = c
        return {d: AlgebraElement(self.algebra, cs) for d, cs in parts.items()}

    def is_homogeneous(self) -> bool:
        return len(self.homogeneous_components()) <= 1

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra is other.algebra and self.coords == other.coords

    __hash__ = None

    def __repr__(self):
        if not self.coords:
            return "0"
        return " + ".join(f"{c}*{self.algebra.labels[i]}" for i, c in sorted(self.coords.items()))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def invert(x: AlgebraElement):
    """Exact two-sided inverse, or None.  A homogeneous x of degree g can only
    invert inside A_(-g), so only the block of L_x from A_(-g) to A_e is solved."""
    a = x.algebra
    degrees = {a.degrees[i] for i in x.coords}
    if len(degrees) == 1:
        g = degrees.pop()
        rows, cols = a._by_degree.get(g - g, []), a._by_degree.get(-g, [])
        if len(rows) != len(cols):
            return None
    else:
        rows = cols = range(a.dim)
    position = {i: r for r, i in enumerate(rows)}
    matrix = [[0] * len(cols) for _ in rows]
    for c, j in enumerate(cols):
        for i, v in a.mul_vectors(x.coords, a._basis_vec(j)).items():
            matrix[position[i]][c] = v
    y = solve_square(matrix, [a.unity.get(i, 0) for i in rows])
    if y is None:
        return None
    inv = a.element(dict(zip(cols, y)))
    if (inv * x) != a.one():
        return None
    return inv


def _commutant(a: StructureConstantAlgebra, degree) -> list[dict]:
    """Central elements of one degree.

    z is central iff z e_s = e_s z for every s in S = `a.generators`: the
    centralizer of z is a unital subalgebra, and it contains S, so it
    contains every word in S, which span A.  The equations of the whole
    basis have the same solutions, so the same row space, whose reduced
    row echelon form is unique; `nullspace` returns the same vectors from
    either.  Row (s, k) of the commutator equations only touches the
    unknowns of degree deg k - deg s.
    """
    cols = a._by_degree.get(degree, [])
    rows = []
    for g in a.generators:
        block: dict = {}
        for c, j in enumerate(cols):
            diff = dict(a.table.get((j, g), {}))
            for k, v in a.table.get((g, j), {}).items():
                diff[k] = diff.get(k, 0) - v
            for k, v in diff.items():
                if v:
                    block.setdefault(k, [0] * len(cols))[c] = v
        rows.extend(block.values())
    return [{j: c for j, c in zip(cols, v) if c} for v in nullspace(rows, len(cols))]


def center_basis(a: StructureConstantAlgebra):
    """Basis of the center in the order of the free columns: a nullspace vector
    is nonzero off its free column only at pivot columns to its left."""
    vectors = [v for degree in a._by_degree for v in _commutant(a, degree)]
    return [a.element(v) for v in sorted(vectors, key=max)]


def _trace_form_rank(a: StructureConstantAlgebra) -> int:
    """Rank of the trace form (x, y) -> Tr(L_xy); Tr(L_b) vanishes off degree
    e, so the form pairs A_g with A_(-g) only and the block ranks add up."""
    e = a.group.zero()
    trace = {k: sum(a.table.get((k, i), {}).get(i, 0) for i in range(a.dim))
             for k in a._by_degree.get(e, [])}
    rank = 0
    for g, rows in a._by_degree.items():
        cols = a._by_degree.get(-g, [])
        span = _Rref(len(cols))
        for i in rows:
            span.add([sum(c * trace[k] for k, c in a.table.get((i, j), {}).items())
                      for j in cols])
        rank += span.rank
    return rank


def is_graded_simple(a: StructureConstantAlgebra) -> bool:
    """True iff J(A) = 0 and Z(A)_e is a field.

    J(A) is graded (Cohen-Montgomery) and, in characteristic 0, it is the
    radical of the trace form (Dickson).  A graded algebra with J(A) = 0 is
    a product of graded-simple ones whose unities lie in Z(A)_e.  Raises
    NotImplementedError when Z(A)_e has dimension > 2 and no basis vector
    of it is a zero divisor: deciding that needs factoring over Q.
    """
    if a.dim == 0 or _trace_form_rank(a) < a.dim:
        return False
    centre = [a.element(v) for v in _commutant(a, a.group.zero())]
    if len(centre) == 1:
        return True
    if len(centre) == 2:
        # Z(A)_e = Q1 + Qz with z_i = 0, and z^2 = p z + q spans a field iff
        # p^2 + 4q is not a rational square
        one = a.one()
        i = min(one.coords)
        z = next(w for w in (v - one * Fraction(v.coords.get(i, 0), one.coords[i])
                             for v in centre) if not w.is_zero())
        zz, j = (z * z).coords, min(z.coords)
        q = Fraction(zz.get(i, 0), one.coords[i])
        p = (zz.get(j, 0) - q * one.coords.get(j, 0)) / Fraction(z.coords[j])
        d = p * p + 4 * q
        return d < 0 or any(math.isqrt(m) ** 2 != m for m in (d.numerator, d.denominator))
    if any(invert(z) is None for z in centre):
        return False  # a central zero divisor of degree e
    raise NotImplementedError(
        f"Z(A)_e has dimension {len(centre)} and no basis vector is a zero divisor; "
        "deciding whether it is a field needs factoring over Q")


def int_in_stabilizer(a: StructureConstantAlgebra, x: AlgebraElement) -> bool:
    """Does conjugation by x preserve every homogeneous component?  Raises
    NotInvertibleError when x has no inverse; x is inverted once.

    It is decided on S = `a.generators`: Int(x) keeps every component iff
    x e_s x^-1 lies in A_(deg e_s) for every s in S.  Int(x) is an algebra
    automorphism, so the homogeneous h with Int(x)(h) in A_(deg h) are
    closed under products; they include 1 and every e_s, so every word in
    S.  Each e_i is the degree-(deg e_i) part of a combination of words in
    S, which span A; that part is a combination of words of degree deg e_i,
    so Int(x)(e_i) lies in A_(deg e_i).
    """
    xi = invert(x)
    if xi is None:
        raise NotInvertibleError("conjugating element is not invertible")
    for s in a.generators:
        image = a.mul_vectors(a.mul_vectors(x.coords, {s: 1}), xi.coords)
        if any(a.degrees[k] != a.degrees[s] for k in image):
            return False
    return True


def homogeneous_witness(a: StructureConstantAlgebra, x: AlgebraElement):
    """Every nonzero homogeneous component of x, each shown invertible with
    Int(component) == Int(x); returns NO_WITNESS when a component fails to
    invert (possible only off the graded-simple hypothesis).  Raises
    NotInvertibleError when x has no inverse, then NotInStabilizerError
    when Int(x) moves a homogeneous component.

    Once Int(x) keeps every component, Int(c) = Int(x) for each invertible
    component c: for y in A_k, x y = y' x with y' = x y x^-1 in A_k, and the
    degree-(deg c + k) parts give c y = y' c, that is c y c^-1 = x y x^-1.
    """
    if not int_in_stabilizer(a, x):
        raise NotInStabilizerError("Int(x) does not stabilize the grading")
    components = sorted(x.homogeneous_components().items(), key=lambda kv: kv[0].coords)
    # a single component is x itself, inverted already
    if len(components) > 1 and any(invert(comp) is None for _, comp in components):
        return NO_WITNESS
    return components


def _component_unit(a: StructureConstantAlgebra, indices, rng) -> AlgebraElement | None:
    """Find an invertible element inside one homogeneous component."""
    for i in indices:
        candidate = a.basis_element(i)
        if invert(candidate) is not None:
            return candidate
    ones = a.element({i: 1 for i in indices})
    if invert(ones) is not None:
        return ones
    for _ in range(8):
        candidate = a.element({i: rng.randint(-3, 3) for i in indices})
        if not candidate.is_zero() and invert(candidate) is not None:
            return candidate
    return None


def inner_stabilizer_quotient(a: StructureConstantAlgebra):
    """Degree group of homogeneous units modulo degrees of central homogeneous units.

    Returns (quotient AbelianGroup, coset generator list of (degree, unit)).
    Requires a graded-simple algebra whose components carry units.
    """
    if not is_graded_simple(a):
        raise ValueError("the inner stabilizer description needs a graded-simple algebra")
    import random  # only the seeded sampling needs it; a CLI start does not

    rng = random.Random(0)
    by_component = a.basis_degrees_by_component()
    unit_degrees = {}
    for degree, indices in by_component.items():
        unit = _component_unit(a, indices, rng)
        if unit is not None:
            unit_degrees[degree] = unit
    degs = set(unit_degrees)
    for d1 in degs:
        if (-d1) not in degs or not all((d1 + d2) in degs for d2 in degs):
            raise ValueError("homogeneous unit degrees do not form a group")
    centre = center_basis(a)
    central_degrees = set()
    for degree in by_component:
        if degree not in unit_degrees:
            continue
        for z in centre:
            comp = z.homogeneous_components().get(degree)
            if comp is not None and invert(comp) is not None:
                central_degrees.add(degree)
                break
    reps = {coset_rep(x, central_degrees) for x in degs}
    zero = coset_rep(a.group.zero(), central_degrees)
    generators = [(d, unit_degrees[d]) for d in sorted(reps, key=lambda e: e.coords) if d != zero]
    return abstract_type(degs, modulo=central_degrees), generators


# ---------------------------------------------------------------------------
# exports and fixtures
# ---------------------------------------------------------------------------

def from_division(d: GradedDivisionAlgebra) -> StructureConstantAlgebra:
    """Lossless export of a crossed product to rational structure constants."""
    from .matrix import matrix_algebra, to_structure_constants

    return to_structure_constants(matrix_algebra(d, k=1))


def group_algebra(group: AbelianGroup) -> StructureConstantAlgebra:
    """The rational group algebra Q[T] with its tautological grading."""
    elems, _, add = support_table(group)
    table = {(t, s): {ts: 1} for t, row in enumerate(add) for s, ts in enumerate(row)}
    return StructureConstantAlgebra([f"g{t.coords}" for t in elems], elems, table, {0: 1})


def direct_sum(a: StructureConstantAlgebra, b: StructureConstantAlgebra) -> StructureConstantAlgebra:
    """Direct sum graded by the direct product of the two grading groups.

    The product group is brought to normal form as the universal group of
    its presentation (the coordinates of both groups, each torsion
    coordinate killed by its order); each degree is mapped through the
    label projection, which is the change of coordinates.
    """
    ga, gb = a.group, b.group
    orders = ([0] * ga.free_rank + list(ga.torsion)
              + [0] * gb.free_rank + list(gb.torsion))
    relations = [[m * (i == j) for i in range(len(orders))] for j, m in enumerate(orders) if m]
    group, projection = universal_abelian_group(range(len(orders)), relations)

    def lift(d, offset):
        return sum((c * projection[offset + i] for i, c in enumerate(d.coords)), group.zero())

    labels = [f"L:{l}" for l in a.labels] + [f"R:{l}" for l in b.labels]
    degrees = [lift(d, 0) for d in a.degrees] + [lift(d, ga.rank) for d in b.degrees]
    table = {}
    for (i, j), entry in a.table.items():
        table[(i, j)] = dict(entry)
    off = a.dim
    for (i, j), entry in b.table.items():
        table[(i + off, j + off)] = {k + off: c for k, c in entry.items()}
    unity = dict(a.unity)
    unity.update({k + off: c for k, c in b.unity.items()})
    return StructureConstantAlgebra(labels, degrees, table, unity)


class HxHReport(Record):
    """The three claims about H x H (bools) and the algebra they are about."""

    __slots__ = ("graded_simple", "int_ii_stabilizes", "invertible_homogeneous_all_central",
                 "algebra")

    def all_pass(self) -> bool:
        return (
            not self.graded_simple
            and self.int_ii_stabilizes
            and self.invertible_homogeneous_all_central
        )


def quaternion_pair_algebra() -> StructureConstantAlgebra:
    """H x H graded by Z2^4: each factor carries the sign grading of H.

    The basis is 1, X_(0,1) = j, X_(1,0) = i, X_(1,1) = k of the left
    factor, then the same of the right one (`canonical("1-b", "Z2xZ2")`).
    """
    h = from_division(canonical("1-b", "Z2xZ2"))
    return direct_sum(h, h)


def hxh_counterexample() -> HxHReport:
    """Verify the three claims about the Z2^2 x Z2^2 grading on H x H."""
    a = quaternion_pair_algebra()
    simple = is_graded_simple(a)

    x = a.element({2: 1, 6: 1})  # (i, i)
    stabilizes = int_in_stabilizer(a, x)

    # invertible homogeneous elements all lie in R(1,0) + R(0,1) = the center:
    # the identity component is central, and the one-sided components
    # consist of zero divisors, since an invertible (l, m) needs l, m != 0
    e = a.group.zero()
    all_central = len(_commutant(a, e)) == len(a._by_degree[e]) and all(
        invert(a.basis_element(i)) is None
        for degree, indices in a._by_degree.items() if degree != e for i in indices)
    return HxHReport(simple, stabilizes, all_central, a)
