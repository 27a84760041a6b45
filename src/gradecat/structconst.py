"""Generic graded algebras over Q given by structure constants.

This is the brute-force substrate: any crossed product or graded matrix
algebra in the package exports losslessly to a StructureConstantAlgebra,
and the checks for graded-simplicity, inner automorphisms stabilizing a
grading, and the quaternion-pair counterexample all run here with exact
rational linear algebra.  Constants and coordinates pass the one rational
gate, `scalars._rational`: ints when integral, a float or a bool refused;
every algebra is validated when it is built.  `_Rref` is the
single elimination kernel: `solve_square`, `nullspace` and every span
computation reduce through it, on sparse {column: entry} rows, the
vectors the algebra itself uses.  It eliminates fraction-free, in ints:
`solve_square` returns its solution over one common denominator, and a
Fraction appears only where `nullspace` reads a basis vector out, divided
by its pivot, or where `invert` reads out the inverse that the one
inversion kernel, `scaled_inverse`, returns over one denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .abelian import AbelianGroup, abstract_type, support_table, universal_abelian_group
from .division import GradedDivisionAlgebra, canonical
from .records import Record
from .scalars import _quotient, _rational


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


# ---------------------------------------------------------------------------
# exact linear algebra over Q
# ---------------------------------------------------------------------------

def _integral(coords: dict):
    """(v, d): the nonzero entries of `coords` times the lcm d of their
    denominators, as a new dict of ints, and d."""
    v = {k: c for k, c in coords.items() if c}
    if set(map(type, v.values())) <= {int}:
        return v, 1
    den = math.lcm(*(c.denominator for c in v.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in v.items()}, den


def _primitive(v: dict) -> dict:
    """`v` divided by the gcd of its entries."""
    g = math.gcd(*v.values())
    return v if g <= 1 else {k: x // g for k, x in v.items()}


def _eliminate(v: dict, a: int, c: int, row: dict) -> dict:
    """a v - c row, without its zero entries; `v` is changed in place when a is 1."""
    if a != 1:
        v = {k: a * x for k, x in v.items()}
    for k, y in row.items():
        x = v.get(k, 0) - c * y
        if x:
            v[k] = x
        else:
            del v[k]
    return v


class _Rref:
    """Incremental row-reduced span of sparse vectors, fraction-free in ints.

    A vector is a dict {column: entry}.  `rows` maps each pivot column p to
    its row, a primitive integer vector with a positive entry at p, its
    least column, and zero (absent) at every other pivot: row p is a
    positive multiple of a row of the reduced row echelon form, which is
    unique, so a reader divides by `row[p]` to get it.  A vector with
    Fraction entries is scaled by the lcm of its denominators on the way in,
    which keeps its span, and its zero entries are dropped.  Eliminating by
    a row cross-multiplies (a v - c row, as in Bareiss's fraction-free
    elimination) and divides by the gcd of the entries, so no Fraction is
    built.
    """

    def __init__(self):
        self.rows: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """A nonzero integer multiple of the remainder of `vec` modulo the
        span, or {} when `vec` lies in the span.  One pass clears the pivots
        of `vec`: eliminating by row p changes no other pivot entry, since
        row p is zero there."""
        v, _ = _integral(vec)
        rows = self.rows
        for p in [p for p in v if p in rows]:
            row = rows[p]
            a = row[p]
            v = _eliminate(v, a, v[p], row)
            if a != 1:  # a v has the gcd of v times a; no entry grows when a is 1
                v = _primitive(v)
        return v

    def add(self, vec: dict) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        v = self.reduce(vec)
        if not v:
            return False
        pivot = min(v)
        v = _primitive(v)
        if v[pivot] < 0:
            v = {k: -x for k, x in v.items()}
        a = v[pivot]
        rows = self.rows
        for p, row in rows.items():
            c = row.get(pivot)
            if c:  # a row - c v need not be primitive even when a is 1
                rows[p] = _primitive(_eliminate(dict(row) if a == 1 else row, a, c, v))
        rows[pivot] = v
        return True


def solve_square(rows, rhs):
    """Solve A x = rhs for the square matrix A with the sparse rows `rows`
    over one common denominator: (y, D) with y a list of ints and D a
    positive int, in lowest terms, such that x = y / D; returns None when A
    is singular.

    rhs is appended as column n.  Row p of the reduced `_Rref` then has only
    its pivot p and column n nonzero, so x_p = row[n] / row[p], over the lcm
    of the pivots."""
    n = len(rows)
    rref = _Rref()
    for row, b in zip(rows, rhs):
        rref.add({**row, n: b})
    if rref.rank < n or n in rref.rows:
        return None
    den = math.lcm(*(row[p] for p, row in rref.rows.items()))
    y = [0] * n
    for p, row in rref.rows.items():
        y[p] = row.get(n, 0) * (den // row[p])
    g = math.gcd(den, *y)
    return [c // g for c in y], den // g


def nullspace(rows, width):
    """Basis of the right nullspace of the rational matrix with the sparse
    rows `rows` and columns range(width), as sparse vectors: one per free
    column f, 1 at f and nonzero elsewhere only at pivot columns left of f."""
    rref = _Rref()
    for row in rows:
        rref.add(row)
    basis = []
    for free in range(width):
        if free in rref.rows:
            continue
        vec = {free: 1}
        for p, row in rref.rows.items():
            if free in row:
                vec[p] = _quotient(-row[free], row[p])
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# the algebra
# ---------------------------------------------------------------------------

def _nonzero(vec: dict) -> dict:
    return {k: c for k, c in vec.items() if c}


def _nonzero_rationals(vec: dict) -> dict:
    """The nonzero entries of `vec`, each through the rational gate, zeros
    included: a 0.0 or a False is refused, not dropped."""
    return {k: r for k, c in vec.items() if (r := _rational(c))}


def _raise_first_bad_index(table, unity, n):
    """Name the first table entry, in table order, then the unity, with an
    index that is not an int in range(n)."""
    def index(x):
        return type(x) is int and 0 <= x < n

    for (i, j), entry in table.items():
        if not all(index(x) for x in (i, j, *entry)):
            raise ValueError(f"table entry {(i, j)}: {entry} has an index "
                             f"that is not an int in range({n})")
    if not all(index(x) for x in unity):
        raise ValueError(f"unity {unity} has an index that is not an int in range({n})")


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
        # every index the table and the unity use, with the types of all
        # occurrences: True and 1.0 pass `in range(n)` and hash as 1, so the
        # set of indices alone would hide them
        used = [x for (i, j), entry in table.items() for x in (i, j, *entry)]
        used += unity
        indices = set(used)
        if not set(map(type, used)) <= {int} or indices and (min(indices) < 0
                                                            or max(indices) >= n):
            _raise_first_bad_index(table, unity, n)
        self.table = {key: _nonzero_rationals(entry) for key, entry in table.items()}
        self.unity = _nonzero_rationals(unity)
        # the components, numbered in the order of `_by_degree`: `_component`
        # gives the number of each basis index, `_numbered` the number of
        # each degree's coordinates
        self._by_degree: dict = {}
        for i, d in enumerate(self.degrees):
            self._by_degree.setdefault(d, []).append(i)
        self._numbered = {d.coords: c for c, d in enumerate(self._by_degree)}
        self._component = [self._numbered[d.coords] for d in self.degrees]
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

    def _component_at(self, coords):
        """The number of the component whose degree has the integer
        coordinates `coords`, or None when no basis element has that degree.
        Torsion coordinates are reduced here and free ones are not: the
        grading group of M_k(D) is Z^(k-1) x T."""
        r, torsion = self.group.free_rank, self.group.torsion
        return self._numbered.get(coords[:r] + tuple(c % m for c, m in zip(coords[r:], torsion)))

    def _generating_set(self) -> list[int]:
        """Basis indices S that generate A together with the unity, greedily.

        V starts as Q·1.  While V != A, the smallest i with e_i not in V
        joins S and V is closed under left and right multiplication by every
        element of S; each step adds at least e_i = e_i·1 to V, so it ends.
        The closing stops as soon as V = A: no product can enlarge V then,
        and no further generator is chosen, so S is the same.  Each product
        goes into the span as the sparse vector it is, and no index below
        the last generator is tested again.
        """
        n = self.dim
        span = _Rref()
        spanned: list[dict] = []
        generators: list[int] = []
        pending: list = []  # (s, v): v in V still to be multiplied by e_s

        def add(vec):
            if span.add(vec):
                spanned.append(vec)
                pending.extend((s, vec) for s in generators)

        add(self.unity)
        s = 0
        while span.rank < n:
            s = next(i for i in range(s, n) if span.reduce({i: 1}))
            generators.append(s)
            pending.extend((s, v) for v in spanned)
            while pending and span.rank < n:
                g, v = pending.pop()
                add(self.mul_vectors({g: 1}, v))
                add(self.mul_vectors(v, {g: 1}))
        return generators

    def _validate(self):
        """Grading, unity, then associativity by Light's test; the generating
        set S of the test is kept as `generators`.

        The grading is checked on every table entry, with the target
        component of deg e_i + deg e_j found once per pair of components by
        adding their coordinates (`_component_at`); an entry passes when
        every index of it lies in that component.

        Associativity is checked only on the triples (e_i, e_s, e_k) with s
        in the generating set S of `_generating_set`, and this proves it on
        all triples.  M = {g : (xg)y = x(gy) for all x, y} is a subspace,
        closed under products, since for a, b in M
        (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).
        M contains 1 once the unity check has passed, and the check below
        puts S in M.  Every element of V = A is a sum of products of 1 and
        elements of S, so M = A.  Both sides of a triple are read off the
        table rows, as tuples of (index, coefficient) terms: (e_i e_s) e_k
        sums c (e_m e_k) over the terms c e_m of e_i e_s, and e_i (e_s e_k)
        sums c (e_i e_m) over those of e_s e_k.  When both of those are one
        term, each side is c times one entry, whose coefficients are all
        nonzero; two such sides with at most one term each are equal iff
        both are empty or their indices and products agree.
        """
        n, table = self.dim, self.table
        # grading compatibility, one coordinate sum per pair of components
        component, count = self._component, len(self._numbered)
        coords = list(self._numbered)
        targets: dict = {}  # a * count + b -> the component of deg a + deg b
        for (i, j), entry in table.items():
            a, b = component[i], component[j]
            pair = a * count + b
            if pair in targets:
                target = targets[pair]
            else:
                target = targets[pair] = self._component_at(
                    tuple(x + y for x, y in zip(coords[a], coords[b])))
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
        # rows[i][j] holds the terms of e_i e_j
        rows = [[()] * n for _ in range(n)]
        for (i, j), entry in table.items():
            rows[i][j] = tuple(entry.items())
        self.generators = self._generating_set()
        for s in self.generators:
            row_s = rows[s]
            for i in range(n):
                row_i = rows[i]
                i_s = row_i[s]
                if len(i_s) == 1:
                    (m, c_is), = i_s
                    row_m = rows[m]
                else:
                    row_m = None
                for k in range(n):
                    s_k = row_s[k]
                    if row_m is not None and len(s_k) == 1:
                        (m, c_sk), = s_k
                        left, right = row_m[k], row_i[m]
                        if len(left) <= 1 and len(right) <= 1:
                            if left == right == () or left and right and (
                                    left[0][0] == right[0][0]
                                    and c_is * left[0][1] == c_sk * right[0][1]):
                                continue
                            raise ValueError(f"associativity fails at triple ({i}, {s}, {k})")
                    lhs: dict = {}
                    for m, c in i_s:
                        for t, v in rows[m][k]:
                            lhs[t] = lhs.get(t, 0) + c * v
                    rhs: dict = {}
                    for m, c in s_k:
                        for t, v in row_i[m]:
                            rhs[t] = rhs.get(t, 0) + c * v
                    if lhs != rhs and _nonzero(lhs) != _nonzero(rhs):
                        raise ValueError(f"associativity fails at triple ({i}, {s}, {k})")

    def element(self, coords) -> "AlgebraElement":
        if isinstance(coords, dict):
            return AlgebraElement(self, coords)
        return AlgebraElement(self, dict(enumerate(coords)))

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
        def constant(value):  # text is "p/q"; a number meets the constructor's gate
            if type(value) is not str:
                return value
            if "/" not in value:
                raise ValueError(f"constant {value!r} is neither an int nor a 'p/q' string")
            return Fraction(value)

        def index(key):  # "00" or "+0" would merge with "0", as a repeated row would
            if str(int(key)) != key:
                raise ValueError(f"key {key!r} is not the decimal of a basis index")
            return int(key)

        group = AbelianGroup.from_json(data["group"])
        degrees = [group.element(coords) for coords in data["degrees"]]
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
        self.coords = _nonzero_rationals(coords)

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
        s = _rational(other)
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

def scaled_inverse(x: AlgebraElement):
    """The inverse of x over one common denominator: (y, D) with y a dict of
    nonzero int coordinates and D a positive int such that
    x·y = y·x = D·1, or None when x has no two-sided inverse.

    x is scaled to ints first, L_x y = D·1 is solved by `solve_square`, and
    y·x = D·1 is checked, so no Fraction is built when the constants and the
    unity are ints.  A homogeneous x of degree g can only invert inside
    A_(-g), so only the block of L_x from A_(-g) to A_e is solved.  This is
    the one inversion kernel: `invert` reads y/D out of it, and every
    invertibility test and conjugation of the module uses (y, D) directly.
    """
    a = x.algebra
    xs, den = _integral(x.coords)
    parts = {a._component[i] for i in xs}
    if len(parts) == 1:
        g = a.degrees[next(iter(xs))].coords
        zero, opposite = a._component_at((0,) * len(g)), a._component_at(tuple(-c for c in g))
        indices = list(a._by_degree.values())
        rows = [] if zero is None else indices[zero]
        cols = [] if opposite is None else indices[opposite]
        if len(rows) != len(cols):
            return None
    else:
        rows = cols = range(a.dim)
    position = {i: r for r, i in enumerate(rows)}
    matrix = [{} for _ in rows]
    for c, j in enumerate(cols):
        for i, v in a.mul_vectors(xs, {j: 1}).items():
            matrix[position[i]][c] = v
    solved = solve_square(matrix, [a.unity.get(i, 0) for i in rows])
    if solved is None:
        return None
    # xs z = 1 has the solution z = ys / d, and x = xs / den, so x y = d·1
    ys, d = solved
    y = {j: den * c for j, c in zip(cols, ys) if c}
    g = math.gcd(d, den)
    if g > 1:
        y, d = {j: c // g for j, c in y.items()}, d // g
    # y xs = d den·1 iff y x = d·1
    if a.mul_vectors(y, xs) != {i: c * d * den for i, c in a.unity.items()}:
        return None
    return y, d


def invert(x: AlgebraElement):
    """Exact two-sided inverse, or None: `scaled_inverse` read out once."""
    inverse = scaled_inverse(x)
    if inverse is None:
        return None
    y, d = inverse
    return AlgebraElement(x.algebra, {i: Fraction(c, d) for i, c in y.items()})


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
                    block.setdefault(k, {})[c] = v
        rows.extend(block.values())
    return [{cols[c]: v for c, v in vec.items()} for vec in nullspace(rows, len(cols))]


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
        span = _Rref()
        for i in rows:
            span.add({c: x for c, j in enumerate(cols)
                      if (x := sum(v * trace[k] for k, v in a.table.get((i, j), {}).items()))})
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
    if any(scaled_inverse(z) is None for z in centre):
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
    inverse = scaled_inverse(x)
    if inverse is None:
        raise NotInvertibleError("conjugating element is not invertible")
    # x e_s x^-1 is a nonzero multiple of xs e_s y, with xs = x over ints
    y, _ = inverse
    xs, _ = _integral(x.coords)
    component = a._component
    for s in a.generators:
        image = a.mul_vectors(a.mul_vectors(xs, {s: 1}), y)
        if any(component[k] != component[s] for k in image):
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
    if len(components) > 1 and any(scaled_inverse(comp) is None for _, comp in components):
        return NO_WITNESS
    return components


def _component_units(a: StructureConstantAlgebra, indices):
    """The units of one homogeneous component found by the scan, in order:
    each basis element with an inverse, then the sum of them all if it has
    one.  Lazy, so a reader that needs one unit inverts no more."""
    for i in indices:
        candidate = a.basis_element(i)
        if scaled_inverse(candidate) is not None:
            yield candidate
    ones = a.element({i: 1 for i in indices})
    if scaled_inverse(ones) is not None:
        yield ones


def _component_unit(a: StructureConstantAlgebra, indices, rng) -> AlgebraElement | None:
    """Find an invertible element inside one homogeneous component: the
    first of the scan, else one of 8 seeded random integer combinations."""
    unit = next(_component_units(a, indices), None)
    if unit is not None:
        return unit
    for _ in range(8):
        candidate = a.element({i: rng.randint(-3, 3) for i in indices})
        if not candidate.is_zero() and scaled_inverse(candidate) is not None:
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
            if comp is not None and scaled_inverse(comp) is not None:
                central_degrees.add(degree)
                break
    # the least element of each coset d + C other than C itself, C the
    # central degrees: walking up in coordinate order, an uncovered d is one
    generators, covered = [], set(central_degrees)
    for d in sorted(degs, key=lambda e: e.coords):
        if d not in covered:
            generators.append((d, unit_degrees[d]))
            covered.update(d + c for c in central_degrees)
    return abstract_type(degs, modulo=central_degrees), generators


# ---------------------------------------------------------------------------
# exports and fixtures
# ---------------------------------------------------------------------------

def from_division(d: GradedDivisionAlgebra) -> StructureConstantAlgebra:
    """Lossless export of a crossed product to rational structure constants,
    built once and kept on `d`."""
    from .matrix import matrix_algebra, to_structure_constants

    if d._export is None:
        d._export = to_structure_constants(matrix_algebra(d, k=1))
    return d._export


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
    relations = [{j: m} for j, m in enumerate(orders) if m]
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
        scaled_inverse(a.basis_element(i)) is None
        for degree, indices in a._by_degree.items() if degree != e for i in indices)
    return HxHReport(simple, stabilizes, all_central, a)
