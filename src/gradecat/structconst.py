"""Generic graded algebras over Q given by structure constants.

This is the brute-force substrate: any crossed product or graded matrix
algebra in the package exports losslessly to a StructureConstantAlgebra,
and the checks for graded-simplicity, inner automorphisms stabilizing a
grading, and the quaternion-pair counterexample all run here with exact
rational linear algebra.  Constants and coordinates are ints when integral
(`_exact`), and every algebra is validated when it is built.  `_Rref` is the
single elimination kernel: `solve_square`, `nullspace` and every span
computation reduce through it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .abelian import AbelianGroup, abstract_type, coset_rep
from .division import GradedDivisionAlgebra
from .scalars import RationalQuaternion


class NotInvertibleError(ValueError):
    """The element has no two-sided inverse."""


class _NoWitness:
    def __repr__(self):
        return "NoWitness"

    def __bool__(self):
        return False


NO_WITNESS = _NoWitness()


def _exact(c):
    """`c` as an int when it is integral, else as an exact Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


# ---------------------------------------------------------------------------
# exact linear algebra over Q
# ---------------------------------------------------------------------------

class _Rref:
    """Incremental row-reduced span of rational vectors."""

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> list[Fraction]:
        v = [Fraction(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                c = v[p]
                for i in range(self.width):
                    v[i] -= c * row[i]
        return v

    def add(self, vec) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        v = self.reduce(vec)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        inv = v[pivot]
        v = [x / inv for x in v]
        for row in self.rows:
            if row[pivot]:
                c = row[pivot]
                for i in range(self.width):
                    row[i] -= c * v[i]
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
        y[p] = row[n]
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
            vec[p] = -row[free]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# the algebra
# ---------------------------------------------------------------------------

class StructureConstantAlgebra:
    """Finite-dimensional graded unital algebra with exact structure constants."""

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
        self.table = {
            key: {k: _exact(c) for k, c in entry.items() if c}
            for key, entry in table.items()
        }
        self.unity = {k: _exact(c) for k, c in dict(unity).items() if c}
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

    def _validate(self):
        n = self.dim
        # grading compatibility
        for (i, j), entry in self.table.items():
            target = self.degrees[i] + self.degrees[j]
            for k in entry:
                if self.degrees[k] != target:
                    raise ValueError(
                        f"product {self.labels[i]}*{self.labels[j]} leaves its component"
                    )
        # unity
        for i in range(n):
            b = self._basis_vec(i)
            if self.mul_vectors(self.unity, b) != b or self.mul_vectors(b, self.unity) != b:
                raise ValueError("unity fails on a basis element")
        # associativity on all basis triples
        for i in range(n):
            for j in range(n):
                ij = self.table.get((i, j), {})
                for k in range(n):
                    left = self.mul_vectors(ij, self._basis_vec(k))
                    right = self.mul_vectors(self._basis_vec(i), self.table.get((j, k), {}))
                    if left != right:
                        raise ValueError(f"associativity fails at triple ({i}, {j}, {k})")

    def element(self, coords) -> "AlgebraElement":
        if isinstance(coords, dict):
            return AlgebraElement(self, coords)
        return AlgebraElement(self, {i: c for i, c in enumerate(coords) if c})

    def basis_element(self, i) -> "AlgebraElement":
        return AlgebraElement(self, self._basis_vec(i))

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, dict(self.unity))

    def basis_degrees_by_component(self) -> dict:
        out: dict = {}
        for i, d in enumerate(self.degrees):
            out.setdefault(d, []).append(i)
        return out

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
        group = AbelianGroup.from_json(data["group"])
        degrees = [group.element(c) for c in data["degrees"]]
        table = {
            (i, j): {int(k): Fraction(c) for k, c in entry.items()}
            for i, j, entry in data["table"]
        }
        unity = {int(k): Fraction(c) for k, c in data["unity"].items()}
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
    """Exact two-sided inverse, or None."""
    a = x.algebra
    n = a.dim
    matrix = [[0] * n for _ in range(n)]
    for j in range(n):
        col = a.mul_vectors(x.coords, a._basis_vec(j))
        for i, c in col.items():
            matrix[i][j] = c
    rhs = [a.unity.get(i, 0) for i in range(n)]
    y = solve_square(matrix, rhs)
    if y is None:
        return None
    inv = a.element({i: c for i, c in enumerate(y) if c})
    if (inv * x) != a.one():
        return None
    return inv


def center_basis(a: StructureConstantAlgebra):
    """Basis of the center, by solving the commutator equations."""
    n = a.dim
    rows = []
    for g in range(n):
        cols = []
        for j in range(n):
            diff = a.mul_vectors(a._basis_vec(j), a._basis_vec(g))
            for k, c in a.mul_vectors(a._basis_vec(g), a._basis_vec(j)).items():
                diff[k] = diff.get(k, 0) - c
            cols.append(diff)
        for k in range(n):
            row = [cols[j].get(k, 0) for j in range(n)]
            if any(row):
                rows.append(row)
    return [a.element({i: c for i, c in enumerate(v) if c}) for v in nullspace(rows, n)]


def is_graded_simple(a: StructureConstantAlgebra) -> bool:
    """True iff every nonzero homogeneous basis element generates everything.

    The two-sided ideal is grown as a linear span closed under one-sided
    multiplications by basis elements; the process is a fixpoint in at most
    dim steps.
    """
    n = a.dim
    if n == 0:
        return False
    for start in range(n):
        span = _Rref(n)
        first = [0] * n
        first[start] = 1
        span.add(first)
        frontier = [a._basis_vec(start)]
        while frontier and span.rank < n:
            v = frontier.pop()
            for g in range(n):
                for prod in (
                    a.mul_vectors(a._basis_vec(g), v),
                    a.mul_vectors(v, a._basis_vec(g)),
                ):
                    dense = [prod.get(i, 0) for i in range(n)]
                    if span.add(dense):
                        frontier.append(prod)
        if span.rank < n:
            return False
    return True


def int_in_stabilizer(a: StructureConstantAlgebra, x: AlgebraElement) -> bool:
    """Does conjugation by x preserve every homogeneous component?"""
    xi = invert(x)
    if xi is None:
        raise NotInvertibleError("conjugating element is not invertible")
    for i in range(a.dim):
        image = x * a.basis_element(i) * xi
        for k in image.coords:
            if a.degrees[k] != a.degrees[i]:
                return False
    return True


def same_inner_automorphism(a, x, xi, y, yi) -> bool:
    return all(
        x * a.basis_element(i) * xi == y * a.basis_element(i) * yi
        for i in range(a.dim)
    )


def homogeneous_witness(a: StructureConstantAlgebra, x: AlgebraElement):
    """Every nonzero homogeneous component of x, each shown invertible with
    Int(component) == Int(x); returns NO_WITNESS when a component fails to
    invert (possible only off the graded-simple hypothesis)."""
    if not int_in_stabilizer(a, x):
        raise ValueError("Int(x) does not stabilize the grading")
    xi = invert(x)
    witnesses = []
    for degree, comp in sorted(x.homogeneous_components().items(), key=lambda kv: kv[0].coords):
        ci = invert(comp)
        if ci is None:
            return NO_WITNESS
        if not same_inner_automorphism(a, x, xi, comp, ci):
            return NO_WITNESS
        witnesses.append((degree, comp))
    return witnesses


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


def inner_stabilizer_quotient(a: StructureConstantAlgebra, seed: int = 0):
    """Degree group of homogeneous units modulo degrees of central homogeneous units.

    Returns (quotient AbelianGroup, coset generator list of (degree, unit)).
    Requires a graded-simple algebra whose components carry units.
    """
    if not is_graded_simple(a):
        raise ValueError("the inner stabilizer description needs a graded-simple algebra")
    rng = random.Random(seed)
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
    sub = frozenset(central_degrees)
    reps = {coset_rep(x, sub) for x in degs}
    zero = coset_rep(next(iter(degs)) - next(iter(degs)), sub)
    quotient = abstract_type(reps, add=lambda p, q: coset_rep(p + q, sub), zero=zero)
    generators = [(d, unit_degrees[d]) for d in sorted(reps, key=lambda e: e.coords) if d != zero]
    return quotient, generators


# ---------------------------------------------------------------------------
# exports and fixtures
# ---------------------------------------------------------------------------

def from_division(d: GradedDivisionAlgebra) -> StructureConstantAlgebra:
    """Lossless export of a crossed product to rational structure constants."""
    from .matrix import matrix_algebra, to_structure_constants

    return to_structure_constants(matrix_algebra(d, k=1))


def group_algebra(group: AbelianGroup) -> StructureConstantAlgebra:
    """The rational group algebra Q[T] with its tautological grading."""
    elems = list(group.elements())
    index = {t: i for i, t in enumerate(elems)}
    labels = [f"g{t.coords}" for t in elems]
    table = {
        (index[t], index[s]): {index[t + s]: 1}
        for t in elems for s in elems
    }
    return StructureConstantAlgebra(labels, elems, table, {index[group.zero()]: 1})


def direct_sum(a: StructureConstantAlgebra, b: StructureConstantAlgebra) -> StructureConstantAlgebra:
    """Direct sum graded by the direct product of the two grading groups."""
    ga, gb = a.group, b.group
    torsion = ga.torsion + gb.torsion
    group = AbelianGroup(ga.free_rank + gb.free_rank, torsion)

    def lift_a(d):
        return group.element(
            d.coords[:ga.free_rank] + (0,) * gb.free_rank
            + d.coords[ga.free_rank:] + (0,) * len(gb.torsion)
        )

    def lift_b(d):
        return group.element(
            (0,) * ga.free_rank + d.coords[:gb.free_rank]
            + (0,) * len(ga.torsion) + d.coords[gb.free_rank:]
        )

    labels = [f"L:{l}" for l in a.labels] + [f"R:{l}" for l in b.labels]
    degrees = [lift_a(d) for d in a.degrees] + [lift_b(d) for d in b.degrees]
    table = {}
    for (i, j), entry in a.table.items():
        table[(i, j)] = dict(entry)
    off = a.dim
    for (i, j), entry in b.table.items():
        table[(i + off, j + off)] = {k + off: c for k, c in entry.items()}
    unity = dict(a.unity)
    unity.update({k + off: c for k, c in b.unity.items()})
    return StructureConstantAlgebra(labels, degrees, table, unity)


@dataclass
class HxHReport:
    graded_simple: bool
    int_ii_stabilizes: bool
    invertible_homogeneous_all_central: bool
    algebra: StructureConstantAlgebra

    def all_pass(self) -> bool:
        return (
            not self.graded_simple
            and self.int_ii_stabilizes
            and self.invertible_homogeneous_all_central
        )


def quaternion_pair_algebra() -> StructureConstantAlgebra:
    """H x H graded by Z2^4: each factor carries the sign grading of H."""
    group = AbelianGroup(0, (2, 2, 2, 2))
    units = [
        RationalQuaternion.one(), RationalQuaternion.i(),
        RationalQuaternion.j(), RationalQuaternion.k(),
    ]
    qdeg = [(0, 0), (1, 0), (0, 1), (1, 1)]
    basis = []  # (side, unit index)
    for side in (0, 1):
        for idx in range(4):
            basis.append((side, idx))
    labels = [f"({'1ijk'[idx]},0)" if side == 0 else f"(0,{'1ijk'[idx]})"
              for side, idx in basis]
    degrees = []
    for side, idx in basis:
        d = qdeg[idx]
        coords = d + (0, 0) if side == 0 else (0, 0) + d
        degrees.append(group.element(coords))
    index = {pair: i for i, pair in enumerate(basis)}
    table = {}
    for i, (side1, a) in enumerate(basis):
        for j, (side2, b) in enumerate(basis):
            if side1 != side2:
                continue
            prod = units[a] * units[b]
            for c, unit in enumerate(units):
                if prod == unit:
                    table[(i, j)] = {index[(side1, c)]: 1}
                elif prod == -unit:
                    table[(i, j)] = {index[(side1, c)]: -1}
    unity = {index[(0, 0)]: 1, index[(1, 0)]: 1}
    return StructureConstantAlgebra(labels, degrees, table, unity)


def hxh_counterexample() -> HxHReport:
    """Verify the three claims about the Z2^2 x Z2^2 grading on H x H."""
    a = quaternion_pair_algebra()
    simple = is_graded_simple(a)

    x = a.element({1: 1, 5: 1})  # (i, i)
    stabilizes = int_in_stabilizer(a, x)

    # invertible homogeneous elements all lie in R(1,0) + R(0,1) = the center
    all_central = True
    for degree, indices in a.basis_degrees_by_component().items():
        if degree.is_zero():
            # identity component: invertible (l, m) needs l, m != 0; always central
            for i in indices:
                b = a._basis_vec(i)
                if any(a.mul_vectors(b, a._basis_vec(j)) != a.mul_vectors(a._basis_vec(j), b)
                       for j in range(a.dim)):
                    all_central = False
            continue
        # one-sided components consist of zero divisors
        for i in indices:
            if invert(a.basis_element(i)) is not None:
                all_central = False
    return HxHReport(simple, stabilizes, all_central, a)
