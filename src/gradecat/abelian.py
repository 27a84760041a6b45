"""Finitely generated abelian groups in invariant-factor normal form.

A group is Z^r x Z_{m1} x ... x Z_{ms} with 2 <= m1 | m2 | ... | ms.
Elements are integer coordinate vectors, free coordinates first; torsion
coordinates are kept reduced modulo their factor order.  Two groups compare
equal exactly when their normal forms coincide, which by the structure
theorem means they are isomorphic.  All arithmetic is exact.  Every type is
read off the diagonal of `smith_normal_form`: from a grading's relations by
`universal_abelian_group`, or from the polycyclic presentation
`abstract_type` builds from an element set.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import types
from collections.abc import Mapping


class GroupMismatchError(ValueError):
    """Raised when elements of different parent groups are combined."""


class AutBoundError(ValueError):
    """Automorphism search refused: group infinite or too large."""


ELEMENT_BOUND = 256  # the largest |T| whose Aut(T) is searched


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def exact_ints(values, what: str) -> tuple:
    """`values` as a tuple when every one is an int.  Anything else, a float
    or a bool included, which int() would truncate or read as 0 or 1, is a
    TypeError naming `what`."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise TypeError(f"{what} {v!r} is not an int")
    return values


def invariant_factors(orders) -> tuple[int, ...]:
    """Invariant-factor chain of a direct sum of cyclic groups of the given orders."""
    return _invariant_chain(exact_ints(orders, "cyclic order"))


@functools.lru_cache(maxsize=256)
def _invariant_chain(orders: tuple) -> tuple[int, ...]:
    """`invariant_factors` of orders already gated to ints, cached: keyed by
    the gated tuple, so 2.0 or True never reach it in place of 2 or 1."""
    by_prime: dict[int, list[int]] = {}
    for m in orders:
        if m < 1:
            raise ValueError(f"cyclic order must be positive, got {m}")
        for p, e in _factor(m).items():
            by_prime.setdefault(p, []).append(e)
    for exps in by_prime.values():
        exps.sort(reverse=True)
    depth = max((len(v) for v in by_prime.values()), default=0)
    chain = []
    for layer in range(depth):
        f = 1
        for p, exps in by_prime.items():
            if layer < len(exps):
                f *= p ** exps[layer]
        chain.append(f)
    chain.reverse()
    return tuple(f for f in chain if f > 1)


class AbelianGroup:
    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int = 0, torsion=()):
        (free_rank,) = exact_ints((free_rank,), "free rank")
        torsion = exact_ints(torsion, "torsion order")
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for m in torsion:
            if m < 2:
                raise ValueError(f"torsion orders must be >= 2, got {m}")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError(f"torsion orders must form a divisibility chain: {torsion}")
        self.free_rank = free_rank
        self.torsion = torsion

    @classmethod
    def from_cyclic_orders(cls, orders, free_rank: int = 0) -> "AbelianGroup":
        """Normal form of Z^free_rank x (direct sum of cyclic groups of given orders)."""
        return cls(free_rank, invariant_factors(orders))

    @classmethod
    def trivial(cls) -> "AbelianGroup":
        return cls(0, ())

    @property
    def rank(self) -> int:
        return self.free_rank + len(self.torsion)

    def order(self):
        """Group order, or None if infinite."""
        if self.free_rank:
            return None
        return math.prod(self.torsion) if self.torsion else 1

    def exponent(self) -> int:
        if self.free_rank:
            raise ValueError("infinite group has no finite exponent")
        return self.torsion[-1] if self.torsion else 1

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def is_elementary_two(self) -> bool:
        return self.free_rank == 0 and all(m == 2 for m in self.torsion)

    def element(self, coords) -> "GroupElement":
        return GroupElement(self, coords)

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def generators(self) -> list["GroupElement"]:
        gens = []
        for i in range(self.rank):
            coords = [0] * self.rank
            coords[i] = 1
            gens.append(GroupElement(self, coords))
        return gens

    def elements(self):
        """Iterate all elements (finite groups only), in lexicographic coordinate order."""
        if self.free_rank:
            raise ValueError("cannot enumerate an infinite group")
        for coords in itertools.product(*(range(m) for m in self.torsion)):
            yield GroupElement(self, coords)

    def direct_sum(self, other: "AbelianGroup") -> "AbelianGroup":
        return AbelianGroup.from_cyclic_orders(
            self.torsion + other.torsion, self.free_rank + other.free_rank
        )

    def __eq__(self, other):
        if not isinstance(other, AbelianGroup):
            return NotImplemented
        return self.free_rank == other.free_rank and self.torsion == other.torsion

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __repr__(self):
        return f"AbelianGroup(free_rank={self.free_rank}, torsion={list(self.torsion)})"

    def pretty(self) -> str:
        """Human-readable name, e.g. 'Z^2 × Z2^3 × Z4'."""
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        for m, grp in itertools.groupby(self.torsion):
            c = len(list(grp))
            parts.append(f"Z{m}" if c == 1 else f"Z{m}^{c}")
        return " × ".join(parts) if parts else "1"

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, data: dict) -> "AbelianGroup":
        return cls(data.get("free_rank", 0), data.get("torsion", ()))


def parse_group_string(text: str) -> AbelianGroup:
    """Parse 'Z2xZ2', 'Z3^2', 'ZxZ2^3', '1' into a group in normal form."""
    text = text.strip()
    if text in ("1", "0", "triv", "trivial", ""):
        return AbelianGroup.trivial()
    free = 0
    orders: list[int] = []
    for part in text.replace("×", "x").split("x"):
        part = part.strip()
        base, _, power = part.partition("^")
        count = int(power) if power else 1
        if count < 1:
            raise ValueError(f"bad multiplicity in group spec: {part!r}")
        base = base.strip()
        if not base.startswith("Z"):
            raise ValueError(f"cannot parse group factor {part!r}")
        digits = base[1:].strip()
        if digits == "":
            free += count
        else:
            orders.extend([int(digits)] * count)
    return AbelianGroup.from_cyclic_orders(orders, free)


class GroupElement:
    __slots__ = ("group", "coords")

    def __init__(self, group: AbelianGroup, coords):
        coords = exact_ints(coords, "coordinate")
        if len(coords) != group.rank:
            raise ValueError(f"expected {group.rank} coordinates, got {len(coords)}")
        r = group.free_rank
        reduced = coords[:r] + tuple(
            c % m for c, m in zip(coords[r:], group.torsion)
        )
        self.group = group
        self.coords = reduced

    def _check(self, other: "GroupElement"):
        if not isinstance(other, GroupElement) or self.group != other.group:
            raise GroupMismatchError("elements belong to different groups")

    def __add__(self, other):
        self._check(other)
        return GroupElement(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return GroupElement(self.group, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return GroupElement(self.group, tuple(-a for a in self.coords))

    def __mul__(self, n):
        if type(n) is not int:  # a bool is no multiplier
            return NotImplemented
        return GroupElement(self.group, tuple(n * a for a in self.coords))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def order(self):
        """Element order, or None if infinite."""
        r = self.group.free_rank
        if any(self.coords[:r]):
            return None
        n = 1
        for c, m in zip(self.coords[r:], self.group.torsion):
            if c:
                n = math.lcm(n, m // math.gcd(c, m))
        return n

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.group == other.group and self.coords == other.coords

    def __hash__(self):
        return hash((self.group.free_rank, self.group.torsion, self.coords))

    def __repr__(self):
        return f"<{','.join(map(str, self.coords))}>"


@functools.lru_cache(maxsize=64)
def support_table(group: AbelianGroup):
    """(elements, index, add): the positions of a finite group T, its one
    representation below the public API.  With T_j the subgroup on the
    coordinates j.. of `group.torsion`, the element with coordinates c sits
    at sum c_j |T_(j+1)| (mixed radix, last digit fastest): `elements` is
    the lexicographic order of `group.elements()`, e_j sits at |T_(j+1)|,
    and T_j is the prefix of |T_j| positions.  `index` inverts `elements`;
    `add[i][j]` is the position of elements[i] + elements[j], one digit m at
    a time: (s m + a) + (s' m + b) = add[s][s'] m + (a + b) mod m.  Cached;
    read-only.
    """
    elements = tuple(group.elements())
    add = [[0]]
    for m in group.torsion:
        add = [[s * m + (a + b) % m for s in row for b in range(m)]
               for row in add for a in range(m)]
    index = {x: i for i, x in enumerate(elements)}
    return elements, types.MappingProxyType(index), tuple(map(tuple, add))


class GroupHomomorphism:
    """Homomorphism given by the images of the source generators (free first)."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: AbelianGroup, target: AbelianGroup, images):
        images = tuple(images)
        if len(images) != source.rank:
            raise ValueError("one image per source generator required")
        for img in images:
            if img.group != target:
                raise GroupMismatchError("image lies outside the target group")
        for gen_order, img in zip(source.torsion, images[source.free_rank:]):
            if not (gen_order * img).is_zero():
                raise ValueError(
                    f"image of an order-{gen_order} generator must have order dividing {gen_order}"
                )
        self.source = source
        self.target = target
        self.images = images

    def __call__(self, el: GroupElement) -> GroupElement:
        if el.group != self.source:
            raise GroupMismatchError("element not in the source group")
        out = [0] * self.target.rank
        for c, img in zip(el.coords, self.images):
            if c:
                out = [a + c * b for a, b in zip(out, img.coords)]
        return GroupElement(self.target, out)

    def __eq__(self, other):
        if not isinstance(other, GroupHomomorphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and tuple(i.coords for i in self.images) == tuple(i.coords for i in other.images)
        )

    def __hash__(self):
        return hash((self.source, self.target, tuple(i.coords for i in self.images)))

    def __repr__(self):
        return f"GroupHomomorphism({[i.coords for i in self.images]})"


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(matrix):
    """Exact Smith normal form with its row transform.

    Returns (d, u) with u * matrix * v == d for some unimodular v, which is
    not built: u is unimodular and d is diagonal with nonnegative entries
    forming a divisibility chain.
    """
    a = [list(exact_ints(row, "matrix entry")) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    for row in a:
        if len(row) != n:
            raise ValueError("ragged matrix")
    u = [[int(i == j) for j in range(m)] for i in range(m)]

    def row_op(i, j, q):  # row_i -= q*row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q*col_j
        for row in a:
            row[i] -= q * row[j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # move the smallest-magnitude nonzero of the trailing block to (t, t)
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        while True:
            pi, pj = pivot
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            if a[t][t] < 0:
                row_neg(t)
            # clear row and column t by division with remainder
            for i in range(t + 1, m):
                if a[i][t]:
                    row_op(i, t, a[i][t] // a[t][t])
            for j in range(t + 1, n):
                if a[t][j]:
                    col_op(j, t, a[t][j] // a[t][t])
            pivot = None
            for i in range(t + 1, m):
                if a[i][t]:
                    pivot = (i, t)
                    break
            if pivot is None:
                for j in range(t + 1, n):
                    if a[t][j]:
                        pivot = (t, j)
                        break
            if pivot is None:
                # make the pivot divide the remaining block, else fold the
                # offending row in and repeat
                offender = None
                for i in range(t + 1, m):
                    for j in range(t + 1, n):
                        if a[i][j] % a[t][t]:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                row_op(t, offender, -1)
                pivot = (t, t)
        t += 1

    d = [[a[i][j] if i == j else 0 for j in range(n)] for i in range(m)]
    return d, u


def _relation_rows(relations, n: int) -> list:
    """The distinct nonzero relations, each as its sorted nonzero
    (position, int) pairs, in sorted order, so that neither the order nor
    the form of the input changes the result.  A relation is dense (a
    sequence of n ints) or sparse (a mapping of positions in range(n) to
    ints).  An entry or a position that is not an int is refused: `int()`
    would truncate a float and read a bool as 0 or 1."""
    relations, rows = list(relations), []
    for rel in relations:
        if isinstance(rel, Mapping):
            rows.append(tuple(rel.items()))
        else:
            rows.append(tuple(enumerate(rel)))
            if len(rows[-1]) != n:
                raise ValueError("relation vector length does not match generators")
    positions = [i for items in rows for i, _ in items]
    entries = [c for items in rows for _, c in items]
    if set(map(type, positions)) - {int} or positions and (min(positions) < 0
                                                       or max(positions) >= n):
        rel = next(rel for rel, items in zip(relations, rows)
                   if not all(type(i) is int and 0 <= i < n for i, _ in items))
        raise ValueError(f"relation positions must be integers in range({n}): {rel}")
    if set(map(type, entries)) - {int}:
        rel = next(rel for rel, items in zip(relations, rows)
                   if not all(type(c) is int for _, c in items))
        raise ValueError(f"relation entries must be integers: {rel}")
    if 0 in entries:
        rows = [tuple(pair for pair in items if pair[1]) for items in rows]
    return sorted(set(map(tuple, map(sorted, rows))) - {()})


def universal_abelian_group(labels, relations):
    """Quotient of the free abelian group on `labels` by integer relations.

    A relation is dense, one int per label, or sparse, a mapping of label
    positions to ints; the two forms of one relation set give the same
    result.  Returns (group, projection) where projection, a read-only
    Mapping in label order, maps each label to its image in the normal-form
    quotient; an image is built when its label is first read.  Empty
    relations yield a free group.

    Labels are eliminated first, sparsely, by a worklist (Dumas, Saunders
    and Villard, J. Symbolic Comput. 32, 2001).  A label is open until it
    survives or is eliminated; then it is final, with its expression on the
    survivors.  A relation in which x is the only open label, with
    coefficient +-1, eliminates x: x becomes the combination of final
    labels that the relation gives, so its expression is final when it is
    made and no expression is ever rewritten.  When no relation qualifies,
    the lowest open label survives.  A relation not used so, once all its
    labels are final, is rewritten on the survivors.  Each elimination is a
    Tietze move, so the group is Z^survivors over these residual
    relations, and `smith_normal_form` sees only them.
    """
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate degree labels")
    n = len(labels)
    rows = _relation_rows(relations, n)
    expr: list = [None] * n  # final label -> {survivor number: coefficient}
    open_count, used = [len(rel) for rel in rows], [False] * len(rows)
    containing: list[list[int]] = [[] for _ in range(n)]
    for r, rel in enumerate(rows):
        for i, _ in rel:
            containing[i].append(r)
    queue = collections.deque(r for r, rel in enumerate(rows) if len(rel) == 1)
    residual, s, lowest = [], 0, 0

    def finalize(x: int, combination: dict):
        expr[x] = combination
        for r in containing[x]:
            open_count[r] -= 1
            if open_count[r] <= 1:
                queue.append(r)

    while True:
        while queue:
            r = queue.popleft()
            if used[r]:
                continue
            rel = rows[r]
            pending = [(i, c) for i, c in rel if expr[i] is None]  # at most one
            if not pending:
                used[r] = True
                residual.append(rel)
            elif pending[0][1] in (1, -1):
                used[r] = True
                x, eps = pending[0]
                combination: dict[int, int] = {}
                for i, c in rel:
                    if i != x:
                        for j, e in expr[i].items():
                            combination[j] = combination.get(j, 0) - eps * c * e
                finalize(x, {j: c for j, c in combination.items() if c})
        while lowest < n and expr[lowest] is not None:
            lowest += 1
        if lowest == n:
            break
        finalize(lowest, {s: 1})  # the survivor numbered s
        s += 1
    vectors = [tuple(map(e.get, range(s), [0] * s)) for e in expr]  # on the survivors

    def on_survivors(rel) -> tuple:  # sum c vectors[i]
        return tuple(map(sum, zip(*([c * y for y in vectors[i]] for i, c in rel))))

    residual = sorted({on_survivors(rel) for rel in residual} - {(0,) * s})
    r = len(residual)
    # the columns are the residual relations; quotient Z^s / (column span)
    d, u = smith_normal_form([[rel[p] for rel in residual] for p in range(s)])
    diag = [d[i][i] if i < r else 0 for i in range(s)]
    free_rows = [i for i in range(s) if diag[i] == 0]
    tors_rows = [i for i in range(s) if diag[i] >= 2]
    group = AbelianGroup(len(free_rows), tuple(diag[i] for i in tors_rows))
    images = [u[i] for i in free_rows + tors_rows]  # survivor p goes to column p
    return group, _Projection(group, images, dict(zip(labels, vectors)))


class _Projection(Mapping):
    """The label projection of `universal_abelian_group`, read-only, in label
    order.  A label's image, row p of `images` dotted with its vector on the
    survivors, is built when the label is first read and kept."""

    __slots__ = ("_group", "_images", "_vectors", "_built")

    def __init__(self, group: AbelianGroup, images: list, vectors: dict):
        self._group, self._images, self._vectors, self._built = group, images, vectors, {}

    def __getitem__(self, label) -> GroupElement:
        image = self._built.get(label)
        if image is None:
            vector = self._vectors[label]
            image = self._built[label] = self._group.element(
                [sum(map(operator.mul, row, vector)) for row in self._images])
        return image

    def __iter__(self):
        return iter(self._vectors)

    def __len__(self) -> int:
        return len(self._vectors)

    def __repr__(self):
        return f"{type(self).__name__}({dict(self)!r})"


# ---------------------------------------------------------------------------
# Subgroups, quotients, abstract types
# ---------------------------------------------------------------------------

def subgroup_generated(group: AbelianGroup, gens) -> frozenset:
    """All elements of the subgroup of a finite group generated by `gens`."""
    if not group.is_finite():
        raise ValueError("subgroup enumeration requires a finite group")
    current = {group.zero()}
    for g in gens:
        if g.group != group:
            raise GroupMismatchError("generator outside the group")
        span = set()
        step = group.zero()
        m = g.order()
        for _ in range(m):
            span.update(x + step for x in current)
            step = step + g
        current = span
    return frozenset(current)


def abstract_type(elements, add=None, modulo=()) -> AbelianGroup:
    """Isomorphism type of the finite abelian group G on `elements`, or of
    G / <modulo>, read off a polycyclic presentation.  `add` is the group
    law, `+` by default, so the items need not be GroupElement values.

    S_0 is the span of `modulo` (of the identity when it is empty).  The
    elements are taken in order, and each g not in S_(j-1) becomes g_j,
    with S_j = S_(j-1) + <g_j>.  Its relative order o_j is the least o with
    o g_j in S_(j-1); the cosets of S_(j-1) in S_j are the k g_j, 0 <= k <
    o_j, so |S_j| = o_j |S_(j-1)|.  Each element x of S_j is kept with
    coordinates a on g_1, ..., g_j, x - sum a_i g_i in S_0; c are those of
    o_j g_j in S_(j-1).  The relations o_j e_j - c, j = 1, ..., r, form a
    triangular matrix with diagonal o_j, whose rows span a lattice L of
    index prod o_j = |G / S_0| in Z^r.  The map e_j -> g_j + S_0 is onto
    G / S_0, so its kernel has that index too and contains L; so it is L,
    and G / S_0 = Z^r / L = sum Z_(d_ii), d = u L v in Smith normal form.
    """
    items = list(elements)
    add = add or (lambda x, y: x + y)
    span = {next(x for x in items if add(x, x) == x): ()}  # x -> its coordinates
    relations = []  # o_j e_j - c, on e_1, ..., e_j
    for g, counted in itertools.chain(((m, False) for m in modulo), ((g, True) for g in items)):
        if g in span:
            continue
        steps = [g]  # k g for k = 1, ..., o - 1
        while (step := add(steps[-1], g)) not in span:
            steps.append(step)
        if counted:
            relations.append(tuple(-c for c in span[step]) + (len(steps) + 1,))
        span = {x: a + (0,) * counted for x, a in span.items()} | {  # S_0 adds no coordinate
            add(x, y): a + (k,) * counted for k, y in enumerate(steps, 1) for x, a in span.items()}
    r = len(relations)
    d, _ = smith_normal_form([rel + (0,) * (r - len(rel)) for rel in relations])
    return AbelianGroup(0, tuple(d[i][i] for i in range(r) if d[i][i] > 1))


def quotient_type(group: AbelianGroup, subgroup_elements) -> AbelianGroup:
    """Isomorphism type of group / <subgroup_elements> for a finite group."""
    return abstract_type(group.elements(), modulo=subgroup_elements)


def square_elements(group: AbelianGroup) -> frozenset:
    """The subgroup {2t : t in T} of a finite group, as an element set."""
    if not group.is_finite():
        raise ValueError("square subgroup requires a finite group")
    return frozenset(2 * t for t in group.elements())


def character_group(group: AbelianGroup, m: int) -> AbelianGroup:
    """Hom(T, Z_m) of a finite group T, in normal form."""
    if not group.is_finite():
        raise ValueError("character group requires a finite support")
    if m < 1:
        raise ValueError("target order must be positive")
    return AbelianGroup.from_cyclic_orders(
        [g for g in (math.gcd(mi, m) for mi in group.torsion) if g > 1]
    )


@functools.lru_cache(maxsize=64)
def _aut_candidates(group: AbelianGroup) -> tuple:
    """The positions each generator may go to, those of an order dividing its
    own; raises AutBoundError when the group is infinite or has more than
    ELEMENT_BOUND elements."""
    if not group.is_finite():
        raise AutBoundError("group is infinite")
    if group.order() > ELEMENT_BOUND:
        raise AutBoundError(f"|T| = {group.order()} exceeds the bound {ELEMENT_BOUND}")
    elements = support_table(group)[0]
    return tuple(tuple(i for i, x in enumerate(elements) if m % x.order() == 0)
                 for m in group.torsion)


def automorphism_group(group: AbelianGroup, label=None, betas=()) -> tuple:
    """The group W of the automorphisms p of a finite abelian group keeping
    the invariants given (all of Aut(T) with none) as a stabilizer chain:
    transversals U_0, ..., U_(r-1) of position tuples, the identity first,
    whose products u_(r-1) o ... o u_0 list W once each (`chain_elements`).
    AutBoundError as in `_aut_candidates`.  p[i] is the position in
    `support_table(group)` of the image of elements[i].  p keeps `label`, a
    list, if label[p[x]] == label[x] for all x, and `betas`, a `Bicharacter`
    beta on a subgroup K alone or with `beta.conjugate()`, if some b in
    `betas` has b.ids[p[x]][p[y]] == beta.ids[x][y] for all x, y; either
    way the p kept form a group.

    T_j and g_j = e_j are placed as `support_table` lays T out.  U_j maps
    g_j to each point of its orbit under W^(j+1), the p in W fixing T_(j+1),
    so |W^(j+1)| = |U_j| |W^(j)| (Sims; base g_0, ..., g_(r-1)).  Level j
    starts from the identity on T_(j+1), with the b it keeps; a candidate
    image of g_j not yet reached by closing the orbit under the
    representatives found gets a search of g_(j-1), ..., g_0 that stops at
    its first leaf.  A node tests what is new to its prefix: injectivity and
    the label at the new positions, and each b at the pairs (a, c) of
    `betas[0].generators` with a <= c and c new; a failing b is dropped for
    the branch, cut when none is left.  Those below |T_j| generate K n T_j
    (greedy in position order); (a, a) puts p(a) in K (b is None off K x K),
    and b o (p x p) and beta are skew bicharacters on K n T_j, equal once
    equal on generator pairs.  At a leaf p is bijective, so p(K) = K.
    """
    candidates, (_, _, add) = _aut_candidates(group), support_table(group)
    torsion, identity = group.torsion, tuple(range(group.order()))
    gens = betas[0].generators if betas else ()
    sizes = [math.prod(torsion[j:]) for j in range(len(torsion) + 1)]  # |T_j|
    pairs = [[(a, c, betas[0].ids[a][c]) for c in gens if sizes[j + 1] <= c < sizes[j]
              for a in gens if a <= c] for j in range(len(torsion))]  # tested as g_j is placed

    def first_leaf(j: int, images: list, alive, xs):
        """The first p in W with these images of T_(j+1) and p(g_j) in xs."""
        if j < 0:
            return tuple(images)
        for x in xs:
            extended, step = list(images), x
            for _ in range(torsion[j] - 1):
                extended += [add[step][y] for y in images]
                step = add[step][x]
            start, stop = len(images), len(extended)
            if len(set(extended)) < stop or label is not None and \
                    [*map(label.__getitem__, extended[start:])] != label[start:stop]:
                continue
            live = [b for b in alive if all(b.ids[extended[a]][extended[c]] == w
                                            for a, c, w in pairs[j])]
            leaf = (live or not betas) and first_leaf(j - 1, extended, live, candidates[j - 1])
            if leaf:
                return leaf
        return None

    transversals, strong = [], []
    for j in range(len(torsion)):
        alive = [b for b in betas if all(b.ids[a][c] == w for level in pairs[j + 1:]
                                         for a, c, w in level)]
        orbit = {sizes[j + 1]: identity}  # image of g_j -> its representative
        for x in candidates[j]:
            leaf = x not in orbit and first_leaf(j, list(identity[:sizes[j + 1]]), alive, [x])
            if leaf:
                strong.append(leaf)
                orbit[x] = leaf
                points = list(orbit)
                for y in points:  # grows as the orbit closes
                    for s in strong:
                        if s[y] not in orbit:
                            orbit[s[y]] = compose(s, orbit[y])
                            points.append(s[y])
        transversals.append(tuple(orbit.values()))
    return tuple(transversals)


def chain_elements(transversals) -> list[tuple[int, ...]]:
    """The elements u_(r-1) o ... o u_0 of the group with these transversals
    (see `automorphism_group`), each once, the identity first."""
    elements = list(transversals[0]) if transversals else [(0,)]  # T = 0: its identity
    for level in transversals[1:]:
        elements = [compose(u, e) for u in level for e in elements]
    return elements


def compose(p: tuple, q: tuple) -> tuple:
    """p o q for automorphisms given as position tuples."""
    return tuple(p[i] for i in q)
