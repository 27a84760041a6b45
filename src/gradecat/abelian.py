"""Finitely generated abelian groups in invariant-factor normal form.

A group is Z^r x Z_{m1} x ... x Z_{ms} with 2 <= m1 | m2 | ... | ms.
Elements are integer coordinate vectors, free coordinates first; torsion
coordinates are kept reduced modulo their factor order.  Two groups compare
equal exactly when their normal forms coincide, which by the structure
theorem means they are isomorphic.  All arithmetic is exact.  Every type is
read by `universal_abelian_group` from relations: a grading's, or those of
the polycyclic presentation `abstract_type` builds from an element set.
"""

from __future__ import annotations

import functools
import itertools
import math
import types


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


def invariant_factors(orders) -> tuple[int, ...]:
    """Invariant-factor chain of a direct sum of cyclic groups of the given orders."""
    by_prime: dict[int, list[int]] = {}
    for m in orders:
        m = int(m)
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
        free_rank = int(free_rank)
        torsion = tuple(int(m) for m in torsion)
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
        return cls(json_int(data.get("free_rank", 0)),
                   [json_int(m) for m in data.get("torsion", ())])


def json_int(value) -> int:
    """`value`, read from JSON, if it is an int.  A float or a bool, which
    `int()` would truncate or read as 0 or 1, is a ValueError."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


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
        coords = tuple(int(c) for c in coords)
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
        if not isinstance(n, int):
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
    """Index form of a finite group for inner loops: (elements, index, add).

    `elements` lists the group in lexicographic coordinate order (that of
    `group.elements()`), `index` maps each element to its position, and
    `add[i][j]` is the position of elements[i] + elements[j].  Cached per
    group; every part is read-only.
    """
    elements = tuple(group.elements())
    index = {x: i for i, x in enumerate(elements)}
    add = tuple(tuple(index[x + y] for y in elements) for x in elements)
    return elements, types.MappingProxyType(index), add


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
    a = [[int(x) for x in row] for row in matrix]
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


def universal_abelian_group(labels, relations):
    """Quotient of the free abelian group on `labels` by integer relation vectors.

    Returns (group, projection) where projection maps each label to its image
    in the normal-form quotient.  Empty relations yield a free group.

    Labels with a +-1 coefficient are eliminated first, sparsely (Dumas,
    Saunders and Villard, J. Symbolic Comput. 32, 2001); `smith_normal_form`
    sees only the residual relations on the surviving labels.
    """
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate degree labels")
    n = len(labels)
    rows = set()
    for rel in relations:
        rel = tuple(rel)
        if len(rel) != n:
            raise ValueError("relation vector length does not match generators")
        ints = tuple(map(int, rel))
        if ints != rel:
            raise ValueError(f"relation entries must be integers: {rel}")
        if any(ints):
            rows.add(ints)
    # expr[x]: eliminated label x as a combination of the surviving labels,
    # kept so by substituting each new elimination into the earlier ones
    expr: dict[int, dict[int, int]] = {}
    pending = [{i: c for i, c in enumerate(rel) if c} for rel in sorted(rows)]
    changed = True
    while changed:
        changed = False
        kept = []
        for rel in pending:
            reduced: dict[int, int] = {}
            for i, c in rel.items():
                for j, e in expr[i].items() if i in expr else ((i, 1),):
                    reduced[j] = reduced.get(j, 0) + c * e
            reduced = {i: c for i, c in reduced.items() if c}
            x = min((i for i, c in reduced.items() if c in (1, -1)), default=None)
            if x is None:
                if reduced:
                    kept.append(reduced)
                continue
            eps = reduced.pop(x)
            new = {i: -eps * c for i, c in reduced.items()}
            for old in expr.values():
                c = old.pop(x, 0)
                if c:
                    for j, e in new.items():
                        old[j] = old.get(j, 0) + c * e
                        if not old[j]:
                            del old[j]
            expr[x] = new
            changed = True
        pending = kept
    survivors = [i for i in range(n) if i not in expr]
    residual = sorted({tuple(rel.get(i, 0) for i in survivors) for rel in pending})
    s, r = len(survivors), len(residual)
    # the columns are the residual relations; quotient Z^s / (column span)
    d, u = smith_normal_form([[rel[p] for rel in residual] for p in range(s)])
    diag = [d[i][i] if i < r else 0 for i in range(s)]
    free_rows = [i for i in range(s) if diag[i] == 0]
    tors_rows = [i for i in range(s) if diag[i] >= 2]
    group = AbelianGroup(len(free_rows), tuple(diag[i] for i in tors_rows))
    coords = {x: [u[i][p] for i in free_rows + tors_rows] for p, x in enumerate(survivors)}
    for x, combination in expr.items():
        coords[x] = [sum(c * coords[i][k] for i, c in combination.items())
                     for k in range(group.rank)]
    return group, {label: group.element(coords[x]) for x, label in enumerate(labels)}


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
    o_j g_j in S_(j-1).  The relations o_j e_j - c, j = 1, ..., r, go to
    `universal_abelian_group`.  Their matrix is triangular with diagonal
    o_j, so the lattice L they span has index prod o_j = |G / S_0| in Z^r.
    The map e_j -> g_j + S_0 is onto G / S_0, so its kernel has that index
    too, and it contains L; so the kernel is L, and Z^r / L = G / S_0.
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
    return universal_abelian_group(range(r), [rel + (0,) * (r - len(rel)) for rel in relations])[0]


def coset_rep(x: GroupElement, sub) -> GroupElement:
    """The element of the coset x + sub with the least coordinates."""
    return min((x + s for s in sub), key=lambda e: e.coords)


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

    T_j, on the coordinates j.., is the prefix 0..|T_j|-1 of positions, and
    g_j sits at |T_(j+1)|.  U_j maps g_j to each point of its orbit under
    W^(j+1), the p in W fixing T_(j+1), so |W^(j+1)| = |U_j| |W^(j)| (Sims;
    base g_0, ..., g_(r-1)).  Level j starts from the identity on T_(j+1),
    with the b it keeps; a candidate image of g_j not yet reached by closing
    the orbit under the representatives found gets a search of g_(j-1), ...,
    g_0 that stops at its first leaf.  A node tests what is new to its
    prefix: injectivity and the label at the new positions, and each b at
    the pairs (a, c) of `betas[0].generators` with a <= c and c new; a
    failing b is dropped for the branch, cut when none is left.  Those
    below |T_j| generate K n T_j (greedy in position order); (a, a) puts
    p(a) in K (b is None off K x K), and b o (p x p) and beta are skew
    bicharacters on K n T_j, equal once equal on generator pairs.  At a
    leaf p is bijective, so p(K) = K.
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
