"""Enumeration of fine gradings on the covered real matrix algebras.

Every fine abelian group grading on a graded-simple algebra with the DCC
is M_k(D) for a fine division grading on D, and equivalence classes are
pairs (k, class of D).  The classifier therefore factors n over the fine
entries of the division catalog.  Coverage is restricted to the algebras
whose tables are pinned down here: M_1/M_2 over R, H, and M_n(C) for
n <= 4; anything else raises a coverage error rather than a partial answer.
"""

from __future__ import annotations

import itertools
import re

from .abelian import AbelianGroup, _factor
from .autgroups import (
    IDENTIFY_BOUND,
    WeylModel,
    diag_descriptor,
    stab_descriptor,
    weyl_descriptor,
)
from .division import GradedDivisionAlgebra, canonical, underlying_algebra_name
from .matrix import (
    expected_universal_group,
    harvest_universal_group,
    is_fine,
    matrix_algebra,
)
from .records import Record


class CoverageError(ValueError):
    """The requested algebra is outside the pinned catalog coverage."""


_COVERED = {("R", 1), ("R", 2), ("H", 1), ("C", 1), ("C", 2), ("C", 3), ("C", 4)}

_NAME_RE = re.compile(r"^M_?\(?(\d+)\)?[,_(]*([RCH])\)?$", re.IGNORECASE)


def parse_algebra_name(name: str):
    """Accepts 'M4C', 'M(4,C)', 'M_2(R)', 'H', 'R', 'C'."""
    text = name.strip().replace(" ", "")
    if text.upper() in ("R", "C", "H"):
        return text.upper(), 1
    match = _NAME_RE.match(text)
    if not match:
        raise CoverageError(f"cannot parse algebra name {name!r}")
    size = int(match.group(1))
    if size < 1:
        raise CoverageError(f"cannot parse algebra name {name!r}: the size must be at least 1")
    return match.group(2).upper(), size


def _abelian_groups_of_order(n: int):
    """All abelian groups of order n up to isomorphism."""
    def partitions(total):
        if total == 0:
            yield ()
            return
        for first in range(total, 0, -1):
            for rest in partitions(total - first):
                if not rest or first >= rest[0]:
                    yield (first,) + rest

    factors = _factor(n)
    per_prime = []
    for p, e in factors.items():
        per_prime.append([[p ** part for part in parts] for parts in partitions(e)])
    for combo in itertools.product(*per_prime):
        orders = [m for group in combo for m in group]
        yield AbelianGroup.from_cyclic_orders(orders)


def _elementary(rank: int) -> AbelianGroup:
    return AbelianGroup(0, (2,) * rank)


def _division_plans(family: str, n: int):
    """(k, type_tag, support) for every fine division grading of each factor."""
    plans = []
    for k in range(1, n + 1):
        if n % k:
            continue
        p = n // k
        if family == "R":
            if p & (p - 1) == 0:
                m = p.bit_length() - 1
                plans.append((k, "1-a", _elementary(2 * m)))
        elif family == "H":
            # D = M_p(H) carries the dimension-1 grading with |T| = (2p)^2
            if p & (p - 1) == 0:
                m = p.bit_length()  # 2^(m-1) = p
                plans.append((k, "1-b", _elementary(2 * m)))
        else:
            if p & (p - 1) == 0:
                m = p.bit_length() - 1
                plans.append((k, "1-c", _elementary(2 * m + 1)))
                if m >= 1:
                    plans.append(
                        (k, "1-d", AbelianGroup(0, (2,) * (2 * m - 1) + (4,)))
                    )
            for h in _abelian_groups_of_order(p):
                support = h.direct_sum(h)
                if not support.is_elementary_two():
                    plans.append((k, "2-f", support))
    tag_order = {"1-a": 0, "1-b": 1, "1-c": 2, "1-d": 3, "2-f": 4}
    plans.sort(key=lambda plan: (-plan[0], tag_order[plan[1]], plan[2].torsion))
    return plans


class ClassificationRow(Record):
    """One row of the classification.  `division` is a GradedDivisionAlgebra,
    `algebra` a GradedMatrixAlgebra, `universal` an AbelianGroup,
    `weyl`, `stabilizer` and `diagonal` GroupDescriptors,
    `weyl_finite_order` an int (W(Gamma) is finite) and
    `weyl_identified` a str or None."""

    __slots__ = ("k", "division", "algebra", "description", "universal", "weyl",
                 "weyl_finite_order", "weyl_identified", "stabilizer", "diagonal", "flags")
    _defaults = {"flags": ()}

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "division": {
                "type": self.division.type_tag,
                "support": self.division.support.to_json(),
                "support_pretty": self.division.support.pretty(),
                "underlying": underlying_algebra_name(self.division),
            },
            "description": self.description,
            "universal": self.universal.to_json(),
            "universal_pretty": self.universal.pretty(),
            "weyl": {
                "pretty": self.weyl.pretty(),
                "sexpr": self.weyl.sexpr(),
                "finite_order": self.weyl_finite_order,
                "identified": self.weyl_identified,
            },
            "stabilizer": {
                "pretty": self.stabilizer.pretty(),
                "sexpr": self.stabilizer.sexpr(),
                "action": getattr(self.stabilizer, "action_note", ""),
            },
            "diagonal": {
                "pretty": self.diagonal.pretty(),
                "sexpr": self.diagonal.sexpr(),
            },
            "flags": list(self.flags),
        }


def _describe(row_k: int, division: GradedDivisionAlgebra) -> str:
    name = underlying_algebra_name(division)
    if division.support.is_trivial():
        return f"M_{row_k}(D), D = {name} trivially graded"
    if row_k == 1:
        return f"D = {name} of type ({division.type_tag})"
    return f"M_{row_k}(D), D = {name} of type ({division.type_tag})"


def _build_row(k: int, tag: str, support: AbelianGroup) -> ClassificationRow:
    division = canonical(tag, support)
    algebra = matrix_algebra(division, k=k)
    if not is_fine(algebra):
        raise AssertionError("catalog row is not a fine grading")
    universal, _ = harvest_universal_group(algebra)
    if universal != expected_universal_group(algebra):
        raise AssertionError("harvested universal group deviates from Z^(k-1) x T")
    weyl = weyl_descriptor(algebra)
    order = weyl.finite_part_order()
    identified = None
    if order <= IDENTIFY_BOUND:
        model = WeylModel(algebra)
        if model.order() != order:
            raise AssertionError("explicit Weyl model disagrees with the descriptor")
        identified = model.identify()
    flags = ("complex grading",) if tag == "2-f" else ()
    return ClassificationRow(
        k=k,
        division=division,
        algebra=algebra,
        description=_describe(k, division),
        universal=universal,
        weyl=weyl,
        weyl_finite_order=order,
        weyl_identified=identified,
        stabilizer=stab_descriptor(algebra),
        diagonal=diag_descriptor(algebra),
        flags=flags,
    )


def classify(name: str) -> list[ClassificationRow]:
    """All fine abelian group gradings on the named real algebra, one row per
    equivalence class, in a deterministic order."""
    family, n = parse_algebra_name(name)
    if (family, n) not in _COVERED:
        raise CoverageError(
            f"insufficient catalog: M_{n}({family}) is outside the covered set "
            + ", ".join(sorted(f"M_{m}({f})" for f, m in _COVERED))
        )
    return [_build_row(k, tag, support) for k, tag, support in _division_plans(family, n)]


def rows_to_table(rows, algebra_name: str) -> str:
    headers = ["#", "grading", "universal", "Weyl", "stabilizer", "diagonal", "flags"]
    body = []
    for idx, row in enumerate(rows, start=1):
        weyl = row.weyl.pretty()
        if row.weyl_identified and row.weyl_identified != weyl:
            weyl = f"{weyl} ≅ {row.weyl_identified}"
        body.append([
            str(idx),
            row.description,
            row.universal.pretty(),
            weyl,
            row.stabilizer.pretty(),
            row.diagonal.pretty(),
            ", ".join(row.flags),
        ])
    widths = [max(len(r[i]) for r in [headers] + body) for i in range(len(headers))]
    lines = [f"fine gradings on {algebra_name} ({len(rows)} classes)"]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def rows_to_json(rows, algebra_name: str) -> dict:
    return {
        "schema": 1,
        "algebra": algebra_name,
        "rows": [row.to_json() for row in rows],
    }
