"""Value semantics of the descriptors and records, and what importing the CLI loads."""

import ast
import pathlib
import pickle
import subprocess
import sys

import pytest

from gradecat.abelian import AbelianGroup
from gradecat.autgroups import (
    DirectProduct,
    FiniteAbelian,
    NamedFinite,
    Opaque,
    SemidirectProduct,
    Symmetric,
    Torus,
)
from gradecat.classify import ClassificationRow
from gradecat.structconst import HxHReport
from gradecat.verify import CheckResult

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

_NEWLY_LOADED = """\
import sys
before = set(sys.modules)
sys.path.insert(0, {src!r})
import gradecat.cli
print(sorted(set(sys.modules) - before))
"""


def test_cli_import_loads_no_dataclasses_or_inspect():
    out = subprocess.run([sys.executable, "-I", "-c", _NEWLY_LOADED.format(src=str(SRC))],
                         capture_output=True, text=True, check=True).stdout
    loaded = ast.literal_eval(out.strip())
    assert "gradecat.cli" in loaded
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded


Z2 = AbelianGroup(0, (2,))
Z4 = AbelianGroup(0, (4,))

# (class, field values, other field values of the same class, repr of the first)
CASES = [
    (FiniteAbelian, (Z2,), (Z4,), f"FiniteAbelian(group={Z2!r})"),
    (Symmetric, (3,), (4,), "Symmetric(k=3)"),
    (NamedFinite, ("Sym(3)", 6), ("Sym(3)", 7), "NamedFinite(tag='Sym(3)', order=6)"),
    (Torus, ("Cx",), ("Rx",), "Torus(kind='Cx')"),
    (Opaque, ("W0[x]",), ("W0[y]",), "Opaque(label='W0[x]')"),
    (DirectProduct, ((Symmetric(3), Torus("Cx")),), ((Symmetric(3),),),
     "DirectProduct(factors=(Symmetric(k=3), Torus(kind='Cx')))"),
    (SemidirectProduct, (Torus("Cx"), Symmetric(3), "swap", False),
     (Torus("Cx"), Symmetric(3), "swap", True),
     "SemidirectProduct(normal=Torus(kind='Cx'), acting=Symmetric(k=3), "
     "action_note='swap', action_trivial=False)"),
]


@pytest.mark.parametrize("cls,values,other,text", CASES, ids=[c[0].__name__ for c in CASES])
def test_descriptor_value_semantics(cls, values, other, text):
    a, b, c = cls(*values), cls(*values), cls(*other)
    assert a == b and hash(a) == hash(b) and not a != b
    assert hash(a) == hash(values)
    assert a != c
    assert len({a, b, c}) == 2
    assert cls(**dict(zip(cls.__slots__, values))) == a
    assert repr(a) == text
    assert pickle.loads(pickle.dumps(a)) == a
    for field in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_descriptors_equal_by_type_and_fields():
    assert Symmetric(3) != NamedFinite("Sym(3)", 6)
    assert NamedFinite("Sym(3)", 6) != Symmetric(3)
    assert Torus("Cx") != Opaque("Cx")


def test_semidirect_defaults():
    sd = SemidirectProduct(Torus("Cx"), Symmetric(3))
    assert (sd.action_note, sd.action_trivial) == ("", False)
    assert sd == SemidirectProduct(acting=Symmetric(3), normal=Torus("Cx"),
                                   action_note="", action_trivial=False)


@pytest.mark.parametrize("call", [
    lambda: Symmetric(),
    lambda: Symmetric(3, 4),
    lambda: Symmetric(3, k=4),
    lambda: Symmetric(n=3),
])
def test_constructor_rejects_bad_arguments(call):
    with pytest.raises(TypeError):
        call()


def test_records_are_mutable_and_compare_by_fields():
    check = CheckResult("name", True)
    assert check.detail == ""
    assert check == CheckResult(name="name", ok=True, detail="")
    assert repr(check) == "CheckResult(name='name', ok=True, detail='')"
    check.ok, check.detail = False, "why"
    assert check == CheckResult("name", False, "why")
    with pytest.raises(TypeError):
        hash(check)
    report = HxHReport(False, True, True, None)
    report.graded_simple = True
    assert not report.all_pass()
    row = ClassificationRow(1, None, None, "d", Z2, Symmetric(1), 1, None, Torus("Rx"),
                            Torus("Rx"))
    assert row.flags == ()
    assert row == ClassificationRow(*[getattr(row, f) for f in ClassificationRow.__slots__])
    row.flags = ("x",)
    assert row != ClassificationRow(1, None, None, "d", Z2, Symmetric(1), 1, None,
                                    Torus("Rx"), Torus("Rx"))
