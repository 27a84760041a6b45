"""Every module-level import of the package and of its tests is used by its
module, every module-level private function or class is used by the
package, and every public one is used by the package, exported, or traced
by perfbench.  Every module-level function or class of the tests other
than a `test_*` function or a pytest fixture is used by the tests."""

import ast
import importlib.util
import pathlib

import pytest

import gradecat

PACKAGE = sorted((pathlib.Path(__file__).parent.parent / "src" / "gradecat").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]
TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never references.

    `from __future__` imports and lines marked `# noqa: F401` (re-exports)
    are exempt.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        marked = "# noqa: F401" in "\n".join(lines[node.lineno - 1:node.end_lineno])
        if not marked:
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_a_stray_name():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "from .abelian import (\n    support_table,\n    compose,\n)\n"
        "from .structconst import is_graded_simple  # noqa: F401\n"
        "def f(p):\n    return compose(p, p), math.pi\n"
    )
    assert unused_imports(source) == ["support_table"]


def unreferenced_definitions(sources: dict) -> list[str]:
    """Module-level functions and classes (no dunder names) that no
    statement of `sources` references outside their own definition, as
    "module.name".  A name, an attribute or an imported name counts as a
    reference."""
    statements = []  # (module, node, the names it references)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    names.add(sub.name)
            statements.append((module, node, names))
    return [
        f"{module}.{node.name}" for module, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__")
        and not any(node.name in names for _, other, names in statements if other is not node)
    ]


def unreferenced_private_definitions(sources: dict) -> list[str]:
    """The unreferenced definitions with one leading underscore."""
    return [name for name in unreferenced_definitions(sources)
            if name.rpartition(".")[2].startswith("_")]


def unreferenced_test_helpers(sources: dict) -> list[str]:
    """The unreferenced definitions of test modules other than the `test_*`
    functions and the pytest fixtures, which pytest finds by name."""
    def is_fixture(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "attr", getattr(target, "id", None)) == "fixture"

    exempt = {node.name for source in sources.values() for node in ast.parse(source).body
              if isinstance(node, ast.FunctionDef)
              and (node.name.startswith("test_") or any(map(is_fixture, node.decorator_list)))}
    return [name for name in unreferenced_definitions(sources)
            if name.rpartition(".")[2] not in exempt]


def unreferenced_public_definitions(sources: dict, exported, spanned: dict) -> list[str]:
    """The unreferenced definitions without a leading underscore that are
    neither in `exported` (the package's `__all__`) nor named in `spanned`,
    the tracer's map of module to names, where "Class.method" names Class."""
    out = []
    for name in unreferenced_definitions(sources):
        module, _, short = name.rpartition(".")
        if not short.startswith("_") and short not in exported and short not in {
                attr.split(".")[0] for attr in spanned.get(module, ())}:
            out.append(name)
    return out


def test_private_definitions_are_used_by_the_package():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unreferenced_private_definitions(sources) == []


def test_private_definition_check_sees_a_helper_left_for_tests():
    sources = {
        "a": "def _used(x):\n    return x\n"
             "def _left_for_tests(z):\n    return _left_for_tests(z - 1) if z else 0\n"
             "class _Marker:\n    pass\n"
             "MARK = _Marker()\n",
        "b": "from .a import _used\n"
             "def f():\n    return _used(1)\n",
    }
    assert unreferenced_private_definitions(sources) == ["a._left_for_tests"]


def test_test_helpers_are_used_by_the_tests():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in TESTS}
    assert unreferenced_test_helpers(sources) == []


def test_test_helper_check_sees_a_helper_left_over():
    sources = {
        "test_a": "import pytest\n"
                  "def _used(x):\n    return x\n"
                  "def left_over(z):\n    return left_over(z - 1) if z else 0\n"
                  "@pytest.fixture(scope='module')\ndef table():\n    return 1\n"
                  "@pytest.fixture\ndef other():\n    return 2\n"
                  "def test_it(table, other):\n    assert _used(table)\n",
    }
    assert unreferenced_test_helpers(sources) == ["test_a.left_over"]


def test_public_definitions_are_used_exported_or_traced():
    """The re-exports of `__init__` are its `__all__`, so they are not
    counted as uses."""
    tracer = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", tracer)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unreferenced_public_definitions(sources, gradecat.__all__, module.SPANNED) == []


def test_public_definition_check_sees_a_function_left_for_tests():
    sources = {
        "a": "def used(x):\n    return x\n"
             "def exported():\n    pass\n"
             "class Traced:\n    def run(self):\n        pass\n"
             "def left_for_tests(z):\n    return left_for_tests(z - 1) if z else 0\n"
             "def _private():\n    pass\n",
        "b": "from .a import used\n"
             "def f():\n    return used(1)\n",
    }
    assert unreferenced_public_definitions(
        sources, ["exported", "f"], {"a": ("Traced.run",)}) == ["a.left_for_tests"]
