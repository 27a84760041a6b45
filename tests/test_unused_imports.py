"""Every module-level import of the package is used by its module."""

import ast
import pathlib

import pytest

SOURCES = sorted(
    p for p in (pathlib.Path(__file__).parent.parent / "src" / "gradecat").glob("*.py")
    if p.name != "__init__.py"
)


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
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
