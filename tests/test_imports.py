"""Every name a package module imports is used there or re-exported.

No linter ships with the package, so this reads each module's syntax tree
with the standard library's ``ast``.
"""

import ast
from pathlib import Path

import pytest

SOURCES = Path(__file__).resolve().parents[1] / "src" / "meridian4"

# perfbench/tracing.py patches orthonormalize where these modules look it up.
EXEMPT = {("curves.py", "orthonormalize"), ("oracle.py", "orthonormalize")}


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts}
    return sorted(name for name in imported if name not in read)


@pytest.mark.parametrize("path", sorted(SOURCES.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read_or_exported(path):
    unused = _unused_imports(ast.parse(path.read_text(), str(path)))
    assert [n for n in unused if (path.name, n) not in EXEMPT] == []


def test_the_checker_finds_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c as d\n__all__ = ['d']\n")
    assert _unused_imports(tree) == ["b", "os"]
