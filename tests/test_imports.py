"""Source hygiene: every module-level import in the package is used, and
every exported name exists."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "collabsc"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads.

    A name listed in a literal ``__all__`` counts as read; ``from __future__``
    imports bind nothing.
    """
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_finds_an_unused_import():
    source = "import math\nimport os as o\nfrom sys import argv, path\nprint(o, path)\n"
    assert unused_imports(source) == ["math", "argv"]


def test_future_imports_and_all_count_as_used():
    source = "from __future__ import annotations\nfrom os import sep\n__all__ = ['sep']\n"
    assert unused_imports(source) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_module_imports_are_all_used(path):
    assert unused_imports(path.read_text()) == []


def test_every_exported_name_resolves():
    import collabsc

    assert [name for name in collabsc.__all__ if not hasattr(collabsc, name)] == []
