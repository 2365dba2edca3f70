"""Source hygiene: every module-level import in the package is used, every
exported name exists, only ``Tensor.__init__`` binds a tensor's ``values``,
and only ``Adam.__init__`` and the trainer's restore guard bind an
optimizer's ``state``."""

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


def attribute_bindings(source: str, attr: str,
                       owners: set[tuple[str, ...]]) -> list[tuple[tuple[str, ...], int]]:
    """(enclosing class/def names, line) of every assignment to, augmented
    assignment of or deletion of an attribute named ``attr``, outside the
    scopes ``owners``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == attr
                    and isinstance(child.ctx, (ast.Store, ast.Del)) and scope not in owners):
                found.append((scope, child.lineno))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, scope + (child.name,) if named else scope)

    visit(ast.parse(source), ())
    return found


def values_bindings(source: str) -> list[tuple[tuple[str, ...], int]]:
    """``attribute_bindings`` of ``values`` outside ``Tensor.__init__``.

    Parameters are views into their optimizer group's flat buffer, so code
    that sets their values must write into the array; binding a new one
    would silently detach the parameter from the buffer its optimizer steps.
    """
    return attribute_bindings(source, "values", {("Tensor", "__init__")})


def state_bindings(source: str) -> list[tuple[tuple[str, ...], int]]:
    """``attribute_bindings`` of ``state`` outside ``Adam.__init__`` and
    ``CollaborativeTrainer._restoring``.

    The restore guard is the one place that puts saved optimizer state
    back; a second one could restore moments without the parameters they
    belong to.
    """
    return attribute_bindings(source, "state", {("Adam", "__init__"),
                                                ("CollaborativeTrainer", "_restoring")})


def test_finds_values_bindings_outside_the_tensor_constructor():
    source = ("class Tensor:\n"
              "    def __init__(self, v):\n"
              "        self.values = v\n"
              "def load(p, q, v):\n"
              "    p.values[...] = v\n"
              "    p.values = v\n"
              "    p.values -= v\n"
              "    q.values, x = v, 1\n"
              "    del q.values\n")
    assert values_bindings(source) == [(("load",), 6), (("load",), 7), (("load",), 8),
                                       (("load",), 9)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_binds_values_only_in_the_tensor_constructor(path):
    assert values_bindings(path.read_text()) == []


def test_finds_state_bindings_outside_their_owners():
    source = ("class Adam:\n"
              "    def __init__(self, s):\n"
              "        self.state = s\n"
              "    def reset(self, s):\n"
              "        self.state = s\n"
              "class CollaborativeTrainer:\n"
              "    def _restoring(self, adam, s):\n"
              "        adam.state = s\n"
              "    def restore(self, adam, s):\n"
              "        adam.state.step = 0\n"
              "        adam.state = s\n"
              "        del adam.state\n")
    assert state_bindings(source) == [(("Adam", "reset"), 5),
                                      (("CollaborativeTrainer", "restore"), 11),
                                      (("CollaborativeTrainer", "restore"), 12)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_binds_state_only_in_adam_init_and_the_restore_guard(path):
    assert state_bindings(path.read_text()) == []
