"""Source hygiene: every module-level import in the package is used, every
exported name exists, only ``Tensor.__init__`` binds a tensor's ``values``,
only ``Adam.__init__`` and the trainer's restore guard bind an optimizer's
``state``, only ``Network.__init__``, ``Network.frozen`` and
``Adam.__init__`` bind a ``params`` map, only the checkpoint file format
and the trainer's one loader raise ``CheckpointError``, only the one CSV
loader and the two binary readers parse files, every autodiff op kind
is in ``OP_KINDS``, the registry that ``collabsc gradcheck`` walks, and the
generator takes ``log``, ``cos`` and ``sin`` from ``math`` only."""

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


def scoped_nodes(source: str):
    """Every node of ``source``, with the names of the classes and defs that
    enclose it."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            yield scope, child
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            yield from visit(child, scope + (child.name,) if named else scope)

    return visit(ast.parse(source), ())


def attribute_bindings(source: str, attr: str,
                       owners: set[tuple[str, ...]]) -> list[tuple[tuple[str, ...], int]]:
    """(enclosing class/def names, line) of every assignment to, augmented
    assignment of or deletion of an attribute named ``attr``, outside the
    scopes ``owners``."""
    return [(scope, node.lineno) for scope, node in scoped_nodes(source)
            if isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.ctx, (ast.Store, ast.Del)) and scope not in owners]


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


def params_bindings(source: str) -> list[tuple[tuple[str, ...], int]]:
    """``attribute_bindings`` of ``params`` outside ``Network.__init__``,
    ``Network.frozen`` and ``Adam.__init__``.

    A network's forward passes read ``self.params``: the trainable views
    its constructor builds, or the constant views of a frozen copy. Any
    other binding would make a pass read parameters that no optimizer steps.
    """
    return attribute_bindings(source, "params", {("Network", "__init__"),
                                                 ("Network", "frozen"),
                                                 ("Adam", "__init__")})


def test_finds_params_bindings_outside_their_owners():
    source = ("class Network:\n"
              "    def __init__(self, p):\n"
              "        self.params: dict = p\n"
              "    def frozen(self, view, p):\n"
              "        view.params = p\n"
              "    def swap(self, p):\n"
              "        self.params[\"w\"] = p\n"
              "        self.params = p\n"
              "class Adam:\n"
              "    def __init__(self, p):\n"
              "        self.params = dict(p)\n"
              "def run(net, p):\n"
              "    net.params, x = p, 1\n"
              "    del net.params\n")
    assert params_bindings(source) == [(("Network", "swap"), 8), (("run",), 13),
                                       (("run",), 14)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_binds_params_only_in_the_network_and_adam_constructors_and_frozen(path):
    assert params_bindings(path.read_text()) == []


def raise_sites(source: str, exc: str,
                owners: set[tuple[str, ...]]) -> list[tuple[tuple[str, ...], int]]:
    """(enclosing class/def names, line) of every ``raise`` of the exception
    class named ``exc``, bare or called, by name or as a module attribute,
    outside the scopes ``owners``."""
    found = []
    for scope, node in scoped_nodes(source):
        if isinstance(node, ast.Raise) and node.exc is not None and scope not in owners:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(raised, "id", None) == exc or getattr(raised, "attr", None) == exc:
                found.append((scope, node.lineno))
    return found


def checkpoint_error_raises(path: Path) -> list[tuple[tuple[str, ...], int]]:
    """``raise_sites`` of ``CheckpointError`` in ``path``, outside its two homes.

    ``checkpoint.py`` refuses malformed files; ``load_checkpoint_params``
    refuses keys that do not fit the run. A check of a key anywhere else
    would be a second loader whose refusals could drift from the first's.
    """
    if path.name == "checkpoint.py":
        return []
    return raise_sites(path.read_text(), "CheckpointError",
                       {("CollaborativeTrainer", "load_checkpoint_params")})


def test_finds_raises_outside_their_owners():
    source = ("class CollaborativeTrainer:\n"
              "    def load_checkpoint_params(self):\n"
              "        raise CheckpointError('key')\n"
              "    def load_values(self):\n"
              "        raise CheckpointError('key')\n"
              "def check(ckpt):\n"
              "    try:\n"
              "        raise ckpt.CheckpointError('key')\n"
              "    except CheckpointError:\n"
              "        raise\n"
              "    raise ValueError('key')\n"
              "def fail():\n"
              "    raise CheckpointError\n")
    assert raise_sites(source, "CheckpointError",
                       {("CollaborativeTrainer", "load_checkpoint_params")}) == [
        (("CollaborativeTrainer", "load_values"), 5), (("check",), 8), (("fail",), 13)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_raises_checkpoint_error_only_in_the_format_and_the_loader(path):
    assert checkpoint_error_raises(path) == []


def call_sites(source: str, func: str,
               owners: set[tuple[str, ...]]) -> list[tuple[tuple[str, ...], int]]:
    """(enclosing class/def names, line) of every call of a function named
    ``func``, by name or as a module attribute, outside the scopes
    ``owners`` and the defs nested in them."""
    return [(scope, node.lineno) for scope, node in scoped_nodes(source)
            if isinstance(node, ast.Call)
            and func in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            and not any(scope[:len(owner)] == owner for owner in owners)]


# each file-parsing call, and the one reader per module allowed to make it:
# a reader of its own would refuse bad input without the path that
# ``data._load_csv``, ``data._read_idx`` and ``load_checkpoint`` name
PARSERS = {"loadtxt": {"data": {("_load_csv",)}},
           "unpack_from": {"data": {("_read_idx",)}, "checkpoint": {("load_checkpoint",)}}}


def test_finds_calls_outside_their_owners():
    source = ("import numpy as np\n"
              "from struct import unpack_from\n"
              "def _load_csv(path):\n"
              "    return np.loadtxt(path)\n"
              "def load_checkpoint(data):\n"
              "    def read(off):\n"
              "        return unpack_from('<I', data, off)\n"
              "    return read(0)\n"
              "class Reader:\n"
              "    def labels(self, path):\n"
              "        return np.loadtxt(path, dtype=int)\n"
              "rows = np.loadtxt('x.csv')\n")
    assert call_sites(source, "loadtxt", {("_load_csv",)}) == [(("Reader", "labels"), 11),
                                                              ((), 12)]
    assert call_sites(source, "unpack_from", {("load_checkpoint",)}) == []
    assert call_sites(source, "unpack_from", set()) == [(("load_checkpoint", "read"), 7)]


@pytest.mark.parametrize("func", sorted(PARSERS))
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_parses_files_only_in_their_one_reader(path, func):
    assert call_sites(path.read_text(), func, PARSERS[func].get(path.stem, set())) == []


def made_kinds(source: str) -> set[str]:
    """The kind of every ``_make(...)`` call in ``source``: its third
    positional argument or its ``kind=`` keyword, which must be a string
    literal; any other expression is reported by its line."""
    kinds = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_make":
            keywords = {kw.arg: kw.value for kw in node.keywords}
            kind = node.args[2] if len(node.args) > 2 else keywords.get("kind")
            literal = isinstance(kind, ast.Constant) and isinstance(kind.value, str)
            kinds.add(kind.value if literal else f"<no literal kind at line {node.lineno}>")
    return kinds


def test_finds_every_made_kind():
    source = ("def f(a):\n"
              "    return _make(a, (a,), 'relu', None)\n"
              "def g(a):\n"
              "    return _make(a, (a,), kind='abs', backward_fn=None)\n"
              "def h(a, k):\n"
              "    return _make(a, (a,), k, None)\n"
              "def i(a):\n"
              "    return make(a, (a,), 'log', None), _make(a, (a,), 'relu', None)\n")
    assert made_kinds(source) == {"relu", "abs", "<no literal kind at line 6>"}


def test_every_op_kind_is_under_gradcheck():
    # an op missing from OP_KINDS would be skipped by `collabsc gradcheck`
    from collabsc import autodiff

    assert made_kinds((SRC / "autodiff.py").read_text()) == set(autodiff.OP_KINDS)


def non_math_transcendentals(source: str) -> list[tuple[str, int]]:
    """(spelling, line) of every reference to a function named ``log``,
    ``cos`` or ``sin`` that is not ``math.log``, ``math.cos`` or
    ``math.sin``: a module attribute, a bare name or an imported alias."""
    names = {"log", "cos", "sin"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in names:
            owner = ast.unparse(node.value)
            if owner != "math":
                found.append((f"{owner}.{node.attr}", node.lineno))
        elif isinstance(node, ast.Name) and node.id in names:
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.alias) and node.name.rpartition(".")[2] in names:
            found.append((f"import {node.name}", node.lineno))
    return found


def test_finds_transcendentals_off_math():
    source = ("import math\n"
              "import numpy as np\n"
              "from numpy import cos\n"
              "def draw(u, t, logs):\n"
              "    a = list(map(math.log, u)), math.cos(t), math.sin(t), logs\n"
              "    return np.log(u), cos(t), np.emath.sin(t)\n")
    assert non_math_transcendentals(source) == [
        ("import cos", 3), ("np.log", 6), ("cos", 6), ("np.emath.sin", 6)]


def test_rng_takes_its_transcendentals_from_math():
    # numpy's vectorized log, cos and sin pick a SIMD kernel by CPU and may
    # round differently from math, which would tie every draw to the host
    assert non_math_transcendentals((SRC / "rng.py").read_text()) == []
