"""Static checks on the package source: no dead parameters, no unused imports,
no private module-level definition that nothing in the package references."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "treecast"
MODULES = sorted(SRC.glob("*.py"))

# argparse calls an Action with (parser, namespace, values, option_string)
UNREAD_ALLOWED = {("cli.py", "_Given.__call__")}


def _parameters(args: ast.arguments) -> list[str]:
    names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    return names


def _loaded_names(nodes) -> set[str]:
    return {
        n.id
        for node in nodes
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _functions(tree: ast.Module):
    """(qualified name, node) of every function and lambda, nested ones too."""

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                yield name, child
                yield from visit(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.Lambda):
                yield f"{prefix}<lambda>", child
                yield from visit(child, prefix)
            else:
                yield from visit(child, prefix)

    yield from visit(tree, "")


def _unread_parameters(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = []
    for name, fn in _functions(tree):
        body = [fn.body] if isinstance(fn, ast.Lambda) else fn.body
        read = _loaded_names(body)
        for param in _parameters(fn.args):
            if param not in read and (path.name, name) not in UNREAD_ALLOWED:
                unread.append(f"{name}({param})")
    return unread


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = _loaded_names(tree.body)
    return [name for name in bound if name not in read]


def _references(node) -> Counter:
    """Names ``node`` loads, reads as an attribute or imports, with their counts."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name] += 1
    return found


def _unreferenced_private(paths) -> list[str]:
    """Module-level ``_name`` functions and classes that only refer to themselves."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        f"{path.name}:{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, kinds)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and used[node.name] == _references(node)[node.name]
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unread_parameters(path) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def test_every_private_definition_is_referenced():
    assert _unreferenced_private(MODULES) == []


def test_the_checks_catch_what_they_look_for(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "import os\n"
        "from math import pi, tau\n"
        "def f(a, b, *rest, c=1, **extra):\n"
        "    return a + c + tau\n"
        "class C:\n"
        "    def m(self, x):\n"
        "        return lambda y: self\n"
    )
    assert _unread_parameters(src) == [
        "f(b)",
        "f(rest)",
        "f(extra)",
        "C.m(x)",
        "C.m.<lambda>(y)",
    ]
    assert _unused_imports(src) == ["os", "pi"]
    lib = tmp_path / "lib.py"
    lib.write_text(
        "def _called(): pass\n"
        "def _imported(): pass\n"
        "def _dead(): return _dead()\n"
        "class _Read: pass\n"
        "class _Unread: pass\n"
        "def __getattr__(name): pass\n"
        "x = _called()\n"
    )
    user = tmp_path / "user.py"
    user.write_text("from lib import _imported\nimport lib\ny = lib._Read\n")
    assert _unreferenced_private([lib, user]) == ["lib.py:_dead", "lib.py:_Unread"]
