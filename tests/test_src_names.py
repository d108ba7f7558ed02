"""What ``src/netmbt/`` defines and imports is used by a run.

No linter ships with the project, so these are its checks against dead
code:

- every name a module imports at module level is used in that module.  A
  name that bench/layers.py patches in a module (its ``_FUNCTIONS`` entries
  whose owner is that module) may be imported there for the patch alone,
  as ``explorer.parse_traces`` is;
- every module-level def or class, and every method or property other than
  a dunder, is reached from ``src/`` (a method only by attribute access,
  ``obj.name``) or is named by a ``bench/*.py`` file;
- every parameter with a default is passed by some call in ``src/``, by
  keyword or by position, so no knob is left that only tests turn.

A name the tests alone call belongs in the tests.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_MODULES = sorted((_ROOT / "src" / "netmbt").glob("*.py"))
_SPEC = importlib.util.spec_from_file_location("bench_layers", _ROOT / "bench" / "layers.py")
LAYERS = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(LAYERS)

# Defaulted parameters that a caller outside src/ passes: the console script
# and the tests call cli.main with argv.
_PASSED_FROM_OUTSIDE = {("cli", "main", "argv")}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


_TREES = {path.stem: _parse(path) for path in _MODULES}


def imported_names(tree: ast.Module) -> set[str]:
    """The names the module's top-level import statements bind."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def used_attributes(tree: ast.AST) -> set[str]:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


@pytest.mark.parametrize("path", _MODULES, ids=[p.stem for p in _MODULES])
def test_every_imported_name_is_used(path):
    tree = _TREES[path.stem]
    patched = {attr for _, owner, attr in LAYERS._FUNCTIONS if owner == path.stem}
    assert imported_names(tree) - used_names(tree) - patched == set()


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os, os.path as p\nfrom x import a, b as c\nprint(a)\n")
    assert imported_names(tree) - used_names(tree) == {"os", "p", "c"}


# ---------------------------------------------------------------------------
# Definitions that only tests reach
# ---------------------------------------------------------------------------


def bench_names(trees: list[ast.Module]) -> set[str]:
    """What the bench scripts can name in netmbt: their imports, their
    attributes and the dotted parts of their strings (bench/layers.py names
    what it wraps by string).  Their local variables name nothing."""
    names: set[str] = set()
    for tree in trees:
        names |= imported_names(tree) | used_attributes(tree)
        names.update(part for node in ast.walk(tree)
                     if isinstance(node, ast.Constant) and isinstance(node.value, str)
                     for part in node.value.split("."))
    return names


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(trees: dict[str, ast.Module]):
    """(module, qualified name, node, is_method) for every module-level def
    and class, and every method and property of a module-level class."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield module, node.name, node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                        yield module, f"{node.name}.{item.name}", item, True


def unreached(trees: dict[str, ast.Module], named: set[str]) -> list[str]:
    """The definitions that no code outside their own body reaches, and that
    ``named`` (the bench's names) does not name."""
    nodes = [n for tree in trees.values() for n in ast.walk(tree)]
    found = []
    for module, qualname, node, is_method in definitions(trees):
        name = node.name
        inner = {id(n) for n in ast.walk(node)}
        reached = any(id(n) not in inner
                      and (isinstance(n, ast.Attribute) and n.attr == name
                           or not is_method and isinstance(n, ast.Name) and n.id == name)
                      for n in nodes)
        if not reached and name not in named:
            found.append(f"{module}.{qualname}")
    return found


def test_every_definition_is_reached_from_src_or_named_by_bench():
    bench = [_parse(p) for p in sorted((_ROOT / "bench").glob("*.py"))]
    assert unreached(_TREES, bench_names(bench)) == []


def test_the_check_sees_a_definition_only_tests_reach():
    trees = {"m": ast.parse(
        "def used(): pass\n"
        "def unused(): return unused()\n"
        "class C:\n"
        "    def __eq__(self, other): return True\n"
        "    def called(self): return self.helper()\n"
        "    def helper(self): pass\n"
        "    @property\n"
        "    def view(self): return 0\n"
        "    def benched(self): pass\n"
        "used(); C().called()\n"
        "view = 1\n"  # a plain name does not reach a method
    )}
    assert unreached(trees, {"benched"}) == ["m.unused", "m.C.view"]


# ---------------------------------------------------------------------------
# Defaults that no src/ call overrides
# ---------------------------------------------------------------------------


def defaulted_parameters(trees: dict[str, ast.Module]):
    """(module, function, parameter, call name, call position) for every
    parameter with a default.  The call name is the function's, or its
    class's for ``__init__``; the call position counts from the first
    argument a caller writes (after ``self``), or is None for keyword-only."""
    for module, tree in trees.items():
        classes = {id(item): node.name for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            owner = classes.get(id(node))
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            skip = 1 if owner and not static else 0
            call_name = owner if node.name == "__init__" and owner else node.name
            function = f"{owner}.{node.name}" if owner else node.name
            positional = node.args.posonlyargs + node.args.args
            first_default = len(positional) - len(node.args.defaults)
            for i, arg in enumerate(positional[first_default:], start=first_default):
                yield module, function, arg.arg, call_name, i - skip
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield module, function, arg.arg, call_name, None


def _passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    if any(k.arg in (parameter, None) for k in call.keywords):  # None: **mapping
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def unpassed_defaults(trees: dict[str, ast.Module]) -> list[str]:
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    return [f"{module}.{function}({parameter}=)"
            for module, function, parameter, call_name, position in defaulted_parameters(trees)
            if (module, function, parameter) not in _PASSED_FROM_OUTSIDE
            and not any(_passes(c, parameter, position) for c in calls.get(call_name, ()))]


def test_every_default_is_overridden_by_some_src_call():
    assert unpassed_defaults(_TREES) == []


def test_the_check_sees_a_default_no_call_passes():
    trees = {"m": ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "class K:\n"
        "    def __init__(self, x, y=0): pass\n"
        "    def m(self, z=0): pass\n"
        "f(0, 1, e=5)\n"
        "K(1).m()\n"
    )}
    assert unpassed_defaults(trees) == [
        "m.f(c=)", "m.f(d=)", "m.K.__init__(y=)", "m.K.m(z=)"]
