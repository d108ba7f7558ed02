"""Every name a module under ``src/netmbt/`` imports at module level is used
in that module.

No linter ships with the project, so this is its check against dead
imports.  A name that bench/layers.py patches in a module (its
``_FUNCTIONS`` entries whose owner is that module) may be imported there
for the patch alone, as ``explorer.parse_traces`` is.
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


def imported_names(tree: ast.Module) -> set[str]:
    """The names the module's top-level import statements bind."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", _MODULES, ids=[p.stem for p in _MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    patched = {attr for _, owner, attr in LAYERS._FUNCTIONS if owner == path.stem}
    assert imported_names(tree) - used_names(tree) - patched == set()


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os, os.path as p\nfrom x import a, b as c\nprint(a)\n")
    assert imported_names(tree) - used_names(tree) == {"os", "p", "c"}
