"""Every name a package module imports is used in that module, and every
exported name is defined where it is said to be.

``__init__.py`` is left out of the first check: its imports are the
package's re-exports.  A name counts as used where it is read
(``ast.Name``) or listed in the module's ``__all__``; ``from __future__``
imports bind no name.
"""

import ast
import importlib
from pathlib import Path

import pytest

import coldplasma

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coldplasma"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree):
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return used


def test_modules_found():
    assert len(MODULES) >= 8


def test_every_package_export_resolves():
    for name in coldplasma.__all__:
        module = importlib.import_module(f"coldplasma.{coldplasma._EXPORTS[name]}")
        assert name in module.__all__, name
        assert getattr(coldplasma, name) is getattr(module, name), name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_exports_are_defined_there(path):
    # a class or function listed in __all__ is the module's own, not an import
    module = importlib.import_module(f"coldplasma.{path.stem}")
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), name
        assert getattr(getattr(module, name), "__module__", module.__name__) == module.__name__, name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(set(_imported_names(tree)) - _used_names(tree))
    assert not unused, f"{path.name} imports names it never uses: {unused}"
