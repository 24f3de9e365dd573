"""Source hygiene checks on the package, using only the standard library.

Every top-level import in `src/stripconf` must be used in its module:
read as a name, named in a string annotation, or listed in the module's
`__all__` (which is how `__init__.py` re-exports).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stripconf"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict:
    """Names bound by the module's top-level imports, with their line numbers."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _used_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [node.returns] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else [node.annotation]
            for note in notes:
                if isinstance(note, ast.Constant) and isinstance(note.value, str):
                    used |= _used_names(ast.parse(note.value, mode="eval"))
    return used


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = _used_names(tree) | _exported_names(tree)
    return sorted((line, name) for name, line in _imported_names(tree).items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_honours_all():
    source = (
        "from __future__ import annotations\n"
        "import os, json\n"
        "from fractions import Fraction\n"
        "from typing import Optional\n"
        "from .cells import cell_complex as cc\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return os.sep\n"
        "__all__ = ['cc']\n"
    )
    assert unused_imports(source) == [(2, "json"), (3, "Fraction")]
