"""Source hygiene checks on the package, using only the standard library.

Every top-level import in `src/stripconf` must be used in its module:
read as a name, named in a string annotation, or listed in the module's
`__all__` (which is how `__init__.py` re-exports).

Every top-level function, class and alias (a module-level name bound by
assignment) in `src/stripconf` must be referenced somewhere in the
package or the tests outside its own definition: as a name, an attribute
or an imported name, or by being listed in `__all__`.  The set kept only
for the tests, referenced nowhere in the package itself, is pinned by
name, and it is empty: no code lives in the package for the tests alone.

The package's caches, `lru_cache`d functions and module-level `*_cache`
dicts, are pinned by name, so adding or dropping one is done on purpose.
So are the modules that import from `linalg`, `homology` and
`equivariant`: every other module reaches the linear algebra through
them, and `algebra` reaches none (its R1 coefficients are read off
chains, not solved for).

`equivariant` imports no `fractions`: the isotypic blocks are built in
ints, from the seminormal generators to the echelon, and that hot path
cannot turn rational again unnoticed.

Only `linalg` reads the internals of an `Echelon` (its pivot lists, its
column index and its tracked combinations); every other module asks it
through its methods.

No module in `src/stripconf` uses an `assert` statement: `python -O`
strips them, so a check has to raise ValueError (bad input) or
CertificateError (a failed claim) instead.

No function or class in `src/stripconf` imports: every import sits at
module level, where the unused-import check sees it and where an import
cycle shows when the package loads.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "stripconf"
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


def _referenced_names(node: ast.AST) -> set:
    """Names read, attributes accessed and names imported anywhere in `node`."""
    refs = _used_names(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def _defined_names(node: ast.stmt) -> list:
    """Names a top-level statement defines: a def or class, or the plain
    names an assignment binds (dunders such as `__all__` aside)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")]


def unused_definitions(modules: dict, others=()) -> list:
    """(module, line, name) of each unreferenced top-level def, class or alias.

    `modules` maps a module name to the source whose definitions are
    checked; `others` are further sources that only count as references.
    A definition's own body, where a recursive call lives, does not count.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    every_tree = [*trees.values(), *(ast.parse(source) for source in others)]
    exported = set().union(*map(_exported_names, every_tree))
    refs = [(stmt, _referenced_names(stmt)) for tree in every_tree for stmt in tree.body]
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _defined_names(node):
                if name not in exported and not any(
                        name in names for stmt, names in refs if stmt is not node):
                    found.append((module, node.lineno, name))
    return sorted(found)


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


def test_no_unreferenced_top_level_definitions():
    modules = {p.stem: p.read_text() for p in MODULES}
    tests = [p.read_text() for p in sorted(TESTS.glob("*.py"))]
    assert unused_definitions(modules, tests) == []


# referenced by the tests only: none; a definition only the tests read
# belongs in the tests
TEST_ONLY = set()


def test_only_pinned_definitions_live_for_the_tests_alone():
    modules = {p.stem: p.read_text() for p in MODULES}
    assert {name for _, _, name in unused_definitions(modules)} == TEST_ONLY


CACHE_SITES = {
    "cells.cell_index",
    "cells.enumerate_cells",
    "chains._split_table",
    "cycles._shape_cycle",
    "homology._fill_count",
    "homology._image_cache",
}


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def cache_sites(source: str) -> set:
    """Top-level functions decorated with `lru_cache` or `cache`, and
    module-level names ending in `_cache` that are assigned."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(_decorator_name(d) in ("lru_cache", "cache") for d in node.decorator_list):
                found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update(t.id for t in targets
                         if isinstance(t, ast.Name) and t.id.endswith("_cache"))
    return found


def test_cache_sites_are_pinned():
    found = {f"{p.stem}.{name}" for p in MODULES for name in cache_sites(p.read_text())}
    assert found == CACHE_SITES


LINALG_IMPORTERS = {"equivariant", "homology"}


def imports_from(source: str, module: str) -> bool:
    """Whether the source imports from the sibling module `module`."""
    return any(isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
               for node in ast.walk(ast.parse(source)))


def test_linalg_importers_are_pinned():
    found = {p.stem for p in MODULES if imports_from(p.read_text(), "linalg")}
    assert found == LINALG_IMPORTERS


def imported_modules(source: str) -> set:
    """The absolute modules that the source imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
    return found


def test_equivariant_imports_no_fractions():
    assert "fractions" not in imported_modules((PACKAGE / "equivariant.py").read_text())


def test_module_finder_reads_absolute_imports():
    source = (
        "from __future__ import annotations\n"
        "import fractions as fr\n"
        "from math import gcd\n"
        "from .linalg import Echelon\n"
        "def f():\n"
        "    from fractions import Fraction\n"
    )
    assert imported_modules(source) == {"__future__", "fractions", "math"}
    assert "fractions" not in imported_modules("from math import lcm  # fractions\n")


ECHELON_INTERNALS = {"pivots_of", "pivot_row", "rows_at", "combos", "dens"}


def attribute_reads(source: str, names) -> list:
    """(line, name) of each read of an attribute in `names`."""
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and node.attr in names)


def test_only_linalg_reads_echelon_internals():
    found = {p.name: attribute_reads(p.read_text(), ECHELON_INTERNALS)
             for p in MODULES if p.stem != "linalg"}
    assert {name: reads for name, reads in found.items() if reads} == {}


def test_attribute_reader_finds_reads_only():
    source = (
        "self.pivots_of = []\n"
        "x = ech.pivots_of[0]\n"
        "y = ech.rows\n"
        "for i in e.combos: pass\n"
    )
    assert attribute_reads(source, ECHELON_INTERNALS) == [(2, "pivots_of"), (4, "combos")]


def test_import_finder_reads_relative_imports_only():
    assert imports_from("import os\nfrom .linalg import Echelon\n", "linalg")
    assert not imports_from("from linalg import Echelon\n", "linalg")
    assert not imports_from("from .cells import cell_index\n", "linalg")


def test_cache_checker_finds_each_kind():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=8)\n"
        "def a(): pass\n"
        "@functools.lru_cache\n"
        "def b(): pass\n"
        "@cache\n"
        "def c(): pass\n"
        "def d():\n"
        "    local_cache = {}\n"
        "_e_cache = {}\n"
        "_f_cache: dict = {}\n"
        "g = {}\n"
    )
    assert cache_sites(source) == {"a", "b", "c", "_e_cache", "_f_cache"}


def test_definition_checker_flags_unreferenced_and_honours_all():
    modules = {
        "a": (
            "def by_name(): pass\n"
            "def by_attribute(): pass\n"
            "def by_import(): pass\n"
            "def recursive(n):\n"
            "    return recursive(n - 1) if n else 0\n"
            "class Dead:\n"
            "    def make(self): return Dead()\n"
            "def exported(): pass\n"
            "__all__ = ['exported']\n"
        ),
        "b": "from a import by_import\nby_name()\n",
    }
    others = ["import a\na.by_attribute()\n"]
    assert unused_definitions(modules, others) == [("a", 4, "recursive"), ("a", 6, "Dead")]


def test_definition_checker_flags_unreferenced_aliases():
    modules = {
        "a": (
            "Label = int\n"
            "Block: type = tuple\n"
            "LIMIT = 10\n"
            "_cache = {}\n"
            "__version__ = '1'\n"
            "def f(x: Label):\n"
            "    return _cache\n"
        ),
        "b": "from a import f\n",
    }
    assert unused_definitions(modules) == [("a", 2, "Block"), ("a", 3, "LIMIT")]


def assert_lines(source: str) -> list:
    """Line numbers of the `assert` statements anywhere in the source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_no_assert_in_src():
    found = {p.name: assert_lines(p.read_text()) for p in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_assert_checker_finds_nested_asserts():
    source = (
        "# assert in a comment\n"
        "assert_ok = 'assert x'\n"
        "assert True\n"
        "def f(x):\n"
        "    assert x, 'message'\n"
        "class C:\n"
        "    def g(self):\n"
        "        if self:\n"
        "            assert self\n"
    )
    assert assert_lines(source) == [3, 5, 9]


def function_level_imports(source: str) -> list:
    """Line numbers of the imports inside a function or class body."""
    return sorted({node.lineno for scope in ast.walk(ast.parse(source))
                   if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   for node in ast.walk(scope) if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_no_function_level_imports_in_src():
    found = {p.name: function_level_imports(p.read_text()) for p in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_import_checker_finds_nested_imports():
    source = (
        "import os\n"
        "from . import cells\n"
        "# import in a comment\n"
        "def f():\n"
        "    import json\n"
        "    return 'import x'\n"
        "class C:\n"
        "    def g(self):\n"
        "        if self:\n"
        "            from .chains import boundary\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    numpy = None\n"
    )
    assert function_level_imports(source) == [5, 10]
