"""Import hygiene: every name a module of the package imports is used in it,
every private module-level name it defines is read somewhere in the
package, and every public module-level function and class is read
somewhere in the package or exported by its __init__.

A deletion that leaves an import or a helper behind fails here, naming the
module and the name. The package's __init__ is left out of the import
check: its imports are its exports.
"""

import ast
from pathlib import Path

import pytest

import streamdp

PACKAGE = sorted(Path(streamdp.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """The names bound by the import statements of source (at any depth,
    `from __future__` aside) that no name in it reads, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source,unused", [
    ("import os\n", ["os"]),
    ("import os.path\nos.sep\n", []),
    ("import numpy as np\n", ["np"]),
    ("from . import erm\nerm.sgd_train\n", []),
    ("from .erm import Dataset, ErmError\ndef f(d: Dataset): pass\n", ["ErmError"]),
    ("from __future__ import annotations\n", []),
    ("def f():\n    from .schedulers import window_shape\n", ["window_shape"]),
])
def test_unused_imports_finds_what_no_name_reads(source, unused):
    assert unused_imports(source) == unused


def read_names(trees) -> set[str]:
    """The names the parsed modules trees read, by name or as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def unread_private_names(sources: dict) -> list[str]:
    """The private names (starting with `_`, dunders aside) that a top-level
    def, class or assignment of sources, a {module: source} map, binds and
    that no module reads, by name or as an attribute, as module.name in
    source order."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = read_names(trees.values())
    unread = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{mod}.{name}" for name in names
                       if name.startswith("_") and not name.endswith("__") and name not in read]
    return unread


def test_every_private_name_is_read():
    assert unread_private_names({p.stem: p.read_text() for p in PACKAGE}) == []


@pytest.mark.parametrize("sources,unread", [
    ({"a": "def _f(): pass\n"}, ["a._f"]),
    ({"a": "def _f(): pass\ndef g(): _f()\n"}, []),
    ({"a": "def _f(): pass\n", "b": "from .a import _f\n_f()\n"}, []),
    ({"a": "_X = 1\n", "b": "from . import a\na._X\n"}, []),
    ({"a": "_X: int = 1\n_X = 2\n"}, ["a._X", "a._X"]),
    ({"a": "class _C: pass\nclass D: pass\n"}, ["a._C"]),
    ({"a": "__all__ = []\n"}, []),
    ({"a": "def f():\n    _y = 1\n"}, []),  # not module-level
])
def test_unread_private_names_finds_what_no_module_reads(sources, unread):
    assert unread_private_names(sources) == unread


def unread_public_helpers(sources: dict) -> list[str]:
    """The public names (not starting with `_`) that a top-level def or class
    of sources, a {module: source} map, binds, that no module reads, by name
    or as an attribute, and that the "__init__" module does not import (its
    exports), as module.name in source order."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    kept = read_names(trees.values())
    for node in ast.walk(trees.get("__init__", ast.Module([], []))):
        if isinstance(node, ast.ImportFrom):
            kept.update(a.name for a in node.names)
    return [f"{mod}.{node.name}" for mod, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in kept]


def test_every_public_helper_is_read_or_exported():
    assert unread_public_helpers({p.stem: p.read_text() for p in PACKAGE}) == []


@pytest.mark.parametrize("sources,unread", [
    ({"a": "def f(): pass\n"}, ["a.f"]),
    ({"a": "def f(): pass\ndef g(): f()\n", "__init__": "from .a import g\n"}, []),
    ({"a": "def f(): pass\n", "__init__": "from .a import f\n"}, []),
    ({"a": "def f(): pass\n", "__init__": "from .a import f as g\n"}, []),
    ({"a": "class C: pass\n", "b": "from . import a\na.C()\n"}, []),
    ({"a": "class C: pass\nclass _D: pass\nX = 1\n"}, ["a.C"]),  # private names and assignments aside
    ({"a": "def f():\n    def g(): pass\n"}, ["a.f"]),  # not module-level: g
])
def test_unread_public_helpers_finds_what_no_module_reads_or_exports(sources, unread):
    assert unread_public_helpers(sources) == unread
