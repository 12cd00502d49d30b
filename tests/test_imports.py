"""Import hygiene: every name a module of the package imports is used in it,
and every private module-level name it defines is read somewhere in the
package.

A deletion that leaves an import or a private helper behind fails here,
naming the module and the name. The package's __init__ is left out of the
import check: its imports are its exports.
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


def unread_private_names(sources: dict) -> list[str]:
    """The private names (starting with `_`, dunders aside) that a top-level
    def, class or assignment of sources, a {module: source} map, binds and
    that no module reads, by name or as an attribute, as module.name in
    source order."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
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
