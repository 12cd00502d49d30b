"""Import hygiene: every name a module of the package imports is used in it.

A deletion that leaves an import behind fails here, naming the module and
the name. The package's __init__ is left out: its imports are its exports.
"""

import ast
from pathlib import Path

import pytest

import streamdp

MODULES = sorted(p for p in Path(streamdp.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
