"""Every imported name in the package and its tests is read somewhere."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "netinv").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unread_imports(source):
    """Names a module binds by ``import`` that no expression of it reads,
    with the line of each."""
    tree = ast.parse(source)
    bound = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unread_import(path):
    assert unread_imports(path.read_text()) == []


@pytest.mark.parametrize("source, want", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb = 1\nprint(b)\n", [(1, "c")]),
    ("import json\ndef f():\n    json = 1\n", [(1, "json")]),
    ("from . import x\nclass K(x.Base): pass\n", []),
], ids=["unread", "dotted-read", "aliased", "store-only", "base-class"])
def test_checker_finds_unread_names(source, want):
    assert unread_imports(source) == want
