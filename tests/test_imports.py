"""Static checks: every imported name in the package and its tests is read
somewhere, and every function of the package takes its RNG from its caller."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "netinv").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


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


def rng_fallbacks(source):
    """(line, qualified function name) of each ``rng`` parameter with a
    default and each ``rng or ...`` expression: a hidden RNG the caller
    neither sees nor seeds."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):] + [
                    a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                if any(a.arg == "rng" for a in defaulted):
                    found.append((child.lineno, name))
            elif (isinstance(child, ast.BoolOp) and isinstance(child.op, ast.Or)
                  and isinstance(child.values[0], ast.Name) and child.values[0].id == "rng"):
                found.append((child.lineno, name))
            visit(child, name)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_rng_fallback(path):
    assert rng_fallbacks(path.read_text()) == []


@pytest.mark.parametrize("source, want", [
    ("def f(rng=None):\n    pass\n", [(1, "f")]),
    ("def f(x, *, rng=None, seed=0):\n    pass\n", [(1, "f")]),
    ("def f(rng, seed=0):\n    rng = rng or make(seed)\n", [(2, "f")]),
    ("class K:\n    def m(self, rng=None):\n        pass\n", [(2, "K.m")]),
    ("g = lambda rng=None: rng\n", [(1, "")]),
    ("def f(rng, seed=0, *, n=1):\n    return other or rng and rng\n", []),
], ids=["default", "keyword-only", "or-fallback", "method", "lambda", "required"])
def test_checker_finds_rng_fallbacks(source, want):
    assert rng_fallbacks(source) == want


TAPE_SWITCHES = {"no_grad", "recording"}


def tape_switch_reads(source):
    """(line, name) of each read of ``no_grad`` or ``recording``, as a name,
    an attribute or an imported name: a pass whose recording hangs on
    global tape state."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in TAPE_SWITCHES]
        elif isinstance(node, ast.Attribute) and node.attr in TAPE_SWITCHES:
            found.append((node.lineno, node.attr))
        elif (isinstance(node, ast.Name) and node.id in TAPE_SWITCHES
              and not isinstance(node.ctx, ast.Store)):
            found.append((node.lineno, node.id))
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "autograd.py"],
                         ids=lambda p: p.name)
def test_no_tape_switch_outside_autograd(path):
    assert tape_switch_reads(path.read_text()) == []


@pytest.mark.parametrize("source, want", [
    ("with ag.no_grad():\n    pass\n", [(1, "no_grad")]),
    ("from .autograd import no_grad as ng\n", [(1, "no_grad")]),
    ("if recording():\n    pass\n", [(1, "recording")]),
    ("recording = 1\nx.no_grad_count\n", []),
], ids=["attribute", "import", "name", "store-only"])
def test_checker_finds_tape_switches(source, want):
    assert tape_switch_reads(source) == want
