"""Static checks: every imported name in the package and its tests is read
somewhere, every public function or class of the package has a caller
outside the tests, and every function of the package takes its RNG from its
caller."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "netinv").glob("*.py"))
# the benchmark's workloads call the package from outside it
WORKLOADS = ROOT / "perfbench" / "workloads.py"
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


def package_reads(source, aliases=None):
    """{(module, name)} that ``source`` reads from the package's modules:
    ``from .m import name``, and ``alias.name`` for an alias bound by
    ``from . import m`` or ``from netinv import m``. ``aliases`` maps further
    local names to modules."""
    aliases = dict(aliases or {})
    found = set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not module.startswith("netinv"):
            continue
        module = module.removeprefix("netinv").lstrip(".")
        for alias in node.names:
            if module:
                found.add((module, alias.name))
            else:
                aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            found.add((aliases[node.value.id], node.attr))
    return found


# models.py writes each layer sequence once over ``ops``, which is autograd
# itself or its array twins
OPS_ALIASES = {"models": {"ops": "autograd"}}


def uncalled_public_names(package, outside=()):
    """Sorted ``module.name`` of each public top-level function or class of
    ``package`` ({module: source}) that no other package module, no
    statement of its own module outside its own body, and no source in
    ``outside`` reads."""
    read = set()
    for module, source in package.items():
        read |= {ref for ref in package_reads(source, OPS_ALIASES.get(module))
                 if ref[0] != module}
    for source in outside:
        read |= package_reads(source)
    unread = []
    for module, source in package.items():
        body = ast.parse(source).body
        for node in body:
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or (module, node.name) in read):
                continue
            # a read of the name in any other top-level statement of its module
            if not any(isinstance(n, ast.Name) and n.id == node.name
                       and not isinstance(n.ctx, ast.Store)
                       for stmt in body if stmt is not node for n in ast.walk(stmt)):
                unread.append(f"{module}.{node.name}")
    return sorted(unread)


def test_every_public_name_has_a_caller():
    package = {p.stem: p.read_text() for p in PACKAGE}
    assert uncalled_public_names(package, [WORKLOADS.read_text()]) == []


@pytest.mark.parametrize("package, outside, want", [
    ({"a": "def f(): pass\nclass K: pass\n"}, (), ["a.K", "a.f"]),
    ({"a": "def f(): pass\ndef g(): return f()\n"}, (), ["a.g"]),
    ({"a": "def f(): return f()\n"}, (), ["a.f"]),
    ({"a": "def f(): pass\ndef _g(): pass\n", "b": "from .a import f\n"}, (), []),
    ({"a": "def f(): pass\n", "b": "from . import a as x\nx.f()\n"}, (), []),
    ({"a": "def f(): pass\n", "b": "import a\nimport numpy as np\nnp.f()\na.f()\n"},
     (), ["a.f"]),
    ({"autograd": "def f(): pass\n", "models": "def g(ops): ops.f()\ng(1)\n"}, (), []),
    ({"autograd": "def f(): pass\n", "other": "def g(ops): ops.f()\ng(1)\n"}, (),
     ["autograd.f"]),
    ({"a": "def f(): pass\n"}, ["from netinv import a\na.f()\n"], []),
    ({"a": "def f(): pass\n"}, ["from netinv.a import f\n"], []),
], ids=["unread", "own-module", "own-body-only", "from-import", "module-alias",
        "not-a-package-alias", "models-ops", "ops-elsewhere", "outside-alias",
        "outside-from-import"])
def test_checker_finds_uncalled_public_names(package, outside, want):
    assert uncalled_public_names(package, outside) == want


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
