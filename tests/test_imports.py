"""Static checks: every imported name in the package and its tests is read
somewhere, every public function or class of the package has a caller
outside the tests, every parameter of a public function or constructor of
the package is passed by some caller outside the tests, and every function
of the package takes its RNG from its caller. ``test_reachability.py``
checks at run time what these cannot: that every function body runs."""

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


def import_bindings(tree, aliases=None):
    """-> ({local name: module} of the package modules ``tree`` binds, by
    ``from . import m`` or ``from netinv import m``, plus ``aliases``;
    {local name: (module, name)} of the names it binds by
    ``from .m import name``)."""
    modules, names = dict(aliases or {}), {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not module.startswith("netinv"):
            continue
        module = module.removeprefix("netinv").lstrip(".")
        for alias in node.names:
            if module:
                names[alias.asname or alias.name] = (module, alias.name)
            else:
                modules[alias.asname or alias.name] = alias.name
    return modules, names


def package_reads(source, aliases=None):
    """{(module, name)} that ``source`` reads from the package's modules:
    ``from .m import name``, and ``alias.name`` for an alias bound by
    ``from . import m`` or ``from netinv import m``. ``aliases`` maps further
    local names to modules."""
    tree = ast.parse(source)
    modules, names = import_bindings(tree, aliases)
    found = set(names.values())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.add((modules[node.value.id], node.attr))
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


def definitions(source):
    """-> ({name: parameter names} of each public top-level function of
    ``source`` and of each public class's own constructor, without
    ``self``; {name: its first base's name} of each public class without an
    ``__init__`` of its own; the set of the public function names)."""
    signatures, bases, functions = {}, {}, set()
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            args = node.args
            functions.add(node.name)
        else:
            init = [n for n in node.body
                    if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
            if not init:
                if node.bases and isinstance(node.bases[0], ast.Name):
                    bases[node.name] = node.bases[0].id
                continue
            args = init[0].args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        signatures[node.name] = names[1:] if isinstance(node, ast.ClassDef) else names
    return signatures, bases, functions


def calls_by_owner(tree):
    """(name of the top-level function or class whose body holds it, or None
    at module level; the call) for each call in ``tree``."""
    for stmt in tree.body:
        owner = (stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                ast.ClassDef)) else None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                yield owner, node


def unpassed_parameters(package, outside=()):
    """Sorted ``module.function.parameter`` of each parameter of a public
    function or class constructor of ``package`` ({module: source}) that no
    call in ``package`` or ``outside`` passes, by position or by keyword.

    A call through ``*args`` or ``**kwargs`` passes them all, and so does a
    reference to the function as a value (a command table's entry). A call
    of a class without an ``__init__`` of its own calls its base's. A call
    from the function's own body (its VJP recursing) passes nothing: it only
    hands on what some other caller passed."""
    defs = {m: definitions(s) for m, s in package.items()}
    signatures = {(m, n): p for m, (sigs, _, _) in defs.items() for n, p in sigs.items()}
    functions = {(m, n) for m, (_, _, fns) in defs.items() for n in fns}
    trees = {m: ast.parse(s) for m, s in package.items()}
    bindings = {m: import_bindings(t, OPS_ALIASES.get(m)) for m, t in trees.items()}

    def resolve(module, node, bound):
        """The (module, name) of the package definition that the name or
        ``alias.name`` ``node`` of ``module`` refers to, or None."""
        modules, imported = bound
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            ref = (modules[node.value.id], node.attr)
        elif isinstance(node, ast.Name):
            own = defs.get(module, ({}, {}, ()))
            ref = (module, node.id) if node.id in own[0] or node.id in own[1] else \
                imported.get(node.id)
        else:
            return None
        while ref in bases_of:
            ref = bases_of[ref]
        return ref

    bases_of = {}
    for m, (_, bases, _) in defs.items():
        for cls, base in bases.items():
            bases_of[m, cls] = resolve(m, ast.Name(id=base), bindings[m])

    passed = set()
    for module, source in [*package.items(), *(("", s) for s in outside)]:
        tree = trees.get(module) or ast.parse(source)
        bound = bindings.get(module) or import_bindings(tree)
        callees = set()
        for owner, node in calls_by_owner(tree):
            callees.add(id(node.func))
            ref = resolve(module, node.func, bound)
            if ref not in signatures or ref == (module, owner):
                continue
            params = signatures[ref]
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                passed.update((ref, p) for p in params)
            else:
                passed.update((ref, p) for p in params[:len(node.args)])
                passed.update((ref, k.arg) for k in node.keywords)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                    and id(node) not in callees):
                ref = resolve(module, node, bound)
                if ref in functions:
                    passed.update((ref, p) for p in signatures[ref])
    return sorted(f"{m}.{name}.{p}" for (m, name), params in signatures.items()
                  for p in params if ((m, name), p) not in passed)


# Parameters that no caller outside the tests passes, each kept for a reason.
UNPASSED_ALLOWED = {
    "autograd.grad.create_graph": "the tape stays second-order capable: the "
                                  "second-order finite-difference gates record the "
                                  "reverse pass through conftest.grad_norm_sq_replay",
}


def test_every_package_parameter_is_passed():
    package = {p.stem: p.read_text() for p in PACKAGE}
    assert unpassed_parameters(package, [WORKLOADS.read_text()]) == sorted(UNPASSED_ALLOWED)


@pytest.mark.parametrize("package, outside, want", [
    ({"autograd": "def parameter(data, dtype=None):\n    pass\n"
                  "def f():\n    parameter(1)\n"}, (), ["autograd.parameter.dtype"]),
    ({"autograd": "def f(a, b=1):\n    pass\n", "m": "from . import autograd as ag\nag.f(1, b=2)\n"},
     (), []),
    ({"autograd": "def f(a, *, b=1):\n    pass\n", "m": "from .autograd import f as g\ng(1)\n"},
     (), ["autograd.f.b"]),
    ({"autograd": "def f(a, b=1):\n    pass\n", "models": "def _h(ops):\n    ops.f(1, 2)\n"},
     (), []),
    ({"autograd": "def f(a, b=1):\n    pass\n", "other": "def _h(ops):\n    ops.f(1, 2)\n"},
     (), ["autograd.f.a", "autograd.f.b"]),
    ({"autograd": "def f(a, b=1):\n    pass\n"},
     ["from netinv import autograd as ag\nag.f(*xs)\n"], []),
    ({"autograd": "class T:\n    def __init__(self, data, flag=False):\n        pass\n"
                  "def _f(x=0):\n    T(1)\n"}, (), ["autograd.T.flag"]),
    ({"autograd": "def f(a):\n    pass\n", "m": "import numpy as np\nnp.f(1)\n"},
     (), ["autograd.f.a"]),
    ({"autograd": "def f(a, axis=-1):\n    def vjp(g):\n        return f(g, axis)\n"
                  "    return vjp\n",
      "m": "from .autograd import f\nf(1)\n"}, (), ["autograd.f.axis"]),
    ({"data": "def load(path, name='x'):\n    pass\n", "cli": "from .data import load\nload(1)\n"},
     (), ["data.load.name"]),
    ({"cli": "def cmd(args, extra=0):\n    pass\nCOMMANDS = {'x': (cmd, 'help')}\n"}, (), []),
    ({"models": "class Model:\n    def __init__(self, spec, rng):\n        pass\n"
                "class Classifier(Model):\n    pass\n",
      "cli": "from .models import Classifier\nClassifier(1, rng=2)\n"}, (), []),
    ({"m": "class K:\n    def __init__(self, a):\n        pass\nisinstance(1, K)\n"},
     (), ["m.K.a"]),
], ids=["unpassed-default", "module-alias", "keyword-only", "models-ops", "ops-elsewhere",
        "outside-starred", "constructor", "not-an-alias", "own-body", "any-module",
        "function-as-value", "base-constructor", "class-as-value"])
def test_checker_finds_unpassed_parameters(package, outside, want):
    assert unpassed_parameters(package, outside) == want


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


# autograd's recording flag, which only ``grad`` sets
TAPE_SWITCHES = {"_grad_enabled"}


def tape_switch_reads(source):
    """(line, name) of each use of ``_grad_enabled`` as a name, an attribute
    or an imported name: a pass whose recording hangs on global tape
    state."""
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
    ("ag._grad_enabled = False\n", [(1, "_grad_enabled")]),
    ("from .autograd import _grad_enabled as on\n", [(1, "_grad_enabled")]),
    ("if _grad_enabled:\n    pass\n", [(1, "_grad_enabled")]),
    ("_grad_enabled = 1\nx._grad_enabled_count\n", []),
], ids=["attribute", "import", "name", "store-only"])
def test_checker_finds_tape_switches(source, want):
    assert tape_switch_reads(source) == want
