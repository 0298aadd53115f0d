"""Run-time reachability: every function body in ``src/netinv`` runs in some
subcommand, or ``ALLOWED`` names it with its reason.

``test_imports.py`` finds names that nothing calls; this finds bodies that
have a caller but never run. The five subcommands run in process on a tiny
config matrix (``MATRIX``) under a ``sys.settrace`` hook (``Reach``) that
records the package's code objects entered and its lines run. A function
body (a def, method, closure, lambda or generator expression) that none of
them enters fails the test unless ``ALLOWED`` names it. Each allowed body
names the tier-1 test that does enter it, and that test runs here under the
same hook, so the capability it keeps stays tested. The statements of
entered bodies that never ran, ``raise`` statements aside, are printed as
information (``pytest -s``). The same pass records the config keys the runs
read: together they must be every key.
"""

import ast
import importlib.util
import inspect
import os
import sys
import types
from pathlib import Path

import pytest

import netinv
from netinv import cli, models
from netinv.cli import main
from netinv.config import DEFAULTS
from test_cli import TINY_RUN, write_conf, write_idx

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11),
                                reason="code objects carry co_qualname from Python 3.11")

PACKAGE_DIR = Path(netinv.__file__).parent
PACKAGE = sorted(PACKAGE_DIR.glob("*.py"))

# Python 3.12 compiles these into the body around them (PEP 709)
INLINED = ("<listcomp>", "<setcomp>", "<dictcomp>")


class Reach:
    """Context manager: the code objects entered (``entered``) and the
    (file name, line) pairs run (``lines``) by code under ``directory``
    while it is active, in this thread."""

    def __init__(self, directory):
        self.prefix = str(directory) + os.sep
        self.entered, self.lines = set(), set()

    def _call(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(self.prefix):
            return None
        self.entered.add(frame.f_code)
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines.add((os.path.basename(frame.f_code.co_filename), frame.f_lineno))
        return self._line

    def __enter__(self):
        self._outer = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._outer)

    def names(self):
        return {f"{Path(c.co_filename).stem}.{c.co_qualname}" for c in self.entered}


def function_bodies(paths):
    """(file name, first line, qualified name) of each function body compiled
    from ``paths``; a class body is not one, and a comprehension belongs to
    the body around it."""
    found = []
    for path in paths:
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    if (const.co_flags & inspect.CO_OPTIMIZED
                            and not const.co_name.endswith(INLINED)):
                        found.append((path.name, const.co_firstlineno, const.co_qualname))
    return found


def unentered(paths, entered, allowed=()):
    """Sorted ``module.qualified name`` of each function body of ``paths``
    that no code object in ``entered`` runs and ``allowed`` does not name."""
    ran = {(Path(c.co_filename).name, c.co_firstlineno, c.co_qualname) for c in entered}
    names = [(body, f"{Path(body[0]).stem}.{body[2]}") for body in function_bodies(paths)]
    return sorted(name for body, name in names if body not in ran and name not in allowed)


def _statements(body):
    """The statements of ``body`` and of the compound statements in it, but
    not of the function or class bodies it defines."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for block in (getattr(stmt, "body", []), getattr(stmt, "orelse", []),
                      getattr(stmt, "finalbody", []),
                      *(h.body for h in getattr(stmt, "handlers", []))):
            yield from _statements(block)


def unrun_statements(paths, entered, lines):
    """"file:line: source" of each statement of an entered function body of
    ``paths`` none of whose lines ran (a compound statement's are its
    header's); ``raise`` and ``try`` statements, declarations and docstrings
    are left out."""
    starts = {(Path(c.co_filename).name, c.co_firstlineno) for c in entered}
    found = []
    for path in paths:
        source = path.read_text()
        text = source.splitlines()
        for fn in ast.walk(ast.parse(source)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
            if (path.name, first) not in starts:
                continue
            body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
            for stmt in _statements(body):
                if isinstance(stmt, (ast.Raise, ast.Try, ast.Global, ast.Nonlocal)):
                    continue
                lo = min([stmt.lineno] + [d.lineno for d in
                                          getattr(stmt, "decorator_list", [])])
                inner = getattr(stmt, "body", None)
                hi = max(lo, inner[0].lineno - 1) if inner else stmt.end_lineno
                if not any((path.name, n) in lines for n in range(lo, hi + 1)):
                    found.append(f"{path.name}:{stmt.lineno}: {text[stmt.lineno - 1].strip()}")
    return found


# Each run on top of TINY_RUN and a small generator: MLP/bars with hidden
# conditioning, CNN/blobs with one-hot conditioning, 3-channel CNN/rings
GENERATOR = "gen.z_dim = 4\ngen.cond_dim = 4\ngen.hidden = 8,16\n"
MATRIX = {
    "mlp": "synth.family = bars\ngen.cond_mode = hidden\nrecon.cond_mode = hidden\n",
    "cnn": "synth.family = blobs\nmodel.kind = cnn\ngen.cond_mode = hot\nrecon.cond_mode = hot\n",
    "rgb": "synth.family = rings\nsynth.channels = 3\nmodel.kind = cnn\n"
           "gen.cond_mode = hidden\nrecon.cond_mode = hidden\n",
}


def run_matrix(tmp):
    """Every subcommand on each ``MATRIX`` config, then an SGD classifier on
    crosses, a classifier on IDX files and ``evaluate`` over the MLP's
    garbage-class checkpoint and the crosses one, all in ``tmp``; -> the
    config keys the runs read."""
    read = set()

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    prepare = cli._prepare

    def recording_prepare(args):
        cfg, out, manifest = prepare(args)
        return Recording(cfg), out, manifest

    def run(command, name, text, *extra):
        conf = write_conf(tmp, TINY_RUN + GENERATOR + text, name=f"{name}.conf")
        out = tmp / name / command
        assert main([command, "--config", conf, "--out", str(out), *extra]) == 0
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_prepare", recording_prepare)
        for name, text in MATRIX.items():
            ckpt = run("train-classifier", name, text) / "classifier.ninv"
            for command in ("invert", "reconstruct"):
                run(command, name, text, "--classifier", str(ckpt))
            run("ood", name, text)
        crosses = run("train-classifier", "sgd",
                      "synth.family = crosses\ntrain.optimizer = sgd\n")
        run("train-classifier", "idx", write_idx(tmp))
        garbage = tmp / "mlp" / "ood" / "ood_classifier.ninv"
        run("evaluate", "eval", f"eval.pairs = bars={garbage},"
                                f"crosses={crosses / 'classifier.ninv'}\n")
    return read


# The tier-1 tests that differentiate the grad_norm_sq_replay oracle once
# more: id -> (test, its arguments)
TERM_NODES = "test_losses.py::TestOneNodeTerms::test_second_order_through_the_term_nodes"
CONV2D = "test_autograd.py::TestLayerNodes::test_conv2d_second_order"
SECOND_ORDER_TESTS = {
    "conv2d-over-input": (CONV2D, {"penalized": (0,)}),
    "conv2d-over-params": (CONV2D, {"penalized": (1, 2)}),
    "kl_loss": ("test_inversion.py::TestTapeFreedOnStepEnd::test_op_leaves_no_cycles",
                {"name": "kl_loss"}),
    "feature_gram": (TERM_NODES, {"kind": "gram", "squared": False}),
    "tv_loss": (TERM_NODES, {"kind": "image", "squared": False}),
}

SECOND_ORDER = ("only a pass that differentiates a VJP's own graph enters it, and no "
                "subcommand runs one: the tape stays second-order capable")
# function body no subcommand enters -> (why it stays, the tier-1 test that
# enters it: a SECOND_ORDER_TESTS id, run here, or a test node)
ALLOWED = {
    "autograd.sub.<locals>.vjp": (SECOND_ORDER, "feature_gram"),
    "autograd.div.<locals>.vjp": (SECOND_ORDER, "kl_loss"),
    "autograd.neg": (SECOND_ORDER, "kl_loss"),
    "autograd.neg.<locals>.vjp": (SECOND_ORDER, "kl_loss"),
    "autograd.pow_const.<locals>.vjp": (SECOND_ORDER, "feature_gram"),
    "autograd.broadcast_to.<locals>.vjp": (SECOND_ORDER, "kl_loss"),
    "autograd.take_slice.<locals>.vjp": (SECOND_ORDER, "tv_loss"),
    "autograd.pad_slice.<locals>.vjp": (SECOND_ORDER, "tv_loss"),
    "autograd.matmul.<locals>.vjp": (SECOND_ORDER, "conv2d-over-input"),
    "autograd._cols_node.<locals>.vjp": (SECOND_ORDER, "conv2d-over-params"),
    "autograd.im2col": (SECOND_ORDER, "conv2d-over-input"),
    "autograd.col2im.<locals>.vjp": (SECOND_ORDER, "conv2d-over-input"),
    "ood.ood_predict": ("perfbench's ood workload routes each probe image through it; "
                        "test_imports fails if that caller goes",
                        "test_ood.py::TestPredictAndThreshold::test_one_forward_and_its_scores"),
}


def run_test(node, arguments):
    """Call the test function ``node`` ("file::[Class::]test") with ``arguments``."""
    path, *names = node.split("::")
    target = importlib.import_module(Path(path).stem)
    for name in names:
        target = getattr(target, name)
        if isinstance(target, type):
            target = target()
    target(**arguments)


@pytest.fixture(scope="module")
def matrix_run(tmp_path_factory):
    """-> (the ``Reach`` of one ``run_matrix`` pass, the config keys it read)."""
    # a warm cache would skip the body it wraps
    models._condition_matrix.cache_clear()
    with Reach(PACKAGE_DIR) as reach:
        read = run_matrix(tmp_path_factory.mktemp("reach"))
    return reach, read


def test_every_function_runs_in_a_subcommand_or_is_allowed(matrix_run):
    reach, _ = matrix_run
    unrun = unrun_statements(PACKAGE, reach.entered, reach.lines)
    print(f"\n{len(unrun)} statements of entered bodies never ran (raise aside):",
          *unrun, sep="\n  ")
    assert unentered(PACKAGE, reach.entered, ALLOWED) == []


def test_allowed_names_only_bodies_no_subcommand_enters(matrix_run):
    reach, _ = matrix_run
    bodies = {f"{Path(f).stem}.{q}" for f, _, q in function_bodies(PACKAGE)}
    assert sorted(n for n in ALLOWED if n not in bodies or n in reach.names()) == []


def test_every_key_is_read_by_the_cli(matrix_run):
    """The keys the matrix's subcommand runs read, taken together, are every key."""
    _, read = matrix_run
    assert read == set(DEFAULTS)


@pytest.mark.parametrize("test_id", SECOND_ORDER_TESTS)
def test_allowed_body_is_entered_by_its_test(test_id):
    with Reach(PACKAGE_DIR) as reach:
        run_test(*SECOND_ORDER_TESTS[test_id])
    want = sorted(name for name, (_, by) in ALLOWED.items() if by == test_id)
    assert want
    assert sorted(set(want) - reach.names()) == []


FABRICATED = '''
def used(x):
    def never(y):
        return y
    return [x * 2 for _ in range(2)]


def dead():
    return 1


def kept():
    return 2
'''


@pytest.mark.parametrize("allowed, want", [
    ((), ["fab.dead", "fab.kept", "fab.used.<locals>.never"]),
    (("fab.kept",), ["fab.dead", "fab.used.<locals>.never"]),
], ids=["dead-helper-and-closure", "allowed-body"])
def test_checker_finds_unentered_bodies(tmp_path, allowed, want):
    path = tmp_path / "fab.py"
    path.write_text(FABRICATED)
    spec = importlib.util.spec_from_file_location("fab", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with Reach(tmp_path) as reach:
        module.used(1)
    assert unentered([path], reach.entered, allowed) == want
    assert unrun_statements([path], reach.entered, reach.lines) == []
