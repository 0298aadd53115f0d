"""Spans around calls into each ``netinv`` module, recorded from outside it.

``Tracer.install`` replaces public functions and methods where their callers
look them up (module globals of every loaded ``netinv`` module, class
attributes), so ``netinv`` itself is not modified.  Each wrapped call records
one span (name, start, end, parent) in memory; ``Tracer.save`` writes them when
the run ends.  The untraced run never creates a ``Tracer``.

The metrics derived from the spans are listed in ``PER_LAYER``; a metric the
workload does not exercise is reported as 0.
"""

import statistics
import sys
import time
import weakref
from array import array
from contextlib import contextmanager

# Traced public names per module; "Class.method" patches the class attribute.
# Elementwise tape ops are not wrapped: their cost lands in the self time of
# the layer that calls them.
TARGETS = {
    "autograd": ("backward", "grad_norm_sq", "matmul", "conv2d", "im2col",
                 "col2im", "maxpool2d", "softmax", "log_softmax"),
    "optim": ("make_optimizer", "Adam.step"),
    "data": ("synth_dataset",),
    "models": ("Classifier.forward", "Generator.forward"),
    "losses": ("kl_loss", "weighted_ce_loss", "cosine_diversity_loss",
               "ortho_loss", "tv_loss", "pixel_loss", "compose_total"),
    "training": ("train_classifier", "accuracy", "predict_probs"),
    "inversion": ("inversion_step", "inversion_accuracy", "train_generator"),
    "reconstruction": ("reconstruction_step", "reconstruction_loss",
                       "train_reconstructor", "generate_samples", "linf_perturb"),
    "privacy": ("ssim", "privacy_score"),
    "ood": ("uncertainty", "ood_predict", "threshold_report",
            "ood_training_cycle", "init_garbage", "class_weights"),
    "serialize": ("save_checkpoint", "load_checkpoint", "write_pgm_grid",
                  "write_csv"),
    "config": ("parse_config", "write_resolved", "file_sha256",
               "ManifestWriter.write"),
}

# "cli" spans are opened by the benchmark around each subcommand; "bench.*"
# spans (set-up, repetition) belong to no layer.
LAYERS = ("cli",) + tuple(TARGETS)

GEN_STEPS = ("inversion.inversion_step", "reconstruction.reconstruction_step")
TRAIN = "training.train_classifier"
REP = "bench.rep"

# A backward pass's tape is walked on every TAPE_SAMPLE-th call per context:
# the tape of a step has the same shape every step, and walking it costs
# about a tenth of the step.
TAPE_SAMPLE = 10

SUBCOMMANDS = ("train-classifier", "invert", "reconstruct", "ood")
TAIL_LADDER = (50.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9, 99.99)

# name -> (unit, better); every --trace 1 run prints every name.  Counts of
# work done are "lower": the same result from less work is better.
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.busy_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
for _name, _unit in (
        ("autograd.tape_nodes", "count"), ("autograd.tape_nodes_train", "count"),
        ("autograd.useful_grad_frac", "frac"),
        ("autograd.useful_grad_frac_train", "frac"),
        ("autograd.matmul_calls", "count"), ("autograd.backward_ms", "ms"),
        ("autograd.grad_norm_sq_ms", "ms"), ("autograd.conv2d_ms", "ms"),
        ("autograd.im2col_ms", "ms"), ("autograd.col2im_ms", "ms"),
        ("autograd.softmax_ms", "ms"), ("autograd.log_softmax_ms", "ms"),
        ("losses.terms_ms", "ms"), ("models.classifier_forward_ms", "ms"),
        ("models.generator_forward_ms", "ms"), ("optim.step_ms", "ms"),
        ("training.train_s", "s"), ("training.minibatches", "count"),
        ("training.eval_s", "s"),
        ("inversion.step_ms", "ms"), ("inversion.step_ms_tail", "ms"),
        ("inversion.eval_s", "s"),
        ("reconstruction.step_ms", "ms"), ("reconstruction.step_ms_tail", "ms"),
        ("reconstruction.generate_s", "s"),
        ("privacy.score_s", "s"), ("privacy.pairs", "count"),
        ("privacy.ssim_calls", "count"), ("privacy.pairs_per_s", "1/s"),
        ("ood.cycle_s", "s"), ("ood.uncertainty_calls", "count"),
        ("ood.uncertainty_us", "us"), ("ood.threshold_s", "s"),
        ("ood.garbage_size", "count"), ("ood.predict_ms_tail", "ms"),
        ("serialize.save_ms", "ms"), ("serialize.load_ms", "ms"),
        ("serialize.grid_ms", "ms"), ("config.parse_ms", "ms"),
        ("config.hash_ms", "ms"), ("data.synth_s", "s")):
    PER_LAYER[_name] = (_unit, "higher" if "useful" in _name or _name.endswith("_per_s")
                        else "lower")
for _sub in SUBCOMMANDS:
    PER_LAYER[f"cli.{_sub}_s"] = ("s", "lower")
PER_LAYER["trace.overhead_frac"] = ("frac", "lower")


def median(values):
    return statistics.median(values) if len(values) else 0.0


def percentile(values, pct):
    """Linear-interpolated percentile of a non-empty sample."""
    values = sorted(values)
    pos = (len(values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def tail(values):
    """-> (pct, value, n): the highest ladder percentile with >= 10 samples
    strictly above it.  With fewer than 20 samples no percentile qualifies
    and the median is returned (pct 50)."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    best = (50.0, percentile(values, 50.0))
    for pct in TAIL_LADDER:
        value = percentile(values, pct)
        if sum(1 for v in values if v > value) >= 10:
            best = (pct, value)
    return best[0], best[1], n


def self_times(start, end, parent):
    """Per span: its duration minus the part of it covered by its children."""
    children = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered, cur_lo, cur_hi = 0.0, None, None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def walk_tape(loss):
    """-> (tape nodes reachable from ``loss``, tracked leaf tensors)."""
    seen = {id(loss)}
    stack = [loss]
    nodes, leaves = 0, []
    while stack:
        node = stack.pop()
        nodes += 1
        op = getattr(node, "_op", None)
        if op is None:
            leaves.append(node)
            continue
        for inp in op[0]:
            if inp.requires_grad and id(inp) not in seen:
                seen.add(id(inp))
                stack.append(inp)
    return nodes, leaves


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack = []
        self.optimizers = weakref.WeakSet()
        self.tape = {"gen": [], "train": []}   # (nodes, useful elems, leaf elems)
        self._backward_calls = {"gen": 0, "train": 0, "other": 0}
        self._patches = []
        self.missing = []

    # -- spans -----------------------------------------------------------
    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextmanager
    def span(self, name):
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def _open(self, nid):
        i = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(nid)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, after=None):
        nid = self._id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _context(self):
        names = self.names
        for i in reversed(self.stack):
            n = names[self.name[i]]
            if n in GEN_STEPS:
                return "gen"
            if n == TRAIN:
                return "train"
        return "other"

    def _wrap_backward(self, fn):
        traced = self.wrap("autograd.backward", fn)

        def backward(loss, *args, **kwargs):
            ctx = self._context()
            count = self._backward_calls[ctx]
            self._backward_calls[ctx] = count + 1
            if ctx != "other" and count % TAPE_SAMPLE == 0:
                nodes, leaves = walk_tape(loss)
                updated = {id(p) for opt in list(self.optimizers)
                           for p in getattr(opt, "params", ())}
                useful = sum(t.data.size for t in leaves if id(t) in updated)
                self.tape[ctx].append((nodes, useful, sum(t.data.size for t in leaves)))
            return traced(loss, *args, **kwargs)

        backward.__wrapped__ = fn
        return backward

    # -- patching --------------------------------------------------------
    def install(self):
        if self._patches:
            return
        import importlib
        for layer, attrs in TARGETS.items():
            module = importlib.import_module(f"netinv.{layer}")
            for attr in attrs:
                owner_name, _, meth = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                orig = (owner.__dict__.get(meth) if owner_name
                        else getattr(module, meth, None)) if owner is not None else None
                if orig is None:
                    self.missing.append(f"{layer}.{attr}")
                    continue
                name = f"{layer}.{attr}"
                if name == "autograd.backward":
                    new = self._wrap_backward(orig)
                elif name == "optim.make_optimizer":
                    new = self.wrap(name, orig, after=self.optimizers.add)
                else:
                    new = self.wrap(name, orig)
                if owner_name:
                    self._patch(owner, meth, new)
                else:
                    for mod in list(sys.modules.values()):
                        if getattr(mod, "__name__", "").split(".")[0] != "netinv":
                            continue
                        for key, value in list(vars(mod).items()):
                            if value is orig:
                                self._patch(mod, key, new)

    def _patch(self, owner, key, new):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def uninstall(self):
        while self._patches:
            owner, key, old = self._patches.pop()
            setattr(owner, key, old)

    def save(self, path):
        import numpy as np
        np.savez_compressed(path, names=np.array(self.names), name=np.asarray(self.name),
                            start=np.asarray(self.start), end=np.asarray(self.end),
                            parent=np.asarray(self.parent))

    # -- metrics ---------------------------------------------------------
    def metrics(self, facts):
        """Per-layer metrics.  ``facts`` supplies what spans cannot show:
        ``reps`` (traced repetitions), ``cycles``, ``garbage_size``,
        ``pairs_per_rep`` and ``overhead_frac``.  Returns (metrics, tail
        details: percentile and sample count of each ``*_tail`` metric)."""
        names = self.names
        start, end, parent = self.start, self.end, self.parent
        n = len(start)
        span_name = [names[k] for k in self.name]
        layer_idx = {layer: k for k, layer in enumerate(LAYERS)}
        layer = [layer_idx.get(s.split(".", 1)[0], -1) for s in span_name]
        dur = [end[i] - start[i] for i in range(n)]
        selfs = self_times(start, end, parent)

        # ancestor facts, valid because a parent is recorded before its children
        in_rep, in_gen, in_train = [False] * n, [False] * n, [False] * n
        amask = [0] * n
        for i in range(n):
            p = parent[i]
            if p < 0:
                continue
            pn = span_name[p]
            in_rep[i] = in_rep[p] or pn == REP
            in_gen[i] = in_gen[p] or pn in GEN_STEPS
            in_train[i] = in_train[p] or pn == TRAIN
            amask[i] = amask[p] | ((1 << layer[p]) if layer[p] >= 0 else 0)

        by_name = {}
        for i in range(n):
            by_name.setdefault(span_name[i], []).append(i)

        reps = max(1, facts.get("reps", 1))
        out = {name: 0.0 for name in PER_LAYER}
        tails = {}
        for li, lname in enumerate(LAYERS):
            idx = [i for i in range(n) if in_rep[i] and layer[i] == li]
            out[f"{lname}.calls"] = len(idx) / reps
            out[f"{lname}.busy_s"] = sum(dur[i] for i in idx
                                         if not (amask[i] >> li) & 1) / reps
            out[f"{lname}.self_s"] = sum(selfs[i] for i in idx) / reps

        def durations(name, scale=1.0):
            return [dur[i] * scale for i in by_name.get(name, ())]

        gen_steps = sum(len(by_name.get(s, ())) for s in GEN_STEPS)

        def per_gen_step_ms(name, use_self=False):
            if not gen_steps:
                return 0.0
            vals = selfs if use_self else dur
            return 1e3 * sum(vals[i] for i in by_name.get(name, ()) if in_gen[i]) / gen_steps

        def layer_per_gen_step_ms(lname):
            if not gen_steps:
                return 0.0
            li = layer_idx[lname]
            return 1e3 * sum(dur[i] for i in range(n) if in_gen[i] and layer[i] == li
                             and not (amask[i] >> li) & 1) / gen_steps

        for ctx, suffix in (("gen", ""), ("train", "_train")):
            samples = self.tape[ctx]
            if samples:
                out[f"autograd.tape_nodes{suffix}"] = sum(s[0] for s in samples) / len(samples)
                total = sum(s[2] for s in samples)
                out[f"autograd.useful_grad_frac{suffix}"] = (
                    sum(s[1] for s in samples) / total if total else 0.0)
        if gen_steps:
            out["autograd.matmul_calls"] = sum(
                1 for i in by_name.get("autograd.matmul", ()) if in_gen[i]) / gen_steps
        out["autograd.backward_ms"] = per_gen_step_ms("autograd.backward", use_self=True)
        for op in ("grad_norm_sq", "conv2d", "im2col", "col2im", "softmax", "log_softmax"):
            out[f"autograd.{op}_ms"] = per_gen_step_ms(f"autograd.{op}")
        out["losses.terms_ms"] = layer_per_gen_step_ms("losses")
        out["models.classifier_forward_ms"] = per_gen_step_ms("models.Classifier.forward")
        out["models.generator_forward_ms"] = per_gen_step_ms("models.Generator.forward")
        out["optim.step_ms"] = layer_per_gen_step_ms("optim")

        train_calls = by_name.get(TRAIN, ())
        out["training.train_s"] = median(durations(TRAIN))
        if train_calls:
            minibatches = sum(1 for i in by_name.get("autograd.backward", ()) if in_train[i])
            out["training.minibatches"] = minibatches / len(train_calls)
        out["training.eval_s"] = median(durations("training.accuracy"))

        for lname, step in (("inversion", "inversion.inversion_step"),
                            ("reconstruction", "reconstruction.reconstruction_step")):
            steps = durations(step, 1e3)
            out[f"{lname}.step_ms"] = median(steps)
            pct, value, count = tail(steps)
            out[f"{lname}.step_ms_tail"] = value
            tails[f"{lname}.step_ms_tail"] = {"pct": pct, "n": count}
        out["inversion.eval_s"] = median(durations("inversion.inversion_accuracy"))
        out["reconstruction.generate_s"] = median(durations("reconstruction.generate_samples"))

        score = durations("privacy.privacy_score")
        out["privacy.score_s"] = median(score)
        pairs = facts.get("pairs_per_rep", 0)
        out["privacy.pairs"] = pairs
        out["privacy.ssim_calls"] = sum(1 for i in by_name.get("privacy.ssim", ())
                                        if in_rep[i]) / reps
        rep_score_s = sum(dur[i] for i in by_name.get("privacy.privacy_score", ())
                          if in_rep[i])
        if rep_score_s:
            out["privacy.pairs_per_s"] = pairs * reps / rep_score_s

        cycle = durations("ood.ood_training_cycle")
        if cycle and facts.get("cycles"):
            out["ood.cycle_s"] = median(cycle) / facts["cycles"]
        out["ood.uncertainty_calls"] = sum(1 for i in by_name.get("ood.uncertainty", ())
                                           if in_rep[i]) / reps
        out["ood.uncertainty_us"] = median(durations("ood.uncertainty", 1e6))
        out["ood.threshold_s"] = median(durations("ood.threshold_report"))
        out["ood.garbage_size"] = facts.get("garbage_size", 0)
        pct, value, count = tail(durations("ood.ood_predict", 1e3))
        out["ood.predict_ms_tail"] = value
        tails["ood.predict_ms_tail"] = {"pct": pct, "n": count}

        out["serialize.save_ms"] = median(durations("serialize.save_checkpoint", 1e3))
        out["serialize.load_ms"] = median(durations("serialize.load_checkpoint", 1e3))
        out["serialize.grid_ms"] = median(durations("serialize.write_pgm_grid", 1e3))
        out["config.parse_ms"] = median(durations("config.parse_config", 1e3))
        out["config.hash_ms"] = median(durations("config.file_sha256", 1e3))
        out["data.synth_s"] = median(durations("data.synth_dataset"))
        for sub in SUBCOMMANDS:
            out[f"cli.{sub}_s"] = median(durations(f"cli.{sub}"))
        out["trace.overhead_frac"] = facts.get("overhead_frac", 0.0)
        return out, tails
