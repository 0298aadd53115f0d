"""The benchmark's workloads: ``invert``, ``audit`` and ``ood``.

Each drives ``netinv.cli.main`` in-process and a few public library functions.
Every input is derived from the run's ``--seed``; each repetition runs the
same fixed step budget (``inv.eval_every`` equals the step count, so inversion
never stops early), so a change in arithmetic cannot change the amount of work.

``run.py`` repeats set-up and repetition in turn for ``--seconds``, so every
figure is sampled across the whole run rather than in one stretch of it.  A
repetition runs the subcommand, then the probe section: it loads the
classifier checkpoint and alternates generator steps of the step probe (the
step function called directly, the only way to time single steps without
wrapping ``netinv``) with probe predictions (each probe image routed through
``ood.ood_predict`` on its own).  Interleaving spreads both kinds of sample
over the section, so a short slow spell of the host hits a few of each
rather than a whole pass.  ``wall_s`` is the subcommand plus the checkpoint
load plus the prediction times: the probe pass.
"""

import csv
import hashlib
import json
import math
import shutil
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from netinv import (cli, config, data, inversion, models, ood, optim,
                    reconstruction, serialize)

PROBES = 600          # probe images per repetition: half noise, half crosses

# Config overrides per workload, on top of netinv's defaults.
CONFIGS = {
    # MLP on 12x12 bars; the frozen classifier is inverted for a fixed
    # number of generator steps.  No conv, no grad-norm replay, no SSIM.
    "invert": {
        "synth.family": "bars", "synth.train": 600, "synth.test": 300,
        "model.kind": "mlp", "train.epochs": 15,
        "inv.steps": 400, "inv.eval_every": 400, "inv.eval_samples": 256,
    },
    # CNN trained to memorize a small blobs set, then reconstruction with
    # the perturbation branch and the grad_norm_sq replay, then SSIM
    # best-match against the train and holdout sets.
    "audit": {
        "synth.family": "blobs", "synth.noise": 0.02,
        "synth.train": 100, "synth.test": 100,
        "model.kind": "cnn", "train.epochs": 40,
        "recon.steps": 60, "recon.samples": 32, "inv.eval_every": 60,
    },
    # garbage-class cycle: the classifier's weights are written on a
    # training set that grows with each garbage refill.
    "ood": {
        "synth.family": "bars", "synth.train": 300, "synth.test": 150,
        "model.kind": "mlp", "ood.cycles": 2, "ood.epochs": 10,
        "ood.inv_steps": 100, "ood.garbage_init": 100,
        "inv.eval_every": 100, "inv.eval_samples": 128,
    },
}

# Generator steps timed one by one per repetition.
PROBE_STEPS = {"invert": 150, "audit": 25, "ood": 150}

# Quality floors; each must hold on every seed, so each sits between chance
# and the lowest value seen over seeds 200-239: inv_acc 0.625 (invert, 3
# classes) and 0.359 (ood, 4 classes), ood_routed 0.833, id_test_acc 1.0,
# ssim_gap -0.105 (seeds 200-214).
FLOORS = {
    "invert": {"inv_acc": 0.5, "id_test_acc": 0.95},
    "audit": {"ssim_gap": -0.3, "id_test_acc": 0.9},
    "ood": {"inv_acc": 0.3, "id_test_acc": 0.9, "ood_routed": 0.5},
}

# --smoke: a few steps of each workload, for the benchmark's own tests.
SMOKE = {
    "invert": {"synth.train": 30, "synth.test": 15, "train.epochs": 1,
               "inv.steps": 3, "inv.eval_every": 3, "inv.eval_samples": 8},
    "audit": {"synth.train": 12, "synth.test": 12, "train.epochs": 1,
              "recon.steps": 2, "recon.samples": 2, "inv.eval_every": 2},
    "ood": {"synth.train": 30, "synth.test": 15, "ood.epochs": 1,
            "ood.inv_steps": 3, "ood.garbage_init": 6, "inv.eval_every": 3,
            "inv.eval_samples": 8},
}
SMOKE_PROBE_STEPS = 3
SMOKE_PROBES = 6


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def artifact_digest(directory):
    """Hashes of every output; the manifest is hashed without its timings."""
    out = {}
    for path in sorted(Path(directory).iterdir()):
        if path.name == "manifest.json":
            manifest = json.loads(path.read_text())
            manifest.pop("wall_clock_seconds", None)
            out[path.name] = hashlib.sha256(
                json.dumps(manifest, sort_keys=True).encode()).hexdigest()
        else:
            out[path.name] = sha256_file(path)
    return out


class Workload:
    """Shared set-up, probe section and checks."""

    subcommand = None
    trains_in_setup = True

    def __init__(self, name, seed, out, smoke=False):
        self.seed = seed
        self.out = Path(out)
        self.tracer = None               # set by run.py while a repetition is traced
        self.values = {"seed": seed, **CONFIGS[name], **(SMOKE[name] if smoke else {})}
        self.floors = {} if smoke else FLOORS[name]
        self.probe_steps = SMOKE_PROBE_STEPS if smoke else PROBE_STEPS[name]
        self.n_probes = SMOKE_PROBES if smoke else PROBES
        self.attempted = 0
        self.failures = []
        self.conf = self.out / "run.conf"
        self.conf.write_text("".join(f"{k} = {v}\n" for k, v in self.values.items()))
        self.cfg = None
        self.probes = None
        self._ref = {}

    # -- bookkeeping -----------------------------------------------------
    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def span(self, name):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def same_as_first(self, key, value, what):
        """Byte-identity across set-ups or repetitions of the same seed."""
        ref = self._ref.setdefault(key, value)
        return self.check(ref == value, f"{what} differs from the first run")

    def cli(self, sub, out, *extra):
        with self.span(f"cli.{sub}"):
            rc = cli.main([sub, "--config", str(self.conf), "--out", str(out), *extra])
        self.check(rc == 0, f"netinv {sub} exited {rc}")
        return rc

    def check_manifest(self, directory):
        manifest = json.loads((Path(directory) / "manifest.json").read_text())
        artifacts = manifest.get("artifacts", {})
        ok = bool(artifacts) and all(
            sha256_file(Path(directory) / name) == digest
            for name, digest in artifacts.items())
        self.check(ok, f"manifest hashes in {Path(directory).name}")
        return manifest

    def check_floors(self, figures):
        for metric, floor in self.floors.items():
            if metric in figures:
                value = figures[metric]
                self.check(value >= floor, f"{metric} {value:.4f} below floor {floor}")

    # -- set-up ------------------------------------------------------------
    def setup(self, k):
        """Set-up ``k``: config parse, probe synthesis, and (invert, audit)
        the prerequisite train-classifier.  Returns its facts."""
        with self.span("bench.setup"):
            self.cfg = config.parse_config(self.conf)
            rng = np.random.default_rng([self.seed, 17])
            half = self.n_probes // 2
            noise = rng.random((half, 1, 12, 12)).astype(np.float32)
            crosses, _ = data.synth_dataset(
                data.SynthSpec(family="crosses", classes=3, size=12, noise=0.1,
                               seed=int(rng.integers(2 ** 31))),
                self.n_probes - half, 3)
            self.probes = np.concatenate([noise, crosses.images])
            facts = {}
            if self.trains_in_setup:
                d = self.out / f"setup{k}"
                self.cli("train-classifier", d)
        if self.trains_in_setup:
            manifest = self.check_manifest(d)
            self.same_as_first("setup", artifact_digest(d), "train-classifier output")
            examples = self.cfg["train.epochs"] * self.cfg["synth.train"]
            facts["clf_samples_per_s"] = examples / manifest["wall_clock_seconds"]["train"]
            facts["id_test_acc"] = manifest["test_accuracy"]
            self.check_floors(facts)
        return facts

    def classifier_path(self, k):
        return self.out / f"setup{k}" / "classifier.ninv"

    def checkpoint(self, k, d):
        """The classifier the probe pass and the step probe use."""
        return self.classifier_path(k)

    # -- timed parts -------------------------------------------------------

    def check_predictions(self, preds):
        for p in preds:
            ok = (np.all(np.isfinite(p.probs)) and abs(p.probs.sum() - 1.0) < 1e-6
                  and 0.0 <= p.ue <= 1.0 and p.index == int(np.argmax(p.probs)))
            self.check(bool(ok), "probe prediction malformed")
        blob = b"".join(p.probs.tobytes() for p in preds)
        self.same_as_first("predict", hashlib.sha256(blob).hexdigest(), "probe predictions")

    def generator_spec(self, classes, cond_mode):
        v = self.cfg
        return models.GeneratorSpec(
            z_dim=v["gen.z_dim"], cond_mode=cond_mode, cond_dim=v["gen.cond_dim"],
            classes=classes, dropout=v["gen.dropout"],
            hidden=tuple(int(s) for s in v["gen.hidden"].split(",")),
            out_shape=tuple(self.probes.shape[1:]))

    def inversion_kwargs(self):
        v = self.cfg
        return dict(alpha=v["inv.alpha"], beta=v["inv.beta"], gamma=v["inv.gamma"],
                    delta=v["inv.delta"], batch_size=v["inv.batch"], lr=v["inv.lr"],
                    soften=v["inv.soften"], seed=v["seed"])

    def step_setup(self):
        """-> (step function, its config, generator condition mode)."""
        return (inversion.inversion_step,
                inversion.InversionConfig(**self.inversion_kwargs()),
                self.cfg["gen.cond_mode"])

    def probe_section(self, ckpt):
        """Load ``ckpt``, then alternate one generator step (timed) with the
        next few probe predictions (each timed).  Predictions use no-grad
        forwards of a classifier no step changes, so they do not depend on
        the interleaving.  -> (load seconds, step times, prediction times,
        predictions)."""
        t0 = time.perf_counter()
        clf, _ = serialize.load_checkpoint(ckpt)
        load_s = time.perf_counter() - t0
        step_fn, step_cfg, cond_mode = self.step_setup()
        clf.freeze()
        gen = models.Generator(self.generator_spec(clf.spec.classes, cond_mode),
                               rng=np.random.default_rng([self.seed, 23]))
        opt = optim.make_optimizer(gen.parameters(), step_cfg.optimizer, lr=step_cfg.lr)
        rng = np.random.default_rng([self.seed, 29])
        per_step = -(-len(self.probes) // self.probe_steps)
        steps, latencies, preds, totals = [], [], [], []
        for i in range(self.probe_steps):
            t0 = time.perf_counter()
            breakdown = step_fn(gen, clf, step_cfg, rng, opt)
            steps.append(time.perf_counter() - t0)
            totals.append(breakdown.total)
            for image in self.probes[i * per_step:(i + 1) * per_step]:
                t0 = time.perf_counter()
                preds.append(ood.ood_predict(clf, image))
                latencies.append(time.perf_counter() - t0)
        self.check(all(math.isfinite(t) for t in totals), "step probe loss not finite")
        return load_s, steps, latencies, preds

    def rep(self, k, calibrate):
        """One repetition -> dict with ``sub_s`` (the subcommand), ``pass_s``
        (checkpoint load plus prediction times), ``steps``, ``predict``, the
        workload's figures, and ``calib``: ``calibrate()`` before, between
        and after the subcommand and the probe section."""
        d = self.out / f"rep{k}"
        calib = [calibrate()]
        with self.span("bench.rep"):
            t0 = time.perf_counter()
            self.run_subcommand(k, d)
            sub_s = time.perf_counter() - t0
        calib.append(calibrate())
        with self.span("bench.rep"):
            load_s, steps, latencies, preds = self.probe_section(self.checkpoint(k, d))
        calib.append(calibrate())
        pass_s = load_s + sum(latencies)
        self.check_predictions(preds)
        manifest = self.check_manifest(d)
        self.same_as_first("rep", artifact_digest(d), f"netinv {self.subcommand} output")
        result = {"sub_s": sub_s, "pass_s": pass_s, "steps": steps, "predict": latencies,
                  "calib": calib}
        result.update(self.figures(d, manifest, preds))
        if k:
            for stale in (d, self.out / f"setup{k}"):
                shutil.rmtree(stale, ignore_errors=True)
        self.check_floors(result)
        return result


class Invert(Workload):
    subcommand = "invert"

    def run_subcommand(self, k, d):
        self.cli("invert", d, "--classifier", str(self.classifier_path(k)))

    def figures(self, d, manifest, preds):
        return {"inv_acc": manifest["inversion_accuracy"]}


class Audit(Workload):
    subcommand = "reconstruct"

    def run_subcommand(self, k, d):
        t0 = time.perf_counter()
        self.cli("reconstruct", d, "--classifier", str(self.classifier_path(k)))
        self._cli_s = time.perf_counter() - t0

    def recon_config(self):
        v = self.cfg
        kwargs = {**self.inversion_kwargs(), "gamma": v["recon.gamma"]}
        return reconstruction.ReconConfig(
            **kwargs, alpha_pert=v["recon.alpha_pert"],
            beta_pert=v["recon.beta_pert"], eta_var=v["recon.eta_var"],
            eta_pix=v["recon.eta_pix"], eta_grad=v["recon.eta_grad"],
            eps_pert=v["recon.eps_pert"])

    def step_setup(self):
        return (reconstruction.reconstruction_step, self.recon_config(),
                self.cfg["recon.cond_mode"])

    @property
    def pairs(self):
        return self.cfg["recon.samples"] * (self.cfg["synth.train"] + self.cfg["synth.test"])

    def figures(self, d, manifest, preds):
        gap = manifest["mean_max_ssim_train"] - manifest["mean_max_ssim_holdout"]
        self.check(math.isfinite(gap), "ssim_gap not finite")
        # scoring and writing its outputs follow the manifest's phase timer
        scoring_s = self._cli_s - manifest["wall_clock_seconds"]["reconstruct"]
        return {"ssim_gap": gap, "audit_pairs_per_s": self.pairs / scoring_s}


class Ood(Workload):
    subcommand = "ood"
    trains_in_setup = False

    def run_subcommand(self, k, d):
        self.cli("ood", d)

    def checkpoint(self, k, d):
        return d / "ood_classifier.ninv"

    def figures(self, d, manifest, preds):
        with open(d / "cycles.csv", newline="") as f:
            cycles = list(csv.DictReader(f))
        v = self.cfg
        garbage = [v["ood.garbage_init"]] + [int(r["garbage_size"]) for r in cycles]
        # one train_classifier call per cycle plus the final one
        examples = v["ood.epochs"] * sum(v["synth.train"] + g for g in garbage)
        return {
            "clf_samples_per_s": examples / manifest["wall_clock_seconds"]["ood"],
            "id_test_acc": manifest["id_test_accuracy"],
            "inv_acc": float(cycles[-1]["inversion_acc"]),
            "ood_routed": sum(p.is_ood for p in preds) / len(preds),
            "garbage_size": garbage[-1],
        }


WORKLOADS = {"invert": Invert, "audit": Audit, "ood": Ood}
