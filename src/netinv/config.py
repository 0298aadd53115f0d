"""Flat key=value run configuration with strict key checking."""

import hashlib
import json
import math
import time
from pathlib import Path

from .data import FAMILIES
from .errors import ConfigError

# every known key with its default (the default's type drives coercion)
DEFAULTS = {
    "seed": 0,
    "dataset": "synth",               # synth | idx

    "synth.family": "bars",
    "synth.classes": 3,
    "synth.size": 12,
    "synth.noise": 0.1,
    "synth.channels": 1,
    "synth.train": 600,
    "synth.test": 300,

    "idx.train_images": "",
    "idx.train_labels": "",
    "idx.test_images": "",
    "idx.test_labels": "",
    "idx.limit": 0,                   # 0 = no limit

    "model.kind": "mlp",              # mlp | cnn

    "train.epochs": 30,
    "train.batch": 64,
    "train.lr": 1e-3,
    "train.optimizer": "adam",

    "gen.z_dim": 64,
    "gen.cond_mode": "hidden",        # hot | hidden
    "gen.cond_dim": 32,
    "gen.dropout": 0.5,
    "gen.hidden": "128,256",

    "inv.alpha": 1.0,
    "inv.beta": 1.0,
    "inv.gamma": 0.5,
    "inv.delta": 0.1,
    "inv.batch": 32,
    "inv.steps": 3000,
    "inv.lr": 2e-3,
    "inv.soften": 0.1,
    "inv.target_accuracy": 0.95,
    "inv.eval_every": 200,
    "inv.eval_samples": 256,

    "recon.alpha_pert": 1.0,
    "recon.beta_pert": 1.0,
    "recon.gamma": 0.25,
    "recon.eta_var": 0.1,
    "recon.eta_pix": 1.0,
    "recon.eta_grad": 0.01,
    "recon.eps_pert": 0.05,
    "recon.steps": 600,
    "recon.samples": 32,
    "recon.cond_mode": "hot",         # hot conditioning elicits confident matches

    "ood.cycles": 5,
    "ood.epochs": 12,
    "ood.garbage_init": 100,
    "ood.budget": 0,                  # 0 = one ID class's training count
    "ood.capacity_factor": 4,
    "ood.inv_steps": 800,

    "eval.pairs": "",                 # name=checkpoint[,name=checkpoint...]
}


# keys whose value must be one of a fixed set
CHOICES = {
    "dataset": ("synth", "idx"),
    "synth.family": FAMILIES,
    "model.kind": ("mlp", "cnn"),
    "train.optimizer": ("adam", "sgd"),
    "gen.cond_mode": ("hot", "hidden"),
    "recon.cond_mode": ("hot", "hidden"),
}


# count keys and the least value each may take
MINIMUMS = {
    "inv.eval_every": 1,
    "inv.eval_samples": 1,
    "inv.batch": 2,                   # the pairwise diversity losses need pairs
    "inv.steps": 1,
    "recon.steps": 1,
    "recon.samples": 1,
    "train.epochs": 1,
    "train.batch": 1,
    "ood.cycles": 0,                  # 0 = train the baseline classifier only
    "ood.epochs": 1,
    "ood.inv_steps": 1,
    "ood.garbage_init": 1,            # the first cycle trains on a non-empty garbage class
    "idx.limit": 0,                   # 0 = no limit
    "ood.budget": 0,                  # 0 = one ID class's training count
    "ood.capacity_factor": 1,         # 0 would evict every inverted sample
    "synth.size": 1,
    "synth.classes": 2,
    "gen.z_dim": 1,
    "gen.cond_dim": 1,
}


# float keys and the range each must lie in; NaN lies in none
RANGES = {
    "synth.noise": ("in [0, 1)", lambda v: 0.0 <= v < 1.0),
    "gen.dropout": ("in [0, 1)", lambda v: 0.0 <= v < 1.0),
    "inv.soften": ("in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    # above 1 the loop never stops early but still evaluates
    "inv.target_accuracy": ("finite and >= 0", lambda v: 0.0 <= v < math.inf),
    "train.lr": ("finite and > 0", lambda v: 0.0 < v < math.inf),
    "inv.lr": ("finite and > 0", lambda v: 0.0 < v < math.inf),
}


def _widths_ok(text):
    """True when ``text`` is a comma-separated list of integer widths >= 1."""
    try:
        return all(int(w) >= 1 for w in text.split(","))
    except ValueError:
        return False


def parse_config(path=None, seed=None):
    """Read `key = value` lines, then ``seed`` over the file's seed when not
    None; every problem is reported in one pass."""
    values = dict(DEFAULTS)
    problems = []
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            text = p.read_text(encoding="utf-8-sig")   # a leading byte-order mark is dropped
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid UTF-8: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                problems.append(f"line {lineno}: not a key = value pair: {line.strip()!r}")
                continue
            key, raw = (s.strip() for s in stripped.split("=", 1))
            if key not in DEFAULTS:
                problems.append(f"line {lineno}: unknown key {key!r}")
                continue
            try:
                values[key] = type(DEFAULTS[key])(raw)
            except ValueError:
                problems.append(f"line {lineno}: bad value for {key!r}: {raw!r}")
    if seed is not None:
        values["seed"] = seed
    problems += [f"bad value for {key!r}: {values[key]!r} (choices: {', '.join(choices)})"
                 for key, choices in CHOICES.items() if values[key] not in choices]
    problems += [f"bad value for {key!r}: {values[key]!r} (must be >= {low})"
                 for key, low in MINIMUMS.items() if values[key] < low]
    problems += [f"bad value for {key!r}: {values[key]!r} (must be {text})"
                 for key, (text, ok) in RANGES.items() if not ok(values[key])]
    if not _widths_ok(values["gen.hidden"]):
        problems.append(f"bad value for 'gen.hidden': {values['gen.hidden']!r} "
                        f"(want comma-separated widths >= 1)")
    seen = set()
    for entry in filter(None, values["eval.pairs"].split(",")):
        name, _, checkpoint = entry.partition("=")
        if name not in FAMILIES or not checkpoint:
            problems.append(f"bad eval.pairs entry {entry!r} (want name=checkpoint, "
                            f"name one of: {', '.join(FAMILIES)})")
        elif name in seen:
            problems.append(f"bad eval.pairs entry {entry!r} (family {name!r} listed twice)")
        seen.add(name)
    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))
    return values


def write_resolved(values, out_dir):
    """Materialize every default into the run directory."""
    lines = [f"{k} = {values[k]}" for k in sorted(values)]
    path = Path(out_dir) / "resolved.conf"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def derive_seed(root_seed, phase):
    """Phase-isolated stream: hash of (root seed, phase name)."""
    digest = hashlib.sha256(f"{root_seed}:{phase}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


class ManifestWriter:
    def __init__(self, out_dir, values):
        self.out_dir = Path(out_dir)
        self.values = values
        self.artifacts = {}
        self.timings = {}
        self._t0 = None
        self._phase = None

    def start(self, phase):
        self._phase = phase
        self._t0 = time.monotonic()

    def stop(self):
        if self._phase is not None:
            self.timings[self._phase] = time.monotonic() - self._t0
            self._phase = None

    def record(self, path):
        path = Path(path)
        self.artifacts[path.name] = file_sha256(path)
        return path

    def write(self, extra=None):
        manifest = {
            "format_version": 1,
            "seed": self.values["seed"],
            "config": self.values,
            "artifacts": self.artifacts,
            "wall_clock_seconds": self.timings,
        }
        if extra:
            manifest.update(extra)
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return path
