"""Experiment orchestration: train-classifier, invert, reconstruct, ood, evaluate."""

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ManifestWriter, derive_seed, parse_config, write_resolved
from .data import SynthSpec, load_idx, synth_dataset, synth_split
from .errors import ConfigError, DivergenceError, DomainError, NetinvError
from .inversion import InversionConfig, generate_samples, train_generator
from .models import Classifier, ClassifierSpec, Generator, GeneratorSpec
from .ood import OodCycleConfig, evaluate_grid, ood_training_cycle
from .privacy import WINDOW, privacy_score
from .serialize import load_checkpoint, save_checkpoint, write_csv, write_pgm_grid
from .training import accuracy, train_classifier

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3


def _synth_spec(cfg, family, size_keys):
    """Synthetic spec of ``family`` from the synth.* keys, once each split size
    in ``size_keys`` is checked."""
    classes = cfg["synth.classes"]
    for key in size_keys:
        if cfg[key] < classes:
            raise ConfigError(f"bad value for {key!r}: {cfg[key]} (must be >= "
                              f"synth.classes = {classes}, one sample per class)")
    return SynthSpec(family=family, classes=classes, size=cfg["synth.size"],
                     noise=cfg["synth.noise"], channels=cfg["synth.channels"],
                     seed=derive_seed(cfg["seed"], "dataset"))


def _load_datasets(cfg):
    if cfg["dataset"] == "synth":
        spec = _synth_spec(cfg, cfg["synth.family"], ("synth.train", "synth.test"))
        return synth_dataset(spec, cfg["synth.train"], cfg["synth.test"])
    missing = [k for k in ("idx.train_images", "idx.train_labels",
                           "idx.test_images", "idx.test_labels") if not cfg[k]]
    if missing:
        raise ConfigError("missing IDX paths: " + ", ".join(missing))
    limit = cfg["idx.limit"] or None
    train = load_idx(cfg["idx.train_images"], cfg["idx.train_labels"], limit=limit)
    test = load_idx(cfg["idx.test_images"], cfg["idx.test_labels"], limit=limit)
    return train, test


def _load_classifier(path):
    """-> (frozen classifier, checkpoint meta)."""
    clf, info = load_checkpoint(path)
    if not isinstance(clf, Classifier):
        raise ConfigError(f"{path} is not a classifier checkpoint")
    meta = info.get("meta")
    return clf.freeze(), meta if isinstance(meta, dict) else {}


def _classifier_spec(cfg, in_shape, classes):
    return ClassifierSpec(kind=cfg["model.kind"], in_shape=tuple(in_shape), classes=classes)


def _generator_spec(cfg, out_shape, classes, cond_mode=None):
    hidden = tuple(int(s) for s in cfg["gen.hidden"].split(","))
    return GeneratorSpec(z_dim=cfg["gen.z_dim"], cond_mode=cond_mode or cfg["gen.cond_mode"],
                         cond_dim=cfg["gen.cond_dim"], classes=classes,
                         dropout=cfg["gen.dropout"], hidden=hidden,
                         out_shape=tuple(out_shape))


def _inversion_config(cfg, **fields):
    """Generator-training config from the inv.* keys; ``fields`` override them."""
    return InversionConfig(**{
        "alpha": cfg["inv.alpha"], "beta": cfg["inv.beta"], "gamma": cfg["inv.gamma"],
        "delta": cfg["inv.delta"], "batch_size": cfg["inv.batch"], "steps": cfg["inv.steps"],
        "lr": cfg["inv.lr"], "soften": cfg["inv.soften"],
        "target_accuracy": cfg["inv.target_accuracy"], "eval_every": cfg["inv.eval_every"],
        "eval_samples": cfg["inv.eval_samples"], **fields})


def _prepare(args):
    cfg = parse_config(args.config, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_resolved(cfg, out)
    return cfg, out, ManifestWriter(out, cfg)


def cmd_train_classifier(args):
    cfg, out, manifest = _prepare(args)
    manifest.start("train")
    train, test = _load_datasets(cfg)
    clf = Classifier(_classifier_spec(cfg, train.image_shape, train.n_classes),
                     rng=np.random.default_rng(derive_seed(cfg["seed"], "classifier-init")))
    rng = np.random.default_rng(derive_seed(cfg["seed"], "classifier-train"))
    history = train_classifier(clf, train.images, train.labels,
                               epochs=cfg["train.epochs"], batch_size=cfg["train.batch"],
                               lr=cfg["train.lr"], optimizer=cfg["train.optimizer"], rng=rng)
    test_acc = accuracy(clf, test.images, test.labels)
    manifest.stop()
    rows = [[epoch, loss, acc] for epoch, (loss, acc) in enumerate(history)]
    manifest.record(save_checkpoint(clf, out / "classifier.ninv", seed=cfg["seed"],
                                    meta={"dataset": train.name, "test_accuracy": test_acc}))
    manifest.record(write_csv(rows, ["epoch", "train_loss", "train_accuracy"],
                              out / "metrics.csv"))
    manifest.write(extra={"test_accuracy": test_acc})
    return EXIT_OK


def cmd_invert(args):
    cfg, out, manifest = _prepare(args)
    clf, _ = _load_classifier(args.classifier)
    manifest.start("invert")
    gen = Generator(_generator_spec(cfg, clf.spec.in_shape, clf.spec.classes),
                    rng=np.random.default_rng(derive_seed(cfg["seed"], "generator-init")))
    inv_cfg = _inversion_config(cfg)
    rng = np.random.default_rng(derive_seed(cfg["seed"], "inversion"))
    history, final_acc = train_generator(gen, clf, inv_cfg, rng=rng)
    manifest.stop()
    rows = [[step, b.terms["kl"], b.terms["ce"], b.terms["cosine"], b.terms["ortho"],
             b.total, "" if acc is None else acc] for step, b, acc in history]
    manifest.record(write_csv(rows, ["step", "kl", "ce", "cosine", "ortho", "total",
                                     "accuracy"], out / "inversion_loss.csv"))
    grid_rng = np.random.default_rng(derive_seed(cfg["seed"], "sample-grid"))
    for k in range(clf.spec.classes):
        _, images = generate_samples(gen, 16, grid_rng, classes=[k])
        manifest.record(write_pgm_grid(images, 4, out / f"samples_class{k}"))
    manifest.record(save_checkpoint(gen, out / "generator.ninv", seed=cfg["seed"],
                                    meta={"inversion_accuracy": final_acc}))
    manifest.write(extra={
        "inversion_accuracy": final_acc,
        "stop_reason": "target" if final_acc >= inv_cfg.target_accuracy else "budget",
        "steps_run": len(history),
    })
    return EXIT_OK


def cmd_reconstruct(args):
    cfg, out, manifest = _prepare(args)
    clf, _ = _load_classifier(args.classifier)
    train, holdout = _load_datasets(cfg)
    if train.image_shape != clf.spec.in_shape:
        raise ConfigError(f"dataset images {train.image_shape} do not match the "
                          f"classifier input {clf.spec.in_shape}")
    if min(train.image_shape[1:]) < WINDOW:
        raise ConfigError(f"images {train.image_shape} are smaller than the "
                          f"{WINDOW}x{WINDOW} SSIM window reconstructions are scored with")
    manifest.start("reconstruct")
    gen = Generator(_generator_spec(cfg, clf.spec.in_shape, clf.spec.classes,
                                    cond_mode=cfg["recon.cond_mode"]),
                    rng=np.random.default_rng(derive_seed(cfg["seed"], "generator-init")))
    rcfg = _inversion_config(
        cfg, gamma=cfg["recon.gamma"], steps=cfg["recon.steps"],
        target_accuracy=None, alpha_pert=cfg["recon.alpha_pert"],
        beta_pert=cfg["recon.beta_pert"], eta_var=cfg["recon.eta_var"],
        eta_pix=cfg["recon.eta_pix"], eta_grad=cfg["recon.eta_grad"],
        eps_pert=cfg["recon.eps_pert"])
    rng = np.random.default_rng(derive_seed(cfg["seed"], "reconstruction"))
    train_generator(gen, clf, rcfg, rng=rng)
    labels, recons = generate_samples(gen, cfg["recon.samples"], rng)
    if not np.isfinite(recons).all():
        raise DivergenceError("non-finite reconstructions")
    manifest.stop()
    report = privacy_score(recons, train.images)
    holdout_report = privacy_score(recons, holdout.images)
    delta = report.match_ssim - holdout_report.match_ssim
    rows = [[i, int(report.match_index[i]), float(report.match_ssim[i]),
             int(holdout_report.match_index[i]), float(holdout_report.match_ssim[i]),
             float(delta[i])] for i in range(len(recons))]
    rows.append(["mean", "", report.mean_ssim, "", holdout_report.mean_ssim,
                 float(delta.mean())])
    manifest.record(write_csv(rows, ["recon_id", "match_id", "ssim", "holdout_match_id",
                                     "holdout_ssim", "delta"], out / "privacy.csv"))
    manifest.record(write_pgm_grid(recons, 8, out / "reconstructions"))
    manifest.write(extra={
        "mean_max_ssim_train": report.mean_ssim,
        "mean_max_ssim_holdout": holdout_report.mean_ssim,
        "memorization_direction_holds": report.mean_ssim > holdout_report.mean_ssim,
    })
    return EXIT_OK


def cmd_ood(args):
    cfg, out, manifest = _prepare(args)
    train, test = _load_datasets(cfg)
    n = train.n_classes
    if cfg["ood.capacity_factor"] * len(train) <= cfg["ood.garbage_init"]:
        raise ConfigError(
            f"bad value for 'ood.capacity_factor': {cfg['ood.capacity_factor']} (times "
            f"{len(train)} training images it must exceed 'ood.garbage_init' = "
            f"{cfg['ood.garbage_init']}, or every inverted sample is evicted on arrival)")
    manifest.start("ood")
    clf = Classifier(_classifier_spec(cfg, train.image_shape, n + 1),
                     rng=np.random.default_rng(derive_seed(cfg["seed"], "classifier-init")))
    gen_spec = _generator_spec(cfg, train.image_shape, n + 1)
    gen_rng = np.random.default_rng(derive_seed(cfg["seed"], "generator-init"))

    def gen_factory(cycle):
        return Generator(gen_spec, rng=gen_rng)

    ocfg = OodCycleConfig(cycles=cfg["ood.cycles"], epochs_per_cycle=cfg["ood.epochs"],
                          batch_size=cfg["train.batch"], lr=cfg["train.lr"],
                          optimizer=cfg["train.optimizer"],
                          garbage_init=cfg["ood.garbage_init"],
                          budget=cfg["ood.budget"],
                          capacity_factor=cfg["ood.capacity_factor"],
                          inversion=_inversion_config(cfg, steps=cfg["ood.inv_steps"]))
    rng = np.random.default_rng(derive_seed(cfg["seed"], "ood-cycle"))

    def on_cycle(report, images):
        manifest.record(write_pgm_grid(images[:16], 4, out / f"inverted_cycle{report.cycle}"))

    clf, reports = ood_training_cycle(clf, gen_factory, train, test, ocfg, rng=rng,
                                      on_cycle=on_cycle)
    manifest.stop()
    rows = [[r.cycle, r.id_train_accuracy, r.id_test_accuracy, r.inversion_accuracy,
             r.garbage_size, r.mean_ue_inverted, r.threshold_gap, r.ood_misrouted]
            for r in reports]
    manifest.record(write_csv(rows, ["cycle", "id_train_acc", "id_test_acc", "inversion_acc",
                                     "garbage_size", "mean_ue_inverted", "threshold_gap",
                                     "ood_misrouted"], out / "cycles.csv"))
    final_acc = accuracy(clf, test.images, test.labels)
    manifest.record(save_checkpoint(clf, out / "ood_classifier.ninv", seed=cfg["seed"],
                                    meta={"id_test_accuracy": final_acc, "garbage_class": n}))
    manifest.write(extra={"id_test_accuracy": final_acc})
    return EXIT_OK


def cmd_evaluate(args):
    cfg, out, manifest = _prepare(args)
    pairs = [p for p in cfg["eval.pairs"].split(",") if p]
    if not pairs:
        raise ConfigError("eval.pairs must list name=checkpoint entries")
    models, datasets, garbage = {}, {}, {}
    for pair in pairs:
        name, path = pair.split("=", 1)     # parse_config checked the form
        clf, meta = _load_classifier(path)
        ds = synth_split(_synth_spec(cfg, name, ("synth.test",)), "test", cfg["synth.test"])
        g = meta.get("garbage_class")
        id_classes = clf.spec.classes - (g is not None)
        problem = None
        if g not in (None, clf.spec.classes - 1):
            problem = f"garbage_class {g!r} is not the model's last class"
        elif ds.image_shape != clf.spec.in_shape:
            problem = (f"dataset images {ds.image_shape} do not match the classifier "
                       f"input {clf.spec.in_shape}")
        elif cfg["synth.classes"] != id_classes:
            problem = (f"synth.classes = {cfg['synth.classes']}, the classifier has "
                       f"{id_classes} ID classes")
        if problem:
            raise ConfigError(f"eval.pairs entry {pair}: {problem}")
        models[name], datasets[name], garbage[name] = clf, ds, g
    manifest.start("evaluate")
    row_names, col_names, matrix, reports = evaluate_grid(models, datasets, garbage)
    manifest.stop()
    rows = [[rname] + list(matrix[i]) for i, rname in enumerate(row_names)]
    manifest.record(write_csv(rows, ["train\\test"] + col_names, out / "matrix.csv"))
    thr_rows = [[mname, oname, rep.min_id_confidence, rep.max_ood_confidence, rep.gap,
                 rep.n_ood_misrouted, rep.n_ood_misrouted == 0]
                for (mname, oname), rep in reports.items()]
    manifest.record(write_csv(thr_rows, ["model", "ood_dataset", "min_id_conf", "max_ood_conf",
                                         "gap", "ood_misrouted", "all_routed"],
                              out / "threshold.csv"))
    manifest.write()
    return EXIT_OK


COMMANDS = {
    "train-classifier": (cmd_train_classifier, "Train an n-class classifier"),
    "invert": (cmd_invert, "Train a conditioned generator against a classifier"),
    "reconstruct": (cmd_reconstruct, "Training-like reconstruction + privacy audit"),
    "ood": (cmd_ood, "Garbage-class train/invert/exclude cycle"),
    "evaluate": (cmd_evaluate, "Cross-dataset accuracy matrix and threshold report"),
}


def build_parser():
    parser = argparse.ArgumentParser(prog="netinv")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=False, default=None)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        if name in ("invert", "reconstruct"):
            p.add_argument("--classifier", required=True)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    fn = COMMANDS[args.command][0]
    try:
        # overflow inside the tape is reported by the explicit finite checks
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(args)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"training stopped: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except NetinvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
