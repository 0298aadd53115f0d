import itertools
import json
import re
import struct
import warnings
import zlib
from functools import partial
from operator import attrgetter

import numpy as np
import pytest

from netinv.cli import main
from netinv.config import CHOICES, DEFAULTS, MINIMUMS, RANGES, derive_seed, parse_config
from netinv.errors import ConfigError
from netinv.inversion import InversionConfig
from netinv.models import Generator, GeneratorSpec
from netinv.ood import OodCycleConfig
from netinv.reconstruction import ReconConfig
from netinv.serialize import load_checkpoint, save_checkpoint


def write_conf(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# config field -> the key the CLI fills it from
INV_KEYS = {"alpha": "inv.alpha", "beta": "inv.beta", "gamma": "inv.gamma",
            "delta": "inv.delta", "batch_size": "inv.batch", "steps": "inv.steps",
            "lr": "inv.lr", "soften": "inv.soften", "target_accuracy": "inv.target_accuracy",
            "eval_every": "inv.eval_every", "eval_samples": "inv.eval_samples"}
RECON_KEYS = {"gamma": "recon.gamma", "steps": "recon.steps",
              "alpha_pert": "recon.alpha_pert", "beta_pert": "recon.beta_pert",
              "eta_var": "recon.eta_var", "eta_pix": "recon.eta_pix",
              "eta_grad": "recon.eta_grad", "eps_pert": "recon.eps_pert"}
# cmd_ood: the nested inversion config, which has no library default, takes
# the inv.* keys but ood.inv_steps
OOD_KEYS = {"cycles": "ood.cycles", "epochs_per_cycle": "ood.epochs",
            "batch_size": "train.batch", "lr": "train.lr", "optimizer": "train.optimizer",
            "garbage_init": "ood.garbage_init",
            "budget": "ood.budget", "capacity_factor": "ood.capacity_factor"}


class TestConfig:
    def test_defaults_materialized(self):
        values = parse_config(None)
        assert values == DEFAULTS

    def test_unknown_keys_listed_together(self, tmp_path):
        conf = write_conf(tmp_path, "bogus = 1\nalso.bad = 2\nsynth.noise = oops\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(conf)
        msg = str(exc.value)
        assert "bogus" in msg and "also.bad" in msg and "synth.noise" in msg

    def test_bad_choices_listed_together(self, tmp_path):
        conf = write_conf(tmp_path, "model.kind = foo\nsynth.family = bar\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(conf)
        msg = str(exc.value)
        assert "model.kind" in msg and "synth.family" in msg

    def test_counts_below_minimum_listed_together(self, tmp_path):
        conf = write_conf(tmp_path, "".join(f"{k} = {low - 1}\n" for k, low in MINIMUMS.items()))
        with pytest.raises(ConfigError) as exc:
            parse_config(conf)
        assert [k for k in MINIMUMS if repr(k) not in str(exc.value)] == []
        conf = write_conf(tmp_path, "".join(f"{k} = {low}\n" for k, low in MINIMUMS.items()))
        assert all(parse_config(conf)[k] == low for k, low in MINIMUMS.items())

    def test_comments_and_blanks(self, tmp_path):
        conf = write_conf(tmp_path, "# a comment\n\nsynth.classes = 4  # inline\n")
        assert parse_config(conf)["synth.classes"] == 4

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/run.conf")

    @pytest.mark.parametrize("config, keys", [
        (InversionConfig, INV_KEYS),
        # cmd_reconstruct: the inv.* keys under the recon.* ones, no accuracy target
        (ReconConfig, {**{f: k for f, k in INV_KEYS.items() if f != "target_accuracy"},
                       **RECON_KEYS}),
        (partial(OodCycleConfig, inversion=None), OOD_KEYS),
    ], ids=["InversionConfig", "ReconConfig", "OodCycleConfig"])
    def test_library_defaults_are_the_cli_key_defaults(self, config, keys):
        lib = config()
        assert {f: attrgetter(f)(lib) for f in keys} == {f: DEFAULTS[k] for f, k in keys.items()}

    def test_phase_seeds_differ(self):
        assert derive_seed(0, "a") != derive_seed(0, "b")
        assert derive_seed(0, "a") == derive_seed(0, "a")

    def test_byte_order_mark_is_dropped(self, tmp_path):
        """A config some editor saved with a UTF-8 byte-order mark runs like
        the same file without it."""
        text = "seed = 1\n" + TINY_RUN
        plain = tmp_path / "plain.conf"
        plain.write_bytes(text.encode())
        marked = tmp_path / "bom.conf"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        for conf in (plain, marked):
            assert main(["train-classifier", "--config", str(conf),
                         "--out", str(tmp_path / conf.stem)]) == 0
        resolved = (tmp_path / "bom" / "resolved.conf").read_bytes()
        assert resolved == (tmp_path / "plain" / "resolved.conf").read_bytes()
        assert b"seed = 1\n" in resolved


TINY_RUN = """
synth.train = 30
synth.test = 15
train.epochs = 1
inv.batch = 4
inv.steps = 2
inv.eval_every = 2
inv.eval_samples = 4
recon.steps = 2
recon.samples = 2
ood.cycles = 1
ood.epochs = 1
ood.inv_steps = 2
ood.garbage_init = 3
"""


def write_idx(tmp_path, n=6, size=12):
    """Tiny IDX image and label files for both splits; -> their config lines."""
    rng = np.random.default_rng(0)
    lines = "dataset = idx\nidx.limit = 5\n"
    for split in ("train", "test"):
        images, labels = tmp_path / f"{split}-images.idx", tmp_path / f"{split}-labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, n, size, size)
                           + rng.integers(0, 256, n * size * size, dtype=np.uint8).tobytes())
        labels.write_bytes(struct.pack(">II", 0x801, n) + bytes(i % 3 for i in range(n)))
        lines += f"idx.{split}_images = {images}\nidx.{split}_labels = {labels}\n"
    return lines


FAST_TRAIN = """
synth.train = 200
synth.test = 100
train.epochs = 8
"""

FAST_INVERT = FAST_TRAIN + """
inv.steps = 120
inv.eval_every = 60
inv.eval_samples = 64
inv.target_accuracy = 2.0
"""


class TestTrainClassifier:
    def test_end_to_end(self, tmp_path):
        conf = write_conf(tmp_path, FAST_TRAIN)
        out = tmp_path / "run"
        assert main(["train-classifier", "--config", conf, "--out", str(out)]) == 0
        assert (out / "classifier.ninv").exists()
        assert (out / "metrics.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["test_accuracy"] >= 0.9
        resolved = (out / "resolved.conf").read_text()
        for key in DEFAULTS:
            assert key in resolved

    def test_same_seed_identical_outputs(self, tmp_path):
        conf = write_conf(tmp_path, FAST_TRAIN)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["train-classifier", "--config", conf, "--out", str(out_a), "--seed", "5"])
        main(["train-classifier", "--config", conf, "--out", str(out_b), "--seed", "5"])
        assert (out_a / "classifier.ninv").read_bytes() == (out_b / "classifier.ninv").read_bytes()
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()

    def test_bad_config_exit_code(self, tmp_path):
        conf = write_conf(tmp_path, "nope = 1\n")
        assert main(["train-classifier", "--config", conf,
                     "--out", str(tmp_path / "x")]) == 2

    def test_missing_idx_paths(self, tmp_path):
        conf = write_conf(tmp_path, "dataset = idx\n")
        assert main(["train-classifier", "--config", conf,
                     "--out", str(tmp_path / "x")]) == 2


@pytest.fixture(scope="module")
def classifier_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("clf")
    conf = write_conf(tmp, FAST_TRAIN)
    out = tmp / "run"
    assert main(["train-classifier", "--config", conf, "--out", str(out)]) == 0
    return out / "classifier.ninv"


@pytest.fixture(scope="module")
def ood_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ood")
    conf = write_conf(tmp, FAST_TRAIN + "ood.cycles = 0\nood.epochs = 5\n"
                      "ood.garbage_init = 40\n")
    out = tmp / "run"
    assert main(["ood", "--config", conf, "--out", str(out)]) == 0
    return out / "ood_classifier.ninv"


@pytest.fixture(scope="module")
def crosses_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("crosses")
    conf = write_conf(tmp, FAST_TRAIN + "synth.family = crosses\n")
    out = tmp / "run"
    assert main(["train-classifier", "--config", conf, "--out", str(out)]) == 0
    return out / "classifier.ninv"


class TestInvert:
    def test_end_to_end(self, tmp_path, classifier_run):
        conf = write_conf(tmp_path, FAST_INVERT)
        out = tmp_path / "inv"
        assert main(["invert", "--config", conf, "--out", str(out),
                     "--classifier", str(classifier_run)]) == 0
        assert (out / "generator.ninv").exists()
        loss_lines = (out / "inversion_loss.csv").read_text().splitlines()
        header = loss_lines[0].split(",")
        for row in loss_lines[1:5]:
            vals = row.split(",")
            terms = dict(zip(header, vals))
            want = (float(terms["kl"]) + float(terms["ce"])
                    + 0.5 * float(terms["cosine"]) + 0.1 * float(terms["ortho"]))
            assert float(terms["total"]) == pytest.approx(want, rel=1e-5)
        for k in range(3):
            assert (out / f"samples_class{k}.pgm").exists()

    @pytest.mark.parametrize("target, reason, steps_run",
                             [(0.0, "target", 2), (2.0, "budget", 6)])
    def test_manifest_records_why_inversion_stopped(self, tmp_path, classifier_run,
                                                    target, reason, steps_run):
        conf = write_conf(tmp_path, FAST_TRAIN + "inv.steps = 6\ninv.eval_every = 2\n"
                          f"inv.eval_samples = 8\ninv.target_accuracy = {target}\n")
        out = tmp_path / "inv"
        assert main(["invert", "--config", conf, "--out", str(out),
                     "--classifier", str(classifier_run)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["stop_reason"], manifest["steps_run"]) == (reason, steps_run)
        rows = (out / "inversion_loss.csv").read_text().splitlines()[1:]
        assert len(rows) == steps_run

    def test_diversity_terms_disabled(self, tmp_path, classifier_run):
        conf = write_conf(tmp_path, FAST_INVERT + "inv.gamma = 0\ninv.delta = 0\n")
        out = tmp_path / "inv0"
        assert main(["invert", "--config", conf, "--out", str(out),
                     "--classifier", str(classifier_run)]) == 0


class TestReconstruct:
    def test_privacy_csv_pairs_train_and_holdout_matches(self, tmp_path, classifier_run):
        conf = write_conf(tmp_path, FAST_TRAIN + "recon.steps = 2\nrecon.samples = 3\n")
        out = tmp_path / "rec"
        assert main(["reconstruct", "--config", conf, "--out", str(out),
                     "--classifier", str(classifier_run)]) == 0
        header, *rows = [line.split(",") for line in
                         (out / "privacy.csv").read_text().splitlines()]
        assert header == ["recon_id", "match_id", "ssim", "holdout_match_id",
                          "holdout_ssim", "delta"]
        *pairs, mean = rows
        assert [row[0] for row in pairs] == ["0", "1", "2"]
        for _, match, score, holdout_match, holdout_score, delta in pairs:
            assert 0 <= int(match) < 200 and 0 <= int(holdout_match) < 100
            # every field is written to 9 significant digits
            assert float(delta) == pytest.approx(float(score) - float(holdout_score),
                                                 rel=0, abs=1e-8)
        assert mean[0] == "mean" and mean[1] == mean[3] == ""
        manifest = json.loads((out / "manifest.json").read_text())
        for col, key in ((2, "mean_max_ssim_train"), (4, "mean_max_ssim_holdout")):
            assert float(mean[col]) == pytest.approx(manifest[key], rel=1e-8)
        assert float(mean[5]) == pytest.approx(np.mean([float(r[5]) for r in pairs]),
                                               rel=0, abs=1e-8)


RECON_SWEEP = """
synth.train = 12
synth.test = 6
train.epochs = 1
recon.steps = 2
recon.samples = 2
"""
# recon.* key -> a second valid value, for the sweep below
RECON_VALUES = {"recon.alpha_pert": 2.0, "recon.beta_pert": 2.0, "recon.gamma": 1.0,
                "recon.eta_var": 1.0, "recon.eta_pix": 50.0, "recon.eta_grad": 1.0,
                "recon.eps_pert": 0.5, "recon.steps": 3, "recon.samples": 3,
                "recon.cond_mode": "hidden"}
# recon.* keys that move no output, with the reason each is kept
RECON_INERT = {
    "recon.eta_pix": "weights no term, as the generator's sigmoid keeps pixels in "
                     "[0, 1]; perfbench reads it until ReconConfig goes (ROADMAP 2)",
}


@pytest.fixture(scope="module")
def reconstruct_with(tmp_path_factory):
    """-> run(line): the bytes of ``reconstruct``'s privacy.csv and
    reconstructions.pgm with ``line`` added to a tiny config, all runs
    against one classifier trained on it."""
    tmp = tmp_path_factory.mktemp("sweep")
    assert main(["train-classifier", "--config", write_conf(tmp, RECON_SWEEP),
                 "--out", str(tmp / "clf")]) == 0
    runs = itertools.count()

    def run(line=""):
        out = tmp / f"rec{next(runs)}"
        conf = write_conf(tmp, RECON_SWEEP + line, name=f"{out.name}.conf")
        assert main(["reconstruct", "--config", conf, "--out", str(out),
                     "--classifier", str(tmp / "clf" / "classifier.ninv")]) == 0
        return [(out / name).read_bytes() for name in ("privacy.csv", "reconstructions.pgm")]

    return run


@pytest.mark.parametrize("key", sorted(k for k in DEFAULTS if k.startswith("recon.")))
def test_each_recon_key_moves_the_reconstruction(reconstruct_with, key):
    """Changing one recon.* key alone changes an output byte, unless the key
    is on the inert list; an inert key that moves the output leaves it."""
    assert key in RECON_VALUES, f"give {key} a second value to sweep"
    moved = reconstruct_with(f"{key} = {RECON_VALUES[key]}\n") != reconstruct_with()
    assert moved == (key not in RECON_INERT)


class TestRejectedRuns:
    @pytest.mark.parametrize("key", sorted(MINIMUMS))
    def test_count_below_minimum_exits_two_without_traceback(self, tmp_path, capsys,
                                                             classifier_run, key):
        conf = write_conf(tmp_path, FAST_INVERT + f"{key} = {MINIMUMS[key] - 1}\n")
        assert main(["invert", "--config", conf, "--out", str(tmp_path / "x"),
                     "--classifier", str(classifier_run)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err and "Traceback" not in err

    @pytest.mark.parametrize("key, raw", [
        *[(key, raw) for key in sorted(RANGES) for raw in ("nan", "-0.5", "inf")],
        ("synth.noise", "1.0"), ("gen.dropout", "1.0"), ("inv.soften", "1.5"),
        ("train.lr", "0"), ("inv.lr", "0"),
        ("gen.hidden", "0,5"), ("gen.hidden", "128,"), ("gen.hidden", "wide"),
    ])
    def test_value_out_of_range_exits_two_without_traceback(self, tmp_path, capsys,
                                                            classifier_run, key, raw):
        conf = write_conf(tmp_path, FAST_INVERT + f"{key} = {raw}\n")
        assert main(["invert", "--config", conf, "--out", str(tmp_path / "x"),
                     "--classifier", str(classifier_run)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err and "Traceback" not in err

    @pytest.mark.parametrize("key", sorted(CHOICES))
    def test_bad_choice_exits_two_without_traceback(self, tmp_path, capsys, key):
        conf = write_conf(tmp_path, f"{key} = foo\n")
        assert main(["train-classifier", "--config", conf, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err and "Traceback" not in err

    def test_config_not_utf8_exits_two_without_traceback(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_bytes(b"seed = 1\n\xff\xfe bad\n")
        assert main(["train-classifier", "--config", str(conf),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(conf) in err and "Traceback" not in err

    def test_corrupt_classifier_exits_one_without_traceback(self, tmp_path, capsys,
                                                            classifier_run):
        payload = bytearray(classifier_run.read_bytes()[:-4])
        payload[12] = 0xFF          # first descriptor byte, no longer UTF-8
        bad = tmp_path / "bad.ninv"
        bad.write_bytes(bytes(payload) + struct.pack("<I", zlib.crc32(payload)))
        conf = write_conf(tmp_path, FAST_INVERT)
        assert main(["invert", "--config", conf, "--out", str(tmp_path / "x"),
                     "--classifier", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("command, text", [
        pytest.param("invert", "gen.cond_dim = 2\n", id="invert-cond-dim"),
        pytest.param("ood", "gen.cond_dim = 2\n", id="ood-cond-dim"),
        pytest.param("reconstruct", "recon.beta_pert = -1\n", id="beta-pert"),
        pytest.param("invert", "inv.alpha = -1\n", id="alpha"),
        pytest.param("reconstruct", "recon.eps_pert = 2\n", id="eps-pert"),
        pytest.param("train-classifier", "model.kind = cnn\nsynth.size = 10\n", id="cnn-size"),
        pytest.param("ood", "model.kind = cnn\nsynth.size = 10\n", id="ood-cnn-size"),
        # at 11 classes, classes 9 and 10 of the 12x12 crosses draw one template
        pytest.param("train-classifier", "synth.family = crosses\nsynth.classes = 11\n",
                     id="synth-classes"),
        pytest.param("ood", "synth.family = crosses\nsynth.classes = 11\n",
                     id="ood-synth-classes"),
        # the classifier was trained on 12x12 images
        pytest.param("reconstruct", "synth.size = 16\n", id="recon-shape-mismatch"),
    ])
    def test_value_a_spec_rejects_exits_two_before_any_work(self, tmp_path, capsys,
                                                            classifier_run, command, text):
        conf = write_conf(tmp_path, FAST_INVERT + text)
        out = tmp_path / "x"
        extra = [] if command in ("train-classifier", "ood") else ["--classifier",
                                                                   str(classifier_run)]
        assert main([command, "--config", conf, "--out", str(out), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["resolved.conf"]

    @pytest.mark.parametrize("command, text, key", [
        pytest.param("train-classifier", "synth.train = 2\n", "synth.train",
                     id="train-classifier"),
        pytest.param("reconstruct", "synth.test = 2\n", "synth.test", id="reconstruct"),
        pytest.param("ood", "synth.train = 2\n", "synth.train", id="ood"),
        pytest.param("evaluate", "synth.test = 2\neval.pairs = bars={ckpt}\n", "synth.test",
                     id="evaluate"),
    ])
    def test_split_below_class_count_exits_two_before_any_work(self, tmp_path, capsys,
                                                               classifier_run, command,
                                                               text, key):
        conf = write_conf(tmp_path, FAST_INVERT + text.format(ckpt=classifier_run))
        out = tmp_path / "x"
        extra = ["--classifier", str(classifier_run)] if command == "reconstruct" else []
        assert main([command, "--config", conf, "--out", str(out), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(key) in err
        assert "synth.classes = 3" in err and "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["resolved.conf"]

    @pytest.mark.parametrize("argv", [
        pytest.param(["invert", "--config", "{conf}", "--out", "{out}", "--classifier", "{dir}"],
                     id="invert-classifier-directory"),
        pytest.param(["train-classifier", "--config", "{dir}", "--out", "{out}"],
                     id="train-classifier-config-directory"),
        pytest.param(["train-classifier", "--config", "{conf}", "--out", "{file}"],
                     id="train-classifier-out-existing-file"),
    ])
    def test_os_error_exits_two_without_traceback(self, tmp_path, capsys, argv):
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("")
        paths = {"conf": write_conf(tmp_path, FAST_INVERT), "out": tmp_path / "x",
                 "dir": tmp_path / "dir", "file": tmp_path / "file"}
        assert main([a.format(**paths) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("blocked", ["samples_class0.pgm", "inversion_loss.csv",
                                         "generator.ninv"], ids=["grid", "csv", "checkpoint"])
    def test_failed_write_exits_two_without_traceback(self, tmp_path, capsys, classifier_run,
                                                      blocked):
        """An output file the run cannot write, here because a directory holds
        its name, is an OS error like any other: exit 2, no manifest."""
        out = tmp_path / "x"
        (out / blocked).mkdir(parents=True)
        conf = write_conf(tmp_path, TINY_RUN)
        assert main(["invert", "--config", conf, "--out", str(out),
                     "--classifier", str(classifier_run)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and blocked in err and "Traceback" not in err
        assert not (out / "manifest.json").exists()

    def test_split_sizes_are_not_checked_for_idx_data(self, tmp_path, capsys):
        conf = write_conf(tmp_path, "dataset = idx\nsynth.train = 1\n")
        assert main(["train-classifier", "--config", conf, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "missing IDX paths" in err and "synth.train" not in err

    def test_empty_garbage_seed_exits_two_at_parse_time(self, tmp_path, capsys):
        conf = write_conf(tmp_path, FAST_TRAIN + "ood.garbage_init = 0\n")
        out = tmp_path / "x"
        assert main(["ood", "--config", conf, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'ood.garbage_init'" in err
        assert not out.exists()

    @pytest.mark.parametrize("factor, init", [(0, 40), (1, 200)],
                             ids=["zero-factor", "capacity-equals-garbage-init"])
    def test_garbage_capacity_no_inverted_sample_survives_exits_two(self, tmp_path, capsys,
                                                                   factor, init):
        # synth.train = 200: a capacity of at most garbage_init evicts every
        # inverted sample as soon as it is added
        conf = write_conf(tmp_path, FAST_TRAIN + f"ood.capacity_factor = {factor}\n"
                          f"ood.garbage_init = {init}\n")
        out = tmp_path / "x"
        assert main(["ood", "--config", conf, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'ood.capacity_factor'" in err
        assert factor == 0 or "'ood.garbage_init'" in err
        assert not list(out.glob("inverted_cycle*")) and not (out / "cycles.csv").exists()

    def test_reconstruct_below_ssim_window_exits_two_before_training(self, tmp_path, capsys):
        conf = write_conf(tmp_path, FAST_TRAIN + "synth.size = 4\ntrain.epochs = 1\n")
        assert main(["train-classifier", "--config", conf, "--out", str(tmp_path / "c")]) == 0
        out = tmp_path / "x"
        assert main(["reconstruct", "--config", conf, "--out", str(out), "--classifier",
                     str(tmp_path / "c" / "classifier.ninv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "7x7" in err
        assert not (out / "privacy.csv").exists()

    @pytest.mark.parametrize("command, text, message", [
        pytest.param("train-classifier", "", "non-finite loss", id="train-classifier"),
        pytest.param("invert", "", "non-finite loss", id="invert"),
        pytest.param("reconstruct", "", "non-finite loss", id="reconstruct"),
        # one minibatch in all: the only loss is finite, the step after it is not
        pytest.param("train-classifier", "synth.train = 60\ntrain.epochs = 1\n",
                     "non-finite classifier output", id="train-classifier-last-step"),
        # one generator step: its loss is finite, the images after it are not
        pytest.param("reconstruct", "recon.steps = 1\n", "non-finite reconstructions",
                     id="reconstruct-last-step"),
    ])
    def test_non_finite_loss_exits_three(self, tmp_path, capsys, classifier_run, command,
                                         text, message):
        conf = write_conf(tmp_path, FAST_INVERT + "train.lr = 1e30\ninv.lr = 1e30\n"
                          "recon.steps = 20\n" + text)
        out = tmp_path / "x"
        extra = [] if command == "train-classifier" else ["--classifier", str(classifier_run)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", conf, "--out", str(out), *extra]) == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err and "RuntimeWarning" not in err
        assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []
        # nothing but the resolved config: no checkpoint, privacy.csv or grid
        assert [p.name for p in out.iterdir()] == ["resolved.conf"]
        if message == "non-finite loss" and command != "train-classifier":
            assert re.search(r"step \d+: ", err)


class TestOod:
    def test_cycles_zero_baseline(self, tmp_path):
        conf = write_conf(tmp_path, FAST_TRAIN + "ood.cycles = 0\nood.epochs = 5\n"
                          "ood.garbage_init = 40\n")
        out = tmp_path / "ood0"
        assert main(["ood", "--config", conf, "--out", str(out)]) == 0
        assert (out / "ood_classifier.ninv").exists()
        assert (out / "cycles.csv").read_text().count("\n") == 1  # header only

    def test_train_optimizer_reaches_the_cycle(self, tmp_path, monkeypatch):
        from netinv import training
        kinds = []
        real = training.make_optimizer

        def recording(params, kind="adam", **kw):
            kinds.append(kind)
            return real(params, kind, **kw)

        monkeypatch.setattr(training, "make_optimizer", recording)
        conf = write_conf(tmp_path, TINY_RUN + "train.optimizer = sgd\n")
        assert main(["ood", "--config", conf, "--out", str(tmp_path / "ood")]) == 0
        assert kinds == ["sgd", "sgd"]      # cycle 1, then the final retraining

    def test_budget_arithmetic_in_csv(self, tmp_path):
        conf = write_conf(tmp_path, FAST_TRAIN + """
ood.cycles = 2
ood.epochs = 4
ood.garbage_init = 30
ood.budget = 25
ood.inv_steps = 60
inv.eval_every = 1000
inv.eval_samples = 64
""")
        out = tmp_path / "ood2"
        assert main(["ood", "--config", conf, "--out", str(out)]) == 0
        lines = (out / "cycles.csv").read_text().splitlines()
        sizes = [int(l.split(",")[4]) for l in lines[1:]]
        assert sizes == [30 + 25, 30 + 50]
        assert (out / "inverted_cycle1.pgm").exists()
        assert (out / "inverted_cycle2.pgm").exists()


class TestEvaluate:
    def test_single_model_matrix(self, tmp_path, classifier_run):
        conf = write_conf(tmp_path, FAST_TRAIN +
                          f"eval.pairs = bars={classifier_run}\n")
        out = tmp_path / "eval"
        assert main(["evaluate", "--config", conf, "--out", str(out)]) == 0
        lines = (out / "matrix.csv").read_text().splitlines()
        assert len(lines) == 2
        val = float(lines[1].split(",")[1])
        assert 0.0 <= val <= 1.0

    def test_two_dataset_grid_and_threshold(self, tmp_path, classifier_run, crosses_run):
        # plain classifiers have no garbage class: no routing cells, no threshold rows
        conf = write_conf(tmp_path, FAST_TRAIN +
                          f"eval.pairs = bars={classifier_run},crosses={crosses_run}\n")
        out = tmp_path / "eval2"
        assert main(["evaluate", "--config", conf, "--out", str(out)]) == 0
        matrix_lines = (out / "matrix.csv").read_text().splitlines()
        assert matrix_lines[0] == "train\\test,bars,crosses"
        assert matrix_lines[1].split(",")[2] == "nan"
        assert matrix_lines[2].split(",")[1] == "nan"
        assert float(matrix_lines[1].split(",")[1]) >= 0.9
        assert float(matrix_lines[2].split(",")[2]) >= 0.9
        thr_lines = (out / "threshold.csv").read_text().splitlines()
        assert thr_lines == ["model,ood_dataset,min_id_conf,max_ood_conf,gap,"
                             "ood_misrouted,all_routed"]

    def test_garbage_class_from_ood_checkpoint(self, tmp_path, ood_run, crosses_run):
        conf = write_conf(tmp_path, FAST_TRAIN +
                          f"eval.pairs = bars={ood_run},crosses={crosses_run}\n")
        out = tmp_path / "eval"
        assert main(["evaluate", "--config", conf, "--out", str(out)]) == 0
        matrix_lines = (out / "matrix.csv").read_text().splitlines()
        assert 0.0 <= float(matrix_lines[1].split(",")[2]) <= 1.0   # routed to class 3
        assert matrix_lines[2].split(",")[1] == "nan"
        thr_lines = (out / "threshold.csv").read_text().splitlines()
        assert len(thr_lines) == 2 and thr_lines[1].startswith("bars,crosses,")

    def test_train_split_size_does_not_gate_evaluate(self, tmp_path, ood_run, crosses_run):
        pairs = f"eval.pairs = bars={ood_run},crosses={crosses_run}\n"
        outs = []
        for name, extra in (("default", ""), ("small", "synth.train = 2\n")):
            conf = write_conf(tmp_path, FAST_TRAIN + extra + pairs, name=f"{name}.conf")
            outs.append(tmp_path / name)
            assert main(["evaluate", "--config", conf, "--out", str(outs[-1])]) == 0
        for name in ("matrix.csv", "threshold.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert len((outs[1] / "threshold.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("extra", ["synth.size = 16\n", "synth.channels = 3\n",
                                       "synth.classes = 4\n", "garbage_class"])
    def test_mismatched_checkpoint_exits_two_before_scoring(self, tmp_path, capsys,
                                                            classifier_run, extra):
        ckpt = classifier_run
        if extra == "garbage_class":
            ckpt = tmp_path / "relabelled.ninv"
            save_checkpoint(load_checkpoint(classifier_run)[0], ckpt,
                            meta={"garbage_class": 0})
            extra = ""
        conf = write_conf(tmp_path, FAST_TRAIN + extra + f"eval.pairs = bars={ckpt}\n")
        out = tmp_path / "x"
        assert main(["evaluate", "--config", conf, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "eval.pairs entry bars=" in err
        assert not (out / "matrix.csv").exists()

    @pytest.mark.parametrize("entry", ["foo={ckpt}", "bars", "bars=", "bars={ckpt},=x",
                                       "bars={ckpt},bars={ckpt}"],
                             ids=["unknown-name", "no-path", "empty-path", "empty-name",
                                  "duplicate-name"])
    def test_bad_pair_exits_two_without_traceback(self, tmp_path, capsys, classifier_run,
                                                  entry):
        conf = write_conf(tmp_path, FAST_TRAIN +
                          f"eval.pairs = {entry.format(ckpt=classifier_run)}\n")
        out = tmp_path / "x"
        assert main(["evaluate", "--config", conf, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "eval.pairs" in err
        assert "Traceback" not in err and not out.exists()

    def test_generator_checkpoint_exits_two(self, tmp_path, capsys):
        gen = tmp_path / "gen.ninv"
        save_checkpoint(Generator(GeneratorSpec(), rng=np.random.default_rng(0)), gen)
        conf = write_conf(tmp_path, FAST_TRAIN + f"eval.pairs = bars={gen}\n")
        assert main(["evaluate", "--config", conf, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "not a classifier checkpoint" in err

    def test_empty_pairs_rejected(self, tmp_path):
        conf = write_conf(tmp_path, "")
        assert main(["evaluate", "--config", conf, "--out", str(tmp_path / "x")]) == 2
