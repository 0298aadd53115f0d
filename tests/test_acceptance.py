"""Acceptance suite: one test per numbered criterion, desk-scale end to end.

Each test prints a single ``PASS criterion N`` line with the measured
quantities once its assertions hold.  Criteria 4-6 run real training loops
on synthetic data and take a few minutes combined; criterion 8 needs local
IDX files and skips itself when they are absent, while its code path runs
every time on tiny generated IDX files.
"""

import filecmp
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from netinv import autograd as ag
from netinv.cli import main as cli_main
from netinv.data import SynthSpec, load_idx, synth_dataset
from netinv.errors import FormatError
from netinv.inversion import (TERM_ORDER, InversionConfig, generate_samples,
                              generator_loss, train_generator)
from netinv.losses import (EPS, compose_total, cosine_diversity_loss, feature_gram,
                           kl_loss, ortho_loss, soften_onehot, tv_loss, weighted_ce_loss)
from netinv.models import (Classifier, ClassifierSpec, Generator,
                           GeneratorSpec)
from netinv.ood import (OodCycleConfig, ood_predict, ood_training_cycle,
                        uncertainty)
from netinv.privacy import privacy_score
from netinv.reconstruction import ReconConfig
from netinv.serialize import load_checkpoint, save_checkpoint
from netinv.training import accuracy, train_classifier
from conftest import grad_norm_sq_replay
from test_privacy import ssim


# ---------------------------------------------------------------------------
# criterion 1: reverse-mode gradients vs central finite differences
# ---------------------------------------------------------------------------

def _fd_grad(f, x, h=1e-6):
    """Central finite differences of scalar f at ndarray x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        old = x[i]
        x[i] = old + h
        fp = f()
        x[i] = old - h
        fm = f()
        x[i] = old
        g[i] = (fp - fm) / (2 * h)
    return g


def _graph_mlp(rng):
    x = ag.Tensor(rng.standard_normal((2, 5)), requires_grad=True)
    w1 = ag.Tensor(rng.standard_normal((5, 4)) * 0.7, requires_grad=True)
    b1 = ag.Tensor(rng.standard_normal(4) * 0.3, requires_grad=True)
    w2 = ag.Tensor(rng.standard_normal((4, 3)) * 0.7, requires_grad=True)
    labels = rng.integers(0, 3, size=2)
    weights = rng.uniform(0.5, 2.0, size=3)

    def forward():
        # the log-softmax head the subcommands run: weighted cross-entropy
        h = ag.linear(x, w1, b1, leaky=True)
        return weighted_ce_loss(ag.matmul(h, w2), labels, weights)

    return forward, [x, w1, b1, w2]


def _graph_cnn(rng):
    # [C, H, W, B]: the batch-innermost layout of the image ops
    x = ag.Tensor(rng.standard_normal((1, 2, 6, 6)).transpose(1, 2, 3, 0), requires_grad=True)
    k = ag.Tensor(rng.standard_normal((2, 2, 3, 3)) * 0.5, requires_grad=True)
    b = ag.Tensor(rng.standard_normal((1, 2, 1, 1)) * 0.3, requires_grad=True)

    def forward():
        y = ag.sigmoid(ag.conv2d(x, k, b))
        return ag.sum_(ag.square(y))

    return forward, [x, k, b]


def _graph_chain(rng):
    x = ag.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    c = ag.Tensor(rng.standard_normal((3, 4)))
    eye, zero = ag.Tensor(np.eye(4)), ag.Tensor(np.zeros(4))
    ops = [ag.square, ag.sigmoid, lambda t: ag.linear(t, eye, zero, leaky=True),
           lambda t: ag.div(ag.mul(t, 0.3), ag.add(ag.square(t), 1.0)),
           lambda t: ag.mul(t, c), lambda t: ag.add(t, c)]
    picks = [ops[i] for i in rng.integers(0, len(ops), size=int(rng.integers(3, 6)))]

    def forward():
        t = x
        for op in picks:
            t = op(t)
        return ag.div(ag.sum_(t), float(t.size))

    return forward, [x]


def test_c1_autodiff_matches_finite_differences():
    builders = (_graph_mlp, _graph_cnn, _graph_chain)
    n_graphs, worst = 102, 0.0
    for i in range(n_graphs):
        rng = np.random.default_rng(1000 + i)
        forward, leaves = builders[i % len(builders)](rng)
        out = forward()
        ad = [g.data for g in ag.grad(out, leaves)]
        for leaf, g_ad in zip(leaves, ad):
            g_fd = _fd_grad(lambda: float(forward().item()), leaf.data)
            rel = np.linalg.norm(g_ad - g_fd) / max(np.linalg.norm(g_fd), 1e-8)
            worst = max(worst, rel)
            assert rel < 1e-4, f"graph {i}: gradient relative error {rel:.2e}"

    # second-order path: d/dx of sum_theta ||d out / d theta||^2
    rng = np.random.default_rng(7)
    x = ag.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = ag.Tensor(rng.standard_normal((4, 3)) * 0.6, requires_grad=True)
    c = ag.Tensor(rng.standard_normal((3, 3)))

    def gns():
        out = ag.sum_(ag.mul(ag.linear(x, w, ag.Tensor(np.zeros(3)), leaky=True), c))
        return grad_norm_sq_replay(out, [w])

    g2_ad = ag.grad(gns(), [x])[0].data
    g2_fd = _fd_grad(lambda: float(gns().item()), x.data, h=1e-5)
    rel2 = np.linalg.norm(g2_ad - g2_fd) / max(np.linalg.norm(g2_fd), 1e-8)
    assert rel2 < 1e-3, f"second-order relative error {rel2:.2e}"
    print(f"PASS criterion 1: {n_graphs} graphs, worst first-order rel err "
          f"{worst:.2e}, second-order rel err {rel2:.2e}")


# ---------------------------------------------------------------------------
# criterion 2: uncertainty score suite
# ---------------------------------------------------------------------------

def test_c2_uncertainty_score_suite():
    for m in (2, 3, 5, 11):
        onehot = np.zeros(m)
        onehot[m // 2] = 1.0
        assert abs(uncertainty(onehot)) <= 1e-9
        assert abs(uncertainty(np.full(m, 1.0 / m)) - 1.0) <= 1e-9
        # closed-form denominator of the normalization
        k = m // 2
        num = np.sum((onehot - 1.0 / m) ** 2)
        assert abs(num - (m - 1) / m) <= 1e-12
        rng = np.random.default_rng(m)
        pts = rng.dirichlet(np.ones(m), size=100_000)
        vals = np.array([uncertainty(p) for p in pts])
        assert vals.min() >= 0.0 and vals.max() <= 1.0
        assert np.abs(uncertainty(pts) - vals).max() <= 1e-12
    assert abs(uncertainty(np.array([0.75, 0.25])) - 0.75) <= 1e-9
    print("PASS criterion 2: one-hot=0, uniform=1, bounds on 4x1e5 simplex "
          "points, hand case 0.75, denominator (m-1)/m")


# ---------------------------------------------------------------------------
# criterion 3: loss-term oracles and reduction identities
# ---------------------------------------------------------------------------

def test_c3_loss_term_oracles():
    rng = np.random.default_rng(3)
    B, m, F = 6, 4, 5
    probs = rng.dirichlet(np.ones(m), size=B)
    labels = rng.integers(0, m, size=B)
    target = soften_onehot(labels, m, 0.1, dtype=np.float64)
    logits = rng.standard_normal((B, m))
    feats = rng.standard_normal((B, F))
    images = rng.standard_normal((B, 1, 5, 5)) * 0.8 + 0.5
    cw = rng.uniform(0.5, 2.0, size=m)

    kl_want = np.mean([np.sum(target[i] * (np.log(target[i] + EPS)
                                           - np.log(probs[i] + EPS)))
                       for i in range(B)])
    assert abs(kl_loss(ag.Tensor(probs), target).item() - kl_want) <= 1e-8

    logp = logits - logits.max(axis=1, keepdims=True)
    logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
    ce_want = np.mean([cw[labels[i]] * -logp[i, labels[i]] for i in range(B)])
    assert abs(weighted_ce_loss(ag.Tensor(logits), labels, cw).item()
               - ce_want) <= 1e-8

    norm = feats / np.sqrt((feats ** 2).sum(axis=1, keepdims=True) + EPS ** 2)
    cos_want = np.mean([norm[i] @ norm[j]
                        for i in range(B) for j in range(B) if i != j])
    assert abs(cosine_diversity_loss(feature_gram(ag.Tensor(feats))).item()
               - cos_want) <= 1e-8

    ortho_want = np.sum((norm @ norm.T - np.eye(B)) ** 2)
    assert abs(ortho_loss(feature_gram(ag.Tensor(feats))).item() - ortho_want) <= 1e-8

    tv_want = 0.0
    for b in range(B):
        img = images[b, 0]
        tv_want += np.sum((img[1:, :] - img[:-1, :]) ** 2)
        tv_want += np.sum((img[:, 1:] - img[:, :-1]) ** 2)
    tv_want /= images.size
    assert abs(tv_loss(ag.Tensor(images)).item() - tv_want) <= 1e-8

    # unit class weights reduce the weighted CE to the plain CE
    plain = weighted_ce_loss(ag.Tensor(logits), labels).item()
    unit = weighted_ce_loss(ag.Tensor(logits), labels, np.ones(m)).item()
    assert abs(plain - unit) <= 1e-8

    # zeroing every reconstruction-only weight reduces the objective to the
    # four-term inversion objective on the same batch
    clf = Classifier(ClassifierSpec(classes=3), rng=np.random.default_rng(0))
    clf.freeze()
    batch = ag.Tensor(rng.random((4, 1, 12, 12)).astype(np.float32))
    blabels = np.array([0, 1, 2, 0])
    cfg = ReconConfig(alpha_pert=0.0, beta_pert=0.0, eta_var=0.0, eta_grad=0.0,
                      gamma=0.5)
    total_recon, _ = generator_loss(batch, clf, blabels, cfg,
                                    np.random.default_rng(1))
    lg, ft = clf.forward(batch)
    gram = feature_gram(ft)
    terms = {"kl": kl_loss(ag.softmax(lg), soften_onehot(blabels, 3, cfg.soften)),
             "ce": weighted_ce_loss(lg, blabels),
             "cosine": cosine_diversity_loss(gram),
             "ortho": ortho_loss(gram)}
    weights = {"kl": cfg.alpha, "ce": cfg.beta, "cosine": cfg.gamma,
               "ortho": cfg.delta}
    total_inv = compose_total(terms, weights, TERM_ORDER)
    diff = abs(total_recon.item() - total_inv.item())
    assert diff <= 1e-8 * max(1.0, abs(total_inv.item()))
    print("PASS criterion 3: five loss oracles within 1e-8; unit-weight CE and "
          "zero-extra-weight reduction identities hold")


# ---------------------------------------------------------------------------
# criterion 4: desk-scale inversion
# ---------------------------------------------------------------------------

def test_c4_desk_scale_inversion():
    train, test = synth_dataset(
        SynthSpec(family="bars", classes=3, size=12, noise=0.1, seed=42),
        600, 300)
    accs = []
    for seed in range(5):
        clf = Classifier(ClassifierSpec(classes=3),
                         rng=np.random.default_rng(seed))
        train_classifier(clf, train.images, train.labels, epochs=15,
                         rng=np.random.default_rng(1000 + seed))
        test_acc = accuracy(clf, test.images, test.labels)
        assert test_acc >= 0.95, f"seed {seed}: classifier test acc {test_acc}"
        clf.freeze()
        gen = Generator(GeneratorSpec(classes=3),
                        rng=np.random.default_rng(2000 + seed))
        cfg = InversionConfig(steps=5000, eval_every=200, eval_samples=256,
                              target_accuracy=0.95, seed=seed)
        _, inv_acc = train_generator(gen, clf, cfg,
                                     rng=np.random.default_rng(3000 + seed))
        accs.append(inv_acc)
    med = float(np.median(accs))
    assert med >= 0.90, f"median inversion accuracy {med:.3f} over seeds {accs}"
    print(f"PASS criterion 4: median inversion accuracy {med:.3f} "
          f"(per-seed {[round(a, 3) for a in accs]})")


# ---------------------------------------------------------------------------
# criterion 5: desk-scale rejection-class training cycle
# ---------------------------------------------------------------------------

def test_c5_desk_scale_ood_cycle():
    bars, bars_test = synth_dataset(
        SynthSpec(family="bars", classes=3, size=12, noise=0.1, seed=42),
        600, 300)
    crosses, _ = synth_dataset(
        SynthSpec(family="crosses", classes=3, size=12, noise=0.1, seed=77),
        200, 10)
    noise_probes = np.random.default_rng(99).random((200, 1, 12, 12)) \
        .astype(np.float32)

    def route_rate(clf, images):
        return float(np.mean([ood_predict(clf, im).is_ood for im in images]))

    monotone, finals = 0, []
    for seed in range(5):
        clf = Classifier(ClassifierSpec(classes=4),
                         rng=np.random.default_rng(seed))
        inv = InversionConfig(steps=800, eval_every=200, eval_samples=128,
                              target_accuracy=0.95, seed=seed)
        cfg = OodCycleConfig(cycles=5, epochs_per_cycle=15, garbage_init=100,
                             inversion=inv)
        rates = []
        clf, reports = ood_training_cycle(
            clf,
            lambda c: Generator(GeneratorSpec(classes=4),
                                rng=np.random.default_rng(seed * 100 + c)),
            bars, bars_test, cfg, rng=np.random.default_rng(5000 + seed),
            on_cycle=lambda rep, imgs: rates.append(route_rate(clf,
                                                               noise_probes)))
        rates.append(route_rate(clf, noise_probes))
        id_test_acc = accuracy(clf, bars_test.images, bars_test.labels)
        noise_routed = rates[-1]
        crosses_routed = route_rate(clf, crosses.images)
        assert id_test_acc >= 0.90
        assert noise_routed >= 0.80
        assert crosses_routed >= 0.60
        monotone += all(b >= a for a, b in zip(rates, rates[1:]))
        finals.append((id_test_acc, noise_routed, crosses_routed))
        last = reports[-1]
        print(f"  seed {seed}: threshold gap {last.threshold_gap:+.4f}, "
              f"{last.ood_misrouted} misrouted inverted samples (logged)")
    assert monotone >= 4, f"noise routing non-worsening in only {monotone}/5 runs"
    print(f"PASS criterion 5: 5 cycles x 5 seeds, routing non-worsening in "
          f"{monotone}/5, finals (id, noise, crosses) "
          f"{[tuple(round(v, 2) for v in f) for f in finals]}")


# ---------------------------------------------------------------------------
# criterion 6: SSIM properties and the memorization direction
# ---------------------------------------------------------------------------

def _mean_match(recon, reference):
    return privacy_score(recon, reference).mean_ssim


def _recon_mean_ssim(kind, seed, steps=1500):
    train, hold = synth_dataset(
        SynthSpec(family="blobs", classes=3, size=12, noise=0.02,
                  seed=42 + seed), 100, 100)
    clf = Classifier(ClassifierSpec(classes=3, kind=kind),
                     rng=np.random.default_rng(seed))
    train_classifier(clf, train.images, train.labels, epochs=80,
                     rng=np.random.default_rng(1000 + seed))
    clf.freeze()
    gen = Generator(GeneratorSpec(classes=3),
                    rng=np.random.default_rng(2000 + seed))
    cfg = ReconConfig(steps=steps, seed=seed)
    train_generator(gen, clf, cfg, rng=np.random.default_rng(3000 + seed))
    _, recon = generate_samples(gen, 60, np.random.default_rng(4000 + seed))
    return _mean_match(recon, train.images), _mean_match(recon, hold.images)


def test_c6_ssim_and_memorization_direction():
    rng = np.random.default_rng(6)
    a = rng.random((1, 12, 12))
    b = rng.random((1, 12, 12))
    assert abs(ssim(a, a) - 1.0) <= 1e-9
    assert abs(ssim(a, b) - ssim(b, a)) <= 1e-9

    deltas, train_ssim = [], []
    for seed in range(5):
        vs_train, vs_hold = _recon_mean_ssim("mlp", seed)
        deltas.append(vs_train - vs_hold)
        train_ssim.append(vs_train)
    med = float(np.median(deltas))
    assert med > 0.0, f"memorization direction failed: deltas {deltas}"

    # soft check on the architecture ordering of memorization scores; the
    # run is deterministic, so the seed-0 MLP score is reused from the loop
    mlp_train = train_ssim[0]
    cnn_train, _ = _recon_mean_ssim("cnn", 0, steps=600)
    verdict = "holds" if mlp_train >= cnn_train else "does NOT hold"
    print(f"PASS criterion 6: median train-vs-holdout SSIM delta {med:+.4f} "
          f"(per-seed {[round(d, 4) for d in deltas]}); soft check: "
          f"mlp {mlp_train:.3f} vs cnn {cnn_train:.3f} ordering {verdict}")


# ---------------------------------------------------------------------------
# criterion 7: persistence and determinism
# ---------------------------------------------------------------------------

_SMALL_CONF = """
seed = 11
dataset = synth
synth.family = bars
synth.classes = 3
synth.size = 12
synth.noise = 0.1
synth.train = 120
synth.test = 60
train.epochs = 4
inv.steps = 40
inv.eval_every = 20
inv.eval_samples = 32
"""


def _run(subcommand, conf, out, extra=()):
    rc = cli_main([subcommand, "--config", str(conf), "--out", str(out),
                   *extra])
    assert rc == 0, f"{subcommand} exited {rc}"


def _compare_runs(a, b):
    """Every file of two run directories byte-identical; manifests compared
    without their wall-clock timings."""
    names = sorted(p.name for p in Path(a).iterdir())
    assert names, "no comparable outputs produced"
    assert names == sorted(p.name for p in Path(b).iterdir())
    for name in names:
        if name == "manifest.json":
            ma, mb = (json.loads((Path(d) / name).read_text()) for d in (a, b))
            ma.pop("wall_clock_seconds")
            mb.pop("wall_clock_seconds")
            assert ma == mb, "manifest.json differs between identical runs"
        else:
            assert filecmp.cmp(Path(a) / name, Path(b) / name, shallow=False), \
                f"{name} differs between identical runs"
    return names


def test_c7_persistence_and_determinism(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(_SMALL_CONF)

    # checkpoint round-trip is bit-exact, and the CRC catches corruption
    clf = Classifier(ClassifierSpec(classes=3), rng=np.random.default_rng(0))
    p1, p2 = tmp_path / "a.ninv", tmp_path / "b.ninv"
    save_checkpoint(clf, p1, seed=11)
    save_checkpoint(load_checkpoint(p1)[0], p2, seed=11)
    assert p1.read_bytes() == p2.read_bytes()
    raw = bytearray(p1.read_bytes())
    raw[-5] ^= 0xFF
    (tmp_path / "bad.ninv").write_bytes(raw)
    with pytest.raises(FormatError):
        load_checkpoint(tmp_path / "bad.ninv")

    # repeated subcommands yield byte-identical CSVs and images
    t1, t2 = tmp_path / "t1", tmp_path / "t2"
    _run("train-classifier", conf, t1)
    _run("train-classifier", conf, t2)
    names = _compare_runs(t1, t2)
    i1, i2 = tmp_path / "i1", tmp_path / "i2"
    ckpt = str(t1 / "classifier.ninv")
    _run("invert", conf, i1, ("--classifier", ckpt))
    _run("invert", conf, i2, ("--classifier", ckpt))
    names += _compare_runs(i1, i2)
    print(f"PASS criterion 7: checkpoint round-trip bit-exact, CRC corruption "
          f"caught, {len(names)} repeated outputs byte-identical")


_CNN_CONF = _SMALL_CONF + """
model.kind = cnn
recon.steps = 10
recon.samples = 8
"""


def test_c7_cnn_determinism(tmp_path):
    """The CNN path (batch-innermost image ops, grad-norm penalty) repeats
    byte for byte: train-classifier then reconstruct, twice."""
    conf = tmp_path / "cnn.conf"
    conf.write_text(_CNN_CONF)
    names = []
    for run in ("1", "2"):
        _run("train-classifier", conf, tmp_path / f"t{run}")
        _run("reconstruct", conf, tmp_path / f"r{run}",
             ("--classifier", str(tmp_path / f"t{run}" / "classifier.ninv")))
    names += _compare_runs(tmp_path / "t1", tmp_path / "t2")
    names += _compare_runs(tmp_path / "r1", tmp_path / "r2")
    assert {"classifier.ninv", "metrics.csv", "privacy.csv",
            "reconstructions.pgm", "manifest.json"} <= set(names)
    print(f"PASS criterion 7 (cnn): {len(names)} repeated outputs identical")


# ---------------------------------------------------------------------------
# criterion 8: optional real-data smoke (IDX files required)
# ---------------------------------------------------------------------------

_IDX_DIR = Path(os.environ.get("NETINV_IDX_DIR", "data/idx"))
_IDX_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
    "ood_images": "fashion-t10k-images-idx3-ubyte",
    "ood_labels": "fashion-t10k-labels-idx1-ubyte",
}


def run_c8(idx_dir, limit=1000, ood_limit=500, cycles=3, epochs=10, steps=400,
           eval_every=100, eval_samples=128):
    """Criterion 8's run on the six ``_IDX_FILES`` under ``idx_dir``: an
    11-class MLP through the garbage-class cycle on the ID split, -> (its ID
    test accuracy, the share of the OOD images routed to the garbage
    class). The defaults are the criterion's budgets."""
    def load(kind, name, n):
        return load_idx(idx_dir / _IDX_FILES[f"{kind}_images"],
                        idx_dir / _IDX_FILES[f"{kind}_labels"], name=name, limit=n)

    id_train, id_test = load("train", "mnist", limit), load("test", "mnist", limit)
    ood_imgs = load("ood", "fashion", ood_limit).images
    clf = Classifier(ClassifierSpec(classes=11, in_shape=(1, 28, 28)),
                     rng=np.random.default_rng(0))
    inv = InversionConfig(steps=steps, eval_every=eval_every, eval_samples=eval_samples,
                          target_accuracy=0.9, seed=0)
    cfg = OodCycleConfig(cycles=cycles, epochs_per_cycle=epochs, garbage_init=100,
                         inversion=inv)
    clf, _ = ood_training_cycle(
        clf,
        lambda c: Generator(GeneratorSpec(classes=11, out_shape=(1, 28, 28)),
                            rng=np.random.default_rng(c)),
        id_train, id_test, cfg, rng=np.random.default_rng(5))
    id_acc = accuracy(clf, id_test.images, id_test.labels)
    routed = float(np.mean([ood_predict(clf, im).is_ood for im in ood_imgs]))
    return id_acc, routed


def test_c8_runs_on_tiny_idx_files(tmp_path):
    """The criterion's code path on random 28x28 IDX files with tiny budgets:
    it runs to the end; its numbers mean nothing beyond lying in [0, 1]."""
    rng, n = np.random.default_rng(0), 30
    for name in _IDX_FILES.values():
        if "images" in name:
            header = struct.pack(">IIII", 0x803, n, 28, 28)
            body = rng.integers(0, 256, n * 28 * 28, dtype=np.uint8).tobytes()
        else:
            header, body = struct.pack(">II", 0x801, n), bytes(i % 10 for i in range(n))
        (tmp_path / name).write_bytes(header + body)
    id_acc, routed = run_c8(tmp_path, limit=n, ood_limit=5, cycles=1, epochs=1, steps=2,
                            eval_every=2, eval_samples=8)
    assert 0.0 <= id_acc <= 1.0 and 0.0 <= routed <= 1.0


@pytest.mark.skipif(
    not all((_IDX_DIR / f).exists() for f in _IDX_FILES.values()),
    reason=f"IDX files not found under {_IDX_DIR} "
           "(set NETINV_IDX_DIR to enable the real-data smoke test)")
def test_c8_real_idx_smoke():
    id_acc, routed = run_c8(_IDX_DIR)
    assert id_acc >= 0.85
    assert routed >= 0.70
    print(f"PASS criterion 8: ID test accuracy {id_acc:.3f}, "
          f"{routed:.2f} of fashion probes routed to garbage")
