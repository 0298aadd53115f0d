import gc

import numpy as np
import pytest

from netinv import autograd as ag
from netinv import losses
from netinv.errors import ContractError, DomainError
from netinv.inversion import (InversionConfig, generate_samples, inversion_accuracy,
                              inversion_step, train_generator)
from netinv.models import Classifier, ClassifierSpec, Generator, GeneratorSpec
from netinv.optim import make_optimizer
from netinv.reconstruction import ReconConfig
from netinv.training import train_classifier
from conftest import grad_norm_sq_replay


def small_gen(classes=3, seed=0):
    return Generator(GeneratorSpec(classes=classes, hidden=(64, 64), z_dim=16),
                     rng=np.random.default_rng(seed))


def step(gen, clf, cfg, rng):
    return inversion_step(gen, clf, cfg, rng,
                          make_optimizer(gen.parameters(), cfg.optimizer, lr=cfg.lr))


class TestInversionStep:
    def test_requires_frozen_classifier(self, trained_mlp):
        trained_mlp.frozen = False
        gen = small_gen()
        with pytest.raises(ContractError):
            step(gen, trained_mlp, InversionConfig(), np.random.default_rng(0))
        trained_mlp.freeze()

    def test_zero_weights_leave_parameters_unchanged(self, trained_mlp):
        trained_mlp.freeze()
        gen = small_gen()
        before = [p.data.copy() for p in gen.parameters()]
        cfg = InversionConfig(alpha=0, beta=0, gamma=0, delta=0)
        breakdown = step(gen, trained_mlp, cfg, np.random.default_rng(1))
        assert breakdown.total == 0.0
        for p, b in zip(gen.parameters(), before):
            np.testing.assert_array_equal(p.data, b)

    def test_classifier_bitwise_unchanged(self, trained_mlp):
        trained_mlp.freeze()
        gen = small_gen()
        before = [p.data.copy() for p in trained_mlp.parameters()]
        cfg = InversionConfig(steps=1)
        for _ in range(5):
            step(gen, trained_mlp, cfg, np.random.default_rng(2))
        for p, b in zip(trained_mlp.parameters(), before):
            np.testing.assert_array_equal(p.data, b)

    def test_breakdown_total_is_weighted_sum(self, trained_mlp):
        trained_mlp.freeze()
        breakdown = step(small_gen(), trained_mlp, InversionConfig(), np.random.default_rng(3))
        breakdown.check()          # raises on violation

    def test_batch_size_one_rejected(self):
        with pytest.raises(DomainError):
            InversionConfig(batch_size=1)

    def test_zero_steps_rejected(self):
        """A run takes at least one step, so its last step is the one that
        evaluates."""
        with pytest.raises(DomainError, match="steps"):
            InversionConfig(steps=0)


class TestInversionAccuracy:
    def test_untrained_generator_near_chance(self, trained_mlp):
        trained_mlp.freeze()
        gen = small_gen(seed=5)
        acc = inversion_accuracy(gen, trained_mlp, 1000, np.random.default_rng(4))
        assert abs(acc - 1 / 3) <= 0.1

    def test_degenerate_generator_conditioned_on_true_class(self, trained_mlp, bars_data):
        # a generator that emits a memorized class-k image for condition k scores 1.0
        train, _ = bars_data
        trained_mlp.freeze()
        imgs = np.stack([train.images[train.labels == k][0] for k in range(3)])
        gen = small_gen(seed=6)

        class Memorized:
            spec = gen.spec

            def sample(self, z, labels):
                return imgs[labels]

        acc = inversion_accuracy(Memorized(), trained_mlp, 100, np.random.default_rng(7))
        assert acc == 1.0

    def test_uniform_conditioning_chance_level(self, trained_mlp, bars_data):
        # constant-output generator: exactly one conditioning class matches
        train, _ = bars_data
        trained_mlp.freeze()
        img = train.images[0]
        gen = small_gen(seed=8)

        class Constant:
            spec = gen.spec

            def sample(self, z, labels):
                return np.repeat(img[None], z.shape[0], axis=0)

        acc = inversion_accuracy(Constant(), trained_mlp, 1000, np.random.default_rng(9))
        assert abs(acc - 1 / 3) <= 0.1


class TestGenerateSamples:
    @pytest.mark.parametrize("count", [0, -1])
    def test_no_sample_rejected_before_any_draw(self, count, trained_mlp):
        rng = np.random.default_rng(10)
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match="at least one sample"):
            generate_samples(small_gen(), count, rng)
        with pytest.raises(DomainError, match="at least one sample"):
            inversion_accuracy(small_gen(), trained_mlp, count, rng)
        assert rng.bit_generator.state == state


class TestEndToEnd:
    def test_loss_decreases(self, trained_mlp):
        trained_mlp.freeze()
        finals, initials = [], []
        for seed in range(5):
            gen = small_gen(seed=100 + seed)
            cfg = InversionConfig(steps=500, eval_every=10000, batch_size=16,
                                  seed=seed)
            history, _ = train_generator(gen, trained_mlp, cfg,
                                         rng=np.random.default_rng(seed))
            initials.append(history[0][1].total)
            finals.append(history[-1][1].total)
        assert np.median(finals) < np.median(initials)


def _kl_of_normalized(h):
    """KL over the rows of ``h * h`` scaled to sum to one: no other guarded op runs."""
    target = losses.soften_onehot(np.arange(len(h.data)) % 3, 3)
    sq = ag.square(h)
    return losses.kl_loss(ag.div(sq, ag.sum_(sq, axis=1, keepdims=True)), target)


_UP = np.random.default_rng(40).normal(size=(4, 3)).astype(np.float32)
# op -> (forward, the input adjoint's closed form on the forward's output and
# the output adjoint, in that formula's op order)
_OUTPUT_OPS = {
    "sigmoid": (ag.sigmoid, lambda out, g: g * (out * (1 - out))),
    # sum_ accumulates in 64-bit and casts back
    "softmax": (ag.softmax, lambda out, g: out * (g - (g * out).sum(
        axis=-1, keepdims=True, dtype=np.float64).astype(out.dtype))),
}
# name -> scalar of a [4, 3] tensor h; an op's scalar gives its output adjoint _UP
_SCALARS = {
    **{name: (lambda h, op=op: ag.sum_(ag.mul(op(h), ag.Tensor(_UP))))
       for name, (op, _) in _OUTPUT_OPS.items()},
    "kl_loss": _kl_of_normalized,
    "weighted_ce_loss": lambda h: losses.weighted_ce_loss(h, np.arange(4) % 3,
                                                          class_weights=[1.0, 2.0, 0.5]),
    "feature_gram": lambda h: ag.sum_(ag.mul(losses.feature_gram(h), ag.Tensor(_UP @ _UP.T))),
    "cosine_diversity_loss": lambda h: losses.cosine_diversity_loss(
        ag.matmul(h, ag.transpose(h))),
    "ortho_loss": lambda h: losses.ortho_loss(ag.matmul(h, ag.transpose(h))),
    "tv_loss": lambda h: losses.tv_loss(ag.reshape(h, (1, 1, 4, 3))),
    # layer nodes whose every input depends on h: a 1x1 conv of h's columns,
    # each as a 2x2 image, by h's rows, and h times its own transpose
    "conv2d": lambda h: ag.sum_(ag.square(ag.conv2d(
        ag.reshape(ag.transpose(h), (3, 2, 2, 1)), ag.reshape(h, (4, 3, 1, 1)),
        ag.Tensor(_UP[:, 0].copy())))),
    "linear": lambda h: ag.sum_(ag.mul(ag.linear(h, ag.transpose(h), ag.Tensor(_UP[:1, :1]),
                                                 leaky=True), ag.Tensor(_UP @ _UP.T))),
    "compose_total": lambda h: losses.compose_total(
        {"sq": ag.sum_(ag.square(h)), "lin": ag.sum_(h)}, {"sq": 0.5, "lin": 2.0},
        ("sq", "lin")),
}


def cyclic_garbage(run):
    """Objects only the cyclic collector can free after ``run()``, with the
    collector off while it runs."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


class TestTapeFreedOnStepEnd:
    """A step's tape must be freed by reference counting as soon as the step
    ends: one reference cycle through a node keeps the whole tape, with every
    intermediate array, alive until the cyclic collector runs."""

    @pytest.mark.parametrize("kind, cfg", [
        ("mlp", InversionConfig(batch_size=4)),
        ("mlp", ReconConfig(batch_size=4)),     # runs the grad-norm penalty
        ("cnn", ReconConfig(batch_size=4)),
    ], ids=["mlp-inversion", "mlp-reconstruction", "cnn-reconstruction"])
    def test_generator_step_leaves_no_cycles(self, kind, cfg):
        clf = Classifier(ClassifierSpec(kind=kind), rng=np.random.default_rng(0)).freeze()
        gen = small_gen()
        opt = make_optimizer(gen.parameters(), cfg.optimizer, lr=cfg.lr)
        rng = np.random.default_rng(1)
        assert cyclic_garbage(lambda: inversion_step(gen, clf, cfg, rng, opt)) == 0

    def test_classifier_minibatch_leaves_no_cycles(self):
        clf = Classifier(ClassifierSpec(kind="mlp"), rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        images = rng.random((8, 1, 12, 12)).astype(np.float32)
        labels = np.arange(8) % 3
        assert cyclic_garbage(lambda: train_classifier(
            clf, images, labels, epochs=1, batch_size=8, rng=rng)) == 0

    @pytest.mark.parametrize("name", list(_SCALARS))
    def test_op_leaves_no_cycles(self, name):
        """Each op whose derivative is written in terms of its output, and
        each fused loss, at first order and through the double-backward
        grad-norm penalty."""
        rng = np.random.default_rng(41)
        x = ag.Tensor(rng.normal(scale=3, size=(4, 3)).astype(np.float32), requires_grad=True)
        w = ag.Tensor(rng.uniform(0.5, 1.5, size=(4, 3)).astype(np.float32), requires_grad=True)
        first = []

        def first_order():
            h = ag.mul(x, w)
            first[:] = [h.data, ag.grad(_SCALARS[name](h), [x, w, h])[2].data]

        def second_order():
            ag.grad(grad_norm_sq_replay(_SCALARS[name](ag.mul(x, w)), [w]), [x])

        assert cyclic_garbage(first_order) == 0
        assert cyclic_garbage(second_order) == 0
        if name in _OUTPUT_OPS:
            op, closed_form = _OUTPUT_OPS[name]
            h, gh = first
            want = closed_form(op(ag.Tensor(h)).data, _UP)
            assert gh.dtype == want.dtype and gh.tobytes() == want.tobytes()
