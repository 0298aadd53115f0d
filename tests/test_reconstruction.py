import numpy as np
import pytest

from netinv import autograd as ag
from netinv.errors import DomainError
from netinv.inversion import (TERM_WEIGHTS, InversionConfig, _draw_inputs,
                              generator_loss, linf_perturb)
from netinv.losses import (cosine_diversity_loss, feature_gram, kl_loss, ortho_loss,
                           soften_onehot, weighted_ce_loss)
from netinv.models import Generator, GeneratorSpec
from netinv.reconstruction import ReconConfig


def make_batch(trained_mlp, seed=0, batch=8):
    gen = Generator(GeneratorSpec(classes=3, hidden=(32, 32), z_dim=8),
                    rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    labels, z = _draw_inputs(gen, [0, 1, 2], batch, rng)
    return labels, ag.Tensor(gen.sample(z, labels))


class TestLinfPerturb:
    def test_zero_radius_is_clamp(self):
        x = np.array([[-0.5, 0.3], [1.4, 0.9]], dtype=np.float32)
        out = linf_perturb(ag.Tensor(x), 0.0, np.random.default_rng(0)).data
        np.testing.assert_array_equal(out, np.clip(x, 0, 1))

    def test_sampling_bound(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=10 ** 6).astype(np.float32)
        out = linf_perturb(ag.Tensor(x), 0.1, np.random.default_rng(2)).data
        dev = np.abs(out - x)
        assert dev.max() <= 0.1 + 1e-6
        assert dev.max() >= 0.09

    def test_deterministic_per_stream(self):
        x = np.random.default_rng(3).uniform(size=(4, 4)).astype(np.float32)
        a = linf_perturb(ag.Tensor(x), 0.2, np.random.default_rng(7)).data
        b = linf_perturb(ag.Tensor(x), 0.2, np.random.default_rng(7)).data
        np.testing.assert_array_equal(a, b)

    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            linf_perturb(ag.Tensor(np.zeros(2)), -0.1, np.random.default_rng(0))


class TestReconstructionLoss:
    def test_reduces_to_inversion_when_extras_zero(self, trained_mlp):
        trained_mlp.freeze()
        labels, images = make_batch(trained_mlp)
        cfg = ReconConfig(alpha_pert=0, beta_pert=0, eta_var=0, eta_pix=0,
                          eta_grad=0, gamma=0.5)
        total, breakdown = generator_loss(images, trained_mlp, labels, cfg,
                                          np.random.default_rng(5))
        # independently compose the inversion objective on the same batch
        logits, feats = trained_mlp.forward(images)
        probs = ag.softmax(logits)
        inv = (cfg.alpha * kl_loss(probs, soften_onehot(labels, 3, cfg.soften)).item()
               + cfg.beta * weighted_ce_loss(logits, labels).item()
               + cfg.gamma * cosine_diversity_loss(feature_gram(feats)).item()
               + cfg.delta * ortho_loss(feature_gram(feats)).item())
        assert total.item() == pytest.approx(inv, rel=1e-6)

    def test_constant_in_range_batch_has_zero_priors(self, trained_mlp):
        trained_mlp.freeze()
        images = ag.Tensor(np.full((4, 1, 12, 12), 0.5, dtype=np.float32))
        cfg = ReconConfig()
        _, breakdown = generator_loss(images, trained_mlp, np.zeros(4, dtype=int),
                                      cfg, np.random.default_rng(6))
        assert breakdown.terms["var"] == pytest.approx(0.0, abs=1e-9)
        assert breakdown.terms["pix"] == pytest.approx(0.0, abs=1e-9)

    def test_breakdown_matches_term_recomputation(self, trained_mlp):
        trained_mlp.freeze()
        labels, images = make_batch(trained_mlp, seed=2)
        cfg = ReconConfig(seed=3)
        total, breakdown = generator_loss(images, trained_mlp, labels, cfg,
                                          np.random.default_rng(7))
        want = sum(breakdown.weights[k] * v for k, v in breakdown.terms.items())
        assert total.item() == pytest.approx(want, rel=1e-6)
        assert set(breakdown.terms) == {"kl", "ce", "cosine", "ortho", "var",
                                        "pix", "kl_pert", "ce_pert", "grad"}

    def test_grad_term_positive_for_generic_batch(self, trained_mlp):
        trained_mlp.freeze()
        labels, images = make_batch(trained_mlp, seed=4)
        cfg = ReconConfig()
        _, breakdown = generator_loss(images, trained_mlp, labels, cfg,
                                      np.random.default_rng(8))
        assert breakdown.terms["grad"] > 0

    def test_grad_term_backpropagates_to_images(self, trained_mlp):
        trained_mlp.freeze()
        labels, _ = make_batch(trained_mlp, seed=5, batch=4)
        x = ag.Tensor(np.random.default_rng(9).uniform(size=(4, 1, 12, 12)).astype(np.float32),
                      requires_grad=True)
        cfg = ReconConfig(alpha=0, beta=0, gamma=0, delta=0, alpha_pert=0,
                          beta_pert=0, eta_var=0, eta_pix=0, eta_grad=1.0)
        total, _ = generator_loss(x, trained_mlp, labels[:4], cfg,
                                  np.random.default_rng(10))
        (gx,) = ag.grad(total, [x])
        assert float(np.abs(gx.data).max()) > 0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("name", list(TERM_WEIGHTS.values()))
    @pytest.mark.parametrize("config", [InversionConfig, ReconConfig],
                             ids=["InversionConfig", "ReconConfig"])
    def test_infinite_weight_rejected(self, config, name, value):
        with pytest.raises(DomainError):
            config(**{name: value})

    def test_bad_perturbation_radius(self):
        with pytest.raises(DomainError):
            ReconConfig(eps_pert=1.5)
