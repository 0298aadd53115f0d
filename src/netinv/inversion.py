"""Generator training against a frozen classifier: inversion and reconstruction.

The generator is asked for images that the classifier assigns to requested
labels while staying diverse: KL and cross-entropy pull each image toward
its conditioning label, cosine and Gram-orthogonality terms push the
penultimate features of a batch apart.

Training-like reconstruction is the same objective with extra terms
weighted: generated images should stay correctly and confidently classified
after a bounded perturbation, look like low-noise images (a smoothness
prior), and sit where the classifier's weight gradients are small, all
properties expected of genuine training points.  The generator's sigmoid
already keeps every pixel in [0, 1], so no term asks for that range.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .errors import ContractError, DivergenceError, DomainError
from .losses import (LossBreakdown, compose_total, cosine_diversity_loss,
                     feature_gram, kl_loss, ortho_loss, soften_onehot, tv_loss,
                     weighted_ce_loss)
from .optim import make_optimizer
from .training import logits_accuracy, predict_logits

# loss term -> config field holding its weight, in composition order
TERM_WEIGHTS = {"kl": "alpha", "kl_pert": "alpha_pert", "ce": "beta",
                "ce_pert": "beta_pert", "cosine": "gamma", "ortho": "delta",
                "var": "eta_var", "grad": "eta_grad"}
TERM_ORDER = tuple(TERM_WEIGHTS)


@dataclass
class InversionConfig:
    alpha: float = 1.0          # KL weight
    beta: float = 1.0           # CE weight
    gamma: float = 0.5          # cosine-diversity weight
    delta: float = 0.1          # Gram-orthogonality weight
    alpha_pert: float = 0.0     # perturbed-KL weight
    beta_pert: float = 0.0      # perturbed-CE weight
    eta_var: float = 0.0        # smoothness prior
    # unread: the generator's sigmoid keeps pixels in [0, 1]; still validated,
    # since the CLI and perfbench pass it, goes with ReconConfig (ROADMAP 2)
    eta_pix: float = 0.0
    eta_grad: float = 0.0       # classifier weight-gradient penalty
    eps_pert: float = 0.0       # L-infinity perturbation radius
    batch_size: int = 32
    steps: int = 3000
    lr: float = 2e-3
    optimizer: str = "adam"
    soften: float = 0.1         # KL target smoothing mass
    target_accuracy: float = 0.95  # None -> no evaluation, run every step
    eval_every: int = 200
    eval_samples: int = 256
    seed: int = 0               # unread; perfbench passes it, goes with ReconConfig (ROADMAP 2)

    def __post_init__(self):
        for name in (*TERM_WEIGHTS.values(), "eta_pix"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise DomainError(f"loss weight {name} must be finite and nonnegative")
        if not 0.0 <= self.eps_pert <= 1.0:
            raise DomainError("perturbation radius must be in [0, 1]")
        if self.batch_size < 2:
            raise DomainError("batch size must be >= 2 (pairwise losses need pairs)")
        if self.steps < 1 or self.eval_every < 1 or self.eval_samples < 1:
            raise DomainError("steps, eval_every and eval_samples must be >= 1")


def linf_perturb(images, eps_pert, rng):
    """``images``, a generator batch and so in [0, 1], plus uniform noise in
    the L-infinity ball of radius ``eps_pert``, clamped back to [0, 1]; at
    radius 0, ``images`` itself."""
    if eps_pert < 0:
        raise DomainError("perturbation radius must be nonnegative")
    t = ag.as_tensor(images)
    if eps_pert == 0:
        return t
    noise = rng.uniform(-eps_pert, eps_pert, size=t.shape).astype(t.dtype)
    return ag.clamp01(ag.add(t, ag.Tensor(noise)))


def generator_loss(images, clf, labels, cfg, rng):
    """-> (total tensor or None, LossBreakdown) for one generated batch.

    The four inversion terms are always built; the smoothness prior, the
    perturbed terms and the gradient penalty only when weighted, so an
    inversion config records none of their tape nodes.
    """
    if not clf.frozen:
        raise ContractError("classifier must be frozen during generator training")
    labels = np.asarray(labels, dtype=np.int64)
    m = clf.spec.classes
    logits, feats = clf.forward(images)
    target = soften_onehot(labels, m, cfg.soften)
    gram = feature_gram(feats)

    terms = {
        "kl": kl_loss(ag.softmax(logits), target),
        "ce": weighted_ce_loss(logits, labels),
        "cosine": cosine_diversity_loss(gram),
        "ortho": ortho_loss(gram),
    }
    if cfg.eta_var > 0:
        terms["var"] = tv_loss(images)
    if cfg.alpha_pert > 0 or cfg.beta_pert > 0:
        # the perturbed copy should keep the conditioning labels
        perturbed = linf_perturb(images, cfg.eps_pert, rng)
        logits_p, _ = clf.forward(perturbed)
        terms["kl_pert"] = kl_loss(ag.softmax(logits_p), target)
        terms["ce_pert"] = weighted_ce_loss(logits_p, labels)
    if cfg.eta_grad > 0:
        onehot = np.zeros((len(labels), m), dtype=logits.dtype)
        onehot[np.arange(len(labels)), labels] = 1.0
        true_logit_sum = ag.sum_(ag.mul(logits, ag.Tensor(onehot)))
        terms["grad"] = ag.grad_norm_sq(true_logit_sum, clf.parameters())

    weights = {k: getattr(cfg, TERM_WEIGHTS[k]) for k in terms}
    total = compose_total(terms, weights, TERM_ORDER)
    breakdown = LossBreakdown(
        terms={k: float(v.item()) for k, v in terms.items()},
        weights=weights,
        total=float(total.item()) if total is not None else 0.0).check()
    return total, breakdown


def _draw_inputs(gen, classes, batch_size, rng):
    """-> (labels drawn from ``classes``, latents [batch_size, z_dim]) for ``gen``."""
    labels = rng.choice(classes, size=batch_size)
    z = rng.standard_normal((batch_size, gen.spec.z_dim)).astype(np.float32)
    return labels, z


def inversion_step(gen, clf, cfg, rng, opt):
    """One update of ``gen`` by ``opt``, an optimizer over its parameters; the
    classifier must be frozen and stays bit-unchanged."""
    labels, z = _draw_inputs(gen, list(range(clf.spec.classes)), cfg.batch_size, rng)
    images = gen.forward(z, labels, rng)
    total, breakdown = generator_loss(images, clf, labels, cfg, rng)
    if total is not None:
        opt.step(ag.grad(total, opt.params))
    return breakdown


def generate_samples(gen, count, rng, classes=None):
    """Eval-mode generation in 256-row batches; returns (labels, images ndarray)."""
    if count < 1:
        raise DomainError("need at least one sample")
    classes = list(classes) if classes else list(range(gen.spec.classes))
    labels_all, images_all = [], []
    for done in range(0, count, 256):
        labels, z = _draw_inputs(gen, classes, min(256, count - done), rng)
        labels_all.append(labels)
        images_all.append(gen.sample(z, labels))
    return np.concatenate(labels_all), np.concatenate(images_all, axis=0)


def inversion_accuracy(gen, clf, n_samples, rng):
    """Fraction of eval-mode samples whose classifier argmax equals the condition."""
    labels, images = generate_samples(gen, n_samples, rng, range(clf.spec.classes))
    return logits_accuracy(predict_logits(clf, images), labels)


def train_generator(gen, clf, cfg, rng):
    """Run generator steps until the accuracy target or the step budget.

    With ``cfg.target_accuracy`` None the loop never evaluates and runs
    every step; otherwise the last step run always evaluates.  Returns
    (history of (step, breakdown, accuracy or None) triples, the last
    step's accuracy or None).
    """
    opt = make_optimizer(gen.parameters(), cfg.optimizer, lr=cfg.lr)
    evaluate = cfg.target_accuracy is not None
    history = []
    for step in range(cfg.steps):
        try:
            breakdown = inversion_step(gen, clf, cfg, rng, opt)
        except DivergenceError as exc:
            raise DivergenceError(f"step {step}: {exc}") from exc
        acc = None
        if evaluate and ((step + 1) % cfg.eval_every == 0 or step == cfg.steps - 1):
            acc = inversion_accuracy(gen, clf, cfg.eval_samples, rng)
        history.append((step, breakdown, acc))
        if acc is not None and acc >= cfg.target_accuracy:
            break
    return history, acc

