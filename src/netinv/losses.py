"""Loss terms for inversion and training-like reconstruction.

Every term returns a scalar tracked tensor so gradients flow back to the
generator; `LossBreakdown` records the raw values and weights for logging.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .errors import ContractError, DivergenceError, DomainError

EPS = 1e-8


@dataclass
class LossBreakdown:
    terms: dict                 # name -> raw value (float)
    weights: dict               # name -> weight (float)
    total: float

    def check(self, rel=1e-6):
        """Raise on a non-finite loss, or a total that is not the weighted sum."""
        bad = [k for k, v in self.terms.items() if not math.isfinite(v)]
        if bad or not math.isfinite(self.total):
            raise DivergenceError(f"non-finite loss term(s): {', '.join(bad or ['total'])}")
        want = sum(self.weights.get(k, 0.0) * v for k, v in self.terms.items())
        scale = max(abs(want), abs(self.total), 1e-12)
        if abs(want - self.total) > rel * scale:
            raise ContractError(f"loss breakdown inconsistent: total {self.total} "
                                f"vs weighted sum {want}")
        return self


def kl_loss(probs, target):
    """Mean over the batch of KL(target || probs), eps-floored inside logs.

    One node over ``probs``; the target is a constant, the value is
    accumulated in 64-bit and the VJP is ``g * (-target / B) / (probs + EPS)``.
    """
    probs = ag.as_tensor(probs)
    target = np.asarray(target, dtype=np.float64)
    for name, rows in (("probs", probs.data), ("target", target)):
        sums = np.sum(rows, axis=-1)
        if np.any(np.abs(sums - 1.0) > 1e-3):
            raise ContractError(f"{name} rows are not distributions (sum deviates by "
                                f"{np.max(np.abs(sums - 1.0)):.2e})")
    B = probs.data.size // probs.shape[-1]
    log_ratio = np.log(target + EPS) - np.log(probs.data.astype(np.float64) + EPS)
    value = np.asarray(np.sum(target * log_ratio) / B, dtype=probs.dtype)
    coef = ag.Tensor((-target / B).astype(probs.dtype))

    def vjp(g, need):
        return (ag.div(ag.mul(g, coef), ag.add(probs, EPS)),)

    # the VJP reads only the input and constants, never this node: autograd's rule
    return ag._from_op(value, (probs,), vjp)


def weighted_ce_loss(logits, labels, class_weights=None):
    """Mean over the batch of weight[label] * (-log softmax(logits)[label]).

    One node over ``logits``; the value is accumulated in 64-bit and the VJP
    is ``g * (softmax(logits) * w_row / B - onehot * w_row / B)``, with
    ``w_row`` the weight of each row's label.
    """
    logits = ag.as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    B, m = logits.shape
    if labels.min() < 0 or labels.max() >= m:
        raise DomainError(f"labels outside [0, {m}): {labels.min()}..{labels.max()}")
    if class_weights is None:
        class_weights = np.ones(m)
    w = np.asarray(class_weights, dtype=np.float64)[labels] / B
    rows = np.arange(B)
    z, _, s = ag._shifted(logits.data, -1)
    picked = (z - np.log(s))[rows, labels]         # log_softmax's forward
    value = np.asarray(-np.dot(w, picked.astype(np.float64)), dtype=logits.dtype)
    w_row = ag.Tensor(w.astype(logits.dtype)[:, None])
    w_onehot = np.zeros((B, m), dtype=logits.dtype)
    w_onehot[rows, labels] = w
    w_onehot = ag.Tensor(w_onehot)

    def vjp(g, need):
        return (ag.mul(g, ag.sub(ag.mul(ag.softmax(logits), w_row), w_onehot)),)

    # the VJP recomputes softmax from the input, never reads this node: autograd's rule
    return ag._from_op(value, (logits,), vjp)


def feature_gram(features):
    """Gram matrix [B, B] of the row-normalized features: pairwise cosines."""
    features = ag.as_tensor(features)
    norms = ag.sqrt(ag.add(ag.sum_(ag.square(features), axis=1, keepdims=True), EPS ** 2))
    n = ag.div(features, norms)
    return ag.matmul(n, ag.transpose(n))


def cosine_diversity_loss(gram):
    """Mean pairwise cosine similarity over unordered feature pairs, from
    ``feature_gram(features)``."""
    B = gram.shape[0]
    if B < 2:
        raise ContractError("cosine diversity needs a batch of at least 2")
    offdiag = (1.0 - np.eye(B)).astype(gram.dtype)
    return ag.div(ag.sum_(ag.mul(gram, ag.Tensor(offdiag))),
                  ag.Tensor(np.asarray(B * (B - 1), dtype=gram.dtype)))


def ortho_loss(gram):
    """Squared Frobenius distance from identity of ``feature_gram(features)``."""
    B = gram.shape[0]
    if B < 1:
        raise ContractError("ortho loss needs a non-empty batch")
    eye = ag.Tensor(np.eye(B, dtype=gram.dtype))
    return ag.sum_(ag.square(ag.sub(gram, eye)))


def tv_loss(images):
    """Mean squared adjacent-pixel difference, normalized per image pixel."""
    images = ag.as_tensor(images)
    B, C, H, W = images.shape
    if H < 2 or W < 2:
        raise ContractError(f"tv loss needs H, W >= 2, got {images.shape}")
    dh = ag.sub(ag.take_slice(images, 2, 1, H), ag.take_slice(images, 2, 0, H - 1))
    dw = ag.sub(ag.take_slice(images, 3, 1, W), ag.take_slice(images, 3, 0, W - 1))
    total = ag.add(ag.sum_(ag.square(dh)), ag.sum_(ag.square(dw)))
    return ag.div(total, ag.Tensor(np.asarray(B * C * H * W, dtype=images.dtype)))


def pixel_loss(images):
    """Mean squared hinge outside [0, 1]: (x - clamp01(x))^2, which is
    (max(0, x-1))^2 + (max(0, -x))^2."""
    images = ag.as_tensor(images)
    return ag.mean(ag.square(ag.sub(images, ag.clamp01(images))))


def compose_total(terms, weights, order):
    """Weighted sum of loss tensors in a fixed key order, skipping zero weights.

    Using one composition routine everywhere keeps the inversion and
    reconstruction totals bit-consistent when the extra weights are zero.
    """
    total = None
    for name in order:
        w = weights.get(name, 0.0)
        if w == 0.0 or name not in terms:
            continue
        piece = ag.mul(terms[name], ag.Tensor(np.asarray(w, dtype=terms[name].dtype)))
        total = piece if total is None else ag.add(total, piece)
    return total


def soften_onehot(labels, m, s=0.1, dtype=np.float32):
    """KL target: (1-s) * onehot + s/m."""
    labels = np.asarray(labels, dtype=np.int64)
    t = np.full((len(labels), m), s / m, dtype=dtype)
    t[np.arange(len(labels)), labels] += 1.0 - s
    return t
