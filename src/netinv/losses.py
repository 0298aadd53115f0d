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
# relative tolerance of a breakdown's total against its weighted sum
BREAKDOWN_RTOL = 1e-6


@dataclass
class LossBreakdown:
    terms: dict                 # name -> raw value (float)
    weights: dict               # name -> weight (float)
    total: float

    def check(self):
        """Raise on a non-finite loss, or a total that is not the weighted sum."""
        bad = [k for k, v in self.terms.items() if not math.isfinite(v)]
        if bad or not math.isfinite(self.total):
            raise DivergenceError(f"non-finite loss term(s): {', '.join(bad or ['total'])}")
        want = sum(self.weights.get(k, 0.0) * v for k, v in self.terms.items())
        scale = max(abs(want), abs(self.total), 1e-12)
        if abs(want - self.total) > BREAKDOWN_RTOL * scale:
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
    z, _, s = ag._shifted(logits.data)
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


def _sum64(x, dtype):
    """Sum of all entries of ``x``, accumulated in 64-bit and cast to ``dtype``."""
    return np.asarray(x.sum(dtype=np.float64), dtype=dtype)


def feature_gram(features):
    """Gram matrix [B, B] of the row-normalized features: pairwise cosines.

    One node over ``features``. With ``r`` the row norms and ``u`` the unit
    rows, both recomputed from the input, the VJP is
    ``(gu - u * rowsum(gu * u)) / r`` for ``gu = (g + g^T) @ u``.
    """
    features = ag.as_tensor(features)
    x = features.data
    sq = np.asarray((x * x).sum(axis=1, keepdims=True, dtype=np.float64), dtype=x.dtype)
    n = x / (sq + x.dtype.type(EPS ** 2)) ** 0.5
    value = n @ n.T

    def vjp(g, need):
        norms = ag.sqrt(ag.add(ag.sum_(ag.square(features), axis=1, keepdims=True), EPS ** 2))
        unit = ag.div(features, norms)
        gu = ag.matmul(ag.add(g, ag.transpose(g)), unit)
        radial = ag.mul(unit, ag.sum_(ag.mul(gu, unit), axis=1, keepdims=True))
        return (ag.div(ag.sub(gu, radial), norms),)

    return ag._from_op(value, (features,), vjp)


def cosine_diversity_loss(gram):
    """Mean pairwise cosine similarity over unordered feature pairs, from
    ``feature_gram(features)``.

    One node over ``gram``; the VJP is ``g / (B * (B - 1))`` off the diagonal.
    """
    gram = ag.as_tensor(gram)
    B = gram.shape[0]
    if B < 2:
        raise ContractError("cosine diversity needs a batch of at least 2")
    offdiag = (1.0 - np.eye(B)).astype(gram.dtype)
    pairs = np.asarray(B * (B - 1), dtype=gram.dtype)
    value = _sum64(gram.data * offdiag, gram.dtype) / pairs
    offdiag = ag.Tensor(offdiag)

    def vjp(g, need):
        return (ag.mul(ag.div(g, pairs), offdiag),)

    return ag._from_op(value, (gram,), vjp)


def ortho_loss(gram):
    """Squared Frobenius distance from identity of ``feature_gram(features)``.

    One node over ``gram``; the VJP is ``2 * g * (gram - I)``.
    """
    gram = ag.as_tensor(gram)
    B = gram.shape[0]
    if B < 1:
        raise ContractError("ortho loss needs a non-empty batch")
    eye = np.eye(B, dtype=gram.dtype)
    d = gram.data - eye
    eye = ag.Tensor(eye)

    def vjp(g, need):
        return (ag.mul(ag.mul(g, ag.sub(gram, eye)), 2.0),)

    return ag._from_op(_sum64(d * d, gram.dtype), (gram,), vjp)


def tv_loss(images):
    """Mean squared adjacent-pixel difference, normalized per image pixel.

    One node over ``images``. The VJP takes each adjacent difference along H
    and W, recomputed from the input, times ``2 * g / (B*C*H*W)``, and adds
    it onto the later pixel of its pair and subtracts it from the earlier.
    """
    images = ag.as_tensor(images)
    B, C, H, W = images.shape
    if H < 2 or W < 2:
        raise ContractError(f"tv loss needs H, W >= 2, got {images.shape}")
    x = images.data
    dh = x[:, :, 1:] - x[:, :, :-1]
    dw = x[:, :, :, 1:] - x[:, :, :, :-1]
    count = np.asarray(B * C * H * W, dtype=images.dtype)
    value = (_sum64(dh * dh, x.dtype) + _sum64(dw * dw, x.dtype)) / count

    def vjp(g, need):
        scale = ag.mul(ag.div(g, count), 2.0)
        parts = []
        for axis, n in ((2, H), (3, W)):
            diff = ag.sub(ag.take_slice(images, axis, 1, n), ag.take_slice(images, axis, 0, n - 1))
            gd = ag.mul(diff, scale)
            parts.append(ag.sub(ag.pad_slice(gd, images.shape, axis, 1),
                                ag.pad_slice(gd, images.shape, axis, 0)))
        return (ag.add(*parts),)

    return ag._from_op(value, (images,), vjp)


def compose_total(terms, weights, order):
    """Weighted sum of loss tensors in a fixed key order, skipping zero weights.

    One node over the weighted terms (None when there are none), summed left
    to right in the terms' dtype; the VJP hands each term ``g * weight``.
    Using one composition routine everywhere keeps the inversion and
    reconstruction totals bit-consistent when the extra weights are zero.
    """
    picked = [name for name in order if weights.get(name, 0.0) != 0.0 and name in terms]
    if not picked:
        return None
    inputs = tuple(terms[name] for name in picked)
    coefs = [np.asarray(weights[name], dtype=t.dtype) for name, t in zip(picked, inputs)]
    total = None
    for t, w in zip(inputs, coefs):
        piece = t.data * w
        total = piece if total is None else total + piece

    def vjp(g, need):
        return tuple(ag.mul(g, ag.Tensor(w)) if n else None for n, w in zip(need, coefs))

    return ag._from_op(total, inputs, vjp)


def soften_onehot(labels, m, s=0.1, dtype=np.float32):
    """KL target: (1-s) * onehot + s/m."""
    labels = np.asarray(labels, dtype=np.int64)
    t = np.full((len(labels), m), s / m, dtype=dtype)
    t[np.arange(len(labels)), labels] += 1.0 - s
    return t
