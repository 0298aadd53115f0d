"""Minibatch classifier training with (optionally weighted) cross-entropy."""

import math

import numpy as np

from . import autograd as ag
from .errors import DivergenceError
from .losses import weighted_ce_loss
from .optim import make_optimizer


def iterate_minibatches(n, batch_size, rng):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def train_classifier(model, images, labels, *, epochs, class_weights=None,
                     batch_size=64, lr=1e-3, optimizer="adam", rng):
    """Train in place; returns per-epoch (loss, accuracy) history."""
    opt = make_optimizer(model.parameters(), optimizer, lr=lr)
    history = []
    n = len(images)
    for epoch in range(epochs):
        epoch_loss, correct = 0.0, 0
        for batch, idx in enumerate(iterate_minibatches(n, batch_size, rng)):
            xb = ag.Tensor(images[idx])
            logits, _ = model.forward(xb)
            loss = weighted_ce_loss(logits, labels[idx], class_weights)
            value = loss.item()
            if not math.isfinite(value):
                raise DivergenceError(f"non-finite loss {value} at epoch {epoch}, "
                                      f"minibatch {batch}")
            opt.step(ag.grad(loss, opt.params))
            epoch_loss += value * len(idx)
            correct += int((logits.data.argmax(axis=1) == labels[idx]).sum())
        history.append((epoch_loss / n, correct / n))
    return history


def predict_logits(model, images):
    """Classifier predictions in 256-row chunks -> logits ndarray [N, m].

    Raises ``DivergenceError`` when any logit is non-finite: the weights
    left by the last optimizer step are only ever checked here.
    """
    logits = np.concatenate([model.predict(images[start:start + 256])[0]
                             for start in range(0, len(images), 256)], axis=0)
    return check_finite(logits)


def check_finite(logits):
    """``logits`` unchanged; ``DivergenceError`` when any of them is non-finite."""
    if not np.isfinite(logits).all():
        raise DivergenceError("non-finite classifier output")
    return logits


def accuracy(model, images, labels):
    return logits_accuracy(predict_logits(model, images), labels)


def logits_accuracy(logits, labels):
    return int((logits.argmax(axis=1) == labels).sum()) / len(logits)


def predict_probs(model, images):
    return ag.softmax_array(predict_logits(model, images))
