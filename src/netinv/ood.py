"""Garbage-class training cycle and uncertainty scoring.

An n-class task becomes (n+1)-class: the extra class starts as Gaussian
noise and is repeatedly refilled with inverted samples, so the classifier
learns to route anything off the in-distribution manifold into it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .errors import ContractError, DivergenceError, DomainError
from .inversion import InversionConfig, generate_samples, train_generator
from .training import (accuracy, check_finite, logits_accuracy, predict_logits,
                       predict_probs, train_classifier)

_WARMUP = 1     # cycles trained before ID accuracy must beat chance


@dataclass
class GarbageSet:
    images: np.ndarray          # [N, C, H, W], every label is the garbage index
    provenance: list            # per image: "noise" | "inverted@cycle_k"
    capacity: int
    noise_count: int            # leading noise block, never evicted

    def __len__(self):
        return len(self.images)

    def add(self, images, tag):
        self.images = np.concatenate([self.images, np.asarray(images, dtype=np.float32)])
        self.provenance.extend([tag] * len(images))
        excess = len(self.images) - self.capacity
        if excess > 0:
            # evict the oldest inverted samples; the noise block stays
            oldest = slice(self.noise_count, self.noise_count + excess)
            self.images = np.delete(self.images, oldest, axis=0)
            del self.provenance[oldest]


def init_garbage(count, image_shape, rng, capacity):
    """Gaussian-noise seed images: N(0.5, 0.25^2) per pixel, clamped to [0, 1]."""
    if count < 1:
        raise DomainError("garbage set needs at least one seed image")
    images = np.clip(rng.normal(0.5, 0.25, size=(count, *image_shape)), 0.0, 1.0)
    return GarbageSet(images=images.astype(np.float32),
                      provenance=["noise"] * count,
                      capacity=capacity,
                      noise_count=count)


def class_weights(counts):
    """Inverse-frequency weights normalized to mean 1."""
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts < 1):
        raise DomainError(f"all class counts must be >= 1, got {counts}")
    w = 1.0 / counts
    return w * len(w) / w.sum()


def uncertainty(p):
    """Normalized squared distance from uniform: 0 = one-hot, 1 = uniform.

    The predicted distribution's distance from uniform is divided by the
    distance a one-hot prediction would attain, (m-1)/m, so the score is a
    scale-free certainty measure over the n+1 classes. ``p`` is one
    distribution [m] (returns a float) or a batch [N, m] (returns [N]).
    A row whose sum is not within 1e-6 of 1, with an entry below -1e-12 or
    with a NaN raises ``ContractError``.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim not in (1, 2) or p.shape[-1] < 2:
        raise ContractError(f"uncertainty expects distributions [m] or [N, m] with m >= 2, "
                            f"got shape {p.shape}")
    m = p.shape[-1]
    # 1 - sum((p - 1/m)^2) / ((m-1)/m), expanded over s = sum(p) and
    # q = sum(p^2) so that a one-hot row scores exactly 0
    if p.ndim == 1:
        # one row in Python floats, without numpy's per-call cost
        row = p.tolist()
        s = sum(row)
        if not abs(s - 1.0) <= 1e-6 or min(row) < -1e-12:     # NaN is bad too
            raise ContractError(f"malformed distribution in row 0 "
                                f"(sum {s:.8f}, min {min(row):.3e})")
        ue = (m - 2 + 2 * s - m * sum([x * x for x in row])) / (m - 1)
        return min(max(ue, 0.0), 1.0)
    sums = p.sum(axis=-1)
    bad = ~(np.abs(sums - 1.0) <= 1e-6) | (p.min(axis=-1) < -1e-12)     # NaN is bad too
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ContractError(f"malformed distribution in row {i} "
                            f"(sum {p[i].sum():.8f}, min {p[i].min():.3e})")
    ue = (m - 2 + 2 * sums - m * (p * p).sum(axis=-1)) / (m - 1)
    return np.minimum(np.maximum(ue, 0.0), 1.0)


@dataclass
class Prediction:
    probs: np.ndarray
    index: int
    is_ood: bool
    ue: float


def ood_predict(clf, image):
    """Single-image prediction with garbage routing and uncertainty score.

    One ``predict`` of the one row, and the softmax of its logits: the same
    probabilities ``predict_probs`` gives for that row.
    """
    logits, _ = clf.predict(np.asarray(image)[None])
    probs = ag.softmax_array(check_finite(logits)[0]).astype(np.float64)
    probs /= probs.sum()
    k = int(probs.argmax())
    return Prediction(probs=probs, index=k,
                      is_ood=(k == clf.spec.classes - 1),
                      ue=uncertainty(probs))


@dataclass
class ThresholdReport:
    min_id_confidence: float
    max_ood_confidence: float   # inf-flagged when no OOD sample is misrouted
    gap: float
    n_ood_misrouted: int


def threshold_report(id_probs, id_labels, ood_probs):
    """Confidence gap between correct ID predictions and misrouted OOD ones,
    from one classifier's [N, m] probabilities; the garbage class is column m-1."""
    if len(id_probs) == 0 or len(ood_probs) == 0:
        raise ContractError("threshold report needs nonempty ID and OOD sets")
    garbage = id_probs.shape[1] - 1
    correct = id_probs.argmax(axis=1) == np.asarray(id_labels)
    min_id = float(id_probs[correct].max(axis=1).min()) if correct.any() else math.nan
    misrouted = ood_probs.argmax(axis=1) != garbage
    if misrouted.any():
        max_ood = float(ood_probs[misrouted].max(axis=1).max())
        gap = min_id - max_ood
    else:
        max_ood = math.inf
        gap = math.inf
    return ThresholdReport(min_id_confidence=min_id, max_ood_confidence=max_ood,
                           gap=gap, n_ood_misrouted=int(misrouted.sum()))


@dataclass
class CycleReport:
    cycle: int
    id_train_accuracy: float
    id_test_accuracy: float
    inversion_accuracy: float
    garbage_size: int
    mean_ue_inverted: float
    threshold_gap: float
    ood_misrouted: int


@dataclass
class OodCycleConfig:
    inversion: InversionConfig      # each cycle's generator training
    cycles: int = 5
    epochs_per_cycle: int = 12
    batch_size: int = 64
    lr: float = 1e-3
    optimizer: str = "adam"
    garbage_init: int = 100
    budget: int = 0                 # 0 -> one ID class's training count
    capacity_factor: int = 4


def ood_training_cycle(clf, gen_factory, id_train, id_test, cfg, rng, on_cycle=None):
    """Train / invert / exclude loop; returns (classifier, [CycleReport])."""
    n1 = clf.spec.classes
    n = n1 - 1
    if id_train.labels.max() >= n:
        raise ContractError(f"ID labels must lie in [0, {n}) for an {n1}-class model")
    garbage_idx = n
    budget = cfg.budget or max(1, len(id_train) // n)
    garbage = init_garbage(cfg.garbage_init, id_train.image_shape, rng,
                           capacity=cfg.capacity_factor * len(id_train))

    def train_once():
        images = np.concatenate([id_train.images, garbage.images])
        labels = np.concatenate([id_train.labels,
                                 np.full(len(garbage), garbage_idx, dtype=np.int64)])
        counts = np.bincount(labels, minlength=n1)
        train_classifier(clf, images, labels, class_weights=class_weights(counts),
                         epochs=cfg.epochs_per_cycle, batch_size=cfg.batch_size,
                         lr=cfg.lr, optimizer=cfg.optimizer, rng=rng)

    reports = []
    for cycle in range(1, cfg.cycles + 1):
        train_once()
        id_logits = predict_logits(clf, id_train.images)
        id_train_acc = logits_accuracy(id_logits, id_train.labels)
        if cycle > _WARMUP and id_train_acc < 1.0 / n1 + 0.05:
            raise DivergenceError(
                f"ID train accuracy {id_train_acc:.3f} below chance after cycle {cycle}")

        # invert the current classifier over all n+1 conditioning labels
        gen = gen_factory(cycle)
        was_frozen = clf.frozen
        clf.freeze()
        _, inv_acc = train_generator(gen, clf, cfg.inversion, rng=rng)
        clf.frozen = was_frozen

        labels, images = generate_samples(gen, budget, rng,
                                          classes=range(n1))
        probs = predict_probs(clf, images).astype(np.float64)
        ue_vals = uncertainty(probs / probs.sum(axis=1, keepdims=True))
        garbage.add(images, f"inverted@cycle_{cycle}")

        id_test_acc = accuracy(clf, id_test.images, id_test.labels)
        thr = threshold_report(ag.softmax_array(id_logits), id_train.labels, probs)
        report = CycleReport(cycle=cycle,
                             id_train_accuracy=id_train_acc,
                             id_test_accuracy=id_test_acc,
                             inversion_accuracy=inv_acc,
                             garbage_size=len(garbage),
                             mean_ue_inverted=float(np.mean(ue_vals)),
                             threshold_gap=thr.gap,
                             ood_misrouted=thr.n_ood_misrouted)
        reports.append(report)
        if on_cycle is not None:
            on_cycle(report, images)

    # final retraining so the last cycle's exclusions take effect
    train_once()
    return clf, reports


def evaluate_grid(models, datasets, garbage):
    """ID accuracy on the diagonal, garbage-routing rate off it; -> (row names,
    column names, matrix, threshold reports[model, dataset]).

    ``garbage`` maps each model name to its garbage class, or to None for a
    model without one: its off-diagonal cells are NaN, with no pass behind
    them. Each other off-diagonal cell gets a ``ThresholdReport``, in row
    order, from the same passes as the matrix.
    """
    names = list(models.keys())
    for name in names:
        if name not in datasets:
            raise ContractError(f"no dataset named {name!r} for the model trained on it")
    matrix = np.zeros((len(names), len(datasets)))
    col_names = list(datasets.keys())
    reports = {}
    for i, mname in enumerate(names):
        clf = models[mname]
        probs = {}
        for j, dname in enumerate(col_names):
            if mname != dname and garbage[mname] is None:
                matrix[i, j] = math.nan
                continue
            ds = datasets[dname]
            probs[dname] = predict_probs(clf, ds.images)
            want = ds.labels if mname == dname else garbage[mname]
            matrix[i, j] = float((probs[dname].argmax(axis=1) == want).mean())
        for dname, ood_probs in probs.items():
            if dname != mname:
                reports[mname, dname] = threshold_report(
                    probs[mname], datasets[mname].labels, ood_probs)
    return names, col_names, matrix, reports
