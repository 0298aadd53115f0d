"""Classifier and conditioned-generator architectures.

The generator receives its class label either as a plain one-hot vector or
through a fixed orthonormal projection ("hidden" mode), and applies heavy
dropout on its hidden layers so that a single condition maps to a spread of
images rather than one memorized point.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autograd as ag
from .errors import ContractError, DomainError, ShapeError


@dataclass
class ClassifierSpec:
    kind: str = "mlp"                  # mlp | cnn
    in_shape: tuple = (1, 12, 12)      # C, H, W
    hidden: tuple = (256, 128)         # MLP widths
    conv_channels: tuple = (8, 16)     # CNN filter counts, 3x3, stride 1, pad 1
    conv_hidden: int = 64              # CNN post-flatten affine width
    classes: int = 3

    def __post_init__(self):
        if self.kind not in ("mlp", "cnn"):
            raise DomainError(f"unknown classifier kind {self.kind!r}")
        if self.classes < 2:
            raise DomainError("classifier needs at least 2 output classes")
        if self.kind == "cnn" and any(d % 4 for d in self.in_shape[1:]):
            raise DomainError("cnn spec needs H, W divisible by 4 (two 2x2 pools)")


@dataclass
class GeneratorSpec:
    z_dim: int = 64
    cond_mode: str = "hidden"          # hot | hidden-projected
    cond_dim: int = 32                 # hidden-mode encoding width
    classes: int = 3
    dropout: float = 0.5
    hidden: tuple = (128, 256)
    out_shape: tuple = (1, 12, 12)
    cond_seed: int = 977               # fixes the hidden projection matrix

    def __post_init__(self):
        if self.cond_mode not in ("hot", "hidden"):
            raise DomainError(f"unknown condition mode {self.cond_mode!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise DomainError("dropout rate must be in [0, 1)")
        if self.cond_mode == "hidden" and self.cond_dim < self.classes:
            raise DomainError("hidden condition width must be >= class count")

    @property
    def cond_width(self):
        return self.classes if self.cond_mode == "hot" else self.cond_dim


@lru_cache(maxsize=32)
def _condition_matrix(classes, cond_mode, cond_dim, cond_seed):
    if cond_mode == "hot":
        mat = np.eye(classes, dtype=np.float32)
    else:
        # orthonormal rows: distinct labels map to mutually orthogonal encodings
        rng = np.random.default_rng(cond_seed)
        q, _ = np.linalg.qr(rng.normal(size=(cond_dim, classes)))
        mat = np.ascontiguousarray(q.T.astype(np.float32))
    mat.flags.writeable = False       # shared by every caller of the cache
    return mat


def condition_matrix(spec):
    """[classes, cond_width] float32 matrix whose row k conditions label k."""
    return _condition_matrix(spec.classes, spec.cond_mode, spec.cond_dim,
                             spec.cond_seed)


def _affine_init(rng, fan_in, fan_out):
    scale = np.sqrt(2.0 / fan_in)
    w = rng.normal(0.0, scale, size=(fan_in, fan_out)).astype(np.float32)
    b = np.zeros((1, fan_out), dtype=np.float32)
    return ag.parameter(w), ag.parameter(b)


class Classifier:
    """MLP or small CNN; forward yields logits and penultimate features."""

    def __init__(self, spec, rng=None):
        rng = rng or np.random.default_rng(0)
        self.spec = spec
        self.frozen = False
        self.params = {}
        C, H, W = spec.in_shape
        if spec.kind == "mlp":
            dims = [C * H * W, *spec.hidden, spec.classes]
            for i, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
                w, b = _affine_init(rng, din, dout)
                self.params[f"w{i}"] = w
                self.params[f"b{i}"] = b
        else:
            cin = C
            for i, cout in enumerate(spec.conv_channels):
                k = rng.normal(0.0, np.sqrt(2.0 / (cin * 9)),
                               size=(cout, cin, 3, 3)).astype(np.float32)
                self.params[f"k{i}"] = ag.parameter(k)
                self.params[f"kb{i}"] = ag.parameter(np.zeros((1, cout, 1, 1), dtype=np.float32))
                cin = cout
            flat = spec.conv_channels[-1] * (H // 4) * (W // 4)
            w, b = _affine_init(rng, flat, spec.conv_hidden)
            self.params["wh"], self.params["bh"] = w, b
            w, b = _affine_init(rng, spec.conv_hidden, spec.classes)
            self.params["wo"], self.params["bo"] = w, b

    def parameters(self):
        return list(self.params.values())

    def freeze(self):
        self.frozen = True
        return self

    def forward(self, batch):
        """-> (logits [B, m], penultimate features [B, d]) from one pass."""
        x = ag.as_tensor(batch)
        B = x.shape[0]
        if tuple(x.shape[1:]) != tuple(self.spec.in_shape):
            raise ShapeError(f"input shape {tuple(x.shape[1:])} does not match "
                             f"classifier spec {tuple(self.spec.in_shape)}")
        if self.spec.kind == "mlp":
            h = ag.reshape(x, (B, -1))
            n_hidden = len(self.spec.hidden)
            for i in range(n_hidden):
                h = ag.leaky_relu(ag.linear(h, self.params[f"w{i}"],
                                            self.params[f"b{i}"]), 0.1)
            feats = h
            logits = ag.linear(h, self.params[f"w{n_hidden}"],
                               self.params[f"b{n_hidden}"])
        else:
            # the image ops run batch-innermost, [C, H, W, B]; the head
            # flattens [B, C, H, W] as before, so checkpoints keep their logits
            h = ag.transpose(x, (1, 2, 3, 0))
            for i, F in enumerate(self.spec.conv_channels):
                h = ag.conv2d(h, self.params[f"k{i}"], stride=1, pad=1)
                bias = ag.reshape(self.params[f"kb{i}"], (F, 1, 1, 1))
                h = ag.leaky_relu(ag.add(h, bias), 0.1)
                h = ag.maxpool2d(h, 2)
            h = ag.reshape(ag.transpose(h, (3, 0, 1, 2)), (B, -1))
            feats = ag.leaky_relu(ag.linear(h, self.params["wh"], self.params["bh"]), 0.1)
            logits = ag.linear(feats, self.params["wo"], self.params["bo"])
        return logits, feats


def classifier_param_count(spec):
    """Closed-form parameter count; guards against wiring bugs."""
    C, H, W = spec.in_shape
    if spec.kind == "mlp":
        dims = [C * H * W, *spec.hidden, spec.classes]
        return sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
    total, cin = 0, C
    for cout in spec.conv_channels:
        total += cout * cin * 9 + cout
        cin = cout
    flat = spec.conv_channels[-1] * (H // 4) * (W // 4)
    total += flat * spec.conv_hidden + spec.conv_hidden
    total += spec.conv_hidden * spec.classes + spec.classes
    return total


class Generator:
    """Affine upsampling stack: concat(z, condition) -> image in [0, 1]."""

    def __init__(self, spec, rng=None):
        rng = rng or np.random.default_rng(0)
        self.spec = spec
        self.params = {}
        C, H, W = spec.out_shape
        dims = [spec.z_dim + spec.cond_width, *spec.hidden, C * H * W]
        for i, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
            w, b = _affine_init(rng, din, dout)
            self.params[f"w{i}"] = w
            self.params[f"b{i}"] = b

    def parameters(self):
        return list(self.params.values())

    def forward(self, z, labels, rng=None, training=None):
        """Generate a batch of images for latent codes ``z`` and class labels.

        ``training`` must be passed explicitly: dropout fires only in
        training mode and then requires an RNG stream.
        """
        if training is None:
            raise ContractError("generator forward requires an explicit training flag")
        if training and rng is None:
            raise ContractError("training-mode generation requires an RNG stream for dropout")
        z = ag.as_tensor(z)
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (z.shape[0],):
            raise ShapeError(f"batch mismatch: {z.shape[0]} latents vs labels of shape {labels.shape}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.spec.classes):
            raise DomainError(f"labels outside [0, {self.spec.classes}): "
                              f"{labels.min()}..{labels.max()}")
        h = ag.concat([z, ag.Tensor(condition_matrix(self.spec)[labels])], axis=1)
        n_hidden = len(self.spec.hidden)
        for i in range(n_hidden):
            h = ag.leaky_relu(ag.linear(h, self.params[f"w{i}"], self.params[f"b{i}"]), 0.1)
            h = ag.dropout(h, self.spec.dropout, rng, training=training)
        out = ag.sigmoid(ag.linear(h, self.params[f"w{n_hidden}"],
                                   self.params[f"b{n_hidden}"]))
        C, H, W = self.spec.out_shape
        return ag.reshape(out, (z.shape[0], C, H, W))


def generator_param_count(spec):
    C, H, W = spec.out_shape
    dims = [spec.z_dim + spec.cond_width, *spec.hidden, C * H * W]
    return sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
