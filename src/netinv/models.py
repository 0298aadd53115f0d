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
from .errors import DomainError, ShapeError


@dataclass
class ClassifierSpec:
    kind: str = "mlp"                  # mlp | cnn
    in_shape: tuple = (1, 12, 12)      # C, H, W
    hidden: tuple = (256, 128)         # MLP widths
    # CNN filter counts. A layer is a 3x3 conv, a 2x2 max-pool halving H x W, the
    # bias and a leaky ReLU: exact with the pool first, as the bias is per filter
    # and the slope positive; the pool's adjoint goes to the first tap, row-major,
    # holding the window's maximum pre-activation
    conv_channels: tuple = (8, 16)
    conv_hidden: int = 64              # CNN post-flatten affine width
    classes: int = 3

    def __post_init__(self):
        if self.kind not in ("mlp", "cnn"):
            raise DomainError(f"unknown classifier kind {self.kind!r}")
        _check_int("classes", self.classes, 2)
        _check_dims("in_shape", self.in_shape, rank=3)
        _check_dims("hidden", self.hidden)
        _check_dims("conv_channels", self.conv_channels)
        _check_int("conv_hidden", self.conv_hidden)
        if self.kind == "cnn":
            if not self.conv_channels:
                raise DomainError("cnn spec needs at least one conv layer")
            if any(d % self.downsample for d in self.in_shape[1:]):
                raise DomainError(f"cnn spec needs H, W divisible by {self.downsample} "
                                  f"(one 2x2 pool per conv layer)")

    @property
    def downsample(self):
        """CNN spatial reduction: each conv layer pools 2x2."""
        return 2 ** len(self.conv_channels)

    def layout(self):
        """[(name, shape, fan-in or None for zeros)] of the parameters, in order."""
        C, H, W = self.in_shape
        if self.kind == "mlp":
            return _affine_stack([C * H * W, *self.hidden, self.classes])
        convs, cin = [], C
        for i, cout in enumerate(self.conv_channels):
            convs += [(f"k{i}", (cout, cin, 3, 3), cin * 9), (f"kb{i}", (1, cout, 1, 1), None)]
            cin = cout
        flat = cin * (H // self.downsample) * (W // self.downsample)
        return (convs + _affine("wh", "bh", flat, self.conv_hidden)
                + _affine("wo", "bo", self.conv_hidden, self.classes))


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
        _check_int("classes", self.classes, 2)
        _check_int("z_dim", self.z_dim)
        _check_int("cond_dim", self.cond_dim)
        _check_dims("hidden", self.hidden)
        _check_dims("out_shape", self.out_shape, rank=3)
        _check_int("cond_seed", self.cond_seed, 0)
        if not ((_is_int(self.dropout) or isinstance(self.dropout, (float, np.floating)))
                and 0.0 <= self.dropout < 1.0):
            raise DomainError(f"dropout rate must be a number in [0, 1), got {self.dropout!r}")
        if self.cond_mode == "hidden" and self.cond_dim < self.classes:
            raise DomainError("hidden condition width must be >= class count")

    @property
    def cond_width(self):
        return self.classes if self.cond_mode == "hot" else self.cond_dim

    def layout(self):
        """[(name, shape, fan-in or None for zeros)] of the parameters, in order."""
        C, H, W = self.out_shape
        return _affine_stack([self.z_dim + self.cond_width, *self.hidden, C * H * W])


def _is_int(v):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_int(name, value, low=1):
    if not _is_int(value) or value < low:
        raise DomainError(f"{name} must be an int >= {low}, got {value!r}")


def _check_dims(name, dims, rank=None):
    """``dims`` must be a tuple of positive ints, of length ``rank`` when given
    (an empty ``hidden`` is a valid spec: no hidden layer)."""
    if (not isinstance(dims, tuple) or (rank is not None and len(dims) != rank)
            or not all(_is_int(d) and d > 0 for d in dims)):
        want = f"{rank} positive ints" if rank else "positive ints"
        raise DomainError(f"{name} must be {want}, got {dims!r}")


def _affine(w_name, b_name, fan_in, fan_out):
    return [(w_name, (fan_in, fan_out), fan_in), (b_name, (1, fan_out), None)]


def _affine_stack(dims):
    """Layers w0/b0, w1/b1, ... mapping dims[0] -> dims[1] -> ... -> dims[-1]."""
    return [entry for i, (din, dout) in enumerate(zip(dims[:-1], dims[1:]))
            for entry in _affine(f"w{i}", f"b{i}", din, dout)]


def _init_params(layout, rng):
    """{name: parameter}: a He-normal draw from ``rng`` per weight, in layout
    order, and zeros where the layout gives no fan-in."""
    params = {}
    for name, shape, fan_in in layout:
        data = (np.zeros(shape, dtype=np.float32) if fan_in is None else
                rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(np.float32))
        params[name] = ag.parameter(data)
    return params


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


class Model:
    """A spec and its parameters, ``params`` in ``spec.layout()`` order.

    Each model writes its layer sequence once, as a function of an ops
    namespace. ``forward`` runs it with the tape ops (``autograd`` itself)
    and always records; ``Classifier.predict`` and ``Generator.sample`` run
    it with their plain-array twins (``autograd.arrays``), arrays in and
    arrays out: the same arithmetic, and no tape node.
    """

    def __init__(self, spec, rng):
        self.spec = spec
        self.params = _init_params(spec.layout(), rng)

    @classmethod
    def from_arrays(cls, spec, arrays):
        """The model of ``spec`` holding ``arrays`` ({name: ndarray}, any
        order), its parameters in layout order; draws no random numbers."""
        model = cls.__new__(cls)
        model.spec = spec
        model.params = {name: ag.parameter(arrays[name]) for name, _, _ in spec.layout()}
        return model

    def parameters(self):
        return list(self.params.values())

    def param_arrays(self):
        """{name: the parameter's array}, for a pass by the array twins."""
        return {name: t.data for name, t in self.params.items()}


def _classifier_layers(ops, spec, p, x):
    """The classifier's layers on the [B, C, H, W] batch ``x`` -> (logits [B,
    m], penultimate features [B, d]), run by ``ops`` on ``x`` and ``p`` of
    the kind it takes."""
    B = x.shape[0]
    if spec.kind == "mlp":
        h = ops.reshape(x, (B, -1))
        n_hidden = len(spec.hidden)
        for i in range(n_hidden):
            h = ops.linear(h, p[f"w{i}"], p[f"b{i}"], leaky=True)
        return ops.linear(h, p[f"w{n_hidden}"], p[f"b{n_hidden}"]), h
    # the image ops run batch-innermost, [C, H, W, B]; the head flattens
    # [B, C, H, W] as before, so checkpoints keep their logits
    h = ops.transpose(x, (1, 2, 3, 0))
    for i in range(len(spec.conv_channels)):
        h = ops.conv2d(h, p[f"k{i}"], p[f"kb{i}"])
    h = ops.reshape(ops.transpose(h, (3, 0, 1, 2)), (B, -1))
    feats = ops.linear(h, p["wh"], p["bh"], leaky=True)
    return ops.linear(feats, p["wo"], p["bo"]), feats


def _generator_layers(ops, spec, p, h, rng):
    """The generator's layers on its input rows ``h`` [B, z_dim +
    cond_width], each a latent and its label's condition row -> images
    [B, C, H, W], run by ``ops``."""
    n_hidden = len(spec.hidden)
    for i in range(n_hidden):
        h = ops.linear(h, p[f"w{i}"], p[f"b{i}"], leaky=True)
        h = ops.dropout(h, spec.dropout, rng)
    out = ops.sigmoid(ops.linear(h, p[f"w{n_hidden}"], p[f"b{n_hidden}"]))
    return ops.reshape(out, (h.shape[0], *spec.out_shape))


class Classifier(Model):
    """MLP or small CNN; forward yields logits and penultimate features."""

    frozen = False

    def freeze(self):
        self.frozen = True
        return self

    def _checked(self, x):
        """``x`` itself, once its rows have the spec's input shape."""
        if tuple(x.shape[1:]) != tuple(self.spec.in_shape):
            raise ShapeError(f"input shape {tuple(x.shape[1:])} does not match "
                             f"classifier spec {tuple(self.spec.in_shape)}")
        return x

    def forward(self, batch):
        """-> (logits [B, m], penultimate features [B, d]) Tensors, recorded."""
        x = self._checked(ag.as_tensor(batch))
        return _classifier_layers(ag, self.spec, self.params, x)

    def predict(self, batch):
        """``forward``'s (logits, features) as arrays; records nothing."""
        x = self._checked(np.asarray(batch, dtype=ag.DEFAULT_DTYPE))
        return _classifier_layers(ag.arrays, self.spec, self.param_arrays(), x)


class Generator(Model):
    """Affine upsampling stack: [z | condition row] -> image in [0, 1]."""

    def _inputs(self, z, labels):
        """The input rows [B, z_dim + cond_width] of latents ``z`` [B, z_dim]:
        each latent, then the condition row of its label. Both are data, so
        the rows are an array, not a tape node."""
        z = np.asarray(z, dtype=ag.DEFAULT_DTYPE)
        labels = np.asarray(labels, dtype=np.int64)
        n = z.shape[0]
        if labels.shape != (n,):
            raise ShapeError(f"batch mismatch: {n} latents vs labels of shape {labels.shape}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.spec.classes):
            raise DomainError(f"labels outside [0, {self.spec.classes}): "
                              f"{labels.min()}..{labels.max()}")
        return np.concatenate([z, condition_matrix(self.spec)[labels]], axis=1)

    def forward(self, z, labels, rng):
        """Recorded training-mode images [B, C, H, W]; dropout draws from ``rng``."""
        h = ag.Tensor(self._inputs(z, labels))
        return _generator_layers(ag, self.spec, self.params, h, rng)

    def sample(self, z, labels):
        """Eval-mode images as an array: no dropout, no draw, no tape node."""
        return _generator_layers(ag.arrays, self.spec, self.param_arrays(),
                                 self._inputs(z, labels), None)
