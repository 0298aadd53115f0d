"""Dataset ingestion: synthetic desk-scale families and IDX files."""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FormatError

FAMILIES = ("bars", "crosses", "blobs", "rings")


@dataclass
class Dataset:
    images: np.ndarray        # [N, C, H, W] float32 in [0, 1]
    labels: np.ndarray        # [N] int64 in [0, n)
    name: str = "dataset"

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4 or len(self.labels) != len(self.images):
            raise FormatError(f"dataset shape mismatch: images {self.images.shape}, "
                              f"labels {self.labels.shape}")
        if len(self.images) < 1:
            raise FormatError("dataset must contain at least one sample")
        if self.images.min() < 0.0 or self.images.max() > 1.0:
            raise FormatError("pixel values outside [0, 1]")

    def __len__(self):
        return len(self.images)

    @property
    def n_classes(self):
        return int(self.labels.max()) + 1

    @property
    def image_shape(self):
        return self.images.shape[1:]


@dataclass
class SynthSpec:
    family: str = "bars"
    classes: int = 3
    size: int = 12
    noise: float = 0.1
    channels: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown synthetic family {self.family!r}; choices: {FAMILIES}")
        if self.classes < 2:
            raise DomainError("need at least 2 classes")
        if self.channels not in (1, 3):
            raise DomainError("channels must be 1 or 3")
        if not 0.0 <= self.noise < 1.0:
            raise DomainError("noise level must be in [0, 1)")
        if self.family != "blobs":
            # these templates draw no random numbers: each class must have its own
            drawn = {_template(self, k, None).tobytes() for k in range(self.classes)}
            blank = np.zeros((self.size, self.size), dtype=np.float32).tobytes()
            if len(drawn) < self.classes or blank in drawn:
                raise DomainError(f"{self.family} at size {self.size} has no distinct, "
                                  f"non-blank template for each of {self.classes} classes")


def _template(spec, label, rng):
    """Clean image for one sample of ``label``; only blobs jitter per sample
    and draw from ``rng``."""
    s = spec.size
    img = np.zeros((s, s), dtype=np.float32)
    if spec.family == "bars":
        band = max(1, s // spec.classes)
        r0 = label * band
        img[r0:r0 + band, :] = 1.0
    elif spec.family == "crosses":
        # cross arm position walks along the diagonal with the class index
        step = max(1, (s - 3) // max(1, spec.classes - 1))
        c = 1 + label * step
        c = min(c, s - 2)
        img[c, :] = 1.0
        img[:, c] = 1.0
    elif spec.family == "blobs":
        # class fixes a coarse region; each sample jitters inside it
        band = s / spec.classes
        cy = band * label + band / 2 + rng.uniform(-band / 4, band / 4)
        cx = s / 2 + rng.uniform(-s / 4, s / 4)
        yy, xx = np.mgrid[0:s, 0:s]
        sigma = max(1.0, s / 8)
        img = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma ** 2)).astype(np.float32)
    elif spec.family == "rings":
        radius = 1.5 + label * (s / 2 - 2.0) / max(1, spec.classes - 1)
        yy, xx = np.mgrid[0:s, 0:s]
        dist = np.sqrt((yy - s / 2 + 0.5) ** 2 + (xx - s / 2 + 0.5) ** 2)
        img = (np.abs(dist - radius) < 1.0).astype(np.float32)
    return img


# fixed per-class tints for 3-channel variants
_TINTS = np.array([[1.0, 0.3, 0.3], [0.3, 1.0, 0.3], [0.3, 0.3, 1.0],
                   [1.0, 1.0, 0.3], [1.0, 0.3, 1.0], [0.3, 1.0, 1.0]], dtype=np.float32)


def _generate(spec, count, rng):
    labels = np.arange(count) % spec.classes
    rng.shuffle(labels)
    images = np.empty((count, spec.channels, spec.size, spec.size), dtype=np.float32)
    for i, lab in enumerate(labels):
        base = _template(spec, int(lab), rng)
        if spec.channels == 3:
            tint = _TINTS[int(lab) % len(_TINTS)]
            chans = base[None, :, :] * tint[:, None, None]
        else:
            chans = base[None, :, :]
        if spec.noise > 0:
            chans = chans + rng.normal(0.0, spec.noise, size=chans.shape)
        images[i] = np.clip(chans, 0.0, 1.0)
    return images, labels.astype(np.int64)


_SPLITS = ("train", "test")


def synth_split(spec, split, count):
    """One deterministic synthetic split ("train" or "test"), drawn from its
    own RNG substream, so each split is the same whether or not the other is
    built."""
    if count < spec.classes:
        raise DomainError(f"the {split} split needs at least one sample per class")
    seq = np.random.SeedSequence(spec.seed, spawn_key=(_SPLITS.index(split),))
    images, labels = _generate(spec, count, np.random.default_rng(seq))
    return Dataset(images, labels, f"synth-{spec.family}{spec.classes}")


def synth_dataset(spec, n_train, n_test):
    """-> (train, test) synthetic splits."""
    return synth_split(spec, "train", n_train), synth_split(spec, "test", n_test)


# ---------------------------------------------------------------------------
# IDX ingestion (MNIST/FashionMNIST distribution format)

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _read_idx(path, magic, ndim):
    """-> (the ``ndim`` dimensions, a u8 view of their product in bytes) of
    the IDX file at ``path``, read once; its magic must be ``magic``, and its
    header and payload must fit the file's bytes, so a header that claims a
    huge payload allocates nothing."""
    with open(path, "rb") as f:
        blob = f.read()
    head = 4 * (1 + ndim)
    if len(blob) < head:
        raise FormatError(f"truncated IDX file {path}: wanted a {head}-byte header, "
                          f"{len(blob)} bytes in file")
    got, *dims = struct.unpack_from(f">{1 + ndim}I", blob)
    if got != magic:
        raise FormatError(f"bad IDX magic 0x{got:08x} in {path} (expected 0x{magic:08x})")
    if 0 in dims:
        raise FormatError(f"IDX file {path} is {'x'.join(map(str, dims))}: zero dimension")
    size = math.prod(dims)
    if size > len(blob) - head:
        raise FormatError(f"truncated IDX file {path}: wanted {size} bytes, "
                          f"{len(blob) - head} left")
    return dims, np.frombuffer(blob, dtype=np.uint8, count=size, offset=head)


def load_idx(images_path, labels_path, limit=None):
    """Parse a u8 image tensor / label IDX pair into a Dataset."""
    (n, h, w), pixels = _read_idx(images_path, _IDX_IMAGES_MAGIC, 3)
    (nl,), labels = _read_idx(labels_path, _IDX_LABELS_MAGIC, 1)
    if n != nl:
        raise FormatError(f"IDX count mismatch: {n} images vs {nl} labels")
    images = pixels.reshape(n, 1, h, w)
    if limit is not None:
        images, labels = images[:limit], labels[:limit]
    return Dataset(images.astype(np.float32) / 255.0, labels.astype(np.int64), name="idx")
