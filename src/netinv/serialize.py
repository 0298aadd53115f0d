"""On-disk formats: NINV checkpoints, PGM/PPM image grids, CSV reports."""

import csv
import dataclasses
import io
import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError, NetinvError
from .models import Classifier, ClassifierSpec, Generator, GeneratorSpec

MAGIC = b"NINV"
FORMAT_VERSION = 1


# model kind -> (spec class, model class)
_MODELS = {"classifier": (ClassifierSpec, Classifier),
           "generator": (GeneratorSpec, Generator)}


def _descriptor(model, seed=0, meta=None):
    kind = next((k for k, (_, cls) in _MODELS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise ContractError(f"cannot serialize object of type {type(model).__name__}")
    return json.dumps({"model": kind, "spec": dataclasses.asdict(model.spec), "seed": seed,
                       "meta": meta or {}}, sort_keys=True)


def _spec_from_descriptor(raw, max_values):
    """-> (model class, spec, its layout, info); the layout may hold at most
    ``max_values`` floats, checked before anything is allocated. The spec's
    own checks decide whether each field's value is valid."""
    try:
        info = json.loads(raw.decode("utf-8"))
        spec_cls, model_cls = _MODELS[info["model"]]
        fields = info["spec"]
        names = {f.name for f in dataclasses.fields(spec_cls)}
        if not isinstance(fields, dict) or fields.keys() != names:
            raise FormatError(f"spec fields must be {sorted(names)}")
        spec = spec_cls(**{k: tuple(v) if isinstance(v, list) else v
                           for k, v in fields.items()})
        layout = spec.layout()
        n_values = sum(math.prod(shape) for _, shape, _ in layout)
        if n_values > max_values:
            raise FormatError(f"architecture needs {n_values} values, "
                              f"payload holds at most {max_values}")
        return model_cls, spec, layout, info
    except (ArithmeticError, ValueError, KeyError, TypeError, RecursionError,
            NetinvError) as exc:
        raise FormatError(f"bad checkpoint descriptor: {exc}") from exc


def save_checkpoint(model, path, seed=0, meta=None):
    """Binary layout: magic, version, descriptor, tensors, trailing CRC32.
    -> ``path``."""
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", FORMAT_VERSION))
    desc = _descriptor(model, seed=seed, meta=meta).encode("utf-8")
    buf.write(struct.pack("<I", len(desc)))
    buf.write(desc)
    params = model.params
    buf.write(struct.pack("<I", len(params)))
    for name, tensor in params.items():
        nb = name.encode("utf-8")
        buf.write(struct.pack("<I", len(nb)))
        buf.write(nb)
        data = np.asarray(tensor.data, dtype="<f4")
        buf.write(struct.pack("<I", data.ndim))
        for dim in data.shape:
            buf.write(struct.pack("<I", dim))
        buf.write(data.tobytes())
    payload = buf.getvalue()
    with open(path, "wb") as f:
        f.write(payload)
        f.write(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
    return path


_U32 = struct.Struct("<I")


class _Cursor:
    """Reads the payload ``blob[:end]`` front to back by offset, copying
    nothing the caller does not slice out."""

    def __init__(self, blob, end):
        self.blob, self.pos, self.end = blob, 0, end

    def skip(self, n):
        """-> the offset of the next ``n`` bytes, which are then passed."""
        pos = self.pos
        if n > self.end - pos:
            raise FormatError(f"checkpoint truncated: wanted {n} bytes, "
                              f"{self.end - pos} left")
        self.pos = pos + n
        return pos

    def read(self, n):
        pos = self.skip(n)
        return self.blob[pos:pos + n]

    def u32s(self, count):
        return struct.unpack_from(f"<{count}I", self.blob, self.skip(4 * count))

    def u32(self):
        return _U32.unpack_from(self.blob, self.skip(4))[0]


def load_checkpoint(path):
    """-> (model, info dict). Any malformed content raises ``FormatError``.

    The file's bytes are read once; the header fields are unpacked and each
    tensor is viewed at its offset in them, so the one copy made is the
    parameter arrays'."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 12:
        raise FormatError(f"checkpoint {path} truncated ({len(blob)} bytes)")
    end = len(blob) - 4                        # the payload, then its CRC
    want_crc, = struct.unpack_from("<I", blob, end)
    got_crc = zlib.crc32(memoryview(blob)[:end]) & 0xFFFFFFFF
    if got_crc != want_crc:
        raise FormatError(f"checkpoint CRC mismatch: stored 0x{want_crc:08x}, "
                          f"computed 0x{got_crc:08x}")
    buf = _Cursor(blob, end)
    magic = buf.read(4)
    if magic != MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r} (expected {MAGIC!r})")
    version = buf.u32()
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    desc = buf.read(buf.u32())
    model_cls, spec, layout, info = _spec_from_descriptor(desc, (end - buf.pos) // 4)
    shapes = {name: shape for name, shape, _ in layout}
    by_name = {name.encode("utf-8"): name for name in shapes}
    count = buf.u32()
    if count != len(by_name):
        raise FormatError(f"checkpoint holds {count} tensors, architecture has {len(by_name)}")
    loaded = {}
    for _ in range(count):
        name = by_name.get(buf.read(buf.u32()))
        if name is None or name in loaded:
            raise FormatError(f"checkpoint tensors do not match architecture "
                              f"parameters {sorted(shapes)}")
        want = shapes[name]
        rank = buf.u32()
        if rank != len(want) or buf.u32s(rank) != want:
            raise FormatError(f"checkpoint tensor {name!r} does not have shape {want}")
        n = math.prod(want)
        data = np.frombuffer(blob, dtype="<f4", count=n, offset=buf.skip(4 * n))
        loaded[name] = data.reshape(want).copy()
    if buf.pos != end:
        raise FormatError("checkpoint has trailing bytes after its tensors")
    return model_cls.from_arrays(spec, loaded), info


# ---------------------------------------------------------------------------


def write_pgm_grid(images, cols, stem):
    """Tile images row-major into one binary file: a PGM (P5) at
    ``stem.pgm`` for 1 channel, a PPM (P6) at ``stem.ppm`` for 3. -> its path."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4:
        raise ContractError(f"expected [N,C,H,W] images, got shape {images.shape}")
    N, C, H, W = images.shape
    if C not in (1, 3):
        raise ContractError("grids support 1 (PGM) or 3 (PPM) channels")
    if N < 1:
        raise ContractError("a grid needs at least one image")
    if cols < 1:
        raise ContractError(f"a grid needs at least one column, got {cols}")
    cols = min(cols, N)
    rows = -(-N // cols)
    gh = rows * H + (rows - 1)
    gw = cols * W + (cols - 1)
    grid = np.zeros((C, gh, gw))
    for i in range(N):
        r, c = divmod(i, cols)
        grid[:, r * (H + 1):r * (H + 1) + H, c * (W + 1):c * (W + 1) + W] = images[i]
    pixels = np.clip(np.rint(grid * 255.0), 0, 255).astype(np.uint8)
    magic, suffix = ("P5", "pgm") if C == 1 else ("P6", "ppm")
    path = Path(f"{stem}.{suffix}")
    with open(path, "wb") as f:
        f.write(f"{magic}\n{gw} {gh}\n255\n".encode("ascii"))
        f.write(pixels.transpose(1, 2, 0).tobytes())    # rows of interleaved channels
    return path


def format_value(v):
    """A CSV field: ints (a bool as 1 or 0) as digits, floats to 9 significant
    digits, anything else as ``str``."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.9g}"
    return str(v)


def write_csv(rows, header, path):
    """Header + rows with RFC-4180 quoting and 9-significant-digit floats.
    -> ``path``."""
    ncol = len(header)
    for i, row in enumerate(rows):
        if len(row) != ncol:
            raise ContractError(f"row {i} has {len(row)} fields, header has {ncol}")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])
    return path
