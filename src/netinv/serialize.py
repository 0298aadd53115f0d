"""On-disk formats: NINV checkpoints, PGM/PPM image grids, CSV reports."""

import csv
import dataclasses
import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError, NetinvError
from .models import Classifier, ClassifierSpec, Generator, GeneratorSpec

MAGIC = b"NINV"
FORMAT_VERSION = 2


# model kind -> (spec class, model class)
_MODELS = {"classifier": (ClassifierSpec, Classifier),
           "generator": (GeneratorSpec, Generator)}


def _descriptor(model, seed=0, meta=None):
    kind = next((k for k, (_, cls) in _MODELS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise ContractError(f"cannot serialize object of type {type(model).__name__}")
    return json.dumps({"model": kind, "spec": dataclasses.asdict(model.spec), "seed": seed,
                       "meta": meta or {}}, sort_keys=True)


def _spec_from_descriptor(raw):
    """-> (model class, spec, its layout, info). The spec's own checks decide
    whether each field's value is valid."""
    try:
        info = json.loads(raw.decode("utf-8"))
        spec_cls, model_cls = _MODELS[info["model"]]
        fields = info["spec"]
        names = {f.name for f in dataclasses.fields(spec_cls)}
        if not isinstance(fields, dict) or fields.keys() != names:
            raise FormatError(f"spec fields must be {sorted(names)}")
        spec = spec_cls(**{k: tuple(v) if isinstance(v, list) else v
                           for k, v in fields.items()})
        return model_cls, spec, spec.layout(), info
    except (ArithmeticError, ValueError, KeyError, TypeError, RecursionError,
            NetinvError) as exc:
        raise FormatError(f"bad checkpoint descriptor: {exc}") from exc


def save_checkpoint(model, path, seed=0, meta=None):
    """Binary layout: magic, version, descriptor length, descriptor, every
    parameter as little-endian float32 in ``spec.layout()`` order, then the
    CRC32 of all of that. -> ``path``."""
    desc = _descriptor(model, seed=seed, meta=meta).encode("utf-8")
    parts = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(desc)), desc]
    for name, shape, _ in model.spec.layout():
        data = model.params[name].data
        if data.shape != shape:
            raise ContractError(f"parameter {name!r} has shape {data.shape}, "
                                f"its layout entry {shape}")
        parts.append(np.asarray(data, dtype="<f4").tobytes())
    crc = 0
    with open(path, "wb") as f:
        for part in parts:              # joined, they would be copied a second time
            f.write(part)
            crc = zlib.crc32(part, crc)
        f.write(struct.pack("<I", crc))
    return path


def load_checkpoint(path):
    """-> (model, info dict). Any malformed content raises ``FormatError``.

    The file's bytes are read once and each parameter is copied out at its
    offset in them, so the one copy made is the parameter arrays'."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 16:
        raise FormatError(f"checkpoint {path} truncated ({len(blob)} bytes)")
    end = len(blob) - 4                        # the payload, then its CRC
    want_crc, = struct.unpack_from("<I", blob, end)
    got_crc = zlib.crc32(memoryview(blob)[:end])
    if got_crc != want_crc:
        raise FormatError(f"checkpoint CRC mismatch: stored 0x{want_crc:08x}, "
                          f"computed 0x{got_crc:08x}")
    if blob[:4] != MAGIC:
        raise FormatError(f"bad checkpoint magic {blob[:4]!r} (expected {MAGIC!r})")
    version, size = struct.unpack_from("<II", blob, 4)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    pos = 12 + size
    if pos > end:
        raise FormatError(f"checkpoint truncated: descriptor of {size} bytes, "
                          f"{end - 12} left")
    model_cls, spec, layout, info = _spec_from_descriptor(blob[12:pos])
    n_values = sum(math.prod(shape) for _, shape, _ in layout)
    left = end - pos
    if 4 * n_values != left:
        state = "truncated" if 4 * n_values > left else "too long"
        raise FormatError(f"checkpoint {state}: architecture needs {n_values} values "
                          f"({4 * n_values} bytes), payload holds {left} bytes")
    arrays = {}
    for name, shape, _ in layout:
        n = math.prod(shape)
        arrays[name] = np.frombuffer(blob, dtype="<f4", count=n, offset=pos).reshape(shape).copy()
        pos += 4 * n
    return model_cls.from_arrays(spec, arrays), info


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
