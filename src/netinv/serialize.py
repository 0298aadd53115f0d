"""On-disk formats: NINV checkpoints, PGM/PPM image grids, CSV reports."""

import csv
import dataclasses
import io
import json
import math
import struct
import zlib

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
    """Binary layout: magic, version, descriptor, tensors, trailing CRC32."""
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


def _read(buf, n):
    data = buf.read(n)
    if len(data) != n:
        raise FormatError(f"checkpoint truncated: wanted {n} bytes, {len(data)} left")
    return data


def _u32(buf):
    return struct.unpack("<I", _read(buf, 4))[0]


def load_checkpoint(path):
    """-> (model, info dict). Any malformed content raises ``FormatError``."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 12:
        raise FormatError(f"checkpoint {path} truncated ({len(blob)} bytes)")
    payload, crc_bytes = blob[:-4], blob[-4:]
    want_crc, = struct.unpack("<I", crc_bytes)
    got_crc = zlib.crc32(payload) & 0xFFFFFFFF
    if got_crc != want_crc:
        raise FormatError(f"checkpoint CRC mismatch: stored 0x{want_crc:08x}, "
                          f"computed 0x{got_crc:08x}")
    buf = io.BytesIO(payload)
    magic = buf.read(4)
    if magic != MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r} (expected {MAGIC!r})")
    version = _u32(buf)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    desc = _read(buf, _u32(buf))
    model_cls, spec, layout, info = _spec_from_descriptor(desc, (len(payload) - buf.tell()) // 4)
    shapes = {name: shape for name, shape, _ in layout}
    by_name = {name.encode("utf-8"): name for name in shapes}
    count = _u32(buf)
    if count != len(by_name):
        raise FormatError(f"checkpoint holds {count} tensors, architecture has {len(by_name)}")
    loaded = {}
    for _ in range(count):
        name = by_name.get(_read(buf, _u32(buf)))
        if name is None or name in loaded:
            raise FormatError(f"checkpoint tensors do not match architecture "
                              f"parameters {sorted(shapes)}")
        want = shapes[name]
        rank = _u32(buf)
        if rank != len(want) or struct.unpack(f"<{rank}I", _read(buf, 4 * rank)) != want:
            raise FormatError(f"checkpoint tensor {name!r} does not have shape {want}")
        data = np.frombuffer(_read(buf, 4 * math.prod(want)), dtype="<f4")
        loaded[name] = data.reshape(want).copy()
    if buf.read(1):
        raise FormatError("checkpoint has trailing bytes after its tensors")
    return model_cls.from_arrays(spec, loaded), info


# ---------------------------------------------------------------------------


def write_pgm_grid(images, cols, path):
    """Tile images row-major into one binary PGM (P5) / PPM (P6) file."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4:
        raise ContractError(f"expected [N,C,H,W] images, got shape {images.shape}")
    N, C, H, W = images.shape
    if C not in (1, 3):
        raise ContractError("grids support 1 (PGM) or 3 (PPM) channels")
    cols = min(cols, N)
    rows = -(-N // cols)
    gh = rows * H + (rows - 1)
    gw = cols * W + (cols - 1)
    grid = np.zeros((C, gh, gw))
    for i in range(N):
        r, c = divmod(i, cols)
        grid[:, r * (H + 1):r * (H + 1) + H, c * (W + 1):c * (W + 1) + W] = images[i]
    pixels = np.clip(np.rint(grid * 255.0), 0, 255).astype(np.uint8)
    try:
        with open(path, "wb") as f:
            if C == 1:
                f.write(f"P5\n{gw} {gh}\n255\n".encode("ascii"))
                f.write(pixels[0].tobytes())
            else:
                f.write(f"P6\n{gw} {gh}\n255\n".encode("ascii"))
                f.write(pixels.transpose(1, 2, 0).tobytes())
    except OSError as exc:
        raise FormatError(f"failed writing image grid to {path}: {exc}") from exc


def format_value(v):
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.9g}"
    return str(v)


def write_csv(rows, header, path):
    """Header + rows with RFC-4180 quoting and 9-significant-digit floats."""
    ncol = len(header)
    for i, row in enumerate(rows):
        if len(row) != ncol:
            raise ContractError(f"row {i} has {len(row)} fields, header has {ncol}")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])
