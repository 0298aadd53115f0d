import csv
import dataclasses
import json
import math
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netinv import models
from netinv.errors import ContractError, FormatError
from netinv.models import Classifier, ClassifierSpec, Generator, GeneratorSpec
from netinv.serialize import load_checkpoint, save_checkpoint, write_csv, write_pgm_grid


def read_pgm(path):
    """Minimal P5/P6 reader for round-trip checks; -> float [C, H, W] in [0, 1]."""
    with open(path, "rb") as f:
        magic = f.readline().strip()
        assert magic in (b"P5", b"P6"), magic
        w, h = map(int, f.readline().split())
        maxval = int(f.readline())
        channels = 1 if magic == b"P5" else 3
        data = np.frombuffer(f.read(w * h * channels), dtype=np.uint8)
    return (data.astype(np.float64).reshape(h, w, channels) / maxval).transpose(2, 0, 1)


def write_signed(path, payload):
    """Write ``payload`` with a fresh CRC, so an edit gets past the CRC check."""
    path.write_bytes(bytes(payload) + struct.pack("<I", zlib.crc32(payload)))


def rewrite_spec(path, fields):
    """Replace spec fields of the checkpoint at ``path``'s descriptor and re-sign it."""
    payload = path.read_bytes()[:-4]
    size, = struct.unpack("<I", payload[8:12])
    desc = json.loads(payload[12:12 + size])
    desc["spec"].update(fields)
    raw = json.dumps(desc).encode("utf-8")
    write_signed(path, payload[:8] + struct.pack("<I", len(raw)) + raw + payload[12 + size:])


def tensor_records(payload):
    """-> (the bytes up to and including the tensor count, [each tensor's
    record bytes]) of a checkpoint payload without its CRC."""
    size, = struct.unpack("<I", payload[8:12])
    pos = 16 + size
    count, = struct.unpack("<I", payload[pos - 4:pos])
    records = []
    for _ in range(count):
        start = pos
        pos += 4 + struct.unpack_from("<I", payload, pos)[0]
        rank, = struct.unpack_from("<I", payload, pos)
        dims = struct.unpack_from(f"<{rank}I", payload, pos + 4)
        pos += 4 + 4 * rank + 4 * math.prod(dims)
        records.append(payload[start:pos])
    assert pos == len(payload)
    return payload[:16 + size], records


def matches_layout(model):
    """The model's parameters have its spec's layout: names, order and shapes."""
    return ([(name, p.shape) for name, p in model.params.items()]
            == [(name, shape) for name, shape, _ in model.spec.layout()])


class TestCheckpoint:
    def test_classifier_round_trip_bitwise(self, tmp_path):
        clf = Classifier(ClassifierSpec(kind="cnn", classes=5),
                         rng=np.random.default_rng(0))
        path = tmp_path / "clf.ninv"
        save_checkpoint(clf, path, seed=42, meta={"note": "test"})
        loaded, info = load_checkpoint(path)
        assert isinstance(loaded, Classifier)
        assert loaded.spec == clf.spec
        assert info["seed"] == 42
        for name in clf.params:
            np.testing.assert_array_equal(loaded.params[name].data,
                                          clf.params[name].data)

    def test_generator_round_trip(self, tmp_path):
        gen = Generator(GeneratorSpec(classes=4, cond_mode="hot"),
                        rng=np.random.default_rng(1))
        path = tmp_path / "gen.ninv"
        save_checkpoint(gen, path)
        loaded, _ = load_checkpoint(path)
        assert isinstance(loaded, Generator)
        assert loaded.spec == gen.spec
        for name in gen.params:
            np.testing.assert_array_equal(loaded.params[name].data,
                                          gen.params[name].data)

    def test_flipped_byte_fails_crc(self, tmp_path):
        clf = Classifier(ClassifierSpec(), rng=np.random.default_rng(2))
        path = tmp_path / "clf.ninv"
        save_checkpoint(clf, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="CRC"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        clf = Classifier(ClassifierSpec(), rng=np.random.default_rng(0))
        path = tmp_path / "clf.ninv"
        save_checkpoint(clf, path)
        blob = bytearray(path.read_bytes())
        blob[0:4] = b"XXXX"
        write_signed(path, blob[:-4])     # only the magic is wrong
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind, fields, match", [
        ("mlp", {"hidden": [1 << 20, 1 << 20]}, "architecture needs"),
        ("cnn", {"in_shape": [1, 4, 6]}, "divisible by 4"),
        ("cnn", {"conv_channels": [2, 3, 4]}, "divisible by 8"),
        # an empty list reaches the spec's own checks, or its layout's
        ("cnn", {"conv_channels": []}, "at least one conv layer"),
        ("mlp", {"in_shape": []}, "bad checkpoint descriptor"),
        ("generator", {"out_shape": []}, "bad checkpoint descriptor"),
    ])
    def test_descriptor_spec_rejected_before_allocation(self, tmp_path, kind, fields, match):
        model = FUZZ_MODELS[kind]
        path = tmp_path / "m.ninv"
        save_checkpoint(model, path)
        rewrite_spec(path, fields)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=match):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_deeply_nested_descriptor_raises_format_error(self, tmp_path):
        path = tmp_path / "m.ninv"
        save_checkpoint(FUZZ_MODELS["mlp"], path)
        payload = path.read_bytes()[:-4]
        size, = struct.unpack("<I", payload[8:12])
        raw = b'{"spec": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
        write_signed(path, payload[:8] + struct.pack("<I", len(raw)) + raw + payload[12 + size:])
        with pytest.raises(FormatError, match="bad checkpoint descriptor"):
            load_checkpoint(path)

    @pytest.mark.parametrize("model", [
        Classifier(ClassifierSpec(hidden=()), rng=np.random.default_rng(4)),
        Generator(GeneratorSpec(hidden=()), rng=np.random.default_rng(5)),
    ], ids=["classifier", "generator"])
    def test_no_hidden_layers_round_trip_bitwise(self, tmp_path, model):
        path = tmp_path / "m.ninv"
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        assert type(loaded) is type(model) and loaded.spec == model.spec
        assert loaded.params.keys() == model.params.keys()
        for name, p in model.params.items():
            got = loaded.params[name].data
            assert got.dtype == p.data.dtype and got.tobytes() == p.data.tobytes()

    @pytest.mark.parametrize("kind", ["mlp", "generator"])
    def test_every_truncation_raises_format_error(self, tmp_path, kind):
        """Each proper prefix of the payload, re-signed, is refused, and a cut
        inside the tensors is reported as a truncation."""
        path = tmp_path / "m.ninv"
        save_checkpoint(FUZZ_MODELS[kind], path)
        payload = path.read_bytes()[:-4]
        for end in range(len(payload)):
            write_signed(path, payload[:end])
            with pytest.raises(FormatError) as err:
                load_checkpoint(path)
            if end > len(payload) - 16:
                assert "truncated" in str(err.value)

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_load_holds_about_one_copy_of_the_file(self, tmp_path, kind):
        """A load keeps the file's bytes and the parameter arrays, nothing
        more of the payload's size."""
        path = tmp_path / "m.ninv"
        save_checkpoint(Classifier(ClassifierSpec(kind=kind), rng=np.random.default_rng(0)),
                        path)
        load_checkpoint(path)
        tracemalloc.start()
        try:
            load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * path.stat().st_size

    def test_save_is_deterministic(self, tmp_path):
        clf = Classifier(ClassifierSpec(), rng=np.random.default_rng(3))
        a, b = tmp_path / "a.ninv", tmp_path / "b.ninv"
        save_checkpoint(clf, a, seed=1)
        save_checkpoint(clf, b, seed=1)
        assert a.read_bytes() == b.read_bytes()


FUZZ_MODELS = {
    "mlp": Classifier(ClassifierSpec(hidden=(6, 4)), rng=np.random.default_rng(7)),
    "cnn": Classifier(ClassifierSpec(kind="cnn", in_shape=(1, 4, 4), conv_channels=(2, 3),
                                     conv_hidden=4), rng=np.random.default_rng(8)),
    "generator": Generator(GeneratorSpec(z_dim=3, cond_dim=4, hidden=(5, 6),
                                         out_shape=(1, 4, 4)), rng=np.random.default_rng(9)),
}

# one edit replaces ``cut`` bytes at ``pos`` with ``new``: a substitution, an
# insertion or a deletion; half the positions fall in the header and descriptor
EDITS = st.lists(st.tuples(st.one_of(st.integers(0, 400), st.integers(0, 1 << 20)),
                           st.binary(max_size=3), st.integers(0, 3)),
                 min_size=1, max_size=4)


class TestCorruptCheckpoint:
    @pytest.mark.parametrize("kind", sorted(FUZZ_MODELS))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=EDITS)
    def test_mutated_payload_raises_only_format_error(self, tmp_path, kind, edits):
        model = FUZZ_MODELS[kind]
        path = tmp_path / "m.ninv"
        save_checkpoint(model, path)
        payload = bytearray(path.read_bytes()[:-4])
        for pos, new, cut in edits:
            pos %= len(payload) + 1
            payload[pos:pos + cut] = new
        write_signed(path, payload)
        try:
            loaded, _ = load_checkpoint(path)
        except FormatError:
            return
        assert matches_layout(loaded)
        assert all(p.dtype == np.float32 for p in loaded.parameters())


# any JSON value: small ints (valid sizes among them), huge ints, floats with
# NaN and infinities, strings, and lists and dicts of them, nested
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.integers() | st.floats()
    | st.text(max_size=4) | st.sampled_from(["mlp", "cnn", "hot", "hidden"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=8)


class TestDescriptorFields:
    @pytest.mark.parametrize("kind", sorted(FUZZ_MODELS))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_field_value_loads_or_raises_format_error(self, tmp_path, kind, data):
        """One spec field of the descriptor set to any JSON value: the load
        raises FormatError, or its model has the spec of those values."""
        model = FUZZ_MODELS[kind]
        fields = dataclasses.asdict(model.spec)
        name = data.draw(st.sampled_from(sorted(fields)))
        fields[name] = data.draw(JSON_VALUES)
        path = tmp_path / "m.ninv"
        save_checkpoint(model, path)
        rewrite_spec(path, {name: fields[name]})
        try:
            loaded, _ = load_checkpoint(path)
        except FormatError:
            return
        assert loaded.spec == type(model.spec)(**{k: tuple(v) if isinstance(v, list) else v
                                                  for k, v in fields.items()})
        assert matches_layout(loaded)

    @pytest.mark.parametrize("kind", sorted(FUZZ_MODELS))
    def test_tensors_in_any_order_load_in_layout_order(self, tmp_path, kind):
        model = FUZZ_MODELS[kind]
        path = tmp_path / "m.ninv"
        save_checkpoint(model, path)
        original = path.read_bytes()
        head, records = tensor_records(original[:-4])
        write_signed(path, head + b"".join(reversed(records)))
        loaded, _ = load_checkpoint(path)
        assert list(loaded.params) == [name for name, _, _ in model.spec.layout()]
        save_checkpoint(loaded, path)
        assert path.read_bytes() == original

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        for kind, model in FUZZ_MODELS.items():
            save_checkpoint(model, tmp_path / f"{kind}.ninv")

        def no_draw(*args, **kwargs):
            raise AssertionError("a checkpoint load drew random numbers")

        monkeypatch.setattr(models, "_init_params", no_draw)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        for kind, model in FUZZ_MODELS.items():
            loaded, _ = load_checkpoint(tmp_path / f"{kind}.ninv")
            assert type(loaded) is type(model) and loaded.spec == model.spec
            assert matches_layout(loaded)
            for name, p in model.params.items():
                assert loaded.params[name].data.tobytes() == p.data.tobytes()


class TestPgm:
    def test_exact_bytes_single_image(self, tmp_path):
        img = np.array([[[[0.0, 1.0], [1.0, 0.0]]]])
        path = write_pgm_grid(img, 1, tmp_path / "one")
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0])

    def test_grid_rows_arithmetic(self, tmp_path):
        imgs = np.zeros((5, 1, 3, 3))
        path = write_pgm_grid(imgs, 2, tmp_path / "grid")
        header = path.read_bytes().split(b"\n")
        w, h = map(int, header[1].split())
        assert h == 3 * 3 + 2       # ceil(5/2)=3 rows with 1-px separators
        assert w == 2 * 3 + 1

    def test_readback_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        imgs = rng.uniform(size=(1, 1, 6, 6))
        back = read_pgm(write_pgm_grid(imgs, 1, tmp_path / "rt"))
        np.testing.assert_allclose(back[0], imgs[0, 0], atol=1 / 255)

    @pytest.mark.parametrize("count, cols", [(0, 2), (2, 0), (2, -1)])
    def test_no_image_or_no_column_rejected(self, tmp_path, count, cols):
        with pytest.raises(ContractError, match="at least one"):
            write_pgm_grid(np.zeros((count, 1, 3, 3)), cols, tmp_path / "none")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("channels, name", [(1, "c.pgm"), (3, "c.ppm")])
    def test_suffix_follows_channel_count(self, tmp_path, channels, name):
        """1 channel is written as a PGM, 3 as a PPM, each at the stem plus
        its suffix; the path returned is the one file written."""
        imgs = np.random.default_rng(5).uniform(size=(2, channels, 4, 4))
        path = write_pgm_grid(imgs, 2, tmp_path / "c")
        assert path == tmp_path / name and list(tmp_path.iterdir()) == [path]
        assert read_pgm(path).shape == (channels, 4, 9)

    def test_csv_and_checkpoint_writers_return_their_path(self, tmp_path):
        csv_path, ckpt_path = tmp_path / "rows.csv", tmp_path / "model.ninv"
        assert write_csv([[1]], ["a"], csv_path) == csv_path
        assert save_checkpoint(FUZZ_MODELS["mlp"], ckpt_path) == ckpt_path
        assert sorted(tmp_path.iterdir()) == [ckpt_path, csv_path]


class TestCsv:
    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], ["a", "b"], path)
        assert path.read_text() == "a,b\n"

    def test_comma_value_quoted(self, tmp_path):
        path = tmp_path / "q.csv"
        write_csv([["x,y", 1]], ["name", "value"], path)
        assert '"x,y"' in path.read_text()

    def test_round_trip_precision(self, tmp_path):
        rng = np.random.default_rng(6)
        rows = [[i, rng.normal() * 10.0 ** float(rng.integers(-6, 6))]
                for i in range(1000)]
        path = tmp_path / "vals.csv"
        write_csv(rows, ["i", "v"], path)
        with open(path, newline="") as f:
            reader = csv.reader(f)
            next(reader)
            for want, got in zip(rows, reader):
                assert float(got[1]) == pytest.approx(want[1], rel=1e-8)

    def test_row_length_mismatch(self, tmp_path):
        with pytest.raises(ContractError):
            write_csv([[1, 2, 3]], ["a", "b"], tmp_path / "bad.csv")
