import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netinv.data import Dataset, SynthSpec, load_idx, synth_dataset
from netinv.errors import DomainError, FormatError


class TestSynth:
    def test_deterministic(self):
        spec = SynthSpec(family="bars", classes=3, size=12, noise=0.1, seed=5)
        a_train, a_test = synth_dataset(spec, 60, 30)
        b_train, b_test = synth_dataset(spec, 60, 30)
        np.testing.assert_array_equal(a_train.images, b_train.images)
        np.testing.assert_array_equal(a_test.images, b_test.images)
        np.testing.assert_array_equal(a_train.labels, b_train.labels)

    def test_noiseless_bars_nearest_template(self):
        spec = SynthSpec(family="bars", classes=3, size=12, noise=0.0, seed=1)
        train, _ = synth_dataset(spec, 30, 30)
        templates = {}
        for img, lab in zip(train.images, train.labels):
            key = int(lab)
            if key in templates:
                np.testing.assert_array_equal(img, templates[key])
            templates[key] = img
        # nearest-template classification is perfect
        keys = sorted(templates)
        for img, lab in zip(train.images, train.labels):
            dists = [np.sum((img - templates[k]) ** 2) for k in keys]
            assert keys[int(np.argmin(dists))] == lab

    def test_splits_disjoint_at_noise(self):
        spec = SynthSpec(family="bars", classes=3, size=12, noise=0.1, seed=2)
        train, test = synth_dataset(spec, 50, 50)
        train_bytes = {img.tobytes() for img in train.images}
        assert not any(img.tobytes() in train_bytes for img in test.images)

    def test_pixels_in_range(self):
        for family in ("bars", "crosses", "blobs", "rings"):
            spec = SynthSpec(family=family, classes=3, size=12, noise=0.2, seed=3)
            train, test = synth_dataset(spec, 30, 30)
            for ds in (train, test):
                assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_three_channel(self):
        spec = SynthSpec(family="bars", classes=3, size=12, noise=0.1,
                         channels=3, seed=4)
        train, _ = synth_dataset(spec, 30, 30)
        assert train.images.shape[1] == 3

    def test_bad_family(self):
        with pytest.raises(DomainError):
            SynthSpec(family="stripes")

    def test_too_small_split(self):
        with pytest.raises(DomainError):
            synth_dataset(SynthSpec(classes=3), 2, 30)

    @pytest.mark.parametrize("family, size, most", [
        ("bars", 12, 12),       # 13 bars of height 1 leave class 12 below the image
        ("crosses", 12, 10),    # at 11 classes, classes 9 and 10 draw the same cross
        ("rings", 12, 8),
        ("rings", 8, 4),
    ])
    def test_class_count_boundary(self, family, size, most):
        """The most classes a noise-free family draws as distinct, non-blank
        templates is accepted; one more is rejected."""
        spec = SynthSpec(family=family, classes=most, size=size, noise=0.0)
        train, _ = synth_dataset(spec, most, most)
        templates = {img.tobytes() for img in train.images}
        assert len(templates) == most and train.images.reshape(most, -1).max(axis=1).all()
        with pytest.raises(DomainError, match=f"{most + 1} classes"):
            SynthSpec(family=family, classes=most + 1, size=size)


def write_idx_pair(tmp_path, images, labels):
    ipath = tmp_path / "images.idx"
    lpath = tmp_path / "labels.idx"
    n, h, w = images.shape
    with open(ipath, "wb") as f:
        f.write(struct.pack(">IIII", 0x803, n, h, w))
        f.write(images.astype(np.uint8).tobytes())
    with open(lpath, "wb") as f:
        f.write(struct.pack(">II", 0x801, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())
    return ipath, lpath


class TestIdx:
    def test_hand_built_pair(self, tmp_path):
        images = np.array([[[0, 255], [128, 64]], [[255, 0], [0, 255]]], dtype=np.uint8)
        ipath, lpath = write_idx_pair(tmp_path, images, [1, 0])
        ds = load_idx(ipath, lpath)
        assert len(ds) == 2
        np.testing.assert_allclose(ds.images[0, 0], images[0] / 255.0)
        np.testing.assert_array_equal(ds.labels, [1, 0])

    def test_truncated_file(self, tmp_path):
        images = np.zeros((3, 4, 4), dtype=np.uint8)
        ipath, lpath = write_idx_pair(tmp_path, images, [0, 1, 2])
        ipath.write_bytes(ipath.read_bytes()[:-10])
        with pytest.raises(FormatError, match="truncated"):
            load_idx(ipath, lpath)

    def test_bad_magic(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        ipath, lpath = write_idx_pair(tmp_path, images, [0])
        blob = bytearray(ipath.read_bytes())
        blob[3] = 0x99
        ipath.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            load_idx(ipath, lpath)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        ipath, _ = write_idx_pair(tmp_path, images, [0, 1])
        _, lpath = write_idx_pair(tmp_path / "..", np.zeros((3, 2, 2), dtype=np.uint8),
                                  [0, 1, 2])
        with pytest.raises(FormatError, match="mismatch"):
            load_idx(ipath, lpath)


# (position, replacement bytes, bytes cut) applied in turn to a file's bytes
IDX_EDITS = st.lists(st.tuples(st.integers(0, 80), st.binary(max_size=4),
                               st.integers(0, 4)), max_size=3)
# header counts: small, zero, or far beyond any file written here
IDX_DIMS = st.tuples(*[st.integers(0, 4) | st.integers(0, 2 ** 32 - 1)] * 3)


def _edited(blob, edits, keep):
    blob = bytearray(blob)
    for pos, new, cut in edits:
        pos %= len(blob) + 1
        blob[pos:pos + cut] = new
    return bytes(blob if keep is None else blob[:keep])


class TestIdxFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(shape=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
           claim=st.none() | IDX_DIMS, label_claim=st.none() | st.integers(0, 2 ** 32 - 1),
           image_edits=IDX_EDITS, label_edits=IDX_EDITS,
           keep=st.none() | st.integers(0, 80), seed=st.integers(0, 2 ** 16))
    def test_malformed_pair_raises_only_format_error(self, tmp_path, shape, claim,
                                                     label_claim, image_edits,
                                                     label_edits, keep, seed):
        rng = np.random.default_rng(seed)
        n, h, w = shape
        images = rng.integers(0, 256, size=shape).astype(np.uint8).tobytes()
        labels = rng.integers(0, 10, size=n).astype(np.uint8).tobytes()
        ipath, lpath = tmp_path / "images.idx", tmp_path / "labels.idx"
        ipath.write_bytes(_edited(struct.pack(">IIII", 0x803, *(claim or shape)) + images,
                                  image_edits, keep))
        lpath.write_bytes(_edited(struct.pack(">II", 0x801, n if label_claim is None
                                              else label_claim) + labels, label_edits, None))
        try:
            ds = load_idx(ipath, lpath)
        except FormatError:
            return
        assert ds.images.ndim == 4 and ds.images.shape[1] == 1
        assert ds.images.dtype == np.float32 and len(ds.labels) == len(ds.images) >= 1
        assert 0.0 <= ds.images.min() and ds.images.max() <= 1.0

    @pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 3), (2, 3, 0)])
    def test_zero_dimension(self, tmp_path, shape):
        ipath, lpath = write_idx_pair(tmp_path, np.zeros(shape, dtype=np.uint8),
                                      list(range(shape[0])))
        with pytest.raises(FormatError, match="zero dimension"):
            load_idx(ipath, lpath)

    def test_header_beyond_file_allocates_nothing(self, tmp_path):
        ipath, lpath = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        ipath.write_bytes(struct.pack(">IIII", 0x803, 2 ** 32 - 1, 2 ** 32 - 1, 2 ** 32 - 1))
        with pytest.raises(FormatError, match="truncated"):
            load_idx(ipath, lpath)


class TestDataset:
    def test_rejects_out_of_range_pixels(self):
        with pytest.raises(FormatError):
            Dataset(np.full((1, 1, 2, 2), 1.5), np.array([0]))

    def test_rejects_count_mismatch(self):
        with pytest.raises(FormatError):
            Dataset(np.zeros((2, 1, 2, 2)), np.array([0]))
