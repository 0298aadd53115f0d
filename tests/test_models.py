import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netinv import autograd as ag
from netinv.data import Dataset
from netinv.errors import DomainError, ShapeError
from netinv.inversion import generate_samples, inversion_accuracy
from netinv.models import (Classifier, ClassifierSpec, Generator, GeneratorSpec,
                           _condition_matrix, condition_matrix)
from netinv.ood import evaluate_grid, ood_predict
from netinv.serialize import load_checkpoint, save_checkpoint
from netinv.training import accuracy, predict_logits, predict_probs
from test_autograd import im2col_oracle, maxpool_oracle
from test_grad_norm_sq import op_kind


class TestClassifierForward:
    def test_zero_final_layer_gives_uniform_softmax(self):
        clf = Classifier(ClassifierSpec(classes=4), rng=np.random.default_rng(0))
        clf.params["w2"].data[:] = 0.0
        clf.params["b2"].data[:] = 0.0
        logits, _ = clf.forward(np.random.default_rng(1).uniform(size=(3, 1, 12, 12)).astype(np.float32))
        np.testing.assert_allclose(logits.data, 0.0)
        probs = ag.softmax(logits).data
        np.testing.assert_allclose(probs, 0.25, atol=1e-7)

    def test_identical_inputs_identical_logits(self):
        clf = Classifier(ClassifierSpec(), rng=np.random.default_rng(2))
        img = np.random.default_rng(3).uniform(size=(1, 1, 12, 12)).astype(np.float32)
        batch = np.repeat(img, 5, axis=0)
        logits, _ = clf.forward(batch)
        for row in logits.data[1:]:
            np.testing.assert_allclose(row, logits.data[0], rtol=1e-6, atol=1e-6)

    def test_shape_mismatch(self):
        clf = Classifier(ClassifierSpec(), rng=np.random.default_rng(0))
        with pytest.raises(ShapeError):
            clf.forward(np.zeros((2, 1, 8, 8), dtype=np.float32))

    def test_logits_finite_on_unit_range_inputs(self):
        for kind in ("mlp", "cnn"):
            clf = Classifier(ClassifierSpec(kind=kind), rng=np.random.default_rng(4))
            x = np.random.default_rng(5).uniform(size=(8, 1, 12, 12)).astype(np.float32)
            logits, feats = clf.forward(x)
            assert np.all(np.isfinite(logits.data))
            assert logits.data.shape == (8, 3)
            width = clf.spec.hidden[-1] if kind == "mlp" else clf.spec.conv_hidden
            assert feats.data.shape == (8, width)

    def test_trained_mlp_reaches_95(self, trained_mlp, bars_data):
        _, test = bars_data
        assert accuracy(trained_mlp, test.images, test.labels) >= 0.95

    @pytest.mark.parametrize("kind, count", [("mlp", 70403), ("cnn", 10723)])
    def test_default_param_count(self, kind, count):
        clf = Classifier(ClassifierSpec(kind=kind), rng=np.random.default_rng(0))
        assert sum(p.data.size for p in clf.parameters()) == count


class TestCondition:
    def test_hot_mode(self):
        spec = GeneratorSpec(cond_mode="hot", classes=4)
        np.testing.assert_array_equal(condition_matrix(spec)[2], [0, 0, 1, 0])

    def test_hidden_deterministic(self):
        spec = GeneratorSpec(cond_mode="hidden", classes=4, cond_dim=32)
        a = condition_matrix(spec)
        b = _condition_matrix.__wrapped__(4, "hidden", 32, spec.cond_seed)   # uncached
        np.testing.assert_array_equal(a, b)

    def test_hidden_low_pairwise_cosine(self):
        spec = GeneratorSpec(cond_mode="hidden", classes=10, cond_dim=32)
        vecs = condition_matrix(spec)
        for i in range(10):
            for j in range(i + 1, 10):
                cos = vecs[i] @ vecs[j] / (np.linalg.norm(vecs[i]) * np.linalg.norm(vecs[j]))
                assert abs(cos) < 0.5

    def test_label_out_of_range(self):
        gen = Generator(GeneratorSpec(classes=4), rng=np.random.default_rng(0))
        z = np.zeros((1, 64), dtype=np.float32)
        with pytest.raises(DomainError):
            gen.sample(z, [4])


# no loss term keeps generated pixels in range
PIXEL_RANGE = ("generator images must lie in [0, 1]: the pixel-range prior was retired "
               "because the generator's last layer, a sigmoid, bounds every pixel")


class TestGenerator:
    def test_eval_mode_deterministic(self):
        gen = Generator(GeneratorSpec(classes=3), rng=np.random.default_rng(6))
        z = np.random.default_rng(7).standard_normal((4, 64)).astype(np.float32)
        labels = [i % 3 for i in range(4)]
        a = gen.sample(z, labels)
        b = gen.sample(z, labels)
        np.testing.assert_array_equal(a, b)

    def test_output_in_unit_range(self):
        gen = Generator(GeneratorSpec(classes=3), rng=np.random.default_rng(8))
        z = np.random.default_rng(9).uniform(-10, 10, size=(16, 64)).astype(np.float32)
        out = gen.sample(z, [i % 3 for i in range(16)])
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_images_are_a_reshaped_sigmoid(self):
        gen = Generator(GeneratorSpec(classes=3), rng=np.random.default_rng(12))
        images = gen.forward(np.zeros((2, 64), dtype=np.float32), [0, 1],
                             np.random.default_rng(13))
        assert op_kind(images) == "reshape"
        (pixels,) = images._op[0]
        assert op_kind(pixels) == "sigmoid", PIXEL_RANGE

    def test_saturated_images_stay_in_unit_range(self):
        gen = Generator(GeneratorSpec(classes=3), rng=np.random.default_rng(14))
        for p in gen.parameters():
            p.data = p.data * 1e3           # pre-activations of order 1e9
        z = np.random.default_rng(15).standard_normal((16, 64)).astype(np.float32)
        labels = np.arange(16) % 3
        for images in (gen.sample(z, labels),
                       gen.forward(z, labels, np.random.default_rng(16)).data):
            assert ((images >= 0.0) & (images <= 1.0)).all(), PIXEL_RANGE
            assert images.min() == 0.0 and images.max() == 1.0     # saturated

    def test_train_mode_dropout_varies(self):
        gen = Generator(GeneratorSpec(classes=3, dropout=0.5), rng=np.random.default_rng(10))
        z = np.random.default_rng(11).standard_normal((1, 64)).astype(np.float32)
        labels = [0]
        differing = 0
        total = 0
        for pair in range(100):
            a = gen.forward(z, labels, np.random.default_rng(2 * pair)).data
            b = gen.forward(z, labels, np.random.default_rng(2 * pair + 1)).data
            differing += int(np.sum(np.abs(a - b) > 1e-6))
            total += a.size
        assert differing / total > 0.01

    @pytest.mark.parametrize("mode, count", [("hidden", 82448), ("hot", 78736)])
    def test_default_param_count(self, mode, count):
        gen = Generator(GeneratorSpec(cond_mode=mode), rng=np.random.default_rng(0))
        assert sum(p.data.size for p in gen.parameters()) == count


def cnn_forward_oracle(clf, x):
    """The [B, C, H, W] CNN forward in numpy, from the im2col and max-pool oracles."""
    p = {name: t.data for name, t in clf.params.items()}
    B = len(x)
    h = x
    for i in range(len(clf.spec.conv_channels)):
        k = p[f"k{i}"]
        F, (H, W) = k.shape[0], h.shape[2:]
        cols = im2col_oracle(h, 3, 3, 1, 1)                   # [C*9, B*H*W]
        h = (k.reshape(F, -1) @ cols).reshape(F, B, H, W).transpose(1, 0, 2, 3)
        h = h + p[f"kb{i}"]
        h, _ = maxpool_oracle(np.maximum(h, h * np.float32(0.1)), 2)
    feats = h.reshape(B, -1) @ p["wh"] + p["bh"]
    feats = np.maximum(feats, feats * np.float32(0.1))
    return feats @ p["wo"] + p["bo"]


class TestCnnLayout:
    # The kernel matmul's columns are ordered (b, y, x) in the oracle and
    # (y, x, b) in the classifier. BLAS may round the last columns of a
    # matmul whose column count is not a multiple of its block width by
    # another kernel, so a column's bits can depend on its position. B = 1
    # orders both alike; at B = 5 the 16x16 input makes every conv matmul's
    # column count (1280, 320) a multiple of 64.
    @pytest.mark.parametrize("in_shape, B", [((1, 12, 12), 1), ((1, 16, 16), 5)])
    def test_forward_bit_equal_to_nchw_oracle(self, in_shape, B):
        spec = ClassifierSpec(kind="cnn", in_shape=in_shape)
        clf = Classifier(spec, rng=np.random.default_rng(40))
        for name, t in clf.params.items():      # random biases, not zeros
            if name.startswith(("kb", "b")):
                t.data[:] = np.random.default_rng(41).normal(size=t.shape)
        cin = spec.in_shape[0]
        for i, F in enumerate(spec.conv_channels):
            assert clf.params[f"k{i}"].shape == (F, cin, 3, 3)
            assert clf.params[f"kb{i}"].shape == (1, F, 1, 1)
            cin = F
        x = np.random.default_rng(42).uniform(size=(B, *in_shape)).astype(np.float32)
        want = cnn_forward_oracle(clf, x)
        for logits in (clf.forward(x)[0].data, clf.predict(x)[0]):
            assert logits.dtype == want.dtype and np.array_equal(logits, want)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_one_node_per_cnn_block(self, depth):
        """A one-row forward records one node per CNN block (conv, pool, bias
        and activation), then the head's transpose, reshape and two layers."""
        spec = ClassifierSpec(kind="cnn", in_shape=(1, 16, 16), conv_channels=(4,) * depth)
        clf = Classifier(spec, rng=np.random.default_rng(43))
        logits, _ = clf.forward(np.zeros((1, 1, 16, 16), dtype=np.float32))
        kinds, seen, stack = [], {logits}, [logits]
        while stack:
            node = stack.pop()
            kinds.append(op_kind(node))
            for inp in node._op[0]:
                if inp._op is not None and inp not in seen:
                    seen.add(inp)
                    stack.append(inp)
        assert sorted(kinds) == sorted(["conv2d"] * depth + ["transpose", "reshape"]
                                       + ["linear"] * 2)


DIMS = st.lists(st.integers(1, 6), min_size=1, max_size=2).map(tuple)
SHAPES = st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5))


@st.composite
def accepted_specs(draw, family):
    """A small spec of ``family``: "mlp", "cnn<depth>", "gen-hot" or "gen-hidden"."""
    classes = draw(st.integers(2, 4))
    if family.startswith("gen-"):
        return GeneratorSpec(z_dim=draw(st.integers(1, 5)), cond_mode=family[4:],
                             cond_dim=draw(st.integers(classes, 6)), classes=classes,
                             dropout=draw(st.sampled_from([0.0, 0.5])), hidden=draw(DIMS),
                             out_shape=draw(SHAPES), cond_seed=draw(st.integers(0, 99)))
    if family == "mlp":
        return ClassifierSpec(in_shape=draw(SHAPES), hidden=draw(DIMS), classes=classes)
    depth = int(family[3:])
    side = st.integers(1, 2).map(lambda k: k * 2 ** depth)
    return ClassifierSpec(kind="cnn", in_shape=(draw(st.integers(1, 2)), draw(side), draw(side)),
                          conv_channels=tuple(draw(st.integers(1, 3)) for _ in range(depth)),
                          conv_hidden=draw(st.integers(1, 5)), classes=classes)


# a field redrawn past its valid range: 0 and negative sizes, empty tuples
# and tuples of the wrong rank
ANY_DIMS = st.lists(st.integers(0, 4), max_size=3).map(tuple)
ANY_SHAPES = st.lists(st.sampled_from([0, 1, 2, 4, 8]), max_size=4).map(tuple)
ANY_INTS = st.integers(-1, 4)
ANY_FIELDS = {"in_shape": ANY_SHAPES, "out_shape": ANY_SHAPES, "hidden": ANY_DIMS,
              "conv_channels": ANY_DIMS, "conv_hidden": ANY_INTS, "classes": ANY_INTS,
              "z_dim": ANY_INTS, "cond_dim": ANY_INTS, "cond_seed": st.integers(-1, 9),
              "dropout": st.sampled_from([None, False, True, "x", math.nan, math.inf,
                                          -0.1, 1.0, 0.5])}


@st.composite
def spec_fields(draw, family):
    """(spec class, fields, redrawn field or None): an accepted spec of
    ``family``, then none or one of its fields redrawn from ANY_FIELDS."""
    spec = draw(accepted_specs(family))
    fields = {k: getattr(spec, k) for k in spec.__dataclass_fields__}
    name = draw(st.sampled_from([None, *(k for k in fields if k in ANY_FIELDS)]))
    if name is not None:
        fields[name] = draw(ANY_FIELDS[name])
    return type(spec), fields, name


class TestAcceptedSpecs:
    @pytest.mark.parametrize("family", ["mlp", "cnn1", "cnn2", "cnn3", "gen-hot", "gen-hidden"])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_builds_runs_and_round_trips(self, tmp_path, family, data):
        """A spec rejects a bad field with DomainError, or it builds, runs
        and round-trips its checkpoint bitwise; nothing else is raised."""
        spec_cls, fields, redrawn = data.draw(spec_fields(family))
        try:
            spec = spec_cls(**fields)
        except DomainError:
            assert redrawn is not None, "an accepted spec was rejected"
            return
        rng = np.random.default_rng(0)
        if isinstance(spec, GeneratorSpec):
            model = Generator(spec, rng=rng)
            z = rng.standard_normal((2, spec.z_dim)).astype(np.float32)
            out = model.sample(z, [0, 1])
            assert out.shape == (2, *spec.out_shape)
        else:
            model = Classifier(spec, rng=rng)
            logits, _ = model.forward(rng.uniform(size=(2, *spec.in_shape)).astype(np.float32))
            assert logits.shape == (2, spec.classes)
        path = tmp_path / "m.ninv"
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        assert loaded.spec == spec
        for name, p in model.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes()
        layout = spec.layout()
        assert [(name, p.shape) for name, p in model.params.items()] == \
            [(name, shape) for name, shape, _ in layout]
        assert sum(p.data.size for p in model.parameters()) == \
            sum(math.prod(shape) for _, shape, _ in layout)

    @pytest.mark.parametrize("in_shape, channels", [((1, 6, 8), (4,) * 2),
                                                    ((1, 8, 12), (4,) * 3), ((1, 4, 4), ())])
    def test_cnn_rejects_specs_its_pools_cannot_run(self, in_shape, channels):
        with pytest.raises(DomainError):
            ClassifierSpec(kind="cnn", in_shape=in_shape, conv_channels=channels)


FAMILIES = ["mlp", "cnn1", "cnn2", "cnn3", "gen-hot", "gen-hidden"]


def assert_same_bits(got, want):
    """``got``, an array, holds the bits of the recorded Tensor ``want``."""
    assert isinstance(got, np.ndarray) and want._op is not None
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.data.tobytes()


class TestArrayPass:
    """``predict`` and ``sample`` run a model's layers on plain arrays; that
    pass must give the recording ``forward``'s bits and raise its errors."""

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_bit_equal_to_recording_pass(self, family, data):
        spec = data.draw(accepted_specs(family))
        seed = data.draw(st.integers(0, 2 ** 16))
        rng = np.random.default_rng(seed)
        model = (Generator if isinstance(spec, GeneratorSpec) else Classifier)(spec, rng=rng)
        for name, t in model.params.items():      # random biases, not zeros
            if name.startswith(("kb", "b")):
                t.data[:] = rng.normal(size=t.shape)
        for rows in (1, 256):
            if isinstance(spec, GeneratorSpec):
                z = rng.standard_normal((rows, spec.z_dim)).astype(np.float32)
                labels = rng.integers(spec.classes, size=rows)
                # eval mode: ``sample`` is ``forward`` with dropout off
                no_drop = Generator.from_arrays(replace(spec, dropout=0.0),
                                                model.param_arrays())
                want = no_drop.forward(z, labels, np.random.default_rng(seed))
                assert_same_bits(no_drop.sample(z, labels), want)
                assert_same_bits(model.sample(z, labels), want)
            else:
                x = rng.uniform(size=(rows, *spec.in_shape)).astype(np.float32)
                for got, want in zip(model.predict(x), model.forward(x)):
                    assert_same_bits(got, want)

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_wrong_input_shape_raises_the_same_error(self, kind):
        clf = Classifier(ClassifierSpec(kind=kind), rng=np.random.default_rng(0))
        gen = Generator(GeneratorSpec(classes=3), rng=np.random.default_rng(0))
        z = np.zeros((2, 64), dtype=np.float32)
        bad, flat = np.zeros((2, 1, 8, 8), np.float32), np.zeros((2, 144), np.float32)
        for passes in ((lambda: clf.forward(bad), lambda: clf.predict(bad)),
                       (lambda: clf.forward(flat), lambda: clf.predict(flat)),
                       (lambda: gen.forward(z, [0, 1, 2], np.random.default_rng(0)),
                        lambda: gen.sample(z, [0, 1, 2]))):
            messages = []
            for run in passes:
                with pytest.raises(ShapeError) as err:
                    run()
                messages.append(str(err.value))
            assert messages[0] == messages[1]

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_predictions_build_no_tape_node(self, kind, monkeypatch):
        rng = np.random.default_rng(50)
        clf = Classifier(ClassifierSpec(kind=kind, classes=4), rng=rng)
        gen = Generator(GeneratorSpec(classes=4), rng=rng)
        images = rng.uniform(size=(300, 1, 12, 12)).astype(np.float32)
        labels = rng.integers(4, size=300)

        def no_node(*args):
            raise AssertionError("a prediction built a tape node")

        monkeypatch.setattr(ag, "_from_op", no_node)
        ood_predict(clf, images[0])
        assert predict_logits(clf, images).shape == (300, 4)
        assert accuracy(clf, images, labels) >= 0.0
        assert predict_probs(clf, images).shape == (300, 4)
        grid = evaluate_grid({"id": clf}, {"id": Dataset(images, labels),
                                           "ood": Dataset(images[::-1], labels)}, {"id": 3})
        assert grid[2].shape == (1, 2) and len(grid[3]) == 1
        assert generate_samples(gen, 300, rng)[1].shape == (300, 1, 12, 12)
        assert inversion_accuracy(gen, clf, 10, rng) >= 0.0
        with pytest.raises(AssertionError, match="tape node"):
            clf.forward(images[:1])
