"""``autograd.grad_norm_sq``: the penalty in first-order form.

Its oracle is ``grad_norm_sq_replay``, the double backward. The first-order
form is exact when every op from a classifier's layers to its logits is
piecewise linear; ``TestIdentityGuard`` pins that condition on the models.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netinv import autograd as ag
from netinv.errors import ContractError
from netinv.models import Classifier, ClassifierSpec
from conftest import grad_norm_sq_replay
from test_autograd import chwn, fd_grad

# Bound against the oracle, in float32: the value within 1e-6 relative, each
# image-gradient entry within 1e-5 of the largest oracle entry (about 80
# float32 ulps of it). Both forms run the same VJPs, matmuls and col2im in
# the same order, and over 400 drawn specs they agreed bit for bit.
VALUE_RTOL = 1e-6
GRAD_RTOL = 1e-5

# ops that are piecewise linear in their recorded input, with operands that
# do not depend on it (a layer's activation is a leaky ReLU, a conv's pool a max)
PIECEWISE_LINEAR = {"linear", "conv2d", "reshape", "transpose"}


def true_logit_sum(logits, labels):
    """The scalar whose weight gradients ``generator_loss`` penalizes."""
    onehot = np.zeros(logits.shape, dtype=logits.dtype)
    onehot[np.arange(len(labels)), labels] = 1.0
    return ag.sum_(ag.mul(logits, ag.Tensor(onehot)))


def penalty_and_image_grad(penalty, clf, images, labels):
    x = ag.Tensor(images, requires_grad=True)
    logits, _ = clf.forward(x)
    value = penalty(true_logit_sum(logits, labels), clf.parameters())
    (gx,) = ag.grad(value, [x])
    return value.data, gx.data


def assert_matches_oracle(got, want):
    (value, gx), (want_value, want_gx) = got, want
    assert value.dtype == want_value.dtype and gx.dtype == want_gx.dtype
    assert abs(float(value) - float(want_value)) <= VALUE_RTOL * abs(float(want_value))
    assert np.abs(gx - want_gx).max() <= GRAD_RTOL * np.abs(want_gx).max()


def op_kind(node):
    """The name of the op that recorded ``node``, read off its VJP."""
    vjp = node._op[1]
    return getattr(vjp, "_vjp", vjp).__qualname__.split(".")[0]


def op_kinds(out, stop):
    """The op kinds of every recorded node from ``stop`` (excluded) to ``out``."""
    kinds, seen, stack = set(), {out}, [out]
    while stack:
        node = stack.pop()
        kinds.add(op_kind(node))
        for inp in node._op[0]:
            if inp is not stop and inp._op is not None and inp not in seen:
                seen.add(inp)
                stack.append(inp)
    return kinds


@st.composite
def classifier_specs(draw):
    kind = draw(st.sampled_from(["mlp", "cnn"]))
    side = draw(st.sampled_from([4, 8, 12]))        # two 2x2 pools divide it
    widths = st.integers(1, 16)
    return ClassifierSpec(
        kind=kind, in_shape=(draw(st.integers(1, 2)), side, side),
        hidden=tuple(draw(st.lists(widths, max_size=2))),
        conv_channels=tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=2))),
        conv_hidden=draw(widths), classes=draw(st.integers(2, 4)))


class TestExactness:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(spec=classifier_specs(), batch=st.integers(2, 8), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_double_backward(self, spec, batch, seed):
        rng = np.random.default_rng(seed)
        clf = Classifier(spec, rng=rng).freeze()
        images = rng.random((batch, *spec.in_shape)).astype(np.float32)
        labels = rng.integers(0, spec.classes, size=batch)
        assert_matches_oracle(penalty_and_image_grad(ag.grad_norm_sq, clf, images, labels),
                              penalty_and_image_grad(grad_norm_sq_replay, clf, images, labels))

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_default_specs_bit_equal(self, kind):
        """The audit's case: the default specs, batch 32."""
        rng = np.random.default_rng(60)
        clf = Classifier(ClassifierSpec(kind=kind), rng=rng).freeze()
        images = rng.random((32, 1, 12, 12)).astype(np.float32)
        labels = rng.integers(0, 3, size=32)
        got = penalty_and_image_grad(ag.grad_norm_sq, clf, images, labels)
        want = penalty_and_image_grad(grad_norm_sq_replay, clf, images, labels)
        assert_matches_oracle(got, want)

    @pytest.mark.parametrize("shared_bias", [False, True])
    def test_shared_weight(self, shared_bias):
        """One weight in two layers: its gradients from both nodes are summed
        before squaring, and each node's coefficient uses that sum."""
        rng = np.random.default_rng(61)
        w = ag.parameter(rng.normal(size=(5, 5)).astype(np.float32))
        b1 = ag.parameter(rng.normal(size=(1, 5)).astype(np.float32))
        b2 = b1 if shared_bias else ag.parameter(rng.normal(size=(1, 5)).astype(np.float32))
        params = [w, b1] if shared_bias else [w, b1, b2]
        images = rng.normal(size=(4, 5)).astype(np.float32)
        labels = np.array([0, 3, 4, 1])

        def run(penalty):
            x = ag.Tensor(images, requires_grad=True)
            logits = ag.linear(ag.linear(x, w, b1, leaky=True), w, b2)
            value = penalty(true_logit_sum(logits, labels), params)
            return value.data, ag.grad(value, [x])[0].data

        assert_matches_oracle(run(ag.grad_norm_sq), run(grad_norm_sq_replay))

    @pytest.mark.parametrize("kind", ["linear", "conv"])
    def test_finite_differences(self, kind):
        """d/dx of the node against central differences, in float64."""
        rng = np.random.default_rng(62 if kind == "linear" else 63)
        labels = np.array([1, 0, 2])
        if kind == "linear":
            x0 = rng.normal(size=(3, 4))
            w1, b1 = rng.normal(size=(4, 6)), rng.normal(size=(1, 6))
            w2, b2 = rng.normal(size=(6, 3)), rng.normal(size=(1, 3))
            params = [ag.parameter(a) for a in (w1, b1, w2, b2)]

            def logits_of(x):
                h = ag.linear(x, params[0], params[1], leaky=True)
                return ag.linear(h, params[2], params[3])
        else:
            x0 = chwn(rng.normal(size=(3, 1, 4, 4)))
            k, kb = rng.normal(size=(2, 1, 3, 3)), rng.normal(size=(1, 2, 1, 1))
            w, b = rng.normal(size=(8, 3)), rng.normal(size=(1, 3))
            params = [ag.parameter(a) for a in (k, kb, w, b)]

            def logits_of(x):
                h = ag.conv2d(x, params[0], params[1])
                h = ag.reshape(ag.transpose(h, (3, 0, 1, 2)), (3, 8))
                return ag.linear(h, params[2], params[3])

        def penalty(x):
            return ag.grad_norm_sq(true_logit_sum(logits_of(x), labels), params)

        x = ag.Tensor(x0.copy(), requires_grad=True)
        (gx,) = ag.grad(penalty(x), [x])
        want = fd_grad(lambda a: penalty(ag.Tensor(a)).item(), x0.copy(), h=1e-6)
        np.testing.assert_allclose(gx.data, want, rtol=1e-5, atol=1e-7)


class TestIdentityGuard:
    """The first-order form is exact because every op from a classifier's
    input to its logits is piecewise linear; a smooth op there (a sigmoid,
    a softmax) would make the penalty's gradient silently wrong."""

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_classifier_ops_are_piecewise_linear(self, kind):
        rng = np.random.default_rng(64)
        clf = Classifier(ClassifierSpec(kind=kind), rng=rng)
        x = ag.Tensor(rng.random((2, 1, 12, 12)).astype(np.float32), requires_grad=True)
        logits, _ = clf.forward(x)
        kinds = op_kinds(logits, x)
        assert {"linear"} <= kinds <= PIECEWISE_LINEAR

    def test_guard_sees_a_smooth_op(self):
        x = ag.Tensor(np.ones((2, 3)), requires_grad=True)
        w, b = ag.parameter(np.ones((3, 3))), ag.parameter(np.zeros((1, 3)))
        kinds = op_kinds(ag.linear(ag.sigmoid(ag.linear(x, w, b, leaky=True)), w, b), x)
        assert kinds == {"linear", "sigmoid"}
        assert not kinds <= PIECEWISE_LINEAR


class TestContract:
    @staticmethod
    def leaves():
        rng = np.random.default_rng(65)
        x = ag.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        return x, ag.parameter(rng.normal(size=(3, 3))), ag.parameter(np.zeros((1, 3)))

    @pytest.mark.parametrize("use", ["mul", "matmul", "layer-input", "beside-a-layer"])
    def test_parameter_outside_a_layer_rejected(self, use):
        x, w, b = self.leaves()
        if use == "mul":
            out = ag.sum_(ag.linear(ag.mul(x, b), w, b))
        elif use == "matmul":
            out = ag.sum_(ag.matmul(x, w))
        elif use == "layer-input":
            out = ag.sum_(ag.linear(w, w, b))
        else:
            out = ag.sum_(ag.add(ag.linear(x, w, b), ag.matmul(x, w)))
        with pytest.raises(ContractError, match="linear or conv2d weight or bias"):
            ag.grad_norm_sq(out, [w, b])

    def test_empty_params_rejected(self):
        x, w, b = self.leaves()
        with pytest.raises(ContractError, match="non-empty"):
            ag.grad_norm_sq(ag.sum_(ag.linear(x, w, b)), [])

    def test_unconnected_output_rejected(self):
        _, w, _ = self.leaves()
        with pytest.raises(ContractError, match="not connected"):
            ag.grad_norm_sq(ag.Tensor(np.array(1.0)), [w])

    def test_unreached_parameter_adds_zero(self):
        x, w, b = self.leaves()
        out = ag.sum_(ag.linear(x, w, b))
        other = ag.parameter(np.ones((3, 3)))
        assert (ag.grad_norm_sq(out, [w, b, other]).data
                == ag.grad_norm_sq(out, [w, b]).data)
