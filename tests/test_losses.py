import numpy as np
import pytest

from netinv import autograd as ag
from netinv.errors import ContractError, DivergenceError, DomainError
from netinv.inversion import InversionConfig, _draw_inputs, generator_loss
from netinv.losses import (BREAKDOWN_RTOL, EPS, LossBreakdown, compose_total,
                           cosine_diversity_loss, feature_gram, kl_loss, ortho_loss,
                           soften_onehot, tv_loss, weighted_ce_loss)
from netinv.models import Classifier, ClassifierSpec, Generator, GeneratorSpec
from netinv.reconstruction import ReconConfig
from conftest import grad_norm_sq_replay
from test_autograd import check_grads, fd_grad


def rand_dist(rng, shape):
    x = rng.uniform(0.05, 1.0, size=shape)
    return x / x.sum(axis=-1, keepdims=True)


class TestKL:
    def test_identity(self):
        rng = np.random.default_rng(0)
        p = rand_dist(rng, (4, 5))
        assert kl_loss(ag.Tensor(p), p).item() == pytest.approx(0.0, abs=1e-9)

    def test_onehot_vs_uniform(self):
        m = 6
        probs = np.full((1, m), 1.0 / m)
        target = np.zeros((1, m))
        target[0, 2] = 1.0
        got = kl_loss(ag.Tensor(probs), target).item()
        assert got == pytest.approx(np.log(m), abs=1e-6)

    def test_direct_sum_oracle(self):
        rng = np.random.default_rng(1)
        p = rand_dist(rng, (8, 4))
        t = rand_dist(rng, (8, 4))
        eps = 1e-8
        want = np.mean(np.sum(t * (np.log(t + eps) - np.log(p + eps)), axis=1))
        assert kl_loss(ag.Tensor(p), t).item() == pytest.approx(want, abs=1e-9)

    def test_non_distribution_rejected(self):
        bad = np.full((2, 3), 0.5)
        with pytest.raises(ContractError):
            kl_loss(ag.Tensor(bad), rand_dist(np.random.default_rng(2), (2, 3)))

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rand_dist(rng, (5, 7))
            t = rand_dist(rng, (5, 7))
            assert kl_loss(ag.Tensor(p), t).item() >= -1e-9


class TestWeightedCE:
    def test_confident_correct_is_zero(self):
        logits = np.zeros((2, 3))
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        got = weighted_ce_loss(ag.Tensor(logits), [1, 2]).item()
        assert got == pytest.approx(0.0, abs=1e-6)

    def test_unit_weights_reduce_to_plain_ce(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(10, 4))
        labels = rng.integers(0, 4, size=10)
        plain = weighted_ce_loss(ag.Tensor(logits), labels)
        unit = weighted_ce_loss(ag.Tensor(logits), labels, np.ones(4))
        assert plain.item() == pytest.approx(unit.item(), abs=1e-9)
        # oracle: direct -log softmax
        want = np.mean([-np.log(np.exp(logits[i, labels[i]]) / np.exp(logits[i]).sum())
                        for i in range(10)])
        assert plain.item() == pytest.approx(want, abs=1e-9)

    def test_hand_arithmetic_with_weights(self):
        logits = np.zeros((2, 2))     # uniform over m=2 -> -log(1/2) each
        labels = [0, 1]
        got = weighted_ce_loss(ag.Tensor(logits), labels, [0.2, 1.8]).item()
        assert got == pytest.approx(np.log(2), abs=1e-7)

    def test_forward_bit_equal_to_log_softmax_formula(self):
        # log-softmax as the exp / float64 sum / log composition, then the
        # label-weighted 64-bit mean
        rng = np.random.default_rng(22)
        x = rng.normal(scale=6, size=(64, 5)).astype(np.float32)
        labels = rng.integers(5, size=64)
        weights = rng.uniform(0.5, 2.0, size=5)
        z = x - x.max(axis=1, keepdims=True)
        s = np.sum(np.exp(z), axis=1, keepdims=True, dtype=np.float64).astype(np.float32)
        picked = (z - np.log(s))[np.arange(64), labels].astype(np.float64)
        want = np.asarray(-np.dot(weights[labels] / 64, picked), dtype=np.float32)
        got = weighted_ce_loss(ag.Tensor(x), labels, weights).data
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    def test_label_out_of_range(self):
        with pytest.raises(DomainError):
            weighted_ce_loss(ag.Tensor(np.zeros((1, 3))), [3])


class TestCosineDiversity:
    def test_identical_rows(self):
        f = np.tile([[1.0, 2.0, 3.0]], (4, 1))
        assert cosine_diversity_loss(feature_gram(ag.Tensor(f))).item() == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_rows(self):
        f = np.eye(3)
        assert cosine_diversity_loss(feature_gram(ag.Tensor(f))).item() == pytest.approx(0.0, abs=1e-7)

    def test_pairwise_oracle(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(3, 6))
        pairs = []
        for i in range(3):
            for j in range(i + 1, 3):
                pairs.append(f[i] @ f[j] / (np.linalg.norm(f[i]) * np.linalg.norm(f[j])))
        got = cosine_diversity_loss(feature_gram(ag.Tensor(f))).item()
        assert got == pytest.approx(np.mean(pairs), abs=1e-6)

    def test_range(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            f = rng.normal(size=(5, 4))
            v = cosine_diversity_loss(feature_gram(ag.Tensor(f))).item()
            assert -1.0 - 1e-6 <= v <= 1.0 + 1e-6

    def test_batch_of_one_rejected(self):
        with pytest.raises(ContractError):
            cosine_diversity_loss(feature_gram(ag.Tensor(np.ones((1, 3)))))


class TestOrtho:
    def test_orthonormal_rows(self):
        assert ortho_loss(feature_gram(ag.Tensor(np.eye(3)))).item() == pytest.approx(0.0, abs=1e-7)

    def test_identical_unit_rows(self):
        f = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert ortho_loss(feature_gram(ag.Tensor(f))).item() == pytest.approx(2.0, abs=1e-6)

    def test_gram_oracle(self):
        rng = np.random.default_rng(7)
        f = rng.normal(size=(4, 5))
        n = f / np.linalg.norm(f, axis=1, keepdims=True)
        want = np.sum((n @ n.T - np.eye(4)) ** 2)
        assert ortho_loss(feature_gram(ag.Tensor(f))).item() == pytest.approx(want, abs=1e-6)

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            assert ortho_loss(feature_gram(ag.Tensor(rng.normal(size=(4, 3))))).item() >= 0


class TestTV:
    def test_constant_image(self):
        assert tv_loss(ag.Tensor(np.full((2, 1, 4, 4), 0.7))).item() == pytest.approx(0.0)

    def test_hand_countable(self):
        img = np.array([[[[0.0, 1.0], [0.0, 1.0]]]])
        assert tv_loss(ag.Tensor(img)).item() == pytest.approx(0.5)

    def test_loop_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(size=(2, 3, 5, 6))
        total = 0.0
        for b in range(2):
            for c in range(3):
                for i in range(5):
                    for j in range(6):
                        if i + 1 < 5:
                            total += (x[b, c, i + 1, j] - x[b, c, i, j]) ** 2
                        if j + 1 < 6:
                            total += (x[b, c, i, j + 1] - x[b, c, i, j]) ** 2
        want = total / (2 * 3 * 5 * 6)
        assert tv_loss(ag.Tensor(x)).item() == pytest.approx(want, abs=1e-9)


class TestBreakdown:
    def test_consistent(self):
        LossBreakdown(terms={"a": 2.0, "b": 3.0}, weights={"a": 1.0, "b": 0.5},
                      total=3.5).check()

    def test_inconsistent_rejected(self):
        with pytest.raises(ContractError):
            LossBreakdown(terms={"a": 2.0}, weights={"a": 1.0}, total=3.0).check()

    def test_tolerance_is_relative_to_the_total(self):
        # a 1e6 total may miss its weighted sum by under BREAKDOWN_RTOL of it
        within = 1e6 * (1 + BREAKDOWN_RTOL / 2)
        LossBreakdown(terms={"a": 1e6}, weights={"a": 1.0}, total=within).check()
        with pytest.raises(ContractError):
            LossBreakdown(terms={"a": 1e6}, weights={"a": 1.0},
                          total=1e6 * (1 + 2 * BREAKDOWN_RTOL)).check()

    def test_non_finite_rejected_naming_the_term(self):
        nan = float("nan")
        with pytest.raises(DivergenceError, match="b"):
            LossBreakdown(terms={"a": 2.0, "b": nan}, weights={"a": 1.0, "b": 1.0},
                          total=nan).check()


def test_soften_onehot_rows_are_distributions():
    t = soften_onehot([0, 2, 1], 4, s=0.1)
    np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-6)
    assert t[0, 0] == pytest.approx(0.925, abs=1e-6)
    assert t[0, 1] == pytest.approx(0.025, abs=1e-6)


class TestFusedNodeGradients:
    """First- and second-order gates for the one-node KL and CE, in float64."""

    def test_kl_finite_differences(self):
        rng = np.random.default_rng(30)
        p = rand_dist(rng, (5, 4))
        t = rand_dist(rng, (5, 4))
        check_grads(lambda q: kl_loss(q, t), [p], rtol=1e-5, atol=1e-7)

    def test_weighted_ce_finite_differences(self):
        rng = np.random.default_rng(31)
        logits = rng.normal(scale=2, size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        cw = rng.uniform(0.3, 2.5, size=4)
        check_grads(lambda z: weighted_ce_loss(z, labels, cw), [logits])

    @pytest.mark.parametrize("head", ["ce", "kl"])
    def test_second_order_through_the_loss_node(self, head):
        rng = np.random.default_rng(32)
        w = ag.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        b = ag.Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        x0 = rng.normal(size=(4, 5))
        labels = np.array([0, 2, 1, 2])
        cw = np.array([0.5, 1.0, 2.0])
        target = soften_onehot(labels, 3, 0.2, dtype=np.float64)

        def gns_of(x):
            logits = ag.linear(x, w, b)
            loss = (weighted_ce_loss(logits, labels, cw) if head == "ce"
                    else kl_loss(ag.softmax(logits), target))
            return grad_norm_sq_replay(loss, [w, b])

        x = ag.Tensor(x0.copy(), requires_grad=True)
        (gx,) = ag.grad(gns_of(x), [x])
        want = fd_grad(lambda a: gns_of(ag.Tensor(a)).item(), x0.copy(), h=1e-5)
        np.testing.assert_allclose(gx.data, want, rtol=1e-4, atol=1e-8)


# each one-node term written out as the chain of public ops it replaces
def composed_feature_gram(f):
    norms = ag.sqrt(ag.add(ag.sum_(ag.square(f), axis=1, keepdims=True), EPS ** 2))
    n = ag.div(f, norms)
    return ag.matmul(n, ag.transpose(n))


def composed_cosine(gram):
    B = gram.shape[0]
    offdiag = (1.0 - np.eye(B)).astype(gram.dtype)
    return ag.div(ag.sum_(ag.mul(gram, ag.Tensor(offdiag))),
                  ag.Tensor(np.asarray(B * (B - 1), dtype=gram.dtype)))


def composed_ortho(gram):
    eye = ag.Tensor(np.eye(gram.shape[0], dtype=gram.dtype))
    return ag.sum_(ag.square(ag.sub(gram, eye)))


def composed_tv(images):
    B, C, H, W = images.shape
    dh = ag.sub(ag.take_slice(images, 2, 1, H), ag.take_slice(images, 2, 0, H - 1))
    dw = ag.sub(ag.take_slice(images, 3, 1, W), ag.take_slice(images, 3, 0, W - 1))
    total = ag.add(ag.sum_(ag.square(dh)), ag.sum_(ag.square(dw)))
    return ag.div(total, ag.Tensor(np.asarray(B * C * H * W, dtype=images.dtype)))


def composed_total(terms, weights, order):
    total = None
    for name in order:
        w = weights.get(name, 0.0)
        if w == 0.0 or name not in terms:
            continue
        piece = ag.mul(terms[name], ag.Tensor(np.asarray(w, dtype=terms[name].dtype)))
        total = piece if total is None else ag.add(total, piece)
    return total


TOTAL_WEIGHTS = {"a": 0.5, "skip": 0.0, "b": 0.3, "c": 1.7}
TOTAL_ORDER = ("c", "skip", "a", "b")


def three_terms(x):
    """Scalar terms of ``x`` for ``compose_total``, one of them weighted zero."""
    return {"a": ag.sum_(ag.square(x)), "b": ag.sum_(ag.sigmoid(x)),
            "c": ag.sum_(ag.mul(x, ag.take_slice(x, 0, 1, 2))), "skip": ag.sum_(x)}


class TestOneNodeTerms:
    """The diversity terms, the smoothness prior and the weighted total are
    one tape node each: forwards bit-equal to the chains of public ops they
    replace, first- and second-order gates in float64."""

    @staticmethod
    def cases(rng):
        """name -> (one-node function, composed function, input array)."""
        gram = rng.normal(size=(5, 5))
        images = rng.uniform(-0.4, 1.4, size=(2, 3, 4, 5))
        return {
            "feature_gram": (feature_gram, composed_feature_gram, rng.normal(size=(5, 7))),
            "cosine": (cosine_diversity_loss, composed_cosine, gram),
            "ortho": (ortho_loss, composed_ortho, gram + 0.5),
            "tv": (tv_loss, composed_tv, images),
            "total": (lambda x: compose_total(three_terms(x), TOTAL_WEIGHTS, TOTAL_ORDER),
                      lambda x: composed_total(three_terms(x), TOTAL_WEIGHTS, TOTAL_ORDER),
                      rng.normal(size=(3, 4))),
        }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", ["feature_gram", "cosine", "ortho", "tv", "total"])
    def test_forward_bit_equal_to_composed(self, name, dtype):
        one_node, composed, x = self.cases(np.random.default_rng(33))[name]
        x = ag.Tensor(x.astype(dtype), requires_grad=True)
        got, want = one_node(x), composed(x)
        assert got.dtype == want.dtype == dtype
        assert got.shape == want.shape and got.data.tobytes() == want.data.tobytes()
        if name != "total":         # the total's inputs are its terms (test below)
            assert len(got._op[0]) == 1 and got._op[0][0] is x

    @pytest.mark.parametrize("name", ["feature_gram", "cosine", "ortho", "tv", "total"])
    def test_finite_differences(self, name):
        rng = np.random.default_rng(34)
        one_node, _, x = self.cases(rng)[name]
        up = rng.normal(size=one_node(ag.Tensor(x)).shape)   # a non-symmetric adjoint
        check_grads(lambda t: ag.sum_(ag.mul(one_node(t), ag.Tensor(up))), [x])

    def test_total_is_one_node_over_its_weighted_terms(self):
        x = ag.Tensor(np.ones((3, 4)), requires_grad=True)
        terms = three_terms(x)
        total = compose_total(terms, TOTAL_WEIGHTS, TOTAL_ORDER)
        assert [id(t) for t in total._op[0]] == [id(terms[k]) for k in ("c", "a", "b")]
        assert compose_total(terms, {"skip": 1.0, "a": 0.0}, ("a",)) is None

    @pytest.mark.parametrize("squared", [False, True], ids=["plain", "squared"])
    @pytest.mark.parametrize("kind", ["gram", "image"])
    def test_second_order_through_the_term_nodes(self, kind, squared):
        """d/dx grad_norm_sq_replay(compose_total(...), [w]); squaring the total
        makes every adjoint entering the term nodes depend on x as well."""
        rng = np.random.default_rng(35)
        if kind == "gram":
            w = ag.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
            x0 = rng.normal(size=(4, 5))
            weights = {"cosine": 0.5, "ortho": 0.3}

            def terms_of(x):
                gram = feature_gram(ag.matmul(x, w))
                return {"cosine": cosine_diversity_loss(gram), "ortho": ortho_loss(gram)}
        else:
            w = ag.Tensor(rng.uniform(0.5, 1.5, size=(2, 1, 4, 5)), requires_grad=True)
            x0 = rng.uniform(-0.4, 1.4, size=(2, 1, 4, 5))
            weights = {"var": 0.7}

            def terms_of(x):
                return {"var": tv_loss(ag.mul(x, w))}

        def gns_of(x):
            total = compose_total(terms_of(x), weights, tuple(weights))
            return grad_norm_sq_replay(ag.square(total) if squared else total, [w])

        x = ag.Tensor(x0.copy(), requires_grad=True)
        (gx,) = ag.grad(gns_of(x), [x])
        want = fd_grad(lambda a: gns_of(ag.Tensor(a)).item(), x0.copy(), h=1e-5)
        np.testing.assert_allclose(gx.data, want, rtol=1e-4, atol=1e-8)


def tape_size(total):
    """Tape nodes reachable from ``total``, itself included."""
    seen, stack = {total}, [total]
    while stack:
        for inp in stack.pop()._op[0]:
            if inp._op is not None and inp not in seen:
                seen.add(inp)
                stack.append(inp)
    return len(seen)


def generator_loss_of(cfg, kind="mlp"):
    clf = Classifier(ClassifierSpec(kind=kind), rng=np.random.default_rng(0)).freeze()
    gen = Generator(GeneratorSpec(), rng=np.random.default_rng(1))
    rng = np.random.default_rng(2)
    labels, z = _draw_inputs(gen, [0, 1, 2], 32, rng)
    images = gen.forward(z, labels, rng)
    total, _ = generator_loss(images, clf, labels, cfg, rng)
    return total


# tape nodes reachable from one step's total; each hidden layer is one node
def test_mlp_generator_loss_tape_is_small():
    assert tape_size(generator_loss_of(InversionConfig())) <= 18


def test_mlp_reconstruction_loss_tape_is_small():
    """The reconstruction terms on; the grad-norm penalty is one node (its
    double backward recorded 28 more)."""
    assert tape_size(generator_loss_of(ReconConfig())) <= 29


def test_cnn_reconstruction_loss_tape_is_small():
    assert tape_size(generator_loss_of(ReconConfig(), kind="cnn")) <= 35


def test_one_row_cnn_forward_tape_is_small():
    """A one-row recording forward: layout transposes, two conv+pool
    layers, the flatten and two affine layers."""
    clf = Classifier(ClassifierSpec(kind="cnn"), rng=np.random.default_rng(0))
    logits, _ = clf.forward(np.zeros((1, 1, 12, 12), dtype=np.float32))
    assert tape_size(logits) <= 8
