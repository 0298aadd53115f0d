import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netinv import autograd as ag
from netinv.errors import ContractError, ShapeError
from conftest import grad_norm_sq_replay


def fd_grad(f, x, h=1e-6):
    """Central finite differences of scalar f at float64 array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def check_grads(make_loss, arrays, rtol=1e-5, atol=1e-7):
    tensors = [ag.Tensor(a.copy(), requires_grad=True) for a in arrays]
    grads = ag.grad(make_loss(*tensors), tensors)
    for idx, (g, a) in enumerate(zip(grads, arrays)):
        def f(x, idx=idx):
            args = [ag.Tensor(arr.copy()) for arr in arrays]
            args[idx] = ag.Tensor(x.copy())
            return make_loss(*args).item()
        want = fd_grad(f, a.copy())
        np.testing.assert_allclose(g.data, want, rtol=rtol, atol=atol)


BOTH = (np.float32, np.float64)


class TestMatmul:
    def test_identity(self):
        a = ag.Tensor(np.eye(2))
        b = ag.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(ag.matmul(a, b).data, b.data)

    def test_zeros(self):
        a = ag.Tensor(np.eye(2))
        b = ag.Tensor(np.zeros((2, 3)))
        np.testing.assert_array_equal(ag.matmul(a, b).data, np.zeros((2, 3)))

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    want[i, j] += a[i, k] * b[k, j]
        got = ag.matmul(ag.Tensor(a), ag.Tensor(b)).data
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(3, 2\)"):
            ag.matmul(ag.Tensor(np.zeros((3, 4))), ag.Tensor(np.zeros((3, 2))))

    def test_gradients(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        check_grads(lambda x, y: ag.sum_(ag.square(ag.matmul(x, y))), [a, b])

    def test_linear_is_matmul_plus_add_bit_for_bit(self):
        rng = np.random.default_rng(17)
        arrays = [rng.normal(size=s).astype(np.float32) for s in ((5, 4), (4, 3), (1, 3))]

        def run(affine):
            x, w, b = (ag.Tensor(a.copy(), requires_grad=True) for a in arrays)
            out = affine(x, w, b)
            return [out] + ag.grad(ag.sum_(ag.square(ag.sigmoid(out))), [x, w, b])

        fused = run(ag.linear)
        split = run(lambda x, w, b: ag.add(ag.matmul(x, w), b))
        assert [t.data.tobytes() for t in fused] == [t.data.tobytes() for t in split]

    def test_linear_gradients(self):
        rng = np.random.default_rng(18)
        arrays = [rng.normal(size=s) for s in ((3, 4), (4, 2), (1, 2))]
        check_grads(lambda x, w, b: ag.sum_(ag.square(ag.linear(x, w, b))), arrays)

    def test_linear_shape_mismatch(self):
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(3, 2\)"):
            ag.linear(ag.Tensor(np.zeros((3, 4))), ag.Tensor(np.zeros((3, 2))),
                      ag.Tensor(np.zeros((1, 2))))


def chwn(x):
    """[B, C, H, W] -> the [C, H, W, B] layout of the image ops."""
    return x.transpose(1, 2, 3, 0)


def b_inner(cols, B):
    """[R, B*L] columns ordered (b, l) -> [R, L*B] ordered (l, b)."""
    R = cols.shape[0]
    return cols.reshape(R, B, -1).transpose(0, 2, 1).reshape(R, -1)


def b_outer(cols, B):
    """Inverse of ``b_inner``."""
    R = cols.shape[0]
    return cols.reshape(R, -1, B).transpose(0, 2, 1).reshape(R, -1)


def window_max(x):
    """The 2 x 2 window maxima of a [B, C, H, W] array."""
    B, C, H, W = x.shape
    return x.reshape(B, C, H // 2, 2, W // 2, 2).max(axis=(3, 5))


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 1, 4, 4))
        k = np.ones((1, 1, 1, 1))
        out = ag.conv2d(ag.Tensor(chwn(x)), ag.Tensor(k), ag.Tensor(np.zeros(1))).data
        want = window_max(x)
        np.testing.assert_allclose(out, chwn(np.maximum(want, ag.LEAKY_SLOPE * want)))

    def test_sum_kernel(self):
        # zero padding keeps 4 x 4 before the pool: each output sums the taps
        # inside the image, [[4, 6, 6, 4], [6, 9, 9, 6], ...]; each 2 x 2
        # window's maximum is its inner corner, or on the negated image its
        # outer corner
        x = chwn(np.ones((1, 1, 4, 4)))
        k = np.ones((1, 1, 3, 3))
        for sign, want in ((1, 9), (-1, -4 * ag.LEAKY_SLOPE)):
            out = ag.conv2d(ag.Tensor(sign * x), ag.Tensor(k), ag.Tensor(np.zeros(1))).data
            assert out.shape == (1, 2, 2, 1)
            np.testing.assert_array_equal(out[0, :, :, 0], np.full((2, 2), want))

    # a 5 x 5 kernel on a 2 x 4 image: whole kernel taps fall outside it
    @pytest.mark.parametrize("k, H, W", [(1, 6, 8), (3, 6, 8), (5, 6, 8), (5, 2, 4)])
    def test_nested_loop_oracle(self, k, H, W):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, H, W))
        kern = rng.normal(size=(4, 3, k, k))
        bias = rng.normal(size=4)
        pad = k // 2
        want = np.zeros((2, 4, H, W))
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        for b in range(2):
            for f in range(4):
                for i in range(H):
                    for j in range(W):
                        for c in range(3):
                            for u in range(k):
                                for v in range(k):
                                    want[b, f, i, j] += xp[b, c, i + u, j + v] * kern[f, c, u, v]
        want += bias.reshape(4, 1, 1)
        want = window_max(np.maximum(want, ag.LEAKY_SLOPE * want))
        got = ag.conv2d(ag.Tensor(chwn(x)), ag.Tensor(kern), ag.Tensor(bias)).data
        np.testing.assert_allclose(got, chwn(want), atol=1e-10)

    def test_gradients(self):
        rng = np.random.default_rng(4)
        x = chwn(rng.normal(size=(2, 2, 6, 6)))
        k = rng.normal(size=(3, 2, 3, 3))
        bias = rng.normal(size=(1, 3, 1, 1))
        check_grads(lambda a, b, c: ag.sum_(ag.square(ag.conv2d(a, b, c))),
                    [x, k, bias], rtol=1e-4, atol=1e-6)


def where_leaky_node(h):
    """The leaky ReLU of the Tensor ``h`` as a product with its
    ``where_leaky_relu`` scale, held as a constant."""
    return ag.mul(h, ag.Tensor(where_leaky_relu(h.data, ag.LEAKY_SLOPE)[1]))


def composed_pool(h):
    """The former max-pool node's arithmetic as tape ops: the taps of each
    2 x 2 window of the Tensor ``h`` times their first-hit mask (from
    ``maxpool_oracle``, held as a constant), summed over the window."""
    C, H, W, B = h.shape
    six = (C, H // 2, 2, W // 2, 2, B)
    _, mask = maxpool_oracle(h.data.transpose(3, 0, 1, 2), 2)
    mask = ag.Tensor(mask.transpose(1, 2, 3, 0).reshape(six))
    pooled = ag.sum_(ag.mul(ag.reshape(h, six), mask), axis=(2, 4))
    return ag.reshape(pooled, (C, H // 2, W // 2, B))


def composed_conv(x, k, bias):
    """The former op chain of a CNN block: im2col, the kernel reshape, the
    matmul and the output reshape, then the bias reshape and add, then the
    leaky ReLU, then the max-pool."""
    F, C, kh, kw = k.shape
    _, H, W, B = x.shape
    cols = ag.im2col(x, kh)
    h = ag.reshape(ag.matmul(ag.reshape(k, (F, C * kh * kw)), cols), (F, H, W, B))
    return composed_pool(where_leaky_node(ag.add(h, ag.reshape(bias, (-1, 1, 1, 1)))))


def composed_linear(x, w, b, leaky=False):
    h = ag.add(ag.matmul(x, w), b)
    return where_leaky_node(h) if leaky else h


def check_second_order(make_out, arrays, penalized, rtol=1e-3, atol=1e-6):
    """d/d(every other leaf) of ``grad_norm_sq_replay(make_out(*leaves), [the
    penalized leaves])`` against central differences, in float64: a gate on
    the second-order tape."""
    def gns(values):
        leaves = [ag.Tensor(a.copy(), requires_grad=True) for a in values]
        return leaves, grad_norm_sq_replay(make_out(*leaves), [leaves[i] for i in penalized])

    leaves, value = gns(arrays)
    others = [i for i in range(len(arrays)) if i not in penalized]
    for i, got in zip(others, ag.grad(value, [leaves[i] for i in others])):
        def f(a, i=i):
            return gns(arrays[:i] + [a] + arrays[i + 1:])[1].item()
        want = fd_grad(f, arrays[i].copy(), h=1e-5)
        np.testing.assert_allclose(got.data, want, rtol=rtol, atol=atol)


class TestLayerNodes:
    """``linear`` (with or without its leaky ReLU) and ``conv2d`` (a CNN
    block) are one tape node each, with the arithmetic of the op chains they
    replace."""

    @staticmethod
    def run(layer, arrays, up):
        """-> [output, adjoints of every input] of ``sum(layer(...) * up)``."""
        leaves = [ag.Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = layer(*leaves)
        return out, [out] + ag.grad(ag.sum_(ag.mul(out, ag.Tensor(up))), leaves)

    @pytest.mark.parametrize("dtype", BOTH)
    @pytest.mark.parametrize("leaky", [False, True])
    def test_linear_bit_equal_to_composed(self, leaky, dtype):
        rng = np.random.default_rng(50)
        arrays = [rng.normal(size=s).astype(dtype) for s in ((5, 4), (4, 3), (1, 3))]
        up = rng.normal(size=(5, 3)).astype(dtype)
        out, one = self.run(lambda x, w, b: ag.linear(x, w, b, leaky), arrays, up)
        _, chain = self.run(lambda x, w, b: composed_linear(x, w, b, leaky), arrays, up)
        assert len(out._op[0]) == 3
        assert [t.data.dtype for t in one] == [dtype] * 4
        assert [t.data.tobytes() for t in one] == [t.data.tobytes() for t in chain]

    @pytest.mark.parametrize("dtype", BOTH)
    @pytest.mark.parametrize("H, W", [(4, 6), (8, 2), (2, 2)])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_conv2d_bit_equal_to_composed(self, k, H, W, dtype):
        rng = np.random.default_rng(51 + k)
        arrays = [rng.normal(size=s).astype(dtype)
                  for s in ((2, H, W, 3), (4, 2, k, k), (1, 4, 1, 1))]
        up = rng.normal(size=(4, H // 2, W // 2, 3)).astype(dtype)
        out, one = self.run(ag.conv2d, arrays, up)
        _, chain = self.run(composed_conv, arrays, up)
        assert len(out._op[0]) == 3
        assert [t.data.dtype for t in one] == [dtype] * len(one)
        assert [t.data.tobytes() for t in one] == [t.data.tobytes() for t in chain]

    def test_linear_finite_differences(self):
        rng = np.random.default_rng(52)
        arrays = [rng.normal(size=s) for s in ((3, 4), (4, 2), (1, 2))]
        up = rng.normal(size=(3, 2))
        check_grads(lambda x, w, b: ag.sum_(ag.mul(ag.linear(x, w, b, leaky=True),
                                                   ag.Tensor(up))), arrays)

    @pytest.mark.parametrize("H, W", [(4, 4), (2, 4)])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_conv2d_finite_differences(self, k, H, W):
        rng = np.random.default_rng(53 + k)
        arrays = [rng.normal(size=s) for s in ((2, H, W, 2), (3, 2, k, k), (1, 3, 1, 1))]
        up = rng.normal(size=(3, H // 2, W // 2, 2))
        check_grads(lambda x, kern, b: ag.sum_(ag.mul(ag.conv2d(x, kern, b), ag.Tensor(up))),
                    arrays, rtol=1e-4, atol=1e-6)

    # the squared head makes the adjoint entering the layer depend on every leaf
    @pytest.mark.parametrize("penalized", [(1, 2), (0,)], ids=["over-params", "over-input"])
    def test_linear_second_order(self, penalized):
        rng = np.random.default_rng(54)
        w2 = ag.Tensor(rng.normal(size=(5, 2)))
        arrays = [rng.normal(size=s) for s in ((3, 4), (4, 5), (1, 5))]
        check_second_order(lambda x, w, b: ag.sum_(ag.square(ag.matmul(
            ag.linear(x, w, b, leaky=True), w2))), arrays, penalized)

    @pytest.mark.parametrize("penalized", [(1, 2), (0,)], ids=["over-params", "over-input"])
    def test_conv2d_second_order(self, penalized):
        """d/dx of the penalty over kernel and bias, and d/d(kernel, bias) of
        the penalty over the input, through conv2d(x, k, b) and its pool."""
        rng = np.random.default_rng(55)
        w = ag.Tensor(rng.normal(size=(8, 1)))
        arrays = [rng.normal(size=s) for s in ((1, 4, 4, 2), (2, 1, 3, 3), (1, 2, 1, 1))]

        def out_of(x, k, b):
            h = ag.reshape(ag.transpose(ag.conv2d(x, k, b), (3, 0, 1, 2)), (2, 8))
            return ag.sum_(ag.square(ag.matmul(h, w)))

        check_second_order(out_of, arrays, penalized)

    def test_conv2d_bias_needs_one_value_per_filter(self):
        x = ag.Tensor(np.zeros((1, 4, 4, 1)))
        with pytest.raises(ShapeError, match="bias"):
            ag.conv2d(x, ag.Tensor(np.zeros((2, 1, 3, 3))), ag.Tensor(np.zeros(3)))

    @pytest.mark.parametrize("H, W", [(5, 6), (7, 5), (2, 3)])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_conv2d_odd_image_rejected(self, k, H, W):
        """The block's 2 x 2 pool needs even H and W; im2col takes the same
        image."""
        x = ag.Tensor(np.zeros((2, H, W, 3)))
        with pytest.raises(ShapeError, match="divisible by 2"):
            ag.conv2d(x, ag.Tensor(np.zeros((4, 2, k, k))), ag.Tensor(np.zeros(4)))
        assert ag.im2col(x, k).shape == (2 * k * k, H * W * 3)


def _im2col_indices(C, H, W, kh, kw, stride, pad):
    """Index arrays of the former fancy-index im2col, kept as the oracle."""
    out_h = (H + 2 * pad - kh) // stride + 1
    out_w = (W + 2 * pad - kw) // stride + 1
    i0 = np.tile(np.repeat(np.arange(kh), kw), C)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * C)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    c = np.repeat(np.arange(C), kh * kw).reshape(-1, 1)
    return c, i, j


def im2col_oracle(x, kh, kw, stride, pad):
    """[C*kh*kw, B*L]: the index oracle's [B, C*kh*kw, L] with B moved inside."""
    c, i, j = _im2col_indices(*x.shape[1:], kh, kw, stride, pad)
    cols = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))[:, c, i, j]
    return cols.transpose(1, 0, 2).reshape(cols.shape[1], -1)


def col2im_oracle(cols, img_shape, kh, kw, stride, pad):
    B, C, H, W = img_shape
    c, i, j = _im2col_indices(C, H, W, kh, kw, stride, pad)
    cols = cols.reshape(cols.shape[0], B, -1).transpose(1, 0, 2)
    padded = np.zeros((B, C, H + 2 * pad, W + 2 * pad), dtype=cols.dtype)
    np.add.at(padded, (slice(None), c, i, j), cols)
    return padded[:, :, pad:pad + H, pad:pad + W]


class TestIm2col:
    # the kernel sizes at stride 1 and padding k // 2, on images as small as
    # 2 x 3 and 1 x 4, where whole kernel taps of k = 3 and 5 fall outside
    CASES = [(k, C, H, W) for k in (1, 3, 5) for C in (1, 3)
             for H, W in ((6, 6), (7, 5), (2, 3), (1, 4))]

    @pytest.mark.parametrize("k, C, H, W", CASES)
    def test_bit_equal_to_index_oracle(self, k, C, H, W):
        rng = np.random.default_rng(k * 1000 + H * 100 + C * 10 + W)
        x = rng.normal(size=(2, C, H, W)).astype(np.float32)
        xc = np.ascontiguousarray(chwn(x))
        cols = ag.im2col(ag.Tensor(xc), k).data
        want = b_inner(im2col_oracle(x, k, k, 1, k // 2), 2)
        assert cols.dtype == want.dtype and cols.tobytes() == want.tobytes()
        # the same values laid out as a strided view and as an offset view
        strided = chwn(x)
        offset = np.concatenate([xc[:, :, :, :1], xc], axis=3)[:, :, :, 1:]
        for view in (strided, offset):
            assert ag.im2col(ag.Tensor(view), k).data.tobytes() == want.tobytes()
        y = rng.normal(size=cols.shape).astype(np.float32)
        img = ag.col2im(ag.Tensor(y), xc.shape, k).data
        want = chwn(col2im_oracle(b_outer(y, 2), x.shape, k, k, 1, k // 2))
        assert img.shape == xc.shape and img.tobytes() == want.tobytes()

    def test_shape_errors_name_the_layout(self):
        img = ag.Tensor(np.zeros((1, 6, 6), dtype=np.float32))
        bad = [lambda: ag.im2col(img, 3),
               lambda: ag.col2im(ag.Tensor(np.zeros((9, 35))), (1, 6, 6, 1), 3),
               lambda: ag.conv2d(img, ag.Tensor(np.zeros((2, 1, 3, 3))),
                                 ag.Tensor(np.zeros(2))),
               lambda: ag.conv2d(ag.Tensor(np.zeros((1, 6, 5, 2))),
                                 ag.Tensor(np.zeros((2, 1, 3, 3))), ag.Tensor(np.zeros(2)))]
        for call in bad:
            with pytest.raises(ShapeError, match=r"\[C, H, W, B\]"):
                call()

    @pytest.mark.parametrize("k, C, H, W", CASES)
    def test_col2im_is_the_adjoint(self, k, C, H, W):
        rng = np.random.default_rng(7)
        x = chwn(rng.normal(size=(2, C, H, W)))
        cols = ag.im2col(ag.Tensor(x), k).data
        y = rng.normal(size=cols.shape)
        img = ag.col2im(ag.Tensor(y), x.shape, k).data
        assert np.vdot(cols, y) == pytest.approx(np.vdot(x, img), rel=1e-12)


def padded_col2im(cols, img_shape, kh, kw, stride, pad):
    """The former col2im: scatter every tap into a zeroed padded image, then
    return the interior as a strided view."""
    C, H, W, B = img_shape
    out_h = (H + 2 * pad - kh) // stride + 1
    out_w = (W + 2 * pad - kw) // stride + 1
    patches = cols.reshape(C, kh, kw, out_h, out_w, B)
    padded = np.zeros((C, H + 2 * pad, W + 2 * pad, B), dtype=cols.dtype)
    for di in range(kh):
        for dj in range(kw):
            padded[:, di:di + stride * out_h:stride,
                   dj:dj + stride * out_w:stride] += patches[:, di, dj]
    return padded[:, pad:pad + H, pad:pad + W]


class TestCol2imScatter:
    # square and rectangular images, and kernels that overhang the image
    # (k > H or k > W, reachable through the padding), down to one pixel
    CASES = [(k, H, W) for k in (1, 3, 5)
             for H, W in [(6, 6), (7, 5), (3, 4), (2, 6), (5, 2), (1, 1)]]

    @pytest.mark.parametrize("dtype", BOTH)
    @pytest.mark.parametrize("k, H, W", CASES)
    def test_bit_equal_to_padded_scatter(self, k, H, W, dtype):
        rng = np.random.default_rng(k * 1000 + H * 10 + W)
        shape = (2, H, W, 3)
        cols = rng.normal(size=(2 * k * k, H * W * 3)).astype(dtype)
        got = ag.col2im(ag.Tensor(cols), shape, k).data
        want = padded_col2im(cols, shape, k, k, 1, k // 2)
        assert got.flags.c_contiguous
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def maxpool_oracle(x, k):
    """The former argmax / np.eye one-hot max pooling: -> (output, gradient mask)."""
    B, C, H, W = x.shape
    windows = x.reshape(B, C, H // k, k, W // k, k).transpose(0, 1, 2, 4, 3, 5)
    windows = windows.reshape(B, C, H // k, W // k, k * k)
    onehot = np.eye(k * k, dtype=x.dtype)[np.argmax(windows, axis=-1)]
    mask = onehot.reshape(B, C, H // k, W // k, k, k).transpose(0, 1, 2, 4, 3, 5)
    return np.max(windows, axis=-1), mask.reshape(B, C, H, W)


def upsample(a):
    """[C, h, w, B] -> [C, 2h, 2w, B]: each value over its 2 x 2 window."""
    return np.repeat(np.repeat(a, 2, axis=1), 2, axis=2)


def conv_pool_oracle(x, kern, bias):
    """A CNN block on [C, H, W, B] arrays by the former composition: conv2d's
    kernel matmul (the same BLAS call on im2col's columns), the bias, the
    where-formula leaky ReLU, then ``maxpool_oracle`` -> (output, the adjoint
    scale: the first-hit mask of the matmul's output, the pre-activation,
    times the slope select of the pooled pre-activation)."""
    F, C, k, _ = kern.shape
    conv = (kern.reshape(F, -1) @ ag.im2col(ag.Tensor(x), k).data).reshape(F, *x.shape[1:])
    pre = conv + bias.reshape(F, 1, 1, 1)
    out, _ = maxpool_oracle(where_leaky_relu(pre, ag.LEAKY_SLOPE)[0].transpose(3, 0, 1, 2), 2)
    _, mask = maxpool_oracle(conv.transpose(3, 0, 1, 2), 2)
    pooled, _ = maxpool_oracle(pre.transpose(3, 0, 1, 2), 2)
    sel = where_leaky_relu(chwn(pooled), ag.LEAKY_SLOPE)[1]
    return chwn(out), chwn(mask) * upsample(sel)


@st.composite
def conv_blocks(draw):
    """(x, kernel, bias, output adjoint, second-order probe) of a CNN block,
    in one dtype, with values rounded so that many windows tie."""
    C, F, B = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    H, W = 2 * draw(st.integers(1, 4)), 2 * draw(st.integers(1, 4))
    k = draw(st.sampled_from([1, 3, 5]))
    dtype = draw(st.sampled_from(BOTH))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        x = np.round(rng.normal(size=(C, H, W, B)) * 1.5) / 2     # halves, -0.0 too
    else:
        x = np.full((C, H, W, B), 0.5)      # every inner window ties
    kern = np.round(rng.normal(size=(F, C, k, k)))
    bias = np.round(rng.normal(size=F) * 2) / 4
    up = rng.normal(size=(F, H // 2, W // 2, B))
    r = rng.normal(size=(F, H, W, B))
    return tuple(a.astype(dtype) for a in (x, kern, bias, up, r))


def slope_tie(dtype):
    """Adjacent negative values lo < hi of ``dtype``, the first from -1.5 up,
    whose leaky ReLU rounds to one value."""
    lo = dtype(-1.5)
    while True:
        hi = np.nextafter(lo, dtype(0))
        act, _ = where_leaky_relu(np.array([lo, hi]), ag.LEAKY_SLOPE)
        if act[0] == act[1]:
            return lo, hi
        lo = hi


class TestConvPool:
    """``conv2d``'s pool runs on the kernel matmul's output, before the bias
    and the leaky ReLU: the same bits as pooling the activation, and an
    adjoint on the first tap holding the window's maximum pre-activation."""

    @settings(max_examples=80, deadline=None)
    @given(block=conv_blocks())
    def test_forward_bit_equal_to_composed_oracle(self, block):
        x, kern, bias, _, _ = block
        want, _ = conv_pool_oracle(x, kern, bias)
        op = ag.conv2d(ag.Tensor(x), ag.Tensor(kern), ag.Tensor(bias)).data
        for got in (op, ag.arrays.conv2d(x, kern, bias)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(block=conv_blocks())
    def test_adjoint_bit_equal_to_upsample_then_multiply(self, block):
        """Both orders of the pool's VJP: the pre-activation adjoint Δ the
        node's ``_Layer`` hands ``grad_norm_sq`` (and ``grad`` sums into the
        bias adjoint), and (second order) the adjoint Δ sends back to the
        output adjoint."""
        x, kern, bias, up, r = block
        (F, H, W, B), dtype = r.shape, x.dtype
        _, scale = conv_pool_oracle(x, kern, bias)
        bt = ag.Tensor(bias, requires_grad=True)
        out = ag.conv2d(ag.Tensor(x), ag.Tensor(kern), bt)
        gt = ag.Tensor(up, requires_grad=True)
        delta = out._op[1].delta(gt)
        want = upsample(up) * scale
        assert delta.data.flags.c_contiguous
        assert delta.data.dtype == dtype and delta.data.tobytes() == want.tobytes()
        (gb,) = ag.grad(ag.sum_(ag.mul(out, ag.Tensor(up))), [bt])
        want_gb = want.sum(axis=(1, 2, 3), dtype=np.float64).astype(dtype)
        assert gb.data.tobytes() == want_gb.tobytes()
        (gg,) = ag.grad(ag.sum_(ag.mul(delta, ag.Tensor(r))), [gt])
        six = (F, H // 2, 2, W // 2, 2, B)
        want_gg = (r * scale).reshape(six).sum(axis=(2, 4), dtype=np.float64).astype(dtype)
        assert gg.data.dtype == dtype and gg.data.tobytes() == want_gg.reshape(up.shape).tobytes()

    @pytest.mark.parametrize("dtype", BOTH)
    @pytest.mark.parametrize("rounding", ["bias", "slope"])
    def test_adjoint_goes_to_the_true_maximum(self, rounding, dtype):
        """A window whose first two pre-activations differ, but whose bias
        add (or leaky slope) rounds them to one activation: the adjoint goes
        to the larger, second tap, not to the first that holds the maximum
        activation."""
        if rounding == "bias":      # 1 + 1 and (1 + ulp) + 1 both round to 2
            lo, hi, b = dtype(1), np.nextafter(dtype(1), dtype(2)), dtype(1)
        else:
            (lo, hi), b = slope_tie(dtype), dtype(0)
        x = np.array([[lo, hi], [lo - 1, lo - 1]], dtype=dtype).reshape(1, 2, 2, 1)
        act, _ = where_leaky_relu(x.reshape(4) + b, ag.LEAKY_SLOPE)
        assert lo < hi and act[0] == act[1]             # the premise
        xt = ag.Tensor(x, requires_grad=True)
        out = ag.conv2d(xt, *(ag.Tensor(np.full(s, v, dtype))
                              for s, v in (((1, 1, 1, 1), 1), ((1,), b))))
        assert out.data.reshape(()) == act[0]
        (gx,) = ag.grad(ag.sum_(out), [xt])
        want = np.zeros_like(x)
        want[0, 0, 1, 0] = 1 if rounding == "bias" else ag.LEAKY_SLOPE
        assert gx.data.tobytes() == want.tobytes()


class TestSoftmax:
    def test_symmetry(self):
        out = ag.softmax(ag.Tensor(np.array([0.0, 0.0]))).data
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_overflow_stability(self):
        out = ag.softmax(ag.Tensor(np.array([1000.0, 1000.0, 1000.0]))).data
        np.testing.assert_allclose(out, [1 / 3] * 3)
        assert np.all(np.isfinite(out))

    def test_exp_normalize_oracle(self):
        v = np.array([1.0, 2.0, 3.0])
        want = np.exp(v) / np.exp(v).sum()
        got = ag.softmax(ag.Tensor(v)).data
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        x = rng.normal(scale=5, size=(40, 7))
        out = ag.softmax(ag.Tensor(x)).data
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_one_node_with_finite_difference_gradients(self):
        rng = np.random.default_rng(20)
        x = rng.normal(scale=2, size=(4, 5))
        c = rng.normal(size=(4, 5))     # a plain sum of softmax rows is constant
        out = ag.softmax(ag.Tensor(x.copy(), requires_grad=True))
        assert all(inp._op is None for inp in out._op[0])
        check_grads(lambda t: ag.sum_(ag.mul(ag.softmax(t), ag.Tensor(c))), [x])

    def test_forward_bit_equal_to_composed_formula(self):
        # the arithmetic of the former exp / float64 sum / div composition
        x = np.random.default_rng(22).normal(scale=6, size=(64, 5)).astype(np.float32)
        z = x - x.max(axis=1, keepdims=True)
        s = np.sum(np.exp(z), axis=1, keepdims=True, dtype=np.float64).astype(np.float32)
        assert ag.softmax(ag.Tensor(x)).data.tobytes() == (np.exp(z) / s).tobytes()


class TestBackward:
    def test_square(self):
        x = ag.Tensor(np.array(3.0), requires_grad=True)
        (gx,) = ag.grad(ag.square(x), [x])
        assert gx.item() == pytest.approx(6.0)

    def test_softmax_sum_is_constant(self):
        v = ag.Tensor(np.array([0.3, -1.2, 2.0]), requires_grad=True)
        (gv,) = ag.grad(ag.sum_(ag.softmax(v)), [v])
        np.testing.assert_allclose(gv.data, 0.0, atol=1e-12)

    def test_two_layer_mlp_finite_differences(self):
        rng = np.random.default_rng(6)
        w1 = rng.normal(size=(5, 8))
        b1 = rng.normal(size=(1, 8))
        w2 = rng.normal(size=(8, 3))
        x = rng.normal(size=(4, 5))

        def loss(w1t, b1t, w2t):
            h = ag.linear(ag.Tensor(x), w1t, b1t, leaky=True)
            out = ag.matmul(h, w2t)
            return ag.div(ag.sum_(ag.square(ag.softmax(out))), float(out.data.size))

        check_grads(loss, [w1, b1, w2], rtol=1e-4, atol=1e-7)

    def test_builds_only_adjoints_that_reach_wrt(self, monkeypatch):
        rng = np.random.default_rng(14)
        x = ag.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = ag.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        loss = ag.sum_(ag.square(ag.matmul(x, w)))
        calls = []
        real = ag.matmul
        monkeypatch.setattr(ag, "matmul", lambda a, b: calls.append(1) or real(a, b))
        gx_full, _ = ag.grad(loss, [x, w])
        assert len(calls) == 2
        (gx,) = ag.grad(loss, [x])
        assert len(calls) == 3
        assert gx.data.tobytes() == gx_full.data.tobytes()

    def test_kernel_gradient_builds_no_image_adjoint(self, monkeypatch):
        rng = np.random.default_rng(15)
        x = ag.Tensor(chwn(rng.normal(size=(2, 1, 6, 6))), requires_grad=True)
        k = ag.Tensor(rng.normal(size=(2, 1, 3, 3)), requires_grad=True)
        loss = ag.sum_(ag.square(ag.conv2d(x, k, ag.Tensor(np.zeros(2)))))
        calls = []
        real = ag.col2im
        monkeypatch.setattr(ag, "col2im", lambda *a: calls.append(1) or real(*a))
        _, gk_full = ag.grad(loss, [x, k])
        assert len(calls) == 1
        (gk,) = ag.grad(loss, [k])
        assert len(calls) == 1
        assert gk.data.tobytes() == gk_full.data.tobytes()

    def test_tensors_hash_by_identity(self):
        # grad keys its dicts and sets by the tensors themselves
        assert ag.Tensor.__hash__ is object.__hash__
        assert ag.Tensor.__eq__ is object.__eq__

    def test_nonscalar_loss_rejected(self):
        v = ag.Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ContractError):
            ag.grad(v, [v])


class TestGradNormSq:
    def test_linear_case(self):
        w = ag.Tensor(np.array(2.0), requires_grad=True)
        x = ag.Tensor(np.array(3.0), requires_grad=True)
        out = ag.mul(w, x)
        assert grad_norm_sq_replay(out, [w]).item() == pytest.approx(9.0)

    def test_constant_in_params(self):
        w = ag.Tensor(np.array(5.0), requires_grad=True)
        x = ag.Tensor(np.array(3.0), requires_grad=True)
        out = ag.square(x)
        assert grad_norm_sq_replay(out, [w]).item() == pytest.approx(0.0)

    def test_nonnegative_zero_iff_vanishing(self):
        rng = np.random.default_rng(7)
        w = ag.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        x = ag.Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        val = grad_norm_sq_replay(ag.sum_(ag.matmul(x, w)), [w]).item()
        assert val > 0

    def test_second_order_analytic(self):
        # out = w * x^2 -> d out/d w = x^2 -> gns = x^4 -> d gns/dx = 4 x^3 = 32
        w = ag.Tensor(np.array(1.0), requires_grad=True)
        x = ag.Tensor(np.array(2.0), requires_grad=True)
        out = ag.mul(w, ag.square(x))
        gns = grad_norm_sq_replay(out, [w])
        assert gns.item() == pytest.approx(16.0)
        (gx,) = ag.grad(gns, [x])
        assert gx.item() == pytest.approx(32.0)

    def test_second_order_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        w1 = ag.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        w2 = ag.Tensor(rng.normal(size=(6, 1)), requires_grad=True)
        x0 = rng.normal(size=(2, 4))
        zero = ag.Tensor(np.zeros(6))

        def gns_value(x_arr):
            x = ag.Tensor(x_arr)
            h = ag.linear(x, w1, zero, leaky=True)
            out = ag.sum_(ag.matmul(h, w2))
            return grad_norm_sq_replay(out, [w1, w2]).item()

        x = ag.Tensor(x0.copy(), requires_grad=True)
        h = ag.linear(x, w1, zero, leaky=True)
        out = ag.sum_(ag.matmul(h, w2))
        gns = grad_norm_sq_replay(out, [w1, w2])
        (gx,) = ag.grad(gns, [x])
        want = fd_grad(gns_value, x0.copy(), h=1e-5)
        np.testing.assert_allclose(gx.data, want, rtol=1e-3, atol=1e-6)

    def test_second_order_through_linear(self):
        rng = np.random.default_rng(19)
        w1 = ag.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        b1 = ag.Tensor(rng.normal(size=(1, 6)), requires_grad=True)
        w2 = ag.Tensor(rng.normal(size=(6, 1)), requires_grad=True)
        b2 = ag.Tensor(rng.normal(size=(1, 1)), requires_grad=True)
        x0 = rng.normal(size=(2, 4))

        def gns_of(x):
            h = ag.linear(x, w1, b1, leaky=True)
            out = ag.sum_(ag.square(ag.linear(h, w2, b2)))
            return grad_norm_sq_replay(out, [w1, b1, w2, b2])

        x = ag.Tensor(x0.copy(), requires_grad=True)
        (gx,) = ag.grad(gns_of(x), [x])
        want = fd_grad(lambda a: gns_of(ag.Tensor(a)).item(), x0.copy(), h=1e-5)
        np.testing.assert_allclose(gx.data, want, rtol=1e-3, atol=1e-6)

    def test_second_order_through_conv_and_pool(self):
        rng = np.random.default_rng(16)
        k = ag.Tensor(rng.normal(size=(2, 1, 3, 3)), requires_grad=True)
        w = ag.Tensor(rng.normal(size=(8, 1)), requires_grad=True)
        x0 = chwn(rng.normal(size=(2, 1, 4, 4)))
        zero = ag.Tensor(np.zeros(2))

        def gns_of(x):
            h = ag.conv2d(x, k, zero)
            h = ag.reshape(ag.transpose(h, (3, 0, 1, 2)), (2, 8))
            return grad_norm_sq_replay(ag.sum_(ag.matmul(h, w)), [k, w])

        x = ag.Tensor(x0.copy(), requires_grad=True)
        (gx,) = ag.grad(gns_of(x), [x])
        want = fd_grad(lambda a: gns_of(ag.Tensor(a)).item(), x0.copy(), h=1e-5)
        np.testing.assert_allclose(gx.data, want, rtol=1e-3, atol=1e-6)

    def test_empty_params_rejected(self):
        x = ag.Tensor(np.array(1.0), requires_grad=True)
        with pytest.raises(ContractError):
            grad_norm_sq_replay(ag.square(x), [])


def where_leaky_relu(x, slope):
    """The former data-dependent select: -> (output, VJP scale)."""
    scale = np.where(x > 0, x.dtype.type(1), x.dtype.type(slope))
    return x * scale, scale


def where_sigmoid(x):
    """The former three-exp select: -> (output, VJP scale)."""
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(x.dtype)
    return out, out * (1 - out)


def leaky_op(t):
    """``linear``'s leaky ReLU of a one-to-one map [[1]] + 0 of a column."""
    return ag.linear(t, *(ag.Tensor(np.full((1, 1), v, t.dtype)) for v in (1, 0)),
                     leaky=True)


def conv_leaky_op(t):
    """``conv2d``'s leaky ReLU of a one-to-one map: each value of a column
    as the first tap of a 2 x 2 image whose other taps are -inf, a 1 x 1
    kernel [[1]] and a zero bias. The image is the column padded with zeros
    plus a constant: -inf on the other taps, and -0.0 on the first, which
    keeps every value's bits (a zero's sign included)."""
    n = t.data.size
    img = ag.pad_slice(ag.pad_slice(ag.reshape(t, (1, 1, 1, n)), (1, 1, 2, n), 2, 0),
                       (1, 2, 2, n), 1, 0)
    low = np.full((1, 2, 2, n), -np.inf, t.dtype)
    low[0, 0, 0] = -0.0
    out = ag.conv2d(ag.add(img, ag.Tensor(low)), *(ag.Tensor(np.full(s, v, t.dtype))
                           for s, v in (((1, 1, 1, 1), 1), ((1,), 0))))
    return ag.reshape(out, t.shape)


def leaky_oracle(x):
    """The where formula on numpy's result of ``leaky_op``'s map."""
    return where_leaky_relu(x @ np.ones((1, 1), x.dtype) + np.zeros((1, 1), x.dtype),
                            ag.LEAKY_SLOPE)


def scaled(oracle):
    """The (output, adjoint of ``up``) oracle of an (output, VJP scale) one."""
    def run(x, up):
        out, scale = oracle(x)
        return out, up * scale
    return run


def conv_leaky_oracle(x, up):
    """``leaky_oracle``, less the adjoint of a NaN: a NaN window holds no
    maximum, so the pool sends it none. col2im adds the input adjoint into
    zeros, so a zero adjoint is +0.0."""
    out, scale = leaky_oracle(x)
    return out, up * np.where(np.isnan(x), x.dtype.type(0), scale) + 0


class TestActivations:
    @pytest.mark.parametrize("op, oracle, dtype", [
        pytest.param(op, oracle, dtype, id=f"{name}-{np.dtype(dtype).name}")
        for name, op, oracle in [("leaky-0.1", leaky_op, scaled(leaky_oracle)),
                                 ("conv-leaky-0.1", conv_leaky_op, conv_leaky_oracle),
                                 ("sigmoid", ag.sigmoid, scaled(where_sigmoid))]
        for dtype in BOTH])
    def test_bit_equal_to_where_formula(self, op, oracle, dtype):
        rng = np.random.default_rng(13)
        x = np.concatenate([
            rng.normal(scale=8, size=500),
            np.round(rng.normal(size=100)),     # ties at 0, including -0.0
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-30, -1e-30,
             88.0, -88.0, 745.0, -745.0]]).astype(dtype)[:, None]
        up = rng.normal(size=x.shape).astype(dtype)
        with np.errstate(all="ignore"):
            want_out, want_gx = oracle(x, up)
            xt = ag.Tensor(x, requires_grad=True)
            out = op(xt)
            (gx,) = ag.grad(ag.sum_(ag.mul(out, ag.Tensor(up))), [xt])
        assert out.data.dtype == dtype and out.data.tobytes() == want_out.tobytes()
        assert gx.data.dtype == dtype and gx.data.tobytes() == want_gx.tobytes()


class TestBackwardState:
    @pytest.mark.parametrize("mode", ["constant_input", "twin"])
    def test_conv2d_forward_allocates_one_full_size_map(self, mode):
        """Besides im2col's columns, the forward allocates one [F, H, W, B]
        map, the kernel matmul's output: the pool runs on it, and the bias
        and the activation on the quarter-size pooled map."""
        rng = np.random.default_rng(32)
        x = np.ascontiguousarray(chwn(rng.normal(size=(8, 2, 32, 32)).astype(np.float32)))
        kern = rng.normal(size=(32, 2, 3, 3)).astype(np.float32)
        bias = rng.normal(size=32).astype(np.float32)
        full = 32 * x.nbytes // 2                       # one [F, H, W, B] map
        cols = 9 * x.nbytes
        tracemalloc.start()
        try:
            if mode == "constant_input":
                ag.conv2d(ag.Tensor(x), ag.Tensor(kern), ag.Tensor(bias))
            else:
                ag.arrays.conv2d(x, kern, bias)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cols + 2 * full

    def test_second_pass_reuses_vjp_state_bit_for_bit(self):
        rng = np.random.default_rng(33)
        x0 = chwn(np.round(rng.normal(size=(2, 3, 4, 4)) * 0.7).astype(np.float32))  # ties
        w = ag.Tensor(rng.normal(size=(12, 1)).astype(np.float32), requires_grad=True)
        eye = ag.Tensor(np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1))
        zero = ag.Tensor(np.zeros(3, dtype=np.float32))

        def loss_of(x):
            h = ag.transpose(ag.conv2d(x, eye, zero), (3, 0, 1, 2))
            return ag.sum_(ag.square(ag.matmul(ag.reshape(h, (2, 12)), w)))

        x = ag.Tensor(x0, requires_grad=True)
        loss = loss_of(x)
        inner = ag.grad(loss, [x, w], create_graph=True)    # as in grad_norm_sq_replay
        outer = ag.grad(loss, [x, w])
        x_fresh = ag.Tensor(x0, requires_grad=True)
        fresh = ag.grad(loss_of(x_fresh), [x_fresh, w])
        for a, b, c in zip(inner, outer, fresh):
            assert a.data.tobytes() == b.data.tobytes() == c.data.tobytes()


class TestOps:
    def test_conv2d_pool_forward_and_grad(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 2, 4, 4))
        eye, bias = np.eye(2).reshape(2, 2, 1, 1), rng.normal(size=2)
        out = ag.conv2d(ag.Tensor(chwn(x)), ag.Tensor(eye), ag.Tensor(bias)).data
        want = window_max(x) + bias.reshape(2, 1, 1)
        np.testing.assert_array_equal(out, chwn(np.maximum(want, ag.LEAKY_SLOPE * want)))
        check_grads(lambda t, k, b: ag.sum_(ag.square(ag.conv2d(t, k, b))), [chwn(x), eye, bias])

    def test_take_pad_slice_grad(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(2, 8))
        check_grads(lambda x: ag.sum_(ag.square(
            ag.pad_slice(ag.take_slice(x, 1, 2, 5), (2, 7), 1, 3))), [a])

    def test_dropout_deterministic_with_stream(self):
        x = ag.Tensor(np.ones((50, 50)))
        m1 = ag.dropout(x, 0.5, np.random.default_rng(3)).data
        m2 = ag.dropout(x, 0.5, np.random.default_rng(3)).data
        np.testing.assert_array_equal(m1, m2)

    def test_sigmoid_grad(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 3))
        check_grads(lambda t: ag.sum_(ag.sigmoid(t)), [x])

    def test_broadcast_add_grad(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(1, 3))
        check_grads(lambda x, y: ag.sum_(ag.square(ag.add(x, y))), [a, b])


@pytest.mark.parametrize("seed", range(20))
def test_random_graph_gradients(seed):
    """Random small graphs mixing affine, conv, pools and activations."""
    rng = np.random.default_rng(100 + seed)
    B = int(rng.integers(2, 4))
    d = int(rng.integers(3, 7))
    x = rng.uniform(-1, 1, size=(B, d))
    w = rng.uniform(-1, 1, size=(d, d))

    def loss(xt, wt):
        if seed % 3 == 1:
            h = ag.linear(xt, wt, ag.Tensor(np.zeros(d)), leaky=True)
        else:
            h = ag.matmul(xt, wt)
        if seed % 3 == 0:
            h = ag.sigmoid(h)
        elif seed % 3 == 2:
            h = ag.div(ag.mul(h, 0.3), ag.add(ag.square(h), 1.0))
        return ag.div(ag.sum_(ag.mul(ag.softmax(h), h)), float(h.data.size))

    check_grads(loss, [x, w], rtol=1e-4, atol=1e-6)


def _twin_cases(rng):
    """(op name, positional args as arrays, keyword args) that each op and its
    array twin in ``ag.arrays`` must run alike."""
    def a(*shape):
        return rng.normal(size=shape).astype(np.float32)

    return [
        ("linear", (a(5, 7), a(7, 3), a(1, 3)), {}),
        ("linear", (a(1, 7), a(7, 3), a(1, 3), True), {}),
        ("conv2d", (a(2, 6, 6, 3), a(4, 2, 3, 3), a(1, 4, 1, 1)), {}),
        ("conv2d", (a(2, 8, 6, 2), a(4, 2, 5, 5)), {"bias": a(4)}),
        ("conv2d", (a(3, 4, 4, 2), a(2, 3, 1, 1), a(2)), {}),
        ("conv2d", (a(1, 2, 4, 2), a(3, 1, 5, 5), a(3)), {}),
        ("conv2d", (a(2, 4, 6, 3), a(3, 2, 3, 3), a(3)), {}),
        ("conv2d", (a(1, 6, 2, 1), a(2, 1, 1, 1), a(1, 2, 1, 1)), {}),
        ("sigmoid", (a(4, 5) * 20,), {}),
        ("reshape", (a(2, 3, 4), (6, -1)), {}),
        ("transpose", (a(2, 3, 4), (2, 0, 1)), {}),
        ("transpose", (a(2, 3, 4),), {}),
    ]


def tensors(value):
    """A twin's argument as its tape op takes it: arrays become Tensors."""
    return ag.Tensor(value) if isinstance(value, np.ndarray) else value


class TestArrayTwins:
    """Each array twin runs its tape op's forward helper: the same bits and
    the same errors, on arrays and without a tape node."""

    @pytest.mark.parametrize("case", range(len(_twin_cases(np.random.default_rng(0)))))
    def test_bit_equal_to_op(self, case):
        name, args, kwargs = _twin_cases(np.random.default_rng(60))[case]
        want = getattr(ag, name)(*map(tensors, args),
                                 **{k: tensors(v) for k, v in kwargs.items()})
        got = getattr(ag.arrays, name)(*args, **kwargs)
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype
        assert got.shape == want.shape and got.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("name, args, kwargs, error", [
        ("linear", ((5, 7), (6, 3), (1, 3)), {}, ShapeError),
        ("linear", ((2, 5, 7), (7, 3), (1, 3)), {}, ShapeError),
        ("linear", ((5, 7), (7,), (1, 3)), {}, ShapeError),
        ("conv2d", ((3, 6, 6, 1), (4, 2, 3, 3), (4,)), {}, ShapeError),
        ("conv2d", ((6, 6, 1), (4, 6, 3, 3), (4,)), {}, ShapeError),
        ("conv2d", ((2, 6, 6, 1), (4, 2, 3), (4,)), {}, ShapeError),
        ("conv2d", ((2, 6, 6, 1), (4, 2, 2, 2), (4,)), {}, ShapeError),     # even kernel
        ("conv2d", ((2, 6, 6, 1), (4, 2, 3, 1), (4,)), {}, ShapeError),     # not square
        ("conv2d", ((2, 6, 6, 1), (4, 2, 3, 3)), {"bias": (1, 3, 1, 1)}, ShapeError),
        ("conv2d", ((2, 5, 6, 1), (4, 2, 3, 3), (4,)), {}, ShapeError),    # odd H
        ("conv2d", ((2, 6, 5, 1), (4, 2, 3, 3), (4,)), {}, ShapeError),    # odd W
        ("conv2d", ((2, 7, 5, 2), (4, 2, 5, 5), (4,)), {}, ShapeError),
        ("conv2d", ((1, 2, 3, 2), (3, 1, 5, 5), (3,)), {}, ShapeError),
    ])
    def test_raises_the_ops_error(self, name, args, kwargs, error):
        rng = np.random.default_rng(61)

        def build(v):
            return rng.normal(size=v).astype(np.float32) if isinstance(v, tuple) else v

        args = [build(v) for v in args]
        kwargs = {k: build(v) for k, v in kwargs.items()}
        messages = []
        for fn, wrap in ((getattr(ag, name), tensors),
                         (getattr(ag.arrays, name), lambda v: v)):
            with pytest.raises(error) as err:
                fn(*[wrap(v) for v in args], **{k: wrap(v) for k, v in kwargs.items()})
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("name", sorted(vars(ag.arrays)))
    def test_takes_the_ops_parameters(self, name):
        """The twin takes its op's parameters in the same order, of the same
        kinds and with the same defaults; only their names may differ."""
        def params(fn):
            return [(p.kind, p.default) for p in inspect.signature(fn).parameters.values()]

        assert params(getattr(ag.arrays, name)) == params(getattr(ag, name))

    def test_dropout_twin_is_eval_mode(self):
        """A pass that records nothing runs in eval mode: the dropout twin
        returns its input, while the tape op checks its rate and drops."""
        x = np.ones((2, 3), dtype=np.float32)
        assert ag.arrays.dropout(x, 0.5, None) is x
        with pytest.raises(ContractError, match=r"\[0, 1\)"):
            ag.dropout(ag.Tensor(x), 1.0, np.random.default_rng(0))
