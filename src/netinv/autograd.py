"""Dense tensors with reverse-mode automatic differentiation.

The tape is implicit: every tracked operation stores its input tensors and a
vector-Jacobian function (a closure, or a ``_Layer`` for the layer ops)
expressed in terms of the public ops. The function takes the output's
adjoint and one flag per input, and builds the adjoints of the flagged
inputs only (None for the others). ``grad`` is the one reverse pass; it
returns the adjoints rather than storing them on the tensors.
Running it with ``create_graph=True`` records the adjoint computation itself,
so gradients can be differentiated again: the tape is second-order capable.
The gradient-norm penalty (``grad_norm_sq``) does not need that: on a
piecewise-linear classifier its gradient has a first-order form, one extra
node over the layer inputs that the ordinary backward pass differentiates.

A forward computes its output and nothing else, so an op whose inputs need
no gradient pays only for the output. One rule holds for every VJP: it reads
its node's inputs, its adjoint and the forward's intermediate arrays, never
its own output, so the inputs must not change before the reverse pass. An op
whose derivative is written in terms of its output (``sigmoid``, ``softmax``)
recomputes that output from its input inside the VJP. No closure then holds
its own node, no node sits on a reference cycle, and reference counting
frees each step's tape, every intermediate array included, when the step
ends. State that only a VJP reads (a pooling mask, an activation's slope
scale) is built inside the VJP on its first call and kept in the closure,
because a step can call the same VJP twice: ``grad_norm_sq``'s inner pass and
the step's own backward pass.

A model layer is one node, and the layer ops are the layers the models
build, with no geometry or slope to set: ``linear(x, w, b, leaky)`` is the
affine map, then on a hidden layer a leaky ReLU of slope ``LEAKY_SLOPE``;
``conv2d(x, kernel, bias)`` is a CNN block, a stride-1 cross-correlation
with an odd square kernel, zero-padded by ``k // 2``, then a 2 x 2 max-pool
that halves H x W, the bias and the leaky ReLU. The pool runs before the
bias and the activation because the bias is one value per filter and the
slope is positive: both are monotone non-decreasing, so pooling first gives
the same bits on a quarter of the values. Its adjoint goes to the first tap,
in row-major order, that holds the window's maximum pre-activation, the
kernel matmul's output before the bias. The VJPs of ``linear`` and
``conv2d`` keep the pre-activation (and ``conv2d`` its im2col columns and
its pool's input) as forward intermediates. Their VJP is a ``_Layer``, which
also maps an adjoint of the layer's output to its pre-activation adjoint,
the one thing ``grad_norm_sq`` reads of the layer beyond the node's inputs.

The image ops (``im2col``, ``col2im``, ``conv2d``) take and return images as
[C, H, W, B], batch innermost. A kernel tap or a pooling tap then touches
contiguous runs of ``ow * B`` or ``B`` values instead of rows a few pixels
long, and the kernel matmul's [F, oh*ow*B] output is already an image.
Kernels stay [F, C, kh, kw].

A pass that records nothing (a model's ``predict`` or ``sample``) has no use
for Tensors: ``arrays`` holds plain-array twins of the ops a model's layers
use (``linear``, ``conv2d``, ``sigmoid``, ``dropout``, ``reshape``,
``transpose``). Each op and its twin call one helper for the
op's input checks and forward arithmetic (``_affine_data``,
``_conv2d_data``, ``_leaky_data``, ``_sigmoid_data``), so the two give the
same bits and raise the same errors. The namespace sets the mode:
``dropout`` always drops, and its twin is eval mode's identity.
``softmax_array`` is ``softmax``'s forward on an array.
"""

from types import SimpleNamespace

import numpy as np

from .errors import ContractError, ShapeError

DEFAULT_DTYPE = np.float32

# the negative-side slope of every leaky ReLU the models apply
LEAKY_SLOPE = 0.1

# whether ops record tape nodes; only ``grad`` turns it off, for its own pass
_grad_enabled = True


class Tensor:
    __slots__ = ("data", "requires_grad", "_op")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.requires_grad = bool(requires_grad)
        self._op = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return self.data.item()


def parameter(data):
    return Tensor(data, requires_grad=True)


def as_tensor(x, like=None):
    """``x`` itself if it is a Tensor, else a constant in ``like``'s dtype
    (float32 without ``like``)."""
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else DEFAULT_DTYPE
    return Tensor(np.asarray(x, dtype=dtype))


def _from_op(data, inputs, vjp):
    out = Tensor(data)
    if _grad_enabled:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                out._op = (tuple(inputs), vjp)
                break
    return out


def _unbroadcast(g, shape):
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    extra = g.data.ndim - len(shape)
    if extra > 0:
        g = reshape(sum_(g, axis=tuple(range(extra))), g.data.shape[extra:])
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.data.shape[i] != 1)
    if axes:
        g = sum_(g, axis=axes)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a, b):
    a = as_tensor(a, b if isinstance(b, Tensor) else None)
    b = as_tensor(b, a)

    def vjp(g, need):
        ga = _unbroadcast(g, a.data.shape) if need[0] else None
        gb = _unbroadcast(g, b.data.shape) if need[1] else None
        return ga, gb

    return _from_op(a.data + b.data, (a, b), vjp)


def sub(a, b):
    a = as_tensor(a, b if isinstance(b, Tensor) else None)
    b = as_tensor(b, a)

    def vjp(g, need):
        ga = _unbroadcast(g, a.data.shape) if need[0] else None
        gb = _unbroadcast(neg(g), b.data.shape) if need[1] else None
        return ga, gb

    return _from_op(a.data - b.data, (a, b), vjp)


def mul(a, b):
    a = as_tensor(a, b if isinstance(b, Tensor) else None)
    b = as_tensor(b, a)

    def vjp(g, need):
        ga = _unbroadcast(mul(g, b), a.data.shape) if need[0] else None
        gb = _unbroadcast(mul(g, a), b.data.shape) if need[1] else None
        return ga, gb

    return _from_op(a.data * b.data, (a, b), vjp)


def div(a, b):
    a = as_tensor(a, b if isinstance(b, Tensor) else None)
    b = as_tensor(b, a)

    def vjp(g, need):
        ga = _unbroadcast(div(g, b), a.data.shape) if need[0] else None
        gb = None
        if need[1]:
            gb = _unbroadcast(neg(div(mul(g, a), mul(b, b))), b.data.shape)
        return ga, gb

    return _from_op(a.data / b.data, (a, b), vjp)


def neg(a):
    a = as_tensor(a)

    def vjp(g, need):
        return (neg(g),)

    return _from_op(-a.data, (a,), vjp)


def pow_const(a, k):
    a = as_tensor(a)
    k = float(k)

    def vjp(g, need):
        return (mul(g, mul(pow_const(a, k - 1.0), as_tensor(k, a))),)

    return _from_op(a.data ** k, (a,), vjp)


def square(a):
    return mul(a, a)


def sqrt(a):
    return pow_const(a, 0.5)


def _leaky_data(pre):
    """Leaky ReLU of the array ``pre``; numpy takes ``LEAKY_SLOPE`` in the
    array's dtype."""
    # with the slope s in (0, 1], max(x, s*x) is x where x > 0 and s*x elsewhere
    out = pre * LEAKY_SLOPE
    return np.maximum(pre, out, out=out)


def _slope_select(pre):
    """The leaky ReLU's derivative at the array ``pre``: 1 where ``pre`` > 0,
    ``LEAKY_SLOPE`` elsewhere, in ``pre``'s dtype."""
    # (1 - up) * s + up: the select without a data-dependent branch, in place
    up = (pre > 0).astype(pre.dtype)
    sel = 1 - up
    sel *= LEAKY_SLOPE
    sel += up
    return sel


def _leaky(pre):
    """Leaky ReLU of the array ``pre`` -> (output, adjoint scaler).

    The scaler multiplies an adjoint by ``_slope_select(pre)``. It builds
    that select on its first call and keeps it, because a step can call it
    twice (``grad_norm_sq``'s pass and the step's). ``linear`` runs this
    arithmetic; its array twin runs its forward, ``_leaky_data``."""
    out = _leaky_data(pre)
    scale = None

    def scaled(g):
        nonlocal scale
        if scale is None:
            scale = Tensor(_slope_select(pre))
        return mul(g, scale)

    return out, scaled


def _sigmoid_data(x):
    """Stable logistic of the array ``x``: exp of the non-positive branch only."""
    e = np.exp(-np.abs(x))
    d = 1 + e
    # branch-free select of 1/d where x >= 0 and e/d elsewhere
    m = (x >= 0).astype(x.dtype)
    return m * (1 / d) + (1 - m) * (e / d)


def sigmoid(a):
    a = as_tensor(a)

    def vjp(g, need):
        s = sigmoid(a)
        return (mul(g, mul(s, sub(as_tensor(1.0, s), s))),)

    return _from_op(_sigmoid_data(a.data), (a,), vjp)


def clamp01(a):
    """Clip to [0, 1] with pass-through gradient strictly inside the range."""
    a = as_tensor(a)
    inside = ((a.data >= 0.0) & (a.data <= 1.0)).astype(a.dtype)

    def vjp(g, need):
        return (mul(g, Tensor(inside)),)

    return _from_op(np.clip(a.data, 0.0, 1.0), (a,), vjp)


def _dropout_keep(x, rate, rng):
    """Inverted dropout's scaled keep mask for the array ``x``, drawn from
    ``rng``; None at rate 0, where dropout is the identity."""
    if rate == 0.0:
        return None
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    return (rng.random(x.shape) >= rate).astype(x.dtype) / x.dtype.type(1.0 - rate)


def dropout(a, rate, rng):
    """Training-mode inverted dropout with an explicit RNG stream for
    reproducibility; eval mode is ``arrays.dropout``, the identity."""
    a = as_tensor(a)
    keep = _dropout_keep(a.data, rate, rng)
    return a if keep is None else mul(a, Tensor(keep))


# ---------------------------------------------------------------------------
# shape manipulation

def reshape(a, shape):
    a = as_tensor(a)
    orig = a.data.shape

    def vjp(g, need):
        return (reshape(g, orig),)

    return _from_op(a.data.reshape(shape), (a,), vjp)


def transpose(a, axes=None):
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))

    def vjp(g, need):
        return (transpose(g, tuple(np.argsort(axes))),)

    return _from_op(np.transpose(a.data, axes), (a,), vjp)


def broadcast_to(a, shape):
    a = as_tensor(a)
    orig = a.data.shape

    def vjp(g, need):
        return (_unbroadcast(g, orig),)

    return _from_op(np.broadcast_to(a.data, shape), (a,), vjp)


def take_slice(a, axis, lo, hi):
    a = as_tensor(a)
    orig = a.data.shape
    idx = tuple(slice(lo, hi) if d == axis else slice(None)
                for d in range(a.data.ndim))

    def vjp(g, need):
        return (pad_slice(g, orig, axis, lo),)

    return _from_op(a.data[idx], (a,), vjp)


def pad_slice(a, shape, axis, lo):
    """Embed ``a`` into zeros of ``shape`` starting at ``lo`` along ``axis``."""
    a = as_tensor(a)
    hi = lo + a.data.shape[axis]
    idx = tuple(slice(lo, hi) if d == axis else slice(None)
                for d in range(len(shape)))

    def vjp(g, need):
        return (take_slice(g, axis, lo, hi),)

    out = np.zeros(shape, dtype=a.dtype)
    out[idx] = a.data
    return _from_op(out, (a,), vjp)


# ---------------------------------------------------------------------------
# reductions

def sum_(a, axis=None):
    """Sum over ``axis`` (an int or a tuple), keeping the summed axes as size
    one, or over every axis to a scalar when ``axis`` is None."""
    a = as_tensor(a)
    orig = a.data.shape
    # accumulate in 64-bit, return in the input dtype
    out_data = a.data.sum(axis=axis, keepdims=axis is not None, dtype=np.float64)
    out_data = np.asarray(out_data, dtype=a.dtype)

    def vjp(g, need):
        return (broadcast_to(g, orig),)

    return _from_op(out_data, (a,), vjp)


# ---------------------------------------------------------------------------
# linear algebra / convolution

def _check_matmul(a, b):
    """Raise ``ShapeError`` unless the arrays ``a`` and ``b`` are 2-D and chain."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_matmul(a.data, b.data)

    def vjp(g, need):
        ga = matmul(g, transpose(b)) if need[0] else None
        gb = matmul(transpose(a), g) if need[1] else None
        return ga, gb

    return _from_op(a.data @ b.data, (a, b), vjp)


class _Layer:
    """The VJP of a ``linear`` or ``conv2d`` node. ``delta`` maps an adjoint
    of the node's output to the adjoint Δ of its pre-activation, which
    ``grad_norm_sq`` also reads; the op's own VJP, ``_vjp``, takes Δ and
    reads the conv's columns from the forward. The layer input H and the
    weight are the node's first two inputs."""

    __slots__ = ("_scaled", "_vjp")

    def __init__(self, scaled, vjp):
        self._scaled, self._vjp = scaled, vjp

    def delta(self, g):
        return g if self._scaled is None else self._scaled(g)

    def __call__(self, g, need):
        return self._vjp(self.delta(g), need)


def _affine_data(x, w, b):
    """``x @ w + b`` on arrays, after matmul's shape checks."""
    _check_matmul(x, w)
    return x @ w + b


def linear(x, w, b, leaky=False):
    """Affine layer ``x @ w + b`` as one node, followed in the same node by a
    leaky ReLU of slope ``LEAKY_SLOPE`` when ``leaky``; same arithmetic as
    matmul, add, then the activation. The pre-activation is a forward
    intermediate the VJP keeps."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    out = _affine_data(x.data, w.data, b.data)
    scaled = None
    if leaky:
        out, scaled = _leaky(out)

    def vjp(d, need):
        gx = matmul(d, transpose(w)) if need[0] else None
        gw = matmul(transpose(x), d) if need[1] else None
        gb = _unbroadcast(d, b.data.shape) if need[2] else None
        return gx, gw, gb

    return _from_op(out, (x, w, b), _Layer(scaled, vjp))


def _im2col_data(x, k):
    """im2col's arithmetic on a [C, H, W, B] array; ``im2col`` and
    ``conv2d`` share it."""
    if x.ndim != 4:
        raise ShapeError(f"im2col expects a 4-D [C, H, W, B] image, got {x.shape}")
    C, H, W, B = x.shape
    p = k // 2
    padded = np.zeros((C, H + 2 * p, W + 2 * p, B), dtype=x.dtype)
    padded[:, p:p + H, p:p + W] = x
    sC, sH, sW, sB = padded.strides
    windows = np.ndarray((C, k, k, H, W, B), padded.dtype, buffer=padded,
                         strides=(sC, sH, sW, sH, sW, sB))
    return windows.reshape(C * k * k, H * W * B)


def _cols_node(x, cols, k):
    """The im2col node of ``x`` whose columns ``cols`` are already computed."""
    img_shape = x.data.shape

    def vjp(g, need):
        return (col2im(g, img_shape, k),)

    return _from_op(cols, (x,), vjp)


def im2col(x, k):
    """Unfold a [C, H, W, B] image into [C*k*k, H*W*B] patch columns of an
    odd k x k kernel at stride 1, the image zero-padded by k // 2.

    The columns are ordered (y, x, b), batch innermost, which is the layout
    the kernel matmul takes and returns. One strided view [C, k, k, H, W, B]
    of the padded image is reshaped in one copy, which moves contiguous runs
    of W*B values.
    """
    x = as_tensor(x)
    return _cols_node(x, _im2col_data(x.data, k), k)


def _tap(s, n):
    """(image slice, output slice) along an axis of length ``n`` of the
    outputs that the kernel tap at offset ``s`` from the kernel's centre
    sends inside the image; it sends output index i to image index i + s,
    and no output at all when |s| >= n (two empty slices)."""
    lo = max(s, 0)
    hi = max(lo, n + min(s, 0))
    return slice(lo, hi), slice(lo - s, hi - s)


def col2im(cols, img_shape, k):
    """Adjoint of im2col: add [C*k*k, H*W*B] patch columns back into a
    [C, H, W, B] image.

    One slice add per kernel tap (di, dj), in row-major order, straight into
    a zeroed image: each tap adds only the patch values that land inside the
    image, so every pixel sums its contributions in that order and the
    result is contiguous.
    """
    cols = as_tensor(cols)
    C, H, W, B = img_shape
    if cols.data.shape != (C * k * k, H * W * B):
        raise ShapeError(f"col2im expects [C*k*k, H*W*B] = {(C * k * k, H * W * B)} "
                         f"columns for a [C, H, W, B] image {tuple(img_shape)}, "
                         f"got {cols.data.shape}")
    patches = cols.data.reshape(C, k, k, H, W, B)
    out = np.zeros((C, H, W, B), dtype=cols.dtype)
    rows = [_tap(d - k // 2, H) for d in range(k)]
    across = [_tap(d - k // 2, W) for d in range(k)]
    for di, (iy, oy) in enumerate(rows):
        for dj, (ix, ox) in enumerate(across):
            out[:, iy, ix] += patches[:, di, dj, oy, ox]

    def vjp(g, need):
        return (im2col(g, k),)

    return _from_op(out, (cols,), vjp)


def _maxpool_data(x):
    """The 2 x 2 max-pool of a [C, H, W, B] array, H and W even: a running
    maximum over the strided taps x[:, i::2, j::2], (i, j) row-major."""
    out = x[:, 0::2, 0::2].copy()
    for i in range(2):
        for j in range(2):
            if i or j:
                np.maximum(out, x[:, i::2, j::2], out=out)
    return out


def _conv2d_data(x, kernel, bias):
    """conv2d's checks and arithmetic up to its activation, on arrays ->
    (pooled pre-activation [F, H/2, W/2, B], the kernel matmul's output
    [F, H, W, B] and its pool, im2col columns [C*k*k, H*W*B])."""
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv2d expects a 4-D [C, H, W, B] input and [F, C, k, k] kernel, "
                         f"got {x.shape} and {kernel.shape}")
    C, H, W, B = x.shape
    F, Ck, kh, kw = kernel.shape
    if Ck != C:
        raise ShapeError(f"conv2d channel mismatch: [C, H, W, B] input {x.shape}, "
                         f"[F, C, k, k] kernel {kernel.shape}")
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"conv2d expects an odd square [F, C, k, k] kernel, "
                         f"got {kernel.shape}")
    if H % 2 or W % 2:
        raise ShapeError(f"conv2d pools 2 x 2 and needs H, W of a [C, H, W, B] image "
                         f"divisible by 2, got {x.shape}")
    if bias.size != F:
        raise ShapeError(f"conv2d bias needs one value per filter ({F}), "
                         f"got shape {bias.shape}")
    cols = _im2col_data(x, kh)
    conv = (kernel.reshape(F, C * kh * kw) @ cols).reshape(F, H, W, B)
    pooled = _maxpool_data(conv)
    return pooled + bias.reshape(F, 1, 1, 1), conv, pooled, cols


def conv2d(x, kernel, bias):
    """One CNN block as one node over x, kernel and bias: a [C, H, W, B]
    image, H and W even, cross-correlated with [F, C, k, k] kernels, k odd,
    at stride 1 over the image zero-padded by k // 2, then a 2 x 2 max-pool,
    a per-filter ``bias`` (F values, any shape) and a leaky ReLU of slope
    ``LEAKY_SLOPE`` -> [F, H/2, W/2, B].

    The forward is im2col's columns, the kernel matmul, its reshape without a
    copy, the pool, the bias add and the activation, in that order. The bias
    is one value per filter and the slope is positive, so both are monotone
    non-decreasing: pooling the matmul's output first gives the bits of
    pooling the activation. The pooled adjoint goes to the first tap, in
    (i, j) row-major order, that holds its window's maximum pre-activation
    (the matmul's output), times the slope select of that maximum; the VJP
    builds that scale once per node. It keeps the columns, and for the
    kernel's adjoint wraps them in an im2col node of ``x``, so a second-order
    pass (``create_graph=True``) differentiates through ``x`` without
    recomputing them.
    """
    x, kernel, bias = as_tensor(x), as_tensor(kernel), as_tensor(bias)
    pre, conv, pooled, cols = _conv2d_data(x.data, kernel.data, bias.data)
    C, H, W, B = x.data.shape
    F, _, k, _ = kernel.data.shape
    k2_shape = (F, C * k * k)
    taps = (F, H // 2, 2, W // 2, 2, B)
    scale = None

    def delta(g):
        nonlocal scale
        if scale is None:
            sel = _slope_select(pre)
            first = np.empty(taps, dtype=pre.dtype)
            free = np.ones(pooled.shape, dtype=bool)
            for i in range(2):
                for j in range(2):
                    hit = conv[:, i::2, j::2] == pooled
                    hit &= free
                    free ^= hit
                    np.multiply(hit, sel, out=first[:, :, i, :, j])
            scale = Tensor(first)
        # the adjoint broadcast over the 2 x 2 taps of each window
        up = mul(reshape(g, (F, H // 2, 1, W // 2, 1, B)), scale)
        return reshape(up, (F, H, W, B))

    def vjp(d, need):
        d2 = reshape(d, (F, cols.shape[1]))
        gx = gk = gb = None
        if need[0]:
            gx = col2im(matmul(transpose(reshape(kernel, k2_shape)), d2), (C, H, W, B), k)
        if need[1]:
            cols_t = transpose(_cols_node(x, cols, k))
            gk = reshape(matmul(d2, cols_t), kernel.data.shape)
        if need[2]:
            gb = reshape(sum_(d, axis=(1, 2, 3)), bias.data.shape)
        return gx, gk, gb

    return _from_op(_leaky_data(pre), (x, kernel, bias), _Layer(delta, vjp))


def _shifted(x):
    """The softmax arithmetic on an array ``x``: (x - max, its exp, the sum of
    that exp accumulated in 64-bit and cast back), reduced along the last
    axis."""
    if x.shape[-1] < 1:
        raise ShapeError(f"softmax axis is empty: {x.shape}")
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return z, e, e.sum(axis=-1, keepdims=True, dtype=np.float64).astype(z.dtype)


def softmax_array(x):
    """Row-stable softmax of the array ``x`` along its last axis, as an array."""
    _, e, s = _shifted(x)
    return e / s


def softmax(logits):
    """Row-stable softmax along the last axis as one node; its VJP is
    ``out * (g - sum(g * out))``."""
    logits = as_tensor(logits)

    def vjp(g, need):
        out = softmax(logits)
        return (mul(out, sub(g, sum_(mul(g, out), axis=-1))),)

    return _from_op(softmax_array(logits.data), (logits,), vjp)


# ---------------------------------------------------------------------------
# plain-array twins of the model layer ops

def _linear_array(x, w, b, leaky=False):
    out = _affine_data(x, w, b)
    return _leaky_data(out) if leaky else out


def _conv2d_array(x, kernel, bias):
    return _leaky_data(_conv2d_data(x, kernel, bias)[0])


# Each twin takes and returns arrays where its op takes and returns Tensors,
# with the op's signature, checks and arithmetic, and records nothing. A pass
# that records nothing runs in eval mode, so the dropout twin is the identity.
arrays = SimpleNamespace(
    linear=_linear_array, conv2d=_conv2d_array, sigmoid=_sigmoid_data,
    dropout=lambda a, rate, rng: a,
    reshape=lambda a, shape: a.reshape(shape),
    transpose=lambda a, axes=None: a.transpose(axes))


# ---------------------------------------------------------------------------
# reverse pass

def grad(out, wrt, create_graph=False):
    """Gradients of a scalar ``out`` w.r.t. each tensor in ``wrt``.

    Returns one Tensor per entry (zeros when no path exists). With
    ``create_graph=True`` the returned gradients remain differentiable.
    Only adjoints on a path from ``out`` to some entry of ``wrt`` are built:
    a node is needed when it is in ``wrt`` or has a needed input, and each
    VJP gets one flag per input saying which adjoints to return.

    Dicts and sets are keyed by the tensors themselves, which hash by
    identity: ``Tensor`` must not define ``__eq__`` or ``__hash__``.
    """
    if out.data.size != 1:
        raise ContractError(f"grad requires a scalar output, got shape {out.data.shape}")
    wrt = list(wrt)
    needed = {t for t in wrt if t.requires_grad}
    # one depth-first walk; a node whose inputs are all done is needed when
    # one of them is, and the needed nodes come out in topological order
    order, seen = [], set()
    stack = [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            need = tuple(inp in needed for inp in node._op[0])
            if any(need):
                needed.add(node)
                order.append((node, need))
        elif node._op is not None and node not in seen:
            seen.add(node)
            stack.append((node, True))
            stack.extend((inp, False) for inp in node._op[0]
                         if inp._op is not None and inp not in seen)
    keep = set(wrt)
    grads = {out: Tensor(np.ones_like(out.data))}
    global _grad_enabled
    recording = _grad_enabled
    _grad_enabled = recording and create_graph
    try:
        for node, need in reversed(order):
            g = grads.pop(node) if node not in keep else grads[node]
            inputs, vjp = node._op
            for inp, ig in zip(inputs, vjp(g, need)):
                if ig is None:
                    continue
                prev = grads.get(inp)
                grads[inp] = ig if prev is None else add(prev, ig)
    finally:
        _grad_enabled = recording
    return [grads[t] if t in grads else Tensor(np.zeros_like(t.data)) for t in wrt]


def grad_norm_sq(scalar_out, params):
    """Σ ‖d scalar_out / d θ‖² over ``params``, as one node over the inputs of
    the layers that hold them.

    Every listed parameter must enter the graph under ``scalar_out`` only as
    the weight or bias of ``linear`` or ``conv2d`` nodes; any other use
    raises ``ContractError``. One first-order ``grad`` over the nodes that
    hold a listed weight and over the parameters gives each such node's
    output adjoint, hence the adjoint Δ of its pre-activation, and each
    parameter's gradient: the weight gradient G = Hᵀ Δ over the layer input
    H (over H's im2col columns for a conv), the bias gradient Σ Δ, summed
    over the layers that share a parameter. The value sums every listed
    parameter's squared gradient, with the arithmetic of the double backward.

    The node's gradient is exact almost everywhere when every op between
    those layers' pre-activations and ``scalar_out`` is piecewise linear in
    its recorded input, with operands that do not depend on what is
    differentiated: leaky ReLU, max-pool, reshape, transpose, a layer's fixed
    weights, a sum of products with a constant (a classifier's true-class
    logit sum). Then each Δ is locally constant, the bias gradients carry no
    gradient, and the penalty's gradient is the first-order backward of
    Σ ⟨c, H⟩ with each c held constant: c = 2 Δ Gᵀ for a linear layer and
    col2im(2 Gᵀ Δ) for a conv. The VJP is ``mul(g, c)`` on each H: the node
    is differentiable to first order, exactly with respect to what feeds the
    layers from outside (a classifier's images), not with respect to the
    listed parameters. A loss that is not linear in the logits breaks the
    condition.
    """
    params = list(params)
    if not params:
        raise ContractError("grad_norm_sq needs a non-empty parameter set")
    if not scalar_out.requires_grad:
        raise ContractError("scalar output is not connected to the tape")
    listed = set(params)
    # the layer nodes whose weight is listed; no other node may take a
    # listed parameter
    nodes, seen, stack = [], {scalar_out}, [scalar_out]
    while stack:
        node = stack.pop()
        inputs, vjp = node._op
        is_layer = isinstance(vjp, _Layer)
        for i, inp in enumerate(inputs):
            if inp in listed:
                if not is_layer or i == 0:
                    raise ContractError("grad_norm_sq needs each parameter to enter the "
                                        "graph only as a linear or conv2d weight or bias")
            elif inp._op is not None and inp not in seen:
                seen.add(inp)
                stack.append(inp)
        if is_layer and inputs[1] in listed:
            nodes.append(node)

    adjoints = grad(scalar_out, nodes + params)
    grads = {p: g.data for p, g in zip(params, adjoints[len(nodes):])}
    total = None
    for p in params:
        g = grads[p]
        term = np.asarray((g * g).sum(dtype=np.float64), dtype=g.dtype)
        total = term if total is None else total + term

    inputs, coefs = [], []
    for node, g in zip(nodes, adjoints):
        (x, w, _), layer = node._op
        d, gw = layer.delta(g).data, grads[w]
        if gw.ndim == 2:
            c = d @ gw.T
        else:
            F, _, k, _ = gw.shape
            c = col2im(gw.reshape(F, -1).T @ d.reshape(F, -1), x.data.shape, k).data
        c *= 2
        inputs.append(x)
        coefs.append(Tensor(c))

    def vjp(g, need):
        return tuple(mul(g, c) if n else None for n, c in zip(need, coefs))

    return _from_op(total, tuple(inputs), vjp)
