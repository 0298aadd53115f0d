import numpy as np
import pytest

from netinv import autograd as ag
from netinv.errors import ContractError, DomainError, ShapeError
from netinv.optim import Adam, SGD, make_optimizer


def make_params():
    rng = np.random.default_rng(0)
    return [ag.parameter(rng.normal(size=(3, 4)).astype(np.float32)),
            ag.parameter(rng.normal(size=(1, 4)).astype(np.float32))]


def make_grads(params, seed=1):
    rng = np.random.default_rng(seed)
    return [ag.Tensor(rng.normal(size=p.shape).astype(np.float32)) for p in params]


def test_adam_first_step_moves_by_lr_sign():
    params = make_params()
    before = [p.data.copy() for p in params]
    grads = make_grads(params)
    Adam(params, lr=0.01).step(grads)
    for p, b, g in zip(params, before, grads):
        # m_hat = g and v_hat = g^2 after one step, so the move is lr * g / (|g| + eps)
        np.testing.assert_allclose(p.data - b, -0.01 * np.sign(g.data), atol=1e-6)


def test_adam_bit_equal_to_out_of_place_formula():
    params = make_params()
    for p in params:            # from zero the first update is -step exactly
        p.data = np.zeros_like(p.data)
    want = [p.data.copy() for p in params]
    m = [np.zeros_like(w) for w in want]
    v = [np.zeros_like(w) for w in want]
    b1, b2, lr, eps = 0.9, 0.999, 0.01, 1e-8
    opt = Adam(params, lr=lr)
    for t in range(1, 6):
        grads = make_grads(params, seed=t)
        opt.step(grads)
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1 - b1) * g.data
            v[i] = b2 * v[i] + (1 - b2) * g.data * g.data
            m_hat = m[i] / (1 - b1 ** t)
            v_hat = v[i] / (1 - b2 ** t)
            want[i] = want[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        for got, exp in zip([p.data for p in params] + opt.m + opt.v, want + m + v):
            assert got.dtype == exp.dtype and got.tobytes() == exp.tobytes()


def test_sgd_step_is_minus_lr_grad():
    params = make_params()
    before = [p.data.copy() for p in params]
    grads = make_grads(params)
    SGD(params, lr=0.1).step(grads)
    for p, b, g in zip(params, before, grads):
        np.testing.assert_array_equal(p.data, b - 0.1 * g.data)


@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_wrong_shape_gradient_rejected(kind):
    params = make_params()
    before = [p.data.copy() for p in params]
    grads = make_grads(params)
    grads[1] = ag.Tensor(np.zeros((4, 1), dtype=np.float32))
    with pytest.raises(ShapeError):
        make_optimizer(params, kind, lr=0.1).step(grads)
    for p, b in zip(params, before):
        np.testing.assert_array_equal(p.data, b)


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_gradient_count_mismatch_rejected(kind, count):
    params = make_params()
    before = [p.data.copy() for p in params]
    grads = (make_grads(params) * 2)[:count]
    with pytest.raises(ContractError):
        make_optimizer(params, kind, lr=0.1).step(grads)
    for p, b in zip(params, before):
        np.testing.assert_array_equal(p.data, b)


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        make_optimizer(make_params(), "foo")
