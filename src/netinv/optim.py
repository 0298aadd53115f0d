"""Parameter update rules: adaptive moments (default) and SGD momentum."""

import numpy as np

from .errors import DomainError, ShapeError


class Adam:
    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.step_count += 1
        t = self.step_count
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = np.asarray(p.grad.data, dtype=p.data.dtype)
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.data.shape}")
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1 ** t)
            v_hat = self.v[i] / (1 - self.beta2 ** t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class SGD:
    def __init__(self, params, lr=1e-2, momentum=0.0, weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.step_count = 0
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.step_count += 1
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = np.asarray(p.grad.data, dtype=p.data.dtype)
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.data.shape}")
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            self.velocity[i] = self.momentum * self.velocity[i] - self.lr * g
            p.data = p.data + self.velocity[i]


def make_optimizer(params, kind="adam", **kw):
    if kind == "adam":
        return Adam(params, **kw)
    if kind == "sgd":
        return SGD(params, **kw)
    raise DomainError(f"unknown optimizer kind {kind!r}; choices: adam, sgd")
