"""Update rules, Adam (default) and SGD: ``opt.step(autograd.grad(loss, opt.params))``."""

import numpy as np

from .errors import ContractError, DomainError, ShapeError

# Adam's moment decay rates and denominator floor; no caller sets others
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


def _checked(params, grads):
    """-> one gradient array per parameter, in its dtype; count and shapes must match."""
    grads = list(grads)
    if len(grads) != len(params):
        raise ContractError(f"got {len(grads)} gradients for {len(params)} parameters")
    for p, g in zip(params, grads):
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.shape}")
    return [np.asarray(g.data, dtype=p.data.dtype) for p, g in zip(params, grads)]


class Adam:
    def __init__(self, params, lr=1e-3):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        # two scratch arrays per parameter, so a step allocates only the new p
        self._scratch = [(np.empty_like(p.data), np.empty_like(p.data)) for p in self.params]

    def step(self, grads):
        grads = _checked(self.params, grads)
        self.step_count += 1
        t = self.step_count
        # in place, in the operation order of
        #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        #   p = p - lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps)
        # so the result is bit-equal to that out-of-place formula
        for p, g, m, v, (step, denom) in zip(self.params, grads, self.m, self.v, self._scratch):
            m *= BETA1
            m += np.multiply(1 - BETA1, g, out=step)
            v *= BETA2
            np.multiply(1 - BETA2, g, out=denom)
            denom *= g
            v += denom
            np.divide(m, 1 - BETA1 ** t, out=step)
            step *= self.lr
            np.divide(v, 1 - BETA2 ** t, out=denom)
            np.sqrt(denom, out=denom)
            denom += EPS
            step /= denom
            # rebound, not updated in place: ``p.data -= step`` gives the same
            # bits, but then no fresh array pins the top of glibc's heap, the
            # freed tape is trimmed, and the next step faults its pages in
            # again (a CNN reconstruction step: 55 -> 759 page faults)
            p.data = p.data - step


class SGD:
    def __init__(self, params, lr=1e-2):
        self.params = list(params)
        self.lr = lr

    def step(self, grads):
        for p, g in zip(self.params, _checked(self.params, grads)):
            p.data = p.data - self.lr * g


def make_optimizer(params, kind="adam", **kw):
    if kind == "adam":
        return Adam(params, **kw)
    if kind == "sgd":
        return SGD(params, **kw)
    raise DomainError(f"unknown optimizer kind {kind!r}; choices: adam, sgd")
