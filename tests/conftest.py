import numpy as np
import pytest

from netinv import autograd as ag
from netinv.data import SynthSpec, synth_dataset
from netinv.errors import ContractError
from netinv.models import Classifier, ClassifierSpec
from netinv.training import accuracy, train_classifier


def grad_norm_sq_replay(scalar_out, params):
    """Σ ‖d scalar_out / d θ‖² over ``params`` by double backward: the inner
    pass runs with ``create_graph=True``, so the result stays differentiable,
    to any order, with respect to everything the parameters' gradients depend
    on. The oracle of ``autograd.grad_norm_sq``, and the tests' way into the
    second-order tape."""
    params = list(params)
    if not params:
        raise ContractError("grad_norm_sq needs a non-empty parameter set")
    if not scalar_out.requires_grad:
        raise ContractError("scalar output is not connected to the tape")
    total = None
    for g in ag.grad(scalar_out, params, create_graph=True):
        term = ag.sum_(ag.square(g))
        total = term if total is None else ag.add(total, term)
    return total


@pytest.fixture(scope="session")
def bars_data():
    spec = SynthSpec(family="bars", classes=3, size=12, noise=0.1, seed=42)
    return synth_dataset(spec, 600, 300)


@pytest.fixture(scope="session")
def trained_mlp(bars_data):
    """3-class MLP on synthetic bars; downstream tests need >= 95% held out."""
    train, test = bars_data
    clf = Classifier(ClassifierSpec(kind="mlp", in_shape=(1, 12, 12), classes=3),
                     rng=np.random.default_rng(7))
    train_classifier(clf, train.images, train.labels, epochs=15,
                     rng=np.random.default_rng(8))
    assert accuracy(clf, test.images, test.labels) >= 0.95
    return clf
