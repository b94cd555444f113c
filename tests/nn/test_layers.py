"""Module-level layer tests: shapes, gradients, state management."""

import numpy as np
import pytest

from repro import nn
from tests.conftest import numeric_grad


@pytest.fixture
def rng():
    return np.random.default_rng(1)


class TestModuleInfra:
    def test_parameters_enumerated(self, rng):
        m = nn.Sequential(nn.Linear(3, 4, rng=rng), nn.ReLU(),
                          nn.Linear(4, 2, bias=False, rng=rng))
        names = [p.name for p in m.parameters()]
        assert names == ["weight", "bias", "weight"]
        assert m.num_parameters() > 0

    def test_train_eval_propagates(self):
        m = nn.Sequential(nn.Linear(3, 3), nn.Sequential(nn.ReLU()))
        m.eval()
        assert all(not mod.training for mod in m.modules())
        m.train()
        assert all(mod.training for mod in m.modules())

    def test_zero_grad(self, rng):
        m = nn.Linear(3, 2, rng=rng)
        x = rng.normal(size=(2, 3))
        m.backward_input = m(x)
        m.backward(np.ones((2, 2)))
        assert (m.weight.grad != 0).any()
        m.zero_grad()
        assert (m.weight.grad == 0).all()


class TestSequential:
    def test_forward_backward_chain(self, rng):
        m = nn.Sequential(nn.Linear(5, 4, rng=rng), nn.ReLU(),
                          nn.Linear(4, 3, rng=rng))
        x = rng.normal(size=(2, 5))
        out = m(x)
        assert out.shape == (2, 3)
        gx = m.backward(np.ones_like(out))
        assert gx.shape == x.shape

    def test_append_and_index(self):
        m = nn.Sequential(nn.ReLU())
        m.append(nn.Linear(2, 2))
        assert len(m) == 2
        assert isinstance(m[1], nn.Linear)

    def test_whole_net_gradient(self, rng):
        """End-to-end numeric gradient through a small MLP."""
        m = nn.Sequential(nn.Linear(3, 4, rng=rng), nn.ReLU(),
                          nn.Linear(4, 2, rng=rng))
        x = rng.normal(size=(2, 3))
        w = m[0].weight.data

        def loss():
            return float((m(x) ** 2).sum())

        out = m(x)
        m.zero_grad()
        m.backward(2 * out)
        np.testing.assert_allclose(m[0].weight.grad, numeric_grad(loss, w),
                                   atol=1e-5)
