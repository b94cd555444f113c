"""Numerical correctness of the NN primitives: every backward pass is
checked against central differences, and im2col/col2im are verified to
be adjoint."""

import numpy as np
import pytest

from repro.nn import functional as F
from tests.conftest import numeric_grad


@pytest.fixture
def rng():
    return np.random.default_rng(42)


# ---------------------------------------------------------------------------
# im2col / col2im
# ---------------------------------------------------------------------------

class TestIm2col:
    def test_shape(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        cols = F.im2col(x, 3, 3, stride=1, pad=1)
        assert cols.shape == (2 * 8 * 8, 3 * 9)

    def test_stride_shape(self, rng):
        x = rng.normal(size=(1, 2, 9, 9))
        cols = F.im2col(x, 3, 3, stride=2, pad=1)
        assert cols.shape == (5 * 5, 2 * 9)

    def test_values_identity_kernel(self, rng):
        """A 1x1 im2col is just a channel-last reshape."""
        x = rng.normal(size=(2, 3, 4, 4))
        cols = F.im2col(x, 1, 1)
        expect = x.transpose(0, 2, 3, 1).reshape(-1, 3)
        np.testing.assert_allclose(cols, expect)

    def test_adjoint_property(self, rng):
        """<im2col(x), y> == <x, col2im(y)> for all x, y."""
        x = rng.normal(size=(1, 2, 6, 6))
        cols = F.im2col(x, 3, 3, stride=2, pad=1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        xt = F.col2im(y, x.shape, 3, 3, stride=2, pad=1)
        rhs = float((x * xt).sum())
        assert abs(lhs - rhs) < 1e-9

    def test_col2im_roundtrip_counts(self):
        """col2im(im2col(ones)) counts patch memberships."""
        x = np.ones((1, 1, 4, 4))
        cols = F.im2col(x, 2, 2, stride=2)
        back = F.col2im(cols, x.shape, 2, 2, stride=2)
        np.testing.assert_allclose(back, 1.0)  # disjoint patches


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

class TestConv2d:
    def test_matches_naive(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        out, _ = F.conv2d(x, w, None, stride=1, pad=1)
        # naive reference
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        ref = np.zeros((1, 3, 5, 5))
        for oc in range(3):
            for i in range(5):
                for j in range(5):
                    ref[0, oc, i, j] = (xp[0, :, i:i + 3, j:j + 3] * w[oc]).sum()
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_bias(self, rng):
        x = rng.normal(size=(2, 2, 4, 4))
        w = rng.normal(size=(3, 2, 1, 1))
        b = np.array([1.0, -2.0, 0.5])
        out, _ = F.conv2d(x, w, b)
        out0, _ = F.conv2d(x, w, None)
        np.testing.assert_allclose(out - out0, b[None, :, None, None]
                                   * np.ones_like(out))

    def test_channel_mismatch_raises(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(3, 5, 3, 3))
        with pytest.raises(ValueError, match="channel mismatch"):
            F.conv2d(x, w)

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1), (1, 0), (2, 2)])
    def test_grad_x(self, rng, stride, pad):
        x = rng.normal(size=(2, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))

        def loss():
            out, _ = F.conv2d(x, w, None, stride, pad)
            return float((out ** 2).sum())

        out, cache = F.conv2d(x, w, None, stride, pad)
        gx, gw, gb = F.conv2d_backward(2 * out, cache)
        np.testing.assert_allclose(gx, numeric_grad(loss, x), atol=1e-5)
        np.testing.assert_allclose(gw, numeric_grad(loss, w), atol=1e-5)


class TestDepthwiseConv2d:
    def test_matches_grouped_naive(self, rng):
        x = rng.normal(size=(1, 3, 5, 5))
        w = rng.normal(size=(3, 1, 3, 3))
        out, _ = F.depthwise_conv2d(x, w, None, 1, 1)
        for c in range(3):
            ref, _ = F.conv2d(x[:, c:c + 1], w[c:c + 1], None, 1, 1)
            np.testing.assert_allclose(out[:, c:c + 1], ref, atol=1e-10)

    def test_grad(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(2, 1, 3, 3))

        def loss():
            out, _ = F.depthwise_conv2d(x, w, None, 1, 1)
            return float((out ** 2).sum())

        out, cache = F.depthwise_conv2d(x, w, None, 1, 1)
        gx, gw, gb = F.depthwise_conv2d_backward(2 * out, cache)
        np.testing.assert_allclose(gx, numeric_grad(loss, x), atol=1e-5)
        np.testing.assert_allclose(gw, numeric_grad(loss, w), atol=1e-5)

    def test_shape_mismatch_raises(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(3, 1, 3, 3))
        with pytest.raises(ValueError):
            F.depthwise_conv2d(x, w)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

class TestPooling:
    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        out, shape = F.global_avg_pool(x)
        np.testing.assert_allclose(out, x.mean(axis=(2, 3)))
        gx = F.global_avg_pool_backward(np.ones_like(out), shape)
        np.testing.assert_allclose(gx, 1.0 / 16)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

class TestActivations:
    @pytest.mark.parametrize("fwd,bwd", [
        (F.relu, F.relu_backward),
        (F.hswish, F.hswish_backward),
        (F.hsigmoid, F.hsigmoid_backward),
    ])
    def test_grad(self, rng, fwd, bwd):
        # avoid kink points by keeping values away from -3, 0, 3
        x = rng.normal(size=(4, 5)) * 2.0
        x += np.sign(x) * 0.05
        x[np.abs(np.abs(x) - 3.0) < 0.1] += 0.3

        def loss():
            out, _ = fwd(x)
            return float((out ** 2).sum())

        out, cache = fwd(x)
        gx = bwd(2 * out, cache)
        np.testing.assert_allclose(gx, numeric_grad(loss, x), atol=1e-5)

    def test_hswish_known_values(self):
        x = np.array([-4.0, -3.0, 0.0, 3.0, 5.0])
        out, _ = F.hswish(x)
        np.testing.assert_allclose(out, [0.0, 0.0, 0.0, 3.0, 5.0])

    def test_hsigmoid_range(self, rng):
        x = rng.normal(size=100) * 10
        out, _ = F.hsigmoid(x)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_sigmoid_stability(self):
        x = np.array([-1000.0, 0.0, 1000.0])
        out = F.sigmoid(x)
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)


# ---------------------------------------------------------------------------
# Softmax / losses
# ---------------------------------------------------------------------------

class TestLosses:
    def test_softmax_normalized(self, rng):
        x = rng.normal(size=(5, 7)) * 50
        p = F.softmax(x)
        np.testing.assert_allclose(p.sum(axis=1), 1.0)
        assert np.isfinite(p).all()

    def test_log_softmax_consistent(self, rng):
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(np.exp(F.log_softmax(x)), F.softmax(x))

    def test_cross_entropy_grad(self, rng):
        logits = rng.normal(size=(4, 5))
        targets = np.array([0, 2, 4, 1])

        def loss():
            l, _ = F.cross_entropy(logits, targets)
            return l

        _, cache = F.cross_entropy(logits, targets)
        g = F.cross_entropy_backward(cache)
        np.testing.assert_allclose(g, numeric_grad(loss, logits), atol=1e-6)

    def test_cross_entropy_soft_grad(self, rng):
        logits = rng.normal(size=(3, 4))
        soft = F.softmax(rng.normal(size=(3, 4)))

        def loss():
            l, _ = F.cross_entropy(logits, None, soft_targets=soft)
            return l

        _, cache = F.cross_entropy(logits, None, soft_targets=soft)
        g = F.cross_entropy_backward(cache)
        np.testing.assert_allclose(g, numeric_grad(loss, logits), atol=1e-6)

    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, _ = F.cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-10


# ---------------------------------------------------------------------------
# BatchNorm
# ---------------------------------------------------------------------------

class TestBatchNorm:
    def test_normalizes(self, rng):
        x = rng.normal(loc=5.0, scale=3.0, size=(8, 4, 6, 6))
        gamma, beta = np.ones(4), np.zeros(4)
        rm, rv = np.zeros(4), np.ones(4)
        out, _ = F.batchnorm2d(x, gamma, beta, rm, rv, training=True)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-4)

    def test_running_stats_updated(self, rng):
        x = rng.normal(loc=2.0, size=(16, 3, 4, 4))
        rm, rv = np.zeros(3), np.ones(3)
        F.batchnorm2d(x, np.ones(3), np.zeros(3), rm, rv, training=True,
                      momentum=1.0)
        np.testing.assert_allclose(rm, x.mean(axis=(0, 2, 3)))
        np.testing.assert_allclose(rv, x.var(axis=(0, 2, 3)))

    def test_eval_uses_running_stats(self, rng):
        x = rng.normal(size=(4, 2, 3, 3))
        rm = np.array([1.0, -1.0])
        rv = np.array([4.0, 0.25])
        out, _ = F.batchnorm2d(x, np.ones(2), np.zeros(2), rm.copy(),
                               rv.copy(), training=False)
        expect = (x - rm[None, :, None, None]) / np.sqrt(
            rv[None, :, None, None] + 1e-5)
        np.testing.assert_allclose(out, expect)

    def test_grad_training(self, rng):
        x = rng.normal(size=(4, 2, 3, 3))
        gamma = rng.normal(size=2)
        beta = rng.normal(size=2)

        def loss():
            rm, rv = np.zeros(2), np.ones(2)
            out, _ = F.batchnorm2d(x, gamma, beta, rm, rv, training=True)
            return float((out ** 3).sum())  # nonlinear to exercise xhat grad

        rm, rv = np.zeros(2), np.ones(2)
        out, cache = F.batchnorm2d(x, gamma, beta, rm, rv, training=True)
        gx, gg, gb = F.batchnorm2d_backward(3 * out ** 2, cache)
        np.testing.assert_allclose(gx, numeric_grad(loss, x), atol=1e-4)
        np.testing.assert_allclose(gg, numeric_grad(loss, gamma), atol=1e-4)
        np.testing.assert_allclose(gb, numeric_grad(loss, beta), atol=1e-4)


# ---------------------------------------------------------------------------
# Linear
# ---------------------------------------------------------------------------

class TestLinear:
    def test_values(self, rng):
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(5, 4))
        b = rng.normal(size=5)
        out, _ = F.linear(x, w, b)
        np.testing.assert_allclose(out, x @ w.T + b)

    def test_grad(self, rng):
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(5, 4))

        def loss():
            out, _ = F.linear(x, w)
            return float((out ** 2).sum())

        out, cache = F.linear(x, w)
        gx, gw, gb = F.linear_backward(2 * out, cache)
        np.testing.assert_allclose(gx, numeric_grad(loss, x), atol=1e-6)
        np.testing.assert_allclose(gw, numeric_grad(loss, w), atol=1e-6)
