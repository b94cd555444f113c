"""Vectorized NumPy implementations of the neural-network primitives.

Everything here is written in the "make it work, vectorize the hot loop"
style: convolutions are lowered to matrix multiplies through ``im2col`` so
that the inner loops run inside BLAS, and all backward passes reuse the
cached column matrices instead of re-deriving them.

All tensors use NCHW layout (batch, channels, height, width) and
``float64`` by default (precision matters more than speed at the scale we
train; the executor can run ``float32`` subnets for latency realism).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "im2col",
    "col2im",
    "conv2d",
    "conv2d_backward",
    "depthwise_conv2d",
    "depthwise_conv2d_backward",
    "global_avg_pool",
    "global_avg_pool_backward",
    "relu",
    "relu_backward",
    "hswish",
    "hswish_backward",
    "hsigmoid",
    "hsigmoid_backward",
    "sigmoid",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "cross_entropy_backward",
    "batchnorm2d",
    "batchnorm2d_backward",
    "linear",
    "linear_backward",
]


# ---------------------------------------------------------------------------
# im2col / col2im
# ---------------------------------------------------------------------------

def _out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


def im2col(x: np.ndarray, kh: int, kw: int, stride: int = 1,
           pad: int = 0) -> np.ndarray:
    """Rearrange image patches into columns.

    Parameters
    ----------
    x : (N, C, H, W) input.
    kh, kw : kernel height/width.
    stride : spatial stride.
    pad : symmetric zero padding.

    Returns
    -------
    (N * OH * OW, C * kh * kw) matrix whose rows are flattened receptive
    fields, ordered so that ``cols @ W.reshape(OC, -1).T`` computes the
    convolution.
    """
    n, c, h, w = x.shape
    oh = _out_size(h, kh, stride, pad)
    ow = _out_size(w, kw, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    # Strided view: (N, C, kh, kw, OH, OW) without copying.
    sn, sc, sh, sw = x.strides
    shape = (n, c, kh, kw, oh, ow)
    strides = (sn, sc, sh, sw, sh * stride, sw * stride)
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    # -> (N, OH, OW, C, kh, kw) -> rows
    cols = patches.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols)


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int], kh: int,
           kw: int, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Inverse of :func:`im2col` with accumulation (adjoint operator)."""
    n, c, h, w = x_shape
    oh = _out_size(h, kh, stride, pad)
    ow = _out_size(w, kw, stride, pad)
    hp, wp = h + 2 * pad, w + 2 * pad
    xp = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    cols6 = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            xp[:, :, i:i_max:stride, j:j_max:stride] += cols6[:, :, i, j]
    if pad > 0:
        return xp[:, :, pad:-pad, pad:-pad]
    return xp


# ---------------------------------------------------------------------------
# Convolutions
# ---------------------------------------------------------------------------

def conv2d(x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None,
           stride: int = 1, pad: int = 0):
    """Standard convolution via im2col.

    Returns ``(out, cache)`` where cache is reused by
    :func:`conv2d_backward`.
    """
    n, c, h, w = x.shape
    oc, ic, kh, kw = weight.shape
    if ic != c:
        raise ValueError(f"channel mismatch: input {c}, weight expects {ic}")
    oh = _out_size(h, kh, stride, pad)
    ow = _out_size(w, kw, stride, pad)
    cols = im2col(x, kh, kw, stride, pad)
    out = cols @ weight.reshape(oc, -1).T
    if bias is not None:
        out += bias
    out = out.reshape(n, oh, ow, oc).transpose(0, 3, 1, 2)
    cache = (x.shape, cols, weight, stride, pad)
    return out, cache


def conv2d_backward(grad_out: np.ndarray, cache):
    """Backward pass of :func:`conv2d`.

    Returns ``(grad_x, grad_w, grad_b)``.
    """
    x_shape, cols, weight, stride, pad = cache
    oc, ic, kh, kw = weight.shape
    n, co, oh, ow = grad_out.shape
    g = grad_out.transpose(0, 2, 3, 1).reshape(-1, oc)
    grad_w = (g.T @ cols).reshape(weight.shape)
    grad_b = g.sum(axis=0)
    grad_cols = g @ weight.reshape(oc, -1)
    grad_x = col2im(grad_cols, x_shape, kh, kw, stride, pad)
    return grad_x, grad_w, grad_b


def depthwise_conv2d(x: np.ndarray, weight: np.ndarray,
                     bias: Optional[np.ndarray] = None, stride: int = 1,
                     pad: int = 0):
    """Depthwise convolution: one filter per input channel.

    ``weight`` has shape (C, 1, kh, kw).
    """
    n, c, h, w = x.shape
    wc, one, kh, kw = weight.shape
    if wc != c or one != 1:
        raise ValueError(f"depthwise weight shape {weight.shape} mismatches C={c}")
    oh = _out_size(h, kh, stride, pad)
    ow = _out_size(w, kw, stride, pad)
    cols = im2col(x, kh, kw, stride, pad)          # (N*OH*OW, C*kh*kw)
    cols4 = cols.reshape(-1, c, kh * kw)            # (rows, C, K)
    wk = weight.reshape(c, kh * kw)                 # (C, K)
    out = np.einsum("rck,ck->rc", cols4, wk, optimize=True)
    if bias is not None:
        out += bias
    out = out.reshape(n, oh, ow, c).transpose(0, 3, 1, 2)
    cache = (x.shape, cols4, weight, stride, pad)
    return out, cache


def depthwise_conv2d_backward(grad_out: np.ndarray, cache):
    x_shape, cols4, weight, stride, pad = cache
    c, _, kh, kw = weight.shape
    g = grad_out.transpose(0, 2, 3, 1).reshape(-1, c)          # (rows, C)
    grad_w = np.einsum("rc,rck->ck", g, cols4, optimize=True).reshape(weight.shape)
    grad_b = g.sum(axis=0)
    wk = weight.reshape(c, kh * kw)
    grad_cols = np.einsum("rc,ck->rck", g, wk, optimize=True).reshape(
        g.shape[0], c * kh * kw)
    grad_x = col2im(grad_cols, x_shape, kh, kw, stride, pad)
    return grad_x, grad_w, grad_b


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def global_avg_pool(x: np.ndarray):
    out = x.mean(axis=(2, 3))
    return out, x.shape


def global_avg_pool_backward(grad_out: np.ndarray, x_shape) -> np.ndarray:
    n, c, h, w = x_shape
    return np.broadcast_to(
        grad_out[:, :, None, None] / (h * w), x_shape).copy()


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def relu(x: np.ndarray):
    out = np.maximum(x, 0.0)
    return out, (x > 0)


def relu_backward(grad_out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return grad_out * mask


def hsigmoid(x: np.ndarray):
    """Hard sigmoid: clip(x + 3, 0, 6) / 6 (MobileNetV3 variant)."""
    out = np.clip(x + 3.0, 0.0, 6.0) / 6.0
    return out, x


def hsigmoid_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    mask = (x > -3.0) & (x < 3.0)
    return grad_out * mask / 6.0


def hswish(x: np.ndarray):
    """Hard swish: x * hsigmoid(x)."""
    hs = np.clip(x + 3.0, 0.0, 6.0) / 6.0
    return x * hs, x


def hswish_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    inner = (x > -3.0) & (x < 3.0)
    d = np.where(x >= 3.0, 1.0, 0.0) + inner * (2.0 * x + 3.0) / 6.0
    return grad_out * d


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Numerically stable: compute on the negative half and reflect.
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# Softmax / losses
# ---------------------------------------------------------------------------

def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    z = x - x.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


def cross_entropy(logits: np.ndarray, targets: np.ndarray,
                  soft_targets: Optional[np.ndarray] = None):
    """Mean cross-entropy.

    ``targets`` are integer class labels; if ``soft_targets`` is given
    (N, K) it is used instead (knowledge distillation).
    Returns ``(loss, cache)``.
    """
    logp = log_softmax(logits, axis=-1)
    n = logits.shape[0]
    if soft_targets is not None:
        loss = -(soft_targets * logp).sum() / n
        cache = (logp, None, soft_targets)
    else:
        loss = -logp[np.arange(n), targets].mean()
        cache = (logp, targets, None)
    return float(loss), cache


def cross_entropy_backward(cache) -> np.ndarray:
    logp, targets, soft = cache
    n, k = logp.shape
    p = np.exp(logp)
    if soft is not None:
        grad = (p * soft.sum(axis=-1, keepdims=True) - soft) / n
    else:
        grad = p.copy()
        grad[np.arange(n), targets] -= 1.0
        grad /= n
    return grad


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------

def batchnorm2d(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                running_mean: np.ndarray, running_var: np.ndarray,
                training: bool, momentum: float = 0.1, eps: float = 1e-5):
    """2-D batch norm over (N, H, W) per channel.

    ``running_mean``/``running_var`` are updated in place in training mode
    (only over the active channel slice — elastic-width supernets rely on
    this).
    """
    if training:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mean
        running_var *= (1.0 - momentum)
        running_var += momentum * var
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    cache = (xhat, inv_std, gamma, training)
    return out, cache


def batchnorm2d_backward(grad_out: np.ndarray, cache):
    xhat, inv_std, gamma, training = cache
    n, c, h, w = grad_out.shape
    m = n * h * w
    grad_gamma = (grad_out * xhat).sum(axis=(0, 2, 3))
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    gx = grad_out * gamma[None, :, None, None]
    if training:
        # Full batch-norm backward (mean/var depend on x).
        grad_x = (inv_std[None, :, None, None] / m) * (
            m * gx
            - gx.sum(axis=(0, 2, 3))[None, :, None, None]
            - xhat * (gx * xhat).sum(axis=(0, 2, 3))[None, :, None, None]
        )
    else:
        grad_x = gx * inv_std[None, :, None, None]
    return grad_x, grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# Linear
# ---------------------------------------------------------------------------

def linear(x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None):
    """Affine map ``x @ W.T + b``; weight is (out, in)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out, (x, weight)


def linear_backward(grad_out: np.ndarray, cache):
    x, weight = cache
    grad_w = grad_out.T @ x
    grad_b = grad_out.sum(axis=0)
    grad_x = grad_out @ weight
    return grad_x, grad_w, grad_b
