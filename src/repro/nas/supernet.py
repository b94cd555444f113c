"""The executable weight-sharing supernet.

A real (NumPy-engine) elastic MobileNetV3-style network: every submodel
of the :class:`~repro.nas.search_space.SearchSpace` is a *view* over one
shared parameter set —

* **elastic kernel**: smaller kernels are the center crop of the largest
  depthwise kernel;
* **elastic expand**: smaller expansion ratios use the first channels of
  the widest expansion;
* **elastic depth**: shallower stages skip their trailing blocks;
* **elastic resolution**: the input is simply given at a smaller size.

Units are indexed identically to the blocks of
:func:`~repro.nas.graph_builder.build_graph`, so an
:class:`~repro.partition.plan.ExecutionPlan` addresses cost blocks and
executable units interchangeably — that is what lets the distributed
executor run plan-sliced pieces of the supernet for real.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.init import he_normal, xavier_uniform
from ..nn.layers import Module, Parameter
from .arch import ArchConfig
from .search_space import SearchSpace

__all__ = ["Supernet", "ElasticConv2d", "ElasticDepthwiseConv2d",
           "ElasticBatchNorm2d", "ElasticLinear", "ElasticMBConv"]


# ---------------------------------------------------------------------------
# Elastic primitive layers
# ---------------------------------------------------------------------------

class ElasticConv2d(Module):
    """1x1/3x3 conv whose active in/out channels are a prefix slice."""

    def __init__(self, max_in: int, max_out: int, kernel: int = 1,
                 stride: int = 1, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.max_in, self.max_out = max_in, max_out
        self.kernel, self.stride = kernel, stride
        self.weight = Parameter(he_normal(
            (max_out, max_in, kernel, kernel), fan_in=max_in * kernel * kernel,
            rng=rng))
        self._cache = None
        self._active = None

    def forward_active(self, x: np.ndarray, in_ch: int, out_ch: int) -> np.ndarray:
        if in_ch > self.max_in or out_ch > self.max_out:
            raise ValueError(f"active channels ({in_ch},{out_ch}) exceed "
                             f"({self.max_in},{self.max_out})")
        w = np.ascontiguousarray(self.weight.data[:out_ch, :in_ch])
        out, self._cache = F.conv2d(x, w, None, self.stride, self.kernel // 2)
        self._active = (in_ch, out_ch)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        in_ch, out_ch = self._active
        gx, gw, _ = F.conv2d_backward(grad, self._cache)
        self.weight.grad[:out_ch, :in_ch] += gw
        return gx


class ElasticDepthwiseConv2d(Module):
    """Depthwise conv with elastic channel prefix and center-cropped kernel."""

    def __init__(self, max_ch: int, max_kernel: int, stride: int = 1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.max_ch, self.max_kernel, self.stride = max_ch, max_kernel, stride
        self.weight = Parameter(he_normal(
            (max_ch, 1, max_kernel, max_kernel), fan_in=max_kernel ** 2, rng=rng))
        self._cache = None
        self._active = None

    def forward_active(self, x: np.ndarray, ch: int, kernel: int) -> np.ndarray:
        if kernel > self.max_kernel or (self.max_kernel - kernel) % 2:
            raise ValueError(f"kernel {kernel} incompatible with max "
                             f"{self.max_kernel}")
        off = (self.max_kernel - kernel) // 2
        w = np.ascontiguousarray(
            self.weight.data[:ch, :, off:off + kernel, off:off + kernel])
        out, self._cache = F.depthwise_conv2d(x, w, None, self.stride,
                                              kernel // 2)
        self._active = (ch, kernel, off)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        ch, kernel, off = self._active
        gx, gw, _ = F.depthwise_conv2d_backward(grad, self._cache)
        self.weight.grad[:ch, :, off:off + kernel, off:off + kernel] += gw
        return gx


class ElasticBatchNorm2d(Module):
    """BatchNorm over the active channel prefix (running stats sliced)."""

    def __init__(self, max_ch: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.max_ch = max_ch
        self.momentum, self.eps = momentum, eps
        self.gamma = Parameter(np.ones(max_ch))
        self.beta = Parameter(np.zeros(max_ch))
        self.running_mean = np.zeros(max_ch)
        self.running_var = np.ones(max_ch)
        self._cache = None
        self._active = None

    def forward_active(self, x: np.ndarray, ch: int) -> np.ndarray:
        out, self._cache = F.batchnorm2d(
            x, self.gamma.data[:ch], self.beta.data[:ch],
            self.running_mean[:ch], self.running_var[:ch],
            self.training, self.momentum, self.eps)
        self._active = ch
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        ch = self._active
        gx, gg, gb = F.batchnorm2d_backward(grad, self._cache)
        self.gamma.grad[:ch] += gg
        self.beta.grad[:ch] += gb
        return gx


class ElasticLinear(Module):
    """Linear layer with elastic input/output prefixes."""

    def __init__(self, max_in: int, max_out: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.max_in, self.max_out = max_in, max_out
        self.weight = Parameter(xavier_uniform(
            (max_out, max_in), fan_in=max_in, fan_out=max_out, rng=rng))
        self.bias = Parameter(np.zeros(max_out))
        self._cache = None
        self._active = None

    def forward_active(self, x: np.ndarray, in_f: int, out_f: int) -> np.ndarray:
        w = np.ascontiguousarray(self.weight.data[:out_f, :in_f])
        out, self._cache = F.linear(x, w, self.bias.data[:out_f])
        self._active = (in_f, out_f)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        in_f, out_f = self._active
        gx, gw, gb = F.linear_backward(grad, self._cache)
        self.weight.grad[:out_f, :in_f] += gw
        self.bias.grad[:out_f] += gb
        return gx


def _act_forward(name: str, x: np.ndarray):
    return F.relu(x) if name == "relu" else F.hswish(x)


def _act_backward(name: str, grad: np.ndarray, cache) -> np.ndarray:
    return (F.relu_backward(grad, cache) if name == "relu"
            else F.hswish_backward(grad, cache))


# ---------------------------------------------------------------------------
# Elastic MBConv block
# ---------------------------------------------------------------------------

class ElasticMBConv(Module):
    """Inverted-residual block with elastic kernel and expansion.

    Residual connections apply when stride == 1 and in/out channels match
    (i.e. every non-first block in a stage).
    """

    def __init__(self, in_ch: int, out_ch: int, max_expand: int,
                 max_kernel: int, stride: int, use_se: bool, activation: str,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_ch, self.out_ch = in_ch, out_ch
        self.max_expand, self.max_kernel = max_expand, max_kernel
        self.stride, self.use_se, self.activation = stride, use_se, activation
        max_exp_ch = in_ch * max_expand
        self.expand = ElasticConv2d(in_ch, max_exp_ch, 1, 1, rng=rng)
        self.bn1 = ElasticBatchNorm2d(max_exp_ch)
        self.dw = ElasticDepthwiseConv2d(max_exp_ch, max_kernel, stride, rng=rng)
        self.bn2 = ElasticBatchNorm2d(max_exp_ch)
        if use_se:
            se_hidden = max(1, max_exp_ch // 4)
            self.se_fc1 = ElasticLinear(max_exp_ch, se_hidden, rng=rng)
            self.se_fc2 = ElasticLinear(se_hidden, max_exp_ch, rng=rng)
        self.project = ElasticConv2d(max_exp_ch, out_ch, 1, 1, rng=rng)
        self.bn3 = ElasticBatchNorm2d(out_ch)
        self._tape = None

    @property
    def has_residual(self) -> bool:
        return self.stride == 1 and self.in_ch == self.out_ch

    def forward_active(self, x: np.ndarray, kernel: int,
                       expand_ratio: int) -> np.ndarray:
        exp_ch = self.in_ch * expand_ratio
        tape = {}
        h = self.expand.forward_active(x, self.in_ch, exp_ch)
        h = self.bn1.forward_active(h, exp_ch)
        h, tape["act1"] = _act_forward(self.activation, h)
        h = self.dw.forward_active(h, exp_ch, kernel)
        h = self.bn2.forward_active(h, exp_ch)
        h, tape["act2"] = _act_forward(self.activation, h)
        if self.use_se:
            se_hidden = max(1, exp_ch // 4)
            s, tape["se_pool"] = F.global_avg_pool(h)
            s = self.se_fc1.forward_active(s, exp_ch, se_hidden)
            s, tape["se_relu"] = F.relu(s)
            s = self.se_fc2.forward_active(s, se_hidden, exp_ch)
            s, tape["se_gate"] = F.hsigmoid(s)
            tape["se_input"] = h
            tape["se_scale"] = s
            h = h * s[:, :, None, None]
        h = self.project.forward_active(h, exp_ch, self.out_ch)
        h = self.bn3.forward_active(h, self.out_ch)
        if self.has_residual:
            h = h + x
        self._tape = tape
        return h

    def backward(self, grad: np.ndarray) -> np.ndarray:
        tape = self._tape
        g = self.bn3.backward(grad)
        g = self.project.backward(g)
        if self.use_se:
            h, s = tape["se_input"], tape["se_scale"]
            g_h = g * s[:, :, None, None]
            g_s = (g * h).sum(axis=(2, 3))
            gs = F.hsigmoid_backward(g_s, tape["se_gate"])
            gs = self.se_fc2.backward(gs)
            gs = F.relu_backward(gs, tape["se_relu"])
            gs = self.se_fc1.backward(gs)
            g = g_h + F.global_avg_pool_backward(gs, tape["se_pool"])
        g = _act_backward(self.activation, g, tape["act2"])
        g = self.bn2.backward(g)
        g = self.dw.backward(g)
        g = _act_backward(self.activation, g, tape["act1"])
        g = self.bn1.backward(g)
        g = self.expand.backward(g)
        if self.has_residual:
            g = g + grad
        return g


# ---------------------------------------------------------------------------
# Unit wrappers (align with ModelGraph block indices)
# ---------------------------------------------------------------------------

class _StemUnit(Module):
    def __init__(self, out_ch: int, rng=None):
        super().__init__()
        self.conv = ElasticConv2d(3, out_ch, 3, 2, rng=rng)
        self.bn = ElasticBatchNorm2d(out_ch)
        self.out_ch = out_ch
        self._act = None

    def run(self, x, arch, space):
        h = self.conv.forward_active(x, 3, self.out_ch)
        h = self.bn.forward_active(h, self.out_ch)
        h, self._act = F.hswish(h)
        return h

    def backward(self, grad):
        g = F.hswish_backward(grad, self._act)
        g = self.bn.backward(g)
        return self.conv.backward(g)


class _BlockUnit(Module):
    def __init__(self, stage: int, block: int, mbconv: ElasticMBConv):
        super().__init__()
        self.stage_idx, self.block_idx = stage, block
        self.mbconv = mbconv

    def run(self, x, arch: ArchConfig, space: SearchSpace):
        slot = arch.slot(space, self.stage_idx, self.block_idx)
        return self.mbconv.forward_active(x, arch.kernels[slot],
                                          arch.expands[slot])

    def backward(self, grad):
        return self.mbconv.backward(grad)


class _FinalConvUnit(Module):
    def __init__(self, in_ch: int, out_ch: int, rng=None):
        super().__init__()
        self.conv = ElasticConv2d(in_ch, out_ch, 1, 1, rng=rng)
        self.bn = ElasticBatchNorm2d(out_ch)
        self.in_ch, self.out_ch = in_ch, out_ch
        self._act = None

    def run(self, x, arch, space):
        h = self.conv.forward_active(x, self.in_ch, self.out_ch)
        h = self.bn.forward_active(h, self.out_ch)
        h, self._act = F.hswish(h)
        return h

    def backward(self, grad):
        g = F.hswish_backward(grad, self._act)
        g = self.bn.backward(g)
        return self.conv.backward(g)


class _PoolUnit(Module):
    def run(self, x, arch, space):
        out, self._shape = F.global_avg_pool(x)
        return out

    def backward(self, grad):
        return F.global_avg_pool_backward(grad, self._shape)


class _HeadUnit(Module):
    def __init__(self, in_f: int, hidden: int, classes: int, rng=None):
        super().__init__()
        self.fc1 = ElasticLinear(in_f, hidden, rng=rng)
        self.fc2 = ElasticLinear(hidden, classes, rng=rng)
        self.in_f, self.hidden, self.classes = in_f, hidden, classes
        self._act = None

    def run(self, x, arch, space):
        h = self.fc1.forward_active(x, self.in_f, self.hidden)
        h, self._act = F.hswish(h)
        return self.fc2.forward_active(h, self.hidden, self.classes)

    def backward(self, grad):
        g = self.fc2.backward(grad)
        g = F.hswish_backward(g, self._act)
        return self.fc1.backward(g)


# ---------------------------------------------------------------------------
# The supernet
# ---------------------------------------------------------------------------

class Supernet(Module):
    """Weight-sharing supernet over a :class:`SearchSpace`.

    ``units`` is indexed exactly like the blocks of
    :func:`~repro.nas.graph_builder.build_graph` for the *max-depth*
    architecture; :meth:`active_units` maps an arch to its active unit
    indices (inactive depth slots are skipped).
    """

    def __init__(self, space: SearchSpace, seed: int = 0):
        super().__init__()
        self.space = space
        rng = np.random.default_rng(seed)
        units: List[Module] = [_StemUnit(space.stem_ch, rng=rng)]
        in_ch = space.stem_ch
        max_k = max(space.kernel_options)
        max_e = max(space.expand_options)
        for s, spec in enumerate(space.stages):
            for b in range(space.max_depth):
                stride = spec.stride if b == 0 else 1
                mb = ElasticMBConv(in_ch, spec.out_ch, max_e, max_k, stride,
                                   spec.use_se, spec.activation, rng=rng)
                units.append(_BlockUnit(s, b, mb))
                in_ch = spec.out_ch
        units.append(_FinalConvUnit(in_ch, space.final_ch, rng=rng))
        units.append(_PoolUnit())
        units.append(_HeadUnit(space.final_ch, space.head_hidden,
                               space.num_classes, rng=rng))
        self.units = units
        for i, u in enumerate(units):
            self.register_module(f"unit{i}", u)
        self._active_run: List[Module] = []

    # -- unit indexing -----------------------------------------------------
    def active_units(self, arch: ArchConfig) -> List[int]:
        """Indices into ``self.units`` active under ``arch``, in order."""
        arch.validate(self.space)
        idx = [0]  # stem
        base = 1
        for s in range(self.space.num_stages):
            for b in range(arch.depths[s]):
                idx.append(base + s * self.space.max_depth + b)
        n = len(self.units)
        idx += [n - 3, n - 2, n - 1]  # final conv, pool, head
        return idx

    # -- execution -----------------------------------------------------------
    def forward_arch(self, x: np.ndarray, arch: ArchConfig) -> np.ndarray:
        """Full submodel forward; records the unit tape for backward."""
        self._active_run = []
        for i in self.active_units(arch):
            unit = self.units[i]
            x = unit.run(x, arch, self.space)
            self._active_run.append(unit)
        return x

    def run_units(self, x: np.ndarray, arch: ArchConfig,
                  unit_indices: List[int]) -> np.ndarray:
        """Run a contiguous slice of active units (distributed executor)."""
        for i in unit_indices:
            x = self.units[i].run(x, arch, self.space)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for unit in reversed(self._active_run):
            grad = unit.backward(grad)
        return grad
