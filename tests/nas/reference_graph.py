"""``build_graph`` and ``arch_accuracy`` as they stood before a fresh
strategy was priced from per-space tables, kept verbatim as the oracle.

The live :func:`repro.nas.graph_builder.build_graph` shares the stem and
tail blocks per resolution, and :func:`repro.nas.accuracy_model.arch_accuracy`
reads its penalties from per-space tables and takes its means by a
replica of NumPy's pairwise sum.  ``tests/nas/test_graph_reference.py``
holds both ``==`` these on every :class:`ComputeBlock` field and on the
accuracy.  Only the imports were made absolute and the module's own
constants and helpers copied beside them; do not optimise or tidy this
file.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import List, Optional

import numpy as np

from repro.models.graph import ComputeBlock, ModelGraph, conv_flops, linear_flops
from repro.nas.arch import ArchConfig
from repro.nas.search_space import SearchSpace

__all__ = ["build_graph", "arch_accuracy", "ACC_MAX"]

_FP32 = 4

_BLOCK_MEMO = 4096

#: Top-1 accuracy of the max submodel (percent).
ACC_MAX = 78.6

# Penalty weights (percentage points at the extreme of each dimension).
_W_RESOLUTION = 2.2
_W_DEPTH = 2.4
_W_KERNEL = 1.3
_W_EXPAND = 1.9
_RESIDUAL_SCALE = 0.15


def _unit_penalty(value: float, lo: float, hi: float) -> float:
    """Map value in [lo, hi] to a penalty fraction in [0, 1] (1 at lo)."""
    if hi == lo:
        return 0.0
    return (hi - value) / (hi - lo)


def _residual(arch: ArchConfig, space: SearchSpace) -> float:
    key = repr(arch.canonical_key(space)).encode()
    digest = hashlib.sha256(key).digest()
    u = int.from_bytes(digest[:8], "little") / 2 ** 64
    return (2.0 * u - 1.0) * _RESIDUAL_SCALE


def _mean(values: List[float]) -> float:
    """``float(np.mean(values))`` without its dispatch layers: the same
    pairwise ``np.add.reduce`` over the same float64 array, divided by
    the same count — bit-identical, at a third of the cost on the 5–20
    element lists of one submodel."""
    return float(np.add.reduce(np.asarray(values)) / len(values))


def arch_accuracy(arch: ArchConfig, space: SearchSpace) -> float:
    """Top-1 accuracy (percent) of a submodel, independent of placement."""
    arch.validate(space)
    res_pen = _unit_penalty(arch.resolution, min(space.resolution_options),
                            max(space.resolution_options))
    depth_pen = _mean([
        _unit_penalty(d, space.min_depth, space.max_depth)
        for d in arch.depths])
    # one penalty per option, looked up per active slot
    klo, khi = min(space.kernel_options), max(space.kernel_options)
    elo, ehi = min(space.expand_options), max(space.expand_options)
    kernel_pens = {k: _unit_penalty(k, klo, khi)
                   for k in space.kernel_options}
    expand_pens = {e: _unit_penalty(e, elo, ehi)
                   for e in space.expand_options}
    active = arch.active_slots(space)
    kernel_pen = _mean([kernel_pens[arch.kernels[i]] for i in active])
    expand_pen = _mean([expand_pens[arch.expands[i]] for i in active])
    acc = (ACC_MAX
           - _W_RESOLUTION * res_pen
           - _W_DEPTH * depth_pen
           - _W_KERNEL * kernel_pen
           - _W_EXPAND * expand_pen
           + _residual(arch, space))
    return float(acc)


def _mbconv(h: int, w: int, in_ch: int, expand_ratio: int, out_ch: int,
            kernel: int, stride: int, use_se: bool):
    """FLOPs + params of one inverted-residual block (expand ratio form)."""
    exp = in_ch * expand_ratio
    f = conv_flops(h, w, in_ch, exp, 1)
    f += conv_flops(h, w, exp, exp, kernel, stride, groups=exp)
    oh, ow = h // stride, w // stride
    f += conv_flops(oh, ow, exp, out_ch, 1)
    params = in_ch * exp + exp * kernel * kernel + exp * out_ch
    if use_se:
        hid = max(1, exp // 4)
        f += 2.0 * (exp * hid * 2) + 2.0 * oh * ow * exp
        params += 2 * exp * hid + hid + exp
    return f, params * _FP32


@lru_cache(maxsize=_BLOCK_MEMO)
def _mbconv_block(stage: int, block: int, h: int, w: int, in_ch: int,
                  expand_ratio: int, out_ch: int, kernel: int, stride: int,
                  use_se: bool) -> ComputeBlock:
    """The (frozen) cost block of one inverted-residual block on an
    ``h x w`` input — a pure function of its arguments, so every graph
    that contains the block holds this one object."""
    f, p = _mbconv(h, w, in_ch, expand_ratio, out_ch, kernel, stride, use_se)
    return ComputeBlock(
        f"stage{stage}.block{block}", flops=f,
        out_hw=(h // stride, w // stride), out_ch=out_ch, weight_bytes=p,
        stage=stage + 1, halo=kernel // 2, depthwise=True)


def build_graph(arch: ArchConfig, space: SearchSpace,
                accuracy: Optional[float] = None) -> ModelGraph:
    """Build the cost graph of a submodel.

    ``accuracy`` defaults to the calibrated analytical model; pass an
    explicit value to tag the graph with a measured/predicted accuracy.
    """
    if accuracy is None:
        accuracy = arch_accuracy(arch, space)   # validates the arch first
    else:
        arch.validate(space)

    res = arch.resolution
    blocks: List[ComputeBlock] = []
    h = w = res // 2
    blocks.append(ComputeBlock(
        "stem", flops=conv_flops(res, res, 3, space.stem_ch, 3, 2),
        out_hw=(h, w), out_ch=space.stem_ch,
        weight_bytes=3 * space.stem_ch * 9 * _FP32, stage=0))
    in_ch = space.stem_ch
    kernels, expands, max_depth = arch.kernels, arch.expands, space.max_depth
    for s, spec in enumerate(space.stages):
        for b in range(arch.depths[s]):
            slot = s * max_depth + b
            stride = spec.stride if b == 0 else 1
            blocks.append(_mbconv_block(
                s, b, h, w, in_ch, expands[slot], spec.out_ch, kernels[slot],
                stride, spec.use_se))
            h, w = h // stride, w // stride
            in_ch = spec.out_ch
    blocks.append(ComputeBlock(
        "conv_last", flops=conv_flops(h, w, in_ch, space.final_ch, 1),
        out_hw=(h, w), out_ch=space.final_ch,
        weight_bytes=in_ch * space.final_ch * _FP32,
        stage=space.num_stages + 1))
    hh = space.head_hidden
    nc = space.num_classes
    head_flops = linear_flops(space.final_ch, hh) + linear_flops(hh, nc)
    head_params = (space.final_ch * hh + hh + hh * nc + nc) * _FP32
    blocks.append(ComputeBlock(
        "head.pool", flops=2.0 * h * w * space.final_ch, out_hw=(1, 1),
        out_ch=space.final_ch, partitionable=False, fused=True,
        stage=space.num_stages + 2))
    blocks.append(ComputeBlock(
        "head.fc", flops=head_flops, out_hw=(1, 1), out_ch=nc,
        weight_bytes=head_params, partitionable=False, fused=True,
        stage=space.num_stages + 2))
    return ModelGraph("murmuration_subnet", blocks, accuracy,
                      input_hw=(res, res))
