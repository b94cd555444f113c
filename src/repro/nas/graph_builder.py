"""Lower an :class:`~repro.nas.arch.ArchConfig` to a cost
:class:`~repro.models.graph.ModelGraph`.

The resulting graph feeds the same latency simulator as the fixed
baseline models, so Murmuration submodels and baselines are priced
identically.

No two submodels of a search repeat, but their blocks do: an MBConv
block's cost is a pure function of ten small ints (where it sits, its
input size and channels, its expansion, kernel, stride and SE flag), and
``MBV3_SPACE`` has 900 distinct ones for about 10^20 submodels.  The stem
depends on the resolution alone and the final conv and head on the
trunk's output size.  :func:`build_graph` therefore assembles each graph
from **shared frozen blocks** kept in bounded memos; a graph owns its
block *list*, never its blocks, so compare blocks with ``==``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

from ..models.graph import ComputeBlock, ModelGraph, conv_flops, linear_flops
from .accuracy_model import arch_accuracy
from .arch import ArchConfig
from .search_space import SearchSpace

__all__ = ["build_graph"]

_FP32 = 4

#: cost blocks each memo keeps, least recently used out first (DESIGN.md,
#: "Plan cost model", Bounds: why a table of ints to frozen blocks may)
_BLOCK_MEMO = 4096


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


@lru_cache(maxsize=_BLOCK_MEMO)
def _stem(res: int, stem_ch: int) -> ComputeBlock:
    """The stem conv of a ``res x res`` image."""
    return ComputeBlock(
        "stem", flops=conv_flops(res, res, 3, stem_ch, 3, 2),
        out_hw=(res // 2, res // 2), out_ch=stem_ch,
        weight_bytes=3 * stem_ch * 9 * _FP32, stage=0)


@lru_cache(maxsize=_BLOCK_MEMO)
def _tail(h: int, w: int, in_ch: int, final_ch: int, hh: int, nc: int,
          num_stages: int) -> Tuple[ComputeBlock, ...]:
    """The final conv and the two head blocks behind an ``h x w x in_ch``
    trunk output."""
    head_flops = linear_flops(final_ch, hh) + linear_flops(hh, nc)
    head_params = (final_ch * hh + hh + hh * nc + nc) * _FP32
    return (
        ComputeBlock(
            "conv_last", flops=conv_flops(h, w, in_ch, final_ch, 1),
            out_hw=(h, w), out_ch=final_ch,
            weight_bytes=in_ch * final_ch * _FP32, stage=num_stages + 1),
        ComputeBlock(
            "head.pool", flops=2.0 * h * w * final_ch, out_hw=(1, 1),
            out_ch=final_ch, partitionable=False, fused=True,
            stage=num_stages + 2),
        ComputeBlock(
            "head.fc", flops=head_flops, out_hw=(1, 1), out_ch=nc,
            weight_bytes=head_params, partitionable=False, fused=True,
            stage=num_stages + 2))


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
    blocks: List[ComputeBlock] = [_stem(res, space.stem_ch)]
    h = w = res // 2
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
    blocks += _tail(h, w, in_ch, space.final_ch, space.head_hidden,
                    space.num_classes, space.num_stages)
    return ModelGraph("murmuration_subnet", blocks, accuracy,
                      input_hw=(res, res))
