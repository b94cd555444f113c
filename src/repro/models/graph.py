"""Cost-model representation of DNNs.

Every model in the reproduction — supernet submodels and the fixed
baseline networks (MobileNetV3, ResNet50, ...) — lowers to a
:class:`ModelGraph`: an ordered sequence of :class:`ComputeBlock` entries
carrying the quantities the distributed-execution simulator needs
(FLOPs, output activation geometry, weight bytes, partitionability).

The granularity is the *block* (an inverted-residual block, a ResNet
bottleneck, a dense stage, ...) because that is the granularity at which
Murmuration makes partitioning and placement decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

__all__ = ["ComputeBlock", "ModelGraph"]


@dataclass(frozen=True)
class ComputeBlock:
    """One schedulable unit of a DNN.

    Attributes
    ----------
    name : human-readable identifier, e.g. ``"stage2.block1"``.
    flops : multiply-accumulate count * 2 for the whole block.
    out_hw : spatial size (H, W) of the block output.
    out_ch : channel count of the block output.
    weight_bytes : parameter bytes (fp32) — used by the model-switch cost
        model and memory accounting.
    partitionable : whether FDSP spatial partitioning may split this block
        (convolutional trunk blocks are; classifier heads are not).
    fused : True for blocks that must execute on the aggregation device
        (global pooling + fully-connected head).
    stage : index of the macro-stage the block belongs to (-1 if n/a).
    halo : receptive-field growth across the block (pixels); drives the
        FDSP zero-padding overhead when the block is spatially tiled.
    sync_elements : elements every tile must receive from its peers when
        the block is partitioned (0 for FDSP conv blocks — that is the
        point of FDSP; ~2*N*D for patch-parallel transformer attention,
        whose keys/values are global).
    depthwise : True for depthwise-separable blocks (MBConv), whose low
        arithmetic intensity costs extra on CPUs relative to dense convs
        (DeviceProfile.depthwise_penalty).
    """

    name: str
    flops: float
    out_hw: Tuple[int, int]
    out_ch: int
    weight_bytes: int = 0
    partitionable: bool = True
    fused: bool = False
    stage: int = -1
    halo: int = 1
    sync_elements: int = 0
    depthwise: bool = False

    @property
    def out_elements(self) -> int:
        """Number of scalars in the output activation (batch size 1)."""
        return self.out_hw[0] * self.out_hw[1] * self.out_ch


class ModelGraph:
    """An ordered block sequence with an accuracy tag.

    ``input_hw``/``input_ch`` describe the network input (the image), so
    the simulator can price shipping the input to remote devices.
    """

    def __init__(self, name: str, blocks: Sequence[ComputeBlock],
                 accuracy: float, input_hw: Tuple[int, int] = (224, 224),
                 input_ch: int = 3):
        if not blocks:
            raise ValueError("a ModelGraph needs at least one block")
        if not (0.0 < accuracy <= 100.0):
            raise ValueError(f"accuracy must be in (0, 100], got {accuracy}")
        self.name = name
        self.blocks: List[ComputeBlock] = list(blocks)
        self.accuracy = float(accuracy)
        self.input_hw = input_hw
        self.input_ch = input_ch

    # -- aggregate queries ---------------------------------------------------
    @property
    def total_flops(self) -> float:
        return sum(b.flops for b in self.blocks)

    @property
    def total_weight_bytes(self) -> int:
        return sum(b.weight_bytes for b in self.blocks)

    @property
    def input_elements(self) -> int:
        return self.input_hw[0] * self.input_hw[1] * self.input_ch

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[ComputeBlock]:
        return iter(self.blocks)

    def __getitem__(self, i) -> ComputeBlock:
        return self.blocks[i]

    def split_points(self) -> List[int]:
        """Valid layer-wise split points: 0 = everything remote,
        len(blocks) = everything local."""
        return list(range(len(self.blocks) + 1))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ModelGraph({self.name!r}, blocks={len(self.blocks)}, "
                f"GFLOPs={self.total_flops / 1e9:.2f}, acc={self.accuracy:.1f}%)")


def conv_flops(h: int, w: int, in_ch: int, out_ch: int, kernel: int,
               stride: int = 1, groups: int = 1) -> float:
    """FLOPs (2 * MACs) of a convolution producing (h/stride, w/stride)."""
    oh, ow = h // stride, w // stride
    return 2.0 * oh * ow * (in_ch // groups) * out_ch * kernel * kernel


def linear_flops(in_features: int, out_features: int) -> float:
    return 2.0 * in_features * out_features
