"""Neurosurgeon baseline (Kang et al., ASPLOS'17).

Layer-wise partitioning of a *fixed* DNN between the local device and
one remote device: profile every block on both devices, then pick the
split point minimizing predicted end-to-end latency (compute before the
split locally + transfer of the split activation + compute after the
split remotely).  We evaluate every split with the same simulator used
for Murmuration, which subsumes Neurosurgeon's analytical sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..models.graph import ModelGraph
from ..netsim.mesh import MeshCluster
from ..partition.plan import ExecutionPlan, layerwise_split_plan
from ..partition.simulate import simulate_latency

__all__ = ["NeurosurgeonResult", "neurosurgeon_plan"]


@dataclass(frozen=True)
class NeurosurgeonResult:
    plan: ExecutionPlan
    split: int
    latency_s: float
    accuracy: float


def neurosurgeon_plan(graph: ModelGraph, cluster: MeshCluster,
                      remote: int = 1, bits: int = 32) -> NeurosurgeonResult:
    """Best layer-wise split of ``graph`` between device 0 and ``remote``.

    Split 0 ships the raw input (cloud-only); split == len(graph) is
    local-only.  The returned accuracy is the fixed model's accuracy —
    layer-wise partitioning is lossless at fp32 (``bits=32``).
    """
    if not (1 <= remote < cluster.num_devices):
        raise ValueError(f"remote device {remote} not in cluster")
    best: Optional[Tuple[float, int, ExecutionPlan]] = None
    for split in graph.split_points():
        plan = layerwise_split_plan(graph, split, remote=remote, bits=bits)
        latency = simulate_latency(graph, plan, cluster).total_s
        if best is None or latency < best[0]:
            best = (latency, split, plan)
    latency, split, plan = best
    return NeurosurgeonResult(plan, split, latency, graph.accuracy)
