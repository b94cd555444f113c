"""ADCNN baseline (Zhang et al., ICPP'20).

Fully Decomposable Spatial Partition of a *fixed* DNN: every
partitionable block is split into an r x c tile grid executed in
parallel across devices; FDSP zero padding removes cross-tile traffic.
ADCNN fine-tunes the CNN to recover most of the partitioning loss, so
its accuracy is the base model's minus a small fixed fine-tuning residue.

We search the small set of (grid, device assignment) candidates and keep
the latency-minimal one — mirroring ADCNN's own partition selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from ..models.graph import ModelGraph
from ..netsim.mesh import MeshCluster
from ..partition.plan import ExecutionPlan, single_device_plan, spatial_plan
from ..partition.simulate import simulate_latency
from ..partition.spatial import Grid

__all__ = ["ADCNNResult", "adcnn_plan", "FDSP_FINETUNE_PENALTY"]

#: Residual accuracy loss after ADCNN's progressive fine-tuning (pct pts).
FDSP_FINETUNE_PENALTY = 0.4


@dataclass(frozen=True)
class ADCNNResult:
    plan: ExecutionPlan
    grid: Grid
    devices: Tuple[int, ...]
    latency_s: float
    accuracy: float


def _assignments(n_devices: int, ntiles: int) -> List[Tuple[int, ...]]:
    """Candidate tile->device assignments: distinct devices per tile,
    preferring remote devices (ADCNN offloads to the edge cluster)."""
    pool = list(range(n_devices))
    out: List[Tuple[int, ...]] = []
    for combo in combinations(pool, min(ntiles, len(pool))):
        if len(combo) == ntiles:
            out.append(tuple(combo))
    return out


def adcnn_plan(graph: ModelGraph, cluster: MeshCluster,
               bits: int = 32) -> ADCNNResult:
    """Best FDSP spatial partition of ``graph`` over the cluster."""
    candidates: List[Tuple[float, Grid, Tuple[int, ...], ExecutionPlan]] = []
    # Unpartitioned local execution is ADCNN's degenerate fallback.
    plan0 = single_device_plan(graph, 0)
    candidates.append((simulate_latency(graph, plan0, cluster).total_s,
                       Grid(1, 1), (0,), plan0))
    grids = [Grid(1, 2), Grid(2, 2), Grid(1, 3), Grid(1, 4), Grid(1, 5),
             Grid(2, 3)]
    for grid in grids:
        if grid.ntiles > cluster.num_devices:
            continue
        for devices in _assignments(cluster.num_devices, grid.ntiles):
            plan = spatial_plan(graph, grid, devices, bits=bits)
            latency = simulate_latency(graph, plan, cluster).total_s
            candidates.append((latency, grid, devices, plan))
    latency, grid, devices, plan = min(candidates, key=lambda c: c[0])
    accuracy = graph.accuracy - (FDSP_FINETUNE_PENALTY
                                 if grid.ntiles > 1 else 0.0)
    return ADCNNResult(plan, grid, devices, latency, accuracy)
