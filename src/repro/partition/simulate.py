"""Distributed-execution latency simulator.

Given a :class:`~repro.models.graph.ModelGraph`, an
:class:`~repro.partition.plan.ExecutionPlan` and a
:class:`~repro.netsim.topology.Cluster`, this module replays the
inference as an event-driven list schedule: per-device busy times,
per-tile data locations, and every inter-device transfer (priced at the
plan's wire precision) are tracked explicitly.

The same simulation backs the RL environment's reward, the baseline
evaluations (Neurosurgeon/ADCNN), and the figure benchmarks, so all
methods are compared under identical cost assumptions — mirroring how
the paper runs every method on the same testbed.

It is also the inner loop of RL training and of evolutionary search,
which price a *fresh* (submodel, plan) pair per step, so the walk runs
on flat lists and local accumulators: the previous block's tiles are
two parallel sequences (device, ready time), a block's wire sizes, FLOP
share and memory term are worked out once per block (its FDSP factor
read from a table by ``(out_hw, grid, halo)``), each device's roofline
constants once per call, and priced transfers are summed into the
report's communication terms once at the end.  The arithmetic is the
same float operations in the same order as the object-per-tile walker it
replaced, kept verbatim in ``tests/partition/reference_simulate.py`` as
the oracle: ``tests/partition/test_reference_simulate.py`` requires
``==`` on every :class:`LatencyReport` field, and
:func:`repro.partition.compiled.compile_plan` walks a plan block by
block the way this function does (``test_compiled_kernel.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from ..models.graph import ModelGraph
from ..netsim.topology import Cluster
from .plan import ExecutionPlan
from .spatial import Grid, fdsp_compute_overhead

__all__ = ["LatencyReport", "simulate_latency"]

_FP32 = 4


@dataclass
class LatencyReport:
    """Outcome of one simulated inference."""

    total_s: float
    compute_s: Dict[int, float] = field(default_factory=dict)
    comm_s: float = 0.0
    comm_bytes: float = 0.0
    num_transfers: int = 0
    per_block_done: List[float] = field(default_factory=list)
    tx_bytes: Dict[int, float] = field(default_factory=dict)
    rx_bytes: Dict[int, float] = field(default_factory=dict)

    @property
    def total_ms(self) -> float:
        return self.total_s * 1e3

    @property
    def busiest_device(self) -> int:
        return max(self.compute_s, key=self.compute_s.get)  # type: ignore[arg-type]


_G11 = Grid(1, 1)


@lru_cache(maxsize=1024)     # a few hundred keys (DESIGN.md, "Bounds")
def _fdsp_factor(out_hw: Tuple[int, int], rows: int, cols: int,
                 halo: int) -> float:
    return fdsp_compute_overhead(out_hw, Grid(rows, cols), halo=halo)


def simulate_latency(graph: ModelGraph, plan: ExecutionPlan,
                     cluster: Cluster) -> LatencyReport:
    """Simulate one batch-1 inference; returns a :class:`LatencyReport`.

    Weights are assumed resident on every participating device (the
    runtime pre-deploys the supernet/model — see Section 5.1); the
    separate model-switch experiment prices weight movement.
    """
    n_dev = cluster.num_devices
    plan.validate_for(graph, n_dev)

    # Straggler injection: per-device compute-time multipliers set by the
    # fault injector.  Empty (the default) costs one falsy check per tile
    # and leaves every timing bit-identical.
    compute_scale = getattr(cluster, "compute_scale", None)
    transfer_time = cluster.transfer_time
    # each device's roofline constants (``DeviceProfile.compute_time``)
    roofline = [(d.effective_flops, d.mem_bandwidth, d.block_overhead_s,
                 d.depthwise_penalty)
                for d in map(cluster.device, range(n_dev))]

    dev_ready = [0.0] * n_dev
    compute_s = [0.0] * n_dev
    per_block_done: List[float] = []
    # every priced transfer ``(src, dst, nbytes, seconds)``, in order; the
    # report's communication terms are summed from it once, at the end
    sent: List[Tuple[int, int, int, float]] = []

    # Input starts on the local device (device 0) at t=0.  The tiles of
    # the previous block: where each sits and when its data is there.
    tile_dev: Sequence[int] = (0,)
    tile_ready: List[float] = [0.0]
    prev_grid = _G11
    prev_elements = graph.input_elements

    for block, bp in zip(graph.blocks, plan.block_plans):
        grid, tiles_on, bits = bp.grid, bp.devices, bp.bits
        ntiles = len(tiles_on)          # == grid.ntiles (BlockPlan checks)
        out_hw = block.out_hw
        fdsp = _fdsp_factor(out_hw, grid.rows, grid.cols, block.halo)
        slice_elements = prev_elements / ntiles
        nprev = len(tile_dev)
        same_grid = (nprev == ntiles
                     and (grid is prev_grid or grid == prev_grid))
        # A tile's input: its predecessor's slice, or (repartition) an
        # equal share gathered from every previous holder; wire sizes are
        # ``wire_bytes`` (BlockPlan validated the bits).
        input_bytes = 32 + (int(
            slice_elements if same_grid else slice_elements / nprev)
            * bits + 7) // 8
        # Attention K/V exchange: what every tile gets from each peer.
        sync_bytes = (32 + (int(block.sync_elements / ntiles) * bits + 7) // 8
                      if ntiles > 1 and block.sync_elements > 0 else 0)
        # One tile's compute terms are the same on every tile.
        out_elements = out_hw[0] * out_hw[1] * block.out_ch
        flops = block.flops * fdsp / ntiles
        mem = (_FP32 * (prev_elements + out_elements) * fdsp / ntiles
               + block.weight_bytes)
        depthwise = block.depthwise

        new_ready: List[float] = []
        for j, dst in enumerate(tiles_on):
            # --- input arrival ------------------------------------------------
            if same_grid:
                src = tile_dev[j]
                arrival = tile_ready[j]
                if src != dst and input_bytes > 0:
                    t = transfer_time(src, dst, input_bytes)
                    sent.append((src, dst, input_bytes, t))
                    arrival = arrival + t
            else:
                arrival = 0.0
                for src, ready in zip(tile_dev, tile_ready):
                    if src != dst and input_bytes > 0:
                        t = transfer_time(src, dst, input_bytes)
                        sent.append((src, dst, input_bytes, t))
                        ready = ready + t
                    if ready > arrival:
                        arrival = ready
            # --- peer synchronization (attention K/V exchange) -----------------
            if sync_bytes > 0:
                for k, src in enumerate(tiles_on):
                    if k == j or src == dst:
                        continue
                    t = transfer_time(src, dst, sync_bytes)
                    sent.append((src, dst, sync_bytes, t))
                    ready = (tile_ready[k] if same_grid else arrival) + t
                    if ready > arrival:
                        arrival = ready
            # --- compute -------------------------------------------------------
            eff, mem_bw, overhead, dw_penalty = roofline[dst]
            t_compute = (flops * dw_penalty if depthwise else flops) / eff
            t_memory = mem / mem_bw
            if t_memory > t_compute:
                t_compute = t_memory
            t_compute += overhead
            if compute_scale:
                t_compute *= compute_scale.get(dst, 1.0)
            start = dev_ready[dst]
            if arrival > start:
                start = arrival
            end = start + t_compute
            dev_ready[dst] = end
            compute_s[dst] += t_compute
            new_ready.append(end)

        tile_dev, tile_ready = tiles_on, new_ready
        prev_grid = grid
        prev_elements = out_elements
        per_block_done.append(max(new_ready))

    # Ship the result (logits) back to the output device.  The testbed's
    # tc-netem delay shapes the request direction; the tiny logits
    # response crosses the unshaped direction, so only serialization and
    # wire time are charged here.
    out_dev = plan.output_device
    done = 0.0
    result_bytes = 32 + (int(prev_elements / len(tile_dev)) * 32 + 7) // 8
    for src, ready in zip(tile_dev, tile_ready):
        if src != out_dev:
            link_t = transfer_time(src, out_dev, result_bytes)
            delay_s = 0.0
            if src != 0 and out_dev == 0:
                delay_s = cluster.link_to(src).delay_ms / 1e3
            elif src == 0 and out_dev != 0:
                delay_s = cluster.link_to(out_dev).delay_ms / 1e3
            t = max(link_t - delay_s, 0.0)
            sent.append((src, out_dev, result_bytes, t))
            ready = ready + t
        if ready > done:
            done = ready

    comm_s = comm_bytes = 0.0
    tx_bytes = [0.0] * n_dev
    rx_bytes = [0.0] * n_dev
    for src, dst, nbytes, t in sent:
        comm_s += t
        comm_bytes += nbytes
        tx_bytes[src] += nbytes
        rx_bytes[dst] += nbytes
    return LatencyReport(
        total_s=done, compute_s=dict(enumerate(compute_s)), comm_s=comm_s,
        comm_bytes=comm_bytes, num_transfers=len(sent),
        per_block_done=per_block_done, tx_bytes=dict(enumerate(tx_bytes)),
        rx_bytes=dict(enumerate(rx_bytes)))
