"""Distributed-execution latency simulator.

Given a :class:`~repro.models.graph.ModelGraph`, an
:class:`~repro.partition.plan.ExecutionPlan` and a
:class:`~repro.netsim.mesh.MeshCluster`, this module replays the
inference as an event-driven list schedule: per-device busy times,
per-tile data locations, and every inter-device transfer (priced at the
plan's wire precision) are tracked explicitly.

The same simulation backs the RL environment's reward, the baseline
evaluations (Neurosurgeon/ADCNN), and the figure benchmarks, so all
methods are compared under identical cost assumptions — mirroring how
the paper runs every method on the same testbed.

It is also the inner loop of RL training and of evolutionary search,
which price a *fresh* (submodel, plan) pair per step and read only
``total_s``, so the walk does each step once and nothing only another
caller reads.  It runs on flat lists and local accumulators: the
previous block's tiles are two parallel sequences (device, ready time);
a block's FLOP share and memory term are worked out once per block (a
tiled block's FDSP factor read from a table by ``(out_hw, grid, halo)``,
a one-tile block's 1.0 by definition); its wire size at its first send,
so a block that sends nothing sizes nothing; each device's roofline
constants once per call.  The walk keeps what it already holds — every
priced transfer, each device's compute time, each block's tile
finishes — and :class:`LatencyReport` derives its other terms from
those on first read, summed in the walk's order.  The arithmetic is the
same float operations in the same order as the object-per-tile walker it
replaced, kept verbatim in ``tests/partition/reference_simulate.py`` as
the oracle: ``tests/partition/test_reference_simulate.py`` requires
``==`` on every :class:`LatencyReport` attribute, and
:func:`repro.partition.compiled.compile_plan` walks a plan block by
block the way this function does (``test_compiled_kernel.py``).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Dict, List, Sequence, Tuple

from ..models.graph import ModelGraph
from ..netsim.mesh import MeshCluster
from .plan import ExecutionPlan
from .spatial import Grid, fdsp_compute_overhead

__all__ = ["LatencyReport", "simulate_latency"]

_FP32 = 4

#: one priced transfer ``(src, dst, nbytes, seconds)``
_Send = Tuple[int, int, int, float]


class LatencyReport:
    """Outcome of one simulated inference.

    ``total_s`` is the walk's answer.  The rest is derived on first read
    from what the walk kept — its priced transfers in order, each
    device's compute seconds, each block's tile finishes — and then kept:
    a caller that reads only ``total_s`` (the RL env, evolution, the
    baselines) pays for none of it, and one that reads the rest (the
    executor, ``energy_of_report``) pays what building it eagerly cost.
    """

    def __init__(self, total_s: float, sent: List[_Send],
                 compute: List[float], finishes: List[List[float]]):
        self.total_s = total_s
        self._sent = sent
        self._compute = compute
        self._finishes = finishes

    @cached_property
    def compute_s(self) -> Dict[int, float]:
        return dict(enumerate(self._compute))

    @cached_property
    def per_block_done(self) -> List[float]:
        return [max(ends) for ends in self._finishes]

    @property
    def num_transfers(self) -> int:
        return len(self._sent)

    @cached_property
    def _traffic(self) -> Tuple[float, float, Dict[int, float],
                                Dict[int, float]]:
        """``comm_s``, ``comm_bytes``, ``tx_bytes`` and ``rx_bytes``,
        summed over the transfers in the order they were priced."""
        comm_s = comm_bytes = 0.0
        tx_bytes = [0.0] * len(self._compute)
        rx_bytes = [0.0] * len(self._compute)
        for src, dst, nbytes, t in self._sent:
            comm_s += t
            comm_bytes += nbytes
            tx_bytes[src] += nbytes
            rx_bytes[dst] += nbytes
        return (comm_s, comm_bytes, dict(enumerate(tx_bytes)),
                dict(enumerate(rx_bytes)))

    @property
    def comm_s(self) -> float:
        return self._traffic[0]

    @property
    def comm_bytes(self) -> float:
        return self._traffic[1]

    @property
    def tx_bytes(self) -> Dict[int, float]:
        return self._traffic[2]

    @property
    def rx_bytes(self) -> Dict[int, float]:
        return self._traffic[3]

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
                     cluster: MeshCluster) -> LatencyReport:
    """Simulate one batch-1 inference; returns a :class:`LatencyReport`.

    Weights are assumed resident on every participating device (the
    runtime pre-deploys the supernet/model — see Section 5.1); the
    separate model-switch experiment prices weight movement.
    """
    n_dev = cluster.num_devices
    plan.validate_for(graph, n_dev)

    transfer_time = cluster.transfer_time
    # each device's roofline constants (``DeviceProfile.compute_time``)
    roofline = [(d.effective_flops, d.mem_bandwidth, d.block_overhead_s,
                 d.depthwise_penalty)
                for d in map(cluster.device, range(n_dev))]

    dev_ready = [0.0] * n_dev
    compute_s = [0.0] * n_dev
    # what the report is derived from (its docstring): every priced
    # transfer in order, and each block's tile finishes
    sent: List[_Send] = []
    finishes: List[List[float]] = []

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
        fdsp = (_fdsp_factor(out_hw, grid.rows, grid.cols, block.halo)
                if ntiles > 1 else 1.0)
        nprev = len(tile_dev)
        same_grid = (nprev == ntiles
                     and (grid is prev_grid or grid == prev_grid))
        # A tile's input: its predecessor's slice, or (repartition) an
        # equal share gathered from every previous holder.  Its wire size
        # (``wire_bytes``; BlockPlan validated the bits) is worked out at
        # the block's first send; 0 until then, as a size is >= 32.
        input_bytes = 0
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
                if src != dst:
                    if not input_bytes:
                        input_bytes = 32 + (int(prev_elements / ntiles)
                                            * bits + 7) // 8
                    t = transfer_time(src, dst, input_bytes)
                    sent.append((src, dst, input_bytes, t))
                    arrival = arrival + t
            else:
                arrival = 0.0
                for src, ready in zip(tile_dev, tile_ready):
                    if src != dst:
                        if not input_bytes:
                            input_bytes = 32 + (int(
                                prev_elements / ntiles / nprev)
                                * bits + 7) // 8
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
        finishes.append(new_ready)

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
                delay_s = cluster.delay_to(src) / 1e3
            elif src == 0 and out_dev != 0:
                delay_s = cluster.delay_to(out_dev) / 1e3
            t = max(link_t - delay_s, 0.0)
            sent.append((src, out_dev, result_bytes, t))
            ready = ready + t
        if ready > done:
            done = ready
    return LatencyReport(done, sent, compute_s, finishes)
