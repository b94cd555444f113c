"""The object-per-tile plan walker, kept verbatim as the test oracle.

This is ``src/repro/partition/simulate.py`` as it stood before
``simulate_latency`` moved to flat lists and local accumulators (PR 20):
one ``_TileState`` per tile, a ``_transfer`` closure that updates five
``LatencyReport`` fields per priced transfer, and the per-block FDSP
factor, FLOP share and memory term recomputed per tile.  Slow, and
obviously the model: ``tests/partition/test_reference_simulate.py``
drives it and the live :func:`repro.partition.simulate.simulate_latency`
with the same (graph, plan, cluster) triples and requires ``==`` on
**every** :class:`LatencyReport` field, not only ``total_s``.  Only the
imports were made absolute; do not optimise or tidy this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.models.graph import ModelGraph
from repro.netsim.topology import Cluster
from repro.nn.quantize import wire_bytes
from repro.partition.plan import ExecutionPlan
from repro.partition.spatial import Grid, fdsp_compute_overhead

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


@dataclass
class _TileState:
    device: int
    ready: float  # time the tile's data is available on `device`


def simulate_latency(graph: ModelGraph, plan: ExecutionPlan,
                     cluster: Cluster) -> LatencyReport:
    """Simulate one batch-1 inference; returns a :class:`LatencyReport`.

    Weights are assumed resident on every participating device (the
    runtime pre-deploys the supernet/model — see Section 5.1); the
    separate model-switch experiment prices weight movement.
    """
    plan.validate_for(graph, cluster.num_devices)

    # Straggler injection: per-device compute-time multipliers set by the
    # fault injector.  Empty (the default) costs one falsy check per block
    # and leaves every timing bit-identical.
    compute_scale = getattr(cluster, "compute_scale", None)

    n_dev = cluster.num_devices
    report = LatencyReport(total_s=0.0,
                           compute_s={i: 0.0 for i in range(n_dev)},
                           tx_bytes={i: 0.0 for i in range(n_dev)},
                           rx_bytes={i: 0.0 for i in range(n_dev)})
    dev_ready = [0.0] * cluster.num_devices

    # Input starts on the local device (device 0) at t=0.
    tiles: List[_TileState] = [_TileState(device=0, ready=0.0)]
    prev_grid = Grid(1, 1)
    prev_elements = graph.input_elements

    def _transfer(src: int, dst: int, nbytes: float, avail: float) -> float:
        """Price one transfer; returns arrival time at dst."""
        if src == dst or nbytes <= 0:
            return avail
        t = cluster.transfer_time(src, dst, nbytes)
        report.comm_s += t
        report.comm_bytes += nbytes
        report.num_transfers += 1
        report.tx_bytes[src] += nbytes
        report.rx_bytes[dst] += nbytes
        return avail + t

    for i, (block, bp) in enumerate(zip(graph.blocks, plan.block_plans)):
        ntiles = bp.grid.ntiles
        fdsp = fdsp_compute_overhead(block.out_hw, bp.grid, halo=block.halo)
        slice_elements = prev_elements / ntiles

        new_tiles: List[_TileState] = []
        same_grid = (bp.grid == prev_grid and len(tiles) == ntiles)
        for j in range(ntiles):
            dst = bp.devices[j]
            # --- input arrival ------------------------------------------------
            if same_grid:
                src_tile = tiles[j]
                if src_tile.device == dst:
                    arrival = src_tile.ready
                else:
                    nbytes = wire_bytes(int(slice_elements), bp.bits)
                    arrival = _transfer(src_tile.device, dst, nbytes,
                                        src_tile.ready)
            else:
                # Repartition: tile j's slice is gathered from every
                # previous holder proportionally.
                arrival = 0.0
                share = slice_elements / len(tiles)
                for src_tile in tiles:
                    if src_tile.device == dst:
                        arrival = max(arrival, src_tile.ready)
                    else:
                        nbytes = wire_bytes(int(share), bp.bits)
                        arrival = max(arrival, _transfer(
                            src_tile.device, dst, nbytes, src_tile.ready))
            # --- peer synchronization (attention K/V exchange) -----------------
            if ntiles > 1 and block.sync_elements > 0:
                share = wire_bytes(
                    int(block.sync_elements / ntiles), bp.bits)
                for k in range(ntiles):
                    if k == j or bp.devices[k] == dst:
                        continue
                    src_ready = (tiles[k].ready if same_grid and k < len(tiles)
                                 else arrival)
                    arrival = max(arrival, _transfer(
                        bp.devices[k], dst, share, src_ready))
            # --- compute -------------------------------------------------------
            dev = cluster.device(dst)
            flops = block.flops * fdsp / ntiles
            if block.depthwise:
                flops *= dev.depthwise_penalty
            mem = (_FP32 * (prev_elements + block.out_elements) * fdsp / ntiles
                   + block.weight_bytes)
            t_compute = dev.compute_time(flops, mem)
            if compute_scale:
                t_compute *= compute_scale.get(dst, 1.0)
            start = max(dev_ready[dst], arrival)
            end = start + t_compute
            dev_ready[dst] = end
            report.compute_s[dst] += t_compute
            new_tiles.append(_TileState(device=dst, ready=end))

        tiles = new_tiles
        prev_grid = bp.grid
        prev_elements = block.out_elements
        report.per_block_done.append(max(t.ready for t in tiles))

    # Ship the result (logits) back to the output device.  The testbed's
    # tc-netem delay shapes the request direction; the tiny logits
    # response crosses the unshaped direction, so only serialization and
    # wire time are charged here.
    out_dev = plan.output_device
    done = 0.0
    result_bytes = wire_bytes(int(prev_elements / len(tiles)), 32)
    for tile in tiles:
        if tile.device == out_dev:
            done = max(done, tile.ready)
            continue
        link_t = cluster.transfer_time(tile.device, out_dev, result_bytes)
        delay_s = 0.0
        if tile.device != 0 and out_dev == 0:
            delay_s = cluster.link_to(tile.device).delay_ms / 1e3
        elif tile.device == 0 and out_dev != 0:
            delay_s = cluster.link_to(out_dev).delay_ms / 1e3
        t = max(link_t - delay_s, 0.0)
        report.comm_s += t
        report.comm_bytes += result_bytes
        report.num_transfers += 1
        report.tx_bytes[tile.device] += result_bytes
        report.rx_bytes[out_dev] += result_bytes
        done = max(done, tile.ready + t)
    report.total_s = done
    return report
