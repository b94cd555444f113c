"""The distributed executor: really runs plan-partitioned submodels.

Real NumPy inference through the elastic supernet, sliced according to
an :class:`~repro.partition.plan.ExecutionPlan`:

* consecutive blocks with the same (grid, devices, bits) form a
  *segment*;
* spatially partitioned segments split the activation into FDSP tiles
  (zero-padded borders, no halo exchange) and run each tile through the
  segment's units independently — bit-exact with what separate devices
  would compute;
* activations crossing a device boundary travel through the
  :class:`~repro.runtime.rpc.Transport`, incurring *real* quantization
  error at the plan's wire precision;
* timing comes from the same latency simulator the RL reward uses, so
  executed latencies and planned latencies agree by construction; each
  send goes out at its segment's simulated start, penalties included (a
  tile's result to the merger at the segment's compute end), which is
  when the breakers observe it.

Failure semantics (``faults=``, the null injector when absent): each
execution is one attempt on the
:class:`~repro.faults.resilience.FailoverLadder` — a tensor pass through
the :class:`~repro.runtime.rpc.Transport`.  A send that exhausts its
retries, or a mesh pair with no surviving path
(:class:`~repro.faults.resilience.NoRouteError`, charged the retry
give-up cost the sender would have burned discovering it), fails the
attempt; the ladder fails over, degrades or, with failover disabled,
raises :class:`~repro.faults.resilience.ExecutionFailedError`.  A mesh
path dead *with* an alternative is no failure: ``transfer_time`` already
routed around it, and the plan keeps its placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..faults.health import DeviceHealth
from ..faults.injector import FaultInjector
from ..faults.resilience import (DeviceUnreachableError, FailoverLadder,
                                 NoRouteError, ResilienceConfig)
from ..models.graph import ModelGraph
from ..nas.arch import ArchConfig
from ..nas.graph_builder import build_graph
from ..netsim.topology import Cluster
from ..partition.plan import BlockPlan, ExecutionPlan, single_device_plan
from ..partition.simulate import LatencyReport, simulate_latency
from ..partition.spatial import Grid, merge_tiles, split_tiles
from ..telemetry import Telemetry
from .rpc import Transport

if TYPE_CHECKING:
    from ..nas.supernet import Supernet

__all__ = ["ExecutionResult", "DistributedExecutor"]


@dataclass
class ExecutionResult:
    """One served execution: what ran and what it took to complete.

    Both data planes' attempts on the
    :class:`~repro.faults.resilience.FailoverLadder` return one — a
    plan-only attempt's carries only its latency, retries and waste —
    and the ladder fills in the request's accounting on the one that
    completed.
    """

    #: the completing attempt's latency plus every penalty
    latency_s: float
    logits: Optional[np.ndarray] = None
    #: the executed plan's priced timing (no penalty)
    report: Optional[LatencyReport] = None
    comm_bytes: int = 0
    num_messages: int = 0
    partitioned_segments: int = 0
    #: "ok" | "retried" | "degraded" — what it took to complete
    outcome: str = "ok"
    retries: int = 0
    failovers: int = 0
    #: the architecture and plan actually executed (differ from the
    #: planned ones after a failover or degradation); batch serving
    #: reuses them so one batch fails over as a unit
    executed_arch: Optional[ArchConfig] = None
    executed_plan: Optional[ExecutionPlan] = None
    #: simulated seconds wasted discovering failures (already included
    #: in ``latency_s``)
    penalty_s: float = 0.0

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3


@dataclass
class _Segment:
    start: int                # first graph-block index
    stop: int                 # one past last
    plan: BlockPlan


def _segments(plan: ExecutionPlan) -> List[_Segment]:
    segs: List[_Segment] = []
    start = 0
    for i in range(1, len(plan) + 1):
        if i == len(plan) or plan[i] != plan[start]:
            segs.append(_Segment(start, i, plan[start]))
            start = i
    return segs


class DistributedExecutor:
    """Execute (arch, plan) on a cluster, for real."""

    def __init__(self, supernet: Supernet, cluster: Cluster,
                 telemetry: Optional[Telemetry] = None,
                 faults=None, health=None,
                 resilience: Optional[ResilienceConfig] = None):
        self.net = supernet
        self.cluster = cluster
        self.telemetry = Telemetry.of(telemetry)
        self.faults = FaultInjector.of(faults)
        self.health = DeviceHealth.of(health)
        self.resilience = (resilience if resilience is not None
                           else ResilienceConfig())
        self.transport = Transport(cluster, telemetry=telemetry,
                                   faults=self.faults, health=self.health,
                                   retry=self.resilience.retry)
        space = supernet.space
        self._ladder = FailoverLadder(
            self.resilience, self.health, cluster, space,
            lambda arch, d: single_device_plan(build_graph(arch, space), d))
        reg = self.telemetry.registry.child("executor")
        self._m_segments = reg.counter(
            "segments_total", help="plan segments executed")
        self._m_partitioned = reg.counter(
            "partitioned_segments_total",
            help="segments run under spatial partitioning")
        self._m_segment_wall = reg.histogram(
            "segment_compute_wall_s",
            help="wall-clock NumPy compute per segment")
        self._m_failovers = reg.counter(
            "failovers_total", help="mid-plan failovers")
        self._m_degraded = reg.counter(
            "degraded_total", help="gateway-degraded executions")

    def execute(self, x: np.ndarray, arch: ArchConfig,
                plan: ExecutionPlan,
                graph: Optional[ModelGraph] = None,
                sim_time: float = 0.0,
                request_id: Optional[int] = None) -> ExecutionResult:
        """Run one batch through the partitioned submodel.

        ``x`` must be (N, 3, R, R) with R = arch.resolution.
        """
        if x.shape[2] != arch.resolution:
            raise ValueError(
                f"input resolution {x.shape[2]} != arch resolution "
                f"{arch.resolution}")
        graph = graph or build_graph(arch, self.net.space)
        plan.validate_for(graph, self.cluster.num_devices)
        self.transport.request_id = request_id
        transport, health = self.transport, self.health

        def attempt(cur_arch, cur_plan, penalty):
            cur_graph = (graph if cur_arch == arch
                         else build_graph(cur_arch, self.net.space))
            try:
                run = self._run_plan(x, cur_arch, cur_plan, cur_graph,
                                     sim_time + penalty, request_id)
            except NoRouteError as e:
                # Pricing walked a dead path before any send went out;
                # the sender would have timed out discovering it, so
                # charge the give-up schedule and teach the breakers.
                retry = self.resilience.retry
                now = sim_time + (penalty + retry.give_up_cost())
                health.record_failure(e.device, now)
                health.record_link_failure(e.src, e.dst, now)
                raise DeviceUnreachableError(e.device, retry.give_up_cost(),
                                             retry.max_retries) from e
            except DeviceUnreachableError as e:
                # the attempt's retries include its delivered sends'
                raise DeviceUnreachableError(
                    e.device, e.wasted_s, transport.num_retries) from e
            return run

        result = self._ladder.climb(attempt, arch, plan, sim_time)
        if result.failovers:
            self._m_failovers.inc(result.failovers)
        if result.outcome == "degraded":
            self._m_degraded.inc()
        return result

    # -- one plan attempt --------------------------------------------------
    def _run_plan(self, x: np.ndarray, arch: ArchConfig,
                  plan: ExecutionPlan, graph: ModelGraph,
                  sim_time: float,
                  request_id: Optional[int]) -> ExecutionResult:
        unit_ids = self.net.active_units(arch)
        if len(unit_ids) != len(graph):
            raise RuntimeError("unit/graph index misalignment")

        self.net.eval()
        self.transport.reset_log()
        tracer = self.telemetry.tracer
        # Modelled timing is deterministic in (graph, plan, cluster), so
        # pricing it up front lets each segment span carry its simulated
        # interval as well as its measured wall time.
        report = simulate_latency(graph, plan, self.cluster)
        done = report.per_block_done
        partitioned = 0
        loc = 0  # device currently holding the activation
        for seg in _segments(plan):
            bp = seg.plan
            units = [unit_ids[i] for i in range(seg.start, seg.stop)]
            seg_sim_start = sim_time + (done[seg.start - 1] if seg.start
                                        else 0.0)
            seg_sim_end = sim_time + done[seg.stop - 1]
            attrs = dict(blocks=f"{seg.start}:{seg.stop}",
                         tiles=bp.grid.ntiles)
            if request_id is not None:
                attrs["request"] = request_id
            with tracer.span("segment", sim_time=seg_sim_start,
                             **attrs) as sp:
                sp.set_sim_end(seg_sim_end)
                if bp.grid.ntiles == 1:
                    dst = bp.devices[0]
                    if dst != loc:
                        x = self.transport.send_tensor(
                            x, loc, dst, bp.bits, seg_sim_start).payload
                        loc = dst
                    x = self.net.run_units(x, arch, units)
                else:
                    partitioned += 1
                    x = self._run_partitioned(x, arch, units, bp, graph,
                                              seg, loc, seg_sim_start,
                                              seg_sim_end)
                    # After the merge the activation conceptually sits on
                    # the first tile's device (the merger).
                    loc = bp.devices[0]
            self._m_segments.inc()
            if bp.grid.ntiles > 1:
                self._m_partitioned.inc()
            # the null span's wall duration is a constant: no clock read
            self._m_segment_wall.observe(sp.wall_duration_s)
        # Result returns to the output device (tiny logits).
        if loc != plan.output_device:
            x = self.transport.send_tensor(x, loc, plan.output_device, 32,
                                           sim_time + done[-1]).payload

        transport = self.transport
        return ExecutionResult(
            report.total_s, x, report, transport.total_bytes,
            transport.num_messages, partitioned,
            retries=transport.num_retries, penalty_s=transport.wasted_s)

    def _run_partitioned(self, x: np.ndarray, arch: ArchConfig,
                         units: Sequence[int], bp: BlockPlan,
                         graph: ModelGraph, seg: _Segment,
                         loc: int, start: float, end: float) -> np.ndarray:
        """FDSP-execute one spatially partitioned segment: the tiles go
        out at ``start``, the segment's simulated start, and their results
        to the merger at ``end``, when the segment's compute is done."""
        grid = bp.grid
        in_h = x.shape[2]
        out_hw = graph[seg.stop - 1].out_hw
        if in_h % grid.rows or x.shape[3] % grid.cols:
            raise ValueError(
                f"activation {x.shape} not divisible by grid {grid}")
        tiles = split_tiles(x, grid, halo=0)
        out_tiles: List[np.ndarray] = []
        for j, tile in enumerate(tiles):
            dst = bp.devices[j]
            if dst != loc:
                tile = self.transport.send_tensor(tile, loc, dst, bp.bits,
                                                  start).payload
            y = self.net.run_units(tile, arch, units)
            # Ship the tile result to the merge device (tile 0's device).
            if dst != bp.devices[0]:
                y = self.transport.send_tensor(y, dst, bp.devices[0],
                                               bp.bits, end).payload
            out_tiles.append(y)
        return merge_tiles(out_tiles, grid, out_hw, halo=0)
