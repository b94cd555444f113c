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
  executed latencies and planned latencies agree by construction.

Failure semantics (``faults=``, the null injector when absent): when a
send exhausts its retries mid-plan, the executor fails over — it
restarts the request on the best surviving device (re-paying the wasted
discovery time), and when no remote survives it gracefully degrades to
the smallest feasible submodel entirely on the gateway: accuracy drops,
the request still completes.  With failover disabled the request fails
with :class:`~repro.faults.resilience.ExecutionFailedError`.

On a mesh the failure taxonomy splits in two.  *Path dead with an
alternative*: the routing layer transparently fails over inside
``transfer_time`` — the plan keeps its placement, the transfer pays the
backup path's honest latency, and no exception is raised.  *Path dead
with no alternative* (:class:`~repro.faults.resilience.NoRouteError`):
operationally the same as a dead device — the endpoint cannot be used —
so the executor charges the retry give-up cost the sender would have
burned discovering it and runs the same failover/degradation ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..faults.health import DeviceHealth
from ..faults.injector import FaultInjector
from ..faults.resilience import (DeviceUnreachableError, ExecutionFailedError,
                                 NoRouteError, ResilienceConfig)
from ..models.graph import ModelGraph
from ..nas.arch import ArchConfig, min_arch
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
    logits: np.ndarray
    report: LatencyReport
    comm_bytes: int
    num_messages: int
    partitioned_segments: int
    #: "ok" | "retried" | "degraded" — what it took to complete
    outcome: str = "ok"
    retries: int = 0
    failovers: int = 0
    #: the architecture actually executed (differs from the planned one
    #: only after graceful degradation)
    executed_arch: Optional[ArchConfig] = None
    #: the plan actually executed (differs from the planned one after a
    #: failover or degradation); batch serving reuses it so one batch
    #: fails over as a unit instead of re-discovering per item
    executed_plan: Optional[ExecutionPlan] = None
    #: simulated seconds wasted discovering failures (already included
    #: in ``report.total_s``)
    penalty_s: float = 0.0

    @property
    def latency_ms(self) -> float:
        return self.report.total_ms


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
        return self._run_resilient(x, arch, plan, graph, sim_time, request_id)

    # -- fault-aware outer loop -------------------------------------------
    def _run_resilient(self, x: np.ndarray, arch: ArchConfig,
                       plan: ExecutionPlan, graph: ModelGraph,
                       sim_time: float,
                       request_id: Optional[int]) -> ExecutionResult:
        res = self.resilience
        cur_arch, cur_plan, cur_graph = arch, plan, graph
        excluded: set = set()
        penalty = 0.0
        retries = 0
        failovers = 0
        degraded = False
        while True:
            try:
                result = self._run_plan(x, cur_arch, cur_plan, cur_graph,
                                        sim_time + penalty, request_id)
            except (DeviceUnreachableError, NoRouteError) as e:
                if isinstance(e, NoRouteError):
                    # Pricing walked a dead path before any send went
                    # out.  The sender would have discovered this by
                    # timing out, so charge the full give-up schedule
                    # and teach the breakers, same as an exhausted
                    # retry loop — the accounting matches what the
                    # transport would have reported.
                    penalty += res.retry.give_up_cost()
                    retries += res.retry.max_retries
                    self.health.record_failure(e.device, sim_time + penalty)
                    self.health.record_link_failure(
                        e.src, e.dst, sim_time + penalty)
                else:
                    penalty += e.wasted_s
                    retries += self.transport.num_retries
                if not res.failover:
                    raise ExecutionFailedError(e.device, penalty,
                                               retries) from e
                excluded.add(e.device)
                failovers += 1
                self._m_failovers.inc()
                target = self._failover_target(excluded, sim_time)
                if target is None and res.degradation:
                    # Graceful degradation: smallest feasible submodel,
                    # entirely on the gateway.  No cross-device sends, so
                    # this attempt cannot fail again.
                    cur_arch = replace(min_arch(self.net.space),
                                       resolution=arch.resolution)
                    cur_graph = build_graph(cur_arch, self.net.space)
                    cur_plan = single_device_plan(cur_graph, device=0)
                    degraded = True
                    self._m_degraded.inc()
                else:
                    dev = target if target is not None else 0
                    cur_plan = single_device_plan(cur_graph, device=dev)
                continue
            retries += self.transport.num_retries
            penalty += self.transport.wasted_s
            result.retries = retries
            result.failovers = failovers
            result.executed_arch = cur_arch
            result.penalty_s = penalty
            if penalty:
                result.report.total_s += penalty
            result.outcome = ("degraded" if degraded
                              else "retried" if (retries or failovers)
                              else "ok")
            return result

    def _failover_target(self, excluded: set, now: float) -> Optional[int]:
        """Best surviving remote candidate by static compute capability.

        Consults only the runtime's own knowledge (exclusions from this
        request's failures plus the circuit breaker) — never the fault
        schedule.  Returns ``None`` when no remote candidate remains.
        """
        candidates = [d for d in range(1, self.cluster.num_devices)
                      if d not in excluded and self.health.allow(d, now)]
        if not candidates:
            return None
        return max(candidates,
                   key=lambda d: self.cluster.device(d).effective_flops)

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
            attrs = dict(blocks=f"{seg.start}:{seg.stop}",
                         tiles=bp.grid.ntiles)
            if request_id is not None:
                attrs["request"] = request_id
            with tracer.span("segment", sim_time=seg_sim_start,
                             **attrs) as sp:
                sp.set_sim_end(sim_time + done[seg.stop - 1])
                if bp.grid.ntiles == 1:
                    dst = bp.devices[0]
                    if dst != loc:
                        msg = self.transport.send_tensor(x, loc, dst,
                                                         bp.bits, 0.0)
                        x = msg.payload
                        loc = dst
                    x = self.net.run_units(x, arch, units)
                else:
                    partitioned += 1
                    x = self._run_partitioned(x, arch, units, bp,
                                              graph, seg, loc)
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
            msg = self.transport.send_tensor(x, loc, plan.output_device,
                                             32, 0.0)
            x = msg.payload
            loc = plan.output_device

        return ExecutionResult(
            logits=x,
            report=report,
            comm_bytes=self.transport.total_bytes,
            num_messages=self.transport.num_messages,
            partitioned_segments=partitioned,
            executed_arch=arch,
            executed_plan=plan,
        )

    def _run_partitioned(self, x: np.ndarray, arch: ArchConfig,
                         units: Sequence[int], bp: BlockPlan,
                         graph: ModelGraph, seg: _Segment,
                         loc: int) -> np.ndarray:
        """FDSP-execute one spatially partitioned segment."""
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
                msg = self.transport.send_tensor(tile, loc, dst, bp.bits, 0.0)
                tile = msg.payload
            y = self.net.run_units(tile, arch, units)
            # Ship the tile result to the merge device (tile 0's device).
            if dst != bp.devices[0]:
                msg = self.transport.send_tensor(y, dst, bp.devices[0],
                                                 bp.bits, 0.0)
                y = msg.payload
            out_tiles.append(y)
        return merge_tiles(out_tiles, grid, out_hw, halo=0)
