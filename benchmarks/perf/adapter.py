"""The one file that imports the program under test.

Builds the six benchmark worlds from ``repro``'s public classes (never
from the ``repro.eval`` scenario modules, which ROADMAP item 4(d) plans
to collapse), checks each iteration's simulated results, and names the
public callables the traced pass wraps (:data:`TARGETS`).

A *workload* class has ``n`` (its default size), ``inputs(seed, n)``
(the seeded inputs, built once per process) and a constructor that
builds a fresh cold world from those inputs.  A world has ``run(mark)``
-- the only call the harness times -- and ``finish(raw)``, which checks
the raw results outside the timed region and folds them into an
:class:`Outcome`.
"""

from __future__ import annotations

import hashlib
import io
import struct
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

_SRC = Path(__file__).resolve().parents[2] / "src"
sys.path.insert(0, str(_SRC))

import repro  # noqa: E402

if _SRC not in Path(repro.__file__).resolve().parents:
    # an installed copy would be measured in place of this checkout
    raise ImportError(f"repro was imported from {repro.__file__}, "
                      f"not from {_SRC}")

from repro.control import (AdmissionController, ControlLoop,  # noqa: E402
                           TenantFairnessController)
from repro.core import SLO, Murmuration, SearchDecisionEngine  # noqa: E402
from repro.devices.profiles import (  # noqa: E402
    desktop_gtx1080, jetson_class, rpi4)
from repro.eval.replay import verify_invariants  # noqa: E402
from repro.faults import (CorrelatedFailure, FaultInjector,  # noqa: E402
                          FaultSchedule, LinkFailure, LinkFlap,
                          ResilienceConfig)
from repro.nas.evolution import candidate_plans  # noqa: E402
from repro.nas.graph_builder import build_graph  # noqa: E402
from repro.nas.search_space import MBV3_SPACE  # noqa: E402
from repro.netsim import (FluidTracker, Link, MeshCluster,  # noqa: E402
                          NetworkCondition, NetworkMonitor, SharedIngress,
                          ring_topology)
from repro.partition.simulate import simulate_latency  # noqa: E402
from repro.rl import MurmurationEnv  # noqa: E402
from repro.runtime import (BatchingInferenceServer, BatchPolicy,  # noqa: E402
                           DistributedExecutor, InferenceServer)
from repro.sim import EventLoop, schedule_ingress_trace  # noqa: E402
from repro.telemetry import (RunRecorder, Telemetry,  # noqa: E402
                             write_recordings)

from . import loadgen  # noqa: E402

#: layer -> the public callables wrapped in the traced pass; a class
#: method is ``(cls, name)``, a module-level function is the function
#: itself (every ``repro`` module global bound to it is rebound)
TARGETS = {
    "core.decision": [(SearchDecisionEngine, "decide")],
    "partition.simulate": [simulate_latency],
    "nas.evolution": [candidate_plans],
    "nas.graph_builder": [build_graph],
    "core.murmuration.infer": [(Murmuration, "infer")],
    "core.murmuration.infer_batch": [(Murmuration, "infer_batch")],
    "runtime.server": [(InferenceServer, "run")],
    "runtime.batching": [(BatchingInferenceServer, "run")],
    "runtime.executor": [(DistributedExecutor, "execute")],
    "netsim.monitor": [(NetworkMonitor, "probe_all")],
    "netsim.fluid.admit": [(FluidTracker, "admit_transfer")],
    "netsim.fluid.peek": [(FluidTracker, "peek_transfer")],
    "netsim.fluid.update_caps": [(FluidTracker, "update_caps")],
    "netsim.contention": [(SharedIngress, "upload_time"),
                          (SharedIngress, "admit")],
    "netsim.mesh": [(MeshCluster, "timed_transfer"),
                    (MeshCluster, "route_info")],
    "faults.injector": [(FaultInjector, "advance"),
                        (FaultInjector, "apply_to")],
    "sim.events": [(EventLoop, "advance_to")],
    "control.loop": [(ControlLoop, "maybe_tick"), (ControlLoop, "admit")],
    "telemetry.recorder": [(RunRecorder, "on_condition"),
                           (RunRecorder, "on_decision"),
                           (RunRecorder, "on_request"),
                           (RunRecorder, "on_batch"),
                           (RunRecorder, "capture_timelines"),
                           (RunRecorder, "finish")],
    "rl.env.decode": [(MurmurationEnv, "decode")],
    "rl.env.evaluate": [(MurmurationEnv, "evaluate_actions")],
}

#: module-name prefix whose globals are rebound when a function is wrapped
PROGRAM_PACKAGE = "repro"


@dataclass
class Outcome:
    """One iteration's simulated results, checked."""

    #: ops submitted
    ops: int
    #: simulated end-to-end latency of every completed op
    latencies_ms: np.ndarray
    #: ops that met their SLO end to end (shed and failed ops miss)
    met: int
    #: sha256 over every op's simulated floats and outcome
    digest: str
    #: failed correctness checks (empty = sound)
    violations: List[str]
    #: layer counters, keyed by per-layer metric name
    counters: Dict[str, float]


# -- shared world parts ----------------------------------------------------

_NOMINAL = NetworkCondition((150.0, 80.0), (10.0, 20.0))
_OUTCOMES = ("ok", "retried", "degraded", "failed", "shed")


def _star_devices():
    return [rpi4(), desktop_gtx1080(), jetson_class()]


class _PinnedCostEngine:
    """Price every engine decision at a fixed simulated cost, so
    simulated time never depends on the host's speed."""

    def __init__(self, inner, decision_time_s: float):
        self._inner = inner
        self._dt = decision_time_s

    def decide(self, slo, condition):
        return replace(self._inner.decide(slo, condition),
                       decision_time_s=self._dt)


def _engine(devices, n_random_archs: int, decision_time_s: float):
    return _PinnedCostEngine(
        SearchDecisionEngine(MBV3_SPACE, devices,
                             n_random_archs=n_random_archs, seed=0),
        decision_time_s)


def _star_system(seed: int, slo_ms: float, **optional) -> Murmuration:
    devices = _star_devices()
    return Murmuration(MBV3_SPACE, devices, _NOMINAL,
                       _engine(devices, 8, 0.04),
                       slo=SLO.latency_ms(slo_ms), use_predictor=False,
                       monitor_noise=0.02, seed=seed, **optional)


def _conditions(bw: np.ndarray, delay: np.ndarray) -> List[NetworkCondition]:
    return [NetworkCondition(tuple(map(float, b)), tuple(map(float, d)))
            for b, d in zip(bw, delay)]


def _cache_counters(systems: Sequence[Murmuration]) -> Dict[str, float]:
    hits = sum(s.cache.stats()["hits"] for s in systems)
    misses = sum(s.cache.stats()["misses"] for s in systems)
    return {"core.strategy_cache.hits": hits,
            "core.strategy_cache.misses": misses,
            "core.strategy_cache.hit_rate": hits / max(hits + misses, 1)}


def _serving_outcome(runs, counters, recorders=()) -> Outcome:
    """Fold serving runs ``[(stats, submitted, slo_s)]`` into an Outcome.

    Checks: one record per submitted request, outcomes partition the
    submissions, arrival <= start <= finish, and every recording
    satisfies ``verify_invariants``.
    """
    h = hashlib.sha256()
    violations: List[str] = []
    latencies: List[float] = []
    met = ops = retries = failovers = sim_failed = shed = 0
    for k, (stats, submitted, slo_s) in enumerate(runs):
        ops += submitted
        records = stats.records
        if len(records) != submitted:
            violations.append(
                f"run {k}: {len(records)} records for {submitted} submitted")
        counts = stats.outcome_counts()
        if sum(counts.get(o, 0) for o in _OUTCOMES) != submitted:
            violations.append(
                f"run {k}: outcomes {counts} do not partition {submitted}")
        sim_failed += counts["failed"]
        shed += counts.get("shed", 0)
        for i, r in enumerate(records):
            if not r.arrival <= r.start <= r.finish:
                violations.append(
                    f"run {k} request {i}: arrival <= start <= finish "
                    f"violated ({r.arrival} / {r.start} / {r.finish})")
            if r.outcome not in ("failed", "shed"):
                latencies.append(r.end_to_end_s * 1e3)
                met += r.end_to_end_s <= slo_s
            retries += r.retries
            failovers += r.failovers
            h.update(struct.pack("<6d", r.arrival, r.start, r.finish,
                                 r.inference_s, r.decision_s, r.switch_s))
            h.update(f"{r.outcome}|{int(r.satisfied)}|{r.retries}|"
                     f"{r.failovers}|{r.tenant}".encode())
    nbytes = 0
    for rec in recorders:
        violations.extend(f"recording {rec.variant}: {v}"
                          for v in verify_invariants(rec.recording()))
        buf = io.StringIO()
        write_recordings(buf, [rec])
        nbytes += len(buf.getvalue())
    counters = dict(counters)
    counters.update({"telemetry.recorder.bytes": nbytes,
                     "runtime.executor.retries": retries,
                     "runtime.executor.failovers": failovers,
                     "runtime.executor.sim_failed": sim_failed,
                     "control.loop.shed": shed})
    return Outcome(ops, np.array(latencies), int(met), h.hexdigest(),
                   violations, counters)


# -- workloads ---------------------------------------------------------------

class DriftMiss:
    """FIFO serving while the network drifts: the cache keeps missing."""

    n = 240
    RATE_HZ, PERIOD_S, SLO_MS = 2.0, 0.25, 300.0
    #: times each link traverses its whole range while requests arrive
    TRAVERSALS = 1.0

    @classmethod
    def inputs(cls, seed: int, n: int) -> dict:
        arrivals = loadgen.poisson_arrivals(seed, cls.RATE_HZ, n)
        span = n / cls.RATE_HZ / cls.PERIOD_S      # trace steps, nominal
        speed = cls.TRAVERSALS / span
        trace = _conditions(*loadgen.sweep(
            seed, 2, (40.0, 400.0), (5.0, 60.0),
            int(2 * arrivals[-1] / cls.PERIOD_S) + 2, speed, speed))
        return {"seed": seed, "n": n, "arrivals": arrivals, "trace": trace}

    def __init__(self, inp: dict):
        self.inp = inp
        self.system = _star_system(inp["seed"], self.SLO_MS)
        self.server = InferenceServer(
            self.system, self.RATE_HZ,
            arrival_process=lambda rng, n: inp["arrivals"])

    def run(self, mark):
        return self.server.run(self.inp["n"],
                               condition_trace=self.inp["trace"],
                               trace_period_s=self.PERIOD_S)

    def finish(self, stats) -> Outcome:
        counters = _cache_counters([self.system])
        counters["runtime.server.mean_batch"] = 1.0
        return _serving_outcome(
            [(stats, self.inp["n"], self.SLO_MS / 1e3)], counters)


class StaticHit:
    """A fixed network: one miss, then every request hits the cache.
    One seventh of the ops go through the FIFO server, the rest through
    the batched-overlapped one."""

    n = 17500
    FIFO_HZ, BATCH_HZ, SLO_MS = 8.0, 40.0, 300.0

    @classmethod
    def inputs(cls, seed: int, n: int) -> dict:
        n_fifo = max(n // 7, 1)
        return {"seed": seed, "n_fifo": n_fifo, "n_batch": n - n_fifo,
                "fifo": loadgen.poisson_arrivals(seed, cls.FIFO_HZ, n_fifo),
                "batch": loadgen.poisson_arrivals(seed, cls.BATCH_HZ,
                                                  n - n_fifo, sub=1)}

    def __init__(self, inp: dict):
        self.inp = inp
        self.systems = [_star_system(inp["seed"], self.SLO_MS)
                        for _ in range(2)]
        self.fifo = InferenceServer(
            self.systems[0], self.FIFO_HZ,
            arrival_process=lambda rng, n: inp["fifo"])
        self.batched = BatchingInferenceServer(
            self.systems[1], self.BATCH_HZ,
            policy=BatchPolicy(max_batch=8, max_wait_s=0.0, overlap=True),
            arrival_process=lambda rng, n: inp["batch"])

    def run(self, mark):
        return (self.fifo.run(self.inp["n_fifo"]),
                self.batched.run(self.inp["n_batch"]))

    def finish(self, raw) -> Outcome:
        fifo, batched = raw
        counters = _cache_counters(self.systems)
        counters["runtime.server.mean_batch"] = 1.0
        counters["runtime.batching.mean_batch"] = batched.mean_batch_size
        slo_s = self.SLO_MS / 1e3
        return _serving_outcome([(fifo, self.inp["n_fifo"], slo_s),
                                 (batched, self.inp["n_batch"], slo_s)],
                                counters)


class FluidRing:
    """The fluid ledger alone: priced transfers on a six-node ring."""

    n = 1000
    NODES, CAP_BPS, SLOW_BPS = 6, 100e6, 25e6
    BURST_FLOWS, BURST_EVERY_S, SIGMA = 100, 8.0, 0.5
    HOP_DELAY_S, RPC_S = 0.005, 0.001
    #: the edge whose capacity toggles every CAP_PERIOD_S
    STEP_EDGE, CAP_PERIOD_S = (0, 1), 2.0
    #: a flow is compliant within this multiple of its lone wire time
    SLO_FACTOR = 4.0

    @classmethod
    def inputs(cls, seed: int, n: int) -> dict:
        tr = loadgen.ring_transfers(seed, n, cls.NODES, base_hz=10.0,
                                    burst_flows=cls.BURST_FLOWS,
                                    burst_every_s=cls.BURST_EVERY_S,
                                    median_bytes=300e3, sigma=cls.SIGMA)
        edges = []
        for src, hops, step in zip(tr["src"], tr["hops"], tr["step"]):
            path = [int(src + step * k) % cls.NODES for k in range(hops + 1)]
            edges.append(tuple((min(a, b), max(a, b))
                               for a, b in zip(path, path[1:])))
        # one time-ordered script of capacity steps and transfers
        script = [(float(t), 1, i) for i, t in enumerate(tr["t"])]
        k = 1
        while k * cls.CAP_PERIOD_S <= tr["t"][-1]:
            script.append((k * cls.CAP_PERIOD_S, 0, k))
            k += 1
        script.sort()
        return {"n": n, "script": script, "edges": edges,
                "nbytes": [float(b) for b in tr["nbytes"]]}

    def __init__(self, inp: dict):
        self.inp = inp
        self.tracker = FluidTracker()
        self.caps = {tuple(sorted((i, (i + 1) % self.NODES))): self.CAP_BPS
                     for i in range(self.NODES)}

    def run(self, mark):
        tracker, caps = self.tracker, self.caps
        edges, sizes = self.inp["edges"], self.inp["nbytes"]
        priced: List[float] = []
        peeks: Dict[int, float] = {}
        for t, is_transfer, i in self.inp["script"]:
            if not is_transfer:
                caps[self.STEP_EDGE] = (self.SLOW_BPS if i % 2
                                        else self.CAP_BPS)
                tracker.update_caps(t, {self.STEP_EDGE:
                                        caps[self.STEP_EDGE]})
                continue
            mark(i)
            path = edges[i]
            path_caps = {e: caps[e] for e in path}
            latency = self.HOP_DELAY_S * len(path) + self.RPC_S
            base = latency + sizes[i] * 8.0 / min(path_caps.values())
            if i % 2:
                peeks[i] = tracker.peek_transfer(
                    path, path_caps, latency, sizes[i], t, base_s=base)
            priced.append(tracker.admit_transfer(
                path, path_caps, latency, sizes[i], t, base_s=base))
        return priced, peeks, tracker.finish_times()

    def finish(self, raw) -> Outcome:
        priced, peeks, finish = raw
        n, tracker = self.inp["n"], self.tracker
        violations: List[str] = []
        if len(priced) != n or len(finish) != n:
            violations.append(f"{len(priced)} priced / {len(finish)} "
                              f"finished for {n} transfers")
        for i, peek in peeks.items():
            if peek != priced[i]:
                violations.append(
                    f"transfer {i}: peek {peek} != admit {priced[i]}")
        starts = np.array([tracker.flow_spec(i).start for i in range(n)])
        ends = np.array([finish[i] for i in range(n)])
        if (ends < starts).any():
            violations.append("a flow finishes before it starts")
        lone = np.array(self.inp["nbytes"]) * 8.0 / self.CAP_BPS
        h = hashlib.sha256()
        h.update(struct.pack(f"<{n}d", *priced))
        h.update(ends.tobytes())
        # peak in flight: sweep starts (+1) and finishes (-1) in time
        # order, finishes first at a shared instant
        step = np.r_[np.ones(n), -np.ones(n)]
        order = np.lexsort((step, np.r_[starts, ends]))
        peak = int(np.cumsum(step[order]).max())
        stats = tracker.stats()
        counters = {"netsim.fluid.flows": stats["flows"],
                    "netsim.fluid.segments": stats["segments"],
                    "netsim.fluid.peak_share": stats["peak_share"],
                    "netsim.fluid.peak_active": peak}
        return Outcome(n, (ends - starts) * 1e3,
                       int(((ends - starts) <= self.SLO_FACTOR * lone).sum()),
                       h.hexdigest(), violations, counters)


class TenantMix:
    """The ROADMAP-pinned ``multi_tenant --fluid`` world: two tenants
    behind a fluid-priced shared ingress whose capacity steps mid-flight,
    admission and fairness variants, telemetry and recorder attached."""

    n = 240          # requests per variant
    VARIANTS = ("admission", "fair")
    TENANTS = (("burst", 4.0, 8.0), ("steady", 4.0, 1.0))
    SLO_MS, PERIOD_S, INGRESS_PERIOD_S = 300.0, 0.25, 1.0
    PAYLOAD_BYTES = 256.0 * 1024.0
    #: link drift per trace step, in ranges (see loadgen.sweep)
    BW_SPEED, DELAY_SPEED = 0.008, 0.016
    #: uplink Mbps per second of the 16 s burst cycle: one dip inside the
    #: burst window [4, 8), one outside
    INGRESS_MBPS = ((40.0,) * 5 + (20.0,) * 2 + (40.0,) * 4 + (30.0,) * 2
                    + (40.0,) * 3)

    @classmethod
    def inputs(cls, seed: int, n: int) -> dict:
        arrivals, tags = loadgen.tenant_arrivals(
            seed, cls.TENANTS, n, burst_window=(4.0, 8.0),
            burst_every_s=16.0)
        horizon = 2 * arrivals[-1]
        trace = _conditions(*loadgen.sweep(
            seed, 2, (40.0, 400.0), (5.0, 60.0),
            int(horizon / cls.PERIOD_S) + 2, cls.BW_SPEED, cls.DELAY_SPEED))
        ingress = loadgen.capacity_steps(
            seed, cls.INGRESS_MBPS,
            steps=int(horizon / cls.INGRESS_PERIOD_S) + 2)
        return {"seed": seed, "n": n, "arrivals": arrivals, "tags": tags,
                "trace": trace, "ingress": ingress}

    def __init__(self, inp: dict):
        self.inp = inp
        self.parts = [self._variant(v) for v in self.VARIANTS]

    def _variant(self, name: str) -> dict:
        inp = self.inp
        tel = Telemetry()
        rec = RunRecorder("perf_tenant_mix", variant=name,
                          config={"seed": inp["seed"], "n": inp["n"]})
        controller = (AdmissionController() if name == "admission"
                      else TenantFairnessController(
                          weights={t[0]: 1.0 for t in self.TENANTS}))
        control = ControlLoop([controller], period_s=0.5, telemetry=tel)
        tracker = FluidTracker(telemetry=tel)
        ingress = SharedIngress(
            Link(bandwidth_mbps=40.0, delay_ms=5.0), tracker,
            per_tenant_bytes={t[0]: self.PAYLOAD_BYTES
                              for t in self.TENANTS})
        system = _star_system(inp["seed"], self.SLO_MS, telemetry=tel,
                              control=control, recorder=rec)
        loop = EventLoop(system.clock)
        schedule_ingress_trace(loop, ingress, inp["ingress"],
                               self.INGRESS_PERIOD_S)
        server = InferenceServer(
            system, sum(t[1] for t in self.TENANTS), telemetry=tel,
            recorder=rec, control=control, ingress=ingress, events=loop,
            arrival_process=lambda rng, n: inp["arrivals"])
        return {"tel": tel, "rec": rec, "control": control,
                "tracker": tracker, "system": system, "loop": loop,
                "server": server}

    def run(self, mark):
        inp = self.inp
        out = []
        for p in self.parts:
            stats = p["server"].run(inp["n"], condition_trace=inp["trace"],
                                    trace_period_s=self.PERIOD_S,
                                    tenants=inp["tags"])
            p["rec"].capture_timelines(p["tel"].timelines)
            p["rec"].finish(stats)
            out.append(stats)
        return out

    def finish(self, raw) -> Outcome:
        counters = _cache_counters([p["system"] for p in self.parts])
        fluid = [p["tracker"].stats() for p in self.parts]
        counters.update({
            "runtime.server.mean_batch": 1.0,
            "netsim.fluid.flows": sum(s["flows"] for s in fluid),
            "netsim.fluid.segments": sum(s["segments"] for s in fluid),
            "netsim.fluid.peak_share": max(s["peak_share"] for s in fluid),
            "sim.events.fired": sum(p["loop"].fired_total
                                    for p in self.parts),
            "control.loop.ticks": sum(p["control"].ticks
                                      for p in self.parts),
        })
        slo_s = self.SLO_MS / 1e3
        return _serving_outcome(
            [(stats, self.inp["n"], slo_s) for stats in raw], counters,
            recorders=[p["rec"] for p in self.parts])


class MeshFaults:
    """A four-device ring losing links and its GPU node on a repeating
    schedule: the resilient runtime (reroute, retry, failover), then the
    no-reroute/no-failover ablation whose requests behind a dead link
    end as typed ``failed`` outcomes."""

    n = 100          # requests per variant
    RATE_HZ, SLO_MS, CYCLE_S = 2.0, 400.0, 16.0
    #: per cycle: the gateway's primary edge (0, 1) fails hard, later it
    #: flaps; twice the GPU desktop (device 1) dies with its links
    FAIL_S, FLAP_S = (1.0, 3.0), (8.5, 10.5)
    BLASTS_S = ((5.0, 7.0), (12.0, 14.0))
    VARIANTS = (("resilient", True, ResilienceConfig()),
                ("no-reroute", False,
                 ResilienceConfig(failover=False, degradation=False)))

    @classmethod
    def inputs(cls, seed: int, n: int) -> dict:
        arrivals = loadgen.paced_arrivals(seed, cls.RATE_HZ, n)
        events = []
        (f0, f1), (p0, p1) = cls.FAIL_S, cls.FLAP_S
        for k in range(int(arrivals[-1] / cls.CYCLE_S) + 1):
            t = k * cls.CYCLE_S
            events += [
                LinkFailure(t + f0, t + f1, a=0, b=1),
                LinkFlap(t + p0, t + p1, a=0, b=1, p_fail=0.7,
                         p_recover=0.25, step_s=0.25, seed=seed + k),
            ] + [CorrelatedFailure(t + b0, t + b1, devices=(1,),
                                   links=((0, 1), (1, 2)), domain="rack")
                 for b0, b1 in cls.BLASTS_S]
        return {"seed": seed, "n": n, "arrivals": arrivals, "events": events}

    def __init__(self, inp: dict):
        self.inp = inp
        self.parts = [self._variant(*v) for v in self.VARIANTS]

    def _variant(self, name: str, reroute: bool, resilience) -> dict:
        inp = self.inp
        devices = [rpi4(), desktop_gtx1080(), jetson_class(), rpi4()]
        mesh = ring_topology(devices, 150.0, 10.0, reroute=reroute)
        rec = (RunRecorder("perf_mesh_faults", variant=name,
                           config={"seed": inp["seed"], "n": inp["n"]})
               if reroute else None)
        system = Murmuration(
            MBV3_SPACE, devices, None, _engine(devices, 4, 0.03),
            slo=SLO.latency_ms(self.SLO_MS), use_predictor=False,
            monitor_noise=0.02, seed=inp["seed"],
            faults=FaultInjector(FaultSchedule(inp["events"]),
                                 seed=inp["seed"]),
            resilience=resilience, recorder=rec, cluster=mesh)
        server = InferenceServer(
            system, self.RATE_HZ, recorder=rec,
            arrival_process=lambda rng, n: inp["arrivals"])
        return {"rec": rec, "system": system, "server": server}

    def run(self, mark):
        out = []
        for p in self.parts:
            stats = p["server"].run(self.inp["n"])
            if p["rec"] is not None:
                p["rec"].finish(stats)
            out.append(stats)
        return out

    def finish(self, raw) -> Outcome:
        counters = _cache_counters([p["system"] for p in self.parts])
        counters["runtime.server.mean_batch"] = 1.0
        counters["netsim.mesh.reroutes"] = sum(
            p["system"].path_reroutes for p in self.parts)
        slo_s = self.SLO_MS / 1e3
        return _serving_outcome(
            [(stats, self.inp["n"], slo_s) for stats in raw], counters,
            recorders=[p["rec"] for p in self.parts if p["rec"] is not None])


class StrategyEval:
    """What RL and evolution do all day: price a never-seen-before
    (architecture, plan) under a fresh task, with nothing to reuse."""

    n = 1500
    RECHECK_EVERY = 50

    @classmethod
    def inputs(cls, seed: int, n: int) -> dict:
        env = MurmurationEnv(MBV3_SPACE, _star_devices())
        actions = loadgen.action_sequences(
            seed, [s.n_choices for s in env.schedule], n)
        rng = loadgen.stream_rng(seed, loadgen.TASKS)
        return {"n": n, "actions": actions.tolist(),
                "tasks": [env.sample_task(rng) for _ in range(n)]}

    def __init__(self, inp: dict):
        self.inp = inp
        self.env = MurmurationEnv(MBV3_SPACE, _star_devices())

    def run(self, mark):
        evaluate = self.env.evaluate_actions
        out = []
        for i, (actions, task) in enumerate(zip(self.inp["actions"],
                                                self.inp["tasks"])):
            mark(i)
            out.append(evaluate(actions, task))
        return out

    def finish(self, outcomes) -> Outcome:
        inp = self.inp
        violations: List[str] = []
        if len(outcomes) != inp["n"]:
            violations.append(
                f"{len(outcomes)} outcomes for {inp['n']} strategies")
        for i in range(0, len(outcomes), self.RECHECK_EVERY):
            again = self.env.evaluate_actions(inp["actions"][i],
                                              inp["tasks"][i])
            first = outcomes[i]
            if ((again.latency_s, again.accuracy, again.reward,
                 again.satisfied) != (first.latency_s, first.accuracy,
                                      first.reward, first.satisfied)):
                violations.append(f"strategy {i} re-evaluates differently")
        h = hashlib.sha256()
        for o in outcomes:
            h.update(struct.pack("<3d?", o.latency_s, o.accuracy, o.reward,
                                 o.satisfied))
        return Outcome(inp["n"],
                       np.array([o.latency_s for o in outcomes]) * 1e3,
                       sum(o.satisfied for o in outcomes), h.hexdigest(),
                       violations, {})


WORKLOADS = {
    "drift_miss": DriftMiss,
    "static_hit": StaticHit,
    "fluid_ring": FluidRing,
    "tenant_mix": TenantMix,
    "mesh_faults": MeshFaults,
    "strategy_eval": StrategyEval,
}
