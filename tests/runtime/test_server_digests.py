"""Frozen digests of what the two serving loops produce.

``scenario_digests.json`` pins the registered scenarios' recordings at
n = 14 and ``TestFifoParity`` samples three worlds; nothing pinned, by
``float.hex``, what :meth:`InferenceServer.run` and
:meth:`BatchingInferenceServer.run` emit on worlds built to reach every
branch of both loops.  ``tests/fixtures/server_loop_digests.json``
holds, per world at n = 120, the sha256 over

* every :class:`RequestRecord` field (and every :class:`BatchRecord`
  field of a batched run), floats as ``float.hex``;
* the recorder's JSONL bytes (run header, conditions, decisions,
  batches, requests, timelines, summary);
* the finished span forest: name, simulated start / end, sorted attrs
  and children of every root, in finish order (wall-clock durations are
  host-dependent and left out);
* the control loop's tick count and action log, and the event loop's
  fired count, where the world has them.

The worlds: FIFO x {plain, condition trace, crash-and-recover, two
tenants behind a fluid :class:`SharedIngress` whose capacity steps on
the event loop, an :class:`AdmissionController` that sheds in streaks
under scheduled control ticks}; batched x {``max_batch`` 1 / 4 / 8,
overlap off, a fill timeout, a condition trace, crash-and-recover,
a condition trace scheduled on the event loop, mixed tenants, a control
loop that ticks, retunes the batch policy and degrades but never
sheds}.  Batched serving under *shedding* admission
is left out on purpose: inside a run of shed batch leaders the batched
loop neither fires world events nor ticks control, which the merge of
the two loops fixes (``TestShedStreak`` in ``test_batching.py``).

The file was generated *before* the two ``run`` loops became one and
must keep passing untouched.
"""

import functools
import io

import pytest

from repro.control import (AdmissionController, BatchPolicyController,
                           ControlLoop)
from repro.core import SLO, Murmuration, SearchDecisionEngine
from repro.devices import desktop_gtx1080, jetson_class, rpi4
from repro.eval.adaptive import burst_arrival_process
from repro.eval.spec import PinnedTimeEngine
from repro.faults import FaultInjector, crash_and_recover_schedule
from repro.nas import MBV3_SPACE
from repro.netsim import (FluidTracker, Link, NetworkCondition,
                          SharedIngress, TraceConfig, step_trace)
from repro.runtime import (BatchingInferenceServer, BatchPolicy,
                           InferenceServer)
from repro.sim import (EventLoop, schedule_condition_trace,
                       schedule_control_ticks, schedule_ingress_trace)
from repro.telemetry import Telemetry
from repro.telemetry.recorder import RunRecorder, write_recordings
from tests.frozen import digest, sha256

N = 120


class DegradeOnly(AdmissionController):
    """Admission that never sheds: what it would shed, it degrades."""

    def admit(self, arrival, start, slo_s, loop, tenant=None):
        verdict = super().admit(arrival, start, slo_s, loop, tenant=tenant)
        return "degrade" if verdict == "shed" else verdict


def _trace(seed):
    return step_trace(TraceConfig(num_remote=2, steps=40, seed=seed,
                                  bw_range=(50.0, 400.0),
                                  delay_range=(5.0, 50.0)), period=2)


def serve(name, *, policy=None, rate_hz=20.0, seed=0, slo_ms=200.0,
          faults=False, trace=False, tenants=None, ingress_trace=None,
          controllers=None, control_period_s=0.25, scheduled_ticks=False,
          scheduled_trace=False, burst=None):
    """Build one world, serve ``N`` requests, return everything the
    server, the recorder, the tracer and the control plane hold."""
    tel = Telemetry()
    recorder = RunRecorder("server_loop", variant=name)
    loop = EventLoop()
    control = (ControlLoop(controllers(), period_s=control_period_s,
                           telemetry=tel)
               if controllers is not None else None)
    devices = [rpi4(), desktop_gtx1080(), jetson_class()]
    engine = PinnedTimeEngine(
        SearchDecisionEngine(MBV3_SPACE, devices, n_random_archs=4,
                             seed=seed), 0.02)
    system = Murmuration(
        MBV3_SPACE, devices, NetworkCondition((300.0, 150.0), (10.0, 20.0)),
        engine, slo=SLO.latency_ms(slo_ms), use_predictor=False,
        monitor_noise=0.0, seed=seed, telemetry=tel, recorder=recorder,
        control=control, clock=loop.clock,
        faults=(FaultInjector(crash_and_recover_schedule(
            device=1, crash_at=0.6, recover_at=2.4), seed=seed)
            if faults else None))
    common = dict(seed=seed + 1, telemetry=tel, recorder=recorder,
                  control=control, events=loop,
                  arrival_process=(burst_arrival_process(rate_hz, *burst)
                                   if burst else None))
    if policy is not None:
        server = BatchingInferenceServer(system, rate_hz, policy=policy,
                                         **common)
    else:
        ingress = None
        if ingress_trace is not None:
            ingress = SharedIngress(
                Link(bandwidth_mbps=ingress_trace[0], delay_ms=4.0),
                FluidTracker(telemetry=tel), payload_bytes=48 * 1024,
                per_tenant_bytes={"bulk": 256 * 1024})
            schedule_ingress_trace(loop, ingress, ingress_trace, 1.0)
        server = InferenceServer(system, rate_hz, ingress=ingress, **common)
    if scheduled_trace:
        schedule_condition_trace(loop, system, _trace(seed), 0.5,
                                 recorder=recorder)
    if scheduled_ticks:
        schedule_control_ticks(loop, control, horizon_s=N / rate_hz)
    tags = ([tenants[i % len(tenants)] for i in range(N)]
            if tenants else None)
    stats = server.run(N, condition_trace=_trace(seed) if trace else None,
                       trace_period_s=0.5, tenants=tags)
    recorder.capture_timelines(tel.timelines)
    recorder.finish(stats)
    return stats, recorder, tel, control, loop


WORLDS = {
    "fifo/plain": dict(seed=1),
    "fifo/trace": dict(seed=2, rate_hz=30.0, trace=True),
    "fifo/crash_recover": dict(seed=3, faults=True),
    "fifo/tenants_fluid_ingress": dict(
        seed=4, rate_hz=25.0, tenants=("bulk", "chat", "chat"),
        ingress_trace=(40.0, 40.0, 6.0, 40.0, 8.0, 40.0)),
    "fifo/admission_shed_streaks": dict(
        seed=5, rate_hz=8.0, burst=((3.0, 5.0), 6.0), slo_ms=300.0,
        trace=True, controllers=lambda: [AdmissionController()],
        scheduled_ticks=True),
    "batched/max1": dict(seed=6, policy=BatchPolicy(max_batch=1)),
    "batched/max4": dict(seed=7, rate_hz=60.0,
                         policy=BatchPolicy(max_batch=4)),
    "batched/max8": dict(seed=8, rate_hz=80.0,
                         policy=BatchPolicy(max_batch=8), trace=True),
    "batched/max8_serial": dict(
        seed=8, rate_hz=80.0, trace=True,
        policy=BatchPolicy(max_batch=8, overlap=False)),
    "batched/fill_timeout": dict(
        seed=9, rate_hz=6.0,
        policy=BatchPolicy(max_batch=4, max_wait_s=0.4)),
    "batched/trace": dict(seed=10, rate_hz=40.0, trace=True,
                          policy=BatchPolicy(max_batch=4)),
    "batched/crash_recover": dict(seed=11, rate_hz=40.0, faults=True,
                                  policy=BatchPolicy(max_batch=4)),
    "batched/mixed_tenants": dict(
        seed=12, rate_hz=60.0, tenants=("a", "b", None),
        policy=BatchPolicy(max_batch=4)),
    "batched/event_trace": dict(seed=10, rate_hz=40.0, scheduled_trace=True,
                                policy=BatchPolicy(max_batch=4)),
    # server-driven ticks: a scheduled tick carries no queue depth, so
    # under scheduled cadence the batch cap would only ever shrink
    "batched/control_degrades": dict(
        seed=13, rate_hz=8.0, burst=((3.0, 4.0), 6.0), slo_ms=300.0,
        trace=True, policy=BatchPolicy(max_batch=4),
        controllers=lambda: [BatchPolicyController(max_batch=8),
                             DegradeOnly()]),
}


def _hex(value):
    if hasattr(value, "item"):       # numpy scalar -> its Python twin
        value = value.item()
    return value.hex() if isinstance(value, float) else value


def _fields(record):
    return {name: _hex(getattr(record, name)) for name in record._fields}


def _span(span):
    return {"name": span.name, "sim_start": _hex(span.sim_start),
            "sim_end": _hex(span.sim_end),
            "attrs": sorted((k, repr(_hex(v)))
                            for k, v in span.attrs.items()),
            "children": [_span(c) for c in span.children]}


def play(name):
    """Everything one world emitted, floats as ``float.hex``."""
    stats, recorder, tel, control, loop = serve(name, **WORLDS[name])
    jsonl = io.StringIO()
    write_recordings(jsonl, [recorder])
    answer = {
        "requests": [_fields(r) for r in stats.records],
        "batches": [_fields(b) for b in getattr(stats, "batches", [])],
        "jsonl": sha256(jsonl.getvalue()),
        "spans": [_span(root) for root in tel.tracer.finished],
        "events_fired": loop.fired_total,
    }
    if control is not None:
        answer.update(
            ticks=control.ticks,
            actions=[(_hex(a.t), a.controller, a.description)
                     for a in control.actions])
    return answer


def _counts(answer):
    outcomes = {}
    for r in answer["requests"]:
        outcomes[r["outcome"]] = outcomes.get(r["outcome"], 0) + 1
    return {"outcomes": dict(sorted(outcomes.items())),
            "batches": len(answer["batches"]),
            "roots": len(answer["spans"]),
            "ticks": answer.get("ticks"),
            "events_fired": answer["events_fired"]}


@functools.lru_cache(maxsize=None)
def answers():
    return {name: play(name) for name in WORLDS}


def fixture_content():
    # the cheap counts beside each digest say *what* moved
    return {name: {"digest": digest(a), "counts": _counts(a)}
            for name, a in answers().items()}


@pytest.mark.parametrize("name", WORLDS)
def test_server_emits_what_it_emitted_when_frozen(moved, name):
    assert name not in moved("server_loop_digests")


def _longest_streak(answer, outcome):
    best = run = 0
    for r in answer["requests"]:
        run = run + 1 if r["outcome"] == outcome else 0
        best = max(best, run)
    return best


def test_worlds_reach_the_cases_they_name():
    """The fixture would pin nothing if no world queued, shed, batched,
    overlapped or failed over."""
    live = answers()
    for name, answer in live.items():
        assert len(answer["requests"]) == N
        assert bool(answer["batches"]) == name.startswith("batched/")
    shed = live["fifo/admission_shed_streaks"]
    assert _longest_streak(shed, "shed") >= 3
    assert _counts(shed)["outcomes"]["shed"] >= 10
    assert shed["requests"][-1]["outcome"] != "shed"   # and it recovers
    assert shed["ticks"] >= 20 and shed["events_fired"] >= 20
    degr = live["batched/control_degrades"]
    assert "shed" not in _counts(degr)["outcomes"]
    assert _counts(degr)["outcomes"]["degraded"] >= 10
    assert degr["ticks"] >= 20 and len(degr["actions"]) >= 4
    assert max(b["size"] for b in degr["batches"]) == 8    # the cap grew
    assert degr["batches"][-1]["size"] == 1                # and shrank
    assert live["batched/event_trace"]["events_fired"] >= 4
    for name in ("fifo/crash_recover", "batched/crash_recover"):
        outcomes = _counts(live[name])["outcomes"]
        assert outcomes.get("retried", 0) + outcomes.get("degraded", 0) > 0
        assert live[name]["requests"][-1]["outcome"] == "ok"
    ingress = live["fifo/tenants_fluid_ingress"]
    assert ingress["events_fired"] >= 4                # capacity stepped
    assert any(r["start"] != r["arrival"] for r in ingress["requests"])
    assert {r["tenant"] for r in ingress["requests"]} == {"bulk", "chat"}
    assert all(b["size"] == 1 for b in live["batched/max1"]["batches"])
    assert max(b["size"] for b in live["batched/max4"]["batches"]) == 4
    assert max(b["size"] for b in live["batched/max8"]["batches"]) == 8
    saved = [b["overlap_saved_s"] for b in live["batched/max8"]["batches"]]
    assert any(v != (0.0).hex() for v in saved)
    assert all(b["overlap_saved_s"] == (0.0).hex()
               for b in live["batched/max8_serial"]["batches"])
    waited = live["batched/fill_timeout"]["batches"]
    assert any(1 < b["size"] < 4 for b in waited)
    assert {r["tenant"] for r
            in live["batched/mixed_tenants"]["requests"]} == {"a", "b", None}

