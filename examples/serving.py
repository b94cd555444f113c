#!/usr/bin/env python
"""Serving under load: SLO compliance with queueing (extension).

Wraps the Murmuration facade in the Poisson-arrival serving loop and
compares two operating points on the same hardware and network trace:

* a *tight* 120 ms latency SLO — faster submodels, headroom for queueing;
* a *loose* 400 ms latency SLO — more accurate submodels, but at high
  arrival rates the queue eats the headroom.

The punchline: the SLO knob is also a throughput knob.

Then a telemetry-instrumented run: the same loop with a `Telemetry` hub
threaded through, printing where one request's time actually went.

Every cache-missing decision is charged the ``serving_load`` scenario's
pinned cost (``decision_time_s``, 40 ms) instead of the search's measured
wall clock.  The measured cost depends on the host and its load, and it
feeds the simulated clock, so two runs would print different tables; the
pinned cost makes the output a pure function of the seeds, byte for byte.

Run:  python examples/serving.py        (~1 s)
"""

from repro.core import SLO, Murmuration, SearchDecisionEngine
from repro.devices import desktop_gtx1080, rpi4
from repro.eval.serving_load import ServingLoadConfig
from repro.eval.spec import PinnedTimeEngine
from repro.nas import MBV3_SPACE
from repro.netsim import NetworkCondition, TraceConfig, random_walk_trace
from repro.runtime import InferenceServer
from repro.telemetry import Telemetry, console_report


def build_system(slo_ms: float, telemetry=None):
    devices = [rpi4(), desktop_gtx1080()]
    return Murmuration(
        MBV3_SPACE, devices, NetworkCondition((80.0,), (30.0,)),
        PinnedTimeEngine(
            SearchDecisionEngine(MBV3_SPACE, devices, n_random_archs=6),
            ServingLoadConfig.decision_time_s),
        slo=SLO.latency_ms(slo_ms), use_predictor=False,
        monitor_noise=0.02, seed=0, telemetry=telemetry)


def telemetry_quickstart(trace) -> None:
    """One instrumented serving run; report + per-request breakdown."""
    tel = Telemetry()
    system = build_system(200.0, telemetry=tel)
    server = InferenceServer(system, arrival_rate_hz=4.0, seed=2,
                             telemetry=tel)
    server.run(num_requests=20, condition_trace=trace, trace_period_s=0.5)

    print(console_report(tel.registry, tel.timelines, show_timelines=1))
    tl = tel.timelines[-1]
    print(f"\nlast request: {tl.total_s * 1e3:.1f} ms end-to-end, of which "
          f"queue {tl.duration_of('queue') * 1e3:.1f} ms, "
          f"decision {tl.duration_of('decision') * 1e3:.1f} ms, "
          f"execute {tl.duration_of('execute') * 1e3:.1f} ms")


def main() -> None:
    trace = random_walk_trace(TraceConfig(
        num_remote=1, bw_range=(25.0, 120.0), delay_range=(15.0, 70.0),
        steps=30, seed=1))

    print(f"{'SLO':>8s} {'rate':>6s} {'p50':>8s} {'p95':>8s} "
          f"{'queue':>8s} {'acc':>6s} {'compl.':>7s}")
    for slo_ms in (120.0, 400.0):
        for rate in (1.0, 3.0, 6.0):
            system = build_system(slo_ms)
            server = InferenceServer(system, arrival_rate_hz=rate, seed=2)
            stats = server.run(num_requests=40, condition_trace=trace,
                               trace_period_s=0.5)
            acc = (sum(r.strategy.expected_accuracy
                       for r in system.records) / len(system.records))
            print(f"{slo_ms:6.0f}ms {rate:5.0f}/s "
                  f"{stats.percentile_ms(50):7.1f}ms "
                  f"{stats.percentile_ms(95):7.1f}ms "
                  f"{stats.mean_queue_wait_ms:7.1f}ms "
                  f"{acc:5.1f}% {stats.slo_compliance:6.0%}")
        print()

    telemetry_quickstart(trace)


if __name__ == "__main__":
    main()
