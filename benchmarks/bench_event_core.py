"""Event core: boundary-only vs event-driven world application.

The event-core scenario (``repro.eval.event_core``) serves one seeded
Poisson stream whose payloads upload over a shared fluid-priced uplink
following a capacity step trace (40 Mbps with 5 Mbps dips), twice:

* **boundary** — the historical model: a capacity step is observed only
  when the *next* request touches the ingress, so in-flight uploads
  keep stale rates across the step;
* **event** — the step is a scheduled event on an
  :class:`~repro.sim.EventLoop` sharing the system clock: it fires at
  its true instant and every in-flight upload re-converges right there
  (:meth:`~repro.netsim.fluid.FluidTracker.update_caps`).

The headline claims this benchmark pins down:

1. the semantics gap is *large and real*: around a recovery edge that
   lands inside an arrival gap, the boundary model keeps draining the
   backlog at the stale low rate while the event model re-converges at
   the edge — a double-digit compliance gap and a multi-second p95 gap
   on the default seed;
2. re-convergence happens *at the step instant*, byte-auditable: a
   fluid flow's rate segments change exactly at the scheduled step
   time, and its ledger finish time matches the closed-form two-rate
   integral;
3. the whole comparison is a pure function of the config: same seed,
   same records, and a captured recording re-records byte-for-byte.

Also runnable as a script::

    PYTHONPATH=src python benchmarks/bench_event_core.py [--smoke]
"""

import argparse
import io
import sys

import pytest

from repro.eval import EventCoreConfig, format_reports, run_scenario
from repro.eval.replay import rerecord
from repro.netsim.fluid import FluidTracker
from repro.telemetry.recorder import read_recordings, write_recordings

#: acceptance floors on the default seed: the event-driven variant must
#: beat boundary-only by this much (the gap IS the measured effect)
_COMPLIANCE_MARGIN = 0.25
_P95_MARGIN_MS = 1000.0

_CFG = EventCoreConfig()
_SMOKE_CFG = EventCoreConfig(num_requests=60)

_EDGE = (-1, 0)


@pytest.fixture(scope="module")
def reports():
    return run_scenario("event_core", _CFG)


@pytest.mark.benchmark(group="event_core")
def test_event_core_compliance_gap(reports):
    """Boundary-only application visibly under-serves the step trace."""
    boundary = reports["boundary"].e2e_compliance
    event = reports["event"].e2e_compliance
    assert event >= boundary + _COMPLIANCE_MARGIN, (
        f"event {event:.0%} vs boundary {boundary:.0%}: "
        f"margin < {_COMPLIANCE_MARGIN:.0%}")


@pytest.mark.benchmark(group="event_core")
def test_event_core_latency_gap(reports):
    """The p95 gap: stale-rate backlog drain vs instant re-convergence."""
    boundary = reports["boundary"].p95_ms
    event = reports["event"].p95_ms
    assert event <= boundary - _P95_MARGIN_MS, (
        f"event p95 {event:.0f}ms vs boundary {boundary:.0f}ms: "
        f"gap < {_P95_MARGIN_MS:.0f}ms")


@pytest.mark.benchmark(group="event_core")
def test_reconvergence_happened_mid_flight(reports):
    """Only the event variant applies capacities mid-flight, once per
    trace-cell change (5 changes in the default trace)."""
    assert reports["boundary"].caps_updates == 0
    assert reports["event"].caps_updates == 5
    assert reports["event"].events.fired_total == 5
    assert reports["event"].events.pending == 0


@pytest.mark.benchmark(group="event_core")
def test_flow_reconverges_at_the_step_instant():
    """A cap step lands *exactly* at its scheduled time in the ledger:
    the flow's rate segments flip at t_step and the finish time equals
    the closed-form two-rate integral."""
    tracker = FluidTracker(record_segments=True)
    nbytes = 5e6 / 8.0  # 5 Mbit
    tracker.admit((_EDGE,), {_EDGE: 10e6}, 0.0, nbytes)
    # halfway through (2.5 Mbit sent at t=0.25), capacity halves
    tracker.update_caps(0.25, {_EDGE: 5e6})
    tracker.drain()
    finish = tracker.finish_times()[0]
    assert finish == pytest.approx(0.25 + 2.5e6 / 5e6)  # = 0.75
    # the audit trail: one segment ends exactly at the step instant,
    # rates flip from 10 Mbps to 5 Mbps there
    cut = [s for s in tracker.segments if s.t1 == 0.25]
    assert cut and cut[0].rates[0] == pytest.approx(10e6)
    after = [s for s in tracker.segments if s.t0 == 0.25]
    assert after and after[0].rates[0] == pytest.approx(5e6)


@pytest.mark.benchmark(group="event_core")
def test_event_core_is_reproducible():
    """Same config, same records — bit for bit, both variants."""
    a = run_scenario("event_core", _SMOKE_CFG)
    b = run_scenario("event_core", _SMOKE_CFG)
    for name in a:
        assert a[name].stats.records == b[name].stats.records


@pytest.mark.benchmark(group="event_core")
def test_recording_rerecords_byte_identically():
    """record -> rerecord round trip is byte-stable per variant."""
    recorded = run_scenario("event_core", _SMOKE_CFG, record=True)
    first = io.StringIO()
    write_recordings(first, [rep.recorder for rep in recorded.values()])
    second = io.StringIO()
    write_recordings(second,
                     [rerecord(rec)
                      for rec in read_recordings(
                          io.StringIO(first.getvalue()))])
    assert first.getvalue() == second.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Event-core benchmark: boundary-only vs event-driven "
                    "capacity application on a fluid-priced uplink.")
    parser.add_argument("--smoke", action="store_true",
                        help="small smoke configuration (CI)")
    parser.add_argument("--requests", type=int, default=None,
                        help="override request count")
    args = parser.parse_args(argv)
    cfg = _SMOKE_CFG if args.smoke else _CFG
    if args.requests is not None:
        from dataclasses import replace
        cfg = replace(cfg, num_requests=args.requests)
    reports = run_scenario("event_core", cfg)
    print(format_reports(reports))
    boundary = reports["boundary"].e2e_compliance
    event = reports["event"].e2e_compliance
    ok = event >= boundary + _COMPLIANCE_MARGIN
    print(f"\ne2e compliance: boundary {boundary:.0%} -> event "
          f"{event:.0%} (margin {event - boundary:+.0%}, "
          f"{'PASS' if ok else 'FAIL'}); "
          f"{reports['event'].caps_updates} mid-flight re-convergences")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
