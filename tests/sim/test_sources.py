"""The event core's one source: shared-ingress capacity steps."""

import pytest

from repro.core import SLO, Murmuration, SearchDecisionEngine
from repro.devices import desktop_gtx1080, rpi4
from repro.eval.runner import run_scenario
from repro.nas import MBV3_SPACE
from repro.netsim import NetworkCondition
from repro.netsim.ingress import INGRESS_EDGE, SharedIngress
from repro.netsim.fluid import FluidTracker
from repro.netsim.link import Link
from repro.netsim.traces import condition_at
from repro.runtime import InferenceServer
from repro.sim import EventLoop, schedule_ingress_trace


# -- periods are finite and positive, checked up front ---------------------
_BAD_PERIODS = [float("nan"), float("inf"), 0.0, -1.0]


@pytest.mark.parametrize("period_s", _BAD_PERIODS)
def test_ingress_trace_rejects_a_bad_period(period_s):
    # an empty trace used to return before the period check (the domain
    # sweep in test_domains covers a non-empty one)
    loop = EventLoop()
    ingress = SharedIngress(Link(bandwidth_mbps=40.0, delay_ms=5.0),
                            FluidTracker(), payload_bytes=1024.0)
    with pytest.raises(ValueError, match="period_s must be positive"):
        schedule_ingress_trace(loop, ingress, [], period_s)
    assert loop.advance_to(1.0) == 0


def test_condition_at_holds_the_last_cell_however_far_past_the_end():
    # 1e308 / 0.5 is inf, and ``int(inf)`` raised OverflowError
    assert [condition_at([1, 2, 3], t, 0.5)[0]
            for t in (0.999, 1.0, 1e308, float("inf"))] == [1, 2, 2, 2]
    with pytest.raises(ValueError, match="t must be non-negative"):
        condition_at([1, 2, 3], float("nan"), 0.5)


# -- ingress capacity trace ------------------------------------------------
@pytest.mark.parametrize("bad", [0, -5.0, float("nan")])
def test_a_bad_ingress_trace_cell_is_rejected_before_anything_runs(bad):
    """A cell that is not a positive bandwidth used to schedule happily
    and raise from inside its own event — already popped, the clock
    stuck at the step — or, for the lazy ablation and the scenario
    config, mid-serving.  All three name the cell up front."""
    from repro.eval.event_core import EventCoreConfig, SteppedIngress
    loop = EventLoop()
    link = Link(bandwidth_mbps=40.0, delay_ms=5.0)
    ingress = SharedIngress(link, FluidTracker(), payload_bytes=1024.0)
    with pytest.raises(ValueError, match=r"trace_mbps\[1\] must be positive"):
        schedule_ingress_trace(loop, ingress, [40, bad, 40], 1.0)
    assert loop.advance_to(5.0) == 0
    assert loop.clock.now == 5.0 and ingress.link is link
    with pytest.raises(ValueError, match=r"trace_mbps\[1\] must be positive"):
        SteppedIngress(link, FluidTracker(), (40.0, bad, 40.0), 1.0)
    with pytest.raises(ValueError, match=r"trace_mbps\[2\] must be positive"):
        EventCoreConfig(ingress_trace_mbps=(40.0, 40.0, bad))


def test_ingress_trace_steps_capacity_and_reconverges_fluid():
    loop = EventLoop()
    tracker = FluidTracker()
    ingress = SharedIngress(Link(bandwidth_mbps=40.0, delay_ms=5.0),
                            tracker, payload_bytes=512 * 1024.0)
    steps = schedule_ingress_trace(loop, ingress, [40.0, 5.0, 40.0],
                                   period_s=1.0)
    assert steps == [0.0, 1.0, 2.0]
    ingress.admit(0.5)  # an upload in flight across the t=1.0 step
    loop.advance_to(1.0)
    assert ingress.link.bandwidth_mbps == 5.0
    # the in-flight flow re-converged at the step instant
    assert tracker.caps_updates_total >= 1
    assert tracker._caps[INGRESS_EDGE] == 5e6
    loop.advance_to(2.0)
    assert ingress.link.bandwidth_mbps == 40.0


def test_reconvergence_happened_mid_flight():
    """Only the event variant applies capacities mid-flight, once per
    trace-cell change (5 changes in the default trace), and the served
    run leaves no step behind on its loop."""
    reports = run_scenario("event_core")
    assert reports["boundary"].tracker.caps_updates_total == 0
    assert reports["event"].tracker.caps_updates_total == 5
    assert reports["event"].events.fired_total == 5
    assert reports["event"].events.advance_to(1e9) == 0


def test_ingress_step_survives_float_rounded_fire_times():
    # the cell change at idx 3, period 0.7 fires at 2.0999... which
    # indexes back to cell 2 when recomputed from time — the step must
    # carry its own index.
    loop = EventLoop()
    ingress = SharedIngress(Link(bandwidth_mbps=40.0, delay_ms=5.0),
                            FluidTracker(), payload_bytes=1024.0)
    schedule_ingress_trace(loop, ingress, [40.0, 40.0, 40.0, 5.0],
                           period_s=0.7)
    loop.advance_to(10.0)
    assert ingress.link.bandwidth_mbps == 5.0


# -- the same-instant rule at the serving layer ----------------------------
def _upload_s(arrival, trace_mbps):
    """``start - arrival`` (``.hex()``) of one request served behind a
    40 KB upload on an uplink whose capacity follows ``trace_mbps``."""
    devices = [rpi4(), desktop_gtx1080()]
    system = Murmuration(
        MBV3_SPACE, devices, NetworkCondition((300.0,), (10.0,)),
        SearchDecisionEngine(MBV3_SPACE, devices, n_random_archs=2),
        slo=SLO.latency_ms(200.0), use_predictor=False, monitor_noise=0.0)
    loop = EventLoop(system.clock)
    ingress = SharedIngress(Link(bandwidth_mbps=trace_mbps[0], delay_ms=5.0),
                            FluidTracker(), payload_bytes=40 * 1024.0)
    schedule_ingress_trace(loop, ingress, trace_mbps, 1.0)
    server = InferenceServer(system, 1.0, ingress=ingress, events=loop,
                             arrival_process=lambda rng, n: [arrival])
    (record,) = server.run(1).records
    return (record.start - record.arrival).hex()


def test_an_admission_at_an_ingress_step_uploads_at_the_new_capacity():
    """Events due at or before an admission fire first: a request that
    arrives exactly at the 40 -> 5 Mbps step uploads at 5 Mbps, and one
    an instant earlier still at 40."""
    assert _upload_s(1.0, [40.0, 5.0]) == _upload_s(1.0, [5.0])
    assert _upload_s(0.999999, [40.0, 5.0]) == _upload_s(0.999999, [40.0])
    assert _upload_s(1.0, [40.0, 5.0]) != _upload_s(0.999999, [40.0, 5.0])
