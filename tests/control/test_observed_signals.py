"""What a tick observes is what the deployment itself could observe.

Two laws over real scenario runs:

* a tick's ``window`` is the report over the records finished since the
  previous tick — joined in order, the windows are exactly the records
  finished by the last tick, each once;
* a snapshot carries the monitor's own smoothed estimate, so attaching a
  telemetry hub (whose histograms compare the estimate against the true
  link) changes no snapshot and no record.
"""

import pytest

from repro.control import Controller
from repro.eval.adaptive import AdaptiveConfig
from repro.eval.multi_tenant import MultiTenantConfig
from repro.eval.runner import build_world, run_world
from repro.telemetry import Telemetry

_ADAPTIVE = AdaptiveConfig(num_requests=80, trace_steps=60,
                           burst_window=(2.0, 4.0))
_MULTI_TENANT = MultiTenantConfig(num_requests=80, trace_steps=60)


class _Spy(Controller):
    """Keeps every snapshot, and how many records the loop's report held
    when it was taken."""

    name = "spy"

    def __init__(self):
        self.snapshots = []
        self.finished = []

    def update(self, snapshot, loop):
        self.snapshots.append(snapshot)
        self.finished.append(len(loop._stats.records))
        return None


def _run(scenario, cfg, variant, telemetry=None):
    world = build_world(scenario, cfg, variant, telemetry=telemetry)
    spy = _Spy()
    world.control.controllers.append(spy)
    return run_world(world), spy


@pytest.mark.parametrize("scenario, cfg, variant", [
    ("adaptive", _ADAPTIVE, "controlled"),
    ("multi_tenant", _MULTI_TENANT, "admission"),
    ("multi_tenant", _MULTI_TENANT, "fair"),
])
def test_successive_windows_join_to_the_records_finished_by_each_tick(
        scenario, cfg, variant):
    report, spy = _run(scenario, cfg, variant)
    assert len(spy.snapshots) > 1
    joined = []
    for snap, finished in zip(spy.snapshots, spy.finished):
        joined.extend(snap.window.records)
        assert len(joined) == finished
    records = report.stats.records
    assert len(records) >= len(joined) > 0
    assert all(a is b for a, b in zip(joined, records))


def test_a_snapshot_does_not_depend_on_telemetry():
    plain, spy_plain = _run("adaptive", _ADAPTIVE, "controlled")
    traced, spy_traced = _run("adaptive", _ADAPTIVE, "controlled",
                              telemetry=Telemetry())
    signal = [[(s.t, s.condition, s.queue_depth, s.slo_s,
                len(s.window.records))
               for s in spy.snapshots] for spy in (spy_plain, spy_traced)]
    assert signal[0] == signal[1]
    assert len({condition for _, condition, *_ in signal[0]}) > 1
    assert plain.stats.records == traced.stats.records
