"""Frozen digests of the metrics registry after instrumented runs.

``scenario_digests.json`` and the golden recordings pin every recording
byte; this file pins what they do not — the *registry contents* when a
``Telemetry()`` is attached.  ``tests/fixtures/
telemetry_snapshot_digests.json`` holds the sha256 of the sorted
``(name, labels, kind, value | count, sum, min, max)`` dump of the hub's
registry for

* every registered scenario's instrumented variant (``event_core``
  declares none, so its ``event`` variant is handed the hub directly),
  ``num_requests=14``, default seed, pinned decision time;
* one executable-mode facade run under a crash + loss schedule, which
  reaches the ``transport_*``, ``executor_*``, ``health_*`` and
  ``faults_*`` families no scenario does.

Only simulated-clock quantities enter the dump: the wall-clock
histograms named in ``WALL_CLOCK`` are skipped.  The file was generated
*before* the optional subsystems were given null forms and must keep
passing untouched: a family, label set or value that telemetry-on used
to export and no longer does changes a digest.
"""

import json
from dataclasses import replace

import pytest

from repro.core import SLO, Murmuration
from repro.devices import desktop_gtx1080, jetson_class, rpi4
from repro.eval import SCENARIOS, build_world, run_world
from repro.faults import (DeviceCrash, FaultInjector, FaultSchedule,
                          MessageLoss)
from repro.nas import Supernet
from repro.netsim import NetworkCondition
from repro.telemetry import Telemetry
from tests.core import test_infer_parity as parity
from tests.frozen import sha256

#: measured on the host, so never byte-stable
WALL_CLOCK = {"executor_segment_compute_wall_s"}

#: run -> the modes its registry is frozen in
MODES = {"adaptive": ("telemetry",), "chaos": ("telemetry",),
         "event_core": ("telemetry",), "facade_exec_faults": ("telemetry",),
         "mesh_chaos": ("telemetry",), "serving_load": ("telemetry",),
         "multi_tenant": ("telemetry",)}


def registry_digest(registry) -> str:
    rows = []
    for m in registry.collect():
        if m.name in WALL_CLOCK:
            continue
        value = ([m.count, m.sum, m.min, m.max] if m.kind == "histogram"
                 else m.value)
        rows.append([m.name, list(m.labels), m.kind, value])
    return sha256(json.dumps(rows))


def scenario_digest(scenario: str) -> str:
    spec = SCENARIOS[scenario]
    cfg = replace(spec.config(), num_requests=14)
    tel = Telemetry()
    run_world(build_world(scenario, cfg, spec.instrumented or "event",
                          telemetry=tel))
    return registry_digest(tel.registry)


def facade_digest() -> str:
    """Executable facade under overlapping crashes and lossy links:
    twelve single requests, then two batches of three."""
    tel = Telemetry()
    devices = [rpi4(), desktop_gtx1080(), jetson_class()]
    condition = NetworkCondition((300.0, 150.0), (10.0, 20.0))
    schedule = FaultSchedule([DeviceCrash(0.05, 0.4, device=1),
                              DeviceCrash(0.0, 0.3, device=2),
                              MessageLoss(0.0, 1e9, prob=0.15)])
    system = Murmuration(
        parity._TINY, devices, condition,
        parity._SplitEngine(devices, condition),
        slo=SLO.latency_ms(100.0),
        supernet=Supernet(parity._TINY, seed=2).eval(),
        use_predictor=False, monitor_noise=0.0, seed=3, telemetry=tel,
        faults=FaultInjector(schedule, seed=5, telemetry=tel))
    for i in range(12):
        system.infer(parity._input("exec", False, i), request_id=i,
                     tenant="a" if i % 2 else None)
    for b in range(2):
        ids = list(range(12 + 3 * b, 15 + 3 * b))
        system.infer_batch([parity._input("exec", False, i) for i in ids],
                           request_ids=ids)
    return registry_digest(tel.registry)


def fixture_content():
    return {s: {m: (facade_digest() if s == "facade_exec_faults"
                    else scenario_digest(s)) for m in modes}
            for s, modes in MODES.items()}


def test_every_scenario_is_frozen():
    assert set(MODES) == set(SCENARIOS) | {"facade_exec_faults"}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_registry_contents_match_the_frozen_digests(moved, scenario):
    assert scenario not in moved("telemetry_snapshot_digests")


def test_executable_facade_registry_matches_the_frozen_digest(moved):
    assert "facade_exec_faults" not in moved("telemetry_snapshot_digests")
