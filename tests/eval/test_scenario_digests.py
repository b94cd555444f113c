"""Frozen byte digests of every scenario's recording stream.

``tests/fixtures/scenario_digests.json`` holds the sha256 of the
``write_recordings`` byte stream of each ``repro.eval`` scenario — all
variants in their native order, default seeds, ``num_requests=14`` —
plain, with a ``Telemetry()`` on the instrumented variant (timelines
land in the stream), and for ``multi_tenant`` with the fluid ingress.
The file was generated *before* the six scenario modules were folded
into one runner and must keep passing untouched: any float, key or
ordering drift in any scenario changes a digest.

Regenerate (only after an *intentional* schema, clock or pricing
change) with::

    PYTHONPATH=src python tests/eval/test_scenario_digests.py
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.telemetry import Telemetry, write_recordings

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" \
    / "scenario_digests.json"

#: scenario -> modes; "telemetry" only where a variant is instrumented
MODES = {
    "serving_load": ("plain", "telemetry"),
    "chaos": ("plain", "telemetry"),
    "mesh_chaos": ("plain", "telemetry"),
    "adaptive": ("plain", "telemetry"),
    "multi_tenant": ("plain", "telemetry", "fluid", "fluid+telemetry"),
    "event_core": ("plain",),
}


def _reports(scenario, mode):
    tel = Telemetry() if "telemetry" in mode else None
    if scenario == "serving_load":
        from repro.eval.serving_load import (ServingLoadConfig,
                                             run_serving_load)
        return run_serving_load(ServingLoadConfig(num_requests=14),
                                telemetry=tel, record=True)
    if scenario == "chaos":
        from repro.eval.chaos import ChaosConfig, run_chaos
        return run_chaos(ChaosConfig(num_requests=14), telemetry=tel,
                         record=True)
    if scenario == "mesh_chaos":
        from repro.eval.mesh_chaos import MeshChaosConfig, run_mesh_chaos
        return run_mesh_chaos(MeshChaosConfig(num_requests=14),
                              telemetry=tel, record=True)
    if scenario == "adaptive":
        from repro.eval.adaptive import AdaptiveConfig, run_adaptive
        return run_adaptive(AdaptiveConfig(num_requests=14), telemetry=tel,
                            record=True)
    if scenario == "multi_tenant":
        from repro.eval.multi_tenant import (MultiTenantConfig,
                                             run_multi_tenant)
        return run_multi_tenant(
            MultiTenantConfig(num_requests=14, fluid="fluid" in mode),
            telemetry=tel, record=True)
    from repro.eval.event_core import EventCoreConfig, run_event_core
    return run_event_core(EventCoreConfig(num_requests=14), record=True)


def digest(scenario, mode):
    buf = io.StringIO()
    write_recordings(buf, [rep.recorder
                           for rep in _reports(scenario, mode).values()])
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("scenario", sorted(MODES))
def test_recording_bytes_match_the_frozen_digests(scenario):
    frozen = json.loads(FIXTURE.read_text())[scenario]
    assert set(frozen) == set(MODES[scenario])
    for mode in MODES[scenario]:
        assert digest(scenario, mode) == frozen[mode], f"{scenario}/{mode}"


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {s: {m: digest(s, m) for m in modes} for s, modes in MODES.items()},
        indent=2, sort_keys=True) + "\n")
