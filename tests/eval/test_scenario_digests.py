"""Frozen byte digests of every scenario's recording stream.

``tests/fixtures/scenario_digests.json`` holds the sha256 of the
``write_recordings`` byte stream of each ``repro.eval`` scenario — all
variants in their native order, default seeds, ``num_requests=14`` —
plain and with a ``Telemetry()`` on the instrumented variant
(timelines land in the stream).
The file was generated *before* the six scenario modules were folded
into one runner and must keep passing untouched: any float, key or
ordering drift in any scenario changes a digest.
"""

import io
from dataclasses import replace

import pytest

from repro.eval import SCENARIOS, run_scenario
from repro.telemetry import Telemetry, write_recordings
from tests.frozen import sha256

#: scenario -> the modes its recording is frozen in
MODES = {"adaptive": ("plain", "telemetry"), "chaos": ("plain", "telemetry"),
         "event_core": ("plain",), "mesh_chaos": ("plain", "telemetry"),
         "multi_tenant": ("plain", "telemetry"),
         "serving_load": ("plain", "telemetry")}


def digest(scenario, mode):
    """``mode`` is "plain" or "telemetry"."""
    cfg = replace(SCENARIOS[scenario].config(), num_requests=14)
    reports = run_scenario(
        scenario, cfg, record=True,
        telemetry=Telemetry() if mode == "telemetry" else None)
    buf = io.StringIO()
    write_recordings(buf, [rep.recorder for rep in reports.values()])
    return sha256(buf.getvalue())


def fixture_content():
    return {s: {m: digest(s, m) for m in modes} for s, modes in MODES.items()}


def test_every_scenario_is_frozen():
    assert set(MODES) == set(SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_recording_bytes_match_the_frozen_digests(moved, scenario):
    assert scenario not in moved("scenario_digests")
