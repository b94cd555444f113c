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
from dataclasses import replace
from pathlib import Path

import pytest

from repro.eval import SCENARIOS, run_scenario
from repro.telemetry import Telemetry, write_recordings

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" \
    / "scenario_digests.json"
FROZEN = json.loads(FIXTURE.read_text())


def digest(scenario, mode):
    """``mode`` is "plain" or any "+"-join of "telemetry" and "fluid"."""
    cfg = replace(SCENARIOS[scenario].config(), num_requests=14)
    if "fluid" in mode:
        cfg = replace(cfg, fluid=True)
    reports = run_scenario(
        scenario, cfg, record=True,
        telemetry=Telemetry() if "telemetry" in mode else None)
    buf = io.StringIO()
    write_recordings(buf, [rep.recorder for rep in reports.values()])
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_every_scenario_is_frozen():
    assert set(FROZEN) == set(SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_recording_bytes_match_the_frozen_digests(scenario):
    for mode, frozen in FROZEN[scenario].items():
        assert digest(scenario, mode) == frozen, f"{scenario}/{mode}"


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {s: {m: digest(s, m) for m in modes} for s, modes in FROZEN.items()},
        indent=2, sort_keys=True) + "\n")
