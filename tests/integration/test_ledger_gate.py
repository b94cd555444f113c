"""The committed perf trajectory and the ledger entry that gates it."""

import json
from pathlib import Path

import pytest

from tests import frozen

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
#: every committed ``BENCH_<pr>.json`` (not the ``_pairs`` files)
PRS = sorted(int(p.stem[6:]) for p in ROOT.glob("BENCH_*.json")
             if p.stem[6:].isdigit())
FROZEN = frozen.load("ledger_sim_digests.json")


def bench(pr):
    return json.loads((ROOT / f"BENCH_{pr}.json").read_text())


def ledger():
    """A ledger that reproduces the frozen digests."""
    return {"provenance": {"seed": 0},
            "runs": [{"workload": name, "trace": 0, "correct": True,
                      "detail": {"sim_digest": digest}}
                     for name, digest in FROZEN.items()]}


@pytest.mark.parametrize("pr", PRS)
def test_bench_files_hold_the_contract_metrics_for_every_workload(pr):
    workloads = bench(pr)["workloads"]
    assert list(workloads) == [w["name"] for w in CONTRACT["workloads"]]
    for row in workloads.values():
        assert set(row) == {m["name"] for m in CONTRACT["end_to_end"]} \
            | {"sim_digest"}


def test_simulated_results_did_not_move_between_the_two_points():
    """A simulator speed-up leaves every simulated statistic identical:
    every trajectory point holds the seed-0 digests the ledger entry
    freezes."""
    for pr in PRS:
        digests = {name: row["sim_digest"]
                   for name, row in bench(pr)["workloads"].items()}
        assert bench(pr)["seed"] == 0 and digests == FROZEN


def test_gate_passes_a_matching_ledger_and_names_what_differs(monkeypatch):
    assert frozen.sim_digests(ledger()) == FROZEN
    moved, failed, reseeded, traced = ledger(), ledger(), ledger(), ledger()
    moved["runs"][1]["detail"]["sim_digest"] = "0" * 64
    monkeypatch.setitem(frozen.FROZEN, "ledger_sim_digests", (
        "ledger_sim_digests.json", lambda: frozen.sim_digests(moved)))
    assert frozen.moved("ledger_sim_digests") == [moved["runs"][1]["workload"]]
    failed["runs"][0]["correct"] = False
    with pytest.raises(ValueError, match="correctness"):
        frozen.sim_digests(failed)
    reseeded["provenance"]["seed"] = 7
    with pytest.raises(ValueError, match="seed"):
        frozen.sim_digests(reseeded)
    # a traced run digests one input set, not three: only `correct` counts
    traced["runs"][2].update(trace=1, detail={"sim_digest": "1" * 64})
    assert traced["runs"][2]["workload"] not in frozen.sim_digests(traced)
