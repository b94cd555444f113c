"""The committed perf trajectory and the CI gate that reads it."""

import json
from pathlib import Path

import pytest

from benchmarks.ledger_gate import problems

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(pr):
    return json.loads((ROOT / f"BENCH_{pr}.json").read_text())


def ledger():
    """A ledger that reproduces BENCH_18.json, as the gate reads one."""
    frozen = bench(18)
    return {"provenance": {"seed": frozen["seed"]},
            "runs": [{"workload": name, "trace": 0, "correct": True,
                      "detail": {"sim_digest": row["sim_digest"]}}
                     for name, row in frozen["workloads"].items()]}


@pytest.mark.parametrize("pr", [12, 17, 18])
def test_bench_files_hold_the_contract_metrics_for_every_workload(pr):
    workloads = bench(pr)["workloads"]
    assert list(workloads) == [w["name"] for w in CONTRACT["workloads"]]
    for row in workloads.values():
        assert set(row) == {m["name"] for m in CONTRACT["end_to_end"]} \
            | {"sim_digest"}
        assert len(row["sim_digest"]) == 64


def test_simulated_results_did_not_move_between_the_two_points():
    """A simulator speed-up leaves every simulated statistic identical
    (by now three points: the baseline, the plan cost model, the fluid
    ledger)."""
    for name, row in bench(12)["workloads"].items():
        for pr in (17, 18):
            assert bench(pr)["workloads"][name]["sim_digest"] \
                == row["sim_digest"]


def test_gate_passes_a_matching_ledger_and_names_what_differs():
    assert problems(bench(18), ledger()) == []
    moved, failed, reseeded, traced = ledger(), ledger(), ledger(), ledger()
    moved["runs"][1]["detail"]["sim_digest"] = "0" * 64
    assert "sim_digest" in problems(bench(18), moved)[0]
    failed["runs"][0]["correct"] = False
    assert "correctness" in problems(bench(18), failed)[0]
    reseeded["provenance"]["seed"] = 7
    assert "seed" in problems(bench(18), reseeded)[0]
    # a traced run digests one input set, not three: only `correct` counts
    traced["runs"][2].update(trace=1, detail={"sim_digest": "1" * 64})
    assert problems(bench(18), traced) == []
