"""``python -m benchmarks.pairs``: folding paired ledger runs.

The fold and the pairing order are checked on canned worker reports and
spawn no process.  One ``slow`` test runs the command for real, HEAD
against itself, on one short ``strategy_eval`` pair.
"""

import json
import subprocess
from pathlib import Path

import pytest

from benchmarks import pairs

ROOT = Path(pairs.__file__).resolve().parents[1]


def side(ops, digest="d0", correct=True, rss=40.0, p95=868.3):
    return {"correct": correct, "sim_digest": digest,
            "metrics": {"ops_per_s": ops, "peak_rss_mb": rss,
                        "setup_s": 0.07, "sim_e2e_compliance": 0.5,
                        "sim_p95_ms": p95, "ok_share": 1.0}}


def canned(ops_parent, ops_change):
    return {"strategy_eval": [
        {"seed": 10 + i, "first": "parent" if i % 2 == 0 else "change",
         "parent": side(a), "change": side(b)}
        for i, (a, b) in enumerate(zip(ops_parent, ops_change))]}


def test_parse_seeds():
    assert pairs.parse_seeds("5-8") == [5, 6, 7, 8]
    assert pairs.parse_seeds("3") == [3]


def test_the_fold_reports_medians_quartiles_ratio_and_wins():
    summary, problems = pairs.fold(canned([100, 110, 90, 105, 95],
                                          [120, 100, 108, 130, 121]))
    assert problems == []
    row = summary["strategy_eval"]["ops_per_s"]
    assert (row["parent_median"], row["change_median"]) == (100, 120)
    assert row["parent_quartiles"] == [95, 105]
    assert row["change_quartiles"] == [108, 121]
    assert row["ratio"] == 1.2
    assert (row["change_wins"], row["pairs"]) == (4, 5)
    assert row["better"] == "higher"
    # lower is better: equal values win nothing
    rss = summary["strategy_eval"]["peak_rss_mb"]
    assert (rss["ratio"], rss["change_wins"]) == (1.0, 0)
    assert summary["strategy_eval"]["sim_metrics_equal"] is True
    assert set(summary["strategy_eval"]) == {"sim_metrics_equal",
                                             *pairs.better_directions()}


def test_one_pair_has_degenerate_quartiles():
    summary, _ = pairs.fold(canned([100], [90]))
    row = summary["strategy_eval"]["ops_per_s"]
    assert row["parent_quartiles"] == [100, 100]
    assert (row["ratio"], row["change_wins"]) == (0.9, 0)


def test_a_digest_mismatch_or_an_incorrect_run_is_a_problem():
    runs = canned([100, 100, 100], [101, 101, 101])
    runs["strategy_eval"][1]["change"] = side(101, digest="d1", p95=900.0)
    runs["strategy_eval"][2]["parent"] = side(100, correct=False)
    summary, problems = pairs.fold(runs)
    assert problems == [
        "strategy_eval seed 11: sim_digest differs (parent d0, change d1)",
        "strategy_eval seed 12: the parent run is not correct"]
    assert summary["strategy_eval"]["sim_metrics_equal"] is False


def test_pairs_alternate_which_side_runs_first():
    calls = []

    def run(name, tree, workload, seed, seconds):
        calls.append((name, tree, workload, seed, seconds))
        return side(1.0)

    trees = {"parent": Path("p"), "change": Path("c")}
    got = pairs.collect(trees, ["drift_miss", "fluid_ring"], [7, 8, 9], 2,
                        run=run)
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent",
                                     "parent", "change"] * 2
    assert all(trees[c[0]] == c[1] and c[4] == 2 for c in calls)
    assert [(c[2], c[3]) for c in calls[:6]] == [
        ("drift_miss", 7)] * 2 + [("drift_miss", 8)] * 2 + [
        ("drift_miss", 9)] * 2
    assert [p["first"] for p in got["fluid_ring"]] == [
        "parent", "change", "parent"]


@pytest.mark.slow
def test_head_against_itself(tmp_path, capsys):
    try:
        head = subprocess.run(["git", "rev-parse", "--verify", "HEAD"],
                              cwd=ROOT, capture_output=True).returncode == 0
    except OSError:
        head = False
    if not head:
        pytest.skip("needs a git checkout with a HEAD")
    out = tmp_path / "pairs.json"
    assert pairs.main(["--parent", "HEAD", "--workload", "strategy_eval",
                       "--pairs", "1", "--seconds", "1",
                       "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["commits"]["parent"] == report["commits"]["change"]
    assert report["problems"] == []
    (pair,) = report["pairs"]["strategy_eval"]
    assert pair["parent"]["sim_digest"] == pair["change"]["sim_digest"]
    assert report["summary"]["strategy_eval"]["sim_metrics_equal"]
