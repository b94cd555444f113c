"""CLI figure runner."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main


class TestCLI:
    def test_list(self, capsys):
        from repro.eval.figures import FIGURES
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert all(f"  {name} " in out for name in FIGURES)

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "available figures" in capsys.readouterr().out

    def test_fig19_runs(self, capsys):
        assert main(["fig19"]) == 0
        out = capsys.readouterr().out
        assert "supernet reconfig" in out

    def test_vit_runs(self, capsys):
        assert main(["vit"]) == 0
        assert "patch-par" in capsys.readouterr().out

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_list_names_every_scenario_and_its_variants(self, capsys):
        from repro.eval import SCENARIOS
        assert main(["list"]) == 0
        section = capsys.readouterr().out.split("scenarios", 1)[1]
        for name, spec in SCENARIOS.items():
            assert f"  {name} " in section
            assert ", ".join(spec.variants) in section

    def test_nonpositive_requests_errors_cleanly(self, capsys):
        """A request count <= 0 must die with a usage error, not a
        traceback."""
        for argv in (["telemetry", "--requests", "0"],
                     ["run", "chaos", "--set", "num_requests=-1"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "requests must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, listed", [
        (["run", "bogus"], "mesh_chaos"),
        (["run", "chaos", "--variants", "nope"], "no-failover"),
        (["run", "chaos", "--set", "requests=5"], "num_requests"),
        (["run", "chaos", "--set", "num_requests"], "FIELD=VALUE"),
        (["run", "chaos", "--set", "num_requests=many"], "int"),
        (["run", "adaptive", "--set", "burst_window=2;4"], "burst_window"),
        (["run", "chaos", "--set", "decision_time_s=never"], "float"),
        (["run", "multi_tenant", "--set", "fluid=true"], "no field 'fluid'"),
        (["run", "mesh_chaos", "--set", "topology=star"], "ring"),
        (["run", "chaos", "--timelines"], "--record"),
        (["run", "event_core", "--timelines", "--record", "x.jsonl"],
         "this scenario has none"),
        (["run", "event_core", "--set", "trace_period_s=nan"],
         "positive and finite"),
        (["run", "event_core", "--set", "ingress_trace_mbps=40,nan,40"],
         "ingress_trace_mbps[1] must be positive"),
        (["run", "multi_tenant", "--set",
          'tenants=[{"name": "a", "rate_hz": Infinity}]'], "rate_hz"),
        (["run", "multi_tenant", "--set",
          'tenants=[{"name": "a", "rate_hz": 4, "weight": NaN}]'], "weight"),
        (["run", "mesh_chaos", "--set", "bandwidth_mbps=inf"],
         "bandwidth_mbps must be positive and finite"),
        (["run", "mesh_chaos", "--set", "delay_ms=inf"], "delay_ms"),
        (["run", "multi_tenant", "--set", "ingress_delay_ms=inf"],
         "delay_ms must be finite"),
        (["run", "event_core", "--set", "ingress_delay_ms=inf"],
         "delay_ms must be finite"),
    ])
    def test_bad_run_input_is_a_usage_error(self, capsys, argv, listed):
        """Unknown scenario/variant/field or an unparsable value exits
        with code 2 and names what is valid — never a traceback."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert listed in capsys.readouterr().err

    @pytest.mark.parametrize("setting, named", [
        ("slo_ms=nan", "ServingLoadConfig.slo_ms must be positive and finite"),
        ("slo_ms=inf", "ServingLoadConfig.slo_ms must be positive and finite"),
        ("decision_time_s=nan", "decision_time_s must be finite"),
        ("decision_time_s=-1", "decision_time_s must be finite"),
        ("max_wait_s=nan", "max_wait_s must be finite"),
        ("max_wait_s=inf", "max_wait_s must be finite"),
    ])
    def test_a_hostile_slo_or_pinned_time_fails_before_serving(
            self, capsys, setting, named):
        """Regression: ``slo_ms=inf`` died with an ``OverflowError``
        traceback, ``slo_ms=nan`` and ``decision_time_s=-1`` mid-run, and
        ``decision_time_s=nan`` "succeeded" with NaN latencies; a NaN
        fill timeout served as if it were 0, an infinite one overflowed."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "serving_load", "--set", setting])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert named in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv, named", [
        (["run", "serving_load", "--record", "{tmp}/no/x.jsonl"], "--record"),
        (["run", "serving_load", "--record", "{tmp}"], "Is a directory"),
        (["run", "serving_load", "--set", "decision_time_s=-1", "--record",
          "{tmp}/new.jsonl"], "decision_time_s"),
        (["telemetry", "--out", "{tmp}/no/t.jsonl"], "--out"),
        (["telemetry", "--out", "{tmp}/t.jsonl", "--prom", "{tmp}"], "--prom"),
        (["telemetry", "--out", "{tmp}/t.jsonl", "--rate", "0"],
         "arrival_rate_hz"),
        (["telemetry", "--out", "{tmp}/t.jsonl", "--rate", "nan"],
         "arrival_rate_hz"),
        (["telemetry", "--out", "{tmp}/t.jsonl", "--slo-ms", "nan"],
         "latency SLO"),
    ])
    def test_a_bad_output_path_or_value_fails_before_serving(
            self, capsys, monkeypatch, tmp_path, argv, named):
        """Regression: each died with a traceback, a bad path only after
        every variant had been served.  None leaves a file behind."""
        from repro.eval import runner
        from repro.runtime import InferenceServer

        def served(*args, **kwargs):
            raise AssertionError("served before the usage error")

        monkeypatch.setattr(runner, "run_world", served)
        monkeypatch.setattr(InferenceServer, "run", served)
        with pytest.raises(SystemExit) as exc:
            main([arg.format(tmp=tmp_path) for arg in argv])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_run_set_parses_tuples_optionals_and_variants(self, capsys):
        assert main(["run", "adaptive", "--set", "num_requests=12",
                     "--set", "burst_window=1,2", "--set",
                     "decision_time_s=0.02", "--variants", "static"]) == 0
        out = capsys.readouterr().out
        assert "static" in out and "controlled" not in out

    def test_unpinned_recording_warns_it_is_not_byte_stable(self, capsys,
                                                            tmp_path):
        assert main(["run", "chaos", "--set", "num_requests=6", "--set",
                     "decision_time_s=none", "--variants", "murmuration",
                     "--record", str(tmp_path / "run.jsonl")]) == 0
        assert "not byte-stable" in capsys.readouterr().out

    def test_run_json_is_canonical_and_deterministic(self, capsys):
        argv = ["run", "multi_tenant", "--set", "num_requests=16", "--set",
                "ingress_bw_mbps=25", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["config"]["ingress_bw_mbps"] == 25.0
        assert set(payload["variants"]) == {"fifo", "admission", "fair"}
        assert "worst" in payload["variants"]["fair"]

    def test_telemetry_runs_and_exports(self, capsys, tmp_path):
        out = tmp_path / "telemetry.jsonl"
        prom = tmp_path / "metrics.prom"
        assert main(["telemetry", "--requests", "8", "--out", str(out),
                     "--prom", str(prom)]) == 0
        stdout = capsys.readouterr().out
        assert "== telemetry report ==" in stdout
        assert "-- timelines" in stdout
        assert "wrote" in stdout
        # JSONL: every line parses; both record types present
        records = [json.loads(line)
                   for line in out.read_text().strip().split("\n")]
        kinds = {r["record"] for r in records}
        assert kinds == {"metric", "timeline"}
        assert sum(r["record"] == "timeline" for r in records) == 8
        # Prometheus text parses line-by-line (checked in detail in
        # tests/telemetry/test_export.py); spot-check a known sample
        assert "server_requests_total 8" in prom.read_text()

    def test_record_then_replay(self, capsys, tmp_path):
        out = tmp_path / "run.jsonl"
        assert main(["run", "serving_load", "--set", "num_requests=6",
                     "--set", "seed=3", "--record", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "wrote" in stdout and "3 runs" in stdout
        records = [json.loads(line)
                   for line in out.read_text().strip().split("\n")]
        assert sum(r["record"] == "run-header" for r in records) == 3
        assert sum(r["record"] == "request" for r in records) == 18

        assert main(["replay", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "serving_load/fifo" in stdout
        assert "batched-serial" in stdout
        assert "invariants ok across 3 runs" in stdout

    def test_record_is_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert main(["run", "serving_load", "--set", "num_requests=5",
                         "--record", str(path)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_replay_verify_round_trips(self, capsys, tmp_path):
        out = tmp_path / "run.jsonl"
        assert main(["run", "serving_load", "--set", "num_requests=5",
                     "--timelines", "--record", str(out)]) == 0
        assert main(["replay", str(out), "--verify"]) == 0
        stdout = capsys.readouterr().out
        assert "verified: live re-runs match all 3 recorded runs" in stdout

    def test_replay_verify_catches_non_stats_drift(self, tmp_path):
        """--verify diffs bytes, so a doctored *decision* record (which
        replay_stats never reads) fails it."""
        out = tmp_path / "run.jsonl"
        assert main(["run", "chaos", "--set", "num_requests=6",
                     "--variants", "static", "--record", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        k = next(i for i, line in enumerate(lines)
                 if json.loads(line)["record"] == "decision")
        rec = json.loads(lines[k])
        rec["t"] += 0.5
        lines[k] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        out.write_text("\n".join(lines) + "\n")
        assert main(["replay", str(out)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["replay", str(out), "--verify"])
        assert "not byte-identical" in str(exc.value)

    def test_replay_prints_a_table_for_every_scenario(self, capsys,
                                                      tmp_path):
        out = tmp_path / "run.jsonl"
        assert main(["run", "event_core", "--set", "num_requests=8",
                     "--record", str(out)]) == 0
        capsys.readouterr()
        assert main(["replay", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "event_core/boundary" in stdout
        assert "caps-upd" in stdout  # the scenario's own table

    def test_replay_rejects_corrupt_recording(self, capsys, tmp_path):
        out = tmp_path / "run.jsonl"
        assert main(["run", "serving_load", "--set", "num_requests=5",
                     "--record", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        doctored = []
        for line in lines:
            rec = json.loads(line)
            if rec["record"] == "request" and rec["id"] == 2:
                rec["finish"] = rec["start"] - 1.0
            doctored.append(json.dumps(rec))
        out.write_text("\n".join(doctored) + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["replay", str(out)])
        assert "invariants" in str(exc.value)

    def test_replay_missing_file_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["replay", str(tmp_path / "nope.jsonl")])


def test_the_program_imports_no_graph_or_plotting_library():
    """Starting up is most of a one-shot run: ``networkx`` alone was a
    quarter of the import time and a third of the memory, for three
    calls on graphs of under ten nodes.  (``runtime/predictor.py``
    imports ``scipy`` inside the one function that fits with it.)"""
    heavy = ("networkx", "scipy", "matplotlib")
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; import repro, repro.cli, repro.netsim.mesh; "
         f"print([m for m in {heavy!r} if m in sys.modules])"],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(repro.__file__).parents[1]),
             os.environ.get("PYTHONPATH", "")])})
    assert out.stdout.strip() == "[]"
