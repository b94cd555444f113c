"""Mesh chaos: resilient completion under link-level faults.

The mesh chaos scenario (``repro.eval.mesh_chaos``) serves one seeded
Poisson request stream over a multi-hop topology while the world loses
*paths*: a hard link failure on the gateway's primary edge, a
Gilbert–Elliott flap burst on the same edge, and a correlated relay
blast radius (a device plus its incident links, atomically).

The headline claims this benchmark pins down:

1. with fault-aware routing + the failover ladder, the runtime completes
   **at least 95%** of requests (in practice all of them) — transfers
   transparently fail over to surviving paths, paying honest latency;
2. the no-reroute ablation (static routing tables, no failover)
   completes **under 70%** on the identical world;
3. on the line topology — where no alternative path exists — resilience
   comes from graceful degradation instead of rerouting;
4. the whole trace is seed-reproducible and records byte-stably through
   the recorder (``record`` -> ``rerecord`` is an exact byte match).

Also runnable as a script::

    PYTHONPATH=src python benchmarks/bench_mesh_chaos.py [--quick]
"""

import argparse
import io
import sys

import pytest

from repro.eval import MeshChaosConfig, format_reports, run_scenario
from repro.eval.replay import rerecord
from repro.telemetry.recorder import read_recordings, write_recordings

_CFG = MeshChaosConfig()
_QUICK_CFG = MeshChaosConfig(num_requests=24, link_fail_window=(1.0, 4.0),
                             flap_window=(4.5, 6.0), blast_window=(6.5, 8.0))
_LINE_CFG = MeshChaosConfig(topology="line")


@pytest.fixture(scope="module")
def reports():
    return run_scenario("mesh_chaos", _CFG)


@pytest.mark.benchmark(group="faults")
def test_rerouting_completes_95_percent(reports):
    rep = reports["murmuration"]
    assert rep.completion >= 0.95
    # the primary-edge outages forced traffic onto backup paths
    assert rep.reroutes > 0


@pytest.mark.benchmark(group="faults")
def test_no_reroute_ablation_under_70_percent(reports):
    rep = reports["no-reroute"]
    assert rep.completion < 0.70
    assert rep.outcomes["failed"] > 0
    assert rep.reroutes == 0


@pytest.mark.benchmark(group="faults")
def test_pure_routing_carries_the_ring(reports):
    """On the ring, rerouting alone (failover disabled) already completes
    everything the full ladder does — the placement never has to move."""
    assert (reports["no-failover"].completion
            == reports["murmuration"].completion)


@pytest.mark.benchmark(group="faults")
def test_line_topology_survives_via_degradation():
    """No alternative path on a line: the same outage must be absorbed
    by the failover/degradation ladder instead of the routing layer."""
    reports = run_scenario("mesh_chaos", _LINE_CFG)
    rep = reports["murmuration"]
    assert rep.completion >= 0.95
    assert rep.outcomes["degraded"] > 0
    assert reports["no-reroute"].completion < 0.70


@pytest.mark.benchmark(group="faults")
def test_mesh_chaos_trace_is_reproducible():
    """Same config, same records — bit for bit (pinned decision cost)."""
    a = run_scenario("mesh_chaos", _QUICK_CFG)["murmuration"]
    b = run_scenario("mesh_chaos", _QUICK_CFG)["murmuration"]
    assert len(a.stats.records) == len(b.stats.records)
    assert a.stats.records == b.stats.records


@pytest.mark.benchmark(group="faults")
def test_mesh_chaos_records_byte_stably():
    """record -> rerecord round-trips to the identical byte stream."""
    rep = run_scenario("mesh_chaos", _QUICK_CFG, record=True)["murmuration"]
    buf1 = io.StringIO()
    write_recordings(buf1, [rep.recorder.recording()])
    rec = read_recordings(io.StringIO(buf1.getvalue()))[0]
    fresh = rerecord(rec)
    buf2 = io.StringIO()
    write_recordings(buf2, [fresh.recording()])
    assert buf1.getvalue() == buf2.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Mesh chaos benchmark: link-level fault serving.")
    parser.add_argument("--quick", action="store_true",
                        help="small smoke configuration (CI)")
    parser.add_argument("--topology", choices=("ring", "line", "mesh"),
                        default=None, help="override topology")
    parser.add_argument("--requests", type=int, default=None,
                        help="override request count")
    args = parser.parse_args(argv)
    cfg = _QUICK_CFG if args.quick else _CFG
    if args.topology is not None or args.requests is not None:
        from dataclasses import replace
        if args.topology is not None:
            cfg = replace(cfg, topology=args.topology)
        if args.requests is not None:
            cfg = replace(cfg, num_requests=args.requests)
    reports = run_scenario("mesh_chaos", cfg)
    print(format_reports(reports))
    rep = reports["murmuration"]
    abl = reports["no-reroute"]
    ok = rep.completion >= 0.95 and abl.completion < 0.70
    print(f"\nresilient completion: {rep.completion:.0%} vs "
          f"no-reroute {abl.completion:.0%} ({'PASS' if ok else 'FAIL'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
