"""Fault recovery: SLO compliance and recovery time under crash-and-recover.

The chaos scenario (``repro.eval.chaos``) serves one seeded Poisson
request stream through three runtimes while two remote devices crash and
recover (with an overlapping outage where only the gateway survives) and
a link collapses after recovery:

* **murmuration** — adaptive decisions + retry/failover + circuit
  breaker + graceful degradation;
* **static** — one fixed strategy with the same data-plane resilience;
* **no-failover** — the ablation: adaptive, but requests touching a
  dead device fail.

The headline claims this benchmark pins down:

1. the resilient runtime completes **every** request — some degraded to
   the smallest gateway submodel, none failed;
2. the no-failover ablation *fails* requests outright;
3. adaptation beats the static strategy on SLO compliance once the
   post-recovery link degradation bites;
4. the whole trace is reproducible from its seeds — same config, same
   numbers, bit for bit.

Also runnable as a script::

    PYTHONPATH=src python benchmarks/bench_fault_recovery.py [--quick]
"""

import argparse
import sys

import pytest

from repro.eval import ChaosConfig, format_reports, run_scenario

_CFG = ChaosConfig()
_QUICK_CFG = ChaosConfig(num_requests=24, gpu_crash=(1.0, 3.0),
                         jetson_crash=(1.5, 3.0),
                         degrade_window=(3.5, 5.0))


@pytest.fixture(scope="module")
def reports():
    return run_scenario("chaos", _CFG)


@pytest.mark.benchmark(group="faults")
def test_resilient_runtime_completes_every_request(reports):
    rep = reports["murmuration"]
    assert rep.completion == 1.0
    assert rep.outcomes["failed"] == 0
    # the double-outage window forces gateway degradation at least once
    assert rep.outcomes["degraded"] > 0
    # failures were discovered the honest way: paid retries + failovers
    assert rep.retries > 0 and rep.failovers > 0


@pytest.mark.benchmark(group="faults")
def test_no_failover_ablation_fails_requests(reports):
    rep = reports["no-failover"]
    assert rep.outcomes["failed"] > 0
    assert rep.completion < 1.0
    assert rep.compliance < reports["murmuration"].compliance


@pytest.mark.benchmark(group="faults")
def test_adaptation_beats_static_strategy(reports):
    assert (reports["murmuration"].compliance
            > reports["static"].compliance)


@pytest.mark.benchmark(group="faults")
def test_runtime_recovers_after_faults_clear(reports):
    rep = reports["murmuration"]
    assert rep.recovery_s is not None
    # a clean, SLO-satisfied request lands within a second of recovery
    assert rep.recovery_s < 1.0


@pytest.mark.benchmark(group="faults")
def test_chaos_trace_is_reproducible():
    """Same config, same records — bit for bit.

    Decision cost is pinned by default (``ChaosConfig.decision_time_s``),
    so like the serving-load benchmark the comparison is exact down to
    absolute timestamps, not just the simulated fields.
    """
    a = run_scenario("chaos", _QUICK_CFG)["murmuration"]
    b = run_scenario("chaos", _QUICK_CFG)["murmuration"]
    assert len(a.stats.records) == len(b.stats.records)
    assert a.stats.records == b.stats.records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Chaos benchmark: crash-and-recover serving.")
    parser.add_argument("--quick", action="store_true",
                        help="small smoke configuration (CI)")
    parser.add_argument("--requests", type=int, default=None,
                        help="override request count")
    args = parser.parse_args(argv)
    cfg = _QUICK_CFG if args.quick else _CFG
    if args.requests is not None:
        from dataclasses import replace
        cfg = replace(cfg, num_requests=args.requests)
    reports = run_scenario("chaos", cfg)
    print(format_reports(reports))
    rep = reports["murmuration"]
    ok = rep.completion == 1.0
    print(f"\nresilient completion: {rep.completion:.0%} "
          f"({'PASS' if ok else 'FAIL'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
