"""Adaptive control: closed-loop serving vs a static configuration.

The adaptive scenario (``repro.eval.adaptive``) pushes one seeded
request stream — a sustainable baseline rate with a hard overload burst
in the middle, over a drifting mobility trace — through the batched
pipeline twice, identical in everything but the ``control=`` parameter:

* **static** — construction-time cache granularity and batch policy,
  every request admitted;
* **controlled** — the four-controller :class:`~repro.control.ControlLoop`:
  cache-granularity retuning, batch-policy adaptation, SLO-aware
  admission (shed/degrade), drift-directed precompute.

The headline claims this benchmark pins down:

1. the controlled run achieves strictly higher *end-to-end* SLO
   compliance than the static configuration under the burst (queueing
   counted, sheds counted against);
2. the win comes from doing triage, not from refusing work: the
   controlled run both sheds and degrades, and every submitted request
   is accounted for (shed + completed + failed == submitted);
3. decision cost is pinned (``decision_time_s``), so the whole
   comparison is a pure function of its seeds — same config, same
   numbers, bit for bit.

Also runnable as a script::

    PYTHONPATH=src python benchmarks/bench_adaptive_control.py [--smoke]
"""

import argparse
import sys

import pytest

from repro.eval import AdaptiveConfig, format_reports, run_scenario

_CFG = AdaptiveConfig()
_SMOKE_CFG = AdaptiveConfig(num_requests=80, trace_steps=60,
                            burst_window=(2.0, 4.0))


@pytest.fixture(scope="module")
def reports():
    return run_scenario("adaptive", _CFG)


@pytest.mark.benchmark(group="control")
def test_controlled_beats_static_on_e2e_compliance(reports):
    """The acceptance headline: strictly higher compliance under burst."""
    assert (reports["controlled"].e2e_compliance
            > reports["static"].e2e_compliance)


@pytest.mark.benchmark(group="control")
def test_controlled_tail_latency_improves(reports):
    assert (reports["controlled"].stats.percentile_ms(95)
            < reports["static"].stats.percentile_ms(95))


@pytest.mark.benchmark(group="control")
def test_control_actually_acted(reports):
    """The win must come from the loop, not from luck: ticks fired,
    admission triaged, and the static run was untouched."""
    control = reports["controlled"].control
    assert control is not None and control.ticks > 0
    assert reports["controlled"].shed > 0
    assert reports["controlled"].degraded > 0
    assert reports["static"].control is None
    assert reports["static"].shed == 0
    assert reports["static"].degraded == 0


@pytest.mark.benchmark(group="control")
def test_shed_accounting_conserves_requests(reports):
    """shed + completed + failed == submitted, for both variants."""
    for rep in reports.values():
        counts = rep.stats.outcome_counts()
        completed = sum(v for k, v in counts.items()
                        if k not in ("failed", "shed"))
        total = completed + counts["failed"] + counts.get("shed", 0)
        assert total == len(rep.stats.records) == _CFG.num_requests


@pytest.mark.benchmark(group="control")
def test_adaptive_is_reproducible():
    """Same config, same records — bit for bit, controllers included.

    Decision cost is pinned and the control loop runs on the simulated
    clock, so even the controlled variant is a pure function of seeds.
    """
    a = run_scenario("adaptive", _SMOKE_CFG)
    b = run_scenario("adaptive", _SMOKE_CFG)
    for name in a:
        ra, rb = a[name].stats.records, b[name].stats.records
        assert len(ra) == len(rb)
        assert ra == rb
    ca, cb = a["controlled"].control, b["controlled"].control
    assert ca.ticks == cb.ticks
    assert [(x.t, x.controller, x.description) for x in ca.actions] \
        == [(x.t, x.controller, x.description) for x in cb.actions]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Adaptive-control benchmark: static vs controlled "
                    "serving under an overload burst.")
    parser.add_argument("--smoke", action="store_true",
                        help="small smoke configuration (CI)")
    parser.add_argument("--requests", type=int, default=None,
                        help="override request count")
    args = parser.parse_args(argv)
    cfg = _SMOKE_CFG if args.smoke else _CFG
    if args.requests is not None:
        from dataclasses import replace
        cfg = replace(cfg, num_requests=args.requests)
    reports = run_scenario("adaptive", cfg)
    print(format_reports(reports))
    static, controlled = reports["static"], reports["controlled"]
    ok = controlled.e2e_compliance > static.e2e_compliance
    print(f"\ne2e compliance: static {static.e2e_compliance:.0%} -> "
          f"controlled {controlled.e2e_compliance:.0%} "
          f"(shed {controlled.shed}, degraded {controlled.degraded}) "
          f"({'PASS' if ok else 'FAIL'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
