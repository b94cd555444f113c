"""Batched serving: throughput and tail latency vs the FIFO loop.

The serving-load scenario (``repro.eval.serving_load``) pushes one
seeded, saturating Poisson stream through three servers over the same
drifting network trace:

* **fifo** — the per-request loop: every cache-missing request pays its
  own decision on the critical path;
* **batched** — one amortized decision per batch, overlapped with the
  previous batch's execution;
* **batched-serial** — batching without overlap (the ablation that
  splits the win between amortization and pipelining).

The headline claims this benchmark pins down:

1. the batched pipeline beats FIFO on throughput under load, with no
   worse p95 end-to-end latency and no worse SLO compliance;
2. overlap contributes on top of amortization — the overlapped variant
   is at least as fast as the serial one and actually hides decision
   time;
3. decision cost is pinned (``decision_time_s``), so the whole
   comparison is a pure function of its seeds — same config, same
   numbers, bit for bit.

Also runnable as a script::

    PYTHONPATH=src python benchmarks/bench_batch_serving.py [--smoke]
"""

import argparse
import sys

import pytest

from repro.eval import ServingLoadConfig, format_reports, run_scenario

_CFG = ServingLoadConfig()
_SMOKE_CFG = ServingLoadConfig(num_requests=48, trace_steps=40)


@pytest.fixture(scope="module")
def reports():
    return run_scenario("serving_load", _CFG)


@pytest.mark.benchmark(group="serving")
def test_batched_beats_fifo_on_throughput(reports):
    assert (reports["batched"].throughput_rps
            > reports["fifo"].throughput_rps)


@pytest.mark.benchmark(group="serving")
def test_batched_tail_latency_no_worse(reports):
    assert reports["batched"].p95_ms <= reports["fifo"].p95_ms


@pytest.mark.benchmark(group="serving")
def test_batched_compliance_no_worse(reports):
    assert (reports["batched"].compliance
            >= reports["fifo"].compliance)


@pytest.mark.benchmark(group="serving")
def test_overlap_contributes_on_top_of_amortization(reports):
    batched = reports["batched"]
    serial = reports["batched-serial"]
    # same membership, same amortization — overlap is the only delta
    assert batched.stats.amortized_decisions > 0
    assert batched.stats.overlap_saved_s > 0.0
    assert serial.stats.overlap_saved_s == 0.0
    assert batched.throughput_rps >= serial.throughput_rps


@pytest.mark.benchmark(group="serving")
def test_serving_load_is_reproducible():
    """Same config, same records — bit for bit.

    Decision cost is pinned in the scenario config, so unlike the chaos
    benchmark even the absolute timestamps must agree.
    """
    a = run_scenario("serving_load", _SMOKE_CFG)
    b = run_scenario("serving_load", _SMOKE_CFG)
    for name in a:
        ra, rb = a[name].stats.records, b[name].stats.records
        assert len(ra) == len(rb)
        assert ra == rb


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Batched-serving benchmark: fifo vs batched pipeline.")
    parser.add_argument("--smoke", action="store_true",
                        help="small smoke configuration (CI)")
    parser.add_argument("--requests", type=int, default=None,
                        help="override request count")
    args = parser.parse_args(argv)
    cfg = _SMOKE_CFG if args.smoke else _CFG
    if args.requests is not None:
        from dataclasses import replace
        cfg = replace(cfg, num_requests=args.requests)
    reports = run_scenario("serving_load", cfg)
    print(format_reports(reports))
    fifo, batched = reports["fifo"], reports["batched"]
    speedup = batched.throughput_rps / fifo.throughput_rps
    ok = (batched.throughput_rps > fifo.throughput_rps
          and batched.p95_ms <= fifo.p95_ms
          and batched.compliance >= fifo.compliance)
    print(f"\nbatched/fifo throughput: {speedup:.2f}x, "
          f"overlap hid {batched.stats.overlap_saved_s * 1e3:.0f}ms of "
          f"decisions ({'PASS' if ok else 'FAIL'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
