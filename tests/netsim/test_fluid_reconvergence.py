"""Mid-flight re-convergence invariants for the fluid solver.

Seeded property tests over :meth:`FluidTracker.update_caps` — the event
core's entry point for applying a capacity step to in-flight flows at
its true instant:

* **byte conservation across a step** — a capacity update changes
  *rates*, never *bytes*: per flow, the rate integrated over the
  recorded segments still equals its payload exactly;
* **monotonicity on a shared bottleneck** — on a single shared link, a
  capacity *decrease* never makes any in-flight flow finish earlier,
  and an *increase* never makes one finish later (single-link only by
  design: on a multi-edge graph, slowing one flow can free a different
  edge and legitimately speed a rival up);
* **completion-instant determinism** — an update landing exactly on a
  flow's completion instant processes the completion *first* (the
  ledger's documented ordering), so the finish float is bit-identical
  with or without the update, and an admission sharing the update's
  instant prices at the *new* capacity (world changes before
  observers, the event core's priority convention).
"""

import numpy as np
import pytest

from repro.netsim.fluid import FluidTracker

SMALL_N = 20

_REL = 1e-9
_ABS = 1e-6

_E = (0, 1)


def _single_link_scenario(seed):
    """Random flows on one shared link + a mid-flight step; seed-pure."""
    rng = np.random.default_rng((seed, 99))
    cap = float(rng.uniform(1e6, 1e8))
    n = int(rng.integers(2, 8))
    admits = np.sort(rng.uniform(0.0, 2.0, n))
    sizes = rng.uniform(1e4, 1e7, n)
    return cap, [(float(t), float(s)) for t, s in zip(admits, sizes)], rng


def _admit_all(cap, flows):
    tracker = FluidTracker(record_segments=True)
    fids = [tracker.admit((_E,), {_E: cap}, t, nbytes) for t, nbytes
            in flows]
    return tracker, fids


@pytest.mark.parametrize("seed", range(SMALL_N))
def test_capacity_step_conserves_bytes(seed):
    """∫ rate dt == nbytes * 8 per flow, step or no step."""
    cap, flows, rng = _single_link_scenario(seed)
    tracker, fids = _admit_all(cap, flows)
    t_step = float(rng.uniform(flows[-1][0], flows[-1][0] + 1.0))
    factor = float(rng.uniform(0.2, 5.0))
    tracker.update_caps(t_step, {_E: cap * factor})
    tracker.drain()
    for fid, (start, nbytes) in zip(fids, flows):
        sent = sum(seg.rates[fid] * seg.duration
                   for seg in tracker.segments if fid in seg.rates)
        assert sent == pytest.approx(nbytes * 8.0,
                                     rel=_REL, abs=_ABS), (
            f"seed {seed} flow {fid}: {sent} bits integrated, "
            f"{nbytes * 8.0} admitted")


@pytest.mark.parametrize("seed", range(SMALL_N))
def test_cap_decrease_never_finishes_a_flow_earlier(seed):
    cap, flows, rng = _single_link_scenario(seed)
    base, base_fids = _admit_all(cap, flows)
    base.drain()
    baseline = base.finish_times()
    t_step = float(rng.uniform(flows[-1][0],
                               max(baseline.values())))
    stepped, fids = _admit_all(cap, flows)
    stepped.update_caps(t_step, {_E: cap * float(rng.uniform(0.1, 0.9))})
    stepped.drain()
    after = stepped.finish_times()
    for bf, sf in zip(base_fids, fids):
        if baseline[bf] <= t_step:
            # already done when the step landed: bit-identical
            assert after[sf] == baseline[bf]
        else:
            assert after[sf] >= baseline[bf] - _ABS, (
                f"seed {seed}: cap decrease moved finish "
                f"{baseline[bf]} -> {after[sf]} (earlier)")


@pytest.mark.parametrize("seed", range(SMALL_N))
def test_cap_increase_never_finishes_a_flow_later(seed):
    cap, flows, rng = _single_link_scenario(seed)
    base, base_fids = _admit_all(cap, flows)
    base.drain()
    baseline = base.finish_times()
    t_step = float(rng.uniform(flows[-1][0],
                               max(baseline.values())))
    stepped, fids = _admit_all(cap, flows)
    stepped.update_caps(t_step, {_E: cap * float(rng.uniform(1.1, 10.0))})
    stepped.drain()
    after = stepped.finish_times()
    for bf, sf in zip(base_fids, fids):
        if baseline[bf] <= t_step:
            assert after[sf] == baseline[bf]
        else:
            assert after[sf] <= baseline[bf] + _ABS, (
                f"seed {seed}: cap increase moved finish "
                f"{baseline[bf]} -> {after[sf]} (later)")


def test_flow_reconverges_at_the_step_instant():
    """A cap step lands *exactly* at its scheduled time in the ledger:
    the flow's rate segments flip at t_step and the finish time equals
    the closed-form two-rate integral."""
    tracker = FluidTracker(record_segments=True)
    nbytes = 5e6 / 8.0  # 5 Mbit
    tracker.admit((_E,), {_E: 10e6}, 0.0, nbytes)
    # halfway through (2.5 Mbit sent at t=0.25), capacity halves
    tracker.update_caps(0.25, {_E: 5e6})
    tracker.drain()
    finish = tracker.finish_times()[0]
    assert finish == pytest.approx(0.25 + 2.5e6 / 5e6)  # = 0.75
    # the audit trail: one segment ends exactly at the step instant,
    # rates flip from 10 Mbps to 5 Mbps there
    cut = [s for s in tracker.segments if s.t1 == 0.25]
    assert cut and cut[0].rates[0] == pytest.approx(10e6)
    after = [s for s in tracker.segments if s.t0 == 0.25]
    assert after and after[0].rates[0] == pytest.approx(5e6)


def test_update_on_completion_instant_processes_completion_first():
    """8e6 bits over an 8 Mbps link completes at exactly t=1.0; a cap
    step at 1.0 must not touch it — completions at the instant resolve
    before the update, deterministically."""
    plain = FluidTracker()
    fid = plain.admit((_E,), {_E: 8e6}, 0.0, 1e6)
    plain.drain()
    untouched = plain.finish_times()[fid]
    assert untouched == 1.0

    stepped = FluidTracker()
    fid = stepped.admit((_E,), {_E: 8e6}, 0.0, 1e6)
    stepped.update_caps(1.0, {_E: 4e6})
    stepped.drain()
    assert stepped.finish_times()[fid] == untouched  # bit-identical


def test_admission_at_the_update_instant_prices_at_the_new_cap():
    """World changes fire before observers at a shared instant: a flow
    admitted at the same time as the step sees the new capacity."""
    tracker = FluidTracker()
    tracker.update_caps(1.0, {_E: 4e6})
    fid = tracker.admit((_E,), {_E: 4e6}, 1.0, 1e6)
    assert tracker.finish_time(fid) == 1.0 + 8e6 / 4e6

    # replaying the same sequence yields the same floats
    again = FluidTracker()
    again.update_caps(1.0, {_E: 4e6})
    fid2 = again.admit((_E,), {_E: 4e6}, 1.0, 1e6)
    assert again.finish_time(fid2) == tracker.finish_time(fid)


def test_update_caps_rejects_non_positive_capacity():
    tracker = FluidTracker()
    with pytest.raises(ValueError, match="positive"):
        tracker.update_caps(0.0, {_E: 0.0})
    with pytest.raises(ValueError, match="positive"):
        tracker.update_caps(0.0, {_E: -5.0})


def test_update_in_the_ledgers_past_clamps():
    """Same rule as out-of-order admissions: the ledger's clock never
    runs backwards; the capacities still install."""
    tracker = FluidTracker()
    fid = tracker.admit((_E,), {_E: 8e6}, 0.0, 1e6)
    tracker.update_caps(0.5, {_E: 8e6})   # advances the ledger to 0.5
    tracker.update_caps(0.25, {_E: 4e6})  # in the past: clamps to 0.5
    tracker.drain()
    # 0.5 s at 8 Mbps (4e6 bits) + remaining 4e6 bits at 4 Mbps
    assert tracker.finish_times()[fid] == pytest.approx(0.5 + 1.0)
    assert tracker.caps_updates_total == 2
