"""The monitor's block-drawn noise against numpy's scalar lognormal.

``NetworkMonitor`` draws standard normals in blocks and finishes each
sample as ``exp(0.0 + sigma * z)``.  The stream law: probe rounds, over
2-4 remotes and across several block refills (a round may straddle
one), see exactly the samples ``default_rng(seed).lognormal(0.0,
sigma)`` would have given them, one call at a time, and the smoothed
estimate is the EWMA fold of those samples.  ``recent_rel_error``'s
means are ``np.mean``'s bit for bit.  Then the monitor's typed errors:
a noise or smoothing factor that would poison every estimate is refused
at construction.

``PRICE_KERNEL_N`` sets the fuzzers' example count; CI multiplies it by
ten.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import rpi4
from repro.netsim import Cluster, Measurement, NetworkCondition, NetworkMonitor

KERNEL_N = int(os.environ.get("PRICE_KERNEL_N", "100"))
DRAWS = 600     # more than two blocks


def cluster():
    return Cluster([rpi4(), rpi4(), rpi4()],
                   NetworkCondition((100.0, 200.0), (10.0, 30.0)))


@settings(max_examples=KERNEL_N, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.37]))
def test_draws_equal_the_scalar_lognormal_stream(seed, noise):
    world = cluster()
    mon = NetworkMonitor(world, noise=noise, seed=seed)
    ref = np.random.default_rng(seed)
    cond = world.condition
    for step in range(DRAWS // 4):
        for m in mon.probe_all(now=float(step)):
            assert m.bandwidth_mbps == cond.bandwidths_mbps[m.device - 1] \
                * float(ref.lognormal(0.0, noise))
            assert m.delay_ms == cond.delays_ms[m.device - 1] \
                * float(ref.lognormal(0.0, noise))


def truth_of(rng, remotes):
    return NetworkCondition(
        tuple(float(b) for b in rng.uniform(5.0, 400.0, remotes)),
        tuple(float(d) for d in rng.uniform(1.0, 60.0, remotes)))


@settings(max_examples=KERNEL_N, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.05, 0.37]),
       st.sampled_from([0.3, 0.5, 1.0]), st.integers(2, 4),
       st.integers(0, 2**32 - 1))
def test_probe_rounds_equal_the_per_sample_stream(
        seed, noise, alpha, remotes, plan_seed):
    """``probe_all`` rounds over several block refills, with the true
    links moving between some of them, take the scalar stream in
    (device, bandwidth, delay) order against the truth of their round
    and smooth exactly as the EWMA fold below."""
    plan = np.random.default_rng(plan_seed)
    world = Cluster([rpi4()] * (remotes + 1), truth_of(plan, remotes))
    mon = NetworkMonitor(world, noise=noise, ewma_alpha=alpha, seed=seed)
    ref = np.random.default_rng(seed)
    bw, delay = {}, {}     # the fold
    probes = 0
    while probes < 3 * 128:    # three blocks of 256 normals, two a probe
        if plan.random() < 0.3:
            world.set_condition(truth_of(plan, remotes))
        truth = world.condition
        got = mon.probe_all(now=float(probes))
        assert [m.device for m in got] == list(range(1, remotes + 1))
        for m in got:
            d = m.device
            assert m.timestamp == float(probes)
            assert m.bandwidth_mbps == truth.bandwidths_mbps[d - 1] \
                * float(ref.lognormal(0.0, noise))
            assert m.delay_ms == truth.delays_ms[d - 1] \
                * float(ref.lognormal(0.0, noise))
            if d in bw:
                bw[d] = alpha * m.bandwidth_mbps + (1 - alpha) * bw[d]
                delay[d] = alpha * m.delay_ms + (1 - alpha) * delay[d]
            else:
                bw[d], delay[d] = m.bandwidth_mbps, m.delay_ms
        probes += len(got)
        assert mon.estimate() == NetworkCondition(
            tuple(bw[d] for d in range(1, remotes + 1)),
            tuple(delay[d] for d in range(1, remotes + 1)))


def _np_rel_error(mon):
    """``recent_rel_error`` as it stood: ``float(np.mean(...))``."""
    bw_errs, delay_errs = [], []
    for m in mon._recent:
        sm_bw = mon._smoothed_bw[m.device]
        sm_delay = mon._smoothed_delay[m.device]
        if sm_bw:
            bw_errs.append(abs(m.bandwidth_mbps - sm_bw) / sm_bw)
        if sm_delay:
            delay_errs.append(abs(m.delay_ms - sm_delay) / sm_delay)
    return (float(np.mean(bw_errs)) if bw_errs else 0.0,
            float(np.mean(delay_errs)) if delay_errs else 0.0)


@settings(max_examples=KERNEL_N, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.02, 0.05, 0.37]),
       st.sampled_from([0.3, 0.5, 1.0]), st.integers(1, 4),
       st.integers(1, 16))
def test_recent_rel_error_is_the_numpy_mean(seed, noise, alpha, remotes,
                                            rounds):
    """After every round, from 1 sample to the full window of 16 and
    past it, both means equal the ``np.mean`` form ``.hex()`` for
    ``.hex()``."""
    rng = np.random.default_rng(seed)
    world = Cluster([rpi4()] * (remotes + 1), truth_of(rng, remotes))
    mon = NetworkMonitor(world, noise=noise, ewma_alpha=alpha, seed=seed)
    assert mon.recent_rel_error() == (0.0, 0.0)
    for _ in range(rounds):
        mon.probe_all()
        got, want = mon.recent_rel_error(), _np_rel_error(mon)
        assert [v.hex() for v in got] == [v.hex() for v in want]


def test_an_estimate_that_reads_the_true_link_follows_it():
    """A never-probed monitor falls back to the true links, and the
    estimate follows them when they move without a sample."""
    world = cluster()
    mon = NetworkMonitor(world, noise=0.0)
    assert mon.estimate().delays_ms[1] == 30.0
    world.set_condition(NetworkCondition((100.0, 200.0), (10.0, 45.0)))
    assert mon.estimate().delays_ms[1] == 45.0


def test_a_measurement_is_an_immutable_record_with_the_same_fields():
    assert Measurement._fields == ("device", "bandwidth_mbps", "delay_ms",
                                   "timestamp", "source")
    m = NetworkMonitor(cluster(), seed=0).probe_all(now=2.0)[0]
    assert (m.device, m.timestamp, m.source) == (1, 2.0, "active")
    with pytest.raises(AttributeError):
        m.bandwidth_mbps = 1.0


@pytest.mark.parametrize("noise", [math.nan, math.inf, -math.inf, -0.1])
def test_a_noise_that_poisons_the_estimate_is_refused(noise):
    with pytest.raises(ValueError, match="noise"):
        NetworkMonitor(cluster(), noise=noise)


@pytest.mark.parametrize("alpha", [math.nan, 0.0, -1.0, 2.0, math.inf])
def test_a_smoothing_factor_outside_0_1_is_refused(alpha):
    with pytest.raises(ValueError, match="ewma_alpha"):
        NetworkMonitor(cluster(), ewma_alpha=alpha)


def test_a_noiseless_fully_trusting_monitor_reports_the_truth():
    world = cluster()
    mon = NetworkMonitor(world, noise=0.0, ewma_alpha=1.0)
    mon.probe_all()
    assert mon.estimate() == world.condition
