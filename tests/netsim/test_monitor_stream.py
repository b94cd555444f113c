"""The monitor's block-drawn noise against numpy's scalar lognormal.

``NetworkMonitor`` draws standard normals in blocks and finishes each
sample as ``exp(0.0 + sigma * z)``.  The stream law: active probes,
alternating devices across several block refills, see exactly the
samples ``default_rng(seed).lognormal(0.0, sigma)`` would have given
them, one call at a time — also when ``probe_all`` rounds and single
probes interleave, and the smoothed estimate is the EWMA fold of those
samples.  Then the monitor's typed errors: a noise or smoothing factor
that would poison every estimate is refused at construction.

``PRICE_KERNEL_N`` sets the fuzzer's example count; CI multiplies it
by ten.
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
    for step in range(DRAWS // 2):
        device = 1 + step % 2
        m = mon.active_probe(device, now=float(step))
        assert m.bandwidth_mbps == cond.bandwidths_mbps[device - 1] \
            * float(ref.lognormal(0.0, noise))
        assert m.delay_ms == cond.delays_ms[device - 1] \
            * float(ref.lognormal(0.0, noise))


@settings(max_examples=KERNEL_N, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.05, 0.37]),
       st.sampled_from([0.3, 0.5, 1.0]), st.integers(2, 4),
       st.integers(0, 2**32 - 1))
def test_rounds_and_single_probes_equal_the_per_sample_stream(
        seed, noise, alpha, remotes, plan_seed):
    """``probe_all`` rounds and single ``active_probe``s, interleaved
    over several block refills, take the scalar stream in (device,
    bandwidth, delay) order and smooth exactly as the EWMA fold below."""
    truth = NetworkCondition(tuple(50.0 + 25.0 * d for d in range(remotes)),
                             tuple(5.0 + 3.0 * d for d in range(remotes)))
    world = Cluster([rpi4()] * (remotes + 1), truth)
    mon = NetworkMonitor(world, noise=noise, ewma_alpha=alpha, seed=seed)
    ref = np.random.default_rng(seed)
    plan = np.random.default_rng(plan_seed)
    bw, delay = {}, {}     # the fold
    probes = 0
    while probes < 3 * 128:    # three blocks of 256 normals, two a probe
        if plan.random() < 0.4:
            devices = list(range(1, remotes + 1))
            got = mon.probe_all(now=float(probes))
        else:
            devices = [int(plan.integers(1, remotes + 1))]
            got = [mon.active_probe(devices[0], now=float(probes))]
        assert [m.device for m in got] == devices
        for m in got:
            d = m.device
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
            tuple(bw.get(d, truth.bandwidths_mbps[d - 1])
                  for d in range(1, remotes + 1)),
            tuple(delay.get(d, truth.delays_ms[d - 1])
                  for d in range(1, remotes + 1)))


def test_an_estimate_that_reads_the_true_link_follows_it():
    """A never-probed device falls back to the true link, and the
    estimate follows that link when it moves without a sample."""
    world = cluster()
    mon = NetworkMonitor(world, noise=0.0)
    mon.active_probe(1)
    assert mon.estimate().delays_ms[1] == 30.0
    world.set_condition(NetworkCondition((100.0, 200.0), (10.0, 45.0)))
    assert mon.estimate().delays_ms[1] == 45.0


def test_a_measurement_is_an_immutable_record_with_the_same_fields():
    assert Measurement._fields == ("device", "bandwidth_mbps", "delay_ms",
                                   "timestamp", "source")
    m = NetworkMonitor(cluster(), seed=0).active_probe(1, now=2.0)
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
