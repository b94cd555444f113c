"""The monitor's block-drawn noise against numpy's scalar lognormal.

``NetworkMonitor`` draws standard normals in blocks and finishes each
sample as ``exp(0.0 + sigma * z)``.  The stream law: active probes and
passive observations, interleaved across several block refills, see
exactly the samples ``default_rng(seed).lognormal(0.0, sigma)`` would
have given them, one call at a time.  Then the monitor's typed errors:
a noise or smoothing factor that would poison every estimate is refused
at construction, and an impossible timed transfer before anything —
history, estimate or random stream — is touched.

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
       st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.37]),
       st.lists(st.booleans(), min_size=1, max_size=12))
def test_draws_equal_the_scalar_lognormal_stream(seed, noise, pattern):
    world = cluster()
    mon = NetworkMonitor(world, noise=noise, seed=seed)
    ref = np.random.default_rng(seed)
    cond = world.condition
    draws = step = 0
    while draws < DRAWS:
        device = 1 + step % 2
        true_bw = cond.bandwidths_mbps[device - 1]
        true_delay = cond.delays_ms[device - 1]
        if pattern[step % len(pattern)]:
            m = mon.active_probe(device, now=float(step))
            assert m.bandwidth_mbps \
                == true_bw * float(ref.lognormal(0.0, noise))
            assert m.delay_ms == true_delay * float(ref.lognormal(0.0, noise))
            draws += 2
        else:
            m = mon.passive_observe(device, 1e6, 0.2, now=float(step))
            assert m.delay_ms \
                == true_delay * float(ref.lognormal(0.0, noise * 2.0))
            draws += 1
        step += 1


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


@pytest.mark.parametrize("nbytes, elapsed_s, field", [
    (-1e6, 0.5, "nbytes"), (0.0, 0.5, "nbytes"), (math.nan, 0.5, "nbytes"),
    (math.inf, 0.5, "nbytes"), (1e6, math.nan, "elapsed_s"),
    (1e6, math.inf, "elapsed_s"), (1e6, -0.5, "elapsed_s")])
def test_an_impossible_transfer_touches_nothing(nbytes, elapsed_s, field):
    mon = NetworkMonitor(cluster(), seed=4)
    mon.active_probe(1)
    before = (mon.history, mon.estimate())
    with pytest.raises(ValueError, match=field):
        mon.passive_observe(1, nbytes, elapsed_s)
    assert (mon.history, mon.estimate()) == before
    # the random stream did not advance: the next probe is a fresh
    # monitor's second one
    twin = NetworkMonitor(cluster(), seed=4)
    twin.active_probe(1)
    assert mon.active_probe(2) == twin.active_probe(2)
