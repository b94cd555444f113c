"""Links: transfer-time arithmetic and validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import rpi4
from repro.netsim import (LOOPBACK, Link, NetworkCondition,
                          star_topology)


class TestLink:
    def test_transfer_time_components(self):
        link = Link(bandwidth_mbps=100, delay_ms=10, rpc_overhead_ms=1)
        # 1 MB over 100 Mbps = 80 ms wire + 11 ms fixed
        t = link.transfer_time(1_000_000)
        assert t == pytest.approx(0.011 + 0.08)

    def test_zero_bytes_still_pays_delay(self):
        link = Link(bandwidth_mbps=100, delay_ms=10)
        assert link.transfer_time(0) == pytest.approx(0.011)

    @pytest.mark.parametrize("kwargs", [
        {"bandwidth_mbps": float("nan"), "delay_ms": 1.0},
        {"bandwidth_mbps": 10.0, "delay_ms": float("nan")},
    ])
    def test_nan_is_rejected(self, kwargs):
        """NaN fails ``<= 0`` and ``< 0`` alike; a NaN link prices every
        transfer at NaN seconds, which ``max(done, nan)`` then drops —
        the plan looks free."""
        with pytest.raises(ValueError):
            Link(**kwargs)

    @pytest.mark.parametrize("overhead", [-5.0, float("nan"), float("inf")])
    def test_an_rpc_overhead_must_be_finite_and_non_negative(self, overhead):
        """Regression: ``rpc_overhead_ms=-5`` priced a 1 kB transfer over
        a 100 Mbps, 1 ms star link at -0.0039 s, and NaN priced it at
        NaN.  ``Link`` and ``MeshCluster`` themselves are in
        ``tests/test_domains.py``'s sweep; a star passes it through."""
        devices = [rpi4(), rpi4()]
        for build in (
                lambda: star_topology(devices,
                                      NetworkCondition((100.0,), (5.0,)),
                                      rpc_overhead_ms=overhead),
                lambda: star_topology(devices[:1], NetworkCondition((), ()),
                                      rpc_overhead_ms=overhead)):
            with pytest.raises(ValueError,
                               match=f"rpc_overhead_ms must be .* {overhead}"):
                build()
        star = star_topology(devices, NetworkCondition((100.0,), (5.0,)),
                             rpc_overhead_ms=0.0)
        assert star.transfer_time(0, 1, 1e3) > 0.0

    @pytest.mark.parametrize("delay", [float("inf"), float("nan"), -1.0])
    def test_a_delay_must_be_finite_and_non_negative(self, delay):
        """Regression: an infinite delay built a star spoke and a mesh
        edge that priced every transfer at ``inf`` seconds, failing
        mid-run or with an ``OverflowError`` from the strategy cache
        (``Link`` and ``MeshLink`` themselves are in the class sweep)."""
        devices = [rpi4(), rpi4()]
        star = star_topology(devices, NetworkCondition((100.0,), (5.0,)))
        for build in (
                lambda: star_topology(devices,
                                      NetworkCondition((100.0,), (delay,))),
                lambda: star.set_condition(
                    NetworkCondition((100.0,), (delay,)))):
            with pytest.raises(ValueError,
                               match=f"delay_ms must be finite, non-negative "
                                     f"and at most 1e9 ms, got {delay}"):
                build()

    def test_infinite_bandwidth_is_a_link(self):
        """A mesh self-route is an infinitely fast, zero-delay link."""
        assert Link(float("inf"), 0.0, 0.0).transfer_time(10 ** 9) == 0.0

    def test_with_conditions(self):
        link = Link(100, 10)
        l2 = link.with_conditions(bandwidth_mbps=50)
        assert l2.bandwidth_mbps == 50 and l2.delay_ms == 10
        l3 = link.with_conditions(delay_ms=5)
        assert l3.bandwidth_mbps == 100 and l3.delay_ms == 5

    def test_with_conditions_revalidates(self):
        """Updated conditions re-run the invariants: a fault schedule's
        ``bw_factor`` can never drive a link to zero or below."""
        link = Link(100, 10)
        with pytest.raises(ValueError):
            link.with_conditions(bandwidth_mbps=0)
        with pytest.raises(ValueError):
            link.with_conditions(bandwidth_mbps=-5)
        with pytest.raises(ValueError):
            link.with_conditions(delay_ms=-1)
        # the original is untouched by the failed update
        assert link.bandwidth_mbps == 100 and link.delay_ms == 10

    def test_loopback_free(self):
        assert LOOPBACK.transfer_time(10 ** 9) < 1e-2

    @given(st.floats(1, 1000), st.floats(0, 200), st.integers(0, 10 ** 8))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_bytes_and_bandwidth(self, bw, delay, nbytes):
        link = Link(bw, delay)
        assert link.transfer_time(nbytes + 1000) >= link.transfer_time(nbytes)
        faster = Link(bw * 2, delay)
        assert faster.transfer_time(nbytes) <= link.transfer_time(nbytes)
