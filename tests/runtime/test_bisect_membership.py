"""Batch membership and queue depth by bisection, against searchsorted.

The serving loop turns its arrival times into a list of floats once, and
``BatchingInferenceServer._close_batch`` and
``ControlLoop.server_tick`` find who has arrived with
``bisect.bisect_right`` on it, searching from the leader ``i`` on.  The
law: on any sorted finite list, repeated values included, both answer
exactly what ``np.searchsorted(side="right")`` on the whole array gave
— the oracles below are the code they replaced.  The search points are
drawn from the arrival values themselves, between them and outside
them, where an off-by-one would show.

``PRICE_KERNEL_N`` sets the example count; CI multiplies it by ten.
"""

import functools
import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import ControlLoop
from repro.core import SLO, Murmuration, SearchDecisionEngine
from repro.devices import desktop_gtx1080, rpi4
from repro.nas import MBV3_SPACE
from repro.netsim import NetworkCondition
from repro.runtime import BatchingInferenceServer, BatchPolicy

KERNEL_N = int(os.environ.get("PRICE_KERNEL_N", "100"))

#: few distinct values, so ties are common
_TIES = st.sampled_from([0.0, 0.1, 0.25, 0.3, 1.0, 1.5, 7.0])
ARRIVALS = st.lists(_TIES | st.floats(0.0, 10.0), min_size=1,
                    max_size=30).map(sorted)


@functools.lru_cache(maxsize=None)
def _server() -> BatchingInferenceServer:
    devices = [rpi4(), desktop_gtx1080()]
    system = Murmuration(
        MBV3_SPACE, devices, NetworkCondition((300.0,), (10.0,)),
        SearchDecisionEngine(MBV3_SPACE, devices, n_random_archs=4),
        slo=SLO.latency_ms(200.0), use_predictor=False)
    return BatchingInferenceServer(system, 5.0)


def _points(arrivals):
    """The arrival values, the midpoints between neighbours, and one
    point below and one above them all."""
    mids = [(a + b) / 2 for a, b in zip(arrivals, arrivals[1:])]
    return sorted(set(arrivals + mids + [arrivals[0] - 1.0,
                                          arrivals[-1] + 1.0]))


def _close_oracle(policy, arrivals, i, exec_free, early):
    """``_close_batch`` as it was written on a NumPy array."""
    arrivals = np.asarray(arrivals, dtype=float)
    a_first = float(arrivals[i])
    natural = max(a_first, exec_free)
    horizon = max(natural, a_first + policy.max_wait_s)
    j = min(i + policy.max_batch,
            int(np.searchsorted(arrivals, horizon, side="right")))
    if j - i < policy.max_batch:
        return j, horizon
    filled = float(arrivals[j - 1])
    return j, filled if early else max(natural, filled)


class _Depth:
    """A controller that only records the queue depth it is shown."""

    name = "depth"

    def __init__(self):
        self.seen = []

    def update(self, snap, loop):
        self.seen.append(snap.queue_depth)


@settings(max_examples=KERNEL_N, deadline=None)
@given(ARRIVALS, st.data())
def test_close_batch_equals_the_searchsorted_form(arrivals, data):
    i = data.draw(st.integers(0, len(arrivals) - 1), label="i")
    points = _points(arrivals)
    exec_free = data.draw(st.sampled_from(points), label="exec_free")
    # a wait that lands the fill horizon on a later arrival (up to float
    # rounding), or between arrivals
    waits = [0.0, 0.05, 2.0] + [p - arrivals[i] for p in points
                                if p > arrivals[i]]
    policy = BatchPolicy(
        max_batch=data.draw(st.integers(1, 9), label="max_batch"),
        max_wait_s=data.draw(st.sampled_from(waits), label="max_wait_s"))
    server = _server()
    server.policy = policy
    for early in (False, True):
        assert server._close_batch(arrivals, i, exec_free, early) \
            == _close_oracle(policy, arrivals, i, exec_free, early)


@settings(max_examples=KERNEL_N, deadline=None)
@given(ARRIVALS, st.data())
def test_server_tick_queue_depth_equals_the_searchsorted_form(arrivals,
                                                               data):
    i = data.draw(st.integers(0, len(arrivals) - 1), label="i")
    busy_until = data.draw(st.sampled_from(_points(arrivals)),
                           label="busy_until")
    depth = _Depth()
    loop = ControlLoop([depth], period_s=1.0)
    assert loop.server_tick(1.0, None, arrivals, i, busy_until)
    found = int(np.searchsorted(np.asarray(arrivals), busy_until,
                                side="right"))
    assert depth.seen == [max(found - i, 0)]
