"""Each observer's dispatch form equals the per-item calls it replaces.

A price-once batch hands its ``n`` items to every observer in one call:
the tracer's :meth:`~repro.telemetry.Tracer.spans` and
:meth:`~repro.telemetry.Tracer.requests`, the histogram's
``observe_many`` and the recorder's ``on_requests``.  Each must leave
exactly what the per-item calls leave -- span names, simulated times,
attrs in order, nesting, ``finished`` order, truncation and ``dropped``;
every histogram float; every recorded byte.
"""

import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.server import RequestRecord
from repro.telemetry import Histogram, RunRecorder, Tracer, write_recordings
from repro.telemetry.tracing import MAX_FINISHED, Span

_times = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
_latencies = st.lists(st.floats(min_value=1e-6, max_value=10.0), min_size=1,
                      max_size=9)
_tenants = st.one_of(st.none(), st.sampled_from(["a", "b"]))


def _tree(span):
    return (span.name, span.sim_start.hex(), span.sim_end.hex(),
            list(span.attrs.items()), [_tree(c) for c in span.children])


#: closed roots a tracer starts from, built once
_OLD = [Span("old", float(-i), sim_end=float(-i))
        for i in range(MAX_FINISHED)]


def _state(tracer):
    """The newest roots (each one a test adds, and the old ones before
    them), how many are held and how many were dropped."""
    return ([_tree(root) for root in tracer.finished[-20:]],
            len(tracer.finished), tracer.dropped)


def _tracers(room, prefill, parent):
    """Two tracers in one state: ``room`` roots short of
    ``MAX_FINISHED``, then ``prefill`` more finished roots, and an open
    ``parent`` span when asked."""
    pair = []
    for _ in range(2):
        tracer = Tracer()
        tracer.finished.extend(_OLD[:MAX_FINISHED - room])
        for i in range(prefill):
            with tracer.span("old", sim_time=float(i)) as sp:
                sp.set_sim_end(float(i))
        pair.append((tracer, tracer.span("batch", sim_time=0.0)
                     if parent else None))
    return pair


def _close(tracer, parent):
    if parent is not None:
        parent.set_sim_end(1.0)
        parent.__exit__(None, None, None)


@settings(max_examples=150, deadline=None)
@given(start=_times, latencies=_latencies, room=st.integers(1, 6),
       prefill=st.integers(0, 4), parent=st.booleans(),
       ids=st.booleans(), tenants=st.lists(_tenants, min_size=9, max_size=9),
       degraded=st.booleans())
def test_spans_equal_one_hand_opened_span_per_item(start, latencies, room,
                                                   prefill, parent, ids,
                                                   tenants, degraded):
    n = len(latencies)
    request_ids = list(range(7, 7 + n)) if ids else None
    tenants = tenants[:n] if any(tenants[:n]) else None
    (bulk, bulk_parent), (hand, hand_parent) = _tracers(room, prefill, parent)

    # the facade's per-item loop, as it stood before the dispatch form
    sim_t, finishes = start, []
    for k, latency in enumerate(latencies):
        with hand.span("execute", sim_time=sim_t) as sp:
            if request_ids is not None:
                sp.annotate(request=request_ids[k])
            if tenants is not None and tenants[k] is not None:
                sp.annotate(tenant=tenants[k])
            sp.add_sim(latency)
            if degraded:
                sp.annotate(outcome="degraded")
        sim_t = sim_t + latency
        finishes.append(sim_t)

    bulk.spans("execute", start, finishes, request=request_ids,
               tenant=tenants, outcome=["degraded"] * n if degraded else None)
    _close(bulk, bulk_parent)
    _close(hand, hand_parent)
    assert _state(bulk) == _state(hand)


_records = st.builds(
    lambda a, q, s, ok, tenant, outcome: RequestRecord(
        a, a + q, a + q + s, s, 0.0, 0.0, ok, outcome, 0, 0, tenant),
    _times, _times, st.floats(min_value=0.0, max_value=10.0), st.booleans(),
    _tenants, st.sampled_from(["ok", "retried", "degraded", "failed"]))


@settings(max_examples=150, deadline=None)
@given(records=st.lists(_records, min_size=1, max_size=9),
       first=st.integers(0, 50), cache_hit=st.booleans(),
       batch=st.integers(0, 9), room=st.integers(1, 6),
       prefill=st.integers(0, 4), parent=st.booleans())
def test_requests_equal_the_batched_servers_hand_opened_roots(
        records, first, cache_hit, batch, room, prefill, parent):
    (bulk, bulk_parent), (hand, hand_parent) = _tracers(room, prefill, parent)
    for m, rr in enumerate(records, first):
        with hand.span("request", sim_time=rr.arrival, request=m) as root:
            with hand.span("queue", sim_time=rr.arrival) as qs:
                qs.set_sim_end(rr.start)
            root.set_sim_end(rr.finish)
            root.annotate(satisfied=rr.satisfied, cache_hit=cache_hit)
            root.annotate(batch=batch)
            if rr.tenant is not None:
                root.annotate(tenant=rr.tenant)
            if rr.outcome != "ok":
                root.annotate(outcome=rr.outcome)
    bulk.requests(first, records, cache_hit=cache_hit, batch=batch)
    _close(bulk, bulk_parent)
    _close(hand, hand_parent)
    assert _state(bulk) == _state(hand)


def _hist_state(h):
    return (h.count, repr(h.sum), math.copysign(1.0, h.sum), h.min, h.max,
            list(h._counts))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(
    st.floats(min_value=-1.0, max_value=1e6),
    st.sampled_from([0.0, -0.0, 1e-6, 1e5, math.inf, 1e-300])), max_size=30))
def test_observe_many_equals_one_observe_per_value(values):
    bulk, hand = Histogram("h"), Histogram("h")
    bulk.observe_many(values)
    for v in values:
        hand.observe(v)
    assert _hist_state(bulk) == _hist_state(hand)
    if all(math.isfinite(v) for v in values):
        assert bulk.sum.hex() == hand.sum.hex()


@settings(max_examples=100, deadline=None)
@given(records=st.lists(_records, min_size=1, max_size=9),
       first=st.integers(0, 50), batch=st.one_of(st.none(),
                                                 st.integers(0, 9)))
def test_on_requests_writes_the_bytes_of_one_on_request_per_record(
        records, first, batch):
    bulk, hand = RunRecorder("s", "v"), RunRecorder("s", "v")
    bulk.on_requests(first, records, batch=batch)
    for request_id, rr in enumerate(records, first):
        hand.on_request(request_id, rr, batch=batch)
    out = []
    for rec in (bulk, hand):
        buf = io.StringIO()
        write_recordings(buf, [rec])
        out.append(buf.getvalue())
    assert out[0] == out[1]
