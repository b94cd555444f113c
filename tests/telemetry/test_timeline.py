"""Flattening span trees into per-request timelines."""

import pytest

from repro.telemetry import RequestTimeline, Telemetry, TimelineEvent, Tracer
from repro.telemetry.tracing import MAX_FINISHED


def _request_tree(tracer, arrival=0.0, request=0, satisfied=None):
    extra = {} if satisfied is None else {"satisfied": satisfied}
    with tracer.span("request", sim_time=arrival, request=request,
                     **extra) as root:
        with tracer.span("queue", sim_time=arrival) as qs:
            qs.set_sim_end(arrival + 0.01)
        with tracer.span("decision", sim_time=arrival + 0.01) as sp:
            sp.add_sim(0.02)
        with tracer.span("execute", sim_time=arrival + 0.03) as sp:
            with tracer.span("segment", sim_time=arrival + 0.03) as seg:
                seg.set_sim_end(arrival + 0.08)
            sp.set_sim_end(arrival + 0.08)
        root.set_sim_end(arrival + 0.08)
    return tracer.finished[-1]


class TestFromSpan:
    def test_flatten_preserves_order_and_depth(self):
        root = _request_tree(Tracer())
        tl = RequestTimeline.from_span(root, request_id=7)
        assert tl.request_id == 7
        assert tl.phases() == ["request", "queue", "decision",
                               "execute", "segment"]
        assert [e.depth for e in tl.events] == [0, 1, 1, 1, 2]

    def test_envelope_properties(self):
        root = _request_tree(Tracer(), arrival=2.0)
        tl = RequestTimeline.from_span(root)
        assert tl.arrival_s == pytest.approx(2.0)
        assert tl.total_s == pytest.approx(0.08)

    def test_duration_of_sums_matching_phases(self):
        root = _request_tree(Tracer())
        tl = RequestTimeline.from_span(root)
        assert tl.duration_of("queue") == pytest.approx(0.01)
        assert tl.duration_of("decision") == pytest.approx(0.02)
        assert tl.duration_of("nope") == 0.0

    def test_empty_timeline(self):
        tl = RequestTimeline(request_id=0)
        assert tl.root is None
        assert tl.total_s == 0.0
        assert tl.arrival_s is None

    def test_to_dict(self):
        root = _request_tree(Tracer(), request=5)
        d = RequestTimeline.from_span(root, request_id=5).to_dict()
        assert d["request_id"] == 5
        assert d["attrs"]["request"] == 5
        assert [e["name"] for e in d["events"]][0] == "request"

    def test_render_gantt(self):
        root = _request_tree(Tracer())
        out = RequestTimeline.from_span(root).render(width=20)
        assert "request 0" in out
        assert "#" in out
        assert "segment" in out


class TestTimelineEvent:
    def test_to_dict_includes_attrs_only_when_present(self):
        e = TimelineEvent("queue", 0.0, 0.01, 0.0, 1)
        assert "attrs" not in e.to_dict()
        e2 = TimelineEvent("queue", 0.0, 0.01, 0.0, 1, {"k": "v"})
        assert e2.to_dict()["attrs"] == {"k": "v"}


class TestLazyMaterialization:
    def test_timelines_built_from_finished_roots_on_access(self):
        tel = Telemetry()
        for i in range(3):
            _request_tree(tel.tracer, arrival=float(i), request=i)
        tls = tel.timelines
        assert [tl.request_id for tl in tls] == [0, 1, 2]
        # repeated access does not duplicate
        assert len(tel.timelines) == 3

    def test_new_roots_appear_incrementally(self):
        tel = Telemetry()
        _request_tree(tel.tracer, request=0)
        assert len(tel.timelines) == 1
        _request_tree(tel.tracer, request=1)
        assert len(tel.timelines) == 2

    def test_survives_tracer_truncation(self):
        """The tracer's cap is the one retention bound: past
        ``MAX_FINISHED`` roots the oldest go, SLO violators with them."""
        tel = Telemetry()
        n = MAX_FINISHED + 3
        tel.tracer.spans("request", 0.0, [float(i + 1) for i in range(n)],
                         request=list(range(n)),
                         satisfied=[i >= 3 for i in range(n)])
        assert [tl.request_id for tl in tel.timelines] == list(range(3, n))
