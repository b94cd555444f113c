"""Flattening span trees into per-request timelines."""

import numpy as np
import pytest

from repro.telemetry import RequestTimeline, Telemetry, TimelineEvent, Tracer


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
        tel = Telemetry(tracer=Tracer(max_finished=2))
        for i in range(5):
            _request_tree(tel.tracer, request=i)
        # only the 2 newest roots are still materializable
        assert [tl.request_id for tl in tel.timelines] == [3, 4]

    def test_child_views_share_the_buffer(self):
        tel = Telemetry()
        child = tel.child("server")
        _request_tree(tel.tracer, request=0)
        assert len(child.timelines) == 1
        assert len(tel.timelines) == 1  # not double-consumed

    def test_max_timelines_bounds_memory(self):
        tel = Telemetry(max_timelines=2)
        for i in range(4):
            _request_tree(tel.tracer, request=i)
        assert [tl.request_id for tl in tel.timelines] == [2, 3]


class TestSloAwareRetention:
    """Sampling and eviction must never hide SLO-violating requests.

    Regression surface for the pre-change hub, whose FIFO eviction at
    ``max_timelines`` silently dropped the oldest timelines regardless
    of whether they were the interesting (tail) ones.
    """

    def test_violators_survive_eviction(self):
        tel = Telemetry(max_timelines=2)
        for i in range(6):
            _request_tree(tel.tracer, arrival=float(i), request=i,
                          satisfied=(i not in (1, 4)))
        # 4 oldest *satisfying* timelines evicted; the two violators
        # (old as they are) survive
        assert [tl.request_id for tl in tel.timelines] == [1, 4]

    def test_violators_survive_sustained_load(self):
        """Under load far beyond the cap, every violator is retained."""
        tel = Telemetry(max_timelines=3)
        violators = {7, 19, 23, 41}
        for i in range(50):
            _request_tree(tel.tracer, arrival=float(i), request=i,
                          satisfied=(i not in violators))
            tel.timelines  # materialize incrementally, as serving does
        kept = {tl.request_id for tl in tel.timelines}
        assert violators <= kept

    def test_cap_yields_to_violators(self):
        """All-violator load may exceed max_timelines: the cap yields
        rather than hide the tail."""
        tel = Telemetry(max_timelines=2)
        for i in range(4):
            _request_tree(tel.tracer, request=i, satisfied=False)
        assert [tl.request_id for tl in tel.timelines] == [0, 1, 2, 3]

    def test_satisfying_timelines_still_evict_oldest_first(self):
        tel = Telemetry(max_timelines=2)
        for i in range(5):
            _request_tree(tel.tracer, request=i, satisfied=True)
        assert [tl.request_id for tl in tel.timelines] == [3, 4]

    def test_sample_every_keeps_one_in_n(self):
        tel = Telemetry(sample_every=2)
        for i in range(6):
            _request_tree(tel.tracer, request=i)
        assert [tl.request_id for tl in tel.timelines] == [0, 2, 4]

    def test_sampling_never_drops_violators(self):
        tel = Telemetry(sample_every=3)
        for i in range(9):
            _request_tree(tel.tracer, request=i,
                          satisfied=(i not in (1, 5)))
        # 1-in-3 keeps 0, 3, 6; violators 1 and 5 ride along
        assert [tl.request_id for tl in tel.timelines] == [0, 1, 3, 5, 6]

    def test_numpy_bool_satisfied_recognized(self):
        tel = Telemetry(max_timelines=1)
        _request_tree(tel.tracer, request=0,
                      satisfied=np.bool_(False))
        _request_tree(tel.tracer, request=1,
                      satisfied=np.bool_(True))
        assert [tl.request_id for tl in tel.timelines] == [0]

    def test_sample_every_must_be_positive(self):
        with pytest.raises(ValueError, match="sample_every"):
            Telemetry(sample_every=0)

    @pytest.mark.parametrize("field,value", [
        ("sample_every", float("nan")), ("sample_every", 2.0),
        ("sample_every", True), ("max_timelines", float("nan")),
        ("max_timelines", -1), ("max_timelines", 2.5),
        ("max_timelines", True)])
    def test_settings_must_be_ints_in_range(self, field, value):
        """A NaN ``sample_every`` used to sample out every satisfied
        timeline, and ``max_timelines`` was never checked."""
        with pytest.raises(ValueError, match=field):
            Telemetry(**{field: value})

    def test_a_zero_timeline_cap_keeps_only_violators(self):
        tel = Telemetry(max_timelines=0)
        _request_tree(tel.tracer, request=0, satisfied=True)
        _request_tree(tel.tracer, request=1, satisfied=False)
        assert [tl.request_id for tl in tel.timelines] == [1]

    def test_child_views_inherit_sampling(self):
        tel = Telemetry(sample_every=2)
        child = tel.child("server")
        assert child.sample_every == 2
        for i in range(4):
            _request_tree(tel.tracer, request=i)
        assert [tl.request_id for tl in child.timelines] == [0, 2]

